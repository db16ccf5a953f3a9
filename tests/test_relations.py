"""Tests for linear relations: composition, projections, adjoints, shifts."""

import itertools

from torsorlab.checks import run_suite
from torsorlab.fields import PrimeField, QuadraticExt
from torsorlab.gamma import l_relation
from torsorlab.matrices import Matrix, random_matrix
from torsorlab.relations import (
    LinearRelation,
    adjoint,
    apply_rel,
    compose,
    difference,
    gen_projection,
    inverse_rel,
    one_minus,
    one_plus,
    random_relation,
    relation_to_json,
)
from torsorlab.reports import CheckConfig
from torsorlab.rng import trial_rng
from torsorlab.subspaces import (
    all_subspaces,
    coord_subspace,
    full_subspace,
    graph_of,
    meet,
    random_subspace,
    span_rows,
    standard_forms,
)


def mat(field, rows):
    return Matrix.build(field, [[field.from_int(x) for x in row] for row in rows])


def rand_rel(field, half, seed, index):
    return random_relation(field, half, trial_rng(seed, index))


def rand_sub(field, ambient, seed, index):
    return random_subspace(field, ambient, trial_rng(seed, index))


def graph_rel(m):
    """The relation {(v, m v)} of a square matrix."""
    return LinearRelation(graph_of(m))


def test_identity_and_zero():
    f3 = PrimeField(3)
    ident = graph_rel(Matrix.identity(f3, 2))
    z = graph_rel(Matrix.zeros(f3, 2, 2))
    for i in range(20):
        x = rand_sub(f3, 2, 1, i)
        assert apply_rel(ident, x) == x
        assert apply_rel(z, x) == span_rows(f3, 2, [])


def test_compose_with_identity():
    f3 = PrimeField(3)
    ident = graph_rel(Matrix.identity(f3, 2))
    for i in range(25):
        f = rand_rel(f3, 2, 3, i)
        assert compose(ident, f) == f
        assert compose(f, ident) == f


def test_compose_order_and_application():
    """compose(g, f) applies f first: apply(g.f, x) = apply(g, apply(f, x))."""
    f5 = PrimeField(5)
    for i in range(40):
        f = rand_rel(f5, 2, 5, 2 * i)
        g = rand_rel(f5, 2, 5, 2 * i + 1)
        gf = compose(g, f)
        for j in range(5):
            x = rand_sub(f5, 2, 7, 5 * i + j)
            assert apply_rel(gf, x) == apply_rel(g, apply_rel(f, x))


def test_graph_rel_matches_matrix_action():
    from torsorlab.subspaces import image_under

    f3 = PrimeField(3)
    for i in range(25):
        m = random_matrix(f3, 2, 2, trial_rng(11, i))
        f = graph_rel(m)
        x = rand_sub(f3, 2, 13, i)
        assert apply_rel(f, x) == image_under(m, x)


def test_generalized_projection_exhaustive_f2():
    """P(x, a) maps everything into x and fixes x pointwise when a is transversal."""
    f2 = PrimeField(2)
    subs = list(all_subspaces(f2, 2))
    full = full_subspace(f2, 2)
    for x in subs:
        for a in subs:
            p = gen_projection(x, a)
            assert apply_rel(p, full) == x
            pp = compose(p, p)
            assert pp == p


def test_projection_idempotent_random():
    f5 = PrimeField(5)
    for i in range(60):
        x = rand_sub(f5, 3, 17, 2 * i)
        a = rand_sub(f5, 3, 17, 2 * i + 1)
        p = gen_projection(x, a)
        assert compose(p, p) == p


def test_projection_conjugation_by_relations():
    """F P(z, c) F^{-1} equals the projection onto the transported pair."""
    f3 = PrimeField(3)
    for i in range(50):
        f = rand_rel(f3, 2, 19, 3 * i)
        z = rand_sub(f3, 2, 19, 3 * i + 1)
        c = rand_sub(f3, 2, 19, 3 * i + 2)
        lhs = compose(f, compose(gen_projection(z, c), inverse_rel(f)))
        rhs = gen_projection(apply_rel(f, z), apply_rel(f, c))
        assert lhs == rhs


def test_one_minus_projection_swaps_pair():
    f3 = PrimeField(3)
    for i in range(40):
        x = rand_sub(f3, 2, 21, 2 * i)
        a = rand_sub(f3, 2, 21, 2 * i + 1)
        assert one_minus(gen_projection(x, a)) == gen_projection(a, x)


def test_inverse_rel():
    f3 = PrimeField(3)
    for i in range(30):
        f = rand_rel(f3, 2, 23, i)
        assert inverse_rel(inverse_rel(f)) == f
    ident = graph_rel(Matrix.identity(f3, 2))
    assert inverse_rel(ident) == ident


def test_inverse_of_projection_applies_as_join_meet():
    """apply(P(x, a) inverse, z) = a join (x meet z): sampled, then all of F2."""
    from torsorlab.subspaces import join

    f3 = PrimeField(3)
    triples = [tuple(rand_sub(f3, 2, 29, 3 * i + k) for k in range(3))
               for i in range(50)]
    triples += itertools.product(all_subspaces(PrimeField(2), 2), repeat=3)
    for x, a, z in triples:
        p = gen_projection(x, a)
        assert apply_rel(inverse_rel(p), z) == join(a, meet(x, z))


def test_difference_on_graphs():
    """difference of graph relations is the graph of the matrix difference."""
    f3 = PrimeField(3)
    for i in range(30):
        m = random_matrix(f3, 2, 2, trial_rng(31, 2 * i))
        k = random_matrix(f3, 2, 2, trial_rng(31, 2 * i + 1))
        assert difference(graph_rel(m), graph_rel(k)) == graph_rel(m - k)


def test_one_minus_is_an_involution():
    f3 = PrimeField(3)
    for i in range(30):
        f = rand_rel(f3, 2, 33, i)
        assert one_minus(one_minus(f)) == f


def test_one_plus_one_minus_on_graphs():
    """On graphs of matrices the shifts act as 1+m and 1-m."""
    f5 = PrimeField(5)
    eye = Matrix.identity(f5, 2)
    for i in range(30):
        m = random_matrix(f5, 2, 2, trial_rng(37, i))
        assert one_plus(graph_rel(m)) == graph_rel(eye + m)
        assert one_minus(graph_rel(m)) == graph_rel(eye - m)


def test_adjoint_reverses_composition():
    for field in (PrimeField(3), QuadraticExt(3)):
        for form in standard_forms(field, 1).values():
            for i in range(30):
                f = rand_rel(field, 2, 41, 2 * i)
                g = rand_rel(field, 2, 41, 2 * i + 1)
                lhs = adjoint(compose(g, f), form)
                rhs = compose(adjoint(f, form), adjoint(g, form))
                assert lhs == rhs


def test_adjoint_involutive():
    f3 = PrimeField(3)
    for form in standard_forms(f3, 1).values():
        for i in range(40):
            f = rand_rel(f3, 2, 43, i)
            assert adjoint(adjoint(f, form), form) == f


def test_adjoint_of_projection():
    """The adjoint of P(x, a) is P of the orthocomplement pair, reversed."""
    from torsorlab.subspaces import orthocomplement

    f3 = PrimeField(3)
    for form in standard_forms(f3, 1).values():
        for i in range(40):
            x = rand_sub(f3, 2, 47, 2 * i)
            a = rand_sub(f3, 2, 47, 2 * i + 1)
            lhs = adjoint(gen_projection(x, a), form)
            rhs = gen_projection(orthocomplement(a, form), orthocomplement(x, form))
            assert lhs == rhs


def test_relation_dimension_law():
    """dim(inner) = dim(kernel) + dim(image)."""
    f3 = PrimeField(3)
    first_block = coord_subspace(f3, 4, range(2))
    for i in range(60):
        f = rand_rel(f3, 2, 53, i)
        ker_dim = meet(f.inner, first_block).dim
        im_dim = apply_rel(f, full_subspace(f3, 2)).dim
        assert f.inner.dim == ker_dim + im_dim


def test_relation_json_roundtrip():
    f5 = PrimeField(5)
    for i in range(20):
        f = rand_rel(f5, 2, 59, i)
        obj = relation_to_json(f)
        assert obj["half"] == 2 and obj["ambient"] == 4
        rows = [[f5.parse(e) for e in row] for row in obj["basis"]]
        assert LinearRelation(span_rows(f5, 4, rows)) == f


RELATION_SUITES = ("projection-idempotent", "projection-conjugation",
                   "adjoint-reversal", "adjoint-shift", "adjoint-involutive",
                   "adjoint-image-inclusion", "l-inversion")


def relation_reports(field, config):
    return [r for name in RELATION_SUITES
            for r in run_suite(name, field, 2, config)]


def test_relation_identity_bundle_exhaustive_f2():
    reports = relation_reports(PrimeField(2), CheckConfig(exhaustive=True))
    assert len(reports) == 16
    for r in reports:
        assert r.failures == 0, (r.law, r.first_counterexample)
        assert r.cases > 0


def test_relation_identity_bundle_random_f3():
    reports = relation_reports(PrimeField(3), CheckConfig(trials=120, seed=5))
    for r in reports:
        assert r.failures == 0, (r.law, r.first_counterexample)
        assert r.cases == 120


def test_l_relation_inverse_on_arbitrary_tuples_f2():
    """L(x,a,y,b) inverse = L(y,a,x,b) on every 4-tuple, transversal or not."""
    tuples = list(itertools.product(all_subspaces(PrimeField(2), 2), repeat=4))
    assert len(tuples) == 625
    for x, a, y, b in tuples:
        assert inverse_rel(l_relation(x, a, y, b)) == l_relation(y, a, x, b)
