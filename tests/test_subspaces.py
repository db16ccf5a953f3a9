"""Tests for subspaces: lattice operations, charts, forms, enumeration."""

import copy
import gc
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest

from torsorlab import subspaces
from torsorlab.fields import FieldSyntaxError, PrimeField, QuadraticExt, Rationals
from torsorlab.matrices import (ENUMERATION_LIMIT, Matrix, ShapeError,
                                SingularMatrixError, parse_matrix, random_matrix)
from torsorlab.rng import trial_rng
from torsorlab.subspaces import (
    Form,
    Subspace,
    TransversalityError,
    all_subspaces,
    chart_minus,
    chart_of,
    complement,
    contains,
    coord_subspace,
    diag_form,
    enumerate_subspaces,
    full_subspace,
    gaussian_binomial,
    graph_minus,
    graph_of,
    hyperbolic_form,
    image_under,
    is_isotropic,
    is_transversal,
    join,
    meet,
    orthocomplement,
    random_subspace,
    span,
    span_rows,
    split_form,
    standard_forms,
    subspace_to_json,
    symplectic_form,
    vectors,
)


def mat(field, rows):
    return Matrix.build(field, [[field.from_int(x) for x in row] for row in rows])


def rand_sub(field, ambient, seed, index):
    return random_subspace(field, ambient, trial_rng(seed, index))


def test_span_is_canonical():
    """Two generating sets of the same space give equal Subspace values."""
    f3 = PrimeField(3)
    a = span(mat(f3, [[1, 0, 1], [0, 1, 1]]))
    b = span(mat(f3, [[1, 1, 2], [2, 0, 2], [1, 2, 0]]))
    assert a == b
    assert a.dim == 2
    assert hash(a) == hash(b)


def test_subspace_refuses_every_write():
    a = full_subspace(PrimeField(2), 2)
    basis = a.basis
    with pytest.raises(AttributeError):
        a.basis = Matrix.zeros(PrimeField(2), 0, 2)
    with pytest.raises(AttributeError):
        del a.basis
    # an attribute outside the slots has nowhere to go
    with pytest.raises(AttributeError):
        a.other = None
    assert not hasattr(a, "__dict__")
    assert a.basis is basis


@pytest.mark.parametrize("field", [PrimeField(3), Rationals()],
                         ids=["f3", "rat"])
def test_equal_bases_give_one_subspace(field):
    """Equal values are one object, so equality is identity and the hash
    is the object's own."""
    first = mat(field, [[1, 0, 2], [0, 1, 1]])
    second = mat(field, [[1, 0, 2], [0, 1, 1]])
    assert first == second and first is not second
    a = Subspace(first)
    assert Subspace(second) is a
    assert Subspace.__eq__ is object.__eq__
    assert Subspace.__hash__ is object.__hash__
    assert span(mat(field, [[1, 1, 3], [1, 0, 2], [2, 1, 5]])) is a


def test_copies_are_the_interned_subspace():
    a = rand_sub(PrimeField(3), 4, 13, 0)
    assert copy.copy(a) is a
    assert copy.deepcopy(a) is a
    assert copy.deepcopy({"x": [a]})["x"][0] is a
    assert pickle.loads(pickle.dumps(a)) is a


def test_the_intern_table_keeps_no_dead_subspace():
    gc.collect()
    start = len(subspaces._INTERNED)
    built = all_subspaces(PrimeField(3), 5)
    assert len(built) == 2664
    assert all(subspaces._INTERNED[s.basis] is s for s in built)
    del built
    gc.collect()
    assert len(subspaces._INTERNED) == start


# Allocate and free a few MB, keeping every third object, so that the
# library's objects land at other addresses than in a fresh interpreter.
MOVED_HEAP = """
import sys
kept = [bytearray(i % 61 + 1) for i in range(60000)][::3]
junk = [[i] * (i % 17) for i in range(100000)]
del junk
from torsorlab import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def test_output_does_not_depend_on_addresses():
    """Hashes of subspaces are addresses, so set and dict orders of
    subspaces differ between processes; no output byte may follow them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(subspaces.__file__).parents[1]), env.get("PYTHONPATH", "")])
    for argv in (["check", "--suite", "all", "--field", "f2", "--ambient",
                  "4", "--trials", "2", "--seed", "1"],
                 ["gtable", "--form", "symplectic", "--n", "1", "--field",
                  "f5", "--a", "1,0"]):
        runs = [subprocess.run([sys.executable, *how, *argv],
                               capture_output=True, text=True, timeout=300,
                               env=dict(env, PYTHONHASHSEED=seed))
                for how, seed in ((["-m", "torsorlab.cli"], "0"),
                                  (["-c", MOVED_HEAP], "4242"))]
        assert [r.returncode for r in runs] == [0, 0], runs[1].stderr
        assert runs[0].stdout and runs[1].stdout == runs[0].stdout


def test_span_rows_shortcut():
    f2 = PrimeField(2)
    a = span_rows(f2, 3, [[1, 0, 1]])
    b = span(mat(f2, [[1, 0, 1]]))
    assert a == b


def test_zero_and_full():
    f5 = PrimeField(5)
    z = span_rows(f5, 3, [])
    u = full_subspace(f5, 3)
    assert z.dim == 0 and u.dim == 3
    for i in range(10):
        x = rand_sub(f5, 3, 1, i)
        assert meet(x, z) == z
        assert join(x, z) == x
        assert meet(x, u) == x
        assert join(x, u) == u
        assert contains(u, x) and contains(x, z)


def test_lattice_laws_exhaustive_f2():
    f2 = PrimeField(2)
    subs = list(all_subspaces(f2, 3))
    assert len(subs) == 1 + 7 + 7 + 1
    for x in subs:
        for y in subs:
            assert meet(x, y) == meet(y, x)
            assert join(x, y) == join(y, x)
            assert contains(join(x, y), x)
            assert contains(x, meet(x, y))
            assert meet(x, join(x, y)) == x
            assert join(x, meet(x, y)) == x


def test_modular_dimension_law():
    """dim(x) + dim(y) = dim(x meet y) + dim(x join y)."""
    f2 = PrimeField(2)
    subs = list(all_subspaces(f2, 3))
    for x in subs:
        for y in subs:
            assert x.dim + y.dim == meet(x, y).dim + join(x, y).dim
    f5 = PrimeField(5)
    for i in range(100):
        x = rand_sub(f5, 4, 3, 2 * i)
        y = rand_sub(f5, 4, 3, 2 * i + 1)
        assert x.dim + y.dim == meet(x, y).dim + join(x, y).dim


def test_complement_is_transversal():
    for field in (PrimeField(3), Rationals()):
        for i in range(40):
            x = rand_sub(field, 4, 5, i)
            c = complement(x)
            assert is_transversal(x, c)
            assert meet(x, c).dim == 0
            assert join(x, c).dim == 4


@pytest.mark.parametrize("field, ambient", (
    (PrimeField(2), 3), (PrimeField(3), 2), (Rationals(), 4)),
    ids=("f2", "f3", "rat"))
def test_is_transversal_is_complementary_dims_and_zero_meet(field, ambient):
    """The rank test agrees with its definition: dims add up, meet is 0."""
    if field.size is None:
        subs = [rand_sub(field, ambient, 7, i) for i in range(24)]
        subs += [complement(x) for x in subs]
    else:
        subs = list(all_subspaces(field, ambient))
    seen = set()
    for x in subs:
        for y in subs:
            want = x.dim + y.dim == ambient and meet(x, y).dim == 0
            assert is_transversal(x, y) == want
            seen.add(want)
    assert seen == {False, True}


def vec_span(field, *ints):
    """The line spanned by one vector given as ints."""
    return span_rows(field, len(ints), [[field.from_int(v) for v in ints]])


def test_contains_vector():
    f3 = PrimeField(3)
    x = span_rows(f3, 3, [[1, 0, 1], [0, 1, 0]])
    assert contains(x, vec_span(f3, 1, 1, 1))
    assert contains(x, vec_span(f3, 2, 0, 2))
    assert not contains(x, vec_span(f3, 0, 0, 1))


def test_contains_across_ambients_is_shape_error():
    f3 = PrimeField(3)
    x = full_subspace(f3, 2)
    with pytest.raises(ShapeError):
        contains(x, vec_span(f3, 1, 0, 1))
    with pytest.raises(ShapeError):
        contains(vec_span(f3, 1, 0, 1), x)


def test_vectors_enumerates_all_points():
    f3 = PrimeField(3)
    x = span_rows(f3, 3, [[1, 0, 1], [0, 1, 0]])
    pts = list(vectors(x))
    assert len(pts) == 9
    assert len(set(pts)) == 9
    assert all(contains(x, span_rows(f3, 3, [v])) for v in pts)


def test_coord_subspace():
    f2 = PrimeField(2)
    x = coord_subspace(f2, 4, range(2))
    assert x.dim == 2
    assert contains(x, vec_span(f2, 1, 1, 0, 0))
    assert not contains(x, vec_span(f2, 0, 0, 1, 0))


def test_graph_chart_roundtrip():
    """chart_of inverts graph_of; graphs are transversal to the second block."""
    f5 = PrimeField(5)
    for i in range(40):
        x = random_matrix(f5, 2, 2, trial_rng(7, i))
        g = graph_of(x)
        assert g.ambient == 4 and g.dim == 2
        assert chart_of(g, 2) == x
        gm = graph_minus(x)
        assert chart_minus(gm) == x
    second = coord_subspace(f5, 4, range(2, 4))
    for i in range(40):
        x = random_matrix(f5, 2, 2, trial_rng(7, i))
        assert is_transversal(graph_of(x), second)


def test_chart_of_rejects_non_graph():
    f3 = PrimeField(3)
    vertical = coord_subspace(f3, 4, range(2, 4))
    with pytest.raises(TransversalityError):
        chart_of(vertical, 2)


def test_graph_rectangular():
    f3 = PrimeField(3)
    x = mat(f3, [[1, 2, 0], [0, 1, 1]])  # 2x3: map from K^3 to K^2
    g = graph_of(x)
    assert g.ambient == 5 and g.dim == 3
    assert chart_of(g, 3) == x


def test_orthocomplement_lattice_rules():
    """Double complement is identity and complement swaps meet with join."""
    for field, n in ((PrimeField(3), 2), (PrimeField(2), 2)):
        forms = standard_forms(field, n)
        for form in forms.values():
            for i in range(60):
                x = rand_sub(field, 2 * n, 11, 2 * i)
                y = rand_sub(field, 2 * n, 11, 2 * i + 1)
                assert orthocomplement(orthocomplement(x, form), form) == x
                assert x.dim + orthocomplement(x, form).dim == 2 * n
                lhs = orthocomplement(meet(x, y), form)
                rhs = join(orthocomplement(x, form), orthocomplement(y, form))
                assert lhs == rhs
                if contains(x, y):
                    assert contains(orthocomplement(y, form), orthocomplement(x, form))


def test_forms_evaluate_and_kinds():
    f3 = PrimeField(3)
    sym = symplectic_form(f3, 1)
    assert sym.kind == "skew"
    spl = split_form(f3, 1)
    dia = diag_form(f3, 1)
    assert spl.kind == "hermitian" and dia.kind == "hermitian"
    assert sym.gram == mat(f3, [[0, 1], [-1, 0]])


def test_kind_is_read_off_the_gram():
    """Split and symplectic are the hyperbolic forms of +1 and -1; over F2
    their grams agree, and a gram equal to its transpose reads hermitian."""
    for field in (PrimeField(2), PrimeField(3), QuadraticExt(3)):
        one = Matrix.identity(field, 2)
        assert hyperbolic_form(one, 1) == split_form(field, 2)
        assert hyperbolic_form(one, -1) == symplectic_form(field, 2)
    f2 = PrimeField(2)
    assert symplectic_form(f2, 1) == split_form(f2, 1)
    assert symplectic_form(f2, 1).kind == "hermitian"
    assert hyperbolic_form(symplectic_form(PrimeField(3), 1).gram,
                           -1).kind == "hermitian"


def test_form_conjugates_first_argument():
    """The split form on F9^2 pairs u with v as conj(u) G v^T, so the line
    through (a, 1) is orthogonal to the line through (-conj(a), 1)."""
    f9 = QuadraticExt(3)
    form = split_form(f9, 1)
    for a in f9.elements():
        x = span_rows(f9, 2, [[a, f9.one]])
        perp = span_rows(f9, 2, [[f9.neg(f9.conj(a)), f9.one]])
        assert orthocomplement(x, form) == perp
        assert is_isotropic(x, form) == (x == perp)


def test_make_form_rejects_wrong_symmetry():
    f3 = PrimeField(3)
    bad = mat(f3, [[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="neither hermitian nor skew"):
        Form(bad)
    with pytest.raises(SingularMatrixError):
        Form(mat(f3, [[1, 0], [0, 0]]))


def test_make_form_refuses_a_gram_that_is_not_square():
    with pytest.raises(ShapeError, match="2x3 matrix is not square"):
        Form(Matrix.zeros(PrimeField(3), 2, 3))


def test_subspaces_over_two_fields_name_their_fields():
    """Subspace reprs omit the field, so the refusal names both."""
    x = span_rows(PrimeField(3), 2, [[1, 0]])
    y = span_rows(PrimeField(5), 2, [[1, 0]])
    with pytest.raises(ShapeError,
                       match=r"Subspace\(2, '1,0'\) over fp:3 and "
                             r"Subspace\(2, '1,0'\) over fp:5 are not"):
        meet(x, y)


def test_isotropy():
    f3 = PrimeField(3)
    sym = symplectic_form(f3, 1)
    for x in enumerate_subspaces(f3, 2, 1):
        assert is_isotropic(x, sym)
    spl = split_form(f3, 1)
    iso = [x for x in enumerate_subspaces(f3, 2, 1) if is_isotropic(x, spl)]
    assert len(iso) == 2


def test_enumeration_counts_match_gaussian_binomials():
    for q, p in ((2, PrimeField(2)), (3, PrimeField(3))):
        for ambient in (1, 2, 3):
            for dim in range(ambient + 1):
                got = len(list(enumerate_subspaces(p, ambient, dim)))
                assert got == gaussian_binomial(ambient, dim, q)
        total = len(list(all_subspaces(p, ambient)))
        assert total == sum(gaussian_binomial(ambient, k, q) for k in range(ambient + 1))


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(2, 1, 3) == 4
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(3, 0, 5) == 1


def test_enumeration_is_sorted_and_duplicate_free():
    """Whole and one layer (`dim=`): fixed points, censuses and torsor
    carriers take this order as it comes, without sorting again."""
    for field, ambient, dim in ((PrimeField(2), 3, None), (PrimeField(3), 4, 2),
                                (QuadraticExt(3), 2, 1)):
        subs = list(enumerate_subspaces(field, ambient, dim))
        position = list(field.elements()).index
        keys = [(x.dim, tuple(position(e) for row in x.basis.entries
                              for e in row)) for x in subs]
        assert keys == sorted(keys)
        assert len(set(subs)) == len(subs)


def test_enumerate_needs_finite_field():
    with pytest.raises(FieldSyntaxError):
        list(enumerate_subspaces(Rationals(), 2))


def test_ambient_cap_respected():
    """The bound is the count of the layers asked for, not the ambient."""
    f2, f3, f7, f9 = (PrimeField(2), PrimeField(3), PrimeField(7),
                      QuadraticExt(3))
    assert len(list(enumerate_subspaces(f2, 7, 3))) == 11811
    for field, ambient, dim in ((f9, 6, None), (f7, 6, None), (f7, 6, 2),
                                (f3, 13, 6)):
        with pytest.raises(FieldSyntaxError, match="more than 1000000"):
            list(enumerate_subspaces(field, ambient, dim))


def test_default_ambient_cap():
    """Sums of Gaussian binomials decide, and absurd ambients cost nothing."""
    def total(q, n):
        return sum(gaussian_binomial(n, k, q) for k in range(n + 1))

    assert ENUMERATION_LIMIT == 10 ** 6
    assert total(2, 8) <= ENUMERATION_LIMIT < total(2, 9)
    assert total(3, 6) <= ENUMERATION_LIMIT < total(5, 6)
    start = time.perf_counter()
    for n, dim in ((10 ** 6, None), (10 ** 6, 5 * 10 ** 5), (10 ** 6, 10 ** 6),
                   (10 ** 100, 1)):
        with pytest.raises(FieldSyntaxError):
            next(enumerate_subspaces(PrimeField(2), n, dim))
    assert time.perf_counter() - start < 0.5


def test_json_roundtrip():
    f5 = PrimeField(5)
    for i in range(20):
        x = rand_sub(f5, 3, 19, i)
        obj = subspace_to_json(x)
        assert obj["ambient"] == 3
        assert obj["field"] == "fp:5"
        rows = [[f5.parse(e) for e in row] for row in obj["basis"]]
        assert span_rows(f5, 3, rows) == x


def test_image_under_invertible_preserves_lattice():
    f3 = PrimeField(3)
    g = mat(f3, [[1, 1], [0, 1]])
    for i in range(30):
        x = rand_sub(f3, 2, 23, 2 * i)
        y = rand_sub(f3, 2, 23, 2 * i + 1)
        assert image_under(g, join(x, y)) == join(image_under(g, x), image_under(g, y))
        assert image_under(g, meet(x, y)) == meet(image_under(g, x), image_under(g, y))
        assert image_under(g, x).dim == x.dim


def test_image_under_is_column_action():
    f3 = PrimeField(3)
    g = mat(f3, [[0, 1], [2, 0]])
    x = span_rows(f3, 2, [[1, 1]])
    y = image_under(g, x)
    assert contains(y, vec_span(f3, 1, 2))


def test_rationals_subspaces():
    rat = Rationals()
    x = span(parse_matrix("1/2,0,1;0,1/3,0", rat))
    assert x.dim == 2
    c = complement(x)
    assert is_transversal(x, c)
    assert subspace_to_json(x)["basis"] == [["1", "0", "2"], ["0", "1", "0"]]
