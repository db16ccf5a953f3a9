"""Tests for subspaces: lattice operations, charts, forms, enumeration."""

import dataclasses
import os

import pytest

from torsorlab.fields import FieldSyntaxError, PrimeField, QuadraticExt, Rationals
from torsorlab.matrices import Matrix, SingularMatrixError, parse_matrix, random_matrix
from torsorlab.rng import trial_rng
from torsorlab.subspaces import (
    Subspace,
    TransversalityError,
    all_subspaces,
    chart_minus,
    chart_of,
    complement,
    contains,
    contains_vector,
    coord_subspace,
    diag_form,
    enumerate_subspaces,
    full_subspace,
    gaussian_binomial,
    graph_minus,
    graph_of,
    is_isotropic,
    is_transversal,
    join,
    make_form,
    meet,
    orthocomplement,
    pushforward,
    random_subspace,
    sort_key,
    span,
    span_rows,
    split_form,
    standard_forms,
    subspace_from_json,
    subspace_to_json,
    symplectic_form,
    vectors,
    zero_subspace,
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


def test_subspace_hash_is_the_dataclass_hash_computed_once():
    f3 = PrimeField(3)
    a = rand_sub(f3, 4, 13, 0)
    twin = Subspace(a.basis)
    assert a._hash is None
    assert hash(a) == hash((a.basis,))
    assert a._hash == hash(a)
    assert twin._hash is None and a == twin and hash(twin) == hash(a)
    assert "_hash" not in repr(a)
    assert not next(f for f in dataclasses.fields(Subspace)
                    if f.name == "_hash").compare


def test_subspace_is_frozen_and_slotted():
    a = full_subspace(PrimeField(2), 2)
    for name in ("basis", "_hash"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, name, None)
    # an attribute outside the slots has nowhere to go
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        a.other = None
    assert not hasattr(a, "__dict__")


def test_span_rows_shortcut():
    f2 = PrimeField(2)
    a = span_rows(f2, 3, [[1, 0, 1]])
    b = span(mat(f2, [[1, 0, 1]]))
    assert a == b


def test_zero_and_full():
    f5 = PrimeField(5)
    z = zero_subspace(f5, 3)
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


def test_contains_vector():
    f3 = PrimeField(3)
    x = span_rows(f3, 3, [[1, 0, 1], [0, 1, 0]])
    assert contains_vector(x, tuple(f3.from_int(v) for v in (1, 1, 1)))
    assert contains_vector(x, tuple(f3.from_int(v) for v in (2, 0, 2)))
    assert not contains_vector(x, tuple(f3.from_int(v) for v in (0, 0, 1)))


def test_vectors_enumerates_all_points():
    f3 = PrimeField(3)
    x = span_rows(f3, 3, [[1, 0, 1], [0, 1, 0]])
    pts = list(vectors(x))
    assert len(pts) == 9
    assert len(set(pts)) == 9
    assert all(contains_vector(x, v) for v in pts)


def test_coord_subspace():
    f2 = PrimeField(2)
    x = coord_subspace(f2, 4, range(2))
    assert x.dim == 2
    assert contains_vector(x, tuple(f2.from_int(v) for v in (1, 1, 0, 0)))
    assert not contains_vector(x, tuple(f2.from_int(v) for v in (0, 0, 1, 0)))


def test_graph_chart_roundtrip():
    """chart_of inverts graph_of; graphs are transversal to the second block."""
    f5 = PrimeField(5)
    for i in range(40):
        x = random_matrix(f5, 2, 2, trial_rng(7, i))
        g = graph_of(x)
        assert g.ambient == 4 and g.dim == 2
        assert chart_of(g, 2) == x
        gm = graph_minus(x)
        assert chart_minus(gm, 2) == x
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
    v = (f3.from_int(1), f3.from_int(0))
    w = (f3.from_int(0), f3.from_int(1))
    assert sym.evaluate(v, w) == f3.one
    assert sym.evaluate(w, v) == f3.neg(f3.one)
    assert sym.evaluate(v, v) == f3.zero


def test_form_conjugates_first_argument():
    f9 = QuadraticExt(3)
    form = diag_form(f9, 1)
    a = next(e for e in f9.elements() if f9.conj(e) != e)
    v = (a, f9.zero)
    w = (f9.one, f9.zero)
    assert form.evaluate(v, w) == f9.conj(a)
    assert form.evaluate(w, v) == a


def test_make_form_rejects_wrong_symmetry():
    f3 = PrimeField(3)
    bad = mat(f3, [[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        make_form(bad, "hermitian")
    with pytest.raises(ValueError):
        make_form(bad, "skew")
    with pytest.raises(SingularMatrixError):
        make_form(mat(f3, [[1, 0], [0, 0]]), "hermitian")


def test_isotropy():
    f3 = PrimeField(3)
    sym = symplectic_form(f3, 1)
    for x in all_subspaces(f3, 2, dim=1):
        assert is_isotropic(x, sym)
    spl = split_form(f3, 1)
    iso = [x for x in all_subspaces(f3, 2, dim=1) if is_isotropic(x, spl)]
    assert len(iso) == 2


def test_enumeration_counts_match_gaussian_binomials():
    for q, p in ((2, PrimeField(2)), (3, PrimeField(3))):
        for ambient in (1, 2, 3):
            for dim in range(ambient + 1):
                got = len(list(all_subspaces(p, ambient, dim=dim)))
                assert got == gaussian_binomial(ambient, dim, q)
        total = len(list(all_subspaces(p, ambient)))
        assert total == sum(gaussian_binomial(ambient, k, q) for k in range(ambient + 1))


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(2, 1, 3) == 4
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(3, 0, 5) == 1


def test_enumeration_is_sorted_and_duplicate_free():
    f2 = PrimeField(2)
    subs = list(all_subspaces(f2, 3))
    keys = [sort_key(x) for x in subs]
    assert keys == sorted(keys)
    assert len(set(subs)) == len(subs)


def test_enumerate_needs_finite_field():
    with pytest.raises(FieldSyntaxError):
        list(enumerate_subspaces(Rationals(), 2))


def test_ambient_cap_respected(monkeypatch):
    monkeypatch.setenv("TORSORLAB_MAX_AMBIENT", "3")
    f2 = PrimeField(2)
    with pytest.raises(FieldSyntaxError):
        list(enumerate_subspaces(f2, 4))
    monkeypatch.setenv("TORSORLAB_MAX_AMBIENT", "4")
    assert len(list(enumerate_subspaces(f2, 4))) == 67


def test_default_ambient_cap():
    assert int(os.environ.get("TORSORLAB_MAX_AMBIENT", "6")) >= 4


def test_json_roundtrip():
    f5 = PrimeField(5)
    for i in range(20):
        x = rand_sub(f5, 3, 19, i)
        obj = subspace_to_json(x)
        assert obj["ambient"] == 3
        assert obj["field"] == "fp:5"
        assert subspace_from_json(obj) == x


def test_pushforward_by_invertible_preserves_lattice():
    f3 = PrimeField(3)
    g = mat(f3, [[1, 1], [0, 1]])
    for i in range(30):
        x = rand_sub(f3, 2, 23, 2 * i)
        y = rand_sub(f3, 2, 23, 2 * i + 1)
        assert pushforward(g, join(x, y)) == join(pushforward(g, x), pushforward(g, y))
        assert pushforward(g, meet(x, y)) == meet(pushforward(g, x), pushforward(g, y))
        assert pushforward(g, x).dim == x.dim


def test_pushforward_is_column_action():
    f3 = PrimeField(3)
    g = mat(f3, [[0, 1], [2, 0]])
    x = span_rows(f3, 2, [[1, 1]])
    y = pushforward(g, x)
    assert contains_vector(y, tuple(f3.from_int(v) for v in (1, 2)))


def test_rationals_subspaces():
    rat = Rationals()
    x = span(parse_matrix("1/2,0,1;0,1/3,0", rat))
    assert x.dim == 2
    c = complement(x)
    assert is_transversal(x, c)
    assert subspace_from_json(subspace_to_json(x)) == x
