"""Tests for deformed matrix products, classical families, and bridges."""

import pytest

from torsorlab.fields import PrimeField, QuadraticExt, Rationals
from torsorlab.homotopes import (
    Homotope,
    check_associativity,
    check_bracket_agreement,
    check_bracket_laws,
    check_chart_product,
    check_first_kind_control,
    check_group_laws,
    check_hull_closure,
    check_member_criterion_sides,
    check_pair_identity,
    check_second_kind_identity,
    check_triple_via_involution,
    classical_family,
    family_table_bridge,
    graph_star_roundtrip,
    hull,
    lie_bracket_dual,
    lie_bracket_formula,
    members,
    unitary_transport_bridge,
)
from torsorlab.matrices import Matrix, random_matrix
from torsorlab.reports import CheckConfig
from torsorlab.rng import trial_rng


def mat(field, rows):
    return Matrix.build(field, [[field.from_int(x) for x in row] for row in rows])


def rand(field, nrows, ncols, seed, index):
    return random_matrix(field, nrows, ncols, trial_rng(seed, index))


def test_product_reduces_to_addition_at_zero_parameter():
    f5 = PrimeField(5)
    hom = Homotope(Matrix.zeros(f5, 2, 2))
    for i in range(20):
        x = rand(f5, 2, 2, 1, 2 * i)
        y = rand(f5, 2, 2, 1, 2 * i + 1)
        assert hom.product(x, y) == x + y
        assert hom.is_member(x)
        assert hom.inverse(x) == -x


def test_zero_is_two_sided_unit():
    f3 = PrimeField(3)
    for i in range(20):
        a = rand(f3, 2, 2, 3, i)
        hom = Homotope(a)
        z = hom.zero
        for j in range(10):
            x = rand(f3, 2, 2, 5, 10 * i + j)
            assert hom.product(z, x) == x
            assert hom.product(x, z) == x


def test_membership_and_inverse():
    """x is a member iff 1 - x a is invertible; then the inverse works both ways."""
    f5 = PrimeField(5)
    for i in range(40):
        a = rand(f5, 2, 2, 7, 2 * i)
        x = rand(f5, 2, 2, 7, 2 * i + 1)
        hom = Homotope(a)
        if not hom.is_member(x):
            with pytest.raises(ArithmeticError):
                hom.inverse(x)
            continue
        y = hom.inverse(x)
        assert hom.product(x, y) == hom.zero
        assert hom.product(y, x) == hom.zero


def test_associativity_square_and_rectangular():
    f3 = PrimeField(3)
    r = check_associativity(f3, CheckConfig(trials=80, seed=1))
    assert r.failures == 0, r.first_counterexample
    r = check_associativity(f3, CheckConfig(trials=60, seed=2), p=2, q=3)
    assert r.failures == 0, r.first_counterexample


def test_member_criterion_sides():
    """1 - x a and 1 - a x are invertible together, also for rectangles."""
    for field in (PrimeField(3), PrimeField(5)):
        r = check_member_criterion_sides(field, CheckConfig(trials=80, seed=3))
        assert r.failures == 0, r.first_counterexample


def test_bracket_two_routes_agree():
    f5 = PrimeField(5)
    r = check_bracket_agreement(f5, CheckConfig(trials=120, seed=5))
    assert r.failures == 0, r.first_counterexample
    assert r.cases == 120


def test_bracket_dual_route_direct():
    """The nilpotent-lift commutator equals x a y - y a x, including rectangles."""
    f5 = PrimeField(5)
    for p, q in ((2, 2), (2, 3), (3, 2)):
        for i in range(25):
            x = rand(f5, p, q, 11, 3 * i)
            y = rand(f5, p, q, 11, 3 * i + 1)
            a = rand(f5, q, p, 11, 3 * i + 2)
            assert lie_bracket_dual(x, y, a) == lie_bracket_formula(x, y, a)


def test_bracket_laws():
    f5 = PrimeField(5)
    r = check_bracket_laws(f5, CheckConfig(trials=80, seed=7))
    assert r.failures == 0, r.first_counterexample


def test_bracket_antisymmetry_direct():
    f3 = PrimeField(3)
    for i in range(40):
        x = rand(f3, 2, 2, 13, 3 * i)
        y = rand(f3, 2, 2, 13, 3 * i + 1)
        a = rand(f3, 2, 2, 13, 3 * i + 2)
        assert lie_bracket_formula(x, y, a) == -lie_bracket_formula(y, x, a)


def test_bracket_works_over_rationals():
    rat = Rationals()
    for i in range(15):
        x = rand(rat, 2, 2, 17, 3 * i)
        y = rand(rat, 2, 2, 17, 3 * i + 1)
        a = rand(rat, 2, 2, 17, 3 * i + 2)
        assert lie_bracket_dual(x, y, a) == lie_bracket_formula(x, y, a)


def test_family_conditions():
    """Symmetry conditions picking out each family from the hull."""
    f3 = PrimeField(3)
    b = Matrix.identity(f3, 2)
    fam_o = classical_family("o", f3, b)
    for x in members(fam_o):
        assert x + x.transpose() == x.transpose() * b * x
    j = mat(f3, [[0, 1], [-1, 0]])
    fam_sp = classical_family("sp", f3, j)
    for x in members(fam_sp):
        assert x.transpose() - x == x.transpose() * j * x
    f9 = QuadraticExt(3)
    fam_u = classical_family("u", f9, Matrix.identity(f9, 1))
    for x in members(fam_u):
        assert x + x.conj_t() == x.conj_t() * Matrix.identity(f9, 1) * x


def test_family_validation():
    f3 = PrimeField(3)
    with pytest.raises(ValueError):
        classical_family("so8", f3, Matrix.identity(f3, 2))
    with pytest.raises(ValueError):
        classical_family("sp", f3, Matrix.identity(f3, 2))  # not antisymmetric
    with pytest.raises(ValueError):
        classical_family("u", f3, Matrix.identity(f3, 2))  # needs conjugation
    with pytest.raises(ValueError):
        classical_family("o", f3, mat(f3, [[0, 1], [2, 0]]))  # not symmetric


def test_group_laws_per_family():
    f3 = PrimeField(3)
    cfg = CheckConfig(trials=40, seed=9)
    for name, param in (("gl", Matrix.identity(f3, 2)),
                        ("o", Matrix.identity(f3, 2)),
                        ("sp", mat(f3, [[0, 1], [-1, 0]]))):
        fam = classical_family(name, f3, param)
        r = check_group_laws(fam, cfg)
        assert r.failures == 0, (name, r.first_counterexample)
    f9 = QuadraticExt(3)
    fam = classical_family("u", f9, Matrix.identity(f9, 1))
    r = check_group_laws(fam, cfg)
    assert r.failures == 0, r.first_counterexample


def test_hull_closure_reports():
    f3 = PrimeField(3)
    for name, param in (("o", Matrix.identity(f3, 2)),
                        ("sp", mat(f3, [[0, 1], [-1, 0]])),
                        ("gl", Matrix.identity(f3, 1))):
        fam = classical_family(name, f3, param)
        r = check_hull_closure(fam)
        assert r.failures == 0, (name, r.first_counterexample)
        assert any(n.startswith("hull:") for n in r.notes)


def test_gl_hull_strictly_larger_than_members():
    f3 = PrimeField(3)
    fam = classical_family("gl", f3, Matrix.identity(f3, 2))
    m = members(fam)
    h = hull(fam)
    assert set(m) < set(h)
    assert len(h) == 81
    assert len(m) == 48


def test_member_counts_match_classical_orders():
    """Member counts at the identity parameter equal classical group orders."""
    f3 = PrimeField(3)
    assert len(members(classical_family("gl", f3, Matrix.identity(f3, 2)))) == 48
    f9 = QuadraticExt(3)
    assert len(members(classical_family("u", f9, Matrix.identity(f9, 2)))) == 96
    fam_sp = classical_family("sp", f3, mat(f3, [[0, 1], [-1, 0]]))
    assert len(members(fam_sp)) == 24


def test_zero_parameter_families_are_additive_groups():
    f3 = PrimeField(3)
    fam = classical_family("o", f3, Matrix.zeros(f3, 2, 2))
    got = members(fam)
    for x in got:
        assert x + x.transpose() == Matrix.zeros(f3, 2, 2)
    assert len(got) == 3


def test_chart_product_identity():
    f3 = PrimeField(3)
    r = check_chart_product(f3, 1, CheckConfig(trials=60, seed=11))
    assert r.failures == 0, r.first_counterexample
    f5 = PrimeField(5)
    r = check_chart_product(f5, 2, CheckConfig(trials=30, seed=12))
    assert r.failures == 0, r.first_counterexample


def test_pair_identity():
    f3 = PrimeField(3)
    r = check_pair_identity(f3, 2, 3, CheckConfig(trials=100, seed=13))
    assert r.failures == 0, r.first_counterexample
    assert r.cases == 100


def test_second_kind_identity():
    f3 = PrimeField(3)
    r = check_second_kind_identity(f3, 2, 3, CheckConfig(trials=100, seed=15))
    assert r.failures == 0, r.first_counterexample
    f9 = QuadraticExt(3)
    r = check_second_kind_identity(f9, 1, 2, CheckConfig(trials=60, seed=16))
    assert r.failures == 0, r.first_counterexample


def test_first_kind_control_finds_violations():
    """The unshifted associativity pattern must fail somewhere."""
    f3 = PrimeField(3)
    r = check_first_kind_control(f3, 2, 3, CheckConfig(trials=100, seed=17))
    assert r.failures == 0
    note = next(n for n in r.notes if n.startswith("violations:"))
    assert int(note.split(":")[1]) > 0


def test_triple_via_involution():
    f3 = PrimeField(3)
    r = check_triple_via_involution(f3, 2, CheckConfig(trials=40, seed=19))
    assert r.failures == 0, r.first_counterexample
    f9 = QuadraticExt(3)
    r = check_triple_via_involution(f9, 1, CheckConfig(trials=40, seed=20))
    assert r.failures == 0, r.first_counterexample


def test_graph_star_roundtrip():
    f3 = PrimeField(3)
    r = graph_star_roundtrip(f3, 1, CheckConfig(exhaustive=True))
    assert r.failures == 0 and r.cases == 3
    f5 = PrimeField(5)
    r = graph_star_roundtrip(f5, 2, CheckConfig(trials=50, seed=21))
    assert r.failures == 0, r.first_counterexample


def test_family_table_bridge_small():
    f5 = PrimeField(5)
    r = family_table_bridge("o", f5, Matrix.identity(f5, 1))
    assert r.failures == 0, r.first_counterexample
    assert r.cases > 0
    f3 = PrimeField(3)
    r = family_table_bridge("sp", f3, mat(f3, [[0, 1], [-1, 0]]))
    assert r.failures == 0, r.first_counterexample


def test_unitary_transport_bridge_small():
    f5 = PrimeField(5)
    r = unitary_transport_bridge(f5, Matrix.identity(f5, 1))
    assert r.failures == 0, r.first_counterexample
    f3 = PrimeField(3)
    r = unitary_transport_bridge(f3, mat(f3, [[1, 1], [1, 0]]))
    assert r.failures == 0, r.first_counterexample


def test_bridge_rejects_asymmetric_transport_parameter():
    f3 = PrimeField(3)
    with pytest.raises(ValueError):
        unitary_transport_bridge(f3, mat(f3, [[0, 1], [2, 0]]))
