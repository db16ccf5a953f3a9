"""Tests for form-induced involutions, censuses, and the groups they carry."""

import itertools
from collections import Counter

import pytest

from torsorlab import involutions
from torsorlab.checks import run_suite
from torsorlab.fields import CharacteristicTwoError, PrimeField, QuadraticExt
from torsorlab.gamma import gamma_global
from torsorlab.involutions import (
    Involution,
    InvolutionError,
    cayley_rho,
    cayley_table,
    census_report,
    check_antihom_global,
    check_antihom_restricted,
    check_dilation_compat,
    check_duality_inclusion,
    check_invariant_transport,
    check_opposite_torsor,
    check_order_two,
    check_torsor_g,
    check_transversality_preservation,
    closure_report,
    dual_involution,
    fixed_points,
    form_invariants,
    group_of_torsor,
    isotropic_census,
    j_map,
    minus_one_op,
    ortho_involution,
    random_isometry,
    standard_triple,
    tilde_tau,
    torsor_G,
    transported_view,
    translation_op,
    unitary_group,
)
from torsorlab.matrices import Matrix, mat_invert, random_matrix
from torsorlab.reports import CheckConfig
from torsorlab.rng import trial_rng
from torsorlab.subspaces import (
    Form,
    diag_form,
    is_isotropic,
    is_transversal,
    make_form,
    pushforward,
    random_subspace,
    span_rows,
    split_form,
    standard_forms,
    symplectic_form,
)


def mat(field, rows):
    return Matrix.build(field, [[field.from_int(x) for x in row] for row in rows])


def all_standard_involutions(field, n):
    return [ortho_involution(f) for f in standard_forms(field, n).values()]


def test_order_two_exhaustive_f2():
    f2 = PrimeField(2)
    for inv in all_standard_involutions(f2, 1):
        r = check_order_two(inv, CheckConfig(exhaustive=True))
        assert r.failures == 0 and r.cases == 5


def test_order_two_random():
    for field in (PrimeField(3), PrimeField(5)):
        for inv in all_standard_involutions(field, 2):
            r = check_order_two(inv, CheckConfig(trials=80, seed=1))
            assert r.failures == 0, r.first_counterexample


def test_degenerate_form_breaks_order_two():
    """A singular gram matrix gives a map that is not an involution."""
    f3 = PrimeField(3)
    bad = Involution(Form(mat(f3, [[1, 0], [0, 0]]), "hermitian"))
    r = check_order_two(bad, CheckConfig(trials=60, seed=2))
    assert r.failures > 0


def test_strict_construction_rejects_degenerate_form():
    f3 = PrimeField(3)
    degenerate = Form(mat(f3, [[1, 0], [0, 0]]), "hermitian")
    with pytest.raises((InvolutionError, ArithmeticError)):
        ortho_involution(degenerate)


def test_complement_dimension():
    f5 = PrimeField(5)
    for inv in all_standard_involutions(f5, 2):
        for i in range(40):
            x = random_subspace(f5, 4, trial_rng(3, i))
            assert inv(x).dim == 4 - x.dim


def test_transversality_preservation():
    f3 = PrimeField(3)
    for inv in all_standard_involutions(f3, 1):
        r = check_transversality_preservation(inv, CheckConfig(exhaustive=True))
        assert r.failures == 0


def test_antihom_restricted_and_global():
    f3 = PrimeField(3)
    cfg = CheckConfig(trials=60, seed=5)
    for inv in all_standard_involutions(f3, 1):
        r = check_antihom_restricted(inv, cfg)
        assert r.failures == 0, (inv.label, r.first_counterexample)
        g = check_antihom_global(inv, cfg)
        assert g.failures == 0, (inv.label, g.first_counterexample)


def test_antihom_direct_statement():
    """tau reverses the outer slots: tau(Gamma(x,a,y,b,z)) = Gamma(tz,ta,ty,tb,tx)."""
    f3 = PrimeField(3)
    inv = ortho_involution(symplectic_form(f3, 1))
    for i in range(100):
        rng = trial_rng(7, i)
        x, a, y, b, z = [random_subspace(f3, 2, rng) for _ in range(5)]
        lhs = inv(gamma_global(x, a, y, b, z))
        assert lhs == gamma_global(inv(z), inv(a), inv(y), inv(b), inv(x))


def test_duality_inclusion_reports():
    cfg = CheckConfig(trials=80, seed=7)
    for field in (PrimeField(3), PrimeField(5)):
        for form in standard_forms(field, 1).values():
            r = check_duality_inclusion(form, cfg)
            assert r.failures == 0, r.first_counterexample


def test_dilation_compatibility():
    """tau carries the s-dilation to the conj(s)-dilation."""
    cfg = CheckConfig(trials=60, seed=9)
    for field in (PrimeField(3), QuadraticExt(3)):
        for inv in all_standard_involutions(field, 1):
            r = check_dilation_compat(inv, cfg)
            assert r.failures == 0, (field.spec(), inv.label, r.first_counterexample)


def test_involution_law_suites_exhaustive_f2():
    """Every involution law passes for each standard form over all of F2."""
    f2 = PrimeField(2)
    cfg = CheckConfig(exhaustive=True)
    reports = (run_suite("involution-antihom", f2, 2, cfg)
               + run_suite("involution-duality", f2, 2, cfg))
    assert len(reports) == 18
    for r in reports:
        assert r.failures == 0, (r.law, r.first_counterexample)
        assert r.cases > 0


def count_orthocomplements(monkeypatch):
    """Count the orthocomplements tau computes, by (subspace, form)."""
    seen = Counter()
    orig = involutions.orthocomplement

    def counted(x, form):
        seen[x, form] += 1
        return orig(x, form)

    monkeypatch.setattr(involutions, "orthocomplement", counted)
    return seen


def test_antihom_law_applies_tau_once_per_subspace(monkeypatch):
    f2 = PrimeField(2)
    invs = all_standard_involutions(f2, 1)
    seen = count_orthocomplements(monkeypatch)
    for inv in invs:
        r = check_antihom_global(inv, CheckConfig(exhaustive=True))
        assert r.failures == 0 and r.cases == 5 ** 5
    assert len({form for _, form in seen}) == len(invs)
    assert seen and max(seen.values()) == 1


def test_closure_report_applies_tau_once_per_result(monkeypatch):
    f3 = PrimeField(3)
    inv = ortho_involution(symplectic_form(f3, 1))
    points = fixed_points(inv)
    a = points[0]
    ta = inv(a)
    results = {gamma_global(x, a, y, ta, z)
               for x, y, z in itertools.product(points, repeat=3)}
    seen = count_orthocomplements(monkeypatch)
    fixed_points(inv)
    enumeration = Counter(seen)
    seen.clear()
    r = closure_report(inv, a)
    assert r.failures == 0 and r.cases == len(points) ** 3
    # beyond the fixed-point enumeration and tau(a): tau of each result once
    per_result = seen - enumeration - Counter({(a, inv.form): 1})
    assert set(per_result.values()) == {1}
    assert sum(per_result.values()) == len(results)


def test_fixed_points_are_isotropic_middle_layer():
    f2 = PrimeField(2)
    form = symplectic_form(f2, 1)
    pts = fixed_points(ortho_involution(form))
    assert len(pts) == 3
    assert all(p.dim == 1 for p in pts)
    assert all(is_isotropic(p, form) for p in pts)
    assert pts == isotropic_census(form)


def test_fixed_points_empty_for_odd_ambient():
    f3 = PrimeField(3)
    gram = mat(f3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    inv = ortho_involution(make_form(gram, "hermitian"))
    assert fixed_points(inv) == ()


def test_census_counts():
    """Known point counts of the self-complementary layer."""
    f2 = PrimeField(2)
    f3 = PrimeField(3)
    assert len(isotropic_census(symplectic_form(f2, 1))) == 3
    assert len(isotropic_census(symplectic_form(f2, 2))) == 15
    assert len(isotropic_census(symplectic_form(f3, 1))) == 4
    assert len(isotropic_census(split_form(f3, 1))) == 2
    assert len(isotropic_census(split_form(f2, 1))) == 3


def test_census_two_paths_agree():
    for form in (symplectic_form(PrimeField(2), 1), symplectic_form(PrimeField(3), 1),
                 split_form(PrimeField(3), 1)):
        r = census_report(form)
        assert r.failures == 0
        assert any(note.startswith("count:") for note in r.notes)


def test_closure_of_fixed_set():
    f2 = PrimeField(2)
    inv = ortho_involution(symplectic_form(f2, 1))
    for a in fixed_points(inv):
        r = closure_report(inv, a)
        assert r.failures == 0, r.first_counterexample
        assert r.cases == 27


def test_standard_triple_geometry():
    f3 = PrimeField(3)
    bt = standard_triple(f3, 1)
    assert bt.o_plus.dim == 1 and bt.o_minus.dim == 1 and bt.e.dim == 1
    assert is_transversal(bt.o_plus, bt.o_minus)
    assert is_transversal(bt.e, bt.o_plus)
    assert is_transversal(bt.e, bt.o_minus)


def test_minus_one_op_is_block_sign_flip():
    f3 = PrimeField(3)
    bt = standard_triple(f3, 1)
    d = minus_one_op(bt)
    assert d == mat(f3, [[1, 0], [0, -1]])
    assert d * d == Matrix.identity(f3, 2)


def test_j_map_swaps_base_points():
    f5 = PrimeField(5)
    bt = standard_triple(f5, 2)
    j = j_map(bt)
    assert pushforward(j, bt.o_plus) == bt.o_minus
    assert pushforward(j, bt.o_minus) == bt.o_plus
    assert pushforward(j, bt.e) == bt.e


def test_dual_involution_swaps_form_flavor():
    """Composing with the sign flip exchanges the two middle censuses."""
    f3 = PrimeField(3)
    bt = standard_triple(f3, 1)
    omega = ortho_involution(symplectic_form(f3, 1))
    dual = dual_involution(omega, bt)
    assert set(fixed_points(dual)) == set(isotropic_census(split_form(f3, 1)))
    r = check_order_two(dual, CheckConfig(trials=50, seed=3))
    assert r.failures == 0


def test_tilde_tau_needs_unital_fixing():
    f3 = PrimeField(3)
    bt = standard_triple(f3, 1)
    omega = ortho_involution(symplectic_form(f3, 1))
    tilde = tilde_tau(omega, bt)
    r = check_order_two(tilde, CheckConfig(trials=50, seed=4))
    assert r.failures == 0
    diag = ortho_involution(diag_form(f3, 1))
    if diag(bt.e) != bt.e:
        with pytest.raises(InvolutionError):
            tilde_tau(diag, bt)


def test_cayley_rho_char_two_rejected():
    f2 = PrimeField(2)
    bt = standard_triple(f2, 1)
    with pytest.raises(CharacteristicTwoError):
        cayley_rho(bt)


def test_cayley_rho_squares_to_twice_rotation():
    f5 = PrimeField(5)
    bt = standard_triple(f5, 1)
    rho = cayley_rho(bt)
    two = f5.from_int(2)
    rot = mat(f5, [[0, -1], [1, 0]])
    assert rho * rho == rot.scale(two)


def test_torsor_group_structure():
    """G(inv, a) with a fixed unit is an honest group in table form."""
    f3 = PrimeField(3)
    inv = ortho_involution(symplectic_form(f3, 1))
    a = fixed_points(inv)[0]
    carrier, product = torsor_G(inv, a)
    assert carrier
    unit = carrier[0]
    view = group_of_torsor(carrier, unit)
    table = cayley_table(view, product)
    n = len(carrier)
    for i in range(n):
        row = set(table[i])
        col = {table[j][i] for j in range(n)}
        assert row == set(range(n))
        assert col == set(range(n))
    u = view.index(unit)
    for i in range(n):
        assert table[u][i] == i
        assert table[i][u] == i


def test_group_of_torsor_rejects_foreign_unit():
    f3 = PrimeField(3)
    inv = ortho_involution(symplectic_form(f3, 1))
    a = fixed_points(inv)[0]
    carrier, _ = torsor_G(inv, a)
    outsider = span_rows(f3, 2, [[1, 0], [0, 1]])
    assert outsider not in carrier
    with pytest.raises(ValueError):
        group_of_torsor(carrier, outsider)


def test_cayley_table_rejects_a_product_outside_the_carrier():
    f3 = PrimeField(3)
    inv = ortho_involution(symplectic_form(f3, 1))
    a = fixed_points(inv)[0]
    carrier, _ = torsor_G(inv, a)
    outsider = span_rows(f3, 2, [[1, 0], [0, 1]])
    view = group_of_torsor(carrier, carrier[0])
    with pytest.raises(ValueError):
        cayley_table(view, lambda x, unit, z: outsider)


def test_torsor_g_and_opposite_reports():
    f2 = PrimeField(2)
    inv = ortho_involution(symplectic_form(f2, 1))
    for a in fixed_points(inv)[:2]:
        r = check_torsor_g(inv, a)
        assert r.failures == 0, r.first_counterexample
        o = check_opposite_torsor(inv, a)
        assert o.failures == 0, o.first_counterexample


def test_transported_view_keeps_table():
    """Pushing the carrier through an invertible map transports the products."""
    f3 = PrimeField(3)
    inv = ortho_involution(symplectic_form(f3, 1))
    a = fixed_points(inv)[0]
    carrier, _ = torsor_G(inv, a)
    unit = carrier[0]
    view = group_of_torsor(carrier, unit)
    g = mat(f3, [[1, 1], [0, 1]])
    moved = transported_view(view, g)
    assert len(moved.elements) == len(view.elements)
    assert moved.unit == pushforward(g, unit)


def test_unitary_group_closure():
    """Elements with tau(x) acting as inverse close under the pair product."""
    f3 = PrimeField(3)
    bt = standard_triple(f3, 1)
    inv = ortho_involution(symplectic_form(f3, 1))
    view, product = unitary_group(inv, bt.o_plus, bt.e, bt.o_minus)
    elements = view.elements
    assert view.unit in elements
    for x in elements:
        for y in elements:
            w = product(x, view.unit, y)
            assert w in elements


def test_translation_op_is_unipotent_shear():
    f5 = PrimeField(5)
    bt = standard_triple(f5, 2)
    a = random_matrix(f5, 2, 2, trial_rng(41, 0))
    t = translation_op(a, bt)
    eye = Matrix.identity(f5, 4)
    top_right = all(
        t.entries[i][j + 2] == a.entries[i][j] for i in range(2) for j in range(2)
    )
    assert top_right
    b = random_matrix(f5, 2, 2, trial_rng(41, 1))
    assert translation_op(a, bt) * translation_op(b, bt) == translation_op(a + b, bt)
    assert mat_invert(t) == translation_op(-a, bt)
    assert (t - eye) * (t - eye) == Matrix.zeros(f5, 4, 4)


def test_form_invariants_classify_orbits():
    """Restricted rank is bounded by dimension; lines carry a square class."""
    f3 = PrimeField(3)
    form = diag_form(f3, 1)
    for i in range(40):
        x = random_subspace(f3, 2, trial_rng(43, i))
        before = form_invariants(x, form)
        assert before[0] <= x.dim
    x = span_rows(f3, 2, [[1, 0]])
    r, disc = form_invariants(x, form)
    assert r == 1 and disc is not None


def test_random_isometry_preserves_form():
    for field in (PrimeField(3), PrimeField(5), PrimeField(2)):
        for name, form in standard_forms(field, 1).items():
            for i in range(25):
                g = random_isometry(form, trial_rng(47, i))
                assert g.conj_t() * form.gram * g == form.gram, (field.spec(), name)


def test_invariant_transport_report():
    f3 = PrimeField(3)
    for form in standard_forms(f3, 1).values():
        r = check_invariant_transport(form, CheckConfig(trials=60, seed=11))
        assert r.failures == 0, r.first_counterexample
