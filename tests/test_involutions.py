"""Tests for form-induced involutions, censuses, and the groups they carry."""

import itertools
from collections import Counter

import pytest

from torsorlab import checks, gamma, involutions, subspaces
from torsorlab.checks import run_suite
from torsorlab.fields import (PrimeField, QuadraticExt, Rationals,
                              field_from_spec)
from torsorlab.gamma import (gamma_global, gamma_oracle, relation_cases,
                             subspace_cases)
from torsorlab.involutions import (
    Involution,
    InvolutionError,
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
    involution,
    isotropic_census,
    minus_one_op,
    ortho_involution,
    random_isometry,
    standard_triple,
    torsor_G,
    translation_op,
    unitary_group,
)
from torsorlab.matrices import (Matrix, all_matrices, hstack, mat_invert,
                                random_invertible, random_matrix, vstack)
from torsorlab.relations import adjoint, apply_rel, inverse_rel
from torsorlab.reports import CheckConfig
from torsorlab.rng import trial_rng
from torsorlab.subspaces import (
    Form,
    TransversalityError,
    coord_subspace,
    diag_form,
    enumerate_subspaces,
    full_subspace,
    image_under,
    is_isotropic,
    is_transversal,
    orthocomplement,
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


def block_swap(field, n):
    """-[[0, I], [I, 0]] on K^{2n}: exchanges o+ and o-, fixes the diagonal."""
    i, z = Matrix.identity(field, n), Matrix.zeros(field, n, n)
    return -vstack(hstack(z, i), hstack(i, z))


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
    bad = Involution(mat(f3, [[1, 0], [0, 0]]))
    r = check_order_two(bad, CheckConfig(trials=60, seed=2))
    assert r.failures > 0


def test_strict_construction_rejects_degenerate_form():
    f3 = PrimeField(3)
    degenerate = mat(f3, [[1, 0], [0, 0]])
    with pytest.raises(ArithmeticError, match="degenerate gram matrix"):
        Form(degenerate)
    with pytest.raises((InvolutionError, ArithmeticError)):
        involution(degenerate)


def order_two_by_brute_force(inv):
    return all(inv(inv(x)) == x
               for x in enumerate_subspaces(inv.field, inv.ambient))


def criterion_involutions():
    """Involutions of both verdicts over F2, F3, F5, F9 at ambient 2, F3 at 4.

    Grams: the standard forms, two random invertible (mostly non-reflexive)
    grams, and over F9 the gram (1+t) split, which is neither hermitian nor
    skew.  Posts: none, the dual's operator, the block swap, two random
    ones; the gram of the involution is G post^-1.
    """
    out = []
    for k, (spec, n) in enumerate((("fp:2", 1), ("fp:3", 1), ("fp:5", 1),
                                   ("fp2:3", 1), ("fp:3", 2))):
        field = field_from_spec(spec)
        bt = standard_triple(field, n)
        grams = [f.gram for f in standard_forms(field, n).values()]
        grams += [random_invertible(field, 2 * n, trial_rng(k, i))
                  for i in range(2)]
        if spec == "fp2:3":
            grams.append(split_form(field, n).gram.scale(field.parse("1+t")))
        posts = [None, minus_one_op(bt), block_swap(field, n)]
        posts += [random_invertible(field, 2 * n, trial_rng(k, 10 + i))
                  for i in range(2)]
        out += [Involution(g if post is None else g * mat_invert(post))
                for g in grams for post in posts]
    return out


def test_order_two_criterion_matches_brute_force():
    verdicts = Counter()
    for inv in criterion_involutions():
        expected = order_two_by_brute_force(inv)
        assert involutions._order_two_ok(inv) == expected, inv
        verdicts[expected] += 1
    assert verdicts[True] >= 20 and verdicts[False] >= 20, verdicts


def test_order_two_does_not_need_a_hermitian_or_skew_gram():
    """Over F9, G = (1+t) split has G* != +-G, and tau still has order two."""
    f9 = QuadraticExt(3)
    gram = split_form(f9, 1).gram.scale(f9.parse("1+t"))
    assert gram.conj_t() not in (gram, -gram)
    inv = involution(gram)
    assert order_two_by_brute_force(inv)


def test_tau_is_the_pushed_orthocomplement():
    """The gram G post^-1 gives post . (x orthocomplement for G).

    Posts: the dual's, the block swap, and a shear, which is not its own
    inverse; the dual builder produces exactly the first gram.
    """
    for spec in ("fp:3", "fp:5"):
        field = field_from_spec(spec)
        for n in (1, 2):
            bt = standard_triple(field, n)
            form = symplectic_form(field, n)
            omega = ortho_involution(form)
            shear = Matrix.build(field, [[int(j == i or (i, j) == (0, 1))
                                          for j in range(2 * n)]
                                         for i in range(2 * n)])
            for post, built in ((minus_one_op(bt), dual_involution(omega)),
                                (block_swap(field, n), None),
                                (shear, None)):
                inv = Involution(form.gram * mat_invert(post))
                assert built is None or built.gram == inv.gram
                for x in enumerate_subspaces(field, 2 * n):
                    assert inv(x) == image_under(
                        post, orthocomplement(x, form)), (post, x)


def test_order_two_over_q_is_decided_exactly():
    q = field_from_spec("rat")
    bt = standard_triple(q, 2)
    form = symplectic_form(q, 2)
    dual = dual_involution(ortho_involution(form))
    assert dual.gram == form.gram * mat_invert(minus_one_op(bt))
    stretch = mat(q, [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(InvolutionError):
        involution(form.gram * mat_invert(stretch))


def test_ambient_zero_involution_has_order_two():
    inv = ortho_involution(symplectic_form(PrimeField(3), 0))
    assert inv.ambient == 0 and involutions._order_two_ok(inv)


def test_involution_enumerates_no_subspace(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated subspaces")

    monkeypatch.setattr(subspaces, "enumerate_subspaces", refuse)
    involutions._order_two_ok.cache_clear()
    f5 = PrimeField(5)
    for form in standard_forms(f5, 2).values():
        inv = ortho_involution(form)
        assert inv.ambient == 4
        dual_involution(inv)


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
            r = check_duality_inclusion(ortho_involution(form), cfg)
            assert r.failures == 0, r.first_counterexample


# (field, ambient, trials); trials None tries every (F, z).
EQUALITY_DRAWS = (("fp:2", 2, None), ("fp:3", 2, 100), ("fp:3", 4, 30),
                  ("fp:5", 2, 60), ("fp:5", 4, 20), ("fp2:3", 2, 60),
                  ("rat", 2, 40), ("gauss", 2, 20))


@pytest.mark.parametrize("spec, ambient, trials", EQUALITY_DRAWS)
def test_both_inclusions_are_equalities_for_every_standard_tau(
        spec, ambient, trials):
    """The paper's inclusions, tau(F z) containing (F*)^-1(tau z) and
    tau Gamma(x,a,y,b,z) containing Gamma(tx,tb,ty,ta,tz), are equalities
    over K^n for the symplectic, split and diag tau alike; the suites run
    the first only for the symplectic tau.  Over F2 every (F, z) is tried
    and 200 tuples are drawn; elsewhere both take `trials` draws."""
    field = field_from_spec(spec)
    draw_fz, every_fz = relation_cases(field, ambient, "f", "z")
    draw_tuple, _ = subspace_cases(field, ambient, "xaybz")
    pairs = (list(every_fz()) if trials is None
             else [draw_fz(trial_rng(5, i)) for i in range(trials)])
    tuples = [draw_tuple(trial_rng(6, i)) for i in range(trials or 200)]
    for inv in all_standard_involutions(field, ambient // 2):
        for f, z in (c.values() for c in pairs):
            assert (inv(apply_rel(f, z))
                    == apply_rel(inverse_rel(adjoint(f, inv)), inv(z)))
        for x, a, y, b, z in (c.values() for c in tuples):
            assert (inv(gamma_global(x, a, y, b, z))
                    == gamma_global(inv(x), inv(b), inv(y), inv(a), inv(z)))
    assert len(pairs) == (335 if trials is None else trials)


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


def count_tau_kernels(monkeypatch):
    """Count tau's kernel computations, by (subspace, gram).

    `Involution.__call__` is the module's one caller of `orthocomplement`,
    which takes the kernel (`kernel_basis`) only when the check run's table
    does not hold the image yet, and outside a run every time.  Each kernel
    taken while tau is applied counts against that (subspace, gram).
    """
    seen = Counter()
    applying = []
    orig_perp = involutions.orthocomplement
    orig_kernel = subspaces.kernel_basis

    def perp(x, inv):
        applying.append((x, inv.gram))
        try:
            return orig_perp(x, inv)
        finally:
            applying.pop()

    def kernel(m):
        seen[applying[-1]] += 1
        return orig_kernel(m)

    monkeypatch.setattr(involutions, "orthocomplement", perp)
    monkeypatch.setattr(subspaces, "kernel_basis", kernel)
    return seen


def test_antihom_law_applies_tau_once_per_subspace(monkeypatch):
    """Each law is one run: its involution reaches the kernel, at most once
    per subspace."""
    f2 = PrimeField(2)
    invs = all_standard_involutions(f2, 1)
    seen = count_tau_kernels(monkeypatch)
    for inv in invs:
        seen.clear()
        r = check_antihom_global(inv, CheckConfig(exhaustive=True))
        assert r.failures == 0 and r.cases == 5 ** 5
        assert {gram for _, gram in seen} == {inv.gram}
        assert max(seen.values()) == 1


def test_ortho_lattice_applies_tau_once_per_subspace(monkeypatch):
    """One table for the suite's run: every (subspace, gram) pair reaches
    the kernel once.  Over F2 the symplectic and split forms share a gram,
    so every distinct gram reaches it, not every involution."""
    built = []

    def kept(form):
        built.append(ortho_involution(form))
        return built[-1]

    monkeypatch.setattr(checks, "ortho_involution", kept)
    seen = count_tau_kernels(monkeypatch)
    reports = run_suite("ortho-lattice", PrimeField(2), 2,
                        CheckConfig(exhaustive=True))
    assert len(reports) == 3
    assert all(r.failures == 0 and r.cases == 5 ** 2 for r in reports)
    grams = {inv.gram for inv in built}
    assert len(built) == 3 and len(grams) == 2
    assert {gram for _, gram in seen} == grams
    assert set(seen.values()) == {1}


def test_closure_report_applies_tau_once_per_result(monkeypatch):
    f3 = PrimeField(3)
    inv = ortho_involution(symplectic_form(f3, 1))
    points = fixed_points(inv)
    a = points[0]
    ta = inv(a)
    results = {gamma_global(x, a, y, ta, z)
               for x, y, z in itertools.product(points, repeat=3)}
    seen = count_tau_kernels(monkeypatch)
    fixed_points(inv)
    enumeration = Counter(seen)
    seen.clear()
    r = closure_report(inv, a)
    assert r.failures == 0 and r.cases == len(points) ** 3
    # beyond the fixed-point enumeration and tau(a): tau of each result once
    per_result = seen - enumeration - Counter({(a, inv.gram): 1})
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
    inv = ortho_involution(Form(gram))
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
    assert bt.o_plus.dim == 1 and bt.o_minus.dim == 1
    assert is_transversal(bt.o_plus, bt.o_minus)


def test_minus_one_op_is_block_sign_flip():
    f3 = PrimeField(3)
    bt = standard_triple(f3, 1)
    d = minus_one_op(bt)
    assert d == mat(f3, [[1, 0], [0, -1]])
    assert d * d == Matrix.identity(f3, 2)


def test_dual_involution_swaps_form_flavor():
    """Composing with the sign flip exchanges the two middle censuses."""
    f3 = PrimeField(3)
    omega = ortho_involution(symplectic_form(f3, 1))
    dual = dual_involution(omega)
    assert set(fixed_points(dual)) == set(isotropic_census(split_form(f3, 1)))
    r = check_order_two(dual, CheckConfig(trials=50, seed=3))
    assert r.failures == 0


def test_torsor_group_structure():
    """G(inv, a) with a fixed unit is an honest group in table form."""
    f3 = PrimeField(3)
    inv = ortho_involution(symplectic_form(f3, 1))
    a = fixed_points(inv)[0]
    carrier = torsor_G(inv, a)
    assert carrier
    unit = carrier[0]
    table = cayley_table(carrier, unit, a, inv(a))
    n = len(carrier)
    for i in range(n):
        row = set(table[i])
        col = {table[j][i] for j in range(n)}
        assert row == set(range(n))
        assert col == set(range(n))
    u = carrier.index(unit)
    for i in range(n):
        assert table[u][i] == i
        assert table[i][u] == i


def test_cayley_table_rejects_a_product_outside_the_carrier():
    """Drop one carrier element: some product lands on it and is missed."""
    f3 = PrimeField(3)
    inv = ortho_involution(symplectic_form(f3, 1))
    a = fixed_points(inv)[0]
    carrier = torsor_G(inv, a)
    with pytest.raises(ValueError):
        cayley_table(carrier[:-1], carrier[0], a, inv(a))


def test_cayley_table_rejects_an_element_not_transversal_to_a():
    f3 = PrimeField(3)
    inv = ortho_involution(symplectic_form(f3, 1))
    a = fixed_points(inv)[0]
    carrier = torsor_G(inv, a)
    with pytest.raises(TransversalityError):
        cayley_table(carrier + (a,), carrier[0], a, inv(a))


def test_cayley_table_rejects_a_b_not_transversal_to_the_unit():
    f3 = PrimeField(3)
    inv = ortho_involution(symplectic_form(f3, 1))
    a = fixed_points(inv)[0]
    carrier = torsor_G(inv, a)
    with pytest.raises(TransversalityError):
        cayley_table(carrier, carrier[0], a, full_subspace(f3, 2))
    with pytest.raises(TransversalityError):
        cayley_table(carrier, carrier[0], a, carrier[0])


def _gamma_table(elements, unit, a, b):
    index = {e: i for i, e in enumerate(elements)}
    return tuple(tuple(index[gamma_oracle(x, a, unit, b, z)]
                       for z in elements)
                 for x in elements)


@pytest.mark.parametrize("spec,form,n", [
    ("f2", symplectic_form, 1), ("f3", symplectic_form, 1),
    ("f5", symplectic_form, 1), ("f9", symplectic_form, 1),
    ("f2", split_form, 1), ("f3", split_form, 1),
    ("f2", symplectic_form, 2), ("f3", symplectic_form, 2)])
def test_cayley_table_matches_the_gamma_table(spec, form, n):
    """The chart table equals the table of Gamma(x, a, unit, tau a, z).

    The carriers are abelian at n = 1; at n = 2 some are not, so a table
    with its operands swapped cannot pass.  The F3 sweep at n = 2 (carriers
    of 24 and 27) takes the first unit only.
    """
    field = field_from_spec(spec)
    inv = ortho_involution(form(field, n))
    tables = non_commutative = 0
    for a in itertools.islice(enumerate_subspaces(field, 2 * n, n), 12):
        carrier = torsor_G(inv, a)
        if not carrier:
            continue
        ta = inv(a)
        m = len(carrier)
        units = (carrier[0], carrier[m // 2], carrier[-1])
        if (spec, n) == ("f3", 2):
            units = units[:1]
        for unit in dict.fromkeys(units):
            table = cayley_table(carrier, unit, a, ta)
            assert table == _gamma_table(carrier, unit, a, ta)
            tables += 1
            non_commutative += table != tuple(zip(*table))
    assert tables >= 6
    assert (non_commutative > 0) == (n > 1)


def test_cayley_table_makes_no_gamma_call(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for mod in (gamma, involutions):
        for name in ("gamma_oracle", "gamma_global"):
            monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    inv = ortho_involution(symplectic_form(PrimeField(5), 1))
    a = fixed_points(inv)[0]
    carrier = torsor_G(inv, a)
    table = cayley_table(carrier, carrier[0], a, inv(a))
    assert len(table) == len(carrier) == 5
    assert calls == Counter()


@pytest.mark.parametrize("n,m", [(1, 5), (2, 125)])
def test_cayley_table_makes_linearly_many_products(monkeypatch, n, m):
    """One chart change per element, then X B and one stacked product per row.

    n = 2 is the torsor-table workload's carrier.
    """
    f5 = PrimeField(5)
    inv = ortho_involution(symplectic_form(f5, n))
    a = coord_subspace(f5, 2 * n, range(n))
    carrier = torsor_G(inv, a)
    ta = inv(a)
    products = Counter()
    mul = Matrix.__mul__

    def counted(self, other):
        products["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counted)
    table = cayley_table(carrier, carrier[0], a, ta)
    assert len(table) == len(carrier) == m
    assert products["mul"] <= 3 * m + 3


def test_torsor_g_and_opposite_reports():
    f2 = PrimeField(2)
    inv = ortho_involution(symplectic_form(f2, 1))
    for a in fixed_points(inv)[:2]:
        r = check_torsor_g(inv, a)
        assert r.failures == 0, r.first_counterexample
        o = check_opposite_torsor(inv, a)
        assert o.failures == 0, o.first_counterexample


def test_unitary_group_closure():
    """Elements with tau(x) acting as inverse close under the pair product."""
    f3 = PrimeField(3)
    bt = standard_triple(f3, 1)
    inv = ortho_involution(symplectic_form(f3, 1))
    diagonal = span_rows(f3, 2, [[1, 1]])
    elements = unitary_group(inv, bt.o_plus, diagonal, bt.o_minus)
    assert diagonal in elements
    for x in elements:
        for y in elements:
            w = gamma_global(x, bt.o_plus, diagonal, bt.o_minus, y)
            assert w in elements


def test_translation_op_is_unipotent_shear():
    f5 = PrimeField(5)
    a = random_matrix(f5, 2, 2, trial_rng(41, 0))
    t = translation_op(a)
    eye = Matrix.identity(f5, 4)
    top_right = all(
        t.entries[i][j + 2] == a.entries[i][j] for i in range(2) for j in range(2)
    )
    assert top_right
    b = random_matrix(f5, 2, 2, trial_rng(41, 1))
    assert translation_op(a) * translation_op(b) == translation_op(a + b)
    assert mat_invert(t) == translation_op(-a)
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


def test_form_invariants_over_q_give_no_determinant_class():
    """Only prime fields carry a square class; Q has the identity
    involution too, and gets None."""
    q = Rationals()
    assert form_invariants(span_rows(q, 2, [[1, 1]]), split_form(q, 1)) == (
        1, None)


def test_random_isometry_preserves_form():
    for field in (PrimeField(3), PrimeField(5), PrimeField(2)):
        for name, form in standard_forms(field, 1).items():
            for i in range(25):
                g = random_isometry(form, trial_rng(47, i))
                assert g.conj_t() * form.gram * g == form.gram, (field.spec(), name)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_random_isometry_reaches_the_whole_isometry_group(p):
    """Over F2 the split gram is the symplectic one, so its group is all of
    GL2(F2), six elements, not the two of a torus-and-swap draw."""
    field = PrimeField(p)
    for name, form in standard_forms(field, 1).items():
        group = {g for g in all_matrices(field, 2, 2)
                 if g.transpose() * form.gram * g == form.gram}
        drawn = set()
        for i in range(20000):
            drawn.add(random_isometry(form, trial_rng(53, i)))
            if len(drawn) == len(group):
                break
        assert drawn == group, (p, name, len(drawn), len(group))


def test_invariant_transport_report():
    f3 = PrimeField(3)
    for form in standard_forms(f3, 1).values():
        r = check_invariant_transport(form, CheckConfig(trials=60, seed=11))
        assert r.failures == 0, r.first_counterexample


def test_invariant_transport_fails_when_only_the_moved_carrier_is_nonempty(
        monkeypatch):
    """Each case takes the carrier at a, then at g a.  An empty carrier at a
    must still be compared with the one at g a, and fail."""
    real = involutions.torsor_G
    calls = []

    def first_empty(inv, a):
        calls.append(a)
        return () if len(calls) % 2 else real(inv, a)

    monkeypatch.setattr(involutions, "torsor_G", first_empty)
    r = check_invariant_transport(symplectic_form(PrimeField(3), 1),
                                  CheckConfig(trials=10))
    assert (r.cases, r.failures) == (10, 10)


def record_carriers(monkeypatch):
    """Wrap `torsor_G`: each call appends (a, carrier)."""
    calls = []
    real = involutions.torsor_G

    def recording(inv, a):
        carrier = real(inv, a)
        calls.append((a, carrier))
        return carrier

    monkeypatch.setattr(involutions, "torsor_G", recording)
    return calls


@pytest.mark.parametrize("p", [3, 5])
def test_invariant_transport_compares_tables_in_every_case(monkeypatch, p):
    """`a` comes from the middle layer, so no case has an empty carrier and
    passes without comparing tables."""
    calls = record_carriers(monkeypatch)
    for form in standard_forms(PrimeField(p), 1).values():
        r = check_invariant_transport(form, CheckConfig(trials=100))
        assert r.failures == 0, r.first_counterexample
    assert len(calls) == 2 * 3 * 100
    assert all(carrier for _, carrier in calls)


def test_invariant_transport_draws_each_line_uniformly(monkeypatch):
    """2,000 draws of `a` over F3 reach each of the 4 lines, each within
    25% of the mean count.  Every carrier is nonempty, so each case makes
    two calls and the first names the drawn `a`."""
    f3 = PrimeField(3)
    calls = record_carriers(monkeypatch)
    check_invariant_transport(symplectic_form(f3, 1), CheckConfig(trials=2000))
    assert len(calls) == 2 * 2000
    counts = Counter(a for a, _ in calls[::2])
    assert set(counts) == set(enumerate_subspaces(f3, 2, 1))
    mean = 2000 / len(counts)
    assert all(abs(c - mean) <= 0.25 * mean for c in counts.values())
