"""Acceptance suite: ten criteria, one test and one printed verdict line each.

Run with `pytest -v tests/test_acceptance.py` for one PASS/FAIL line per
criterion (add -s to also see the printed summary lines with case counts).
"""

import itertools
import time

from torsorlab.checks import run_all, run_suite
from torsorlab.fields import PrimeField, QuadraticExt
from torsorlab.gamma import (
    check_agreement,
    check_klein,
    check_para_associativity,
    gamma_global,
    gamma_oracle_enum,
    gamma_restricted,
    gamma_via_m,
    l_relation,
    transversal_tuple,
)
from torsorlab.homotopes import (
    check_bracket_agreement,
    check_first_kind_control,
    check_hull_closure,
    check_pair_identity,
    check_second_kind_identity,
    classical_family,
    family_table_bridge,
    graph_star_roundtrip,
    unitary_transport_bridge,
)
from torsorlab.involutions import (
    census_report,
    check_antihom_global,
    check_duality_inclusion,
    check_order_two,
    check_transversality_preservation,
    Involution,
    closure_report,
    isotropic_census,
    ortho_involution,
)
from torsorlab.matrices import Matrix, random_matrix
from torsorlab.relations import apply_rel
from torsorlab.reports import CheckConfig
from torsorlab.rng import trial_rng
from torsorlab.subspaces import (
    all_subspaces,
    random_subspace,
    split_form,
    standard_forms,
    symplectic_form,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F9 = QuadraticExt(3)

AMBIENTS = (2, 3, 4)


def verdict(number, label, ok, detail=""):
    line = "criterion %d: %s - %s" % (number, "PASS" if ok else "FAIL", label)
    if detail:
        line += " (%s)" % detail
    print(line)
    assert ok, line


def draw_tuple(field, ambient, seed, index, count=5):
    rng = trial_rng(seed, index)
    return [random_subspace(field, ambient, rng) for _ in range(count)]


def test_criterion_01_global_laws():
    """Para-associativity and Klein invariance, exhaustive and sampled."""
    cfg = CheckConfig(exhaustive=True)
    para = check_para_associativity(F2, 2, cfg)
    klein = check_klein(F2, 2, cfg)
    ok = para.failures == 0 and klein.failures == 0
    assert klein.cases == 5 ** 5
    assert para.cases == 5 ** 7

    sampled = 0
    for field in (F3, F5):
        for i in range(500):
            ambient = AMBIENTS[i % len(AMBIENTS)]
            x, a, y, b, z, u, v = draw_tuple(field, ambient, 101, i, count=7)
            lhs = gamma_global(x, a, y, b, gamma_global(z, a, u, b, v))
            mid = gamma_global(x, a, gamma_global(u, a, z, b, y), b, v)
            rhs = gamma_global(gamma_global(x, a, y, b, z), a, u, b, v)
            ok = ok and lhs == mid == rhs
            sampled += 1
        for i in range(500):
            ambient = AMBIENTS[i % len(AMBIENTS)]
            x, a, y, b, z = draw_tuple(field, ambient, 103, i)
            w = gamma_global(x, a, y, b, z)
            ok = ok and w == gamma_global(a, x, y, z, b) == gamma_global(z, b, y, a, x)
            sampled += 1
    verdict(1, "global laws (para-associativity, Klein invariance)", ok,
            "exhaustive %d+%d, sampled %d" % (para.cases, klein.cases, sampled))


def test_criterion_02_gamma_agreement():
    """Relation, M-route, and enumeration match the kernel; restricted too."""
    exha = check_agreement(F2, 2, CheckConfig(exhaustive=True))
    ok = exha.failures == 0 and exha.cases == 5 ** 5
    for t in itertools.product(all_subspaces(F2, 2), repeat=5):
        ok = ok and gamma_oracle_enum(*t) == gamma_global(*t)

    sampled = 0
    for i in range(1000):
        ambient = AMBIENTS[i % len(AMBIENTS)]
        x, a, y, b, z = draw_tuple(F3, ambient, 107, i)
        w = gamma_global(x, a, y, b, z)
        ok = ok and gamma_via_m(x, a, y, b, z) == w
        ok = ok and apply_rel(l_relation(x, a, y, b), z) == w
        sampled += 1

    restricted = 0
    for i in range(500):
        ambient = AMBIENTS[i % len(AMBIENTS)]
        x, a, y, b, z = transversal_tuple(F3, ambient, trial_rng(109, i))
        ok = ok and gamma_restricted(x, a, y, b, z) == gamma_global(x, a, y, b, z)
        restricted += 1
    verdict(2, "three-way product agreement plus restricted agreement", ok,
            "exhaustive %d, sampled %d, restricted %d" % (exha.cases, sampled, restricted))


RELATION_CALCULUS = ("projection-idempotent", "projection-conjugation",
                     "adjoint-reversal", "adjoint-shift", "adjoint-involutive",
                     "adjoint-image-inclusion", "l-inversion",
                     "idempotent-projection")


def relation_calculus(field, cfg):
    return [r for name in RELATION_CALCULUS
            for r in run_suite(name, field, 2, cfg)]


def test_criterion_03_relation_calculus():
    """Projection, conjugation, inversion, adjoint, and lattice identities."""
    ok = True
    details = []
    exha = relation_calculus(F2, CheckConfig(exhaustive=True))
    for r in exha:
        ok = ok and r.failures == 0
    details.append("exhaustive %d laws" % len(exha))
    for field, seed in ((F3, 113), (F5, 127)):
        reports = relation_calculus(field, CheckConfig(trials=300, seed=seed))
        for r in reports:
            ok = ok and r.failures == 0 and r.cases == 300
        details.append("%s: %d laws x300" % (field.spec(), len(reports)))
    verdict(3, "relation calculus identities", ok, ", ".join(details))


def test_criterion_04_involution_suite():
    """Duality inclusion and equality, order two, transversality, control."""
    ok = True
    exhaustive_cfg = CheckConfig(exhaustive=True)

    for form in (symplectic_form(F2, 1), split_form(F2, 1)):
        inv = ortho_involution(form)
        eq = check_antihom_global(inv, exhaustive_cfg)
        ok = ok and eq.failures == 0 and eq.cases == 5 ** 5
        ok = ok and check_order_two(inv, exhaustive_cfg).failures == 0
        ok = ok and check_transversality_preservation(inv, exhaustive_cfg).failures == 0

    sampled = 0
    for field, seed in ((F3, 131), (F5, 137)):
        for form in standard_forms(field, 2).values():
            inv = ortho_involution(form)
            cfg = CheckConfig(trials=250, seed=seed)
            incl = check_duality_inclusion(inv, cfg)
            eq = check_antihom_global(inv, cfg)
            ok = ok and incl.failures == 0 and eq.failures == 0
            sampled += incl.cases + eq.cases
            tau2 = check_order_two(inv, CheckConfig(trials=250, seed=seed))
            trans = check_transversality_preservation(inv, CheckConfig(trials=250, seed=seed))
            ok = ok and tau2.failures == 0 and trans.failures == 0

    degenerate = Matrix.build(F3, [[F3.one, F3.zero], [F3.zero, F3.zero]])
    control = check_order_two(Involution(degenerate),
                              CheckConfig(trials=80, seed=139))
    ok = ok and control.failures > 0
    verdict(4, "involution suite with degenerate negative control", ok,
            "ambient-4 sampled cases %d, control failures %d"
            % (sampled, control.failures))


def test_criterion_05_lagrangian_censuses():
    """Census counts agree across two paths; the fixed layer is closed."""
    ok = True
    setups = (
        (symplectic_form(F2, 1), 3),
        (symplectic_form(F2, 2), 15),
        (symplectic_form(F3, 1), 4),
    )
    closures = 0
    for form, expected in setups:
        census = isotropic_census(form)
        ok = ok and len(census) == expected
        two_paths = census_report(form)
        ok = ok and two_paths.failures == 0
        inv = ortho_involution(form)
        for a in all_subspaces(form.field, form.ambient):
            r = closure_report(inv, a)
            ok = ok and r.failures == 0
            closures += 1
    verdict(5, "censuses stable over two paths; closure for every parameter",
            ok, "3/15/4 points, %d closure sweeps" % closures)


def test_criterion_06_bracket_routes():
    """Nilpotent-lift bracket equals the direct formula, quickly."""
    start = time.monotonic()
    r = check_bracket_agreement(F5, CheckConfig(trials=200, seed=149))
    elapsed = time.monotonic() - start
    ok = r.failures == 0 and r.cases == 200 and elapsed < 10.0
    verdict(6, "bracket via nilpotent lift matches the direct formula", ok,
            "200 cases in %.2fs" % elapsed)


def _seeded_params(name, field, n, seed, count):
    for i in range(count):
        r = random_matrix(field, n, n, trial_rng(seed, i))
        if name == "o":
            yield r + r.transpose()
        elif name == "sp":
            yield r - r.transpose()
        else:
            yield r + r.conj_t()


def test_criterion_07_hull_closure():
    """Twenty seeded parameters per family keep the hull closed with unit 0."""
    ok = True
    swept = 0
    jobs = [("o", F3, 2, 151), ("o", F5, 2, 157),
            ("sp", F3, 2, 163), ("sp", F5, 2, 167),
            ("u", F9, 1, 173)]
    for name, field, n, seed in jobs:
        for param in _seeded_params(name, field, n, seed, 20):
            fam = classical_family(name, param)
            r = check_hull_closure(fam)
            ok = ok and r.failures == 0
            swept += 1
    verdict(7, "hull closure across classical families", ok,
            "%d parameter sweeps" % swept)


def test_criterion_08_bridges():
    """Chart tables, transported groups, and the graph-star roundtrip."""
    ok = True
    sp_f3 = Matrix.build(F3, [[F3.zero, F3.one], [F3.neg(F3.one), F3.zero]])
    table_jobs = (
        ("o", Matrix.identity(F5, 1)),
        ("o", Matrix.identity(F3, 2)),
        ("sp", Matrix.zeros(F5, 1, 1)),
        ("sp", sp_f3),
    )
    for name, param in table_jobs:
        r = family_table_bridge(name, param)
        ok = ok and r.failures == 0 and r.cases > 0

    sym_f3 = Matrix.build(F3, [[F3.one, F3.one], [F3.one, F3.zero]])
    for param in (Matrix.identity(F5, 1), sym_f3):
        r = unitary_transport_bridge(param)
        ok = ok and r.failures == 0 and r.cases > 0

    exact = graph_star_roundtrip(F3, 1, CheckConfig(exhaustive=True))
    ok = ok and exact.failures == 0 and exact.cases == 3
    sampled = graph_star_roundtrip(F5, 2, CheckConfig(trials=100, seed=179))
    ok = ok and sampled.failures == 0 and sampled.cases == 100
    verdict(8, "torsor-to-matrix-group bridges", ok,
            "4 tables, 2 transports, roundtrip 3+100")


def test_criterion_09_triple_identities():
    """Pair and second-kind identities hold; the first-kind control fails."""
    pair = check_pair_identity(F3, CheckConfig(trials=200, seed=181))
    second = check_second_kind_identity(F3, CheckConfig(trials=200, seed=191))
    control = check_first_kind_control(F3, CheckConfig(trials=200, seed=193))
    violations = 0
    for note in control.notes:
        if note.startswith("violations:"):
            violations = int(note.split(":")[1])
    ok = (pair.failures == 0 and pair.cases == 200
          and second.failures == 0 and second.cases == 200
          and control.failures == 0 and violations > 0)
    verdict(9, "associative triple identities with negative control", ok,
            "200+200 cases, control found %d violations" % violations)


def test_criterion_10_determinism():
    """Same seed, same bytes; reports re-serialize identically."""
    cfg = CheckConfig(trials=25, seed=197)
    first = "\n".join(r.to_json() for r in run_all(F3, 2, cfg))
    second = "\n".join(r.to_json() for r in run_all(F3, 2, cfg))
    ok = first == second and len(first) > 0
    one_a = [r.to_json() for r in relation_calculus(F5, CheckConfig(trials=40, seed=199))]
    one_b = [r.to_json() for r in relation_calculus(F5, CheckConfig(trials=40, seed=199))]
    ok = ok and one_a == one_b
    verdict(10, "byte-identical reports for identical configurations", ok,
            "%d bytes compared twice" % len(first))
