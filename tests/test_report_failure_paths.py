"""The failing branches of reports whose verdict comes from a precheck.

Each test breaks one input of a law on purpose (a census, a carrier, a
family condition) and pins the report it must then give: cases, failures,
the first counterexample and the notes.  The suite name is asserted only
for reports produced through `run_suite`.
"""

from torsorlab import checks, homotopes, involutions
from torsorlab.checks import run_suite
from torsorlab.fields import PrimeField
from torsorlab.homotopes import (ClassicalFamily, check_first_kind_control,
                                 check_group_laws, check_hull_closure,
                                 classical_family, family_table_bridge,
                                 unitary_transport_bridge)
from torsorlab.involutions import (GroupView, census_report,
                                   check_opposite_torsor, fixed_points,
                                   ortho_involution)
from torsorlab.matrices import Matrix
from torsorlab.reports import CheckConfig
from torsorlab.subspaces import symplectic_form

F3 = PrimeField(3)
F5 = PrimeField(5)
CFG = CheckConfig(trials=5)


def verdict(report):
    return (report.cases, report.failures, report.first_counterexample,
            report.notes)


def test_census_report_fails_when_the_fixed_set_is_lost(monkeypatch):
    monkeypatch.setattr(involutions, "fixed_points", lambda inv: ())
    report = census_report(symplectic_form(F3, 1))
    assert verdict(report) == (
        1, 1, {"direct-count": 4, "fixed-count": 0}, ("count:4",))


def test_dual_fixed_lagrangian_fails_on_a_census_mismatch(monkeypatch):
    monkeypatch.setattr(checks, "isotropic_census", lambda form: ())
    report = run_suite("lagrangian-census", F3, 2, CFG)[-1]
    assert (report.suite, report.law) == ("lagrangian-census",
                                          "dual-fixed-lagrangian")
    assert verdict(report) == (
        1, 1, {"mismatch": "fixed set vs census"}, ())


def test_opposite_torsor_fails_on_unequal_carriers(monkeypatch):
    inv = ortho_involution(symplectic_form(F3, 1))
    a = fixed_points(inv)[0]
    real = involutions.torsor_G
    calls = []

    def second_truncated(inv, a):
        carrier, product = real(inv, a)
        calls.append(a)
        return (carrier[:1] if len(calls) == 2 else carrier), product

    monkeypatch.setattr(involutions, "torsor_G", second_truncated)
    report = check_opposite_torsor(inv, a)
    assert verdict(report) == (1, 1, {"carrier-sizes": [3, 1]}, ())


def reject_zero(monkeypatch):
    monkeypatch.setattr(ClassicalFamily, "condition",
                        lambda self, x: not x.is_zero())


def test_group_laws_fail_without_the_unit(monkeypatch):
    reject_zero(monkeypatch)
    fam = classical_family("gl", F3, Matrix.identity(F3, 1))
    report = check_group_laws(fam, CFG)
    assert verdict(report) == (
        1, 1, {"unit": "missing"}, ("family:gl", "members:1"))


def test_hull_closure_counts_the_missing_unit_first(monkeypatch):
    reject_zero(monkeypatch)
    fam = classical_family("o", F3, Matrix.identity(F3, 1))
    report = check_hull_closure(fam)
    assert verdict(report) == (
        5, 2, {"unit": "missing"}, ("family:o", "param:1", "hull:2"))


def test_first_kind_control_fails_without_violations():
    report = check_first_kind_control(F3, 1, 1, CFG)
    assert verdict(report) == (1, 1, {"violations": 0}, ("violations:0",))


def test_family_table_bridge_fails_on_a_lost_member(monkeypatch):
    real = homotopes.members
    monkeypatch.setattr(homotopes, "members", lambda fam: real(fam)[:1])
    report = family_table_bridge("o", F5, Matrix.identity(F5, 1))
    assert verdict(report) == (
        1, 1, {"carrier": 2, "family": 1}, ("carrier:2",))


def test_unitary_transport_bridge_fails_on_a_lost_element(monkeypatch):
    real = homotopes.unitary_group

    def truncated(*args):
        view, product = real(*args)
        return GroupView(view.elements[:1], view.unit), product

    monkeypatch.setattr(homotopes, "unitary_group", truncated)
    report = unitary_transport_bridge(F5, Matrix.identity(F5, 1))
    assert verdict(report) == (
        1, 1, {"carrier": 2, "unitary": 1}, ("carrier:2", "unitary:1"))
