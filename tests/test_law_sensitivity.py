"""Planted kernel faults that the laws must see.

Each test plants one fault in a kernel by monkeypatch, runs a law suite
at a small fixed configuration, and pins the reports that must fail.  A
law that passes on a broken kernel no longer checks that kernel.
"""

import pytest

from torsorlab import matrices
from torsorlab.checks import run_suite
from torsorlab.fields import PrimeField, Rationals
from torsorlab.gamma import relation_cases
from torsorlab.involutions import Involution, ortho_involution
from torsorlab.matrices import Matrix
from torsorlab.relations import adjoint, apply_rel, inverse_rel
from torsorlab.reports import CheckConfig
from torsorlab.subspaces import Form, orthocomplement, symplectic_form

CFG = CheckConfig(trials=20)


def failures(name, field, law):
    (report,) = [r for r in run_suite(name, field, 2, CFG) if r.law == law]
    return report.failures


@pytest.mark.parametrize("field", (Rationals(), PrimeField(3)),
                         ids=("rat", "f3"))
def test_bracket_sees_a_dual_product_without_the_bc_term(monkeypatch, field):
    """(A + eps B)(C + eps D) taken as AC + eps AD, at every dual level."""
    assert failures("lie-bracket", field, "bracket-two-routes") == 0
    real = matrices._mul_dual

    def without_bc(base, rows, cols):
        return real(base, [[(e[0], base.zero) for e in row] for row in rows],
                    cols)

    monkeypatch.setattr(matrices, "_mul_dual", without_bc)
    assert failures("lie-bracket", field, "bracket-two-routes") > 0


@pytest.mark.parametrize("field", (Rationals(), PrimeField(3)),
                         ids=("rat", "f3"))
def test_nilpotent_entries_see_a_dual_inverse_with_the_wrong_sign(
        monkeypatch, field):
    """A^-1 + eps A^-1 B A^-1 times A + eps B is 1 + 2 eps A^-1 B, so the
    flip shows in every characteristic but 2."""
    law = "nilpotent-entries-dual"
    assert failures("dual-matrix-arithmetic", field, law) == 0
    real = matrices._invert_dual

    def eps_negated(m):
        inv = real(m)
        neg = m.ring.base.neg
        return Matrix(inv.ring, inv.ncols,
                      tuple(tuple((x, neg(y)) for x, y in row)
                            for row in inv.entries))

    monkeypatch.setattr(matrices, "_invert_dual", eps_negated)
    assert failures("dual-matrix-arithmetic", field, law) > 0


def plant_identity_tau(monkeypatch):
    """Every Involution applies the orthocomplement for the identity gram,
    whatever its own gram."""

    def identity_perp(inv, x):
        one = Matrix.identity(inv.field, inv.ambient)
        return orthocomplement(x, Form(one))

    monkeypatch.setattr(Involution, "__call__", identity_perp)


def failing_laws(names, field):
    return {r.law for name in names for r in run_suite(name, field, 2, CFG)
            if r.failures}


@pytest.mark.parametrize("field", (Rationals(), PrimeField(3)),
                         ids=("rat", "f3"))
def test_adjoint_laws_see_a_wrong_tau(monkeypatch, field):
    """The relation adjoints keep their own pairing, so only the laws that
    compare them with tau fail."""
    suites = ("adjoint-reversal", "adjoint-image-inclusion")
    assert failing_laws(suites, field) == set()
    plant_identity_tau(monkeypatch)
    assert failing_laws(suites, field) == {
        "adjoint-projection-symplectic", "adjoint-projection-split",
        "adjoint-projection-diag", "adjoint-image-inclusion"}


def test_adjoint_image_law_fails_where_its_sides_differ(monkeypatch):
    """The law asserts tau(F z) = (F*)^-1(tau z), so under a wrong tau a
    case whose sides differ fails, whether or not one side contains the
    other: over F2 at ambient 2 that is 154 of the 335 cases (F, z)."""
    f2 = PrimeField(2)
    plant_identity_tau(monkeypatch)
    tau = ortho_involution(symplectic_form(f2, 1))
    _, enumerate_all = relation_cases(f2, 2, "f", "z")
    differ = [tau(apply_rel(f, z))
              != apply_rel(inverse_rel(adjoint(f, tau)), tau(z))
              for f, z in (tuple(c.values()) for c in enumerate_all())]
    (report,) = run_suite("adjoint-image-inclusion", f2, 2,
                          CheckConfig(exhaustive=True))
    assert (report.cases, report.failures) == (len(differ), sum(differ))
    assert (report.cases, report.failures) == (335, 154)
    assert report.notes == ()


def test_fixed_set_suites_report_a_wrong_tau(monkeypatch):
    """The identity-gram tau over F3 fixes no line, so torsor-g and
    opposite-torsor fail one case per form instead of declining, and the
    two census paths disagree.  The other suites still pass.
    Semitorsor-closure runs zero cases and invariant-transport compares only
    empty carriers, the vacuous passes of ROADMAP item 1.  The duality laws
    hold because the identity-gram orthocomplement is itself an involution
    of the geometry."""
    f3 = PrimeField(3)
    suites = ("involution-duality", "torsor-g", "opposite-torsor",
              "lagrangian-census", "semitorsor-closure", "invariant-transport")
    assert failing_laws(suites, f3) == set()
    plant_identity_tau(monkeypatch)
    forms = ("symplectic", "split", "diag")
    assert failing_laws(suites, f3) == (
        {"%s-%s-0" % (suite, form) for suite in ("torsor-g", "opposite-torsor")
         for form in forms}
        | {"census-two-paths-" + form for form in forms}
        | {"dual-fixed-lagrangian"})
    assert [(r.cases, r.failures, r.first_counterexample)
            for r in run_suite("torsor-g", f3, 2, CFG)] == [
        (1, 1, {"fixed-points": 0})] * 3


def test_bridge_suite_reports_a_wrong_tau(monkeypatch):
    """A tau that moves the unitary parameters empties the unitary target
    instead of stopping the suite; at n = 1 that target and the carrier are
    both empty, so the unitary transport passes."""
    f3 = PrimeField(3)
    assert failing_laws(("bridge",), f3) == set()
    plant_identity_tau(monkeypatch)
    reports = run_suite("bridge", f3, 2, CFG)
    assert len(reports) == 5
    assert {r.law for r in reports if r.failures} == {
        "graph-star-roundtrip", "o-family-table", "sp-family-table"}
