"""Library refusals and edge returns that no law or command reaches.

Each case calls one library function on input it must refuse, or on an
edge where it returns without computing, and names the outcome: an
exception class, or the value returned.
"""

from fractions import Fraction

import pytest

from torsorlab.fields import (DualRing, FieldSyntaxError, GaussianRationals,
                              PrimeField, QuadraticExt, Rationals)
from torsorlab.gamma import gamma_restricted, proj_operator
from torsorlab.involutions import (InvolutionError, cayley_table,
                                   dual_involution, fixed_points, involution,
                                   ortho_involution, random_isometry,
                                   translation_op, unitary_group)
from torsorlab.matrices import (Matrix, ShapeError, det, hstack,
                                kernel_basis, rref, vstack)
from torsorlab.relations import LinearRelation, adjoint
from torsorlab.reports import describe_value
from torsorlab.rng import trial_rng
from torsorlab.subspaces import (TransversalityError, chart_minus, chart_of,
                                 enumerate_subspaces, full_subspace,
                                 gaussian_binomial, image_under, span_rows,
                                 symplectic_form)

F3 = PrimeField(3)
GAUSS = GaussianRationals()
DUAL = DualRing(F3)
E1 = span_rows(F3, 2, [[1, 0]])
E2 = span_rows(F3, 2, [[0, 1]])
DIAGONAL = span_rows(F3, 2, [[1, 1]])
# Over F3 at ambient 2 every line is Lagrangian for the symplectic form, so
# every line is fixed by its tau.
SYMPLECTIC_TAU = ortho_involution(symplectic_form(F3, 1))


def dual_matrix():
    return Matrix.identity(DUAL, 2)


REFUSALS = {
    # fields
    "rat-zero-denominator": (lambda: Rationals().parse("1/0"),
                             FieldSyntaxError),
    "gauss-empty": (lambda: GAUSS.parse(""), FieldSyntaxError),
    "gauss-two-imaginary-terms": (lambda: GAUSS.parse("i+i"),
                                  FieldSyntaxError),
    "gauss-two-real-terms": (lambda: GAUSS.parse("1+2"), FieldSyntaxError),
    "fp-denominator-p": (lambda: F3.parse("1/3"), FieldSyntaxError),
    "gauss-inverse-of-zero": (lambda: GAUSS.inv(GAUSS.zero),
                              ZeroDivisionError),
    "fp2-inverse-of-zero": (lambda: QuadraticExt(3).inv(QuadraticExt(3).zero),
                            ZeroDivisionError),
    "gauss-format-real": (lambda: GAUSS.format((Fraction(3), Fraction(0))),
                          "3"),
    # matrices
    "matrix-times-int": (lambda: Matrix.identity(F3, 2) * 3, TypeError),
    "hstack-row-counts": (lambda: hstack(Matrix.zeros(F3, 1, 2),
                                         Matrix.zeros(F3, 2, 2)), ShapeError),
    "vstack-column-counts": (lambda: vstack(Matrix.zeros(F3, 1, 2),
                                            Matrix.zeros(F3, 1, 3)),
                             ShapeError),
    "rref-over-dual": (lambda: rref(dual_matrix()), TypeError),
    "kernel-over-dual": (lambda: kernel_basis(dual_matrix()), TypeError),
    "det-over-dual": (lambda: det(dual_matrix()), TypeError),
    # subspaces
    "chart-of-wrong-dimension": (lambda: chart_of(E1, 2),
                                 TransversalityError),
    "chart-minus-not-transversal": (lambda: chart_minus(E1),
                                    TransversalityError),
    "image-under-wrong-size": (lambda: image_under(Matrix.identity(F3, 3),
                                                   E1), ShapeError),
    "enumerate-past-the-ambient": (
        lambda: tuple(enumerate_subspaces(F3, 2, dim=5)), ()),
    "gaussian-binomial-past-n": (lambda: gaussian_binomial(2, 5, 3), 0),
    # relations
    "adjoint-wrong-form-size": (
        lambda: adjoint(LinearRelation(full_subspace(F3, 4)),
                        symplectic_form(F3, 2)), ShapeError),
    # gamma
    "projection-not-complements": (lambda: proj_operator(E1, E1),
                                   TransversalityError),
    "restricted-not-transversal": (
        lambda: gamma_restricted(E1, E1, E2, E2, DIAGONAL),
        TransversalityError),
    # involutions
    "dual-of-base-moving-tau": (
        lambda: dual_involution(involution(Matrix.build(F3, [[1, 1],
                                                             [1, 2]]))),
        InvolutionError),
    "cayley-unit-not-complement": (
        lambda: cayley_table([DIAGONAL], E1, E1, E2), TransversalityError),
    "cayley-no-elements": (lambda: cayley_table([], DIAGONAL, E1, E2), ()),
    "unitary-unit-not-complement": (
        lambda: unitary_group(SYMPLECTIC_TAU, E1, E1, E2), ValueError),
    "translation-chart-not-square": (
        lambda: translation_op(Matrix.zeros(F3, 1, 2)), ValueError),
    "isometry-at-ambient-4": (
        lambda: random_isometry(symplectic_form(F3, 2), trial_rng(0, 0)),
        ValueError),
    "fixed-points-odd-ambient": (
        lambda: fixed_points(involution(Matrix.identity(F3, 3))), ()),
    # reports
    "describe-falls-back-to-str": (lambda: describe_value(Fraction(1, 2)),
                                   "1/2"),
}


@pytest.mark.parametrize("call, outcome", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_library_refusal(call, outcome):
    if isinstance(outcome, type) and issubclass(outcome, Exception):
        with pytest.raises(outcome):
            call()
    else:
        assert call() == outcome
