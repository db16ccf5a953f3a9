"""Row reduction over Q and F_p against sympy, written independently."""

from fractions import Fraction

import pytest

from torsorlab.fields import PrimeField, Rationals
from torsorlab.matrices import (Matrix, SingularMatrixError, kernel_basis,
                                mat_invert, random_matrix, rref)
from torsorlab.rng import trial_rng
from torsorlab.subspaces import meet, random_subspace

sympy = pytest.importorskip("sympy")
DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix

Q = Rationals()
SHAPES = ((1, 1), (2, 3), (3, 2), (3, 5), (4, 4), (5, 3), (4, 8), (6, 6))


def to_sympy(rows, ncols):
    return sympy.Matrix(len(rows), ncols,
                        [sympy.Rational(e.numerator, e.denominator)
                         for row in rows for e in row])


def from_sympy(m):
    return tuple(tuple(Fraction(int(e.p), int(e.q)) for e in m.row(i))
                 for i in range(m.rows))


def seeded_matrices(field=Q, seed=1000):
    """Full-rank-ish draws, plus products that force rank deficiency."""
    for i, (r, c) in enumerate(SHAPES):
        for j in range(6):
            rng = trial_rng(seed + i, j)
            if j % 2:
                k = rng.below(min(r, c)) + 1
                yield (random_matrix(field, r, k, rng)
                       * random_matrix(field, k, c, rng))
            else:
                yield random_matrix(field, r, c, rng)


def test_rref_matches_sympy():
    for m in seeded_matrices():
        red, rank = rref(m)
        theirs, pivots = to_sympy(m.entries, m.ncols).rref()
        assert rank == len(pivots)
        assert red.entries == from_sympy(theirs)[:rank]


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_rref_over_prime_fields_matches_sympy(p):
    gf = sympy.GF(p)
    for m in seeded_matrices(PrimeField(p), 3000 + 10 * p):
        red, rank = rref(m)
        theirs, pivots = DomainMatrix(
            [[gf(e) for e in row] for row in m.entries],
            (m.nrows, m.ncols), gf).rref()
        assert rank == len(pivots)
        # sympy keeps symmetric residues; int(x) % p maps them into [0, p)
        assert red.entries == tuple(tuple(int(x) % p for x in row)
                                    for row in theirs.to_list()[:rank])


def test_kernel_basis_row_space_matches_sympy_nullspace():
    for m in seeded_matrices():
        ours = kernel_basis(m)
        null = to_sympy(m.entries, m.ncols).nullspace()
        assert ours.nrows == len(null)
        if not null:
            continue
        stacked = sympy.Matrix.vstack(*(v.T for v in null))
        assert ours.entries == from_sympy(stacked.rref()[0])


def large_matrix(r, c, rng):
    """Entries with 30-bit numerators and denominators of either sign."""
    return Matrix.from_rows(Q, [[Fraction(rng.below(1 << 31) - (1 << 30),
                                          rng.below(1 << 30) + 1)
                                 for _ in range(c)] for _ in range(r)], c)


def large_matrices(seed):
    """Large-entry draws, and rank-deficient products with one such factor."""
    for i, (r, c) in enumerate(SHAPES):
        for j in range(4):
            rng = trial_rng(seed + i, j)
            if j % 2:
                k = rng.below(min(r, c)) + 1
                yield random_matrix(Q, r, k, rng) * large_matrix(k, c, rng)
            else:
                yield large_matrix(r, c, rng)


def test_kernel_basis_with_large_entries_matches_sympy_nullspace():
    for m in large_matrices(5000):
        ours = kernel_basis(m)
        null = to_sympy(m.entries, m.ncols).nullspace()
        assert ours.nrows == len(null)
        if null:
            stacked = sympy.Matrix.vstack(*(v.T for v in null))
            assert ours.entries == from_sympy(stacked.rref()[0])


@pytest.mark.parametrize("n", (1, 2, 3, 4, 6))
def test_mat_invert_matches_sympy(n):
    """Inverse equal to sympy's, or SingularMatrixError where det is 0."""
    inverted = singular = 0
    for j in range(12):
        rng = trial_rng(6000 + n, j)
        if j % 3 == 0:
            k = rng.below(n) + 1
            m = random_matrix(Q, n, k, rng) * large_matrix(k, n, rng)
        elif j % 3 == 1:
            m = large_matrix(n, n, rng)
        else:
            m = random_matrix(Q, n, n, rng)
        theirs = to_sympy(m.entries, n)
        if theirs.det() == 0:
            with pytest.raises(SingularMatrixError):
                mat_invert(m)
            singular += 1
        else:
            assert mat_invert(m).entries == from_sympy(theirs.inv())
            inverted += 1
    assert inverted >= 6 and (n == 1 or singular)


def test_meet_dimension_and_containment_against_sympy_rank():
    for n in (2, 3, 4, 5):
        for i in range(12):
            rng = trial_rng(2000 + n, i)
            x = random_subspace(Q, n, rng)
            y = random_subspace(Q, n, rng)
            both = meet(x, y)
            joined = to_sympy(x.basis.entries + y.basis.entries, n)
            assert both.dim == x.dim + y.dim - joined.rank()
            for row in both.basis.entries:
                for side in (x, y):
                    with_row = to_sympy(side.basis.entries + (row,), n)
                    assert with_row.rank() == side.dim
