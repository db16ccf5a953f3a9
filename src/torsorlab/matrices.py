"""Dense exact matrices with Gaussian elimination.

Works over the fields of `fields` and over the local dual rings K[eps] and
K[e1][e2] (a `DualRing` of a `DualRing`); pivot selection asks the ring for a
*unit*, which over a field means any nonzero entry and over a local ring
means an invertible constant part.  Reduced row echelon form (and everything
built on it) is only offered over fields, where it is canonical.

Every row reduction goes through `_eliminate`, which has two kernels:

* `_eliminate_mod_p` for a `PrimeField` (F2, F3, F5, ...): entries stay ints
  in [0, p) and each row update is one list comprehension with an inline
  ``% p``, with no ring-method call per entry;
* `_eliminate_generic` for every other ring (Q, Q(i), F_{p^2}, and the dual
  rings, `DualRing(PrimeField(p))` included): scalar arithmetic
  through the ring's methods, pivoting on units.

Both leave the same rows for the same input, so `rref`, `eliminate_front`,
`kernel_basis` and `mat_invert` do not care which one ran.  Matrix products
dispatch the same way: over a `PrimeField` each entry is one int dot product
reduced ``% p`` once.

A `Matrix` is a frozen, slotted value.  Its hash is computed once, on first
use, and kept in the `_hash` slot; it equals the hash a frozen dataclass
would generate, so set and dict orders do not depend on the cache.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import product
from operator import mul as _int_mul

from .fields import FieldSyntaxError, PrimeField


class SingularMatrixError(ArithmeticError):
    pass


class ShapeError(ValueError):
    """Operands whose shapes, ambients or rings do not fit together."""


@dataclass(frozen=True, slots=True)
class Matrix:
    ring: object
    nrows: int
    ncols: int
    entries: tuple  # row-major tuple of row tuples
    _hash: int = dataclasses.field(default=None, init=False, repr=False,
                                   compare=False)

    def __post_init__(self):
        if (len(self.entries) != self.nrows
                or not set(map(len, self.entries)) <= {self.ncols}):
            raise ShapeError("entries do not form a %dx%d matrix"
                             % (self.nrows, self.ncols))

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ring, self.nrows, self.ncols, self.entries))
            object.__setattr__(self, "_hash", h)
        return h

    # -- construction ------------------------------------------------------

    @staticmethod
    def build(ring, rows):
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return Matrix(ring, len(rows), ncols, tuple(rows))

    @staticmethod
    def from_rows(ring, rows, ncols):
        """Like build(), but keeps ncols explicit so zero-row matrices work."""
        rows = tuple(tuple(r) for r in rows)
        return Matrix(ring, len(rows), ncols, rows)

    @staticmethod
    def identity(ring, n):
        z, o = ring.zero, ring.one
        return Matrix(ring, n, n,
                      tuple(tuple(o if i == j else z for j in range(n))
                            for i in range(n)))

    @staticmethod
    def zeros(ring, nrows, ncols):
        z = ring.zero
        return Matrix(ring, nrows, ncols, ((z,) * ncols,) * nrows)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._match(other)
        R = self.ring
        return Matrix(R, self.nrows, self.ncols,
                      tuple(tuple(R.add(a, b) for a, b in zip(ra, rb))
                            for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other):
        self._match(other)
        R = self.ring
        return Matrix(R, self.nrows, self.ncols,
                      tuple(tuple(R.sub(a, b) for a, b in zip(ra, rb))
                            for ra, rb in zip(self.entries, other.entries)))

    def __neg__(self):
        R = self.ring
        return Matrix(R, self.nrows, self.ncols,
                      tuple(tuple(R.neg(a) for a in row) for row in self.entries))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ring != other.ring or self.ncols != other.nrows:
            raise ShapeError("cannot multiply %dx%d by %dx%d"
                             % (self.nrows, self.ncols, other.nrows,
                                other.ncols))
        R = self.ring
        cols = list(zip(*other.entries)) if other.entries else [()] * other.ncols
        if type(R) is PrimeField:
            out = _mul_mod_p(R.p, self.entries, cols)
        else:
            out = _mul_generic(R, self.entries, cols)
        return Matrix(R, self.nrows, other.ncols, out)

    def scale(self, s):
        R = self.ring
        return Matrix(R, self.nrows, self.ncols,
                      tuple(tuple(R.mul(s, a) for a in row) for row in self.entries))

    def transpose(self):
        if not self.entries:
            return Matrix(self.ring, self.ncols, 0, ((),) * self.ncols)
        return Matrix(self.ring, self.ncols, self.nrows, tuple(zip(*self.entries)))

    def conj(self):
        R = self.ring
        if getattr(R, "involution", None) == "identity":
            return self
        return Matrix(R, self.nrows, self.ncols,
                      tuple(tuple(R.conj(a) for a in row) for row in self.entries))

    def conj_t(self):
        return self.conj().transpose()

    # -- pieces ------------------------------------------------------------

    def take_cols(self, j0, j1):
        return Matrix(self.ring, self.nrows, j1 - j0,
                      tuple(row[j0:j1] for row in self.entries))

    def is_zero(self):
        R = self.ring
        return all(R.is_zero(a) for row in self.entries for a in row)

    def _match(self, other):
        if (self.ring != other.ring
                or (self.nrows, self.ncols) != (other.nrows, other.ncols)):
            raise ShapeError("%dx%d and %dx%d matrices do not match"
                             % (self.nrows, self.ncols, other.nrows,
                                other.ncols))


def _mul_mod_p(p, rows, cols):
    """Product entries over F_p: one int dot product, reduced once."""
    return tuple(tuple(sum(map(_int_mul, row, col)) % p for col in cols)
                 for row in rows)


def _mul_generic(ring, rows, cols):
    """Product entries through the ring's scalar methods, for any ring."""
    add, mul, zero = ring.add, ring.mul, ring.zero
    out = []
    for row in rows:
        new = []
        for col in cols:
            acc = zero
            for a, b in zip(row, col):
                acc = add(acc, mul(a, b))
            new.append(acc)
        out.append(tuple(new))
    return tuple(out)


def hstack(*mats):
    first = mats[0]
    if any(m.nrows != first.nrows or m.ring != first.ring for m in mats):
        raise ShapeError("hstack needs equal row counts and one ring")
    rows = tuple(sum((m.entries[i] for m in mats), ())
                 for i in range(first.nrows))
    return Matrix(first.ring, first.nrows, sum(m.ncols for m in mats), rows)


def vstack(*mats):
    first = mats[0]
    if any(m.ncols != first.ncols or m.ring != first.ring for m in mats):
        raise ShapeError("vstack needs equal column counts and one ring")
    rows = sum((m.entries for m in mats), ())
    return Matrix(first.ring, len(rows), first.ncols, rows)


def vec_mul(v, m):
    """Row-vector action: returns tuple v @ m."""
    R = m.ring
    add, mul, zero = R.add, R.mul, R.zero
    if len(v) != m.nrows:
        raise ShapeError("vector of length %d against %d rows"
                         % (len(v), m.nrows))
    out = [zero] * m.ncols
    for c, row in zip(v, m.entries):
        if R.is_zero(c):
            continue
        out = [add(acc, mul(c, a)) for acc, a in zip(out, row)]
    return tuple(out)


def neg_vec(ring, v):
    return tuple(ring.neg(e) for e in v)


def _eliminate(ring, rows, ncols):
    """In-place reduced echelon pass; pivots only on unit entries.

    Returns the list of pivot columns.  Over a field this is full RREF; over
    a local ring rows without unit entries are left untouched at the bottom.
    """
    if type(ring) is PrimeField:
        return _eliminate_mod_p(ring.p, rows, ncols)
    return _eliminate_generic(ring, rows, ncols)


def _eliminate_mod_p(p, rows, ncols):
    """`_eliminate` over F_p, on entries that are ints in [0, p)."""
    pivots = []
    pr = 0
    nrows = len(rows)
    for c in range(ncols):
        pv = None
        for r in range(pr, nrows):
            if rows[r][c]:
                pv = r
                break
        if pv is None:
            continue
        rows[pr], rows[pv] = rows[pv], rows[pr]
        head = rows[pr]
        f = head[c]
        if f != 1:
            fi = pow(f, p - 2, p)
            head = [fi * e % p for e in head]
            rows[pr] = head
        for r in range(nrows):
            if r == pr:
                continue
            row = rows[r]
            g = row[c]
            if g:
                rows[r] = [(e - g * h) % p for e, h in zip(row, head)]
        pivots.append(c)
        pr += 1
        if pr == nrows:
            break
    return pivots


def _eliminate_generic(ring, rows, ncols):
    """`_eliminate` through the ring's scalar methods, for any ring."""
    sub, mul, inv = ring.sub, ring.mul, ring.inv
    is_zero, is_unit, one = ring.is_zero, ring.is_unit, ring.one
    pivots = []
    pr = 0
    nrows = len(rows)
    for c in range(ncols):
        pv = None
        for r in range(pr, nrows):
            if is_unit(rows[r][c]):
                pv = r
                break
        if pv is None:
            continue
        rows[pr], rows[pv] = rows[pv], rows[pr]
        head = rows[pr]
        f = head[c]
        if f != one:
            fi = inv(f)
            head = [mul(fi, e) for e in head]
            rows[pr] = head
        for r in range(nrows):
            if r == pr:
                continue
            g = rows[r][c]
            if not is_zero(g):
                row = rows[r]
                rows[r] = [sub(e, mul(g, h)) for e, h in zip(row, head)]
        pivots.append(c)
        pr += 1
        if pr == nrows:
            break
    return pivots


def rref(m):
    """Reduced row echelon form with zero rows dropped; returns (Matrix, rank)."""
    if not m.ring.is_field:
        raise TypeError("rref is canonical over fields only")
    rows = [list(r) for r in m.entries]
    pivots = _eliminate(m.ring, rows, m.ncols)
    r = len(pivots)
    return Matrix(m.ring, r, m.ncols, tuple(tuple(row) for row in rows[:r])), r


def eliminate_front(field, rows, k, ncols):
    """Canonical basis of {v : (0, v) in the row span}, 0 on k columns.

    `_eliminate` runs on the first k columns only.  Its pivot rows are
    independent there and every later row vanishes there, so the vectors
    (0, v) of the span are exactly the span of the later rows.  One `rref`
    of their tails gives the canonical (ncols - k)-column basis: a block
    elimination stays one `rref` call, and no tail pivot is substituted
    back into the pivot rows that are dropped.
    """
    rows = list(rows)
    front = len(_eliminate(field, rows, k))
    tails = [row[k:] for row in rows[front:]]
    return rref(Matrix.from_rows(field, tails, ncols - k))[0]


def rank(m):
    return rref(m)[1]


def pivot_cols(m):
    """Pivot columns of an already-reduced basis matrix."""
    R = m.ring
    out = []
    for row in m.entries:
        for j, e in enumerate(row):
            if not R.is_zero(e):
                out.append(j)
                break
    return out


def kernel_basis(m):
    """RREF basis (rows) of the right kernel {v : m v = 0}."""
    R = m.ring
    if not R.is_field:
        raise TypeError("kernel_basis over fields only")
    rows = [list(r) for r in m.entries]
    pivots = _eliminate(R, rows, m.ncols)
    kernel = []
    for j in range(m.ncols):
        if j in pivots:
            continue
        v = [R.zero] * m.ncols
        v[j] = R.one
        for row, pc in zip(rows, pivots):
            v[pc] = R.neg(row[j])
        kernel.append(v)
    return rref(Matrix.from_rows(R, kernel, m.ncols))[0]


def _check_square(m):
    if m.nrows != m.ncols:
        raise ShapeError("%dx%d matrix is not square" % (m.nrows, m.ncols))


def mat_invert(m):
    """Exact inverse; SingularMatrixError if no inverse over the ring."""
    _check_square(m)
    n = m.nrows
    ident = Matrix.identity(m.ring, n)
    rows = [list(a + b) for a, b in zip(m.entries, ident.entries)]
    pivots = _eliminate(m.ring, rows, 2 * n)
    if pivots[:n] != list(range(n)) or len(pivots) < n:
        raise SingularMatrixError("matrix is not invertible")
    return Matrix(m.ring, n, n, tuple(tuple(row[n:]) for row in rows[:n]))


def is_invertible(m):
    if m.nrows != m.ncols:
        return False
    try:
        mat_invert(m)
        return True
    except SingularMatrixError:
        return False


def det(m):
    """Determinant over a field, by elimination with row swaps."""
    R = m.ring
    if not R.is_field:
        raise TypeError("det by elimination over fields only")
    _check_square(m)
    n = m.nrows
    rows = [list(r) for r in m.entries]
    result = R.one
    for c in range(n):
        pv = None
        for r in range(c, n):
            if not R.is_zero(rows[r][c]):
                pv = r
                break
        if pv is None:
            return R.zero
        if pv != c:
            rows[c], rows[pv] = rows[pv], rows[c]
            result = R.neg(result)
        head = rows[c]
        result = R.mul(result, head[c])
        fi = R.inv(head[c])
        for r in range(c + 1, n):
            g = rows[r][c]
            if not R.is_zero(g):
                f = R.mul(g, fi)
                rows[r] = [R.sub(e, R.mul(f, h)) for e, h in zip(rows[r], head)]
    return result


def parse_matrix(text, ring, ncols=None):
    """Parse "1,0;0,1" with entries in the ring's scalar syntax."""
    text = text.strip()
    if text in ("", "0") and ncols is not None:
        return Matrix.from_rows(ring, (), ncols)
    rows = []
    for chunk in text.split(";"):
        rows.append(tuple(ring.parse(tok) for tok in chunk.split(",")))
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise FieldSyntaxError("ragged matrix literal")
    if ncols is not None and width != ncols:
        raise FieldSyntaxError("expected %d columns, got %d" % (ncols, width))
    return Matrix.build(ring, rows)


def format_matrix(m):
    R = m.ring
    return ";".join(",".join(R.format(e) for e in row) for row in m.entries)


def random_matrix(ring, nrows, ncols, rng):
    return Matrix(ring, nrows, ncols,
                  tuple(tuple(ring.sample(rng) for _ in range(ncols))
                        for _ in range(nrows)))


def all_matrices(ring, nrows, ncols):
    """All matrices over a finite field, in sorted scan order."""
    els = tuple(ring.elements())
    if len(els) ** (nrows * ncols) > 1_000_000:
        raise ValueError("matrix space too large to enumerate")
    for combo in product(els, repeat=nrows * ncols):
        yield Matrix(ring, nrows, ncols,
                     tuple(tuple(combo[i * ncols + j] for j in range(ncols))
                           for i in range(nrows)))
