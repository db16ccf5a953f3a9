"""Dense exact matrices with Gaussian elimination.

Works over the fields of `fields` and over the local dual rings K[eps] and
K[e1][e2] (a `DualRing` of a `DualRing`); pivot selection asks the ring for a
*unit*, which over a field means any nonzero entry and over a local ring
means an invertible constant part.  Reduced row echelon form (and everything
built on it) is only offered over fields, where it is canonical.

Every row reduction goes through `_eliminate`, except the loop of `det`,
which keeps its own row swaps to track the sign.  `_eliminate` has three
kernels:

* `_eliminate_mod_p` for a `PrimeField` (F2, F3, F5, ...): entries stay ints
  in [0, p) and each row update is one list comprehension with an inline
  ``% p``, with no ring-method call per entry;
* `_eliminate_rat` for `Rationals`: row r is held as integer numerators over
  one positive denominator d_r, with the gcd of d_r and the numerators 1, so
  each row update is one comprehension of integer products (fraction-free
  elimination after Bareiss, Math. Comp. 22, 1968, with one exact
  denominator per row in place of a common one); the rows are written back
  as Fractions at the end;
* `_eliminate_generic` for every other ring (Q(i), F_{p^2}, and the dual
  rings, `DualRing(PrimeField(p))` and `DualRing(Rationals)` included):
  scalar arithmetic through the ring's methods, pivoting on units.

All three make the same row swaps and row operations, so they leave the same
rows for the same input, and `rref`, `eliminate_front`, `kernel_basis`,
`mat_invert` and `is_invertible` do not care which one ran.  Matrix products
go through one dispatch, `_product`: over a `PrimeField` each entry is one
int dot product reduced ``% p`` once, and over `Rationals` each row of the
left factor and each column of the right one is scaled to integers by the
lcm of its denominators, so each entry is one int dot product over one
denominator.

A matrix over a dual ring R[eps] is a pair A + eps B of matrices over R, so
the dual rings leave the scalar route for products and inverses.
`_mul_dual` takes (A + eps B)(C + eps D) as AC + eps [A | B][D ; C], two
products over R through `_product`, and K[e1][e2] recurses into K[e1].
`mat_invert` over R[eps] is A^-1 - eps A^-1 B A^-1, with A^-1 from
`mat_invert` over R; a matrix is invertible over the local ring exactly
when its constant part A is, so a singular A raises `SingularMatrixError`
as a missing unit pivot would.  `is_invertible` stays on unit-pivot
elimination: the `nilpotent-entries` laws compare it with the invertibility
of the constant part, and that comparison would hold by construction if
both went through A.

Vector arithmetic outside `fields` and this module goes through `Matrix`, as
1 x n matrices, so shapes are checked instead of cut short by `zip`; only the
brute-force reference `gamma.gamma_oracle_enum` adds scalar tuples itself.

A `Matrix` is a frozen, slotted value: its ring, its column count and its
entries.  `nrows` is `len(entries)`; `ncols` is stored, since a 0 x n matrix
has no row to measure.  Its hash is computed once, on first use, and kept in
the `_hash` slot; it equals the hash a frozen dataclass would generate, so
set and dict orders do not depend on the cache.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul as _int_mul

from .fields import DualRing, FieldSyntaxError, PrimeField, Rationals


class SingularMatrixError(ArithmeticError):
    pass


class ShapeError(ValueError):
    """Operands whose shapes, ambients or rings do not fit together."""


@dataclass(frozen=True, slots=True)
class Matrix:
    ring: object
    ncols: int
    entries: tuple  # row-major tuple of row tuples; nrows is its length
    _hash: int = dataclasses.field(default=None, init=False, repr=False,
                                   compare=False)

    def __post_init__(self):
        if not set(map(len, self.entries)) <= {self.ncols}:
            raise ShapeError("rows of entries are not %d wide" % self.ncols)

    @property
    def nrows(self):
        return len(self.entries)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ring, self.ncols, self.entries))
            object.__setattr__(self, "_hash", h)
        return h

    # -- construction ------------------------------------------------------

    @staticmethod
    def build(ring, rows):
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return Matrix(ring, ncols, tuple(rows))

    @staticmethod
    def from_rows(ring, rows, ncols):
        """Like build(), but keeps ncols explicit so zero-row matrices work."""
        rows = tuple(tuple(r) for r in rows)
        return Matrix(ring, ncols, rows)

    @staticmethod
    def identity(ring, n):
        z, o = ring.zero, ring.one
        return Matrix(ring, n,
                      tuple(tuple(o if i == j else z for j in range(n))
                            for i in range(n)))

    @staticmethod
    def zeros(ring, nrows, ncols):
        z = ring.zero
        return Matrix(ring, ncols, ((z,) * ncols,) * nrows)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._match(other)
        R = self.ring
        return Matrix(R, self.ncols,
                      tuple(tuple(R.add(a, b) for a, b in zip(ra, rb))
                            for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other):
        self._match(other)
        R = self.ring
        return Matrix(R, self.ncols,
                      tuple(tuple(R.sub(a, b) for a, b in zip(ra, rb))
                            for ra, rb in zip(self.entries, other.entries)))

    def __neg__(self):
        R = self.ring
        return Matrix(R, self.ncols,
                      tuple(tuple(R.neg(a) for a in row) for row in self.entries))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ring != other.ring or self.ncols != other.nrows:
            raise ShapeError("cannot multiply %dx%d by %dx%d"
                             % (self.nrows, self.ncols, other.nrows,
                                other.ncols))
        cols = list(zip(*other.entries)) if other.entries else [()] * other.ncols
        return Matrix(self.ring, other.ncols,
                      _product(self.ring, self.entries, cols))

    def scale(self, s):
        R = self.ring
        return Matrix(R, self.ncols,
                      tuple(tuple(R.mul(s, a) for a in row) for row in self.entries))

    def transpose(self):
        if not self.entries:
            return Matrix(self.ring, 0, ((),) * self.ncols)
        return Matrix(self.ring, self.nrows, tuple(zip(*self.entries)))

    def conj(self):
        R = self.ring
        if getattr(R, "involution", None) == "identity":
            return self
        return Matrix(R, self.ncols,
                      tuple(tuple(R.conj(a) for a in row) for row in self.entries))

    def conj_t(self):
        return self.conj().transpose()

    # -- pieces ------------------------------------------------------------

    def take_cols(self, j0, j1):
        return Matrix(self.ring, j1 - j0,
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


def _product(ring, rows, cols):
    """Entries of the product of `rows` with the matrix whose columns are
    `cols`, by the kernel for the ring."""
    if type(ring) is PrimeField:
        return _mul_mod_p(ring.p, rows, cols)
    if type(ring) is Rationals:
        return _mul_rat(rows, cols)
    if type(ring) is DualRing:
        return _mul_dual(ring.base, rows, cols)
    return _mul_generic(ring, rows, cols)


def _mul_mod_p(p, rows, cols):
    """Product entries over F_p: one int dot product, reduced once."""
    return tuple([tuple([sum(map(_int_mul, row, col)) % p for col in cols])
                  for row in rows])


_QZERO = Fraction(0)


def _over_lcm(vec):
    """(numerators, d): vec == [n / d for n in numerators], d the lcm of
    the denominators, so the gcd of d and the numerators is 1."""
    pairs = [e.as_integer_ratio() for e in vec]
    d = lcm(*[q for _, q in pairs])
    return [n * (d // q) for n, q in pairs], d


def _mul_rat(rows, cols):
    """Product entries over Q: one int dot product over da * db each."""
    icols = [_over_lcm(col) for col in cols]
    out = []
    for row in rows:
        ia, da = _over_lcm(row)
        dots = [(sum(map(_int_mul, ia, ib)), da * db) for ib, db in icols]
        out.append(tuple(Fraction(n, d) if n else _QZERO for n, d in dots))
    return tuple(out)


def _mul_dual(base, rows, cols):
    """Product entries over base[eps], as pairs of base-ring products:
    (A + eps B)(C + eps D) = AC + eps [A | B][D ; C]."""
    a, ab = [], []
    for row in rows:
        x, y = zip(*row) if row else ((), ())
        a.append(x)
        ab.append(x + y)
    c, dc = [], []
    for col in cols:
        x, y = zip(*col) if col else ((), ())
        c.append(x)
        dc.append(y + x)
    return tuple(map(tuple, map(zip, _product(base, a, c),
                                _product(base, ab, dc))))


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
    return Matrix(first.ring, sum(m.ncols for m in mats), rows)


def vstack(*mats):
    first = mats[0]
    if any(m.ncols != first.ncols or m.ring != first.ring for m in mats):
        raise ShapeError("vstack needs equal column counts and one ring")
    rows = sum((m.entries for m in mats), ())
    return Matrix(first.ring, first.ncols, rows)


def _eliminate(ring, rows, ncols):
    """In-place reduced echelon pass; pivots only on unit entries.

    Returns the list of pivot columns.  Over a field this is full RREF; over
    a local ring rows without unit entries are left untouched at the bottom.
    """
    if type(ring) is PrimeField:
        return _eliminate_mod_p(ring.p, rows, ncols)
    if type(ring) is Rationals:
        return _eliminate_rat(rows, ncols)
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


def _eliminate_rat(rows, ncols):
    """`_eliminate` over Q, on integer numerators over one denominator a row.

    Row r is ints[r] / dens[r].  A new pivot row keeps its numerators, cut
    by their gcd and signed so that its pivot numerator f is positive, and
    f becomes its denominator: that is the row scaled to a leading 1.
    Another row e / d with g at the pivot column becomes
    (f*e - g*h) / (d*f), the generic update e/d - (g/d)(h/f) on numerators,
    cut by the gcd of its numerators and denominator.
    """
    ints, dens = [], []
    for row in rows:
        nums, d = _over_lcm(row)
        ints.append(nums)
        dens.append(d)
    pivots = []
    pr = 0
    nrows = len(rows)
    for c in range(ncols):
        pv = None
        for r in range(pr, nrows):
            if ints[r][c]:
                pv = r
                break
        if pv is None:
            continue
        ints[pr], ints[pv] = ints[pv], ints[pr]
        dens[pr], dens[pv] = dens[pv], dens[pr]
        head = ints[pr]
        f = head[c]
        k = gcd(*head)
        if f < 0:
            k = -k
        if k != 1:
            head = [h // k for h in head]
            ints[pr] = head
            f //= k
        dens[pr] = f
        for r in range(nrows):
            if r == pr:
                continue
            row = ints[r]
            g = row[c]
            if g:
                new = [f * e - g * h for e, h in zip(row, head)]
                d = dens[r] * f
                k = gcd(d, *new)
                if k != 1:
                    new = [e // k for e in new]
                    d //= k
                ints[r] = new
                dens[r] = d
        pivots.append(c)
        pr += 1
        if pr == nrows:
            break
    for r, d in enumerate(dens):
        rows[r] = [Fraction(e, d) if e else _QZERO for e in ints[r]]
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
    rows = list(m.entries)
    pivots = _eliminate(m.ring, rows, m.ncols)
    r = len(pivots)
    return Matrix(m.ring, m.ncols, tuple(tuple(row) for row in rows[:r])), r


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
    rows = list(m.entries)
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
    if type(m.ring) is DualRing:
        return _invert_dual(m)
    n = m.nrows
    ident = Matrix.identity(m.ring, n)
    rows = [a + b for a, b in zip(m.entries, ident.entries)]
    pivots = _eliminate(m.ring, rows, 2 * n)
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is not invertible")
    return Matrix(m.ring, n, tuple(tuple(row[n:]) for row in rows[:n]))


def _invert_dual(m):
    """(A + eps B)^-1 = A^-1 - eps A^-1 B A^-1, with A^-1 over the base."""
    base, n = m.ring.base, m.nrows
    a, b = [], []
    for row in m.entries:
        x, y = zip(*row)
        a.append(x)
        b.append(y)
    ai = mat_invert(Matrix(base, n, tuple(a))).entries
    bai = _product(base, b, list(zip(*ai)))
    neg = base.neg
    return Matrix(m.ring, n,
                  tuple(tuple(zip(r0, map(neg, r1))) for r0, r1
                        in zip(ai, _product(base, ai, list(zip(*bai))))))


def is_invertible(m):
    """Whether `mat_invert` would succeed: a unit pivot in every column."""
    if m.nrows != m.ncols:
        return False
    return _eliminate(m.ring, list(m.entries), m.ncols) == list(range(m.ncols))


def det(m):
    """Determinant over a field, by elimination with row swaps."""
    R = m.ring
    if not R.is_field:
        raise TypeError("det by elimination over fields only")
    _check_square(m)
    n = m.nrows
    rows = list(m.entries)
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
    return Matrix(ring, ncols,
                  tuple(tuple(ring.sample(rng) for _ in range(ncols))
                        for _ in range(nrows)))


def random_invertible(ring, n, rng):
    """An n x n `random_matrix`, redrawn until it is invertible."""
    while True:
        t = random_matrix(ring, n, n, rng)
        if is_invertible(t):
            return t


# How many matrices `all_matrices`, or subspaces `enumerate_subspaces`, may list.
ENUMERATION_LIMIT = 1_000_000


def all_matrices(ring, nrows, ncols):
    """All matrices over a finite field, in sorted scan order."""
    els = tuple(ring.elements())
    if len(els) ** (nrows * ncols) > ENUMERATION_LIMIT:
        raise FieldSyntaxError("matrix space too large to enumerate")
    for combo in product(els, repeat=nrows * ncols):
        yield Matrix(ring, ncols,
                     tuple(tuple(combo[i * ncols + j] for j in range(ncols))
                           for i in range(nrows)))
