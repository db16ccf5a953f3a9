"""Exact scalar arithmetic.

Four base fields (rationals, gaussian rationals, prime fields, quadratic
extensions of prime fields) plus the nilpotent dual ring extension K[eps],
which, applied twice, differentiates group words.

Scalar values are plain hashable Python data in normal form, so `==` on values
is equality of scalars:

* rationals            Fraction
* gaussian rationals   (Fraction, Fraction)      re + im*i
* prime field F_p      int in [0, p)
* quadratic ext F_p2   (int, int)                a + b*t with t*t = d
* dual ring            (x, y)                    x + eps*y, eps*eps = 0
* dual of a dual ring  ((x, y), (z, w))          x + e1*y + e2*z + e1*e2*w,
                                                 e1 the inner, e2 the outer eps

All operations live on ring objects; the element values carry no behaviour.
A ring object is a frozen dataclass of its defining parameters, so rings
compare, hash and print by those parameters.  The two fields with a
conjugation always carry it; the others carry the identity.  A finite field
lists its elements in one fixed order, and `enumerate_subspaces` and
`all_matrices` follow that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
import re


class FieldSyntaxError(ValueError):
    """A malformed literal, an unknown field spec or an enumeration refused."""


class Ring:
    """Common interface: commutative ring with exact, normal-form elements."""

    is_field = False

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_unit(self, a):
        raise NotImplementedError

    def from_int(self, k):
        raise NotImplementedError

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)


class FieldBase(Ring):
    is_field = True
    involution = "identity"
    char = 0
    size = None  # None = infinite

    def is_unit(self, a):
        return not self.is_zero(a)

    def conj(self, a):
        return a

    def elements(self):
        """Every element of a finite field, once each, in the order that
        `enumerate_subspaces` and `all_matrices` follow."""
        raise FieldSyntaxError("field %s is not finite" % self.spec())

    def spec(self):
        raise NotImplementedError


_RAT = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def _parse_rational(text):
    m = _RAT.match(text.strip())
    if not m:
        raise FieldSyntaxError("bad rational literal %r" % text)
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise FieldSyntaxError("zero denominator in %r" % text)
    return Fraction(num, den)


def _split_terms(text):
    # "1/2-3i" -> ["1/2", "-3i"]; keeps leading sign attached
    text = text.strip().replace(" ", "")
    if not text:
        raise FieldSyntaxError("empty scalar literal")
    terms, cur = [], ""
    for ch in text:
        if ch in "+-" and cur and cur[-1] not in "+-/":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    return terms


def _parse_pair(text, symbol):
    """Parse 'a+b<symbol>' into rational (a, b)."""
    re_part = Fraction(0)
    im_part = Fraction(0)
    seen_re = seen_im = False
    for term in _split_terms(text):
        if term.endswith(symbol):
            if seen_im:
                raise FieldSyntaxError("repeated %s-term in %r" % (symbol, text))
            coeff = term[: -len(symbol)]
            if coeff in ("", "+"):
                coeff = "1"
            elif coeff == "-":
                coeff = "-1"
            im_part = _parse_rational(coeff)
            seen_im = True
        else:
            if seen_re:
                raise FieldSyntaxError("repeated constant term in %r" % text)
            re_part = _parse_rational(term)
            seen_re = True
    return re_part, im_part


@dataclass(frozen=True)
class Rationals(FieldBase):
    def spec(self):
        return "rat"

    def from_int(self, k):
        return Fraction(k)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def is_zero(self, a):
        return a == 0

    def parse(self, text):
        return _parse_rational(text)

    def format(self, a):
        return str(a)

    def sample(self, rng):
        return Fraction(rng.below(19) - 9, rng.below(6) + 1)


@dataclass(frozen=True)
class GaussianRationals(FieldBase):
    """Q(i); elements are (re, im) pairs of Fractions."""

    involution = "conjugation"

    def spec(self):
        return "gauss"

    def from_int(self, k):
        return (Fraction(k), Fraction(0))

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def neg(self, a):
        return (-a[0], -a[1])

    def mul(self, a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def inv(self, a):
        n = a[0] * a[0] + a[1] * a[1]
        if n == 0:
            raise ZeroDivisionError("inverse of 0")
        return (a[0] / n, -a[1] / n)

    def is_zero(self, a):
        return a[0] == 0 and a[1] == 0

    def conj(self, a):
        return (a[0], -a[1])

    def parse(self, text):
        return _parse_pair(text, "i")

    def format(self, a):
        re_part, im_part = a
        if im_part == 0:
            return str(re_part)
        im_str = "i" if abs(im_part) == 1 else str(abs(im_part)) + "i"
        im_str = ("-" if im_part < 0 else "+") + im_str
        if re_part == 0:
            return im_str.lstrip("+")
        return str(re_part) + im_str

    def sample(self, rng):
        return (Fraction(rng.below(9) - 4, rng.below(3) + 1),
                Fraction(rng.below(9) - 4, rng.below(3) + 1))


def _is_prime(n):
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def _rational_mod(q, p):
    """The Fraction q as a residue mod the prime p."""
    if q.denominator % p == 0:
        raise FieldSyntaxError("denominator not invertible mod %d" % p)
    return q.numerator * pow(q.denominator, p - 2, p) % p


@dataclass(frozen=True)
class PrimeField(FieldBase):
    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise FieldSyntaxError("%d is not prime" % self.p)

    @property
    def char(self):
        return self.p

    @property
    def size(self):
        return self.p

    def spec(self):
        return "fp:%d" % self.p

    def from_int(self, k):
        return k % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 mod %d" % self.p)
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a == 0

    def elements(self):
        return range(self.p)

    def parse(self, text):
        return _rational_mod(_parse_rational(text), self.p)

    def format(self, a):
        return str(a)

    def square_class(self, a):
        # 0, 1 (nonzero square) or the least non-square
        if a == 0:
            return 0
        if self.p == 2:
            return 1
        if pow(a, (self.p - 1) // 2, self.p) == 1:
            return 1
        return least_nonsquare(self.p)

    def sample(self, rng):
        return rng.below(self.p)


def least_nonsquare(p):
    squares = {(x * x) % p for x in range(1, p)}
    for d in range(2, p):
        if d not in squares:
            return d
    raise FieldSyntaxError("no non-square mod %d" % p)


@dataclass(frozen=True)
class QuadraticExt(FieldBase):
    """F_{p^2} = F_p[t]/(t^2 - d), d the least positive non-square mod p."""

    p: int
    involution = "conjugation"
    d: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _is_prime(self.p):
            raise FieldSyntaxError("%d is not prime" % self.p)
        if self.p == 2:
            raise FieldSyntaxError("no non-square mod 2; fp2 needs an odd prime")
        object.__setattr__(self, "d", least_nonsquare(self.p))

    @property
    def char(self):
        return self.p

    @property
    def size(self):
        return self.p * self.p

    def spec(self):
        return "fp2:%d" % self.p

    def from_int(self, k):
        return (k % self.p, 0)

    def add(self, a, b):
        return ((a[0] + b[0]) % self.p, (a[1] + b[1]) % self.p)

    def neg(self, a):
        return ((-a[0]) % self.p, (-a[1]) % self.p)

    def mul(self, a, b):
        return ((a[0] * b[0] + self.d * a[1] * b[1]) % self.p,
                (a[0] * b[1] + a[1] * b[0]) % self.p)

    def inv(self, a):
        # (a + bt)^-1 = (a - bt)/(a^2 - d b^2); norm is 0 only at 0
        n = (a[0] * a[0] - self.d * a[1] * a[1]) % self.p
        if n == 0:
            raise ZeroDivisionError("inverse of 0")
        ninv = pow(n, self.p - 2, self.p)
        return ((a[0] * ninv) % self.p, (-a[1] * ninv) % self.p)

    def is_zero(self, a):
        return a == (0, 0)

    def conj(self, a):
        return (a[0], (-a[1]) % self.p)

    def elements(self):
        return ((x, y) for y in range(self.p) for x in range(self.p))

    def parse(self, text):
        re_part, t_part = _parse_pair(text, "t")
        return (_rational_mod(re_part, self.p), _rational_mod(t_part, self.p))

    def format(self, a):
        if a[1] == 0:
            return str(a[0])
        t_str = "t" if a[1] == 1 else "%dt" % a[1]
        if a[0] == 0:
            return t_str
        return "%s+%s" % (a[0], t_str)

    def sample(self, rng):
        return (rng.below(self.p), rng.below(self.p))


@dataclass(frozen=True)
class DualRing(Ring):
    """base[eps]/(eps^2); local ring, units = unit base part.

    Over any ring, so DualRing(DualRing(K)) is K[e1][e2] with two commuting
    square-zero generators: e1 = outer.embed(inner.eps_times(1)) and
    e2 = outer.eps_times(inner.embed(1)).
    """

    base: Ring

    def from_int(self, k):
        return (self.base.from_int(k), self.base.zero)

    def embed(self, a):
        return (a, self.base.zero)

    def eps_times(self, a):
        return (self.base.zero, a)

    def add(self, a, b):
        return (self.base.add(a[0], b[0]), self.base.add(a[1], b[1]))

    def sub(self, a, b):
        return (self.base.sub(a[0], b[0]), self.base.sub(a[1], b[1]))

    def neg(self, a):
        return (self.base.neg(a[0]), self.base.neg(a[1]))

    def mul(self, a, b):
        B = self.base
        return (B.mul(a[0], b[0]),
                B.add(B.mul(a[0], b[1]), B.mul(a[1], b[0])))

    def is_zero(self, a):
        return self.base.is_zero(a[0]) and self.base.is_zero(a[1])

    def is_unit(self, a):
        return self.base.is_unit(a[0])

    def inv(self, a):
        # (x + eps y)^-1 = x^-1 - eps x^-2 y
        B = self.base
        xi = B.inv(a[0])
        return (xi, B.neg(B.mul(B.mul(xi, xi), a[1])))

    def format(self, a):
        parts = (self.base.format(a[0]), self.base.format(a[1]))
        if isinstance(self.base, DualRing):
            parts = tuple("(%s)" % part for part in parts)
        return "%s+eps*%s" % parts

    def sample(self, rng):
        return (self.base.sample(rng), self.base.sample(rng))


_ALIAS = re.compile(r"^f(\d+)$")


def field_from_spec(spec):
    """Build a field from its spec string: rat | gauss | fp:<p> | fp2:<p>.

    Shorthand f<q> is accepted for finite fields (f5 -> fp:5, f9 -> fp2:3).
    """
    s = spec.strip().lower()
    if s == "rat":
        return Rationals()
    if s == "gauss":
        return GaussianRationals()
    if s.startswith("fp:"):
        return PrimeField(_parse_size(s[3:]))
    if s.startswith("fp2:"):
        return QuadraticExt(_parse_size(s[4:]))
    m = _ALIAS.match(s)
    if m:
        q = int(m.group(1))
        if _is_prime(q):
            return PrimeField(q)
        r = int(round(q ** 0.5))
        if r * r == q and _is_prime(r):
            return QuadraticExt(r)
        raise FieldSyntaxError("%r is not a prime or prime-square size" % spec)
    raise FieldSyntaxError("unknown field spec %r" % spec)


def _parse_size(text):
    try:
        return int(text)
    except ValueError:
        raise FieldSyntaxError("bad number %r in field spec" % text) from None
