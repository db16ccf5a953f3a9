"""Tests for exact scalar rings: axioms, conjugation, parsing, dual extensions."""

import dataclasses
import time
from fractions import Fraction

import pytest

from torsorlab.fields import (
    DualRing,
    FieldSyntaxError,
    GaussianRationals,
    PrimeField,
    QuadraticExt,
    Rationals,
    _is_prime,
    field_from_spec,
    least_nonsquare,
)
from torsorlab.rng import trial_rng


FIELDS = [
    Rationals(),
    GaussianRationals(),
    PrimeField(2),
    PrimeField(3),
    PrimeField(5),
    QuadraticExt(3),
    QuadraticExt(5),
]


def sample_pool(field, count, seed):
    rng = trial_rng(seed, 0)
    return [field.sample(rng) for _ in range(count)]


def test_field_axioms_exhaustive_small():
    """Every element of a small finite field obeys ring and field axioms."""
    for field in (PrimeField(2), PrimeField(3), QuadraticExt(3)):
        elems = list(field.elements())
        assert len(elems) == field.size
        for a in elems:
            assert field.add(a, field.zero) == a
            assert field.add(a, field.neg(a)) == field.zero
            assert field.mul(a, field.one) == a
            if not field.is_zero(a):
                assert field.mul(a, field.inv(a)) == field.one
        for a in elems:
            for b in elems:
                assert field.add(a, b) == field.add(b, a)
                assert field.mul(a, b) == field.mul(b, a)
                for c in elems:
                    assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
                    assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
                    lhs = field.mul(a, field.add(b, c))
                    rhs = field.add(field.mul(a, b), field.mul(a, c))
                    assert lhs == rhs


def test_field_axioms_sampled():
    for field in FIELDS:
        pool = sample_pool(field, 12, seed=3)
        for i, a in enumerate(pool):
            b = pool[(i + 1) % len(pool)]
            c = pool[(i + 2) % len(pool)]
            assert field.sub(a, a) == field.zero
            assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
            if field.is_unit(a):
                assert field.mul(field.inv(a), a) == field.one


@pytest.mark.parametrize("ring", (
    Rationals(), PrimeField(2), PrimeField(5), DualRing(Rationals()),
    DualRing(PrimeField(3)), DualRing(DualRing(PrimeField(5))),
), ids=("rat", "f2", "f5", "dual-rat", "dual-f3", "bidual-f5"))
def test_direct_sub_is_add_of_neg(ring):
    """The rings with their own `sub` agree with `Ring.sub` = add(a, -b)."""
    assert "sub" in vars(type(ring))
    pool = sample_pool(ring, 10, seed=11)
    for a in pool:
        for b in pool:
            assert ring.sub(a, b) == ring.add(a, ring.neg(b))


def test_characteristic_and_size():
    assert Rationals().char == 0
    assert Rationals().size is None
    assert GaussianRationals().size is None
    assert PrimeField(7).char == 7
    assert PrimeField(7).size == 7
    assert QuadraticExt(3).char == 3
    assert QuadraticExt(3).size == 9


def test_from_int_wraps_mod_p():
    f5 = PrimeField(5)
    assert f5.from_int(7) == f5.from_int(2)
    assert f5.from_int(-1) == f5.from_int(4)
    assert Rationals().from_int(-3) == Fraction(-3)


def test_conjugation_is_ring_involution():
    """conj is additive, multiplicative, and squares to the identity."""
    for field in FIELDS:
        pool = sample_pool(field, 10, seed=11)
        for i, a in enumerate(pool):
            b = pool[(i + 3) % len(pool)]
            assert field.conj(field.conj(a)) == a
            assert field.conj(field.add(a, b)) == field.add(field.conj(a), field.conj(b))
            assert field.conj(field.mul(a, b)) == field.mul(field.conj(a), field.conj(b))


def test_conjugation_fixed_subfield():
    f9 = QuadraticExt(3)
    fixed = [a for a in f9.elements() if f9.conj(a) == a]
    assert len(fixed) == 3
    gauss = GaussianRationals()
    i = (Fraction(0), Fraction(1))
    assert gauss.conj(i) == gauss.neg(i)
    assert gauss.mul(i, i) == gauss.neg(gauss.one)
    assert Rationals().involution == "identity"
    assert gauss.involution == "conjugation"
    assert QuadraticExt(3).involution == "conjugation"


def test_norm_of_conjugation_lands_in_fixed_field():
    f9 = QuadraticExt(3)
    for a in f9.elements():
        n = f9.mul(a, f9.conj(a))
        assert f9.conj(n) == n


def test_scalar_format_parse_roundtrip():
    for field in FIELDS:
        pool = sample_pool(field, 20, seed=5)
        for a in pool:
            text = field.format(a)
            assert field.parse(text) == a


def test_parse_rejects_garbage():
    for field in (Rationals(), PrimeField(5), GaussianRationals()):
        with pytest.raises(FieldSyntaxError):
            field.parse("not a scalar")


def test_elements_are_duplicate_free():
    """Positions in elements() order subspaces and matrices, so each element
    has exactly one."""
    for field in (PrimeField(2), PrimeField(5), QuadraticExt(3),
                  QuadraticExt(5)):
        elems = list(field.elements())
        assert len(set(elems)) == len(elems) == field.size


@pytest.mark.parametrize("field", [PrimeField(3), PrimeField(5)],
                         ids=lambda f: f.spec())
def test_square_class_is_idempotent_and_separates_squares(field):
    squares = {field.mul(a, a) for a in field.elements()}
    for a in field.elements():
        c = field.square_class(a)
        assert field.square_class(c) == c, (a, c)
        if not field.is_zero(a):
            assert (c == field.one) == (a in squares), (a, c)


def test_field_from_spec_aliases():
    assert field_from_spec("rat").spec() == "rat"
    assert field_from_spec("gauss").spec() == "gauss"
    assert field_from_spec("fp:3").size == 3
    assert field_from_spec("f2").size == 2
    assert field_from_spec("f5").size == 5
    assert field_from_spec("fp2:3").size == 9
    assert field_from_spec("f9").size == 9
    assert field_from_spec("f25").size == 25


def test_field_from_spec_rejects_bad_specs():
    for bad in ("fp:4", "fp:1", "f6", "fp2:2?", "", "elliptic", "fp:x"):
        with pytest.raises(FieldSyntaxError):
            field_from_spec(bad)


def trial_division(n):
    return n >= 2 and all(n % k for k in range(2, int(n ** 0.5) + 1))


def test_miller_rabin_agrees_with_trial_division():
    """The bases 2 ... 37 decide every n below 2**64; below 200,000 that is
    checked against trial division, and the least strong pseudoprime to
    the bases 2 ... 23 is refused."""
    assert all(_is_prime(n) == trial_division(n) for n in range(200_000))
    assert not _is_prime(3825123056546413051)
    assert _is_prime(2 ** 61 - 1) and not _is_prime(2 ** 61 + 1)


def test_least_nonsquare_is_the_least_non_square():
    """Euler's criterion gives the least d >= 2 outside the squares."""
    for p in filter(trial_division, range(3, 5_000)):
        squares = {x * x % p for x in range(1, p)}
        assert least_nonsquare(p) == min(set(range(2, p)) - squares), p
    with pytest.raises(FieldSyntaxError):
        least_nonsquare(2)


def test_large_primes_build_at_once():
    """A field of a 64-bit prime builds without listing residues; a prime
    square past float precision is read as one; 2**64 and above is refused."""
    start = time.perf_counter()
    assert field_from_spec("fp2:1000000007").d == 5
    assert field_from_spec("fp:%d" % (2 ** 61 - 1)).size == 2 ** 61 - 1
    assert field_from_spec("f%d" % (2 ** 61 - 1) ** 2) == QuadraticExt(
        2 ** 61 - 1)
    assert time.perf_counter() - start < 1
    for spec in ("fp:18446744073709551629", "fp2:18446744073709551629"):
        with pytest.raises(FieldSyntaxError, match="below 2"):
            field_from_spec(spec)


def test_spec_roundtrip():
    for field in FIELDS:
        assert field_from_spec(field.spec()).spec() == field.spec()


def test_dual_ring_nilpotent():
    """The added generator squares to zero and units are exactly lifts of units."""
    for base in (PrimeField(3), Rationals()):
        ring = DualRing(base)
        eps = ring.eps_times(base.one)
        assert ring.mul(eps, eps) == ring.zero
        pool = sample_pool(ring, 15, seed=7)
        for a in pool:
            if ring.is_unit(a):
                assert ring.mul(a, ring.inv(a)) == ring.one
                assert ring.mul(ring.inv(a), a) == ring.one
            else:
                with pytest.raises(ZeroDivisionError):
                    ring.inv(a)


def test_dual_ring_unit_criterion():
    base = PrimeField(5)
    ring = DualRing(base)
    for x in base.elements():
        for y in base.elements():
            a = (x, y)
            assert ring.is_unit(a) == base.is_unit(x)


def test_dual_ring_embed_and_eps_times():
    base = PrimeField(3)
    ring = DualRing(base)
    two = base.from_int(2)
    assert ring.embed(two) == (two, base.zero)
    assert ring.eps_times(two) == (base.zero, two)
    eps = ring.eps_times(base.one)
    assert ring.mul(ring.embed(two), eps) == ring.eps_times(two)


def test_bidual_two_nilpotents_commute():
    base = PrimeField(5)
    inner = DualRing(base)
    ring = DualRing(inner)
    e1 = ring.embed(inner.eps_times(base.one))
    e2 = ring.eps_times(inner.embed(base.one))
    assert ring.mul(e1, e1) == ring.zero
    assert ring.mul(e2, e2) == ring.zero
    assert ring.mul(e1, e2) == ring.mul(e2, e1)
    top = ring.mul(e1, e2)
    assert not ring.is_zero(top)
    assert ring.mul(top, e1) == ring.zero
    assert ring.mul(top, e2) == ring.zero


def test_bidual_inverse_roundtrip():
    base = PrimeField(7)
    ring = DualRing(DualRing(base))
    pool = sample_pool(ring, 40, seed=9)
    seen_unit = False
    for a in pool:
        if not ring.is_unit(a):
            continue
        seen_unit = True
        assert ring.mul(a, ring.inv(a)) == ring.one
        assert ring.inv(ring.inv(a)) == a
    assert seen_unit


def test_bidual_component_products():
    base = PrimeField(3)
    inner = DualRing(base)
    ring = DualRing(inner)
    x = base.from_int(2)
    y = base.from_int(1)
    a = ring.embed(inner.eps_times(x))
    b = ring.eps_times(inner.embed(y))
    prod = ring.mul(a, b)
    assert prod[0][0] == base.zero
    assert prod[0][1] == base.zero
    assert prod[1][0] == base.zero
    assert prod[1][1] == base.mul(x, y)
    assert ring.format(prod) == "(0+eps*0)+eps*(0+eps*2)"


def test_ring_identity_is_its_parameters():
    """Rings compare and hash by their defining parameters only."""
    f3 = PrimeField(3)
    equal = [(PrimeField(3), f3), (Rationals(), Rationals()),
             (GaussianRationals(), GaussianRationals()),
             (QuadraticExt(5), QuadraticExt(5)),
             (DualRing(f3), DualRing(PrimeField(3))),
             (DualRing(DualRing(f3)), DualRing(DualRing(PrimeField(3))))]
    for a, b in equal:
        assert a == b and hash(a) == hash(b)
    unequal = [(PrimeField(3), QuadraticExt(3)),
               (Rationals(), GaussianRationals()),
               (DualRing(f3), DualRing(DualRing(f3))),
               (DualRing(f3), f3), (PrimeField(3), PrimeField(5))]
    for a, b in unequal:
        assert a != b and b != a
    assert QuadraticExt(3).d == 2 and QuadraticExt(7).d == 3
    assert (PrimeField(7).char, PrimeField(7).size) == (7, 7)
    assert (QuadraticExt(5).char, QuadraticExt(5).size) == (5, 25)
    for bad in (lambda: PrimeField(4), lambda: PrimeField(1),
                lambda: QuadraticExt(9)):
        with pytest.raises(FieldSyntaxError):
            bad()
    # the conjugation is fixed by the field, not chosen at construction
    assert dataclasses.fields(GaussianRationals) == ()
    assert [f.name for f in dataclasses.fields(QuadraticExt) if f.init] == ["p"]


def test_quadratic_ext_rejects_char_two():
    with pytest.raises(FieldSyntaxError):
        QuadraticExt(2)


def test_sample_is_deterministic():
    field = PrimeField(5)
    a = [field.sample(trial_rng(42, i)) for i in range(25)]
    b = [field.sample(trial_rng(42, i)) for i in range(25)]
    c = [field.sample(trial_rng(43, i)) for i in range(25)]
    assert a == b
    assert a != c
