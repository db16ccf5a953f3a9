"""Tests for exact matrices: arithmetic, row reduction, inverses, parsing."""

import dataclasses
from fractions import Fraction

import pytest

from torsorlab import matrices
from torsorlab.fields import (DualRing, FieldSyntaxError, GaussianRationals,
                              PrimeField, QuadraticExt, Rationals)
from torsorlab.matrices import (
    Matrix,
    ShapeError,
    SingularMatrixError,
    _eliminate,
    _eliminate_generic,
    _eliminate_mod_p,
    _eliminate_rat,
    _mul_dual,
    _mul_generic,
    _mul_mod_p,
    _mul_rat,
    all_matrices,
    det,
    eliminate_front,
    format_matrix,
    hstack,
    is_invertible,
    kernel_basis,
    mat_invert,
    parse_matrix,
    pivot_cols,
    random_matrix,
    rank,
    rref,
    vstack,
)
from torsorlab.rng import trial_rng


def rand(field, nrows, ncols, seed, index):
    return random_matrix(field, nrows, ncols, trial_rng(seed, index))


def mat(field, rows):
    return Matrix.build(field, [[field.from_int(x) for x in row] for row in rows])


def test_build_and_equality():
    f3 = PrimeField(3)
    m = mat(f3, [[1, 2], [0, 1]])
    assert m.nrows == 2 and m.ncols == 2
    assert m == mat(f3, [[4, 5], [3, 4]])
    assert m != mat(f3, [[1, 2], [1, 1]])


def test_ring_arithmetic_laws():
    f5 = PrimeField(5)
    for i in range(30):
        a = rand(f5, 3, 3, 1, 3 * i)
        b = rand(f5, 3, 3, 1, 3 * i + 1)
        c = rand(f5, 3, 3, 1, 3 * i + 2)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + Matrix.zeros(f5, 3, 3) == a
        assert a * Matrix.identity(f5, 3) == a
        assert a - a == Matrix.zeros(f5, 3, 3)
        assert (-a) + a == Matrix.zeros(f5, 3, 3)


def test_shape_mismatch_raises():
    f3 = PrimeField(3)
    a = mat(f3, [[1, 0], [0, 1]])
    b = mat(f3, [[1, 0, 0]])
    with pytest.raises(ShapeError):
        a + b
    with pytest.raises(ShapeError):
        b * a


def test_transpose_and_conj():
    f9 = QuadraticExt(3)
    for i in range(20):
        a = rand(f9, 2, 3, 7, 2 * i)
        b = rand(f9, 3, 2, 7, 2 * i + 1)
        assert a.transpose().transpose() == a
        assert (a * b).transpose() == b.transpose() * a.transpose()
        assert a.conj().conj() == a
        assert (a * b).conj_t() == b.conj_t() * a.conj_t()


def test_conj_is_self_when_the_involution_is_the_identity():
    for field in (PrimeField(3), Rationals()):
        m = rand(field, 2, 3, 7, 50)
        assert m.conj() is m
        assert m.conj_t() == m.transpose()


def test_conj_conjugates_over_the_quadratic_extension():
    f9 = QuadraticExt(3)
    m = rand(f9, 3, 3, 7, 51)
    c = m.conj()
    assert c.entries == tuple(tuple(f9.conj(a) for a in row)
                              for row in m.entries)
    assert c != m


def test_conj_over_a_dual_ring_still_fails():
    dual = DualRing(PrimeField(3))
    with pytest.raises(AttributeError):
        Matrix.identity(dual, 2).conj()


def test_matrix_hash_is_the_dataclass_hash_computed_once():
    f5 = PrimeField(5)
    m = rand(f5, 2, 3, 7, 52)
    twin = Matrix(f5, 3, m.entries)
    assert m._hash is None
    assert hash(m) == hash((m.ring, m.ncols, m.entries))
    assert m._hash == hash(m)
    assert twin._hash is None and m == twin and hash(twin) == hash(m)
    assert "_hash" not in repr(m)
    assert not next(f for f in dataclasses.fields(Matrix)
                    if f.name == "_hash").compare


def test_matrix_is_frozen_and_slotted():
    m = Matrix.identity(PrimeField(2), 2)
    for name in ("ring", "ncols", "entries", "_hash"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(m, name, None)
    # nrows is derived, and an attribute outside the slots has nowhere to go
    for name in ("nrows", "other"):
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            setattr(m, name, None)
    assert not hasattr(m, "__dict__")


def test_ragged_or_short_entries_raise():
    f3 = PrimeField(3)
    for ncols, entries in ((2, ((0, 1), (1,))),
                           (2, ((0, 1, 2),))):
        with pytest.raises(ShapeError):
            Matrix(f3, ncols, entries)


def product_shapes():
    """Seeded (rows, inner, cols) shapes, 0-row and 0-column ones included."""
    for nrows in range(4):
        for inner in range(4):
            for ncols in range(4):
                yield nrows, inner, ncols


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_prime_field_product_matches_the_generic_loop(p):
    field = PrimeField(p)
    for i, (nrows, inner, ncols) in enumerate(product_shapes()):
        a = rand(field, nrows, inner, 67, 2 * i)
        b = rand(field, inner, ncols, 67, 2 * i + 1)
        cols = list(zip(*b.entries)) if b.entries else [()] * ncols
        got = _mul_mod_p(p, a.entries, cols)
        assert got == _mul_generic(field, a.entries, cols)
        product = a * b
        assert (product.nrows, product.ncols) == (nrows, ncols)
        assert product.entries == got


def big_rational(rng):
    """A rational with a numerator and a denominator of up to 40 bits."""
    return Fraction(rng.below(1 << 41) - (1 << 40), rng.below(1 << 40) + 1)


def rat_factors(nrows, inner, ncols, seed, index):
    """Seeded Q factors: small entries, or large ones for odd indices."""
    q = Rationals()
    if index % 2 == 0:
        return (rand(q, nrows, inner, seed, 2 * index),
                rand(q, inner, ncols, seed, 2 * index + 1))
    rng = trial_rng(seed, 2 * index)
    return tuple(Matrix.from_rows(q, [[big_rational(rng) for _ in range(c)]
                                      for _ in range(r)], c)
                 for r, c in ((nrows, inner), (inner, ncols)))


def test_rational_product_matches_the_generic_loop():
    q = Rationals()
    for i, (nrows, inner, ncols) in enumerate(product_shapes()):
        for j in range(2):
            a, b = rat_factors(nrows, inner, ncols, 71, 2 * i + j)
            cols = list(zip(*b.entries)) if b.entries else [()] * ncols
            got = _mul_rat(a.entries, cols)
            assert got == _mul_generic(q, a.entries, cols)
            assert all(type(e) is Fraction for row in got for e in row)
            product = a * b
            assert (product.nrows, product.ncols) == (nrows, ncols)
            assert product.entries == got


def test_transpose_empty_shapes():
    f2 = PrimeField(2)
    z = Matrix.zeros(f2, 0, 3)
    t = z.transpose()
    assert t.nrows == 3 and t.ncols == 0
    assert t.transpose() == z


def test_scale():
    f5 = PrimeField(5)
    a = mat(f5, [[1, 2], [3, 4]])
    two = f5.from_int(2)
    assert a.scale(two) == a + a


def test_rref_idempotent_and_stable_under_row_ops():
    """rref gives a canonical form: invertible left factors do not change it."""
    f3 = PrimeField(3)
    for i in range(60):
        m = rand(f3, 3, 4, 13, i)
        red, r = rref(m)
        red2, r2 = rref(red)
        assert red == red2 and r == r2
        t = _random_invertible(f3, 3, 13, i)
        redt, rt = rref(t * m)
        assert redt == red and rt == r


def _random_invertible(field, n, seed, index):
    for k in range(50):
        t = random_matrix(field, n, n, trial_rng(seed + 1000 * (k + 1), index))
        if is_invertible(t):
            return t
    raise AssertionError("no invertible matrix found")


def test_rank_nullity():
    for field in (PrimeField(2), PrimeField(5), Rationals()):
        for i in range(40):
            m = rand(field, 3, 4, 17, i)
            ker = kernel_basis(m)
            assert ker.ncols == 4
            assert rank(m) + ker.nrows == 4
            zero = Matrix.zeros(field, ker.nrows, 3)
            assert ker * m.transpose() == zero


def test_kernel_rows_independent():
    f3 = PrimeField(3)
    for i in range(30):
        m = rand(f3, 2, 4, 23, i)
        ker = kernel_basis(m)
        assert rank(ker) == ker.nrows


def test_pivot_cols_strictly_increasing():
    f2 = PrimeField(2)
    for i in range(40):
        m = rand(f2, 3, 5, 29, i)
        red, r = rref(m)
        cols = pivot_cols(red)
        assert len(cols) == r
        assert list(cols) == sorted(set(cols))


def test_mat_invert_roundtrip():
    for field in (PrimeField(3), PrimeField(5), Rationals(), QuadraticExt(3)):
        eye = Matrix.identity(field, 3)
        for i in range(25):
            t = _random_invertible(field, 3, 31, i)
            assert t * mat_invert(t) == eye
            assert mat_invert(t) * t == eye


def test_mat_invert_rejects_singular():
    f3 = PrimeField(3)
    m = mat(f3, [[1, 2], [2, 4]])
    assert not is_invertible(m)
    with pytest.raises(ArithmeticError):
        mat_invert(m)


@pytest.mark.parametrize("ring", [
    PrimeField(2), PrimeField(5), Rationals(), DualRing(PrimeField(3)),
    DualRing(DualRing(PrimeField(3)))], ids=["f2", "f5", "rat", "dual",
                                              "bidual"])
def test_is_invertible_agrees_with_mat_invert(ring):
    """Random square and non-square matrices, and square products through
    a narrower middle, which are singular: is_invertible is True exactly
    when mat_invert returns."""
    seen = set()
    for i in range(60):
        rng = trial_rng(43, i)
        p, q = rng.below(4), rng.below(4)
        for m in (random_matrix(ring, p, q, rng),
                  random_matrix(ring, p + 1, p + 1, rng),
                  random_matrix(ring, p + 1, p, rng)
                  * random_matrix(ring, p, p + 1, rng)):
            try:
                mat_invert(m)
                inverts = True
            except (SingularMatrixError, ShapeError):
                inverts = False
            assert is_invertible(m) == inverts, m
            seen.add((m.nrows == m.ncols, inverts))
    assert seen == {(True, True), (True, False), (False, False)}


def test_mat_invert_over_dual_rings():
    """Inversion only needs unit pivots, so it works with nilpotent entries."""
    base = PrimeField(5)
    for ring in (DualRing(base), DualRing(DualRing(base))):
        eye = Matrix.identity(ring, 2)
        found = 0
        for i in range(200):
            m = random_matrix(ring, 2, 2, trial_rng(37, i))
            if not is_invertible(m):
                continue
            found += 1
            assert m * mat_invert(m) == eye
            assert mat_invert(m) * m == eye
            if found >= 20:
                break
        assert found >= 20


def fp_row_inputs(p):
    """(rows, ncols) over F_p: no rows, wide, tall, square, low rank,
    duplicated rows and the [m | I] blocks that mat_invert reduces."""
    field = PrimeField(p)
    shapes = ((0, 3), (1, 1), (1, 6), (2, 7), (3, 12), (4, 4), (6, 6),
              (7, 2), (12, 3), (10, 12), (12, 24))
    for i, (r, c) in enumerate(shapes):
        yield Matrix.zeros(field, r, c).entries, c
        for j in range(6):
            rng = trial_rng(5000 + p, 16 * i + j)
            m = random_matrix(field, r, c, rng)
            yield m.entries, c
            if r == c:
                eye = Matrix.identity(field, r).entries
                yield tuple(a + b for a, b in zip(m.entries, eye)), 2 * c
            if r and c:
                k = rng.below(min(r, c)) + 1
                low = (random_matrix(field, r, k, rng)
                       * random_matrix(field, k, c, rng))
                yield low.entries, c
                yield m.entries + m.entries[:rng.below(r) + 1], c


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_mod_p_kernel_matches_generic_kernel(p):
    """Same pivots and the same full row state, zero and unused rows too."""
    field = PrimeField(p)
    seen = 0
    for rows, ncols in fp_row_inputs(p):
        fast = [list(r) for r in rows]
        slow = [list(r) for r in rows]
        assert (_eliminate_mod_p(p, fast, ncols)
                == _eliminate_generic(field, slow, ncols))
        assert fast == slow
        seen += 1
    assert seen == 215


def rat_row_inputs():
    """(rows, ncols) over Q: the F_p shapes, negative entries, rows with
    40-bit numerators and denominators, and the same stacks again."""
    q = Rationals()
    shapes = ((0, 3), (1, 1), (1, 6), (2, 7), (3, 12), (4, 4), (6, 6),
              (7, 2), (12, 3), (10, 12))
    for i, (r, c) in enumerate(shapes):
        yield Matrix.zeros(q, r, c).entries, c
        for j in range(6):
            rng = trial_rng(7000, 16 * i + j)
            if j % 2:
                m = Matrix.from_rows(q, [[big_rational(rng) for _ in range(c)]
                                         for _ in range(r)], c)
            else:
                m = random_matrix(q, r, c, rng)
            yield m.entries, c
            if r == c:
                eye = Matrix.identity(q, r).entries
                yield tuple(a + b for a, b in zip(m.entries, eye)), 2 * c
            if r and c:
                k = rng.below(min(r, c)) + 1
                low = (random_matrix(q, r, k, rng)
                       * Matrix.from_rows(q, [[big_rational(rng)
                                               for _ in range(c)]
                                              for _ in range(k)], c))
                yield low.entries, c
                yield m.entries + m.entries[:rng.below(r) + 1], c


def test_rat_kernel_matches_generic_kernel():
    """Same pivots and the same full row state, zero and unused rows too,
    on all columns and on the first k only (the `eliminate_front` case)."""
    q = Rationals()
    seen = negative = big = 0
    for rows, ncols in rat_row_inputs():
        entries = [e for row in rows for e in row]
        negative += any(e < 0 for e in entries)
        big += any(e.denominator >> 32 for e in entries)
        for k in sorted({0, ncols // 2, ncols}):
            fast = [list(r) for r in rows]
            slow = [list(r) for r in rows]
            assert _eliminate_rat(fast, k) == _eliminate_generic(q, slow, k)
            assert fast == slow
            assert all(type(e) is Fraction for row in fast for e in row)
            seen += 1
    assert seen == 569 and negative > 100 and big > 100


def test_mat_invert_over_f5_round_trip_and_singular():
    f5 = PrimeField(5)
    eye = Matrix.identity(f5, 4)
    inverted = singular = 0
    for i in range(60):
        m = rand(f5, 4, 4, 41, i)
        if rank(m) == 4:
            assert m * mat_invert(m) == eye == mat_invert(m) * m
            inverted += 1
        else:
            with pytest.raises(SingularMatrixError):
                mat_invert(m)
            singular += 1
    assert inverted and singular


COUNTED = ("add", "sub", "neg", "mul", "inv", "is_zero", "is_unit")


def count_scalar_calls(monkeypatch, ring):
    """Wrap the scalar methods of the ring's class; returns the call log.

    Rings are frozen, so the wrappers go on the class, and only calls on
    this very instance are logged.
    """
    calls = []
    for name in COUNTED:
        def counted(self, *args, _name=name,
                    _method=getattr(type(ring), name)):
            if self is ring:
                calls.append(_name)
            return _method(self, *args)
        monkeypatch.setattr(type(ring), name, counted)
    return calls


def test_prime_field_elimination_makes_no_scalar_calls(monkeypatch):
    f5 = PrimeField(5)
    m = rand(f5, 6, 10, 43, 0)
    low = rand(f5, 6, 3, 43, 1) * rand(f5, 3, 10, 43, 2)
    square = _random_invertible(f5, 5, 43, 3)
    r = rank(low)
    calls = count_scalar_calls(monkeypatch, f5)
    m * m.transpose()
    low.transpose() * Matrix.zeros(f5, 6, 0)
    rref(m)
    mat_invert(square)
    eliminate_front(f5, [list(row) for row in low.entries], 4, 10)
    assert calls == []
    kernel_basis(low)
    # after the elimination: each kernel vector takes -row[j] on the pivots
    assert calls == ["neg"] * (r * (10 - r))


def eliminate_front_by_definition(field, rows, k, ncols):
    """Full rref, the rows that vanish on the first k columns, their tails."""
    red, _ = rref(Matrix.from_rows(field, rows, ncols))
    tails = [row[k:] for row in red.entries
             if all(field.is_zero(e) for e in row[:k])]
    return Matrix.from_rows(field, tails, ncols - k)


def front_inputs(field):
    """Seeded stacks: zero-row, random, rank one, duplicated, zero fronts."""
    for nrows in range(6):
        for ncols in range(5):
            seed = 10 * nrows + ncols
            m = rand(field, nrows, ncols, 53, seed)
            yield m.entries, ncols
            one = (rand(field, nrows, 1, 59, seed)
                   * rand(field, 1, ncols, 61, seed))
            yield one.entries + m.entries[:1], ncols
            yield m.entries + m.entries, ncols
            half = ncols // 2
            front = Matrix.zeros(field, nrows, half)
            yield (hstack(front, m.take_cols(half, ncols)).entries
                   + m.entries[:2]), ncols


@pytest.mark.parametrize("field", (PrimeField(2), PrimeField(5), Rationals(),
                                   QuadraticExt(3)),
                         ids=("f2", "f5", "rat", "f9"))
def test_eliminate_front_matches_its_definition(field):
    seen = 0
    for rows, ncols in front_inputs(field):
        for k in range(ncols + 1):
            got = eliminate_front(field, [list(r) for r in rows], k, ncols)
            assert got == eliminate_front_by_definition(field, rows, k, ncols)
            seen += 1
    assert seen == 4 * 6 * (1 + 2 + 3 + 4 + 5)


def test_other_rings_keep_the_generic_kernel(monkeypatch):
    f9 = QuadraticExt(3)
    calls = count_scalar_calls(monkeypatch, f9)
    rref(rand(f9, 3, 5, 47, 0))
    assert {"mul", "sub", "is_unit"} <= set(calls)
    dual = DualRing(PrimeField(3))
    m = Matrix.identity(dual, 2).scale(dual.from_int(2))
    calls = count_scalar_calls(monkeypatch, dual)
    assert is_invertible(m)
    assert {"mul", "inv", "is_unit"} <= set(calls)
    calls.clear()
    mat_invert(m)
    assert calls == []


def test_det_multiplicative():
    f5 = PrimeField(5)
    for i in range(40):
        a = rand(f5, 3, 3, 41, 2 * i)
        b = rand(f5, 3, 3, 41, 2 * i + 1)
        assert det(a * b) == f5.mul(det(a), det(b))
    assert det(Matrix.identity(f5, 3)) == f5.one


def test_det_detects_singularity():
    f3 = PrimeField(3)
    for i in range(60):
        m = rand(f3, 2, 2, 43, i)
        assert is_invertible(m) == (not f3.is_zero(det(m)))


def test_parse_format_roundtrip():
    for field in (PrimeField(5), Rationals(), QuadraticExt(5)):
        for i in range(25):
            m = rand(field, 2, 3, 47, i)
            assert parse_matrix(format_matrix(m), field) == m


def test_parse_matrix_shapes():
    f3 = PrimeField(3)
    m = parse_matrix("1,2;0,1", f3)
    assert m == mat(f3, [[1, 2], [0, 1]])
    z = parse_matrix("0", f3, ncols=3)
    assert z.nrows == 0 and z.ncols == 3
    e = parse_matrix("", f3, ncols=2)
    assert e.nrows == 0 and e.ncols == 2


def test_parse_matrix_rejects_ragged():
    f3 = PrimeField(3)
    with pytest.raises(FieldSyntaxError):
        parse_matrix("1,2;1", f3)


def test_hstack_vstack():
    f2 = PrimeField(2)
    a = mat(f2, [[1, 0], [0, 1]])
    b = mat(f2, [[1, 1], [0, 0]])
    h = hstack(a, b)
    v = vstack(a, b)
    assert h.nrows == 2 and h.ncols == 4
    assert v.nrows == 4 and v.ncols == 2
    assert h == parse_matrix("1,0,1,1;0,1,0,0", f2)
    assert v == parse_matrix("1,0;0,1;1,1;0,0", f2)


def test_all_matrices_counts_and_order():
    f2 = PrimeField(2)
    mats = list(all_matrices(f2, 2, 2))
    assert len(mats) == 16
    assert len(set(mats)) == 16
    f3 = PrimeField(3)
    assert len(list(all_matrices(f3, 1, 2))) == 9
    first = list(all_matrices(f3, 1, 1))
    again = list(all_matrices(f3, 1, 1))
    assert first == again


def test_all_matrices_refuses_huge_scans():
    f5 = PrimeField(5)
    with pytest.raises(ValueError):
        list(all_matrices(f5, 3, 4))


def test_random_matrix_deterministic():
    f5 = PrimeField(5)
    a = [rand(f5, 2, 2, 99, i) for i in range(10)]
    b = [rand(f5, 2, 2, 99, i) for i in range(10)]
    assert a == b


def log_kernels(monkeypatch):
    """Record which elimination and product kernels run, by name."""
    ran = []
    for name in ("_eliminate_generic", "_eliminate_mod_p", "_eliminate_rat",
                 "_mul_dual", "_mul_generic", "_mul_mod_p", "_mul_rat"):
        def logged(*args, _name=name, _kernel=getattr(matrices, name)):
            ran.append(_name)
            return _kernel(*args)
        monkeypatch.setattr(matrices, name, logged)
    return ran


@pytest.mark.parametrize("ring, kernels", (
    (Rationals(), ["_eliminate_rat", "_mul_rat"]),
    (GaussianRationals(), ["_eliminate_generic", "_mul_generic"]),
    (DualRing(Rationals()),
     ["_eliminate_generic", "_mul_dual", "_mul_rat", "_mul_rat"]),
    (DualRing(PrimeField(3)),
     ["_eliminate_generic", "_mul_dual", "_mul_mod_p", "_mul_mod_p"]),
    (DualRing(DualRing(Rationals())),
     ["_eliminate_generic", "_mul_dual", "_mul_dual", "_mul_rat", "_mul_rat",
      "_mul_dual", "_mul_rat", "_mul_rat"]),
    (QuadraticExt(3), ["_eliminate_generic", "_mul_generic"]),
    (PrimeField(3), ["_eliminate_mod_p", "_mul_mod_p"]),
), ids=("rat", "gauss", "dual-rat", "dual-f3", "bidual-rat", "f9", "f3"))
def test_kernel_dispatch_by_ring(monkeypatch, ring, kernels):
    m = Matrix.identity(ring, 2)
    ran = log_kernels(monkeypatch)
    _eliminate(ring, [list(row) for row in m.entries], 2)
    m * m
    assert ran == kernels


def test_rational_kernels_make_no_scalar_calls(monkeypatch):
    q = Rationals()
    m = rand(q, 5, 9, 73, 0)
    square = _random_invertible(q, 4, 73, 1)
    calls = count_scalar_calls(monkeypatch, q)
    m * m.transpose()
    rref(m)
    mat_invert(square)
    eliminate_front(q, [list(row) for row in m.entries], 3, 9)
    assert calls == []


PAIR_RINGS = (DualRing(PrimeField(2)), DualRing(PrimeField(3)),
              DualRing(Rationals()), DualRing(QuadraticExt(3)),
              DualRing(DualRing(Rationals())),
              DualRing(DualRing(PrimeField(3))))
PAIR_IDS = ("dual-f2", "dual-f3", "dual-rat", "dual-f9", "bidual-rat",
            "bidual-f3")


def base_field(ring):
    while isinstance(ring, DualRing):
        ring = ring.base
    return ring


def leaves(e):
    """The base-field scalars of a (nested) dual-number pair."""
    if not isinstance(e, tuple):
        return [e]
    return [x for part in e for x in leaves(part)]


@pytest.mark.parametrize("ring", PAIR_RINGS, ids=PAIR_IDS)
def test_dual_product_matches_the_scalar_route(ring):
    shapes = ((0, 2, 3), (2, 0, 3), (3, 2, 0), (1, 1, 1), (2, 3, 1),
              (1, 3, 2), (3, 3, 3))
    for i, (p, k, q) in enumerate(shapes * 4):
        x = rand(ring, p, k, 79, 2 * i)
        y = rand(ring, k, q, 79, 2 * i + 1)
        cols = list(zip(*y.entries)) if y.entries else [()] * q
        got = _mul_dual(ring.base, x.entries, cols)
        assert got == _mul_generic(ring, x.entries, cols)
        assert (x * y).entries == got
        if base_field(ring) == Rationals():
            assert all(type(v) is Fraction
                       for row in got for e in row for v in leaves(e))


def invert_by_elimination(m):
    """The inverse read off [m | I] by the unit-pivot generic kernel."""
    n = m.nrows
    rows = [list(a + b) for a, b in
            zip(m.entries, Matrix.identity(m.ring, n).entries)]
    if _eliminate_generic(m.ring, rows, 2 * n)[:n] != list(range(n)):
        return None
    return Matrix(m.ring, n, tuple(tuple(row[n:]) for row in rows[:n]))


@pytest.mark.parametrize("ring", PAIR_RINGS, ids=PAIR_IDS)
def test_dual_inverse_matches_the_scalar_route(ring):
    inverted = singular = 0
    for n in range(4):
        for i in range(15):
            m = rand(ring, n, n, 83, 10 * i + n)
            expect = invert_by_elimination(m)
            if expect is None:
                singular += 1
                with pytest.raises(SingularMatrixError):
                    mat_invert(m)
            else:
                inverted += 1
                assert mat_invert(m) == expect
    assert inverted and (singular or base_field(ring) == Rationals())


@pytest.mark.parametrize("ring", PAIR_RINGS, ids=PAIR_IDS)
def test_dual_inverse_refuses_a_singular_base_part(ring):
    """Base part [[1, 1], [1, 1]] plus eps times a random matrix."""
    one = ring.one
    nil = rand(ring, 2, 2, 89, 0)
    m = Matrix.build(ring, [[one, one], [one, one]]) + Matrix.build(
        ring, [[ring.eps_times(e[0]) for e in row] for row in nil.entries])
    assert not is_invertible(m)
    with pytest.raises(SingularMatrixError):
        mat_invert(m)
