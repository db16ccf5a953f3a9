"""The witness operations against their definitions as sets of vectors.

`meet`, `compose`, `apply_rel`, `difference` and `gamma_oracle` each answer
"which v admit witnesses?" by one block elimination.  Here the same answers
are built by brute force from the vectors of the operands, with no row
reduction on the checking side, and compared as sets.  The result's basis
must also be independent: q^dim vectors for the q-element field.  The rank
test of `contains` and the shears `one_plus` and `one_minus` are checked the
same way.
"""

import itertools

from torsorlab.fields import PrimeField
from torsorlab.gamma import gamma_global, gamma_oracle
from torsorlab.relations import (LinearRelation, apply_rel, compose,
                                 difference, one_minus, one_plus,
                                 random_relation)
from torsorlab.rng import trial_rng
from torsorlab.subspaces import (all_subspaces, contains, meet,
                                 random_subspace, vectors)

F2 = PrimeField(2)
F3 = PrimeField(3)


def _add(field, u, v):
    return tuple(field.add(a, b) for a, b in zip(u, v))


def _sub(field, u, v):
    return tuple(field.sub(a, b) for a, b in zip(u, v))


def _same(sub, expected):
    assert set(vectors(sub)) == expected
    assert sub.field.size ** sub.dim == len(expected)


def _pairs(rel):
    n = rel.half
    return [(v[:n], v[n:]) for v in vectors(rel.inner)]


def _meet_set(x, y):
    return set(vectors(x)) & set(vectors(y))


def _compose_set(g, f):
    gs = _pairs(g)
    return {u + w for u, v in _pairs(f) for v2, w in gs if v == v2}


def _apply_set(f, z):
    zs = set(vectors(z))
    return {w for u, w in _pairs(f) if u in zs}


def _difference_set(f, g):
    field = f.field
    gs = _pairs(g)
    return {u + _sub(field, a, b) for u, a in _pairs(f) for u2, b in gs
            if u == u2}


def _gamma_set(x, a, y, b, z):
    """w = zeta + alpha with alpha - xi in y and zeta + alpha - xi in b."""
    field = x.field
    ys, bs, xs = set(vectors(y)), set(vectors(b)), list(vectors(x))
    out = set()
    for zeta, alpha in itertools.product(vectors(z), vectors(a)):
        w = _add(field, zeta, alpha)
        if any(_sub(field, alpha, xi) in ys and _sub(field, w, xi) in bs
               for xi in xs):
            out.add(w)
    return out


def _shear_set(f, op):
    """(v, op(v, w)) for (v, w) in f, with op an entrywise vector map."""
    return {v + op(f.field, v, w) for v, w in _pairs(f)}


def _check_relation_pair(f, g):
    _same(compose(g, f).inner, _compose_set(g, f))
    _same(difference(f, g).inner, _difference_set(f, g))


def test_meet_and_gamma_exhaustive_f2():
    for n in (1, 2):
        subs = all_subspaces(F2, n)
        for x, y in itertools.product(subs, repeat=2):
            _same(meet(x, y), _meet_set(x, y))
        for t in itertools.product(subs, repeat=5):
            _same(gamma_oracle(*t), _gamma_set(*t))


def test_relation_operations_exhaustive_f2():
    for n in (1, 2):
        rels = [LinearRelation(s) for s in all_subspaces(F2, 2 * n)]
        for f, z in itertools.product(rels, all_subspaces(F2, n)):
            _same(apply_rel(f, z), _apply_set(f, z))
        if n == 1:
            for f, g in itertools.product(rels, repeat=2):
                _check_relation_pair(f, g)


def test_contains_exhaustive_f2():
    subs = all_subspaces(F2, 3)
    for x, y in itertools.product(subs, repeat=2):
        assert contains(x, y) == (set(vectors(y)) <= set(vectors(x)))


def test_one_plus_and_one_minus_exhaustive_f2():
    for n in (1, 2):
        for s in all_subspaces(F2, 2 * n):
            f = LinearRelation(s)
            _same(one_plus(f).inner, _shear_set(f, _add))
            _same(one_minus(f).inner, _shear_set(f, _sub))


def test_witness_operations_seeded_f3():
    for i in range(40):
        rng = trial_rng(17, i)
        f, g = (random_relation(F3, 2, rng) for _ in range(2))
        x, a, y, b, z = (random_subspace(F3, 2, rng) for _ in range(5))
        _check_relation_pair(f, g)
        _same(one_plus(f).inner, _shear_set(f, _add))
        _same(one_minus(f).inner, _shear_set(f, _sub))
        _same(apply_rel(f, z), _apply_set(f, z))
        _same(meet(x, y), _meet_set(x, y))
        _same(gamma_oracle(x, a, y, b, z), _gamma_set(x, a, y, b, z))


def test_each_witness_operation_is_one_elimination(monkeypatch):
    from torsorlab import matrices, subspaces
    calls = []
    real = matrices.rref

    def counting(m):
        calls.append(m.ncols)
        return real(m)

    for module in (matrices, subspaces):
        monkeypatch.setattr(module, "rref", counting)
    rng = trial_rng(23, 0)
    f, g = (random_relation(F3, 2, rng) for _ in range(2))
    x, a, y, b, z = (random_subspace(F3, 2, rng) for _ in range(5))
    operations = {"meet": lambda: meet(x, y),
                  "compose": lambda: compose(g, f),
                  "apply_rel": lambda: apply_rel(f, z),
                  "difference": lambda: difference(f, g),
                  "gamma_oracle": lambda: gamma_oracle(x, a, y, b, z)}
    for name, operation in operations.items():
        calls.clear()
        operation()
        assert len(calls) == 1, name
    gamma_global.cache_clear()
    for expected in (1, 0):
        calls.clear()
        gamma_global(x, a, y, b, z)
        assert len(calls) == expected
