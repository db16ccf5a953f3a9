"""Linear relations: subspaces of W + W viewed as multivalued maps.

A relation F <= K^n + K^n is stored by its underlying subspace with the block
convention (input | output).  Composition, pointwise application and
pointwise difference ask which vectors admit witnesses: each stacks its
witness rows and makes one block elimination through
`matrices.eliminate_front`.  Only the span of the rows matters, so a row
negated as a whole is the same witness.  Inversion, 1 +/- F and the adjoint
with respect to a form are exact too, so every identity about them is
decidable on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .matrices import ShapeError, eliminate_front
from .subspaces import (Subspace, _check_same_space, hyperbolic_form,
                        orthocomplement, random_subspace, span_rows,
                        subspace_to_json)


@dataclass(frozen=True)
class LinearRelation:
    inner: Subspace  # subspace of K^n + K^n

    def __post_init__(self):
        if self.inner.ambient % 2:
            raise ShapeError("a relation needs an even ambient, not %d"
                             % self.inner.ambient)

    @property
    def half(self):
        return self.inner.ambient // 2

    @property
    def field(self):
        return self.inner.field


def gen_projection(x, a):
    """P with image x and kernel a: {(z, w) : w in x, w - z in a}.

    x and a need not be complementary; the result is a relation in general and
    an idempotent operator exactly when they are.  Rows: x (u | u), a (w | 0).
    """
    _check_same_space(x, a)
    n = x.ambient
    field = x.field
    rows = [u + u for u in x.basis.entries]
    zero = (field.zero,) * n
    rows += [w + zero for w in a.basis.entries]
    return LinearRelation(span_rows(field, 2 * n, rows))


def inverse_rel(f):
    n = f.half
    rows = [row[n:] + row[:n] for row in f.inner.basis.entries]
    return LinearRelation(span_rows(f.field, 2 * n, rows))


def compose(g, f):
    """g after f: f rows (v | u | 0), g rows (-v' | 0 | w); eliminate v."""
    _check_same_space(f.inner, g.inner)
    n = f.half
    field = f.field
    zero = (field.zero,) * n
    rows = [row[n:] + row[:n] + zero for row in f.inner.basis.entries]
    rows += [tuple(map(field.neg, row[:n])) + zero + row[n:]
             for row in g.inner.basis.entries]
    return LinearRelation(Subspace(eliminate_front(field, rows, n, 3 * n)))


def apply_rel(f, z):
    """Pointwise image f(z): f rows (u | w), z rows (zeta | 0); eliminate u."""
    if z.ambient != f.half or z.field != f.field:
        raise ShapeError("%r is not in the domain space of %r" % (z, f))
    n = f.half
    zero = (f.field.zero,) * n
    rows = list(f.inner.basis.entries)
    rows += [v + zero for v in z.basis.entries]
    return Subspace(eliminate_front(f.field, rows, n, 2 * n))


def difference(f, g):
    """Pointwise f - g: f rows (u | u | a), g rows (u | 0 | b); eliminate u."""
    _check_same_space(f.inner, g.inner)
    n = f.half
    field = f.field
    zero = (field.zero,) * n
    rows = [row[:n] + row for row in f.inner.basis.entries]
    rows += [row[:n] + zero + row[n:] for row in g.inner.basis.entries]
    return LinearRelation(Subspace(eliminate_front(field, rows, n, 3 * n)))


def _shear(f, op):
    """1 + F or 1 - F: pushforward of F by (v, w) -> (v, op(v, w)) with op
    the ring's add or sub, applied entrywise."""
    n = f.half
    rows = [row[:n] + tuple(map(op, row[:n], row[n:]))
            for row in f.inner.basis.entries]
    return LinearRelation(span_rows(f.field, 2 * n, rows))


def one_plus(f):
    return _shear(f, f.field.add)


def one_minus(f):
    return _shear(f, f.field.sub)


@lru_cache(maxsize=None)
def _pairing_form(form):
    """Omega((u,v),(u',v')) = beta(u, v') - beta(v, u') on K^{2n}."""
    return hyperbolic_form(form.gram, -1)


def adjoint(f, form):
    """F* = {(v', w') : beta(v', w) = beta(w', v) for all (v, w) in F};
    reads only form.gram and form.ambient, so form may be an Involution."""
    if form.ambient != f.half:
        raise ShapeError("form on K^%d for a relation on K^%d"
                         % (form.ambient, f.half))
    omega = _pairing_form(form)
    return LinearRelation(orthocomplement(f.inner, omega))


def relation_to_json(f):
    obj = subspace_to_json(f.inner)
    obj["half"] = f.half
    return obj


def random_relation(field, half, rng):
    return LinearRelation(random_subspace(field, 2 * half, rng))
