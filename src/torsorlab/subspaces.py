"""Subspaces of K^n with lattice operations, charts, and orthogonality.

A subspace is stored as its reduced-row-echelon basis with zero rows dropped,
which is a canonical form: two subspaces are equal iff their representations
are equal, and every Subspace is hashable.  The lattice operations (meet,
join), the affine charts against a fixed complement, orthocomplements for a
sesquilinear form, and a deterministic enumeration of all subspaces over a
finite field live here.

A Subspace is a frozen, slotted value whose hash is computed once, on first
use, and kept in its `_hash` slot.  The value is the one a frozen dataclass
would generate, so set and dict orders do not depend on the cache.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
from dataclasses import dataclass

from .fields import FieldSyntaxError
from .matrices import (Matrix, ShapeError, SingularMatrixError,
                       eliminate_front, format_matrix, hstack, kernel_basis,
                       mat_invert, pivot_cols, rref, vec_mul, vstack)

DEFAULT_MAX_AMBIENT = 6


def max_ambient():
    raw = os.environ.get("TORSORLAB_MAX_AMBIENT", DEFAULT_MAX_AMBIENT)
    try:
        return int(raw)
    except ValueError:
        raise FieldSyntaxError("TORSORLAB_MAX_AMBIENT must be an integer,"
                               " got %r" % raw) from None


class TransversalityError(ValueError):
    """A construction needed complementary subspaces and did not get them."""


@dataclass(frozen=True, slots=True)
class Subspace:
    basis: Matrix  # RREF, zero rows dropped; its columns are the ambient
    _hash: int = dataclasses.field(default=None, init=False, repr=False,
                                   compare=False)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.basis,))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def ambient(self):
        return self.basis.ncols

    @property
    def dim(self):
        return self.basis.nrows

    @property
    def field(self):
        return self.basis.ring

    def __repr__(self):
        return "Subspace(%d, %r)" % (self.ambient, format_matrix(self.basis))


def span(rows_matrix):
    """Subspace spanned by the rows of a matrix (need not be independent)."""
    return Subspace(rref(rows_matrix)[0])


def span_rows(field, ambient, rows):
    return span(Matrix.from_rows(field, rows, ambient))


def zero_subspace(field, ambient):
    return Subspace(Matrix.from_rows(field, (), ambient))


def full_subspace(field, ambient):
    return Subspace(Matrix.identity(field, ambient))


def coord_subspace(field, ambient, indices):
    """Span of the given standard basis vectors."""
    rows = []
    for i in sorted(indices):
        v = [field.zero] * ambient
        v[i] = field.one
        rows.append(tuple(v))
    return Subspace(Matrix.from_rows(field, rows, ambient))


def contains_vector(sub, v):
    """Membership test by reduction against the RREF basis."""
    R = sub.field
    v = list(v)
    for row, lead in zip(sub.basis.entries, pivot_cols(sub.basis)):
        c = v[lead]
        if not R.is_zero(c):
            v = [R.sub(a, R.mul(c, b)) for a, b in zip(v, row)]
    return all(R.is_zero(a) for a in v)


def contains(big, small):
    return all(contains_vector(big, row) for row in small.basis.entries)


def meet(x, y):
    """Intersection, by Zassenhaus: x rows (u | u), y rows (w | 0)."""
    _check_pair(x, y)
    n = x.ambient
    zero = (x.field.zero,) * n
    rows = [u + u for u in x.basis.entries]
    rows += [w + zero for w in y.basis.entries]
    return Subspace(eliminate_front(x.field, rows, n, 2 * n))


def join(x, y):
    _check_pair(x, y)
    return span(vstack(x.basis, y.basis))


def is_transversal(x, y):
    """x and y are complementary: dims add up to the ambient and meet is 0."""
    _check_pair(x, y)
    return x.dim + y.dim == x.ambient and meet(x, y).dim == 0


def complement(x):
    """Canonical complement: standard basis vectors at the non-pivot columns."""
    pivots = set(pivot_cols(x.basis))
    return coord_subspace(x.field, x.ambient,
                          [j for j in range(x.ambient) if j not in pivots])


def graph_of(mat):
    """Graph {(v, Xv)} of the q x p matrix X, inside K^p + K^q."""
    return Subspace(hstack(Matrix.identity(mat.ring, mat.ncols),
                           mat.transpose()))


def chart_of(x, p=None):
    """Matrix X with x = graph_of(X); x must be transversal to 0 + K^q."""
    if p is None:
        p = x.dim
    if x.dim != p:
        raise TransversalityError("dim %d subspace cannot chart to %d inputs"
                                  % (x.dim, p))
    if pivot_cols(x.basis) != list(range(p)):
        raise TransversalityError("subspace is not transversal to the chart origin")
    return x.basis.take_cols(p, x.ambient).transpose()


def graph_minus(mat):
    """The other chart: {(Xw, w)} for an n x m matrix X, inside K^n + K^m."""
    return span(hstack(mat.transpose(), Matrix.identity(mat.ring, mat.ncols)))


def chart_minus(x, first=None):
    """Matrix X with x = graph_minus(X); x must be transversal to K^n + 0."""
    if first is None:
        first = x.ambient - x.dim
    m = x.dim
    sub = x.basis.take_cols(first, x.ambient)
    try:
        inv = mat_invert(sub)
    except SingularMatrixError:
        raise TransversalityError("subspace is not transversal to the co-chart origin")
    return (inv * x.basis).take_cols(0, first).transpose()


def image_under(g, x):
    """Span of {g v : v in x}; g need not be invertible."""
    if g.ncols != x.ambient:
        raise ShapeError("%d-column operator on K^%d" % (g.ncols, x.ambient))
    return span(x.basis * g.transpose())


def pushforward(g, x):
    """Image of x under an invertible operator g."""
    try:
        mat_invert(g)
    except SingularMatrixError:
        raise SingularMatrixError("pushforward needs an invertible operator")
    return image_under(g, x)


@dataclass(frozen=True)
class Form:
    """Nondegenerate (skew-)hermitian form  beta(u, v) = conj(u)^T gram v.

    The first argument is the conjugated one.  Over fields whose involution is
    the identity, hermitian/skew mean symmetric/antisymmetric.
    """

    gram: Matrix
    kind: str  # "hermitian" | "skew"

    def __post_init__(self):
        if self.kind not in ("hermitian", "skew"):
            raise ValueError("kind must be hermitian or skew")

    @property
    def field(self):
        return self.gram.ring

    @property
    def ambient(self):
        return self.gram.nrows

    def evaluate(self, u, v):
        R = self.field
        return _dot(R, vec_mul(tuple(R.conj(a) for a in u), self.gram), v)


def _dot(R, u, v):
    acc = R.zero
    for a, b in zip(u, v):
        acc = R.add(acc, R.mul(a, b))
    return acc


def make_form(gram, kind):
    """Validated form constructor: (skew-)hermitian and nondegenerate."""
    ct = gram.conj_t()
    if kind == "hermitian":
        if ct != gram:
            raise ValueError("gram matrix is not hermitian")
    elif kind == "skew":
        if ct != -gram:
            raise ValueError("gram matrix is not skew")
    else:
        raise ValueError("kind must be hermitian or skew")
    try:
        mat_invert(gram)
    except SingularMatrixError:
        raise SingularMatrixError("degenerate gram matrix") from None
    return Form(gram, kind)


def symplectic_form(field, n):
    """[[0, I], [-I, 0]] on K^{2n}."""
    i = Matrix.identity(field, n)
    z = Matrix.zeros(field, n, n)
    return make_form(vstack(hstack(z, i), hstack(-i, z)), "skew")


def split_form(field, n):
    """[[0, I], [I, 0]] on K^{2n}."""
    i = Matrix.identity(field, n)
    z = Matrix.zeros(field, n, n)
    return make_form(vstack(hstack(z, i), hstack(i, z)), "hermitian")


def diag_form(field, n):
    """diag(I, -I) on K^{2n}."""
    i = Matrix.identity(field, n)
    z = Matrix.zeros(field, n, n)
    return make_form(vstack(hstack(i, z), hstack(z, -i)), "hermitian")


def standard_forms(field, n):
    return {"symplectic": symplectic_form(field, n),
            "split": split_form(field, n),
            "diag": diag_form(field, n)}


def orthocomplement(x, form):
    """x^perp = {v : beta(u, v) = 0 for all u in x}."""
    if x.ambient != form.ambient:
        raise ShapeError("subspace of K^%d against a form on K^%d"
                         % (x.ambient, form.ambient))
    constraints = x.basis.conj() * form.gram
    return Subspace(kernel_basis(constraints))


def is_isotropic(x, form):
    g = x.basis.conj() * form.gram * x.basis.transpose()
    return g.is_zero()


def vectors(sub):
    """All vectors of a subspace over a finite field (deterministic order)."""
    R = sub.field
    if R.size is None:
        raise FieldSyntaxError("vector enumeration needs a finite field")
    elems = tuple(R.elements())
    rows = sub.basis.entries
    for coeffs in itertools.product(elems, repeat=sub.dim):
        v = (R.zero,) * sub.ambient
        for c, row in zip(coeffs, rows):
            if not R.is_zero(c):
                v = tuple(R.add(a, R.mul(c, b)) for a, b in zip(v, row))
        yield v


def enumerate_subspaces(field, ambient, dim=None):
    """Every subspace exactly once: dimension ascending, then entry-lex order.

    Bases are generated per pivot-column pattern (free entries right of each
    pivot and off the pivot columns), then sorted by the encoded RREF rows.
    """
    if field.size is None:
        raise FieldSyntaxError("subspace enumeration needs a finite field")
    bound = max_ambient()
    if ambient > bound:
        raise FieldSyntaxError(
            "ambient %d exceeds TORSORLAB_MAX_AMBIENT=%d" % (ambient, bound))
    dims = range(ambient + 1) if dim is None else (dim,)
    elems = tuple(field.elements())
    for k in dims:
        if k < 0 or k > ambient:
            continue
        batch = []
        for pivots in itertools.combinations(range(ambient), k):
            pivot_set = set(pivots)
            free = [(i, j) for i in range(k)
                    for j in range(pivots[i] + 1, ambient)
                    if j not in pivot_set]
            template = [[field.zero] * ambient for _ in range(k)]
            for i, pc in enumerate(pivots):
                template[i][pc] = field.one
            for values in itertools.product(elems, repeat=len(free)):
                rows = [list(r) for r in template]
                for (i, j), val in zip(free, values):
                    rows[i][j] = val
                batch.append(Matrix.from_rows(field, [tuple(r) for r in rows],
                                              ambient))
        batch.sort(key=lambda m: tuple(field.sort_key(e)
                                       for row in m.entries for e in row))
        for m in batch:
            yield Subspace(m)


def all_subspaces(field, ambient, dim=None):
    return tuple(enumerate_subspaces(field, ambient, dim))


def gaussian_binomial(n, k, q):
    """Number of k-dim subspaces of F_q^n (independent counting oracle)."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def sort_key(sub):
    """Deterministic total order on subspaces of one ambient space."""
    R = sub.field
    return (sub.dim,
            tuple(R.sort_key(e) for row in sub.basis.entries for e in row))


def random_subspace(field, ambient, rng):
    k = rng.below(ambient + 1)
    rows = [tuple(field.sample(rng) for _ in range(ambient)) for _ in range(k)]
    return span_rows(field, ambient, rows)


def subspace_to_json(sub):
    R = sub.field
    return {"ambient": sub.ambient,
            "field": R.spec(),
            "basis": [[R.format(e) for e in row] for row in sub.basis.entries]}


def subspace_from_json(obj):
    from .fields import field_from_spec
    field = field_from_spec(obj["field"])
    ambient = int(obj["ambient"])
    rows = [tuple(field.parse(e) for e in row) for row in obj["basis"]]
    return span_rows(field, ambient, rows)


def _check_pair(x, y):
    if x.ambient != y.ambient or x.field != y.field:
        raise ShapeError("%r and %r are not in one space" % (x, y))
