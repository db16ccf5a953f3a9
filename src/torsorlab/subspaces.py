"""Subspaces of K^n with lattice operations, charts, and orthogonality.

A subspace is stored as its reduced-row-echelon basis with zero rows
dropped, a canonical form.  The lattice operations (meet, join), the affine
charts against a fixed complement, orthocomplements for a sesquilinear
form, and a deterministic enumeration of all subspaces over a finite field
live here.  Before it builds anything, the enumeration asks for
`field.elements()`, which refuses an infinite field, and counts the
subspaces asked for by Gaussian binomials; it refuses a request for more
than `matrices.ENUMERATION_LIMIT` (10^6) of them with `FieldSyntaxError`,
so all of F2^8 or F3^6 passes and F5^6 does not.  A check run enumerates
each layer a law uses once: `all_subspaces` and `middle_layer` (dimension
ambient/2) are tuples in the run's table (`rng.run_shared`).

Equal subspaces are one object: `Subspace(basis)` returns the live object
for its basis if there is one, from a table that holds its subspaces
weakly, so a subspace nothing else holds leaves the table.  Equality is
therefore identity and the hash is the object's own, both computed in C,
which is what every memo keyed by subspaces looks up.  A Subspace refuses
every write, and copying or unpickling one returns the live object.  Its
hash is an address, so the iteration order of a set of subspaces, or of a
dict keyed by them unless built in a fixed order, differs between
processes, and no output may depend on it: the library uses such sets only
for `==` and `in`, and iterates such dicts in insertion order.

A Form is its gram: building one refuses a gram that is not square, is
singular, or is neither hermitian nor skew, and its kind is read off it.  The split and
symplectic forms and the pairing of `relations.adjoint` are one
construction, the hyperbolic form [[0, B], [sign B, 0]].
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

from .fields import FieldSyntaxError
from .matrices import (ENUMERATION_LIMIT, Matrix, ShapeError,
                       SingularMatrixError, eliminate_front, format_matrix,
                       hstack, kernel_basis, mat_invert, pivot_cols,
                       random_matrix, rank, rref, vstack)
from .rng import run_shared, shared_draw


class TransversalityError(ValueError):
    """A construction needed complementary subspaces and did not get them."""


# The live Subspace of each basis; an entry goes when its subspace does.
_INTERNED = weakref.WeakValueDictionary()


class Subspace:
    """The row space of `basis`: RREF, zero rows dropped, and its columns
    are the ambient.  There is one live object per basis, so equality is
    identity and the hash is the object's."""

    __slots__ = ("basis", "__weakref__")

    def __new__(cls, basis):
        live = _INTERNED.get(basis)
        if live is None:
            live = object.__new__(cls)
            object.__setattr__(live, "basis", basis)
            _INTERNED[basis] = live
        return live

    def __setattr__(self, name, value):
        raise AttributeError("a Subspace cannot be changed")

    def __delattr__(self, name):
        raise AttributeError("a Subspace cannot be changed")

    def __reduce__(self):
        return Subspace, (self.basis,)

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


def full_subspace(field, ambient):
    return Subspace(Matrix.identity(field, ambient))


def coord_subspace(field, ambient, indices):
    """Span of the given standard basis vectors."""
    rows = Matrix.identity(field, ambient).entries
    return Subspace(Matrix.from_rows(field, [rows[i] for i in sorted(indices)],
                                     ambient))


def contains(big, small):
    """small <= big: stacking small's basis under big's adds no rank."""
    _check_same_space(big, small)
    return rank(vstack(big.basis, small.basis)) == big.dim


def meet(x, y):
    """Intersection, by Zassenhaus: x rows (u | u), y rows (w | 0)."""
    _check_same_space(x, y)
    n = x.ambient
    zero = (x.field.zero,) * n
    rows = [u + u for u in x.basis.entries]
    rows += [w + zero for w in y.basis.entries]
    return Subspace(eliminate_front(x.field, rows, n, 2 * n))


def join(x, y):
    _check_same_space(x, y)
    return span(vstack(x.basis, y.basis))


def is_transversal(x, y):
    """x and y are complementary: dims add up to the ambient and the two
    bases stacked have full rank, so the meet is 0."""
    _check_same_space(x, y)
    n = x.ambient
    return x.dim + y.dim == n and rank(vstack(x.basis, y.basis)) == n


def complement(x):
    """Canonical complement: standard basis vectors at the non-pivot columns."""
    pivots = set(pivot_cols(x.basis))
    return coord_subspace(x.field, x.ambient,
                          [j for j in range(x.ambient) if j not in pivots])


def graph_of(mat):
    """Graph {(v, Xv)} of the q x p matrix X, inside K^p + K^q."""
    return Subspace(hstack(Matrix.identity(mat.ring, mat.ncols),
                           mat.transpose()))


def chart_of(x, p):
    """Matrix X with x = graph_of(X); x must be transversal to 0 + K^q."""
    if x.dim != p:
        raise TransversalityError("dim %d subspace cannot chart to %d inputs"
                                  % (x.dim, p))
    if pivot_cols(x.basis) != list(range(p)):
        raise TransversalityError("subspace is not transversal to the chart origin")
    return x.basis.take_cols(p, x.ambient).transpose()


def graph_minus(mat):
    """The other chart: {(Xw, w)} for an n x m matrix X, inside K^n + K^m."""
    return span(hstack(mat.transpose(), Matrix.identity(mat.ring, mat.ncols)))


def chart_minus(x):
    """Matrix X with x = graph_minus(X); x must be transversal to K^n + 0,
    so n is the ambient less the dimension of x."""
    first = x.ambient - x.dim
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


@dataclass(frozen=True)
class Form:
    """Nondegenerate (skew-)hermitian form  beta(u, v) = conj(u)^T gram v.

    The first argument is the conjugated one.  Over fields whose involution is
    the identity, hermitian/skew mean symmetric/antisymmetric.
    """

    gram: Matrix

    def __post_init__(self):
        try:  # a gram that is not square is refused here, as a ShapeError
            mat_invert(self.gram)
        except SingularMatrixError:
            raise SingularMatrixError("degenerate gram matrix") from None
        ct = self.gram.conj_t()
        if ct != self.gram and ct != -self.gram:
            raise ValueError("gram matrix is neither hermitian nor skew")

    @property
    def kind(self):
        """hermitian when gram* = gram, as every valid gram is in
        characteristic 2, else skew."""
        return "hermitian" if self.gram.conj_t() == self.gram else "skew"

    @property
    def field(self):
        return self.gram.ring

    @property
    def ambient(self):
        return self.gram.nrows


def hyperbolic_form(b, sign):
    """[[0, B], [sign B, 0]] on K^{2n} for an n x n B and sign +1 or -1."""
    z = Matrix.zeros(b.ring, b.nrows, b.nrows)
    return Form(vstack(hstack(z, b), hstack(b if sign > 0 else -b, z)))


def symplectic_form(field, n):
    """[[0, I], [-I, 0]] on K^{2n}."""
    return hyperbolic_form(Matrix.identity(field, n), -1)


def split_form(field, n):
    """[[0, I], [I, 0]] on K^{2n}."""
    return hyperbolic_form(Matrix.identity(field, n), 1)


def diag_form(field, n):
    """diag(I, -I) on K^{2n}."""
    i = Matrix.identity(field, n)
    z = Matrix.zeros(field, n, n)
    return Form(vstack(hstack(i, z), hstack(z, -i)))


FORMS = {"symplectic": symplectic_form, "split": split_form,
         "diag": diag_form}


def standard_forms(field, n):
    return {name: build(field, n) for name, build in FORMS.items()}


def orthocomplement(x, form):
    """x^perp = {v : conj(u) K v = 0 for all u in x} for K = form.gram; reads
    only form.gram and form.ambient, so form may be an Involution too.

    It has two callers: `Involution.__call__`, the one way a law applies
    tau, and `relations.adjoint`, whose pairing is a Form (`involutions`
    imports `relations` through `gamma`, so no Involution is built there).
    Within a check run the kernel is taken once per (x, gram), for every
    form and involution with that gram (`rng.run_shared`); a repeat skips
    the shape check as well, which the first call passed."""
    gram = form.gram

    def perp():
        if x.ambient != form.ambient:
            raise ShapeError("subspace of K^%d against a form on K^%d"
                             % (x.ambient, form.ambient))
        return Subspace(kernel_basis(x.basis.conj() * gram))

    return run_shared((x, gram), perp)


def is_isotropic(x, form):
    g = x.basis.conj() * form.gram * x.basis.transpose()
    return g.is_zero()


def vectors(sub):
    """All vectors of a subspace over a finite field (deterministic order)."""
    R = sub.field
    coeffs = itertools.product(tuple(R.elements()), repeat=sub.dim)
    yield from (Matrix.from_rows(R, coeffs, sub.dim) * sub.basis).entries


def enumerate_subspaces(field, ambient, dim=None):
    """Every subspace exactly once: dimension ascending, then RREF bases in
    lex order of their entries' positions in `field.elements()`.

    Bases are generated per pivot-column pattern (free entries right of each
    pivot and off the pivot columns), then sorted by those positions.
    """
    elements = field.elements()
    dims = range(ambient + 1) if dim is None else (dim,)
    if _more_than_the_limit(field.size, ambient, dims):
        raise FieldSyntaxError(
            "%s at ambient %d: more than %d subspaces or basis entries"
            " requested" % (field.spec(), ambient, ENUMERATION_LIMIT))
    elems = tuple(elements)
    position = {e: i for i, e in enumerate(elems)}
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
        batch.sort(key=lambda m: tuple(position[e] for row in m.entries
                                       for e in row))
        for m in batch:
            yield Subspace(m)


def all_subspaces(field, ambient):
    """Every subspace, in `enumerate_subspaces` order; once per check run."""
    return run_shared(("subspaces", field, ambient),
                      lambda: tuple(enumerate_subspaces(field, ambient)))


def middle_layer(field, ambient):
    """The ambient/2-dimensional layer, once per run; () at odd ambient."""
    if ambient % 2:
        return ()
    return run_shared(("middle-layer", field, ambient), lambda: tuple(
        enumerate_subspaces(field, ambient, ambient // 2)))


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


def _more_than_the_limit(q, n, dims):
    """Whether the k-dim subspaces of F_q^n, k in dims, exceed the limit.

    [n, k]_q >= q^(k(n-k)) >= 2^(k(n-k)), and 2^b exceeds the limit for b
    its bit length, so a layer with k(n-k) >= b is over the limit without
    being counted.  A layer whose one basis has k n entries past the limit
    (the whole space of an ambient over 1000) is over it as well.  Stops at
    the first layer that goes over.
    """
    total = 0
    for k in dims:
        if (k * (n - k) >= ENUMERATION_LIMIT.bit_length()
                or k * n > ENUMERATION_LIMIT):
            return True
        total += gaussian_binomial(n, k, q)
        if total > ENUMERATION_LIMIT:
            return True
    return False


@shared_draw
def random_subspace(field, ambient, rng):
    """A subspace of K^ambient: a uniform dimension, then the span of that
    many random rows.  Within a check run, drawn once per generator state."""
    return span(random_matrix(field, rng.below(ambient + 1), ambient, rng))


def subspace_to_json(sub):
    R = sub.field
    return {"ambient": sub.ambient,
            "field": R.spec(),
            "basis": [[R.format(e) for e in row] for row in sub.basis.entries]}


def _check_same_space(x, *others):
    """ShapeError unless each of others has the ambient and ring of x.

    Reads x's sizes once; a ring that is the same object needs no
    dataclass comparison.
    """
    n, field = x.basis.ncols, x.basis.ring
    for y in others:
        m = y.basis
        if m.ncols != n or (m.ring is not field and m.ring != field):
            raise ShapeError("%r over %s and %r over %s are not in one space"
                             % (x, field.spec(), y, m.ring.spec()))
