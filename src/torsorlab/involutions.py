"""Involutions of the subspace geometry coming from nondegenerate forms.

An involution here is the orthocomplement for one invertible gram matrix
K, tau(x) = {v : conj(u) K v = 0 for all u in x}, and is stored as K alone.
K need not be hermitian or skew: tau(tau(x)) = K^-1 K* x, so tau has order
two exactly when K^-1 K* is a scalar, and `involution` builds only those.
An invertible operator d composed after tau gives the orthocomplement for
K d^-1, so this class of maps is closed under the dual involution, which
composes with the operator that is the identity on o+ and minus the identity
on o- (an automorphism of the product).  Every law applies tau by
calling its Involution.  Within a check run each image is computed once per
(subspace, gram), in the run's table (`rng.run_shared`), whichever laws
apply it; outside a run nothing is kept.

Fixed-point sets are the Lagrangian-type subvarieties, enumerated once per
gram in a check run's table.  The torsors G(inv, a), sorted tuples of fixed
subspaces, and the unitary groups U(inv; a, o, b), each a tuple of
subspaces in `common_complements` order, take Gamma with the middle pair
bound as their product.  They live here with the closure of the fixed set
under the pentary product with middle pair (a, tau a).

Carrier tables (`cayley_table`) are computed in the chart of U_a centred at
the unit, where the torsor product is the homotope product X + (1 - X B) Z.
Each table row is one matrix product of [X | 1 - X B] with the element
charts stacked once under identity blocks, and each product is looked up by
its entries.  The torsor laws take their products from Gamma and so audit
the chart.
Gamma remains the only path for arbitrary tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .fields import PrimeField
from .gamma import (common_complements, dilations, gamma_global, gamma_oracle,
                    m_operator, subspace_cases, transversal_cases)
from .matrices import (Matrix, det, format_matrix, hstack, mat_invert,
                       random_invertible, rank, vstack)
from .reports import describe_value, every, run_inclusion_law, run_law
from .rng import run_shared
from .subspaces import (Subspace, TransversalityError, chart_minus,
                        chart_of, coord_subspace, enumerate_subspaces,
                        graph_minus, image_under, is_isotropic, is_transversal,
                        orthocomplement)


class InvolutionError(ValueError):
    pass


@dataclass(frozen=True)
class Involution:
    """x -> the orthocomplement of x for gram, the kernel of conj(x) . gram.

    `involution` is the builder that checks order two.  Applying one goes
    through `orthocomplement`, which a check run tabulates by gram, so no
    image outlives that run.
    """

    gram: Matrix
    label: str = ""

    @property
    def field(self):
        return self.gram.ring

    @property
    def ambient(self):
        return self.gram.nrows

    def __call__(self, x):
        return orthocomplement(x, self)


@lru_cache(maxsize=None)
def _order_two_ok(inv):
    """Exact: tau^2 = K^-1 K* with K = inv.gram, a scalar iff order two."""
    k = inv.gram
    if k.nrows == 0:
        return True
    m = mat_invert(k) * k.conj_t()
    return m == Matrix.identity(k.ring, k.nrows).scale(m.entries[0][0])


def involution(gram, label=""):
    """Build the orthocomplement for gram, validating order 2."""
    inv = Involution(gram, label)
    if not _order_two_ok(inv):
        raise InvolutionError("map is not of order two")
    return inv


def ortho_involution(form):
    """Plain orthocomplementation for a nondegenerate form."""
    return involution(form.gram, "perp")


@dataclass(frozen=True)
class BaseTriple:
    o_plus: Subspace
    o_minus: Subspace


def standard_triple(field, n):
    """o+ = first n coordinates, o- = last n, in K^{2n}."""
    return BaseTriple(coord_subspace(field, 2 * n, range(n)),
                      coord_subspace(field, 2 * n, range(n, 2 * n)))


def minus_one_op(bt):
    """The automorphism fixing o+ and o- that negates the affine parts."""
    return m_operator(bt.o_plus, bt.o_minus, bt.o_minus, bt.o_plus)


def dual_involution(inv):
    """Compose with the minus-one automorphism of the base pair of the
    standard triple of K^{2n}, for inv on K^{2n}."""
    bt = standard_triple(inv.field, inv.ambient // 2)
    if {inv(bt.o_plus), inv(bt.o_minus)} != {bt.o_plus, bt.o_minus}:
        raise InvolutionError(
            "dual involution needs a base point preserving or exchanging map")
    return involution(inv.gram * mat_invert(minus_one_op(bt)),
                      inv.label + "-dual")


# -- fixed points and Lagrangian geometries --------------------------------


def fixed_points(inv):
    """All tau-fixed subspaces, sorted (finite fields, even ambient only).

    An invertible gram forces every fixed point into the middle dimension,
    so only that layer is enumerated, once per check run and gram.
    """
    n = inv.ambient
    if n % 2 == 1:
        return ()
    return run_shared(("fixed-points", inv.gram), lambda: tuple(
        x for x in enumerate_subspaces(inv.field, n, n // 2) if inv(x) == x))


def isotropic_census(form):
    """Middle-dimension totally isotropic subspaces, filtered once per run."""
    n = form.ambient
    if n % 2 == 1:
        return ()
    return run_shared(("isotropic-census", form.gram), lambda: tuple(
        x for x in enumerate_subspaces(form.field, n, n // 2)
        if is_isotropic(x, form)))


def census_report(form, law="census-two-paths"):
    """Two independent counts of the middle isotropic layer must agree."""
    direct = isotropic_census(form)
    fixed = fixed_points(ortho_involution(form))
    counts = {"direct-count": len(direct), "fixed-count": len(fixed)}
    return run_law("lagrangian-census", law, lambda **c: direct == fixed,
                   enumerate_all=lambda: [counts],
                   notes=("count:%d" % len(direct),))


# -- torsors, groups, tables ------------------------------------------------


def torsor_G(inv, a):
    """Fixed subspaces transversal to both a and tau(a), sorted.

    Their torsor product is (x, y, z) -> Gamma(x, a, y, tau a, z).
    """
    ta = inv(a)
    return tuple(x for x in fixed_points(inv)
                 if is_transversal(x, a) and is_transversal(x, ta))


def cayley_table(elements, unit, a, b):
    """Index table t[i][j] = index of Gamma(el_i, a, unit, b, el_j).

    Computed in the chart of U_a centred at the unit, with no Gamma call.
    The basis change g = (unit basis stacked on a basis)^-T sends the unit
    to K^k + 0 and a to 0 + K^(n-k); each element becomes the graph of a
    q x k matrix X, and b the subspace {(B w, w)}.  There the product is
    the homotope product W = X + Z - X B Z = X + (1 - X B) Z.  The charts
    are stacked once into C = [1 ... 1; Z_1 ... Z_m], so one product
    [X | 1 - X B] C gives a whole row: W_j is its column block j.  Each
    block is looked up by its entries among the element charts.

    Precondition: the elements and the unit are common complements of a
    and b.  The identity is the `pentary-chart-product` law; the laws that
    take carrier products from Gamma (`check_torsor_g`,
    `check_opposite_torsor`, `family_table_bridge`,
    `unitary_transport_bridge`) audit the chart against the kernel.

    ValueError if a product leaves the element list; TransversalityError,
    also a ValueError, if the unit or an element is not a complement of a,
    or b is not a complement of the unit.
    """
    if not is_transversal(unit, a):
        raise TransversalityError("the unit is not a complement of a")
    if not is_transversal(unit, b):
        raise TransversalityError("b is not a complement of the unit")
    k = unit.dim
    g = mat_invert(vstack(unit.basis, a.basis)).transpose()
    charts = [chart_of(image_under(g, x), k) for x in elements]
    index = {c.entries: i for i, c in enumerate(charts)}
    B = chart_minus(image_under(g, b))
    one = Matrix.identity(B.ring, B.ncols)
    if not charts:
        return ()
    stacked = vstack(hstack(*[Matrix.identity(B.ring, k)] * len(charts)),
                     hstack(*charts))
    table = []
    for i, X in enumerate(charts):
        prod = (hstack(X, one - X * B) * stacked).entries
        row = []
        for j in range(len(charts)):
            try:
                row.append(index[tuple(r[j * k:(j + 1) * k] for r in prod)])
            except KeyError:
                raise ValueError("the product of elements %d and %d is not"
                                 " an element" % (i, j)) from None
        table.append(tuple(row))
    return tuple(table)


def unitary_group(inv, a, o, b):
    """Members x of the group (U_ab, o) with tau(x) equal to the inverse.

    In `common_complements` order; product (x, y) -> Gamma(x, a, o, b, y).
    """
    for p in (a, o, b):
        if inv(p) != p:
            raise ValueError("parameters must be fixed by the involution")
    if not (is_transversal(o, a) and is_transversal(o, b)):
        raise ValueError("unit must be a common complement")
    return tuple(x for x in common_complements(a, b)
                 if inv(x) == gamma_global(o, a, x, b, o))


def translation_op(a_chart):
    """Operator adding the chart point a to the group of complements of o+.

    a_chart is the n x n matrix A of the subspace {(Av, v)}, and the base
    points are those of the standard triple of K^{2n} over A's ring; in
    standard coordinates the composite is the block matrix [[1, A], [0, 1]].
    """
    if a_chart.nrows != a_chart.ncols:
        raise ValueError("chart parameter must be square")
    bt = standard_triple(a_chart.ring, a_chart.nrows)
    a_sub = graph_minus(a_chart)
    first = m_operator(bt.o_plus, a_sub, bt.o_minus, bt.o_plus)
    return first * minus_one_op(bt)


# -- report suites -----------------------------------------------------------


def check_order_two(inv, config, law="order-two"):
    return run_law("involution-antihom", law, lambda x: inv(inv(x)) == x,
                   config, *subspace_cases(inv.field, inv.ambient, "x"),
                   notes=("label:%s" % (inv.label or "anonymous"),))


def check_transversality_preservation(inv, config,
                                      law="transversality-preservation"):
    def holds(x, a):
        return is_transversal(x, a) == is_transversal(inv(x), inv(a))

    return run_law("involution-antihom", law, holds, config,
                   *subspace_cases(inv.field, inv.ambient, "xa"))


def _reverses_gamma(inv):
    """tau Gamma(x,a,y,b,z) = Gamma(tx,tb,ty,ta,tz) = Gamma(tz,ta,ty,tb,tx)."""
    def holds(x, a, y, b, z):
        lhs = inv(gamma_global(x, a, y, b, z))
        tx, ta, ty, tb, tz = map(inv, (x, a, y, b, z))
        return (lhs == gamma_global(tx, tb, ty, ta, tz)
                and lhs == gamma_global(tz, ta, ty, tb, tx))

    return holds


def check_antihom_restricted(inv, config, law="restricted-anti-homomorphism"):
    """The reversal identity of `_reverses_gamma` on transversal tuples."""
    return run_law("involution-antihom", law, _reverses_gamma(inv), config,
                   *transversal_cases(inv.field, inv.ambient, "xaybz"))


def check_antihom_global(inv, config, law="global-anti-homomorphism"):
    """The same identity on arbitrary tuples, no transversality at all."""
    return run_law("involution-duality", law, _reverses_gamma(inv), config,
                   *subspace_cases(inv.field, inv.ambient, "xaybz"))


def check_duality_inclusion(inv, config, law="duality-inclusion"):
    """Gamma of complements sits inside the complement of Gamma (inclusion).

    Equality candidates are not asserted here; strictness counts go into the
    notes so genuinely strict cases can be collected.  Sampled in every mode.
    """
    def sides(x, a, y, b, z):
        return (inv(gamma_global(x, a, y, b, z)),
                gamma_global(inv(x), inv(b), inv(y), inv(a), inv(z)))

    draw, _ = subspace_cases(inv.field, inv.ambient, "xaybz")
    return run_inclusion_law("involution-duality", law, sides, config, draw)


def check_dilation_compat(inv, config, law="dilation-compatibility"):
    """tau(dilation_s(x, a, y)) = dilation_conj(s)(tau x, tau a, tau y).

    Sampled in every mode.
    """
    field = inv.field
    if field.size is not None:
        scalars = list(field.elements())
    else:
        scalars = [field.zero, field.one, field.from_int(2), field.from_int(-3)]
    conj_scalars = [field.conj(s) for s in scalars]

    def holds(x, a, y):
        expect = dilations(conj_scalars, inv(x), inv(a), inv(y))
        return all(inv(got) == want for got, want
                   in zip(dilations(scalars, x, a, y), expect))

    draw, _ = transversal_cases(field, inv.ambient, "xay")
    return run_law("involution-antihom", law, holds, config, draw)


def closure_report(inv, a):
    """The fixed set is closed under (x, y, z) -> Gamma(x, a, y, tau a, z).

    Membership of the result is decided by tau(result) == result, so no
    lookup in the enumerated fixed set is needed for the check itself.
    Every (x, a, y, tau a, z) of one sweep is distinct, so the kernel is
    called unmemoized: a memo would only hold memory.  The results w are
    few, and tau(w) comes from the check run's table, which applies tau
    once per distinct result.
    """
    ta = inv(a)
    swept = every(fixed_points(inv), "xyz")

    def result(x, y, z):
        return gamma_oracle(x, a, y, ta, z)

    def holds(x, y, z):
        w = result(x, y, z)
        return inv(w) == w

    return run_law("semitorsor-closure", "fixed-set-closure", holds,
                   enumerate_all=lambda: swept,
                   describe=lambda c: describe_value(
                       dict(c, result=result(**c))),
                   notes=("a:%s" % format_matrix(a.basis),))


def check_torsor_g(inv, a, law="fixed-torsor-axioms"):
    """Torsor axioms on G(inv, a), plus commutativity when a is fixed."""
    carrier = torsor_G(inv, a)
    ta = inv(a)

    def product(x, y, z):
        return gamma_global(x, a, y, ta, z)

    def holds(x, y, z=None):
        if z is not None:
            return product(x, y, z) == product(z, y, x)
        if product(x, y, y) != x or product(y, y, x) != x:
            return False
        w = product(x, y, x)
        return inv(w) == w and w in carrier

    def enumerate_all():
        yield from every(carrier, "xy")
        if ta == a:
            yield from every(carrier, "xyz")

    return run_law("torsor-g", law, holds, enumerate_all=enumerate_all,
                   notes=("carrier:%d" % len(carrier),))


def check_opposite_torsor(inv, a, law="opposite-torsor"):
    """(x y z) for the parameter a equals (z y x) for the parameter tau a.

    Unequal carriers make the whole check one failing case.  tau has order
    two, so the parameter pair at tau a is (tau a, a).
    """
    ta = inv(a)
    carrier, op_carrier = torsor_G(inv, a), torsor_G(inv, ta)
    if set(carrier) == set(op_carrier):
        swept = every(carrier, "xyz")
    else:
        swept = [{"carrier-sizes": [len(carrier), len(op_carrier)]}]

    def holds(x=None, y=None, z=None, **carrier_sizes):
        return not carrier_sizes and (gamma_global(x, a, y, ta, z)
                                      == gamma_global(z, ta, y, a, x))

    return run_law("opposite-torsor", law, holds, enumerate_all=lambda: swept)


# -- orbit invariants --------------------------------------------------------


def form_invariants(a, form):
    """(rank of the restricted form, square class of its determinant).

    The determinant class is only returned for symmetric bilinear forms (the
    symplectic gram over F2 is one) over prime fields, the finite fields with
    the identity involution; it is 0 for a singular restriction and None for
    any other form.
    """
    field = form.field
    restricted = a.basis.conj() * form.gram * a.basis.transpose()
    r = rank(restricted)
    disc = None
    if form.kind == "hermitian" and isinstance(field, PrimeField):
        d = det(restricted)
        disc = 0 if field.is_zero(d) else field.square_class(d)
    return r, disc


def random_isometry(form, rng):
    """A random invertible operator preserving the form.

    Implemented for ambient 2 over fields with the identity involution:
    determinant-one operators for an alternating gram (the skew form, or the
    split form in characteristic 2), else torus and swap elements for the
    split form, hyperbolic rotations and a reflection for diag(1, -1).  Each
    branch is uniform on the whole isometry group over F_p.
    """
    field = form.field
    if form.ambient != 2 or field.involution != "identity":
        raise ValueError("isometry sampling needs ambient 2, plain transpose")
    one, zero = field.one, field.zero
    g = form.gram.entries
    t = field.zero
    while field.is_zero(t):
        t = field.sample(rng)
    t_inv = field.inv(t)
    alternating = field.is_zero(g[0][0]) and field.is_zero(g[1][1])
    if form.kind == "skew" or (field.char == 2 and alternating):
        m = random_invertible(field, 2, rng)
        di = field.inv(det(m))
        top = tuple(field.mul(di, e) for e in m.entries[0])
        return Matrix.build(field, [top, m.entries[1]])
    if alternating and g[0][1] == one:
        if rng.below(2) == 0:
            return Matrix.build(field, [[t, zero], [zero, t_inv]])
        return Matrix.build(field, [[zero, t], [t_inv, zero]])
    if field.char == 2:
        if rng.below(2) == 0:
            return Matrix.identity(field, 2)
        return Matrix.build(field, [[zero, one], [one, zero]])
    half = field.inv(field.from_int(2))
    c = field.mul(half, field.add(t, t_inv))
    s = field.mul(half, field.sub(t, t_inv))
    rot = Matrix.build(field, [[c, s], [s, c]])
    if rng.below(2) == 0:
        return rot
    return rot * Matrix.build(field, [[one, zero], [zero, field.neg(one)]])


def check_invariant_transport(form, config, law="isometry-transport"):
    """Isometries preserve the invariants and transport torsor tables.

    Both carriers come from `torsor_G`: the one at a, moved by g, must be
    the one at g a, and when nonempty their chart tables (`cayley_table`)
    must agree.  `a` is drawn uniformly from the middle layer, where the
    fixed points lie, enumerated once per law call.
    """
    inv = ortho_involution(form)
    layer = tuple(enumerate_subspaces(form.field, form.ambient,
                                      form.ambient // 2))

    def draw(rng):
        return dict(g=random_isometry(form, rng),
                    a=layer[rng.below(len(layer))])

    def holds(g, a):
        b = image_under(g, a)
        if form_invariants(a, form) != form_invariants(b, form):
            return False
        carrier = torsor_G(inv, a)
        moved = tuple(image_under(g, x) for x in carrier)
        if set(moved) != set(torsor_G(inv, b)):
            return False
        return not carrier or (cayley_table(carrier, carrier[0], a, inv(a))
                               == cayley_table(moved, moved[0], b, inv(b)))

    return run_law("invariant-transport", law, holds, config, draw)
