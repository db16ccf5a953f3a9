"""Involutions of the subspace geometry coming from nondegenerate forms.

An involution here is a map tau(x) = post . (x orthocomplement), where the
orthocomplement is taken for a fixed (skew-)hermitian form and `post` is an
optional invertible operator.  This class of maps is closed under the two
derived constructions used throughout:

* the dual involution, which composes with the operator that is the identity
  on o+ and minus the identity on o- (an automorphism of the product);
* the swap-composed involution tilde, which composes with the block swap j.

Fixed-point sets are the Lagrangian-type subvarieties; the torsors G(inv, a),
the unitary groups U(inv; a, o, b), and the closure of the fixed set under
the pentary product with middle pair (a, tau a) all live here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .fields import CharacteristicTwoError
from .gamma import (common_complements, dilation, gamma_global, gamma_oracle,
                    m_operator, subspace_slots, transversal_slots)
from .matrices import (Matrix, det, format_matrix, hstack, mat_invert, rank,
                       random_matrix, vstack)
from .reports import (Slots, cases, describe_case, every, run_inclusion_law,
                      run_law)
from .rng import trial_rng
from .subspaces import (Form, Subspace, all_subspaces, coord_subspace,
                        enumerate_subspaces, graph_minus, is_isotropic,
                        is_transversal, orthocomplement, pushforward,
                        random_subspace, sort_key, span_rows)


class InvolutionError(ValueError):
    pass


@dataclass(frozen=True)
class Involution:
    """x -> post . (x orthocomplement), with post = None meaning identity."""

    form: Form
    post: Matrix = None
    label: str = ""

    @property
    def field(self):
        return self.form.field

    @property
    def ambient(self):
        return self.form.ambient

    def __call__(self, x):
        y = orthocomplement(x, self.form)
        if self.post is None:
            return y
        return pushforward(self.post, y)


def tabulated(inv):
    """inv as a function that applies it once per distinct argument.

    The table is local to the returned function, so a law that calls this
    once per run keeps its images for that run only; `Involution.__call__`
    itself stays unmemoized.
    """
    table = {}

    def tau(x):
        y = table.get(x)
        if y is None:
            y = table[x] = inv(x)
        return y

    return tau


@lru_cache(maxsize=None)
def _order_two_ok(inv):
    """Cheap order-2 validation: exhaustive when small, sampled otherwise."""
    field = inv.field
    n = inv.ambient
    if field.size is not None and field.size ** n <= 2 ** 12:
        pool = all_subspaces(field, n)
    else:
        pool = [coord_subspace(field, n, range(k)) for k in range(n + 1)]
        for i in range(12):
            pool.append(random_subspace(field, n, trial_rng(0, i)))
    return all(inv(inv(x)) == x for x in pool)


def involution(form, post=None, label=""):
    """Build an involution, validating invertibility of post and order 2."""
    if post is not None:
        mat_invert(post)
    inv = Involution(form, post, label)
    if not _order_two_ok(inv):
        raise InvolutionError("map is not of order two")
    return inv


def ortho_involution(form):
    """Plain orthocomplementation for a nondegenerate form."""
    mat_invert(form.gram)
    return involution(form, None, "perp")


@dataclass(frozen=True)
class BaseTriple:
    o_plus: Subspace
    e: Subspace
    o_minus: Subspace

    @property
    def field(self):
        return self.o_plus.field

    @property
    def ambient(self):
        return self.o_plus.ambient


def standard_triple(field, n):
    """o+ = first n coordinates, o- = last n, e = diagonal, in K^{2n}."""
    o_plus = coord_subspace(field, 2 * n, range(n))
    o_minus = coord_subspace(field, 2 * n, range(n, 2 * n))
    rows = []
    for i in range(n):
        v = [field.zero] * (2 * n)
        v[i] = field.one
        v[n + i] = field.one
        rows.append(tuple(v))
    return BaseTriple(o_plus, span_rows(field, 2 * n, rows), o_minus)


def is_standard_triple(bt):
    return bt == standard_triple(bt.field, bt.ambient // 2)


def _base_point_type(inv, bt):
    tp, tm = inv(bt.o_plus), inv(bt.o_minus)
    if tp == bt.o_plus and tm == bt.o_minus:
        return "preserving"
    if tp == bt.o_minus and tm == bt.o_plus:
        return "exchanging"
    return None


def minus_one_op(bt):
    """The automorphism fixing o+ and o- that negates the affine parts."""
    return m_operator(bt.o_plus, bt.o_minus, bt.o_minus, bt.o_plus)


def dual_involution(inv, bt):
    """Compose with the minus-one automorphism of the base pair."""
    kind = _base_point_type(inv, bt)
    if kind is None:
        raise InvolutionError(
            "dual involution needs a base point preserving or exchanging map")
    d = minus_one_op(bt)
    post = d if inv.post is None else d * inv.post
    return involution(inv.form, post, inv.label + "-dual")


def j_map(bt):
    """The swap operator exchanging o+ and o- while fixing the diagonal."""
    return m_operator(bt.o_plus, bt.e, bt.e, bt.o_minus)


def tilde_tau(inv, bt):
    """Compose with j; needs tau fixing o+, o-, and e."""
    if _base_point_type(inv, bt) != "preserving" or inv(bt.e) != bt.e:
        raise InvolutionError(
            "tilde construction needs a unital base point preserving map")
    j = j_map(bt)
    post = j if inv.post is None else j * inv.post
    return involution(inv.form, post, inv.label + "-tilde")


def cayley_rho(bt):
    """Block operator [[1, -1], [1, 1]] on the standard triple."""
    field = bt.field
    if field.char == 2:
        raise CharacteristicTwoError("the transform needs 2 invertible")
    if not is_standard_triple(bt):
        raise ValueError("transform is pinned to the standard triple")
    n = bt.ambient // 2
    i = Matrix.identity(field, n)
    return vstack(hstack(i, -i), hstack(i, i))


# -- fixed points and Lagrangian geometries --------------------------------


def fixed_points(inv):
    """All tau-fixed subspaces, sorted (finite fields, even ambient only).

    Invertible post and gram force every fixed point into the middle
    dimension, so only that layer is enumerated.
    """
    n = inv.ambient
    if n % 2 == 1:
        return ()
    pts = [x for x in enumerate_subspaces(inv.field, n, n // 2) if inv(x) == x]
    return tuple(sorted(pts, key=sort_key))


def isotropic_census(form):
    """Middle-dimension totally isotropic subspaces, by direct filtering."""
    n = form.ambient
    if n % 2 == 1:
        return ()
    pts = [x for x in enumerate_subspaces(form.field, n, n // 2)
           if is_isotropic(x, form)]
    return tuple(sorted(pts, key=sort_key))


def census_report(form, suite="lagrangian", law="census-two-paths"):
    """Two independent counts of the middle isotropic layer must agree."""
    direct = isotropic_census(form)
    fixed = fixed_points(ortho_involution(form))
    counts = {"direct-count": len(direct), "fixed-count": len(fixed)}
    return run_law(suite, law, [counts], lambda c: direct == fixed,
                   notes=("count:%d" % len(direct),))


# -- torsors, groups, tables ------------------------------------------------


@dataclass(frozen=True)
class GroupView:
    """A finite set with a binary product given through the pentary map."""

    elements: tuple
    unit: Subspace

    def index(self, x):
        return self.elements.index(x)


def torsor_G(inv, a):
    """Fixed subspaces transversal to both a and tau(a), with (x, y, z)."""
    ta = inv(a)
    carrier = tuple(x for x in fixed_points(inv)
                    if is_transversal(x, a) and is_transversal(x, ta))
    return carrier, torsor_product_pair(a, ta)


def group_of_torsor(carrier, unit):
    if unit not in carrier:
        raise ValueError("unit must lie in the carrier")
    return GroupView(carrier, unit)


def cayley_table(view, product):
    """Index table t[i][j] = index of elements[i] . elements[j].

    ValueError if a product leaves the element list.
    """
    els = view.elements
    index = {e: i for i, e in enumerate(els)}
    table = []
    for x in els:
        row = []
        for z in els:
            w = product(x, view.unit, z)
            try:
                row.append(index[w])
            except KeyError:
                raise ValueError("%r is not an element" % (w,)) from None
        table.append(tuple(row))
    return tuple(table)


def transported_view(view, g):
    """The element list and unit pushed forward by an invertible operator."""
    return GroupView(tuple(pushforward(g, x) for x in view.elements),
                     pushforward(g, view.unit))


def unitary_group(inv, a, o, b):
    """Members x of the group (U_ab, o) with tau(x) equal to the inverse."""
    for p in (a, o, b):
        if inv(p) != p:
            raise ValueError("parameters must be fixed by the involution")
    if not (is_transversal(o, a) and is_transversal(o, b)):
        raise ValueError("unit must be a common complement")
    members = tuple(x for x in common_complements(a, b)
                    if inv(x) == gamma_global(o, a, x, b, o))
    return GroupView(members, o), torsor_product_pair(a, b)


def torsor_product_pair(a, b):
    return lambda x, y, z: gamma_global(x, a, y, b, z)


def translation_op(a_chart, bt):
    """Operator adding the chart point a to the group of complements of o+.

    a_chart is the matrix A of the subspace {(Av, v)}; in standard
    coordinates the composite is the block matrix [[1, A], [0, 1]].
    """
    n = bt.ambient // 2
    if a_chart.nrows != n or a_chart.ncols != n:
        raise ValueError("chart parameter must be n x n")
    a_sub = graph_minus(a_chart)
    first = m_operator(bt.o_plus, a_sub, bt.o_minus, bt.o_plus)
    return first * minus_one_op(bt)


# -- report suites -----------------------------------------------------------


def check_order_two(inv, config, law="order-two"):
    tau = tabulated(inv)
    return run_law("involution-antihom", law,
                   cases(config, subspace_slots(inv.field, inv.ambient, "x")),
                   lambda c: tau(tau(c["x"])) == c["x"],
                   notes=("label:%s" % (inv.label or "anonymous"),))


def check_transversality_preservation(inv, config,
                                      law="transversality-preservation"):
    tau = tabulated(inv)

    def holds(c):
        return (is_transversal(c["x"], c["a"])
                == is_transversal(tau(c["x"]), tau(c["a"])))

    return run_law("involution-antihom", law,
                   cases(config, subspace_slots(inv.field, inv.ambient, "xa")),
                   holds)


def _reverses_gamma(inv):
    """tau Gamma(x,a,y,b,z) = Gamma(tx,tb,ty,ta,tz) = Gamma(tz,ta,ty,tb,tx)."""
    tau = tabulated(inv)

    def holds(c):
        lhs = tau(gamma_global(c["x"], c["a"], c["y"], c["b"], c["z"]))
        x, a, y, b, z = (tau(c[k]) for k in "xaybz")
        return (lhs == gamma_global(x, b, y, a, z)
                and lhs == gamma_global(z, a, y, b, x))

    return holds


def check_antihom_restricted(inv, config, law="restricted-anti-homomorphism"):
    """The reversal identity of `_reverses_gamma` on transversal tuples."""
    slots = transversal_slots(inv.field, inv.ambient, "xaybz")
    return run_law("involution-antihom", law, cases(config, slots),
                   _reverses_gamma(inv))


def check_antihom_global(inv, config, law="global-anti-homomorphism"):
    """The same identity on arbitrary tuples, no transversality at all."""
    slots = subspace_slots(inv.field, inv.ambient, "xaybz")
    return run_law("involution-duality", law, cases(config, slots),
                   _reverses_gamma(inv))


def check_duality_inclusion(form, config, law="duality-inclusion"):
    """Gamma of complements sits inside the complement of Gamma (inclusion).

    Equality candidates are not asserted here; strictness counts go into the
    notes so genuinely strict cases can be collected.  Sampled in every mode.
    """

    def perp(s):
        return orthocomplement(s, form)

    def sides(c):
        x, a, y, b, z = c["x"], c["a"], c["y"], c["b"], c["z"]
        return (perp(gamma_global(x, a, y, b, z)),
                gamma_global(perp(x), perp(b), perp(y), perp(a), perp(z)))

    draw = subspace_slots(form.field, form.ambient, "xaybz").draw
    return run_inclusion_law("involution-duality", law,
                             cases(config, Slots(draw)), sides)


def check_dilation_compat(inv, config, law="dilation-compatibility"):
    """tau(dilation_s(x, a, y)) = dilation_conj(s)(tau x, tau a, tau y).

    Sampled in every mode.
    """
    field = inv.field
    if field.size is not None:
        scalars = list(field.elements())
    else:
        scalars = [field.zero, field.one, field.from_int(2), field.from_int(-3)]
    tau = tabulated(inv)

    def holds(c):
        x, a, y = c["x"], c["a"], c["y"]
        for s in scalars:
            expect = dilation(field.conj(s), tau(x), tau(a), tau(y))
            if tau(dilation(s, x, a, y)) != expect:
                return False
        return True

    draw = transversal_slots(field, inv.ambient, "xay").draw
    return run_law("involution-antihom", law, cases(config, Slots(draw)),
                   holds)


def closure_report(inv, a, law="fixed-set-closure"):
    """The fixed set is closed under (x, y, z) -> Gamma(x, a, y, tau a, z).

    Membership of the result is decided by tau(result) == result, so no
    lookup in the enumerated fixed set is needed for the check itself.
    Every (x, a, y, tau a, z) of one sweep is distinct, so the kernel is
    called unmemoized: a memo would only hold memory.  The results w are
    few, so tau(w) comes from a table local to the sweep, which applies tau
    once per distinct result.
    """
    ta = inv(a)
    tau = tabulated(inv)

    def result(c):
        return gamma_oracle(c["x"], a, c["y"], ta, c["z"])

    def holds(c):
        w = result(c)
        return tau(w) == w

    return run_law("semitorsor-closure", law, every(fixed_points(inv), "xyz"),
                   holds,
                   lambda c: describe_case(dict(c, result=result(c))),
                   notes=("a:%s" % format_matrix(a.basis),))


def check_torsor_g(inv, a, law="fixed-torsor-axioms"):
    """Torsor axioms on G(inv, a), plus commutativity when a is fixed."""
    carrier, product = torsor_G(inv, a)
    tau = tabulated(inv)

    def holds(c):
        x, y = c["x"], c["y"]
        if "z" in c:
            return product(x, y, c["z"]) == product(c["z"], y, x)
        if product(x, y, y) != x or product(y, y, x) != x:
            return False
        w = product(x, y, x)
        return tau(w) == w and w in carrier

    swept = every(carrier, "xy")
    if inv(a) == a:
        swept = itertools.chain(swept, every(carrier, "xyz"))
    return run_law("torsor-g", law, swept, holds,
                   notes=("carrier:%d" % len(carrier),))


def check_opposite_torsor(inv, a, law="opposite-torsor"):
    """(x y z) for the parameter a equals (z y x) for the parameter tau a.

    Unequal carriers make the whole check one failing case.
    """
    carrier, product = torsor_G(inv, a)
    op_carrier, op_product = torsor_G(inv, inv(a))
    if set(carrier) == set(op_carrier):
        swept = every(carrier, "xyz")
    else:
        swept = [{"carrier-sizes": [len(carrier), len(op_carrier)]}]

    def holds(c):
        return "x" in c and (product(c["x"], c["y"], c["z"])
                             == op_product(c["z"], c["y"], c["x"]))

    return run_law("opposite-torsor", law, swept, holds)


# -- orbit invariants --------------------------------------------------------


def form_invariants(a, form):
    """(rank of the restricted form, square class of its determinant).

    The determinant class is only returned for symmetric bilinear forms over
    fields that expose square classes; it is 0 for a singular restriction
    and None when the class is not defined for the form's kind.
    """
    field = form.field
    restricted = a.basis.conj() * form.gram * a.basis.transpose()
    r = rank(restricted)
    disc = None
    if (form.kind == "hermitian" and field.involution == "identity"
            and hasattr(field, "square_class")):
        d = det(restricted)
        disc = 0 if field.is_zero(d) else field.square_class(d)
    return r, disc


def random_isometry(form, rng):
    """A random invertible operator preserving the form.

    Implemented for ambient 2 over fields with the identity involution:
    determinant-one operators for the skew form, torus and swap elements for
    the split form, hyperbolic rotations and a reflection for diag(1, -1).
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
    if form.kind == "skew":
        while True:
            m = random_matrix(field, 2, 2, rng)
            d = det(m)
            if not field.is_zero(d):
                di = field.inv(d)
                top = tuple(field.mul(di, e) for e in m.entries[0])
                return Matrix.build(field, [top, m.entries[1]])
    if field.is_zero(g[0][0]) and g[0][1] == one:
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
    """Isometries preserve the invariants and transport torsor tables."""
    inv = ortho_involution(form)

    def draw(rng):
        return dict(g=random_isometry(form, rng),
                    a=random_subspace(form.field, form.ambient, rng))

    def holds(c):
        a, g = c["a"], c["g"]
        b = pushforward(g, a)
        if form_invariants(a, form) != form_invariants(b, form):
            return False
        carrier, product = torsor_G(inv, a)
        if not carrier:
            return True
        view = GroupView(carrier, carrier[0])
        view_b = transported_view(view, g)
        carrier_b, product_b = torsor_G(inv, b)
        return (set(view_b.elements) == set(carrier_b)
                and cayley_table(view, product)
                == cayley_table(view_b, product_b))

    return run_law("invariant-transport", law, cases(config, Slots(draw)),
                   holds)
