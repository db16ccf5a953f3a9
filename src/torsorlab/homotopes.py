"""Matrix products deformed by a parameter, and the groups they carry.

For a fixed q x p parameter a, the deformed product on p x q matrices is
x . y = x + y - x a y.  The matrices with 1 - x a invertible form a group
with unit 0 and inverse -(1 - x a)^-1 x; dropping the invertibility
condition leaves a monoid, called the hull here.  Symmetry conditions
carve out orthogonal, symplectic, and unitary style families; nilpotent
scalar extensions recover the bracket x a y - y a x from a group
commutator; and graphs of matrices tie the deformed product back to the
pentary product on subspaces.

Everything that tells the classical families gl, o, sp and u apart is one
row of the table FAMILIES: the star map (transpose, or conjugate transpose
for u), a sign (-1 for sp), the adjective a parameter must satisfy, the
canonical parameter of the hull sweep and the form of the bridge (split for
o, symplectic for sp).  A family member x satisfies
star(x) + sign x = star(x) a x, its parameter star(a) = sign a, and
r + sign star(r) symmetrizes any square r into a parameter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .fields import BiDualRing
from .gamma import gamma_global
from .involutions import (ortho_involution, standard_triple, torsor_G,
                          translation_op, unitary_group)
from .matrices import (Matrix, all_matrices, format_matrix, is_invertible,
                       mat_invert, random_matrix)
from .reports import Slots, cases, every, run_law
from .subspaces import (chart_of, graph_minus, graph_of, pushforward,
                        split_form, symplectic_form)


@dataclass(frozen=True)
class Homotope:
    """p x q matrices under x . y = x + y - x a y for a fixed q x p a."""

    param: Matrix

    @property
    def field(self):
        return self.param.ring

    @property
    def p(self):
        return self.param.ncols

    @property
    def q(self):
        return self.param.nrows

    def product(self, x, y):
        return x + y - x * self.param * y

    def is_member(self, x):
        eye = Matrix.identity(self.field, self.p)
        return is_invertible(eye - x * self.param)

    def inverse(self, x):
        eye = Matrix.identity(self.field, self.p)
        return -(mat_invert(eye - x * self.param) * x)

    @property
    def zero(self):
        return Matrix.zeros(self.field, self.p, self.q)


def _matrix_slots(field, **shapes):
    """Sampled slots: one random matrix per name, of its (rows, cols) shape."""
    return Slots(lambda rng: {n: random_matrix(field, p, q, rng)
                              for n, (p, q) in shapes.items()})


# -- bracket -----------------------------------------------------------------


def lie_bracket_formula(x, y, a):
    """x a y - y a x, the bracket of the a-deformed algebra."""
    return x * a * y - y * a * x


def lie_bracket_dual(x, y, a):
    """The same bracket, recovered from a group commutator.

    x and y are scaled by two independent square-zero elements; the
    commutator of the scaled elements in the deformed group then has no
    constant or linear part and its top coefficient is the bracket.
    """
    base = x.ring
    ring = BiDualRing(base)

    def lift(m, times):
        return Matrix(ring, m.nrows, m.ncols,
                      tuple(tuple(times(e) for e in row) for row in m.entries))

    u = lift(x, ring.e1_times)
    v = lift(y, ring.e2_times)
    h = Homotope(lift(a, ring.embed))
    c = h.product(h.product(h.product(v, u), h.inverse(v)), h.inverse(u))
    parts = [Matrix(base, x.nrows, x.ncols,
                    tuple(tuple(e[k] for e in row) for row in c.entries))
             for k in range(4)]
    if not (parts[0].is_zero() and parts[1].is_zero() and parts[2].is_zero()):
        raise ArithmeticError("commutator kept terms below the top coefficient")
    return parts[3]


def check_bracket_agreement(field, config,
                            shapes=((1, 1), (2, 2), (3, 3), (2, 3), (3, 2))):
    """Commutator route equals the formula, square and rectangular."""

    def draw(rng):
        p, q = shapes[rng.below(len(shapes))]
        return _matrix_slots(field, x=(p, q), y=(p, q), a=(q, p)).draw(rng)

    def holds(c):
        return (lie_bracket_dual(c["x"], c["y"], c["a"])
                == lie_bracket_formula(c["x"], c["y"], c["a"]))

    return run_law("lie-bracket", "bracket-two-routes",
                   cases(config, Slots(draw)), holds)


def check_bracket_laws(field, config, n=2):
    """Antisymmetry and the Jacobi identity for x a y - y a x."""

    def holds(c):
        x, y, z, a = c["x"], c["y"], c["z"], c["a"]
        if lie_bracket_formula(x, y, a) != -lie_bracket_formula(y, x, a):
            return False
        total = (lie_bracket_formula(x, lie_bracket_formula(y, z, a), a)
                 + lie_bracket_formula(y, lie_bracket_formula(z, x, a), a)
                 + lie_bracket_formula(z, lie_bracket_formula(x, y, a), a))
        return total.is_zero()

    slots = _matrix_slots(field, **dict.fromkeys("xyza", (n, n)))
    return run_law("bracket-laws", "bracket-laws", cases(config, slots), holds)


# -- classical families ------------------------------------------------------


@dataclass(frozen=True)
class FamilyKind:
    """One row of the family table; a star of None imposes no condition."""

    title: str
    star: object = None
    sign: int = 1
    adjective: str = ""
    canonical: object = Matrix.identity
    bridge_form: object = None

    def signed(self, m):
        return m if self.sign > 0 else -m

    def condition(self, x, a):
        """star(x) + sign x == star(x) a x."""
        if self.star is None:
            return True
        s = self.star(x)
        return s + self.signed(x) == s * a * x

    def fits(self, a):
        """star(a) == sign a, the symmetry the family's parameter needs."""
        return self.star is None or self.star(a) == self.signed(a)

    def symmetrize(self, r):
        return r + self.signed(self.star(r))


FAMILIES = {
    "gl": FamilyKind("general linear"),
    "o": FamilyKind("orthogonal", Matrix.transpose, 1, "a symmetric",
                    bridge_form=split_form),
    "sp": FamilyKind("symplectic", Matrix.transpose, -1, "an antisymmetric",
                     lambda field, n: Matrix.zeros(field, n, n),
                     symplectic_form),
    "u": FamilyKind("unitary", Matrix.conj_t, 1, "a hermitian"),
}
FAMILY_NAMES = tuple(FAMILIES)


@dataclass(frozen=True)
class ClassicalFamily:
    """A symmetry-carved subfamily of a square deformed matrix group."""

    name: str
    hom: Homotope

    @property
    def field(self):
        return self.hom.field

    @property
    def n(self):
        return self.hom.p

    def condition(self, x):
        return FAMILIES[self.name].condition(x, self.hom.param)

    def is_family_member(self, x):
        return self.condition(x) and self.hom.is_member(x)


def classical_family(name, field, param):
    name = name.lower()
    if name not in FAMILIES:
        raise ValueError("unknown family %r" % name)
    kind = FAMILIES[name]
    if param.ncols != param.nrows:
        raise ValueError("family parameter must be square")
    if kind.star is Matrix.conj_t and field.involution == "identity":
        raise ValueError("the %s family needs a conjugation" % kind.title)
    if not kind.fits(param):
        raise ValueError("the %s family needs %s parameter"
                         % (kind.title, kind.adjective))
    return ClassicalFamily(name, Homotope(param))


def family_params(name, field, n, config, count):
    """Canonical parameter first, then symmetrized random draws, deduplicated.

    The draws are sampled in every mode.
    """
    kind = FAMILIES[name]
    draws = cases(replace(config, trials=count - 1),
                  _matrix_slots(field, r=(n, n)))
    params = [kind.canonical(field, n)]
    params += [kind.symmetrize(c["r"]) for c in draws]
    return list(dict.fromkeys(params))


def bridge_param(name, field, n):
    """The default bridge parameter: the canonical one, except for sp at
    n = 2, where it is the standard antisymmetric [[0, 1], [-1, 0]]."""
    if name == "sp" and n == 2:
        one = field.one
        return Matrix.build(field, [[field.zero, one],
                                    [field.neg(one), field.zero]])
    return FAMILIES[name].canonical(field, n)


def hull(fam):
    """Monoid elements: the symmetry condition without invertibility."""
    return [x for x in all_matrices(fam.field, fam.n, fam.n)
            if fam.condition(x)]


def members(fam):
    """Group elements of the family, enumerated over a finite field."""
    return [x for x in hull(fam) if fam.hom.is_member(x)]


def check_group_laws(fam, config):
    """Members form a group: closure, unit 0, two-sided inverses.

    Without the unit 0 the whole check is one failing case.
    """
    h = fam.hom
    pool = members(fam)
    if fam.is_family_member(h.zero):
        swept = itertools.chain(every(pool, "x"), every(pool, "xy"))
    else:
        swept = [{"unit": "missing"}]

    def holds(c):
        if "unit" in c:
            return fam.is_family_member(h.zero)
        x = c["x"]
        if "y" in c:
            return fam.is_family_member(h.product(x, c["y"]))
        xi = h.inverse(x)
        return (fam.is_family_member(xi)
                and h.product(x, xi) == h.zero
                and h.product(xi, x) == h.zero)

    return run_law("homotope-monoid", "family-group-laws", swept, holds,
                   notes=("family:%s" % fam.name, "members:%d" % len(pool)))


def check_hull_closure(fam):
    """The hull contains 0, the first case, and is closed under the product."""
    h = fam.hom
    pool = hull(fam)
    hull_set = set(pool)

    def holds(c):
        if "unit" in c:
            return fam.condition(h.zero)
        return h.product(c["x"], c["y"]) in hull_set

    swept = itertools.chain([{"unit": "missing"}], every(pool, "xy"))
    return run_law("hull-closure", "hull-closure", swept, holds,
                   notes=("family:%s" % fam.name,
                          "param:%s" % format_matrix(h.param),
                          "hull:%d" % len(pool)))


def check_member_criterion_sides(field, config, p=2, q=3):
    """1 - x a and 1 - a x are invertible together."""

    def holds(c):
        x, a = c["x"], c["a"]
        left = is_invertible(Matrix.identity(field, p) - x * a)
        right = is_invertible(Matrix.identity(field, q) - a * x)
        return left == right

    return run_law("homotope-monoid", "member-criterion-sides",
                   cases(config, _matrix_slots(field, x=(p, q), a=(q, p))),
                   holds)


def check_associativity(field, config, p=2, q=2):
    """The deformed product is associative on all matrices."""

    slots = _matrix_slots(field, a=(q, p), x=(p, q), y=(p, q), z=(p, q))

    def holds(c):
        h = Homotope(c["a"])
        x, y, z = c["x"], c["y"], c["z"]
        return h.product(h.product(x, y), z) == h.product(x, h.product(y, z))

    return run_law("homotope-monoid", "product-associativity",
                   cases(config, slots), holds)


# -- charts of the pentary product -------------------------------------------


def check_chart_product(field, n, config):
    """The pentary product of graphs charts to the deformed product.

    With base points o+ (graphs' domain axis) and o-, and the parameter
    subspace {(B w, w)} in the fourth slot, the pentary product of
    graph(X) and graph(Z) is the graph of X + Z - X B Z.
    """
    bt = standard_triple(field, n)

    def holds(c):
        X, B, Z = c["X"], c["B"], c["Z"]
        w = gamma_global(graph_of(X), bt.o_minus, bt.o_plus, graph_minus(B),
                         graph_of(Z))
        return w == graph_of(X + Z - X * B * Z)

    slots = _matrix_slots(field, **dict.fromkeys("XBZ", (n, n)))
    # The bridge suite runs this law; perfbench/expected.json pins its name.
    return run_law("homotope", "pentary-chart-product", cases(config, slots),
                   holds)


# -- triple systems ----------------------------------------------------------


def plain_triple(x, y, z):
    """x y z for the two-sided module pair (p x q, q x p)."""
    return x * y * z


def star_triple(star):
    """x star(y) z on one matrix space, star a transpose-like map."""
    return lambda x, y, z: x * star(y) * z


def check_pair_identity(field, p, q, config):
    """Shifting the product through the two-component pair.

    x, z, v sit in M(p, q) and y, u in M(q, p); moving the inner triple
    across slots never changes the value.
    """

    def holds(c):
        x, y, z, u, v = c["x"], c["y"], c["z"], c["u"], c["v"]
        e1 = plain_triple(x, y, plain_triple(z, u, v))
        e2 = plain_triple(plain_triple(x, y, z), u, v)
        e3 = plain_triple(x, plain_triple(y, z, u), v)
        return e1 == e2 and e2 == e3

    slots = _matrix_slots(field, x=(p, q), y=(q, p), z=(p, q), u=(q, p),
                          v=(p, q))
    return run_law("triple-systems", "pair-shift-identity",
                   cases(config, slots), holds)


def check_second_kind_identity(field, p, q, config):
    """x star(y) z obeys the shift law with a reversed middle triple."""
    t = star_triple(Matrix.conj_t)

    def holds(c):
        x, y, z, u, v = c["x"], c["y"], c["z"], c["u"], c["v"]
        if t(t(x, y, z), u, v) != t(x, y, t(z, u, v)):
            return False
        if t(t(x, y, z), u, v) != t(x, t(u, z, y), v):
            return False
        return t(u, t(x, y, z), v) == t(t(u, z, y), x, v)

    slots = _matrix_slots(field, **dict.fromkeys("xyzuv", (p, q)))
    return run_law("triple-systems", "second-kind-shift-identity",
                   cases(config, slots), holds)


def check_first_kind_control(field, p, q, config):
    """The unreversed middle shift must fail for the starred triple.

    The report passes when at least one counterexample turns up; a clean
    sweep would mean the two shift laws are indistinguishable here.
    """
    t = star_triple(Matrix.conj_t)
    slots = _matrix_slots(field, **dict.fromkeys("xyzuv", (p, q)))
    found = sum(t(c["x"], t(c["y"], c["z"], c["u"]), c["v"])
                != t(c["x"], c["y"], t(c["z"], c["u"], c["v"]))
                for c in cases(config, slots))
    return run_law("triple-systems", "first-kind-negative-control",
                   [{"violations": found}], lambda c: found > 0,
                   notes=("violations:%d" % found,))


def check_triple_via_involution(field, n, config):
    """The starred triple is the pentary product with a reflected middle.

    The middle slot passes through the orthocomplement for the diagonal
    plus/minus form, which exchanges the two base points; on graphs the
    result is graph(Z star(Y) X), outer slots entering in reverse order,
    including singular Y.
    """
    from .subspaces import diag_form
    inv = ortho_involution(diag_form(field, n))
    bt = standard_triple(field, n)

    def holds(c):
        X, Y, Z = c["X"], c["Y"], c["Z"]
        w = gamma_global(graph_of(X), bt.o_plus, inv(graph_of(Y)),
                         bt.o_minus, graph_of(Z))
        return w == graph_of(Z * Y.conj_t() * X)

    slots = _matrix_slots(field, **dict.fromkeys("XYZ", (n, n)))
    return run_law("triple-systems", "starred-triple-chart",
                   cases(config, slots), holds)


# -- bridges -----------------------------------------------------------------


def graph_star_roundtrip(field, n, config):
    """Orthocomplement for the standard skew pairing stars the graph.

    tau(graph a) = graph(star a) for every square a, with star the
    (conjugate) transpose; applying tau twice returns the graph.
    """
    inv = ortho_involution(symplectic_form(field, n))

    slots = Slots(_matrix_slots(field, a=(n, n)).draw,
                  lambda: {"a": tuple(all_matrices(field, n, n))})

    def holds(c):
        a = c["a"]
        g = graph_of(a)
        image = inv(g)
        return image == graph_of(a.conj_t()) and inv(image) == g

    return run_law("bridge", "graph-star-roundtrip", cases(config, slots),
                   holds)


def _bridge_setup(name, field, a_param):
    kind = FAMILIES.get(name)
    if kind is None or kind.bridge_form is None:
        raise ValueError("bridge families are o and sp")
    if not kind.fits(a_param):
        raise ValueError("the %s bridge needs %s parameter"
                         % (name, kind.adjective))
    n = a_param.nrows
    inv = ortho_involution(kind.bridge_form(field, n))
    bt = standard_triple(field, n)
    a_sub = graph_minus(a_param)
    return n, bt, inv, a_sub, inv(a_sub)


def family_table_bridge(name, field, a_param):
    """The fixed-point torsor charts onto the classical family table.

    Elements move by the chart translation with parameter A; the images
    must be exactly the family with parameter 2A, which is the first case,
    and the two tables must match entry by entry under that bijection.
    """
    n, bt, inv, a_sub, ta_sub = _bridge_setup(name, field, a_param)
    fam = classical_family(name, field, a_param + a_param)
    carrier, _ = torsor_G(inv, a_sub)
    t_op = translation_op(a_param, bt)
    chart = {x: chart_of(pushforward(t_op, x), n) for x in carrier}
    family = members(fam)
    onto = set(chart.values()) == set(family)

    def holds(c):
        if "carrier" in c:
            return onto
        x1, x2 = c["x1"], c["x2"]
        w = gamma_global(x1, ta_sub, bt.o_plus, a_sub, x2)
        return chart.get(w) == fam.hom.product(chart[x1], chart[x2])

    sizes = {"carrier": len(carrier), "family": len(family)}
    swept = itertools.chain([sizes],
                            every(carrier, ("x1", "x2")) if onto else ())
    return run_law("bridge", name + "-family-table", swept, holds,
                   notes=("carrier:%d" % len(carrier),))


def unitary_transport_bridge(field, a_param):
    """Translation by A carries the fixed torsor onto the twisted unitary set.

    The source is the fixed-point torsor of the split-form complement at
    {(A v, v)}; the target is the subgroup of complements x of both
    {(2A v, v)} and the second axis with tau(x) equal to the group inverse,
    for the plain skew-form complement tau.  That the translation is a
    bijection is the first case; then, same translation, same table.
    """
    if not FAMILIES["o"].fits(a_param):
        raise ValueError("the bridge needs a symmetric parameter")
    n, bt, inv_split, a_sub, ta_sub = _bridge_setup("o", field, a_param)
    inv_symp = ortho_involution(symplectic_form(field, n))
    two_a = graph_minus(a_param + a_param)
    view, u_product = unitary_group(inv_symp, two_a, bt.o_plus, bt.o_minus)
    carrier, _ = torsor_G(inv_split, a_sub)
    t_op = translation_op(a_param, bt)
    moved = {x: pushforward(t_op, x) for x in carrier}
    onto = set(moved.values()) == set(view.elements)
    inverse_moved = {y: x for x, y in moved.items()}

    def holds(c):
        if "carrier" in c:
            return onto
        x1, x2 = c["x1"], c["x2"]
        w = gamma_global(x1, a_sub, bt.o_plus, ta_sub, x2)
        target = u_product(moved[x1], bt.o_plus, moved[x2])
        return moved.get(w) == target and inverse_moved.get(target) == w

    sizes = {"carrier": len(carrier), "unitary": len(view.elements)}
    swept = itertools.chain([sizes],
                            every(carrier, ("x1", "x2")) if onto else ())
    return run_law("bridge", "twisted-unitary-transport", swept, holds,
                   notes=("carrier:%d" % len(carrier),
                          "unitary:%d" % len(view.elements)))
