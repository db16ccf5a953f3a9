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
for u), a sign (-1 for sp), the adjective a parameter must satisfy and the
canonical parameter of the hull sweep.  A row's bridge form is the
hyperbolic form of its sign, [[0, I], [sign I, 0]] (split for o, symplectic
for sp); the rows that bridge are those whose star is the plain transpose.
A family is a Homotope that carries the name of its row, gl when none is
given.  A family member x satisfies star(x) + sign x = star(x) a x, its
parameter star(a) = sign a, and r + sign star(r) symmetrizes any square r
into a parameter.

The laws sample fixed shapes: the bracket laws and associativity 2 x 2
matrices, the two-route bracket one of five shapes up to 3 x 3, the member
criterion 2 x 3 matrices with a 3 x 2 parameter, and the triple laws 2 x 3
matrices (3 x 2 in the middle slots of the pair identity).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .fields import DualRing
from .gamma import gamma_global
from .involutions import (ortho_involution, standard_triple, torsor_G,
                          translation_op, unitary_group)
from .matrices import (Matrix, all_matrices, format_matrix, is_invertible,
                       mat_invert, random_matrix)
from .reports import cases, every, run_law
from .subspaces import (chart_of, diag_form, graph_minus, graph_of,
                        hyperbolic_form, image_under, symplectic_form)


@dataclass(frozen=True)
class Homotope:
    """p x q matrices under x . y = x + y - x a y for a fixed q x p a,
    cut out by the symmetry condition of a FAMILIES row."""

    param: Matrix
    family: str = "gl"

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

    def condition(self, x):
        return FAMILIES[self.family].condition(x, self.param)


def _matrix_draw(field, **shapes):
    """A draw of one random matrix per name, of its (rows, cols) shape."""
    return lambda rng: {n: random_matrix(field, p, q, rng)
                        for n, (p, q) in shapes.items()}


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
    inner = DualRing(base)
    ring = DualRing(inner)

    def lift(m, times):
        return Matrix(ring, m.ncols,
                      tuple(tuple(times(e) for e in row) for row in m.entries))

    u = lift(x, lambda e: ring.embed(inner.eps_times(e)))
    v = lift(y, lambda e: ring.eps_times(inner.embed(e)))
    h = Homotope(lift(a, lambda e: ring.embed(inner.embed(e))))
    c = h.product(h.product(h.product(v, u), h.inverse(v)), h.inverse(u))
    # coefficients of 1, e1, e2 and e1*e2
    parts = [Matrix(base, x.ncols,
                    tuple(tuple(e[i][k] for e in row) for row in c.entries))
             for i in (0, 1) for k in (0, 1)]
    if not (parts[0].is_zero() and parts[1].is_zero() and parts[2].is_zero()):
        raise ArithmeticError("commutator kept terms below the top coefficient")
    return parts[3]


def check_bracket_agreement(field, config):
    """Commutator route equals the formula, square and rectangular."""
    shapes = ((1, 1), (2, 2), (3, 3), (2, 3), (3, 2))

    def draw(rng):
        p, q = shapes[rng.below(len(shapes))]
        return _matrix_draw(field, x=(p, q), y=(p, q), a=(q, p))(rng)

    def holds(x, y, a):
        return lie_bracket_dual(x, y, a) == lie_bracket_formula(x, y, a)

    return run_law("lie-bracket", "bracket-two-routes", holds, config, draw)


def check_bracket_laws(field, config):
    """Antisymmetry and the Jacobi identity for x a y - y a x."""

    def holds(x, y, z, a):
        if lie_bracket_formula(x, y, a) != -lie_bracket_formula(y, x, a):
            return False
        total = (lie_bracket_formula(x, lie_bracket_formula(y, z, a), a)
                 + lie_bracket_formula(y, lie_bracket_formula(z, x, a), a)
                 + lie_bracket_formula(z, lie_bracket_formula(x, y, a), a))
        return total.is_zero()

    draw = _matrix_draw(field, **dict.fromkeys("xyza", (2, 2)))
    return run_law("bracket-laws", "bracket-laws", holds, config, draw)


# -- classical families ------------------------------------------------------


@dataclass(frozen=True)
class FamilyKind:
    """One row of the family table; a star of None imposes no condition."""

    title: str
    star: object = None
    sign: int = 1
    adjective: str = ""
    canonical: object = Matrix.identity

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
    "o": FamilyKind("orthogonal", Matrix.transpose, 1, "a symmetric"),
    "sp": FamilyKind("symplectic", Matrix.transpose, -1, "an antisymmetric",
                     lambda field, n: Matrix.zeros(field, n, n)),
    "u": FamilyKind("unitary", Matrix.conj_t, 1, "a hermitian"),
}
BRIDGE_FAMILIES = tuple(name for name, kind in FAMILIES.items()
                        if kind.star is Matrix.transpose)


def classical_family(name, param):
    """Homotope(param, name), over param's ring, if param fits the row."""
    if name not in FAMILIES:
        raise ValueError("unknown family %r" % name)
    kind = FAMILIES[name]
    if param.ncols != param.nrows:
        raise ValueError("family parameter must be square")
    if kind.star is Matrix.conj_t and param.ring.involution == "identity":
        raise ValueError("the %s family needs a conjugation" % kind.title)
    if not kind.fits(param):
        raise ValueError("the %s family needs %s parameter"
                         % (kind.title, kind.adjective))
    return Homotope(param, name)


def family_params(name, field, n, config):
    """Canonical parameter first, then two symmetrized draws, deduplicated.

    The draws are sampled in every mode.
    """
    kind = FAMILIES[name]
    draws = cases(replace(config, trials=2), _matrix_draw(field, r=(n, n)))
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
    return [x for x in all_matrices(fam.field, fam.p, fam.q)
            if fam.condition(x)]


def members(fam):
    """Group elements of the family, enumerated over a finite field."""
    return [x for x in hull(fam) if fam.is_member(x)]


def check_group_laws(fam):
    """Members form a group: closure, unit 0, two-sided inverses.

    `members` lists every member over the finite field, so a product or an
    inverse is a member exactly when it is one of them: closure is decided
    by lookup.  Without the unit 0 the whole check is one failing case.
    """
    pool = members(fam)
    member_set = set(pool)
    if fam.zero in member_set:
        swept = itertools.chain(every(pool, "x"), every(pool, "xy"))
    else:
        swept = [{"unit": "missing"}]

    def holds(x=None, y=None, unit=None):
        if unit:
            return fam.zero in member_set
        if y is not None:
            return fam.product(x, y) in member_set
        xi = fam.inverse(x)
        return (xi in member_set
                and fam.product(x, xi) == fam.zero
                and fam.product(xi, x) == fam.zero)

    return run_law("homotope-monoid", "family-group-laws", holds,
                   enumerate_all=lambda: swept,
                   notes=("family:%s" % fam.family, "members:%d" % len(pool)))


def check_hull_closure(fam):
    """The hull contains 0, the first case, and is closed under the product."""
    pool = hull(fam)
    hull_set = set(pool)

    def holds(x=None, y=None, unit=None):
        if unit:
            return fam.condition(fam.zero)
        return fam.product(x, y) in hull_set

    swept = itertools.chain([{"unit": "missing"}], every(pool, "xy"))
    return run_law("hull-closure", "hull-closure", holds,
                   enumerate_all=lambda: swept,
                   notes=("family:%s" % fam.family,
                          "param:%s" % format_matrix(fam.param),
                          "hull:%d" % len(pool)))


def check_member_criterion_sides(field, config):
    """1 - x a and 1 - a x are invertible together."""
    p, q = 2, 3

    def holds(x, a):
        left = is_invertible(Matrix.identity(field, p) - x * a)
        right = is_invertible(Matrix.identity(field, q) - a * x)
        return left == right

    return run_law("homotope-monoid", "member-criterion-sides", holds, config,
                   _matrix_draw(field, x=(p, q), a=(q, p)))


def check_associativity(field, config):
    """The deformed product is associative on all 2 x 2 matrices."""

    draw = _matrix_draw(field, **dict.fromkeys("axyz", (2, 2)))

    def holds(a, x, y, z):
        h = Homotope(a)
        return h.product(h.product(x, y), z) == h.product(x, h.product(y, z))

    return run_law("homotope-monoid", "product-associativity", holds, config,
                   draw)


# -- charts of the pentary product -------------------------------------------


def check_chart_product(field, n, config):
    """The pentary product of graphs charts to the deformed product.

    With base points o+ (graphs' domain axis) and o-, and the parameter
    subspace {(B w, w)} in the fourth slot, the pentary product of
    graph(X) and graph(Z) is the graph of X + Z - X B Z.
    """
    bt = standard_triple(field, n)

    def holds(X, B, Z):
        w = gamma_global(graph_of(X), bt.o_minus, bt.o_plus, graph_minus(B),
                         graph_of(Z))
        return w == graph_of(X + Z - X * B * Z)

    draw = _matrix_draw(field, **dict.fromkeys("XBZ", (n, n)))
    # The bridge suite runs this law; perfbench/expected.json pins its name.
    return run_law("homotope", "pentary-chart-product", holds, config, draw)


# -- triple systems ----------------------------------------------------------


def plain_triple(x, y, z):
    """x y z for the two-sided module pair (p x q, q x p)."""
    return x * y * z


def star_triple(x, y, z):
    """x y* z on one matrix space, y* the conjugate transpose."""
    return x * y.conj_t() * z


def check_pair_identity(field, config):
    """Shifting the product through the two-component pair.

    x, z, v sit in M(2, 3) and y, u in M(3, 2); moving the inner triple
    across slots never changes the value.
    """

    def holds(x, y, z, u, v):
        e1 = plain_triple(x, y, plain_triple(z, u, v))
        e2 = plain_triple(plain_triple(x, y, z), u, v)
        e3 = plain_triple(x, plain_triple(y, z, u), v)
        return e1 == e2 and e2 == e3

    draw = _matrix_draw(field, x=(2, 3), y=(3, 2), z=(2, 3), u=(3, 2),
                        v=(2, 3))
    return run_law("triple-systems", "pair-shift-identity", holds, config,
                   draw)


def check_second_kind_identity(field, config):
    """x y* z obeys the shift law with a reversed middle triple."""
    t = star_triple

    def holds(x, y, z, u, v):
        if t(t(x, y, z), u, v) != t(x, y, t(z, u, v)):
            return False
        if t(t(x, y, z), u, v) != t(x, t(u, z, y), v):
            return False
        return t(u, t(x, y, z), v) == t(t(u, z, y), x, v)

    draw = _matrix_draw(field, **dict.fromkeys("xyzuv", (2, 3)))
    return run_law("triple-systems", "second-kind-shift-identity", holds,
                   config, draw)


def check_first_kind_control(field, config):
    """The unreversed middle shift must fail for the starred triple.

    The report passes when at least one counterexample turns up; a clean
    sweep would mean the two shift laws are indistinguishable here.
    """
    t = star_triple
    draw = _matrix_draw(field, **dict.fromkeys("xyzuv", (2, 3)))
    found = sum(t(c["x"], t(c["y"], c["z"], c["u"]), c["v"])
                != t(c["x"], c["y"], t(c["z"], c["u"], c["v"]))
                for c in cases(config, draw))
    return run_law("triple-systems", "first-kind-negative-control",
                   lambda violations: violations > 0,
                   enumerate_all=lambda: [{"violations": found}],
                   notes=("violations:%d" % found,))


def check_triple_via_involution(field, n, config):
    """The starred triple is the pentary product with a reflected middle.

    The middle slot passes through the orthocomplement for the diagonal
    plus/minus form, which exchanges the two base points; on graphs the
    result is graph(Z star(Y) X), outer slots entering in reverse order,
    including singular Y.
    """
    inv = ortho_involution(diag_form(field, n))
    bt = standard_triple(field, n)

    def holds(X, Y, Z):
        w = gamma_global(graph_of(X), bt.o_plus, inv(graph_of(Y)),
                         bt.o_minus, graph_of(Z))
        return w == graph_of(Z * Y.conj_t() * X)

    draw = _matrix_draw(field, **dict.fromkeys("XYZ", (n, n)))
    return run_law("triple-systems", "starred-triple-chart", holds, config,
                   draw)


# -- bridges -----------------------------------------------------------------


def graph_star_roundtrip(field, n, config):
    """Orthocomplement for the standard skew pairing stars the graph.

    tau(graph a) = graph(star a) for every square a, with star the
    (conjugate) transpose; applying tau twice returns the graph.
    """
    inv = ortho_involution(symplectic_form(field, n))

    def holds(a):
        g = graph_of(a)
        image = inv(g)
        return image == graph_of(a.conj_t()) and inv(image) == g

    return run_law("bridge", "graph-star-roundtrip", holds, config,
                   _matrix_draw(field, a=(n, n)),
                   lambda: every(all_matrices(field, n, n), "a"))


def _bridge_setup(name, a_param):
    if name not in BRIDGE_FAMILIES:
        raise ValueError("bridge families are %s"
                         % " and ".join(BRIDGE_FAMILIES))
    kind = FAMILIES[name]
    if not kind.fits(a_param):
        raise ValueError("the %s bridge needs %s parameter"
                         % (name, kind.adjective))
    field, n = a_param.ring, a_param.nrows
    inv = ortho_involution(hyperbolic_form(Matrix.identity(field, n),
                                           kind.sign))
    bt = standard_triple(field, n)
    a_sub = graph_minus(a_param)
    return n, bt, inv, a_sub, inv(a_sub)


def family_table_bridge(name, a_param):
    """The fixed-point torsor charts onto the classical family table.

    Elements move by the chart translation with parameter A; the images
    must be exactly the family with parameter 2A, which is the first case,
    and the two tables must match entry by entry under that bijection.

    The family conditions use the plain transpose, so a field with a
    conjugation is out of scope (ValueError).
    """
    n, bt, inv, a_sub, ta_sub = _bridge_setup(name, a_param)
    if a_param.ring.involution != "identity":
        raise ValueError("the %s family table bridge assumes a plain"
                         " transpose" % name)
    fam = classical_family(name, a_param + a_param)
    carrier = torsor_G(inv, a_sub)
    t_op = translation_op(a_param)
    chart = {x: chart_of(image_under(t_op, x), n) for x in carrier}
    family = members(fam)
    onto = set(chart.values()) == set(family)

    def holds(x1=None, x2=None, **sizes):
        if sizes:
            return onto
        w = gamma_global(x1, ta_sub, bt.o_plus, a_sub, x2)
        return chart.get(w) == fam.product(chart[x1], chart[x2])

    sizes = {"carrier": len(carrier), "family": len(family)}
    swept = itertools.chain([sizes],
                            every(carrier, ("x1", "x2")) if onto else ())
    return run_law("bridge", name + "-family-table", holds,
                   enumerate_all=lambda: swept,
                   notes=("carrier:%d" % len(carrier),))


def unitary_transport_bridge(a_param):
    """Translation by A carries the fixed torsor onto the twisted unitary set.

    The source is the fixed-point torsor of the split-form complement at
    {(A v, v)}; the target is the subgroup of complements x of both
    {(2A v, v)} and the second axis with tau(x) equal to the group inverse,
    for the plain skew-form complement tau.  The translation is injective,
    since translation_op(A) is invertible, and the first case is that it is
    onto the target; then, same translation, same table.  If
    `unitary_group` refuses its parameters (a tau that moves one of them),
    the target is empty and the first case fails.
    """
    n, bt, inv_split, a_sub, ta_sub = _bridge_setup("o", a_param)
    inv_symp = ortho_involution(symplectic_form(a_param.ring, n))
    two_a = graph_minus(a_param + a_param)
    try:
        unitary = unitary_group(inv_symp, two_a, bt.o_plus, bt.o_minus)
    except ValueError:
        unitary = ()
    carrier = torsor_G(inv_split, a_sub)
    t_op = translation_op(a_param)
    moved = {x: image_under(t_op, x) for x in carrier}
    onto = set(moved.values()) == set(unitary)

    def holds(x1=None, x2=None, **sizes):
        if sizes:
            return onto
        w = gamma_global(x1, a_sub, bt.o_plus, ta_sub, x2)
        target = gamma_global(moved[x1], two_a, bt.o_plus, bt.o_minus,
                              moved[x2])
        return moved.get(w) == target

    sizes = {"carrier": len(carrier), "unitary": len(unitary)}
    swept = itertools.chain([sizes],
                            every(carrier, ("x1", "x2")) if onto else ())
    return run_law("bridge", "twisted-unitary-transport", holds,
                   enumerate_all=lambda: swept,
                   notes=("carrier:%d" % len(carrier),
                          "unitary:%d" % len(unitary)))
