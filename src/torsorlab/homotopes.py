"""Matrix products deformed by a parameter, and the groups they carry.

For a fixed q x p parameter a, the deformed product on p x q matrices is
x . y = x + y - x a y.  The matrices with 1 - x a invertible form a group
with unit 0 and inverse -(1 - x a)^-1 x; dropping the invertibility
condition leaves a monoid, called the hull here.  Symmetry conditions
carve out orthogonal, symplectic, and unitary style families; nilpotent
scalar extensions recover the bracket x a y - y a x from a group
commutator; and graphs of matrices tie the deformed product back to the
pentary product on subspaces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fields import BiDualRing
from .gamma import gamma_global
from .involutions import (ortho_involution, standard_triple, torsor_G,
                          translation_op, unitary_group)
from .matrices import (Matrix, all_matrices, format_matrix, is_invertible,
                       mat_invert, random_matrix)
from .reports import Report, Slots, cases, every, run_law
from .subspaces import (chart_of, graph_minus, graph_of, pushforward,
                        split_form, symplectic_form)


@dataclass(frozen=True)
class Homotope:
    """p x q matrices under x . y = x + y - x a y for a fixed q x p a."""

    field: object
    p: int
    q: int
    param: Matrix

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


def homotope(field, param):
    return Homotope(field, param.ncols, param.nrows, param)


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
    am = lift(a, ring.embed)
    eye = Matrix.identity(ring, x.nrows)

    def mul(w1, w2):
        return w1 + w2 - w1 * am * w2

    def inv(w):
        return -(mat_invert(eye - w * am) * w)

    c = mul(mul(mul(v, u), inv(v)), inv(u))
    parts = [Matrix(base, x.nrows, x.ncols,
                    tuple(tuple(e[k] for e in row) for row in c.entries))
             for k in range(4)]
    if not (parts[0].is_zero() and parts[1].is_zero() and parts[2].is_zero()):
        raise ArithmeticError("commutator kept terms below the top coefficient")
    return parts[3]


def check_bracket_agreement(field, config, suite="lie-bracket",
                            shapes=((1, 1), (2, 2), (3, 3), (2, 3), (3, 2))):
    """Commutator route equals the formula, square and rectangular."""

    def draw(rng):
        p, q = shapes[rng.below(len(shapes))]
        return _matrix_slots(field, x=(p, q), y=(p, q), a=(q, p)).draw(rng)

    def holds(c):
        return (lie_bracket_dual(c["x"], c["y"], c["a"])
                == lie_bracket_formula(c["x"], c["y"], c["a"]))

    return run_law(suite, "bracket-two-routes", cases(config, Slots(draw)),
                   holds)


def check_bracket_laws(field, config, suite="lie-bracket", n=2):
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
    return run_law(suite, "bracket-laws", cases(config, slots), holds)


# -- classical families ------------------------------------------------------


FAMILY_NAMES = ("gl", "o", "sp", "u")


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
        a = self.hom.param
        if self.name == "gl":
            return True
        if self.name == "o":
            return x + x.transpose() == x.transpose() * a * x
        if self.name == "sp":
            return x.transpose() - x == x.transpose() * a * x
        return x + x.conj_t() == x.conj_t() * a * x

    def is_family_member(self, x):
        return self.condition(x) and self.hom.is_member(x)

    def is_hull_member(self, x):
        return self.condition(x)


def classical_family(name, field, param):
    name = name.lower()
    if name not in FAMILY_NAMES:
        raise ValueError("unknown family %r" % name)
    n = param.nrows
    if param.ncols != n:
        raise ValueError("family parameter must be square")
    if name == "o" and param.transpose() != param:
        raise ValueError("the orthogonal family needs a symmetric parameter")
    if name == "sp" and param.transpose() != -param:
        raise ValueError("the symplectic family needs an antisymmetric parameter")
    if name == "u":
        if field.involution == "identity":
            raise ValueError("the unitary family needs a conjugation")
        if param.conj_t() != param:
            raise ValueError("the unitary family needs a hermitian parameter")
    return ClassicalFamily(name, Homotope(field, n, n, param))


def members(fam):
    """Group elements of the family, enumerated over a finite field."""
    return [x for x in all_matrices(fam.field, fam.n, fam.n)
            if fam.is_family_member(x)]


def hull(fam):
    """Monoid elements: the symmetry condition without invertibility."""
    return [x for x in all_matrices(fam.field, fam.n, fam.n)
            if fam.is_hull_member(x)]


def check_group_laws(fam, config, suite="homotope"):
    """Members form a group: closure, unit 0, two-sided inverses."""
    h = fam.hom
    pool = members(fam)
    law = "family-group-laws"
    notes = ("family:%s" % fam.name, "members:%d" % len(pool))
    if not fam.is_family_member(h.zero):
        return Report(suite=suite, law=law, cases=1, failures=1,
                      first_counterexample={"unit": "missing"}, notes=notes)

    def holds(c):
        x = c["x"]
        if "y" in c:
            return fam.is_family_member(h.product(x, c["y"]))
        xi = h.inverse(x)
        return (fam.is_family_member(xi)
                and h.product(x, xi) == h.zero
                and h.product(xi, x) == h.zero)

    swept = itertools.chain(every(pool, "x"), every(pool, "xy"))
    return run_law(suite, law, swept, holds, notes=notes)


def check_hull_closure(fam, suite="hull-closure"):
    """The hull is closed under the deformed product and contains 0."""
    h = fam.hom
    pool = hull(fam)
    hull_set = set(pool)
    report = run_law(suite, "hull-closure", every(pool, "xy"),
                     lambda c: h.product(c["x"], c["y"]) in hull_set,
                     notes=("family:%s" % fam.name,
                            "param:%s" % format_matrix(h.param),
                            "hull:%d" % len(pool)))
    # One more case, checked first: the unit 0 lies in the hull.
    report.cases += 1
    if not fam.is_hull_member(h.zero):
        report.failures += 1
        report.first_counterexample = {"unit": "missing"}
    return report


def check_member_criterion_sides(field, config, suite="homotope", p=2, q=3):
    """1 - x a and 1 - a x are invertible together."""

    def holds(c):
        x, a = c["x"], c["a"]
        left = is_invertible(Matrix.identity(field, p) - x * a)
        right = is_invertible(Matrix.identity(field, q) - a * x)
        return left == right

    return run_law(suite, "member-criterion-sides",
                   cases(config, _matrix_slots(field, x=(p, q), a=(q, p))),
                   holds)


def check_associativity(field, config, suite="homotope", p=2, q=2):
    """The deformed product is associative on all matrices."""

    slots = _matrix_slots(field, a=(q, p), x=(p, q), y=(p, q), z=(p, q))

    def holds(c):
        h = Homotope(field, p, q, c["a"])
        x, y, z = c["x"], c["y"], c["z"]
        return h.product(h.product(x, y), z) == h.product(x, h.product(y, z))

    return run_law(suite, "product-associativity", cases(config, slots),
                   holds)


# -- charts of the pentary product -------------------------------------------


def check_chart_product(field, n, config, suite="homotope"):
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
    return run_law(suite, "pentary-chart-product", cases(config, slots), holds)


# -- triple systems ----------------------------------------------------------


def plain_triple(x, y, z):
    """x y z for the two-sided module pair (p x q, q x p)."""
    return x * y * z


def star_triple(star):
    """x star(y) z on one matrix space, star a transpose-like map."""
    return lambda x, y, z: x * star(y) * z


def check_pair_identity(field, p, q, config, suite="triple-systems"):
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
    return run_law(suite, "pair-shift-identity", cases(config, slots), holds)


def check_second_kind_identity(field, p, q, config, suite="triple-systems"):
    """x star(y) z obeys the shift law with a reversed middle triple."""
    star = (lambda m: m.conj_t()) if field.involution != "identity" \
        else (lambda m: m.transpose())
    t = star_triple(star)

    def holds(c):
        x, y, z, u, v = c["x"], c["y"], c["z"], c["u"], c["v"]
        if t(t(x, y, z), u, v) != t(x, y, t(z, u, v)):
            return False
        if t(t(x, y, z), u, v) != t(x, t(u, z, y), v):
            return False
        return t(u, t(x, y, z), v) == t(t(u, z, y), x, v)

    slots = _matrix_slots(field, **dict.fromkeys("xyzuv", (p, q)))
    return run_law(suite, "second-kind-shift-identity", cases(config, slots),
                   holds)


def check_first_kind_control(field, p, q, config, suite="triple-systems"):
    """The unreversed middle shift must fail for the starred triple.

    The report passes when at least one counterexample turns up; a clean
    sweep would mean the two shift laws are indistinguishable here.
    """
    star = (lambda m: m.conj_t()) if field.involution != "identity" \
        else (lambda m: m.transpose())
    t = star_triple(star)
    report = Report(suite=suite, law="first-kind-negative-control")
    slots = _matrix_slots(field, **dict.fromkeys("xyzuv", (p, q)))
    found = sum(t(c["x"], t(c["y"], c["z"], c["u"]), c["v"])
                != t(c["x"], c["y"], t(c["z"], c["u"], c["v"]))
                for c in cases(config, slots))
    report.cases = 1
    report.notes = ("violations:%d" % found,)
    if found == 0:
        report.failures = 1
        report.first_counterexample = {"violations": 0}
    return report


def check_triple_via_involution(field, n, config, suite="triple-systems"):
    """The starred triple is the pentary product with a reflected middle.

    The middle slot passes through the orthocomplement for the diagonal
    plus/minus form, which exchanges the two base points; on graphs the
    result is graph(Z star(Y) X), outer slots entering in reverse order,
    including singular Y.
    """
    from .subspaces import diag_form
    inv = ortho_involution(diag_form(field, n))
    bt = standard_triple(field, n)
    star = (lambda m: m.conj_t()) if field.involution != "identity" \
        else (lambda m: m.transpose())

    def holds(c):
        X, Y, Z = c["X"], c["Y"], c["Z"]
        w = gamma_global(graph_of(X), bt.o_plus, inv(graph_of(Y)),
                         bt.o_minus, graph_of(Z))
        return w == graph_of(Z * star(Y) * X)

    slots = _matrix_slots(field, **dict.fromkeys("XYZ", (n, n)))
    return run_law(suite, "starred-triple-chart", cases(config, slots), holds)


# -- bridges -----------------------------------------------------------------


def graph_star_roundtrip(field, n, config, suite="bridge"):
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

    return run_law(suite, "graph-star-roundtrip", cases(config, slots), holds)


def _bridge_setup(name, field, a_param):
    n = a_param.nrows
    if name == "o":
        if a_param.transpose() != a_param:
            raise ValueError("the o bridge needs a symmetric parameter")
        inv = ortho_involution(split_form(field, n))
    elif name == "sp":
        if a_param.transpose() != -a_param:
            raise ValueError("the sp bridge needs an antisymmetric parameter")
        inv = ortho_involution(symplectic_form(field, n))
    else:
        raise ValueError("bridge families are o and sp")
    bt = standard_triple(field, n)
    a_sub = graph_minus(a_param)
    return n, bt, inv, a_sub, inv(a_sub)


def family_table_bridge(name, field, a_param, suite="bridge"):
    """The fixed-point torsor charts onto the classical family table.

    Elements move by the chart translation with parameter A; the images
    must be exactly the family with parameter 2A and the two tables must
    match entry by entry under that bijection.
    """
    n, bt, inv, a_sub, ta_sub = _bridge_setup(name, field, a_param)
    fam = classical_family(name, field, a_param + a_param)
    carrier, _ = torsor_G(inv, a_sub)
    t_op = translation_op(a_param, bt)
    chart = {x: chart_of(pushforward(t_op, x), n) for x in carrier}
    law = name + "-family-table"
    notes = ("carrier:%d" % len(carrier),)
    if set(chart.values()) != set(members(fam)):
        return Report(suite=suite, law=law, cases=1, failures=1, notes=notes,
                      first_counterexample={"carrier": len(carrier),
                                            "family": len(members(fam))})

    def holds(c):
        x1, x2 = c["x1"], c["x2"]
        w = gamma_global(x1, ta_sub, bt.o_plus, a_sub, x2)
        return chart.get(w) == fam.hom.product(chart[x1], chart[x2])

    report = run_law(suite, law, every(carrier, ("x1", "x2")), holds,
                     notes=notes)
    report.cases += 1  # the bijection check above
    return report


def unitary_transport_bridge(field, a_param, suite="bridge"):
    """Translation by A carries the fixed torsor onto the twisted unitary set.

    The source is the fixed-point torsor of the split-form complement at
    {(A v, v)}; the target is the subgroup of complements x of both
    {(2A v, v)} and the second axis with tau(x) equal to the group inverse,
    for the plain skew-form complement tau.  Same translation, same table.
    """
    if a_param.transpose() != a_param:
        raise ValueError("the bridge needs a symmetric parameter")
    n, bt, inv_split, a_sub, ta_sub = _bridge_setup("o", field, a_param)
    inv_symp = ortho_involution(symplectic_form(field, n))
    two_a = graph_minus(a_param + a_param)
    view, u_product = unitary_group(inv_symp, two_a, bt.o_plus, bt.o_minus)
    carrier, _ = torsor_G(inv_split, a_sub)
    t_op = translation_op(a_param, bt)
    moved = {x: pushforward(t_op, x) for x in carrier}
    law = "twisted-unitary-transport"
    notes = ("carrier:%d" % len(carrier), "unitary:%d" % len(view.elements))
    if set(moved.values()) != set(view.elements):
        return Report(suite=suite, law=law, cases=1, failures=1, notes=notes,
                      first_counterexample={"carrier": len(carrier),
                                            "unitary": len(view.elements)})
    inverse_moved = {y: x for x, y in moved.items()}

    def holds(c):
        x1, x2 = c["x1"], c["x2"]
        w = gamma_global(x1, a_sub, bt.o_plus, ta_sub, x2)
        target = u_product(moved[x1], bt.o_plus, moved[x2])
        return moved.get(w) == target and inverse_moved.get(target) == w

    report = run_law(suite, law, every(carrier, ("x1", "x2")), holds,
                     notes=notes)
    report.cases += 1  # the bijection check above
    return report
