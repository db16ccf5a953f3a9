"""The pentary product on subspaces and its structure maps.

One kernel computes the product.  `gamma_oracle` is the witness elimination:
the set of all w admitting a decomposition w = zeta + alpha = zeta + eta + xi
= xi + beta with the five pieces drawn from the five arguments, found by one
block elimination.  `gamma_global` is the production entry point: the same
kernel behind an unbounded memo, for the laws that revisit tuples.  It is the
only path for arbitrary tuples.  Carrier Cayley tables, whose products all
share one middle pair and unit, go through a chart instead
(`involutions.cayley_table`); the torsor and bridge laws still take their
products from `gamma_global`, and so audit that chart against this kernel.

The other routes are audits, compared with the kernel by the
`gamma-agreement` suite and the tests, and used nowhere else:

* the relation route (1 - P_a^x P_y^b) applied to z, from `l_relation`;
* `gamma_via_m` -- the difference relation P_x^a - P_b^z applied to y;
* `gamma_restricted` -- on tuples transversal to both middle slots, the
  image of y under the difference of the two projections;
* `gamma_oracle_enum` -- brute-force witness enumeration over tiny fields.

The laws about the product are defined here, and `checks` runs them in the
suites `global-laws` (para-associativity, the Klein symmetries, the torsor
identities), `gamma-agreement`, `idempotent-projection`, `m-symmetries` (of
the difference operators) and `l-inversion`.  This module also gives the
cases most laws run over: `subspace_cases`, `relation_cases` and
`transversal_cases`, the last with outer slots that are graphs over
complement(a), the chart U_a, whether drawn or enumerated.  Each returns a
law's (draw, enumerate_all), which the law hands to `reports.run_law`, the
one place that picks between them.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .matrices import (Matrix, all_matrices, eliminate_front, mat_invert,
                       random_matrix, vstack)
from .relations import (LinearRelation, apply_rel, compose, difference,
                        gen_projection, inverse_rel, one_minus,
                        random_relation)
from .reports import every, run_law
from .rng import shared_draw
from .subspaces import (Subspace, TransversalityError, _check_same_space,
                        all_subspaces, complement, image_under, is_transversal,
                        join, meet, random_subspace, span, span_rows, vectors)


def l_relation(x, a, y, b):
    """The relation 1 - P_a^x P_y^b."""
    return one_minus(compose(gen_projection(a, x), gen_projection(y, b)))


def m_relation(x, a, b, z):
    """The relation P_x^a - P_b^z (pointwise difference)."""
    return difference(gen_projection(x, a), gen_projection(b, z))


def gamma_via_m(x, a, y, b, z):
    """Same product through the difference relation applied to y."""
    return apply_rel(m_relation(x, a, b, z), y)


def gamma_oracle(x, a, y, b, z):
    """Witness-set route, independent of the relation calculus.

    The w = zeta + alpha with alpha = eta + xi and zeta + alpha = xi + beta,
    by one block elimination over the columns
    [alpha - eta - xi | zeta + alpha - xi - beta | w], first 2n eliminated:
    x rows (xi | xi | 0), a rows (alpha | alpha | alpha), y rows
    (eta | 0 | 0), b rows (0 | beta | 0), z rows (0 | zeta | zeta).  The
    minus signs of the x, y and b pieces are dropped: negating a whole row
    leaves its span, and so the result, unchanged.
    """
    _check_same_space(x, a, y, b, z)
    field = x.field
    n = x.ambient
    zero = (field.zero,) * n
    rows = [v * 2 + zero for v in x.basis.entries]
    rows += [v * 3 for v in a.basis.entries]
    rows += [v + zero * 2 for v in y.basis.entries]
    rows += [zero + v + zero for v in b.basis.entries]
    rows += [zero + v * 2 for v in z.basis.entries]
    return Subspace(eliminate_front(field, rows, 2 * n, 3 * n))


@lru_cache(maxsize=None)
def gamma_global(x, a, y, b, z):
    """Pentary product of arbitrary subspaces: the memoized witness kernel."""
    return gamma_oracle(x, a, y, b, z)


def gamma_oracle_enum(x, a, y, b, z):
    """Brute-force witness enumeration (tiny finite cases only)."""
    _check_same_space(x, a, y, b, z)
    field = x.field
    n = x.ambient
    found = []
    xs, ys, bs = list(vectors(x)), set(vectors(y)), set(vectors(b))
    for zeta in vectors(z):
        for alpha in vectors(a):
            w = tuple(field.add(p, q) for p, q in zip(zeta, alpha))
            for xi in xs:
                eta = tuple(field.sub(p, q) for p, q in zip(alpha, xi))
                if eta not in ys:
                    continue
                beta = tuple(field.sub(p, q) for p, q in zip(w, xi))
                if beta in bs:
                    found.append(w)
                    break
    return span_rows(field, n, found)


def proj_operator(x, a):
    """Matrix of the projection with image x and kernel a (x, a complementary)."""
    if not is_transversal(x, a):
        raise TransversalityError("projection operator needs complements")
    field = x.field
    n = x.ambient
    basis_change = vstack(x.basis, a.basis)
    top = vstack(x.basis, Matrix.zeros(field, a.dim, n))
    return (mat_invert(basis_change) * top).transpose()


def m_operator(x, a, b, z):
    """Matrix of P_x^a - P_b^z (needs a complementary to x and z to b)."""
    return proj_operator(x, a) - proj_operator(b, z)


def gamma_restricted(x, a, y, b, z):
    """Product on tuples with x, y, z all transversal to a and b."""
    for s in (x, y, z):
        if not (is_transversal(s, a) and is_transversal(s, b)):
            raise TransversalityError("restricted product needs transversal tuples")
    return image_under(m_operator(x, a, b, z), y)


def dilations(scalars, x, a, y):
    """Image of y under s P_a^x + P_x^a for each s (x, y transversal to a).

    P = P_x^a is computed once and P_a^x = 1 - P, so with Y the basis of y
    each image is the span of s Y (1 - P)^T + Y P^T.
    """
    if not (is_transversal(x, a) and is_transversal(y, a)):
        raise TransversalityError("dilation needs transversal arguments")
    fixed = y.basis * proj_operator(x, a).transpose()
    moved = y.basis - fixed
    return [span(moved.scale(s) + fixed) for s in scalars]


def common_complements(a, b):
    """All common complements of a and b over a finite field: the graphs of
    the chart U_a, one per map X over `all_matrices`, transversal to b."""
    if a.dim != b.dim:
        return ()
    c = complement(a).basis
    graphs = (_chart_point(c, m, a)
              for m in all_matrices(a.field, c.nrows, a.dim))
    return tuple(s for s in graphs if is_transversal(s, b))


def _chart_point(c, m, a):
    """span(c + M a), the complement of a that is the graph of M: c -> a."""
    return span(c + m * a.basis)


# -- cases -------------------------------------------------------------------


@shared_draw
def transversal_tuple(field, ambient, rng):
    """Deterministically sample (x, a, y, b, z) with x,y,z in U_{ab}: a and
    b random subspaces, b redrawn until dim b = dim a, then three
    `_common_complement` draws.  Within a check run, drawn once per
    generator state."""
    for _ in range(200):
        a = random_subspace(field, ambient, rng)
        b = random_subspace(field, ambient, rng)
        if b.dim == a.dim:
            x, y, z = (_common_complement(a, b, rng) for _ in range(3))
            if None not in (x, y, z):
                return x, a, y, b, z
    raise TransversalityError("no transversal tuple found")


def _common_complement(a, b, rng):
    """A common complement of a and b, uniform over a finite field: points
    of the chart U_a drawn until one is transversal to b (None after 600)."""
    c = complement(a).basis
    for _ in range(600):
        s = _chart_point(c, random_matrix(a.field, c.nrows, a.dim, rng), a)
        if is_transversal(s, b):
            return s
    return None


def subspace_cases(field, ambient, names):
    """(draw, enumerate_all) with one subspace of K^ambient per slot name.

    Sampled, every slot takes one random_subspace draw, in slot order;
    exhaustive, every slot ranges over all subspaces.
    """
    def draw(rng):
        return {n: random_subspace(field, ambient, rng) for n in names}

    return draw, lambda: every(all_subspaces(field, ambient), names)


def relation_cases(field, ambient, relations, subspaces=""):
    """(draw, enumerate_all): relation slots on K^ambient, then subspaces.

    Sampled, each relation slot takes one random_relation draw and then each
    subspace slot one random_subspace draw, in slot order.  Exhaustive, the
    first relation slot ranges over every relation, later relation slots over
    the first four only (which keeps pair sweeps small), and subspace slots
    over every subspace.
    """
    def draw(rng):
        case = {n: random_relation(field, ambient, rng) for n in relations}
        for n in subspaces:
            case[n] = random_subspace(field, ambient, rng)
        return case

    def enumerate_all():
        rels = tuple(LinearRelation(inner)
                     for inner in all_subspaces(field, 2 * ambient))
        ranges = [rels] + [rels[:4]] * (len(relations) - 1)
        if subspaces:
            ranges += [all_subspaces(field, ambient)] * len(subspaces)
        for values in itertools.product(*ranges):
            yield dict(zip(relations + subspaces, values))

    return draw, enumerate_all


def transversal_cases(field, ambient, names):
    """(draw, enumerate_all) for slots among x, a, y, b, z, where x, y, z
    complement a and b.

    Sampled, each case comes from one transversal_tuple draw: (a, b) as
    whole random subspaces, the outer slots as graphs in the chart U_a.
    Exhaustive, a and b range over all subspaces (b is a itself when the law
    has no b slot) and the outer slots over every common complement.
    """
    def draw(rng):
        t = dict(zip("xaybz", transversal_tuple(field, ambient, rng)))
        return {n: t[n] for n in names}

    def enumerate_all():
        middle = [n for n in names if n in "ab"]
        outer = [n for n in names if n in "xyz"]
        for m in every(all_subspaces(field, ambient), middle):
            carrier = common_complements(m["a"], m.get("b", m["a"]))
            for o in every(carrier, outer):
                yield dict(m, **o)

    return draw, enumerate_all


# -- law checks ------------------------------------------------------------


def check_para_associativity(field, ambient, config):
    """(x y (z u v)) = (x (u z v) y) = ((x y z) u v) for fixed middle pairs."""

    def holds(x, a, y, b, z, u, v):
        lhs = gamma_global(x, a, y, b, gamma_global(z, a, u, b, v))
        mid = gamma_global(x, a, gamma_global(u, a, z, b, y), b, v)
        rhs = gamma_global(gamma_global(x, a, y, b, z), a, u, b, v)
        return lhs == mid == rhs

    return run_law("global-laws", "para-associativity", holds, config,
                   *subspace_cases(field, ambient, "xaybzuv"))


def check_klein(field, ambient, config):
    """Gamma(x,a,y,b,z) = Gamma(a,x,y,z,b) = Gamma(z,b,y,a,x)."""

    def holds(x, a, y, b, z):
        g = gamma_global(x, a, y, b, z)
        return g == gamma_global(a, x, y, z, b) == gamma_global(z, b, y, a, x)

    return run_law("global-laws", "klein-invariance", holds, config,
                   *subspace_cases(field, ambient, "xaybz"))


def check_idempotent_laws(field, ambient, config):
    """Gamma(x,a,a,x,z) = x ^ (a v z)  and  1 - P_x^a = P_a^x."""

    def holds(x, a, z):
        if gamma_global(x, a, a, x, z) != meet(x, join(a, z)):
            return False
        return one_minus(gen_projection(x, a)) == gen_projection(a, x)

    return run_law("idempotent-projection", "projection-complement", holds,
                   config, *subspace_cases(field, ambient, "xaz"))


def check_agreement(field, ambient, config):
    """gamma_global vs the relation route and gamma_via_m."""

    def holds(x, a, y, b, z):
        g = gamma_global(x, a, y, b, z)
        return (g == apply_rel(l_relation(x, a, y, b), z)
                and g == gamma_via_m(x, a, y, b, z))

    return run_law("gamma-agreement", "route-agreement", holds, config,
                   *subspace_cases(field, ambient, "xaybz"))


def check_restricted_agreement(field, ambient, config):
    """gamma_restricted agrees with the other routes on transversal tuples."""

    def holds(x, a, y, b, z):
        return (gamma_restricted(x, a, y, b, z)
                == gamma_global(x, a, y, b, z))

    return run_law("gamma-agreement", "restricted-agreement", holds, config,
                   *transversal_cases(field, ambient, "xaybz"))


def check_torsor_axioms(field, ambient, config):
    """(x y y) = x = (y y x); commutativity is middle-pair-commutativity."""

    def holds(x, a, y, b):
        if gamma_global(x, a, y, b, y) != x:
            return False
        return gamma_global(y, a, y, b, x) == x

    return run_law("global-laws", "torsor-idempotents", holds, config,
                   *transversal_cases(field, ambient, "xayb"))


def check_commutativity_aa(field, ambient, config):
    """Gamma(x,a,y,a,z) is symmetric in x and z."""

    def holds(x, a, y, z):
        return (gamma_global(x, a, y, a, z) == gamma_global(z, a, y, a, x))

    return run_law("global-laws", "middle-pair-commutativity", holds, config,
                   *transversal_cases(field, ambient, "xayz"))


def check_m_symmetries(field, ambient, config):
    """M(x,a,b,z) = M(z,b,a,x) = -M(a,x,z,b), and its inverse is
    M(z,a,b,x) = M(x,b,a,z)."""

    def holds(x, a, b, z):
        m = m_operator(x, a, b, z)
        if m != m_operator(z, b, a, x):
            return False
        if m != -m_operator(a, x, z, b):
            return False
        mi = mat_invert(m)
        return mi == m_operator(z, a, b, x) == m_operator(x, b, a, z)

    return run_law("m-symmetries", "m-symmetries", holds, config,
                   *transversal_cases(field, ambient, "xabz"))


def check_l_inversion(field, ambient, config):
    """L(x,a,y,b)^-1 = L(y,a,x,b): swapping x with y undoes the product."""

    def holds(x, a, y, b, z):
        if inverse_rel(l_relation(x, a, y, b)) != l_relation(y, a, x, b):
            return False
        w = gamma_global(x, a, y, b, z)
        return gamma_global(y, a, x, b, w) == z

    return run_law("l-inversion", "l-inversion", holds, config,
                   *transversal_cases(field, ambient, "xaybz"))
