"""The pentary product on subspaces and its structure maps.

One kernel computes the product.  `gamma_oracle` is the witness elimination:
the set of all w admitting a decomposition w = zeta + alpha = zeta + eta + xi
= xi + beta with the five pieces drawn from the five arguments, found by one
block elimination.  `gamma_global` is the production entry point: the same
kernel behind an unbounded memo, for the laws that revisit tuples.

The other routes are audits, compared with the kernel by the
`gamma-agreement` suite and the tests, and used nowhere else:

* the relation route (1 - P_a^x P_y^b) applied to z, from `l_relation`;
* `gamma_via_m` -- the difference relation P_x^a - P_b^z applied to y;
* `gamma_restricted` -- on tuples transversal to both middle slots, the
  pushforward of y under the difference of the two projections;
* `gamma_oracle_enum` -- brute-force witness enumeration over tiny fields.

Their agreement, the para-associativity and Klein symmetries, and the derived
operator identities are what the check suites exercise.  The laws about the
product itself are defined here; the check suites in `checks` run them.  This
module also builds the three slot kinds every law draws its cases from:
subspace slots, relation slots and transversal tuples.  The case generator
that enumerates or samples them is `reports.cases`.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .matrices import Matrix, eliminate_front, neg_vec, vstack
from .relations import (LinearRelation, apply_rel, compose, difference,
                        gen_projection, one_minus, random_relation)
from .reports import Slots, cases, run_law
from .subspaces import (Subspace, TransversalityError, _check_pair,
                        all_subspaces, image_under, is_transversal, join,
                        meet, pushforward, random_subspace, span_rows)


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
    x rows (-xi | -xi | 0), a rows (alpha | alpha | alpha), y rows
    (-eta | 0 | 0), b rows (0 | -beta | 0), z rows (0 | zeta | zeta).
    """
    for s in (a, y, b, z):
        _check_pair(x, s)
    field = x.field
    n = x.ambient
    zero = (field.zero,) * n
    rows = [neg_vec(field, v) * 2 + zero for v in x.basis.entries]
    rows += [v * 3 for v in a.basis.entries]
    rows += [neg_vec(field, v) + zero * 2 for v in y.basis.entries]
    rows += [zero + neg_vec(field, v) + zero for v in b.basis.entries]
    rows += [zero + v * 2 for v in z.basis.entries]
    return Subspace(n, eliminate_front(field, rows, 2 * n, 3 * n))


@lru_cache(maxsize=None)
def gamma_global(x, a, y, b, z):
    """Pentary product of arbitrary subspaces: the memoized witness kernel."""
    return gamma_oracle(x, a, y, b, z)


def gamma_oracle_enum(x, a, y, b, z):
    """Brute-force witness enumeration (tiny finite cases only)."""
    from .subspaces import contains_vector, vectors
    field = x.field
    n = x.ambient
    found = []
    xs = list(vectors(x))
    for zeta in vectors(z):
        for alpha in vectors(a):
            w = tuple(field.add(p, q) for p, q in zip(zeta, alpha))
            for xi in xs:
                eta = tuple(field.sub(p, q) for p, q in zip(alpha, xi))
                if not contains_vector(y, eta):
                    continue
                beta = tuple(field.sub(p, q) for p, q in zip(w, xi))
                if contains_vector(b, beta):
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
    from .matrices import mat_invert
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
    return pushforward(m_operator(x, a, b, z), y)


def dilation(s, x, a, y):
    """Image of y under s P_a^x + P_x^a (x, y both transversal to a)."""
    if not (is_transversal(x, a) and is_transversal(y, a)):
        raise TransversalityError("dilation needs transversal arguments")
    op = proj_operator(a, x).scale(s) + proj_operator(x, a)
    return image_under(op, y)


def common_complements(a, b):
    """All common complements of a and b (finite fields), in enumeration order."""
    if a.dim != b.dim:
        return ()
    n = a.ambient
    return tuple(s for s in all_subspaces(a.field, n, n - a.dim)
                 if is_transversal(s, a) and is_transversal(s, b))


# -- case slots --------------------------------------------------------------


def transversal_tuple(field, ambient, rng, tries=200):
    """Deterministically sample (x, a, y, b, z) with x,y,z in U_{ab}."""
    for _ in range(tries):
        a = random_subspace(field, ambient, rng)
        k = a.dim
        b = random_subspace(field, ambient, rng)
        if b.dim != k:
            continue
        outer = []
        for _ in range(3 * tries):
            s = random_subspace(field, ambient, rng)
            if s.dim == ambient - k and is_transversal(s, a) and is_transversal(s, b):
                outer.append(s)
                if len(outer) == 3:
                    break
        if len(outer) == 3:
            return outer[0], a, outer[1], b, outer[2]
    raise TransversalityError("no transversal tuple found")


def subspace_slots(field, ambient, names):
    """One slot per name, each a subspace of K^ambient.

    Sampled, every slot takes one random_subspace draw, in slot order;
    exhaustive, every slot ranges over all subspaces.
    """
    def draw(rng):
        return {n: random_subspace(field, ambient, rng) for n in names}

    return Slots(draw, lambda: dict.fromkeys(names,
                                             all_subspaces(field, ambient)))


def relation_slots(field, ambient, relations, subspaces=""):
    """Relation slots on K^ambient, followed by subspace slots.

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

    def pools():
        rels = tuple(LinearRelation(ambient, inner)
                     for inner in all_subspaces(field, 2 * ambient))
        out = {n: rels if k == 0 else rels[:4]
               for k, n in enumerate(relations)}
        if subspaces:
            subs = all_subspaces(field, ambient)
            out.update(dict.fromkeys(subspaces, subs))
        return out

    return Slots(draw, pools)


def transversal_slots(field, ambient, names):
    """Slots named from x, a, y, b, z with x, y, z complements of a and b.

    Sampled, each case comes from one transversal_tuple draw.  Exhaustive,
    a and b range over all subspaces (b is a itself when the law has no b
    slot) and the outer slots over every common complement of the pair.
    """
    outer = [n for n in names if n in "xyz"]

    def draw(rng):
        t = dict(zip("xaybz", transversal_tuple(field, ambient, rng)))
        return {n: t[n] for n in names}

    def expand(case):
        carrier = common_complements(case["a"], case.get("b", case["a"]))
        for values in itertools.product(carrier, repeat=len(outer)):
            yield dict(case, **dict(zip(outer, values)))

    middle = [n for n in names if n in "ab"]
    return Slots(draw, lambda: dict.fromkeys(middle,
                                             all_subspaces(field, ambient)),
                 expand)


# -- law checks ------------------------------------------------------------


def check_para_associativity(field, ambient, config):
    """(x y (z u v)) = (x (u z v) y) = ((x y z) u v) for fixed middle pairs."""

    def holds(c):
        x, a, y, b, z, u, v = (c["x"], c["a"], c["y"], c["b"], c["z"],
                               c["u"], c["v"])
        lhs = gamma_global(x, a, y, b, gamma_global(z, a, u, b, v))
        mid = gamma_global(x, a, gamma_global(u, a, z, b, y), b, v)
        rhs = gamma_global(gamma_global(x, a, y, b, z), a, u, b, v)
        return lhs == mid == rhs

    return run_law("global-laws", "para-associativity",
                   cases(config, subspace_slots(field, ambient, "xaybzuv")),
                   holds)


def check_klein(field, ambient, config):
    """Gamma(x,a,y,b,z) = Gamma(a,x,y,z,b) = Gamma(z,b,y,a,x)."""

    def holds(c):
        x, a, y, b, z = c["x"], c["a"], c["y"], c["b"], c["z"]
        g = gamma_global(x, a, y, b, z)
        return g == gamma_global(a, x, y, z, b) == gamma_global(z, b, y, a, x)

    return run_law("global-laws", "klein-invariance",
                   cases(config, subspace_slots(field, ambient, "xaybz")),
                   holds)


def check_idempotent_laws(field, ambient, config):
    """Gamma(x,a,a,x,z) = x ^ (a v z)  and  1 - P_x^a = P_a^x."""

    def holds(c):
        x, a, z = c["x"], c["a"], c["z"]
        if gamma_global(x, a, a, x, z) != meet(x, join(a, z)):
            return False
        return one_minus(gen_projection(x, a)) == gen_projection(a, x)

    return run_law("idempotent-projection", "projection-complement",
                   cases(config, subspace_slots(field, ambient, "xaz")), holds)


def check_agreement(field, ambient, config):
    """gamma_global vs the relation route and gamma_via_m."""

    def holds(c):
        x, a, y, b, z = c["x"], c["a"], c["y"], c["b"], c["z"]
        g = gamma_global(x, a, y, b, z)
        return (g == apply_rel(l_relation(x, a, y, b), z)
                and g == gamma_via_m(x, a, y, b, z))

    return run_law("gamma-agreement", "route-agreement",
                   cases(config, subspace_slots(field, ambient, "xaybz")),
                   holds)


def check_restricted_agreement(field, ambient, config):
    """gamma_restricted agrees with the other routes on transversal tuples."""

    def holds(c):
        t = (c["x"], c["a"], c["y"], c["b"], c["z"])
        return gamma_restricted(*t) == gamma_global(*t)

    return run_law("gamma-agreement", "restricted-agreement",
                   cases(config, transversal_slots(field, ambient, "xaybz")),
                   holds)


def check_torsor_axioms(field, ambient, config):
    """(x y y) = x = (y y x) and inversion/commutativity on common complements."""

    def holds(c):
        a, b, x, y = c["a"], c["b"], c["x"], c["y"]
        if gamma_global(x, a, y, b, y) != x:
            return False
        if gamma_global(y, a, y, b, x) != x:
            return False
        if a == b and gamma_global(x, a, y, a, x) != gamma_global(x, a, y, b, x):
            return False
        return True

    return run_law("global-laws", "torsor-idempotents",
                   cases(config, transversal_slots(field, ambient, "xayb")),
                   holds)


def check_commutativity_aa(field, ambient, config):
    """Gamma(x,a,y,a,z) is symmetric in x and z."""

    def holds(c):
        a, x, y, z = c["a"], c["x"], c["y"], c["z"]
        return (gamma_global(x, a, y, a, z) == gamma_global(z, a, y, a, x))

    return run_law("global-laws", "middle-pair-commutativity",
                   cases(config, transversal_slots(field, ambient, "xayz")),
                   holds)
