"""Named check suites: one runnable suite per library invariant.

Each suite has a stable name, the module whose invariant it validates, a
one-line description, and a runner producing Report objects.  Runners take
(field, ambient, config) so the command line can point any suite at any
field and size; suites that need a finite field or an even ambient raise
SuiteNotApplicable, which the all-suites driver turns into a skip note.

Each law is defined once.  The laws of scalars, matrices, the Grassmannian
and relations, and a few derived gamma identities, are defined here; the
laws of the pentary product live in `gamma`, those of involutions and their
torsors in `involutions`, and those of deformed matrix products in
`homotopes`.  Every law draws its cases from `reports.cases` through the
slot kinds built in `gamma`.  A law names the suite that runs it with a
constant in its own module, so the runners here pass only law names, and
only where one checker serves several forms or parameters.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace

from . import homotopes
from .fields import BiDualRing, DualRing
from .gamma import (check_agreement, check_commutativity_aa,
                    check_idempotent_laws, check_klein,
                    check_para_associativity, check_restricted_agreement,
                    check_torsor_axioms, gamma_global, l_relation, m_operator,
                    relation_slots, subspace_slots, transversal_slots)
from .involutions import (census_report, check_antihom_global,
                          check_antihom_restricted, check_dilation_compat,
                          check_duality_inclusion, check_invariant_transport,
                          check_opposite_torsor, check_order_two,
                          check_torsor_g, check_transversality_preservation,
                          closure_report, dual_involution, fixed_points,
                          isotropic_census, ortho_involution, standard_triple)
from .matrices import (Matrix, is_invertible, kernel_basis, mat_invert,
                       random_matrix, rank, rref)
from .relations import (adjoint, apply_rel, compose, gen_projection,
                        inverse_rel, one_minus, one_plus)
from .reports import Slots, cases, run_inclusion_law, run_law, skipped_report
from .subspaces import (complement, contains, coord_subspace, full_subspace,
                        graph_of, chart_of, is_transversal, join, meet,
                        orthocomplement, random_subspace, split_form,
                        standard_forms, symplectic_form)


class SuiteNotApplicable(Exception):
    """The suite cannot run at this field/ambient combination."""


def _needs_finite(field):
    if field.size is None:
        raise SuiteNotApplicable("needs a finite field")


def _needs_even(ambient):
    if ambient % 2 != 0 or ambient == 0:
        raise SuiteNotApplicable("needs a positive even ambient")


def _forms(field, ambient):
    _needs_even(ambient)
    return standard_forms(field, ambient // 2)


def _pair_cases(field, ambient, config):
    return cases(config, subspace_slots(field, ambient, "xa"))


def _relation_cases(field, ambient, config, names="f"):
    return cases(config, relation_slots(field, ambient, names))


# -- scalars -----------------------------------------------------------------


def _run_field_axioms(field, ambient, config):
    def draw(rng):
        return dict(x=field.sample(rng), y=field.sample(rng),
                    z=field.sample(rng))

    def holds(c):
        F = field
        x, y, z = c["x"], c["y"], c["z"]
        if F.add(F.add(x, y), z) != F.add(x, F.add(y, z)):
            return False
        if F.mul(F.mul(x, y), z) != F.mul(x, F.mul(y, z)):
            return False
        if F.add(x, y) != F.add(y, x) or F.mul(x, y) != F.mul(y, x):
            return False
        if F.mul(x, F.add(y, z)) != F.add(F.mul(x, y), F.mul(x, z)):
            return False
        if F.add(x, F.zero) != x or F.mul(x, F.one) != x:
            return False
        if F.add(x, F.neg(x)) != F.zero:
            return False
        if not F.is_zero(x):
            if F.mul(x, F.inv(x)) != F.one:
                return False
        return True

    def show(c):
        return {k: field.format(v) for k, v in c.items()}

    return [run_law("field-axioms", "field-axioms",
                    cases(config, Slots(draw)), holds, show)]


def _run_conjugation(field, ambient, config):
    def draw(rng):
        return dict(x=field.sample(rng), y=field.sample(rng))

    def holds(c):
        F = field
        x, y = c["x"], c["y"]
        if F.conj(F.conj(x)) != x:
            return False
        if F.conj(F.mul(x, y)) != F.mul(F.conj(x), F.conj(y)):
            return False
        return F.conj(F.add(x, y)) == F.add(F.conj(x), F.conj(y))

    def show(c):
        return {k: field.format(v) for k, v in c.items()}

    return [run_law("conjugation-involutive", "conjugation-involutive",
                    cases(config, Slots(draw)), holds, show)]


def _run_dual_nilpotency(field, ambient, config):
    dual = DualRing(field)
    bidual = BiDualRing(field)

    def draw(rng):
        return dict(d=dual.sample(rng), b=bidual.sample(rng),
                    s=field.sample(rng))

    def holds(c):
        d, b, s = c["d"], c["b"], c["s"]
        eps = dual.eps_times(field.one)
        if not dual.is_zero(dual.mul(eps, eps)):
            return False
        if not dual.is_zero(dual.mul(dual.eps_times(s), dual.eps_times(s))):
            return False
        e1, e2 = bidual.e1_times(field.one), bidual.e2_times(field.one)
        if not bidual.is_zero(bidual.mul(e1, e1)):
            return False
        if not bidual.is_zero(bidual.mul(e2, e2)):
            return False
        if dual.is_unit(d):
            if dual.inv(dual.inv(d)) != d:
                return False
            if dual.mul(d, dual.inv(d)) != dual.one:
                return False
        elif not field.is_zero(d[0]):
            return False
        if bidual.is_unit(b):
            if bidual.inv(bidual.inv(b)) != b:
                return False
            if bidual.mul(b, bidual.inv(b)) != bidual.one:
                return False
        return True

    def show(c):
        return {"d": dual.format(c["d"]), "b": bidual.format(c["b"]),
                "s": field.format(c["s"])}

    return [run_law("dual-nilpotency", "dual-nilpotency",
                    cases(config, Slots(draw)), holds, show)]


# -- matlin ------------------------------------------------------------------


def _random_invertible(field, n, rng, tries=64):
    for _ in range(tries):
        t = random_matrix(field, n, n, rng)
        if is_invertible(t):
            return t
    return Matrix.identity(field, n)


def _run_rref_canonical(field, ambient, config):
    def draw(rng):
        p = rng.below(3) + 1
        q = rng.below(3) + 1
        m = random_matrix(field, p, q, rng)
        return dict(m=m, t=_random_invertible(field, p, rng))

    def holds(c):
        m, t = c["m"], c["t"]
        red, r = rref(m)
        again, r2 = rref(red)
        if again != red or r2 != r:
            return False
        mixed, _ = rref(t * m)
        return mixed == red

    return [run_law("rref-canonical", "rref-canonical",
                    cases(config, Slots(draw)), holds)]


def _run_rank_nullity(field, ambient, config):
    def draw(rng):
        p = rng.below(4) + 1
        q = rng.below(4) + 1
        return dict(m=random_matrix(field, p, q, rng))

    def holds(c):
        m = c["m"]
        return rank(m) + kernel_basis(m).nrows == m.ncols

    return [run_law("rank-nullity", "rank-nullity",
                    cases(config, Slots(draw)), holds)]


def _run_dual_matrix_arithmetic(field, ambient, config):
    reports = []
    for ring in (DualRing(field), BiDualRing(field)):
        def draw(rng, ring=ring):
            n = rng.below(3) + 1
            return {k: random_matrix(ring, n, n, rng) for k in "abc"}

        def holds(case, ring=ring):
            a, b, c = case["a"], case["b"], case["c"]
            if (a + b) * c != a * c + b * c:
                return False
            base_part = Matrix(field, a.nrows, a.ncols,
                               tuple(tuple(e[0] for e in row)
                                     for row in a.entries))
            if is_invertible(a) != is_invertible(base_part):
                return False
            if is_invertible(a):
                eye = Matrix.identity(ring, a.nrows)
                if mat_invert(a) * a != eye:
                    return False
            return True

        label = "dual" if isinstance(ring, DualRing) else "bidual"
        reports.append(run_law("dual-matrix-arithmetic",
                               "nilpotent-entries-%s" % label,
                               cases(config, Slots(draw)), holds))
    return reports


# -- grassmann ---------------------------------------------------------------


def _run_modular_dimension(field, ambient, config):
    def holds(c):
        x, a = c["x"], c["a"]
        return meet(x, a).dim + join(x, a).dim == x.dim + a.dim

    return [run_law("modular-dimension", "modular-dimension",
                    _pair_cases(field, ambient, config), holds)]


def _run_complement_transversal(field, ambient, config):
    def holds(c):
        x = c["x"]
        y = complement(x)
        return is_transversal(x, y) and y.dim == ambient - x.dim

    return [run_law("complement-transversal", "complement-transversal",
                    cases(config, subspace_slots(field, ambient, "x")),
                    holds)]


def _run_ortho_lattice(field, ambient, config):
    reports = []
    for name, form in _forms(field, ambient).items():
        def holds(c, form=form):
            x, a = c["x"], c["a"]
            if orthocomplement(orthocomplement(x, form), form) != x:
                return False
            lhs = orthocomplement(meet(x, a), form)
            rhs = join(orthocomplement(x, form), orthocomplement(a, form))
            if lhs != rhs:
                return False
            if contains(x, a):
                return contains(orthocomplement(a, form),
                                orthocomplement(x, form))
            return True

        reports.append(run_law("ortho-lattice", "ortho-lattice-%s" % name,
                               _pair_cases(field, ambient, config), holds))
    return reports


def _run_chart_graph(field, ambient, config):
    if ambient < 2:
        raise SuiteNotApplicable("needs ambient at least 2")
    q = ambient // 2
    p = ambient - q
    axis = coord_subspace(field, ambient, range(p, ambient))

    def draw(rng):
        return dict(m=random_matrix(field, q, p, rng),
                    x=random_subspace(field, ambient, rng))

    def holds(c):
        m, x = c["m"], c["x"]
        if chart_of(graph_of(m), p) != m:
            return False
        if x.dim == p and is_transversal(x, axis):
            return graph_of(chart_of(x, p)) == x
        return True

    return [run_law("chart-graph-inverse", "chart-graph-inverse",
                    cases(config, Slots(draw)), holds)]


# -- relations ---------------------------------------------------------------


def _run_projection_idempotent(field, ambient, config):
    def holds(c):
        p = gen_projection(c["x"], c["a"])
        if compose(p, p) != p:
            return False
        return one_minus(p) == gen_projection(c["a"], c["x"])

    return [run_law("projection-idempotent", "projection-idempotent",
                    _pair_cases(field, ambient, config), holds)]


def _run_projection_conjugation(field, ambient, config):
    def holds(case):
        f, z, c = case["f"], case["z"], case["c"]
        lhs = compose(f, compose(gen_projection(z, c), inverse_rel(f)))
        rhs = gen_projection(apply_rel(f, z), apply_rel(f, c))
        return lhs == rhs

    return [run_law("projection-conjugation", "projection-conjugation",
                    cases(config, relation_slots(field, ambient, "f", "zc")),
                    holds)]


def _run_adjoint_reversal(field, ambient, config):
    reports = []
    for name, form in _forms(field, ambient).items():
        def rel_holds(c, form=form):
            f, g = c["f"], c["g"]
            return (adjoint(compose(g, f), form)
                    == compose(adjoint(f, form), adjoint(g, form)))

        def proj_holds(c, form=form):
            x, a = c["x"], c["a"]
            lhs = adjoint(gen_projection(x, a), form)
            rhs = gen_projection(orthocomplement(a, form),
                                 orthocomplement(x, form))
            return lhs == rhs

        reports.append(run_law("adjoint-reversal",
                               "adjoint-reversal-%s" % name,
                               _relation_cases(field, ambient, config, "fg"),
                               rel_holds))
        reports.append(run_law("adjoint-reversal",
                               "adjoint-projection-%s" % name,
                               _pair_cases(field, ambient, config),
                               proj_holds))
    return reports


def _run_adjoint_shift(field, ambient, config):
    reports = []
    for name, form in _forms(field, ambient).items():
        def holds(c, form=form):
            f = c["f"]
            fs = adjoint(f, form)
            if adjoint(one_plus(f), form) != one_plus(fs):
                return False
            return adjoint(one_minus(f), form) == one_minus(fs)

        reports.append(run_law("adjoint-shift", "adjoint-shift-%s" % name,
                               _relation_cases(field, ambient, config),
                               holds))
    return reports


def _run_adjoint_involutive(field, ambient, config):
    reports = []
    for name, form in _forms(field, ambient).items():
        def holds(c, form=form):
            f = c["f"]
            return adjoint(adjoint(f, form), form) == f

        reports.append(run_law("adjoint-involutive",
                               "adjoint-involutive-%s" % name,
                               _relation_cases(field, ambient, config),
                               holds))
    return reports


def _run_adjoint_image_inclusion(field, ambient, config):
    form = _forms(field, ambient)["symplectic"]

    def sides(c):
        f, z = c["f"], c["z"]
        return (orthocomplement(apply_rel(f, z), form),
                apply_rel(inverse_rel(adjoint(f, form)),
                          orthocomplement(z, form)))

    return [run_inclusion_law(
        "adjoint-image-inclusion", "adjoint-image-inclusion",
        cases(config, relation_slots(field, ambient, "f", "z")), sides)]


def _run_relation_dimension(field, ambient, config):
    first_half = coord_subspace(field, 2 * ambient, range(ambient))
    everything = full_subspace(field, ambient)

    def holds(c):
        f = c["f"]
        ker_dim = meet(f.inner, first_half).dim
        im_dim = apply_rel(f, everything).dim
        return f.inner.dim == ker_dim + im_dim

    return [run_law("relation-dimension", "relation-dimension",
                    _relation_cases(field, ambient, config), holds)]


# -- gamma -------------------------------------------------------------------


def _run_global_laws(field, ambient, config):
    return [check_para_associativity(field, ambient, config),
            check_klein(field, ambient, config),
            check_torsor_axioms(field, ambient, config),
            check_commutativity_aa(field, ambient, config)]


def _run_gamma_agreement(field, ambient, config):
    return [check_agreement(field, ambient, config),
            check_restricted_agreement(field, ambient, config)]


def _run_m_symmetries(field, ambient, config):
    def holds(c):
        x, a, b, z = c["x"], c["a"], c["b"], c["z"]
        m = m_operator(x, a, b, z)
        if m != m_operator(z, b, a, x):
            return False
        if m != -m_operator(a, x, z, b):
            return False
        mi = mat_invert(m)
        return mi == m_operator(z, a, b, x) == m_operator(x, b, a, z)

    return [run_law("m-symmetries", "m-symmetries",
                    cases(config, transversal_slots(field, ambient, "xabz")),
                    holds)]


def _run_idempotent_projection(field, ambient, config):
    return [check_idempotent_laws(field, ambient, config)]


def _run_l_inversion(field, ambient, config):
    def holds(c):
        x, a, y, b, z = c["x"], c["a"], c["y"], c["b"], c["z"]
        if inverse_rel(l_relation(x, a, y, b)) != l_relation(y, a, x, b):
            return False
        w = gamma_global(x, a, y, b, z)
        return gamma_global(y, a, x, b, w) == z

    return [run_law("l-inversion", "l-inversion",
                    cases(config, transversal_slots(field, ambient, "xaybz")),
                    holds)]


# -- involutions -------------------------------------------------------------


def _run_involution_duality(field, ambient, config):
    reports = []
    for name, form in _forms(field, ambient).items():
        reports.append(check_duality_inclusion(
            form, config, "duality-inclusion-" + name))
        reports.append(check_antihom_global(
            ortho_involution(form), config, "duality-equality-" + name))
    return reports


def _run_involution_antihom(field, ambient, config):
    reports = []
    for name, form in _forms(field, ambient).items():
        inv = ortho_involution(form)
        reports += [
            check_order_two(inv, config, "order-two-" + name),
            check_transversality_preservation(
                inv, config, "transversality-preservation-" + name),
            check_antihom_restricted(
                inv, config, "restricted-anti-homomorphism-" + name),
            check_dilation_compat(
                inv, config, "dilation-compatibility-" + name)]
    return reports


def _fixed_sample(inv, count):
    """A few fixed subspaces, guarded so carrier triple loops stay small."""
    pts = fixed_points(inv)
    if not pts:
        raise SuiteNotApplicable("the involution has no fixed subspaces here")
    if len(pts) > 24:
        raise SuiteNotApplicable(
            "fixed set of size %d is too large for full-carrier loops"
            % len(pts))
    step = max(1, len(pts) // count)
    return pts[::step][:count]


def _run_torsor_g(field, ambient, config):
    _needs_finite(field)
    reports = []
    for name, form in _forms(field, ambient).items():
        inv = ortho_involution(form)
        for k, a in enumerate(_fixed_sample(inv, 2)):
            reports.append(check_torsor_g(inv, a,
                                          "torsor-g-%s-%d" % (name, k)))
    return reports


def _run_opposite_torsor(field, ambient, config):
    _needs_finite(field)
    reports = []
    for name, form in _forms(field, ambient).items():
        inv = ortho_involution(form)
        for k, a in enumerate(_fixed_sample(inv, 2)):
            reports.append(check_opposite_torsor(
                inv, a, "opposite-torsor-%s-%d" % (name, k)))
    return reports


def _run_invariant_transport(field, ambient, config):
    _needs_finite(field)
    if ambient != 2:
        raise SuiteNotApplicable("isometry sampling is implemented for ambient 2")
    if field.involution != "identity":
        raise SuiteNotApplicable("isometry sampling assumes a plain transpose")
    return [check_invariant_transport(form, config,
                                      "isometry-transport-" + name)
            for name, form in _forms(field, ambient).items()]


def _run_lagrangian_census(field, ambient, config):
    _needs_finite(field)
    _needs_even(ambient)
    reports = [census_report(form, "lagrangian-census",
                             "census-two-paths-" + name)
               for name, form in _forms(field, ambient).items()]
    if field.char != 2:
        n = ambient // 2
        bt = standard_triple(field, n)
        omega = ortho_involution(symplectic_form(field, n))
        dual = dual_involution(omega, bt)
        same = fixed_points(dual) == isotropic_census(split_form(field, n))
        reports.append(run_law("lagrangian-census", "dual-fixed-lagrangian",
                               [{"mismatch": "fixed set vs census"}],
                               lambda c: same))
    return reports


def _run_semitorsor_closure(field, ambient, config):
    _needs_finite(field)
    _needs_even(ambient)
    inv = ortho_involution(symplectic_form(field, ambient // 2))
    if len(fixed_points(inv)) > 24:
        raise SuiteNotApplicable(
            "fixed set too large for full triple loops at this size")
    draws = cases(replace(config, trials=8),
                  subspace_slots(field, ambient, "a"))
    return [closure_report(inv, a)
            for a in dict.fromkeys(c["a"] for c in draws)]


# -- homotopes ---------------------------------------------------------------


def _chart_size(ambient):
    return max(1, ambient // 2)


def _run_homotope_monoid(field, ambient, config):
    reports = [homotopes.check_associativity(field, config),
               homotopes.check_member_criterion_sides(field, config)]
    if field.size is not None and field.size <= 5:
        n = min(2, _chart_size(ambient))
        fam = homotopes.classical_family(
            "gl", field, Matrix.identity(field, n))
        reports.append(homotopes.check_group_laws(fam, config))
    return reports


def _run_hull_closure(field, ambient, config):
    _needs_finite(field)
    n = min(2, _chart_size(ambient))
    if field.size ** (n * n) > 10000:
        raise SuiteNotApplicable("matrix enumeration too large here")
    names = ["o", "sp"] if field.involution == "identity" else ["u"]
    reports = []
    for name in names:
        for param in homotopes.family_params(name, field, n, config, 3):
            fam = homotopes.classical_family(name, field, param)
            reports.append(homotopes.check_hull_closure(fam))
    return reports


def _run_lie_bracket(field, ambient, config):
    return [homotopes.check_bracket_agreement(field, config)]


def _run_bracket_laws(field, ambient, config):
    return [homotopes.check_bracket_laws(field, config)]


def _run_triple_systems(field, ambient, config):
    n = min(2, _chart_size(ambient))
    return [homotopes.check_pair_identity(field, 2, 3, config),
            homotopes.check_second_kind_identity(field, 2, 3, config),
            homotopes.check_first_kind_control(field, 2, 3, config),
            homotopes.check_triple_via_involution(field, n, config)]


def _run_bridge(field, ambient, config):
    n = min(2, _chart_size(ambient))
    reports = [homotopes.graph_star_roundtrip(field, n, config),
               homotopes.check_chart_product(field, n, config)]
    if field.size is not None and field.involution == "identity":
        sym = homotopes.bridge_param("o", field, n)
        reports.append(homotopes.family_table_bridge("o", field, sym))
        reports.append(homotopes.unitary_transport_bridge(field, sym))
        reports.append(homotopes.family_table_bridge(
            "sp", field, homotopes.bridge_param("sp", field, n)))
    return reports


# -- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Suite:
    name: str
    module: str
    description: str
    runner: object


_SUITE_ROWS = (
    ("field-axioms", "scalars",
     "associativity, commutativity, distributivity, and inverses of nonzero"
     " scalars on sampled triples", _run_field_axioms),
    ("conjugation-involutive", "scalars",
     "conj(conj(x)) = x and conj respects sums and products", _run_conjugation),
    ("dual-nilpotency", "scalars",
     "square-zero generators vanish when squared and inversion is an"
     " involution on units of the nilpotent extensions", _run_dual_nilpotency),
    ("rref-canonical", "matlin",
     "row reduction is idempotent and depends only on the row space",
     _run_rref_canonical),
    ("rank-nullity", "matlin",
     "rank plus kernel dimension equals the column count", _run_rank_nullity),
    ("dual-matrix-arithmetic", "matlin",
     "matrix arithmetic and the nilpotent invertibility rule hold over the"
     " square-zero extensions", _run_dual_matrix_arithmetic),
    ("modular-dimension", "grassmann",
     "dim(meet) + dim(join) = dim(x) + dim(y)", _run_modular_dimension),
    ("complement-transversal", "grassmann",
     "complement(x) is transversal to x with complementary dimension",
     _run_complement_transversal),
    ("ortho-lattice", "grassmann",
     "the orthocomplement swaps meets with joins, reverses inclusions, and"
     " squares to the identity", _run_ortho_lattice),
    ("chart-graph-inverse", "grassmann",
     "chart and graph invert each other on graph subspaces",
     _run_chart_graph),
    ("projection-idempotent", "relations",
     "generalized projections are idempotent and 1 - P swaps image with"
     " kernel", _run_projection_idempotent),
    ("projection-conjugation", "relations",
     "conjugating a projection by an arbitrary relation gives the projection"
     " of the image pair", _run_projection_conjugation),
    ("adjoint-reversal", "relations",
     "the adjoint reverses composition and sends projections to projections"
     " of orthocomplements", _run_adjoint_reversal),
    ("adjoint-shift", "relations",
     "adjoint of 1 + F is 1 + adjoint(F), and the same with minus",
     _run_adjoint_shift),
    ("adjoint-involutive", "relations",
     "taking the adjoint twice returns the original relation",
     _run_adjoint_involutive),
    ("adjoint-image-inclusion", "relations",
     "the orthocomplement of F(z) contains the adjoint-inverse image of the"
     " orthocomplement of z", _run_adjoint_image_inclusion),
    ("relation-dimension", "relations",
     "dim of a relation equals kernel dimension plus image dimension",
     _run_relation_dimension),
    ("global-laws", "gamma",
     "para-associativity, the outer-pair exchange symmetry, and the torsor"
     " identities of the pentary product", _run_global_laws),
    ("gamma-agreement", "gamma",
     "projection route, witness route, and restricted route of the pentary"
     " product agree", _run_gamma_agreement),
    ("m-symmetries", "gamma",
     "difference-of-projections operators obey the swap, negation, and"
     " inversion symmetries", _run_m_symmetries),
    ("idempotent-projection", "gamma",
     "the pentary product with repeated middle pair is meet with join and"
     " matches the projection", _run_idempotent_projection),
    ("l-inversion", "gamma",
     "left multiplication by (x, a, y, b) is inverted by swapping x with y",
     _run_l_inversion),
    ("involution-duality", "involutions",
     "orthocomplement of a pentary product contains, and over finite fields"
     " equals, the pentary product of orthocomplements in reversed order",
     _run_involution_duality),
    ("involution-antihom", "involutions",
     "form complements square to the identity, preserve transversality, and"
     " reverse restricted products and dilations", _run_involution_antihom),
    ("torsor-g", "involutions",
     "fixed subspaces transversal to a and tau(a) form a torsor, abelian"
     " when a is fixed", _run_torsor_g),
    ("opposite-torsor", "involutions",
     "the torsor at tau(a) is the opposite of the torsor at a",
     _run_opposite_torsor),
    ("invariant-transport", "involutions",
     "parameters with equal form invariants give isomorphic group tables via"
     " an isometry", _run_invariant_transport),
    ("lagrangian-census", "involutions",
     "direct isotropy filtering and involution fixed points give the same"
     " Lagrangian census", _run_lagrangian_census),
    ("semitorsor-closure", "involutions",
     "the fixed set is closed under the pentary product with middle pair"
     " (a, tau(a)) for every a", _run_semitorsor_closure),
    ("homotope-monoid", "homotopes",
     "the deformed product is associative with unit 0, membership matches"
     " invertibility on either side, and members form a group",
     _run_homotope_monoid),
    ("hull-closure", "homotopes",
     "the symmetry-condition hull is closed under the deformed product and"
     " contains 0", _run_hull_closure),
    ("lie-bracket", "homotopes",
     "the group-commutator route and the direct formula give the same"
     " bracket", _run_lie_bracket),
    ("bracket-laws", "homotopes",
     "the deformed bracket is antisymmetric and satisfies the Jacobi"
     " identity", _run_bracket_laws),
    ("triple-systems", "homotopes",
     "pair and starred triple products satisfy their shift identities, with"
     " the unreversed-middle control failing", _run_triple_systems),
    ("bridge", "homotopes",
     "graph complements, chart translations, and fixed-point torsors match"
     " the deformed matrix groups exactly", _run_bridge),
)


SUITES = OrderedDict(
    (name, Suite(name, module, description, runner))
    for name, module, description, runner in _SUITE_ROWS)


def list_suites():
    return [(s.name, s.module, s.description) for s in SUITES.values()]


def run_suite(name, field, ambient, config):
    """Run one named suite; KeyError on unknown names."""
    suite = SUITES[name]
    return suite.runner(field, ambient, config)


def run_all(field, ambient, config):
    """Run every suite, turning inapplicable ones into explicit skips."""
    reports = []
    for suite in SUITES.values():
        try:
            reports.extend(suite.runner(field, ambient, config))
        except SuiteNotApplicable as exc:
            reports.append(skipped_report(suite.name, "skipped",
                                          "skipped: %s" % exc))
    return reports
