"""Named check suites: one runnable suite per library invariant.

Each suite is a registry row: a stable name, the module whose invariant it
validates, a one-line description, and a runner producing Report objects.
Runners take (field, ambient, config) so the command line can point any
suite at any field and size; suites that need a finite field or an even
ambient raise SuiteNotApplicable, which the all-suites driver turns into a
skip note.  A runner is written out only where a suite picks parameters or
refuses input; a row whose suite only runs laws names them: `_laws` for laws
taking (field, ambient, config), `_tau_laws` for (tau, config, law) checks
run for each standard form's tau, each law name suffixed with the form's.
`involution-duality` is one: inclusion, then equality, form by form.

Each law is defined once: those of scalars, matrices, the Grassmannian and
relations here, those of the pentary product and its operators in `gamma`,
of involutions and their torsors in `involutions`, and of deformed matrix
products in `homotopes`.  A law is one `reports.run_law` call, which names
its suite with a constant in its own module and takes the law's draw and
enumeration, most from `gamma`'s `subspace_cases`, `relation_cases` and
`transversal_cases`; a law with no draw enumerates in every mode.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from . import homotopes
from .fields import DualRing
from .gamma import (check_agreement, check_commutativity_aa,
                    check_idempotent_laws, check_klein, check_l_inversion,
                    check_m_symmetries, check_para_associativity,
                    check_restricted_agreement, check_torsor_axioms,
                    relation_cases, subspace_cases)
from .involutions import (census_report, check_antihom_global,
                          check_antihom_restricted, check_dilation_compat,
                          check_duality_inclusion, check_invariant_transport,
                          check_opposite_torsor, check_order_two,
                          check_torsor_g, check_transversality_preservation,
                          closure_report, dual_involution, fixed_points,
                          isotropic_census, ortho_involution)
from .matrices import (Matrix, is_invertible, kernel_basis, mat_invert,
                       random_invertible, random_matrix, rank, rref)
from .relations import (adjoint, apply_rel, compose, gen_projection,
                        inverse_rel, one_minus, one_plus)
from .reports import cases, run_law, skipped_report
from .rng import run_table
from .subspaces import (complement, contains, coord_subspace, full_subspace,
                        graph_of, chart_of, is_transversal, join, meet,
                        random_subspace, standard_forms)


class SuiteNotApplicable(Exception):
    """The suite cannot run at this field/ambient combination."""


def _needs_finite(field):
    if field.size is None:
        raise SuiteNotApplicable("needs a finite field")


def _forms(field, ambient):
    if ambient % 2 != 0 or ambient == 0:
        raise SuiteNotApplicable("needs a positive even ambient")
    return standard_forms(field, ambient // 2)


# -- scalars -----------------------------------------------------------------


def _describe_scalars(field):
    """Render a case whose every slot holds a scalar of field."""
    return lambda c: {k: field.format(v) for k, v in c.items()}


def _run_field_axioms(field, ambient, config):
    def draw(rng):
        return dict(x=field.sample(rng), y=field.sample(rng),
                    z=field.sample(rng))

    def holds(x, y, z):
        F = field
        return (F.add(F.add(x, y), z) == F.add(x, F.add(y, z))
                and F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))
                and F.add(x, y) == F.add(y, x) and F.mul(x, y) == F.mul(y, x)
                and F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
                and F.add(x, F.zero) == x and F.mul(x, F.one) == x
                and F.add(x, F.neg(x)) == F.zero
                and (F.is_zero(x) or F.mul(x, F.inv(x)) == F.one))

    return [run_law("field-axioms", "field-axioms", holds, config, draw,
                    describe=_describe_scalars(field))]


def _run_conjugation(field, ambient, config):
    def draw(rng):
        return dict(x=field.sample(rng), y=field.sample(rng))

    def holds(x, y):
        F = field
        if F.conj(F.conj(x)) != x:
            return False
        if F.conj(F.mul(x, y)) != F.mul(F.conj(x), F.conj(y)):
            return False
        return F.conj(F.add(x, y)) == F.add(F.conj(x), F.conj(y))

    return [run_law("conjugation-involutive", "conjugation-involutive",
                    holds, config, draw, describe=_describe_scalars(field))]


def _run_dual_nilpotency(field, ambient, config):
    dual = DualRing(field)
    bidual = DualRing(dual)

    def draw(rng):
        return dict(d=dual.sample(rng), b=bidual.sample(rng),
                    s=field.sample(rng))

    def holds(d, b, s):
        eps = dual.eps_times(field.one)
        if not dual.is_zero(dual.mul(eps, eps)):
            return False
        if not dual.is_zero(dual.mul(dual.eps_times(s), dual.eps_times(s))):
            return False
        e1 = bidual.embed(dual.eps_times(field.one))
        e2 = bidual.eps_times(dual.embed(field.one))
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

    return [run_law("dual-nilpotency", "dual-nilpotency", holds, config, draw,
                    describe=show)]


# -- matlin ------------------------------------------------------------------


def _run_rref_canonical(field, ambient, config):
    def draw(rng):
        p = rng.below(3) + 1
        q = rng.below(3) + 1
        m = random_matrix(field, p, q, rng)
        return dict(m=m, t=random_invertible(field, p, rng))

    def holds(m, t):
        red, r = rref(m)
        again, r2 = rref(red)
        if again != red or r2 != r:
            return False
        mixed, _ = rref(t * m)
        return mixed == red

    return [run_law("rref-canonical", "rref-canonical", holds, config, draw)]


def _run_rank_nullity(field, ambient, config):
    def draw(rng):
        p = rng.below(4) + 1
        q = rng.below(4) + 1
        return dict(m=random_matrix(field, p, q, rng))

    def holds(m):
        return rank(m) + kernel_basis(m).nrows == m.ncols

    return [run_law("rank-nullity", "rank-nullity", holds, config, draw)]


def _run_dual_matrix_arithmetic(field, ambient, config):
    reports = []
    dual = DualRing(field)
    rings = (("dual", dual, lambda e: e[0]),
             ("bidual", DualRing(dual), lambda e: e[0][0]))
    for label, ring, constant in rings:
        def draw(rng, ring=ring):
            n = rng.below(3) + 1
            return {k: random_matrix(ring, n, n, rng) for k in "abc"}

        def holds(a, b, c, ring=ring, constant=constant):
            if (a + b) * c != a * c + b * c:
                return False
            base_part = Matrix(field, a.ncols,
                               tuple(tuple(constant(e) for e in row)
                                     for row in a.entries))
            invertible = is_invertible(a)
            if invertible != is_invertible(base_part):
                return False
            return (not invertible
                    or mat_invert(a) * a == Matrix.identity(ring, a.nrows))

        reports.append(run_law("dual-matrix-arithmetic",
                               "nilpotent-entries-%s" % label, holds, config,
                               draw))
    return reports


# -- grassmann ---------------------------------------------------------------


def _run_modular_dimension(field, ambient, config):
    def holds(x, a):
        return meet(x, a).dim + join(x, a).dim == x.dim + a.dim

    return [run_law("modular-dimension", "modular-dimension", holds, config,
                    *subspace_cases(field, ambient, "xa"))]


def _run_complement_transversal(field, ambient, config):
    def holds(x):
        y = complement(x)
        return is_transversal(x, y) and y.dim == ambient - x.dim

    return [run_law("complement-transversal", "complement-transversal",
                    holds, config, *subspace_cases(field, ambient, "x"))]


def check_ortho_lattice(tau, config, law):
    def holds(x, a):
        if tau(tau(x)) != x:
            return False
        if tau(meet(x, a)) != join(tau(x), tau(a)):
            return False
        return not contains(x, a) or contains(tau(a), tau(x))

    return run_law("ortho-lattice", law, holds, config,
                   *subspace_cases(tau.field, tau.ambient, "xa"))


def _run_chart_graph(field, ambient, config):
    if ambient < 2:
        raise SuiteNotApplicable("needs ambient at least 2")
    q = ambient // 2
    p = ambient - q
    axis = coord_subspace(field, ambient, range(p, ambient))

    def draw(rng):
        return dict(m=random_matrix(field, q, p, rng),
                    x=random_subspace(field, ambient, rng))

    def holds(m, x):
        if chart_of(graph_of(m), p) != m:
            return False
        if x.dim == p and is_transversal(x, axis):
            return graph_of(chart_of(x, p)) == x
        return True

    return [run_law("chart-graph-inverse", "chart-graph-inverse", holds,
                    config, draw)]


# -- relations ---------------------------------------------------------------


def _run_projection_idempotent(field, ambient, config):
    def holds(x, a):
        p = gen_projection(x, a)
        if compose(p, p) != p:
            return False
        return one_minus(p) == gen_projection(a, x)

    return [run_law("projection-idempotent", "projection-idempotent", holds,
                    config, *subspace_cases(field, ambient, "xa"))]


def _run_projection_conjugation(field, ambient, config):
    def holds(f, z, c):
        lhs = compose(f, compose(gen_projection(z, c), inverse_rel(f)))
        rhs = gen_projection(apply_rel(f, z), apply_rel(f, c))
        return lhs == rhs

    return [run_law("projection-conjugation", "projection-conjugation",
                    holds, config, *relation_cases(field, ambient, "f", "zc"))]


def check_adjoint_reversal(tau, config, law):
    def holds(f, g):
        return (adjoint(compose(g, f), tau)
                == compose(adjoint(f, tau), adjoint(g, tau)))

    return run_law("adjoint-reversal", law, holds, config,
                   *relation_cases(tau.field, tau.ambient, "fg"))


def check_adjoint_projection(tau, config, law):
    def holds(x, a):
        return (adjoint(gen_projection(x, a), tau)
                == gen_projection(tau(a), tau(x)))

    return run_law("adjoint-reversal", law, holds, config,
                   *subspace_cases(tau.field, tau.ambient, "xa"))


def check_adjoint_shift(tau, config, law):
    def holds(f):
        fs = adjoint(f, tau)
        if adjoint(one_plus(f), tau) != one_plus(fs):
            return False
        return adjoint(one_minus(f), tau) == one_minus(fs)

    return run_law("adjoint-shift", law, holds, config,
                   *relation_cases(tau.field, tau.ambient, "f"))


def check_adjoint_involutive(tau, config, law):
    def holds(f):
        return adjoint(adjoint(f, tau), tau) == f

    return run_law("adjoint-involutive", law, holds, config,
                   *relation_cases(tau.field, tau.ambient, "f"))


def _run_adjoint_image_inclusion(field, ambient, config):
    """tau(F z) = (F*)^-1(tau z), which the paper states as an inclusion.

    Over K^n it is an equality: for u orthogonal to F(z), (v, w) -> beta(u,
    w) is well defined on dom F ((0, w) in F puts w in F(z)) and vanishes on
    its meet with z; extended by 0 on z it is beta(., t) for some t in tau z
    (nondegeneracy), and (u, t) lies in F*.
    """
    tau = ortho_involution(_forms(field, ambient)["symplectic"])

    def holds(f, z):
        return (tau(apply_rel(f, z))
                == apply_rel(inverse_rel(adjoint(f, tau)), tau(z)))

    return [run_law("adjoint-image-inclusion", "adjoint-image-inclusion",
                    holds, config, *relation_cases(field, ambient, "f", "z"))]


def _run_relation_dimension(field, ambient, config):
    first_half = coord_subspace(field, 2 * ambient, range(ambient))
    everything = full_subspace(field, ambient)

    def holds(f):
        ker_dim = meet(f.inner, first_half).dim
        im_dim = apply_rel(f, everything).dim
        return f.inner.dim == ker_dim + im_dim

    return [run_law("relation-dimension", "relation-dimension", holds,
                    config, *relation_cases(field, ambient, "f"))]


# -- involutions -------------------------------------------------------------


# The largest fixed set the torsor and closure suites loop over in full.
FIXED_SET_BUDGET = 24


def _fixed_sample(inv):
    """Two fixed subspaces, guarded so carrier triple loops stay small."""
    pts = fixed_points(inv)
    if len(pts) > FIXED_SET_BUDGET:
        raise SuiteNotApplicable(
            "fixed set of size %d is too large for full-carrier loops"
            % len(pts))
    step = max(1, len(pts) // 2)
    return pts[::step][:2]


def _run_fixed_torsors(check, prefix, field, ambient, config):
    """check(inv, a, law) for two fixed a of each standard form's tau; a
    tau fixing nothing is faulty, since every standard form has a
    Lagrangian, and fails the form's law 0 on one case."""
    _needs_finite(field)
    reports = []
    for name, form in _forms(field, ambient).items():
        inv = ortho_involution(form)
        sample = _fixed_sample(inv)
        if not sample:
            reports.append(run_law(
                prefix, "%s-%s-0" % (prefix, name), lambda **c: False,
                enumerate_all=lambda: [{"fixed-points": 0}]))
        for k, a in enumerate(sample):
            reports.append(check(inv, a, "%s-%s-%d" % (prefix, name, k)))
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
    forms = _forms(field, ambient)
    reports = [census_report(form, "census-two-paths-" + name)
               for name, form in forms.items()]
    if field.char != 2:
        dual = dual_involution(ortho_involution(forms["symplectic"]))
        same = fixed_points(dual) == isotropic_census(forms["split"])
        reports.append(run_law(
            "lagrangian-census", "dual-fixed-lagrangian",
            lambda mismatch: same,
            enumerate_all=lambda: [{"mismatch": "fixed set vs census"}]))
    return reports


def _run_semitorsor_closure(field, ambient, config):
    _needs_finite(field)
    inv = ortho_involution(_forms(field, ambient)["symplectic"])
    if len(fixed_points(inv)) > FIXED_SET_BUDGET:
        raise SuiteNotApplicable(
            "fixed set too large for full triple loops at this size")
    draws = cases(replace(config, trials=8),
                  *subspace_cases(field, ambient, "a"))
    return [closure_report(inv, a)
            for a in dict.fromkeys(c["a"] for c in draws)]


# -- homotopes ---------------------------------------------------------------


def _chart_size(ambient):
    """The size n of the n x n matrices the homotope suites work with."""
    return min(2, max(1, ambient // 2))


def _run_homotope_monoid(field, ambient, config):
    reports = [homotopes.check_associativity(field, config),
               homotopes.check_member_criterion_sides(field, config)]
    if field.size is not None and field.size <= 5:
        gl = homotopes.Homotope(Matrix.identity(field, _chart_size(ambient)))
        reports.append(homotopes.check_group_laws(gl))
    return reports


def _run_hull_closure(field, ambient, config):
    _needs_finite(field)
    n = _chart_size(ambient)
    if field.size ** (n * n) > 10000:
        raise SuiteNotApplicable("matrix enumeration too large here")
    names = ["o", "sp"] if field.involution == "identity" else ["u"]
    reports = []
    for name in names:
        for param in homotopes.family_params(name, field, n, config):
            fam = homotopes.classical_family(name, param)
            reports.append(homotopes.check_hull_closure(fam))
    return reports


def _run_lie_bracket(field, ambient, config):
    return [homotopes.check_bracket_agreement(field, config)]


def _run_bracket_laws(field, ambient, config):
    return [homotopes.check_bracket_laws(field, config)]


def _run_triple_systems(field, ambient, config):
    n = _chart_size(ambient)
    return [homotopes.check_pair_identity(field, config),
            homotopes.check_second_kind_identity(field, config),
            homotopes.check_first_kind_control(field, config),
            homotopes.check_triple_via_involution(field, n, config)]


def _run_bridge(field, ambient, config):
    n = _chart_size(ambient)
    reports = [homotopes.graph_star_roundtrip(field, n, config),
               homotopes.check_chart_product(field, n, config)]
    if field.size is not None and field.involution == "identity":
        sym = homotopes.bridge_param("o", field, n)
        reports.append(homotopes.family_table_bridge("o", sym))
        reports.append(homotopes.unitary_transport_bridge(sym))
        reports.append(homotopes.family_table_bridge(
            "sp", homotopes.bridge_param("sp", field, n)))
    return reports


# -- registry ----------------------------------------------------------------


def _laws(*laws):
    """The runner of a suite that runs law(field, ambient, config) for each
    law, in order."""
    def run(field, ambient, config):
        return [law(field, ambient, config) for law in laws]

    return run


def _tau_laws(*pairs):
    """The runner of a suite that, for the tau of each standard form in turn,
    runs check(tau, config, law + "-" + form name) for each (law, check)."""
    def run(field, ambient, config):
        return [check(ortho_involution(form), config, law + "-" + name)
                for name, form in _forms(field, ambient).items()
                for law, check in pairs]

    return run


@dataclass(frozen=True)
class Suite:
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
     " squares to the identity",
     _tau_laws(("ortho-lattice", check_ortho_lattice))),
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
     " of orthocomplements",
     _tau_laws(("adjoint-reversal", check_adjoint_reversal),
               ("adjoint-projection", check_adjoint_projection))),
    ("adjoint-shift", "relations",
     "adjoint of 1 + F is 1 + adjoint(F), and the same with minus",
     _tau_laws(("adjoint-shift", check_adjoint_shift))),
    ("adjoint-involutive", "relations",
     "taking the adjoint twice returns the original relation",
     _tau_laws(("adjoint-involutive", check_adjoint_involutive))),
    ("adjoint-image-inclusion", "relations",
     "the orthocomplement of F(z) equals the adjoint-inverse image of the"
     " orthocomplement of z", _run_adjoint_image_inclusion),
    ("relation-dimension", "relations",
     "dim of a relation equals kernel dimension plus image dimension",
     _run_relation_dimension),
    ("global-laws", "gamma",
     "para-associativity, the outer-pair exchange symmetry, and the torsor"
     " identities of the pentary product",
     _laws(check_para_associativity, check_klein, check_torsor_axioms,
           check_commutativity_aa)),
    ("gamma-agreement", "gamma",
     "projection route, witness route, and restricted route of the pentary"
     " product agree", _laws(check_agreement, check_restricted_agreement)),
    ("m-symmetries", "gamma",
     "difference-of-projections operators obey the swap, negation, and"
     " inversion symmetries", _laws(check_m_symmetries)),
    ("idempotent-projection", "gamma",
     "the pentary product with repeated middle pair is meet with join and"
     " matches the projection", _laws(check_idempotent_laws)),
    ("l-inversion", "gamma",
     "left multiplication by (x, a, y, b) is inverted by swapping x with y",
     _laws(check_l_inversion)),
    ("involution-duality", "involutions",
     "orthocomplement of a pentary product equals the pentary product of"
     " orthocomplements in reversed order",
     _tau_laws(("duality-inclusion", check_duality_inclusion),
               ("duality-equality", check_antihom_global))),
    ("involution-antihom", "involutions",
     "form complements square to the identity, preserve transversality, and"
     " reverse restricted products and dilations",
     _tau_laws(("order-two", check_order_two),
               ("transversality-preservation",
                check_transversality_preservation),
               ("restricted-anti-homomorphism", check_antihom_restricted),
               ("dilation-compatibility", check_dilation_compat))),
    ("torsor-g", "involutions",
     "fixed subspaces transversal to a and tau(a) form a torsor, abelian"
     " when a is fixed", partial(_run_fixed_torsors, check_torsor_g,
                                 "torsor-g")),
    ("opposite-torsor", "involutions",
     "the torsor at tau(a) is the opposite of the torsor at a",
     partial(_run_fixed_torsors, check_opposite_torsor, "opposite-torsor")),
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


SUITES = {name: Suite(module, description, runner)
          for name, module, description, runner in _SUITE_ROWS}


def list_suites():
    return [(name, s.module, s.description) for name, s in SUITES.items()]


def run_suite(name, field, ambient, config):
    """Run one named suite in one check run; KeyError on unknown names."""
    suite = SUITES[name]
    with run_table():
        return suite.runner(field, ambient, config)


def run_all(field, ambient, config):
    """Run every suite in one check run, whose draws and tau images all
    suites share, turning inapplicable ones into explicit skips."""
    reports = []
    with run_table():
        for name, suite in SUITES.items():
            try:
                reports.extend(suite.runner(field, ambient, config))
            except SuiteNotApplicable as exc:
                reports.append(skipped_report(name, exc))
    return reports
