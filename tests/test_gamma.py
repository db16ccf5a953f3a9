"""Tests for the pentary product: routes, symmetry laws, torsor structure."""

import itertools

import pytest

from torsorlab import gamma
from torsorlab.checks import run_suite
from torsorlab.fields import PrimeField, Rationals
from torsorlab.gamma import (
    TransversalityError,
    check_agreement,
    check_commutativity_aa,
    check_idempotent_laws,
    check_klein,
    check_para_associativity,
    check_restricted_agreement,
    check_torsor_axioms,
    common_complements,
    dilations,
    gamma_global,
    gamma_oracle,
    gamma_oracle_enum,
    gamma_restricted,
    gamma_via_m,
    l_relation,
    m_operator,
    proj_operator,
    transversal_tuple,
)
from torsorlab.matrices import ShapeError, mat_invert
from torsorlab.relations import apply_rel
from torsorlab.reports import CheckConfig
from torsorlab.rng import trial_rng
from torsorlab.subspaces import (
    all_subspaces,
    enumerate_subspaces,
    image_under,
    is_transversal,
    join,
    meet,
    random_subspace,
)


def rand_sub(field, ambient, seed, index):
    return random_subspace(field, ambient, trial_rng(seed, index))


def five(field, ambient, seed, index):
    rng = trial_rng(seed, index)
    return [random_subspace(field, ambient, rng) for _ in range(5)]


def relation_route(x, a, y, b, z):
    return apply_rel(l_relation(x, a, y, b), z)


def test_routes_agree_exhaustive_f2():
    """The relation route, the M route, and enumeration match the kernel."""
    f2 = PrimeField(2)
    subs = list(all_subspaces(f2, 2))
    for x in subs:
        for a in subs:
            for y in subs:
                for b in subs:
                    for z in subs:
                        w = gamma_global(x, a, y, b, z)
                        assert relation_route(x, a, y, b, z) == w
                        assert gamma_via_m(x, a, y, b, z) == w
                        assert gamma_oracle_enum(x, a, y, b, z) == w


def test_routes_reject_a_slot_from_another_field():
    f3, f5 = PrimeField(3), PrimeField(5)
    x, a, b, z = (rand_sub(f3, 2, 41, i) for i in range(4))
    y = rand_sub(f5, 2, 41, 4)
    for route in (gamma_global, gamma_oracle):
        with pytest.raises(ShapeError):
            route(x, a, y, b, z)


@pytest.mark.parametrize("slot", range(1, 5))
def test_oracle_rejects_a_foreign_space_in_each_slot(slot):
    """A wrong ambient or ring after x fails whichever slot holds it, also
    in the brute-force reference, whose vector sums would cut it short."""
    f3, f5 = PrimeField(3), PrimeField(5)
    args = [rand_sub(f3, 2, 43, i) for i in range(5)]
    for foreign in (rand_sub(f3, 3, 43, 5), rand_sub(f5, 2, 43, 6)):
        bad = list(args)
        bad[slot] = foreign
        for route in (gamma_oracle, gamma_oracle_enum):
            with pytest.raises(ShapeError):
                route(*bad)
    assert gamma_oracle(*args).ambient == 2


def test_routes_agree_random_f3():
    f3 = PrimeField(3)
    for i in range(200):
        x, a, y, b, z = five(f3, 2, 1, i)
        w = gamma_global(x, a, y, b, z)
        assert gamma_via_m(x, a, y, b, z) == w
        assert relation_route(x, a, y, b, z) == w


def test_routes_agree_random_f5_ambient3():
    f5 = PrimeField(5)
    for i in range(60):
        x, a, y, b, z = five(f5, 3, 2, i)
        w = gamma_global(x, a, y, b, z)
        assert relation_route(x, a, y, b, z) == w


def test_para_associativity_random():
    """(x y (z u v)) = (x (u z y) v) = ((x y z) u v) with one fixed middle pair."""
    f3 = PrimeField(3)
    for i in range(150):
        x, a, y, b, z, u, v = [rand_sub(f3, 2, 3, 7 * i + k) for k in range(7)]
        lhs = gamma_global(x, a, y, b, gamma_global(z, a, u, b, v))
        mid = gamma_global(x, a, gamma_global(u, a, z, b, y), b, v)
        rhs = gamma_global(gamma_global(x, a, y, b, z), a, u, b, v)
        assert lhs == mid == rhs
    r = check_para_associativity(f3, 2, CheckConfig(trials=150, seed=3))
    assert r.failures == 0, r.first_counterexample
    assert r.cases == 150


def test_klein_symmetries_random():
    """Gamma is unchanged under the two middle-outer exchanges."""
    f3 = PrimeField(3)
    for i in range(200):
        x, a, y, b, z = five(f3, 2, 5, i)
        w = gamma_global(x, a, y, b, z)
        assert gamma_global(a, x, y, z, b) == w
        assert gamma_global(z, b, y, a, x) == w


def test_global_law_bundles_exhaustive_f2():
    cfg = CheckConfig(exhaustive=True)
    f2 = PrimeField(2)
    for fn in (check_para_associativity, check_klein, check_idempotent_laws,
               check_torsor_axioms, check_commutativity_aa):
        r = fn(f2, 2, cfg)
        assert r.failures == 0, (r.law, r.first_counterexample)
        assert r.cases > 0


def test_para_associativity_catches_broken_products(monkeypatch):
    """A deliberately wrong pentary map must fail the associativity sweep."""
    f2 = PrimeField(2)

    def broken(x, a, y, b, z):
        return meet(x, z)

    monkeypatch.setattr(gamma, "gamma_global", broken)
    r = check_para_associativity(f2, 2, CheckConfig(trials=60, seed=2))
    assert r.failures > 0
    assert r.first_counterexample is not None


def test_klein_catches_broken_products(monkeypatch):
    f2 = PrimeField(2)

    def broken(x, a, y, b, z):
        return join(x, meet(y, z))

    monkeypatch.setattr(gamma, "gamma_global", broken)
    r = check_klein(f2, 2, CheckConfig(trials=60, seed=2))
    assert r.failures > 0


def test_idempotent_projection_formula():
    """Gamma(x, a, a, x, z) = x meet (a join z) and the complement swap rule."""
    f3 = PrimeField(3)
    for i in range(120):
        x, a, _, _, z = five(f3, 3, 7, i)
        assert gamma_global(x, a, a, x, z) == meet(x, join(a, z))


def test_projector_complement_identity():
    """P(x, a) and P(a, x) are idempotent and sum to the identity."""
    from torsorlab.matrices import Matrix

    f3 = PrimeField(3)
    eye = Matrix.identity(f3, 2)
    count = 0
    for i in range(400):
        if count >= 60:
            break
        x = rand_sub(f3, 2, 11, 2 * i)
        a = rand_sub(f3, 2, 11, 2 * i + 1)
        if not is_transversal(x, a):
            continue
        count += 1
        p = proj_operator(x, a)
        q = proj_operator(a, x)
        assert p * p == p
        assert q * q == q
        assert p + q == eye
        assert p * q == Matrix.zeros(f3, 2, 2)
    assert count >= 60


def test_m_operator_symmetries():
    """M(x, a, b, z) = M(z, b, a, x) = -M(a, x, z, b); inverses swap the pairs."""
    f3 = PrimeField(3)
    found = 0
    for i in range(300):
        if found >= 80:
            break
        rng = trial_rng(13, i)
        try:
            x, a, y, b, z = transversal_tuple(f3, 2, rng)
        except TransversalityError:
            continue
        found += 1
        m = m_operator(x, a, b, z)
        assert m == m_operator(z, b, a, x)
        assert m == -m_operator(a, x, z, b)
        assert mat_invert(m) == m_operator(z, a, b, x)
        assert mat_invert(m) == m_operator(x, b, a, z)
    assert found >= 80


def test_torsor_axioms_on_carriers():
    """For transversal middle pairs: (x y y) = x = (y y x)."""
    f3 = PrimeField(3)
    checked = 0
    for i in range(200):
        if checked >= 60:
            break
        rng = trial_rng(17, i)
        try:
            x, a, y, b, _ = transversal_tuple(f3, 2, rng)
        except TransversalityError:
            continue
        checked += 1
        assert gamma_global(x, a, y, b, y) == x
        assert gamma_global(y, a, y, b, x) == x
    assert checked >= 60


def test_carrier_elements_form_a_torsor():
    """Left and right translations by carrier elements are bijections."""
    f2 = PrimeField(2)
    subs = list(enumerate_subspaces(f2, 2, 1))
    for a in subs:
        for b in subs:
            carrier = common_complements(a, b)
            if len(carrier) < 2:
                continue
            y = carrier[0]
            for x in carrier:
                images = {gamma_global(x, a, y, b, z) for z in carrier}
                assert images == set(carrier)


def test_commutativity_when_middle_pair_repeats():
    """Gamma(x, a, y, a, z) is symmetric in x and z."""
    f3 = PrimeField(3)
    for i in range(150):
        x, a, y, _, z = five(f3, 2, 19, i)
        assert gamma_global(x, a, y, a, z) == gamma_global(z, a, y, a, x)


def test_restricted_agreement():
    f3 = PrimeField(3)
    checked = 0
    for i in range(300):
        if checked >= 80:
            break
        rng = trial_rng(23, i)
        try:
            x, a, y, b, z = transversal_tuple(f3, 2, rng)
        except TransversalityError:
            continue
        checked += 1
        assert gamma_restricted(x, a, y, b, z) == gamma_global(x, a, y, b, z)
    assert checked >= 80
    r = check_restricted_agreement(f3, 2, CheckConfig(trials=100, seed=23))
    assert r.failures == 0, r.first_counterexample


def test_agreement_bundle_reports():
    f2 = PrimeField(2)
    r = check_agreement(f2, 2, CheckConfig(exhaustive=True))
    assert r.failures == 0, r.first_counterexample
    assert r.cases == 5 ** 5
    subs = all_subspaces(f2, 2)
    for t in itertools.product(subs, repeat=5):
        assert gamma_oracle_enum(*t) == gamma_global(*t)
    f3 = PrimeField(3)
    r = check_agreement(f3, 2, CheckConfig(trials=150, seed=1))
    assert r.failures == 0
    assert r.cases == 150


def test_adjoint_image_inclusion_report():
    f3 = PrimeField(3)
    [r] = run_suite("adjoint-image-inclusion", f3, 2,
                    CheckConfig(trials=150, seed=3))
    assert r.failures == 0, r.first_counterexample
    assert r.cases == 150


def test_dilation_fixes_endpoints():
    """Scaling by 1 is the identity; scaling by 0 projects onto x along a."""
    f5 = PrimeField(5)
    checked = 0
    for i in range(200):
        if checked >= 50:
            break
        rng = trial_rng(29, i)
        try:
            x, a, y, _, _ = transversal_tuple(f5, 2, rng)
        except TransversalityError:
            continue
        checked += 1
        one, zero = dilations((f5.one, f5.zero), x, a, y)
        assert one == y
        assert zero == image_under(proj_operator(x, a), y)
    assert checked >= 50


@pytest.mark.parametrize("field", (PrimeField(5), Rationals()),
                         ids=("f5", "rat"))
def test_dilations_match_the_two_projection_operator(field):
    """One projection for all scalars gives s P_a^x + P_x^a applied to y."""
    scalars = [field.zero, field.one, field.from_int(2), field.from_int(-3)]
    checked = 0
    for i in range(80):
        try:
            x, a, y, _, _ = transversal_tuple(field, 3, trial_rng(37, i))
        except TransversalityError:
            continue
        checked += 1
        got = dilations(scalars, x, a, y)
        assert got == [image_under(proj_operator(a, x).scale(s)
                                   + proj_operator(x, a), y)
                       for s in scalars]
        assert dilations((), x, a, y) == []
    assert checked >= 40


def test_dilation_needs_transversality():
    f3 = PrimeField(3)
    a = rand_sub(f3, 2, 31, 0)
    with pytest.raises(TransversalityError):
        dilations((f3.one,), a, a, a)
    with pytest.raises(TransversalityError):
        dilations((), a, a, a)


def test_transversal_tuple_properties():
    """(a, b) is the first pair of whole random subspaces of one dimension
    drawn from the rng; x, y, z are common complements of it."""
    for field, ambients in ((PrimeField(2), (1, 2, 3, 4)),
                            (PrimeField(3), (1, 2, 3, 4)),
                            (PrimeField(5), (1, 2, 3, 4)),
                            (Rationals(), (2,))):
        for n in ambients:
            for i in range(300):
                rng = trial_rng(37, i)
                while True:
                    a = random_subspace(field, n, rng)
                    b = random_subspace(field, n, rng)
                    if b.dim == a.dim:
                        break
                x, got_a, y, got_b, z = transversal_tuple(field, n,
                                                          trial_rng(37, i))
                assert (got_a, got_b) == (a, b)
                for s in (x, y, z):
                    assert s.dim == n - a.dim
                    assert is_transversal(s, a)
                    assert is_transversal(s, b)


def _draw_pairs(field, n):
    """(a, b) pairs of one dimension: a = b; a != b, meeting when they can;
    a = b = 0; a = b = K^n."""
    lines = tuple(enumerate_subspaces(field, n, 1))
    if n == 3:
        planes = tuple(enumerate_subspaces(field, n, 2))
        a, b = planes[0], planes[1]
        assert meet(a, b).dim == 1
    else:
        a, b = lines[0], lines[1]
    zero, whole = (next(enumerate_subspaces(field, n, k)) for k in (0, n))
    return ((lines[0], lines[0]), (a, b), (zero, zero), (whole, whole))


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_outer_draw_is_uniform_on_common_complements(p, n):
    """Every common complement occurs, each within 25% of the mean count."""
    field = PrimeField(p)
    for a, b in _draw_pairs(field, n):
        carrier = common_complements(a, b)
        counts = dict.fromkeys(carrier, 0)
        for i in range(3000):
            s = gamma._common_complement(a, b, trial_rng(41, i))
            counts[s] += 1
        assert len(counts) == len(carrier)
        mean = 3000 / len(carrier)
        assert all(abs(c - mean) <= 0.25 * mean for c in counts.values())


@pytest.mark.parametrize("p,ambients", [(2, (1, 2, 3, 4)), (3, (1, 2, 3))])
def test_common_complements_match_the_grassmannian_filter(p, ambients):
    """The chart enumeration lists, once each, exactly the subspaces of the
    complementary dimension that are transversal to both a and b."""
    field = PrimeField(p)
    for n in ambients:
        subspaces = all_subspaces(field, n)
        for a in subspaces:
            layer = [s for s in enumerate_subspaces(field, n, n - a.dim)
                     if is_transversal(s, a)]
            for b in subspaces:
                got = common_complements(a, b)
                want = {s for s in layer if is_transversal(s, b)}
                assert len(got) == len(set(got)) and set(got) == want, (a, b)


def test_transversal_tuple_draws_few_random_subspaces(monkeypatch):
    """Only a and b are whole random subspaces: no rejection of outer slots."""
    calls = []

    def counted(field, ambient, rng):
        calls.append(1)
        return random_subspace(field, ambient, rng)

    monkeypatch.setattr(gamma, "random_subspace", counted)
    for seed in range(200):
        transversal_tuple(PrimeField(3), 4, trial_rng(seed, 0))
    assert len(calls) / 200 <= 12
