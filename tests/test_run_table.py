"""The table one check run shares: shared draws, tau by gram, its lifetime.

Inside a run (`rng.run_table`), a `shared_draw` sampler called again from
an equal generator state returns the first value and leaves the generator
where the first call left it, `orthocomplement` takes each kernel once
per (subspace, gram), and `fixed_points` and `isotropic_census` enumerate
each fixed set and each census once per gram.  Outside a run nothing is kept, and no run leaves its table
behind, whether it returns or raises.
"""

import io
from contextlib import redirect_stdout
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsorlab import checks, cli, subspaces
from torsorlab.fields import PrimeField, Rationals
from torsorlab.gamma import transversal_tuple
from torsorlab.involutions import (fixed_points, involution, isotropic_census,
                                   ortho_involution)
from torsorlab.matrices import ShapeError
from torsorlab.relations import adjoint, random_relation
from torsorlab.reports import CheckConfig
from torsorlab.rng import SplitMix64, run_table, shared_draw, trial_rng
from torsorlab.subspaces import (orthocomplement, random_subspace,
                                 span_rows, split_form, symplectic_form)

FIELDS = {"f2": PrimeField(2), "f3": PrimeField(3), "f5": PrimeField(5),
          "rat": Rationals()}


def drawn(sampler, field, ambient, state):
    """(value, end state) of one draw from a generator at state."""
    rng = SplitMix64(state)
    return sampler(field, ambient, rng), rng.state


@settings(max_examples=40, deadline=None, database=None)
@given(name=st.sampled_from(sorted(FIELDS)),
       ambient=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
       tuple_draw=st.booleans())
def test_equal_states_share_a_draw_equal_to_an_unshared_one(
        name, ambient, seed, tuple_draw):
    field = FIELDS[name]
    sampler = transversal_tuple if tuple_draw else random_subspace
    state = trial_rng(seed, 0).state
    alone = drawn(sampler, field, ambient, state)
    with run_table():
        first = drawn(sampler, field, ambient, state)
        second = drawn(sampler, field, ambient, state)
    assert first == second == alone
    assert drawn(sampler, field, ambient, state) == alone


def test_a_shared_draw_is_drawn_once_per_run_and_never_outside(
        monkeypatch):
    calls = []
    real = subspaces.span

    def counted(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(subspaces, "span", counted)
    f3 = PrimeField(3)
    for _ in range(2):
        random_subspace(f3, 4, trial_rng(7, 0))
    assert len(calls) == 2
    with run_table():
        for _ in range(3):
            random_subspace(f3, 4, trial_rng(7, 0))
        random_subspace(f3, 4, trial_rng(7, 1))
    assert len(calls) == 4


def test_a_failed_draw_is_not_kept():
    attempts = []

    @shared_draw
    def flaky(n, rng):
        attempts.append(rng.state)
        if len(attempts) == 1:
            raise ValueError("first draw fails")
        return rng.below(n)

    with run_table():
        with pytest.raises(ValueError):
            flaky(5, SplitMix64(1))
        first, again = SplitMix64(1), SplitMix64(1)
        value = flaky(5, first)
        assert flaky(5, again) == value and again.state == first.state
    assert len(attempts) == 2


def test_a_subspace_of_another_ambient_is_refused_in_and_out_of_a_run():
    f3 = PrimeField(3)
    x = span_rows(f3, 3, [[1, 0, 1]])
    form = split_form(f3, 1)
    with pytest.raises(ShapeError):
        orthocomplement(x, form)
    with run_table():
        for _ in range(2):
            with pytest.raises(ShapeError):
                orthocomplement(x, form)


def images(pairs):
    """orthocomplement(x, form) for each (x, form), in order."""
    return [orthocomplement(x, form) for x, form in pairs]


def test_tau_images_are_kept_by_gram():
    """One subspace under forms with different grams gets each form's own
    orthocomplement within one run: split against symplectic on F3^4, and
    a relation's adjoint pairing against tau on the relation's K^8."""
    f3 = PrimeField(3)
    x = span_rows(f3, 4, [[1, 0, 1, 0]])
    split, symp = split_form(f3, 2), symplectic_form(f3, 2)
    assert split.gram != symp.gram
    f = random_relation(f3, 4, trial_rng(0, 3))
    outer = ortho_involution(split_form(f3, 4))
    alone = images([(x, split), (x, symp)]) + [adjoint(f, symp).inner,
                                               outer(f.inner)]
    assert alone[0] != alone[1] and alone[2] != alone[3]
    with run_table():
        for _ in range(2):
            inside = images([(x, ortho_involution(split)),
                             (x, ortho_involution(symp))])
            inside += [adjoint(f, symp).inner, outer(f.inner)]
            assert inside == alone


def test_a_fixed_set_is_enumerated_once_per_run_by_gram():
    """Two involutions with one gram share one fixed-set tuple within a
    run; outside a run every call enumerates afresh."""
    form = split_form(PrimeField(3), 1)
    perp, other = ortho_involution(form), involution(form.gram, "x")
    assert fixed_points(perp) == fixed_points(other)
    with run_table():
        assert fixed_points(perp) is fixed_points(other)
    assert fixed_points(perp) is not fixed_points(perp)


def test_an_isotropic_census_is_enumerated_once_per_run():
    """`census_report` and `dual-fixed-lagrangian` filter the split form's
    middle layer once per run; outside a run every call filters afresh."""
    form = split_form(PrimeField(3), 1)
    census = isotropic_census(form)
    assert len(census) == 2
    with run_table():
        assert isotropic_census(form) is isotropic_census(form) == census
    assert isotropic_census(form) is not isotropic_census(form)


def count_kernels(monkeypatch):
    """The kernels `orthocomplement` takes, one list entry each."""
    taken = []
    real = subspaces.kernel_basis

    def counted(m):
        taken.append(m)
        return real(m)

    monkeypatch.setattr(subspaces, "kernel_basis", counted)
    return taken


def assert_no_table(monkeypatch):
    """Outside a run, applying tau twice takes the kernel twice."""
    kernels = count_kernels(monkeypatch)
    f3 = PrimeField(3)
    tau = ortho_involution(split_form(f3, 1))
    x = span_rows(f3, 2, [[1, 1]])
    tau(x)
    tau(x)
    assert len(kernels) == 2


def test_no_table_outlives_run_all(monkeypatch):
    reports = checks.run_all(PrimeField(2), 2, CheckConfig(trials=2))
    assert reports
    assert_no_table(monkeypatch)


def test_no_table_outlives_a_run_that_raises(monkeypatch):
    def broken(field, ambient, config):
        raise RuntimeError("suite runner failed")

    name = next(iter(checks.SUITES))
    monkeypatch.setitem(checks.SUITES, name,
                        replace(checks.SUITES[name], runner=broken))
    with pytest.raises(RuntimeError):
        checks.run_all(PrimeField(2), 2, CheckConfig(trials=2))
    with pytest.raises(RuntimeError):
        checks.run_suite(name, PrimeField(2), 2, CheckConfig(trials=2))
    assert_no_table(monkeypatch)


def test_consecutive_checks_start_cold(monkeypatch):
    """Each `check` takes the same kernels: the second finds no table left
    by the first, which the per-layer tracer's passes rely on."""
    kernels = count_kernels(monkeypatch)
    argv = ["check", "--suite", "all", "--field", "f3", "--ambient", "4",
            "--trials", "5"]
    counts, outputs = [], []
    for _ in range(2):
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(argv) == 0
        counts.append(len(kernels))
        outputs.append(out.getvalue())
        kernels.clear()
    assert counts[0] > 0 and counts[0] == counts[1]
    assert outputs[0] == outputs[1]

