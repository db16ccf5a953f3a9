"""Tests for report plumbing and the deterministic generator."""

import json
from dataclasses import replace

import pytest

from torsorlab.fields import PrimeField
from torsorlab.matrices import Matrix
from torsorlab.relations import LinearRelation
from torsorlab.reports import (CheckConfig, Report, cases, describe_value,
                               run_law, skipped_report)
from torsorlab.rng import SplitMix64, mix64, trial_rng
from torsorlab.subspaces import graph_of, span_rows


def numbered(count):
    """An enumeration of the cases {"n": 0}, ..., {"n": count - 1}."""
    return lambda: ({"n": n} for n in range(count))


def test_run_law_counts_cases_and_failures():
    r = run_law("demo", "parity", lambda n: n % 2 == 0,
                enumerate_all=numbered(10), describe=str)
    assert r.cases == 10
    assert r.failures == 5
    assert r.first_counterexample == "{'n': 1}"
    assert not r.passed


def test_run_law_all_pass():
    r = run_law("demo", "trivial", lambda n: True, enumerate_all=numbered(7),
                describe=str, notes=("n:7",))
    assert r.passed and r.failures == 0 and r.cases == 7
    assert r.notes == ("n:7",)
    assert r.first_counterexample is None


def slots_seen(config, draw=None, enumerate_all=None):
    """The keyword arguments run_law passes holds, one dict per case."""
    seen = []

    def holds(**slots):
        seen.append(slots)
        return True

    report = run_law("demo", "seen", holds, config, draw, enumerate_all)
    assert report.cases == len(seen)
    return seen


def drawn(rng):
    return {"n": rng.next_u64()}


def test_run_law_enumerates_a_law_with_no_draw_in_every_mode():
    """A carrier sweep or a single comparison has no draw: it runs its
    enumeration once, not `trials` times, in a sampled run too."""
    for config in (CheckConfig(trials=13), CheckConfig(exhaustive=True),
                   None):
        assert slots_seen(config, enumerate_all=numbered(3)) == [
            {"n": 0}, {"n": 1}, {"n": 2}]


def test_run_law_takes_the_enumeration_of_an_exhaustive_run():
    exhaustive = CheckConfig(exhaustive=True, trials=13)
    assert slots_seen(exhaustive, drawn, numbered(2)) == [{"n": 0}, {"n": 1}]


def test_run_law_draws_trial_i_from_its_own_generator():
    """A sampled run, and an exhaustive run of a law with no enumeration,
    draw trial i from trial_rng(seed, i)."""
    expected = [{"n": trial_rng(5, i).next_u64()} for i in range(13)]
    sampled = CheckConfig(trials=13, seed=5)
    assert slots_seen(sampled, drawn, numbered(2)) == expected
    assert slots_seen(replace(sampled, exhaustive=True), drawn) == expected


def test_run_law_passes_the_slots_as_keywords():
    def holds(x, a, z=None):
        return (x, a, z) == ("x-value", "a-value", None)

    case = {"a": "a-value", "x": "x-value"}
    r = run_law("demo", "keywords", holds, enumerate_all=lambda: [case])
    assert r.passed and r.cases == 1


def test_run_law_refuses_a_case_that_lacks_a_slot():
    """A predicate that names a slot the case does not carry fails loudly,
    never as a silent pass."""
    def holds(x, a):
        return True

    with pytest.raises(TypeError):
        run_law("demo", "missing-slot", holds,
                enumerate_all=lambda: [{"x": 1}])


def test_report_json_stable_and_sorted():
    r = Report(suite="s", law="l", cases=2, failures=0, notes=("a:1",))
    text = r.to_json()
    assert text == r.to_json()
    obj = json.loads(text)
    assert list(obj) == sorted(obj)
    assert obj["passed"] is True
    assert obj["notes"] == ["a:1"]


def test_skipped_report_shape():
    r = skipped_report("some-suite", "needs a finite field")
    assert r.passed
    assert r.cases == 0
    assert (r.law, r.notes) == ("skipped", ("skipped: needs a finite field",))


def first_draw(rng):
    return rng.next_u64()


def test_cases_enumerates_only_exhaustive_laws_that_can():
    """Sampled trials draw from trial_rng(seed, i) for i < trials; an
    exhaustive run yields exactly enumerate_all's cases, and samples when a
    law passes no enumeration."""
    sampled = CheckConfig(trials=13, seed=5)
    expected = [trial_rng(5, i).next_u64() for i in range(13)]
    assert not sampled.exhaustive
    assert list(cases(sampled, first_draw)) == expected
    assert list(cases(sampled, first_draw, lambda: "never")) == expected
    exhaustive = replace(sampled, exhaustive=True)
    assert list(cases(exhaustive, first_draw, lambda: iter("abc"))) == [
        "a", "b", "c"]
    assert list(cases(exhaustive, first_draw)) == expected


def test_describe_value_renders_core_types():
    f3 = PrimeField(3)
    sub = span_rows(f3, 2, [[1, 0]])
    rendered = describe_value(sub)
    assert rendered["ambient"] == 2
    rel = LinearRelation(graph_of(Matrix.identity(f3, 1)))
    assert describe_value(rel)["half"] == 1
    m = Matrix.identity(f3, 2)
    assert describe_value(m) == "1,0;0,1"
    assert describe_value([1, "x", None]) == [1, "x", None]
    assert describe_value({"b": sub, "a": 1}) == {
        "a": 1, "b": rendered}


def test_splitmix_reference_values():
    """First outputs from seed 0 match the published sequence."""
    gen = SplitMix64(0)
    first = [gen.next_u64() for _ in range(3)]
    assert first == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_mix64_is_deterministic_and_spreads():
    values = {mix64(i) for i in range(100)}
    assert len(values) == 100
    assert mix64(42) == mix64(42)


def test_below_range_and_error():
    gen = SplitMix64(7)
    draws = [gen.below(10) for _ in range(200)]
    assert all(0 <= d < 10 for d in draws)
    assert len(set(draws)) > 1
    try:
        gen.below(0)
    except ValueError:
        pass
    else:
        raise AssertionError("below(0) must raise")


@pytest.mark.parametrize("seed", (0, 7, 2**64 - 1, 0x9E3779B97F4A7C15))
def test_below_is_next_u64_mod_n(seed):
    """below(n) draws the same stream as next_u64() % n."""
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    for n in (1, 2, 3, 6, 19, 1000, 2**32 + 15, 2**64, 2**70):
        for _ in range(20):
            assert fast.below(n) == slow.next_u64() % n
    assert fast.state == slow.state


def test_trial_rng_independent_streams():
    a = [trial_rng(1, i).next_u64() for i in range(20)]
    b = [trial_rng(1, i).next_u64() for i in range(20)]
    c = [trial_rng(2, i).next_u64() for i in range(20)]
    assert a == b
    assert a != c
    assert len(set(a)) == 20
