"""Check reports with a stable JSON shape, and the one source of law cases.

Every law checker produces a Report: suite and law names, how many cases ran,
how many failed, and the first counterexample (as plain JSON data) if any.
Serialization is sorted and minimal so identical runs are byte-identical.
A Report is frozen and built in one place, `run_law` (or `skipped_report`
for a suite that did not run): a law whose verdict is a single comparison
runs over a one-case list, so its counterexample is rendered like any other.

A law is a predicate over named-slot cases, defined once in the module whose
objects it is about (`checks`, `gamma`, `involutions`, `homotopes`).  Its
cases come from `cases`, the only code that chooses between enumerating and
sampling: an exhaustive run walks every combination of the law's slot pools,
a sampled run draws trial i from trial_rng(seed, i).  The slot kinds the laws
share (subspaces, relations and transversal tuples) are built in `gamma`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace

from .rng import trial_rng


@dataclass(frozen=True)
class Report:
    suite: str
    law: str
    cases: int = 0
    failures: int = 0
    first_counterexample: object = None
    notes: tuple = ()

    @property
    def passed(self):
        return self.failures == 0

    def to_dict(self):
        return {
            "suite": self.suite,
            "law": self.law,
            "cases": self.cases,
            "failures": self.failures,
            "first_counterexample": self.first_counterexample,
            "notes": list(self.notes),
            "passed": self.passed,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def run_law(suite, law, cases, predicate, describe=None, notes=()):
    """Evaluate predicate over an iterable of cases and collect a Report.

    describe renders the first failing case; by default describe_case.
    """
    describe = describe or describe_case
    count = failures = 0
    first = None
    for case in cases:
        count += 1
        if not predicate(case):
            failures += 1
            if failures == 1:
                first = describe(case)
    return Report(suite, law, count, failures, first, tuple(notes))


def run_inclusion_law(suite, law, cases, sides):
    """A law "big contains small", with sides(case) giving (big, small).

    Only a broken inclusion fails; the number of cases where it is strict
    goes into the notes, so genuinely strict cases can be collected.
    """
    from .subspaces import contains

    strict = 0

    def holds(case):
        nonlocal strict
        big, small = sides(case)
        if not contains(big, small):
            return False
        strict += big != small
        return True

    report = run_law(suite, law, cases, holds)
    if strict:
        return replace(report,
                       notes=("strict-inclusion-instances:%d" % strict,))
    return report


def skipped_report(suite, law, reason):
    return Report(suite, law, notes=(reason,))


@dataclass(frozen=True)
class CheckConfig:
    """How to drive a sampled or exhaustive law check."""

    exhaustive: bool = False
    trials: int = 200
    seed: int = 0

    def indices(self):
        return range(self.trials)


@dataclass(frozen=True)
class Slots:
    """Where the cases of one law come from.

    draw(rng) returns one sampled case, a dict from slot name to value.
    pools(), when given, maps each slot name to the tuple of values an
    exhaustive run takes it through; expand(case), when given, completes each
    such combination with the slots whose values depend on it.  A law without
    pools samples in every mode.
    """

    draw: object
    pools: object = None
    expand: object = None


def cases(config, slots):
    """The cases of one law, lazily: enumerated when exhaustive, else drawn."""
    if config.exhaustive and slots.pools is not None:
        pools = slots.pools()
        for values in itertools.product(*pools.values()):
            case = dict(zip(pools, values))
            if slots.expand is None:
                yield case
            else:
                yield from slots.expand(case)
    else:
        for i in config.indices():
            yield slots.draw(trial_rng(config.seed, i))


def describe_value(v):
    """Plain-JSON rendering of subspaces, relations, matrices, and scalars."""
    from .matrices import Matrix, format_matrix
    from .relations import LinearRelation
    from .subspaces import Subspace, subspace_to_json

    if isinstance(v, Subspace):
        return subspace_to_json(v)
    if isinstance(v, LinearRelation):
        from .relations import relation_to_json
        return relation_to_json(v)
    if isinstance(v, Matrix):
        return format_matrix(v)
    if isinstance(v, (list, tuple)):
        return [describe_value(a) for a in v]
    if isinstance(v, dict):
        return {k: describe_value(a) for k, a in sorted(v.items())}
    if v is None or isinstance(v, (bool, int, str)):
        return v
    return str(v)


def every(pool, names):
    """Lazily, every assignment of values from one pool to the named slots."""
    return (dict(zip(names, values))
            for values in itertools.product(pool, repeat=len(names)))


def describe_case(case):
    """Plain-JSON rendering of a named-slot case."""
    return {k: describe_value(v) for k, v in case.items()}
