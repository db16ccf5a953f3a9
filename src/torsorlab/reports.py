"""Check reports with a stable JSON shape, and the one source of law cases.

Every law checker produces a Report: suite and law names, how many cases ran,
how many failed, and the first counterexample (as plain JSON data) if any.
`to_dict` is the dataclass fields plus `passed`, so a new field serializes
with no second edit.
`json_line` serializes sorted and minimal, for reports and every other JSON
line the command line prints, so identical runs are byte-identical.
A Report is frozen and built in one place, `run_law` (or `skipped_report`
for a suite that did not run), and never rebuilt afterwards.

A law is a predicate over named-slot cases, defined once in the module whose
objects it is about (`checks`, `gamma`, `involutions`, `homotopes`), and
declared by one `run_law` call; an inclusion the paper states is such a
predicate too, asserting the equality it is over K^n.  The predicate takes
the slots as its parameters, and `run_law` alone picks the cases: a law with
no draw (a carrier sweep, or a single comparison) enumerates in every mode,
and a law with a draw takes `cases`, its enumeration in an exhaustive run if
it has one and otherwise trial i drawn from trial_rng(seed, i).  The cases
the laws share (subspaces, relations and transversal tuples) come from
`gamma`; since every law's trial i starts from one generator state, their
draws are made once per check run and shared (`rng.shared_draw`).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass

from .matrices import Matrix, format_matrix
from .relations import LinearRelation, relation_to_json
from .rng import run_table, trial_rng
from .subspaces import Subspace, subspace_to_json


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
        return dict(asdict(self), passed=self.passed)

    def to_json(self):
        return json_line(self.to_dict())


def json_line(data):
    """Sorted, spaceless JSON: the bytes of every JSON line printed."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def run_law(suite, law, holds, config=None, draw=None, enumerate_all=None,
            describe=None, notes=()):
    """Evaluate holds(**case) over the law's cases and collect a Report.

    The cases are enumerate_all() when draw is None, else `cases(config,
    draw, enumerate_all)`; a case that lacks a slot holds names raises
    TypeError.  describe renders the first failing case; by default
    describe_value.  The law runs inside a check run's table
    (`rng.run_table`), its own unless a suite or the whole check opened one
    around it.
    """
    describe = describe or describe_value
    count = failures = 0
    first = None
    with run_table():
        swept = (enumerate_all() if draw is None
                 else cases(config, draw, enumerate_all))
        for case in swept:
            count += 1
            if not holds(**case):
                failures += 1
                if failures == 1:
                    first = describe(case)
    return Report(suite, law, count, failures, first, tuple(notes))


def skipped_report(suite, reason):
    """The report of a suite that did not run: law "skipped", one note."""
    return Report(suite, "skipped", notes=("skipped: %s" % reason,))


@dataclass(frozen=True)
class CheckConfig:
    """How to drive a sampled or exhaustive law check."""

    exhaustive: bool = False
    trials: int = 200
    seed: int = 0


def cases(config, draw, enumerate_all=None):
    """Cases drawn or enumerated, lazily: enumerate_all() when the run is
    exhaustive and one is passed, else draw(trial_rng(seed, i)) for each
    trial i.  `run_law` and the draw pools of a few laws call it."""
    if config.exhaustive and enumerate_all is not None:
        yield from enumerate_all()
    else:
        for i in range(config.trials):
            yield draw(trial_rng(config.seed, i))


def describe_value(v):
    """Plain-JSON rendering of subspaces, relations, matrices, and scalars."""
    if isinstance(v, Subspace):
        return subspace_to_json(v)
    if isinstance(v, LinearRelation):
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
