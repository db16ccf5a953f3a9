"""Layer microbenchmarks at fixed, seeded shapes with cold memos.

Each metric is the median over several passes of a fixed list of inputs,
drawn from ``trial_rng(MICRO_SEED, i)`` so every run and every commit times
the same inputs.  The Gamma memo is cleared before every timed call.  These
are per-layer numbers, not gates.
"""

from __future__ import annotations

import statistics
import time

from torsorlab import gamma, involutions, relations
from torsorlab.fields import field_from_spec
from torsorlab.matrices import random_matrix, rref
from torsorlab.rng import trial_rng
from torsorlab.subspaces import (coord_subspace, meet, random_subspace,
                                 symplectic_form)

MICRO_SEED = 20090924
INPUTS = 12
PASSES = 3
RREF_SHAPES = ((6, 12), (12, 24))
MEET_AMBIENT = 6
COMPOSE_HALF = 3
GAMMA_AMBIENT = 4


def _median_us(fn, inputs, before=None):
    times = []
    clock = time.perf_counter
    for _ in range(PASSES):
        for args in inputs:
            if before is not None:
                before()
            start = clock()
            fn(*args)
            times.append(clock() - start)
    return statistics.median(times) * 1e6


def _draws(make, count=INPUTS):
    return [make(trial_rng(MICRO_SEED, i)) for i in range(count)]


def measure():
    out = {}
    fields = {"f2": field_from_spec("f2"), "f3": field_from_spec("f3"),
              "f5": field_from_spec("f5"), "rat": field_from_spec("rat")}

    for spec in ("f2", "f5", "rat"):
        for rows, cols in RREF_SHAPES:
            mats = _draws(lambda r: (random_matrix(fields[spec], rows, cols,
                                                   r),))
            out["matrices.rref_us.%s.%dx%d" % (spec, rows, cols)] = \
                _median_us(rref, mats)

    for spec in ("f5", "rat"):
        field = fields[spec]
        pairs = _draws(lambda r: (random_subspace(field, MEET_AMBIENT, r),
                                  random_subspace(field, MEET_AMBIENT, r)))
        out["subspaces.meet_us." + spec] = _median_us(meet, pairs)
        rels = _draws(lambda r: (
            relations.random_relation(field, COMPOSE_HALF, r),
            relations.random_relation(field, COMPOSE_HALF, r)))
        out["relations.compose_us." + spec] = _median_us(relations.compose,
                                                         rels)

    f5 = fields["f5"]
    tuples = _draws(lambda r: gamma.transversal_tuple(f5, GAMMA_AMBIENT, r))
    routes = (("global", gamma.gamma_global), ("oracle", gamma.gamma_oracle),
              ("via_m", gamma.gamma_via_m),
              ("restricted", gamma.gamma_restricted))
    for name, route in routes:
        out["gamma.%s_us.f5" % name] = _median_us(
            route, tuples, before=gamma.gamma_global.cache_clear)

    inv = involutions.ortho_involution(symplectic_form(f5, 2))
    subs = _draws(lambda r: (random_subspace(f5, 4, r),))
    out["involutions.apply_us.f5"] = _median_us(inv, subs)

    # At ambient 2 the fixed set has 4 points (64 Gamma calls per sweep); at
    # ambient 4 it has 40, which the semitorsor-closure suite refuses.
    f3 = fields["f3"]
    inv3 = involutions.ortho_involution(symplectic_form(f3, 1))
    sweep = [(inv3, coord_subspace(f3, 2, range(1)))] * INPUTS
    out["involutions.closure_report_s.f3"] = _median_us(
        involutions.closure_report, sweep) / 1e6
    return out
