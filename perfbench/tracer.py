"""Per-layer numbers for one workload, measured in this (fresh) process.

Run as ``python3 perfbench/tracer.py --workload <name> --seed <n>`` with the
checkout's ``src`` on ``PYTHONPATH``; ``run.py --trace 1`` does that.  It
prints one JSON object: the per-layer metrics, the traced run's wall time
and the output check's verdict.

Four passes, each after clearing every memo of the library:

1. an untraced in-process run of ``cli.main``, the base for the overhead;
2. the traced run: the public functions of each layer (module) are wrapped
   by rebinding them in every ``torsorlab`` module namespace that holds
   them, and in the default arguments that captured them; each call is a
   span, aggregated into calls, total and self time per name;
3. a counting pass that wraps the scalar ring methods, kept apart from the
   timed trace so that its wrappers never inflate the matrix layer's time;
4. microbenchmarks of single layers at fixed, seeded shapes.

No file of the library changes: every wrapper is installed here and taken
away again after its pass.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import io
import json
import time
import types

import micro
from workloads import WORKLOADS, check_output, load_expected, work_done

import torsorlab
from torsorlab import (checks, cli, fields, gamma, homotopes, involutions,
                       matrices, relations, reports, rng, subspaces)

MODULES = (fields, matrices, subspaces, relations, gamma, involutions,
           homotopes, reports, rng, checks, cli, torsorlab)
LAYERS = ("matrices", "subspaces", "relations", "gamma", "involutions",
          "homotopes", "checks")
RING_METHODS = ("add", "neg", "sub", "mul", "inv", "is_zero", "is_unit",
                "conj", "from_int")


# The library's memos, held here because tracing rebinds the module names.
GAMMA_MEMO = gamma.gamma_global
ORDER_TWO_MEMO = involutions._order_two_ok
MEMOS = (GAMMA_MEMO, relations._pairing_form, ORDER_TWO_MEMO)


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


class Spans:
    """Span aggregates: per name, calls, total seconds and self seconds.

    A span's self time is its duration minus the durations of the spans it
    caused; the calls are synchronous, so those children never overlap.
    """

    def __init__(self):
        self.stack = []
        self.calls = {}
        self.total = {}
        self.self_s = {}
        self.counts = {}

    def wrap(self, name, fn, before=None, after=None):
        stack, clock = self.stack, time.perf_counter
        calls, total, self_s = self.calls, self.total, self.self_s
        for table in (calls, total, self_s):
            table.setdefault(name, 0)

        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                calls[name] += 1
                total[name] += dur
                self_s[name] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                after(result)
            return result

        return traced

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount


class Patch:
    """Rebinds objects throughout the library; ``restore`` undoes it."""

    def __init__(self):
        self.undo = []

    def set(self, owner, attr, value):
        old = getattr(owner, attr)
        self.undo.append(lambda: setattr(owner, attr, old))
        setattr(owner, attr, value)

    def set_item(self, mapping, key, value):
        old = mapping[key]
        self.undo.append(lambda: mapping.__setitem__(key, old))
        mapping[key] = value

    def everywhere(self, orig, replacement):
        """Replace ``orig`` in module namespaces and captured defaults."""
        for mod in MODULES:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self.set(mod, attr, replacement)
        for fn in _library_functions():
            if fn.__defaults__ and any(d is orig for d in fn.__defaults__):
                self.set(fn, "__defaults__", tuple(
                    replacement if d is orig else d for d in fn.__defaults__))

    def restore(self):
        for undo in reversed(self.undo):
            undo()
        self.undo.clear()


def _library_functions():
    for mod in MODULES:
        for val in vars(mod).values():
            if isinstance(val, types.FunctionType):
                yield val
            elif isinstance(val, type) and val.__module__ == mod.__name__:
                for member in vars(val).values():
                    if isinstance(member, types.FunctionType):
                        yield member


def install_trace(spans, patch):
    """Wrap each layer's public functions; names are ``<layer>.<fn>``."""

    def rref_cells(m, *_):
        spans.count("matrices.rref.cells", m.nrows * m.ncols)

    def table_cells(table):
        spans.count("involutions.cayley_table.cells",
                    sum(len(row) for row in table))

    functions = (
        (matrices, "rref", "matrices.rref", rref_cells, None),
        (matrices, "kernel_basis", "matrices.kernel_basis", None, None),
        (matrices, "mat_invert", "matrices.mat_invert", None, None),
        (subspaces, "meet", "subspaces.meet", None, None),
        (subspaces, "join", "subspaces.join", None, None),
        (subspaces, "span", "subspaces.span", None, None),
        (subspaces, "orthocomplement", "subspaces.orthocomplement", None,
         None),
        (subspaces, "is_transversal", "subspaces.is_transversal", None, None),
        (subspaces, "random_subspace", "subspaces.random_subspace", None,
         None),
        (relations, "compose", "relations.compose", None, None),
        (relations, "apply_rel", "relations.apply_rel", None, None),
        (relations, "gen_projection", "relations.gen_projection", None, None),
        (relations, "adjoint", "relations.adjoint", None, None),
        (gamma, "gamma_global", "gamma.global", None, None),
        (gamma, "gamma_oracle", "gamma.oracle", None, None),
        (gamma, "gamma_via_m", "gamma.via_m", None, None),
        (gamma, "gamma_restricted", "gamma.restricted", None, None),
        (involutions, "fixed_points", "involutions.fixed_points", None, None),
        (involutions, "torsor_G", "involutions.torsor_G", None, None),
        (involutions, "cayley_table", "involutions.cayley_table", None,
         table_cells),
        (checks, "run_all", "checks.run_all", None, None),
        (checks, "run_suite", "checks.run_suite", None, None),
        (rng, "trial_rng", "rng.trial_rng", None, None),
        (cli, "_emit", "cli.emit", None, None),
    )
    for mod, attr, name, before, after in functions:
        orig = getattr(mod, attr)
        patch.everywhere(orig, spans.wrap(name, orig, before, after))

    methods = (
        (matrices.Matrix, "__mul__", "matrices.mul"),
        (involutions.Involution, "__call__", "involutions.apply"),
        (homotopes.Homotope, "product", "homotopes.product"),
    )
    for cls, attr, name in methods:
        patch.set(cls, attr, spans.wrap(name, getattr(cls, attr)))

    for key, suite in list(checks.SUITES.items()):
        runner = spans.wrap("checks.suite." + key, suite.runner)
        patch.set_item(checks.SUITES, key,
                       dataclasses.replace(suite, runner=runner))

    orig_enum = subspaces.enumerate_subspaces

    def enumerate_counted(*args, **kwargs):
        for sub in orig_enum(*args, **kwargs):
            spans.count("subspaces.enumerated", 1)
            yield sub

    patch.everywhere(orig_enum, enumerate_counted)


def install_ring_counter(patch):
    """Count every scalar ring-method call; returns a function giving the sum.

    Each method is wrapped in ``functools.lru_cache(maxsize=0)``, which
    caches nothing and counts every call as a miss in C, so the pass costs a
    fraction of what a Python-level counting wrapper would.
    """
    counters = []
    for val in vars(fields).values():
        if isinstance(val, type) and issubclass(val, fields.Ring):
            for attr in RING_METHODS:
                if attr in vars(val):
                    counted = functools.lru_cache(maxsize=0)(vars(val)[attr])
                    counters.append(counted)
                    patch.set(val, attr, counted)
    return lambda: sum(c.cache_info().misses for c in counters)


def run_cli(argv):
    """Call ``cli.main`` in-process; returns (exit code, stdout bytes, s)."""
    out = io.StringIO()
    clear_memos()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    return code, out.getvalue().encode("utf-8"), elapsed


def layer_metrics(spans, output, workload, output_ok):
    calls, total, counts = spans.calls, spans.total, spans.counts
    gi = GAMMA_MEMO.cache_info()
    oi = ORDER_TWO_MEMO.cache_info()
    g_calls = gi.hits + gi.misses
    m = {
        "matrices.rref.calls": calls["matrices.rref"],
        "matrices.rref.cells": counts.get("matrices.rref.cells", 0),
        "matrices.kernel_basis.calls": calls["matrices.kernel_basis"],
        "matrices.mat_invert.calls": calls["matrices.mat_invert"],
        "matrices.mul.calls": calls["matrices.mul"],
        "subspaces.meet.calls": calls["subspaces.meet"],
        "subspaces.join.calls": calls["subspaces.join"],
        "subspaces.span.calls": calls["subspaces.span"],
        "subspaces.orthocomplement.calls": calls["subspaces.orthocomplement"],
        "subspaces.is_transversal.calls": calls["subspaces.is_transversal"],
        "subspaces.enumerated": counts.get("subspaces.enumerated", 0),
        "subspaces.random_subspace.total_s":
            total["subspaces.random_subspace"],
        "relations.compose.calls": calls["relations.compose"],
        "relations.apply_rel.calls": calls["relations.apply_rel"],
        "relations.gen_projection.calls": calls["relations.gen_projection"],
        "relations.adjoint.calls": calls["relations.adjoint"],
        "gamma.global.calls": g_calls,
        "gamma.global.memo_hits": gi.hits,
        "gamma.global.memo_misses": gi.misses,
        "gamma.global.memo_hit_ratio": gi.hits / g_calls if g_calls else 0.0,
        "gamma.global.total_s": total["gamma.global"],
        "gamma.oracle.total_s": total["gamma.oracle"],
        "gamma.via_m.total_s": total["gamma.via_m"],
        "gamma.restricted.total_s": total["gamma.restricted"],
        "gamma.oracle.calls": calls["gamma.oracle"],
        "gamma.via_m.calls": calls["gamma.via_m"],
        "gamma.restricted.calls": calls["gamma.restricted"],
        "involutions.apply.calls": calls["involutions.apply"],
        "involutions.fixed_points.calls": calls["involutions.fixed_points"],
        "involutions.cayley_table.cells":
            counts.get("involutions.cayley_table.cells", 0),
        "involutions.order_two.memo_hits": oi.hits,
        "involutions.order_two.memo_misses": oi.misses,
        "homotopes.product.calls": calls["homotopes.product"],
        "reports.cases": (work_done(workload, output)
                          if output_ok and workload.kind == "check" else 0),
        "rng.trial_rng.calls": calls["rng.trial_rng"],
        "cli.emit_s": total["cli.emit"],
        "cli.emit_bytes": len(output),
    }
    for layer in LAYERS:
        m[layer + ".self_s"] = sum(v for k, v in spans.self_s.items()
                                   if k.startswith(layer + "."))
    return m


def measure(workload, seed, expected):
    """The four passes; returns the metrics, the wall times and problems."""
    argv = workload.argv(seed)
    problems = []

    def checked(code, output):
        problem = ("exit code %d" % code if code != 0 else
                   check_output(workload, seed, output, expected))
        if problem:
            problems.append(problem)
        return problem is None

    code, output, untraced_s = run_cli(argv)
    checked(code, output)

    spans, patch = Spans(), Patch()
    install_trace(spans, patch)
    try:
        code, output, traced_s = run_cli(argv)
    finally:
        patch.restore()
    metrics = layer_metrics(spans, output, workload, checked(code, output))
    metrics["trace.overhead_s"] = traced_s - untraced_s

    ring_ops = install_ring_counter(patch)
    try:
        code, output, _ = run_cli(argv)
    finally:
        patch.restore()
    checked(code, output)
    metrics["fields.ops"] = ring_ops()

    clear_memos()
    metrics.update(micro.measure())
    return {"metrics": metrics, "untraced_s": untraced_s,
            "traced_s": traced_s, "passes": 3, "problems": problems}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    result = measure(WORKLOADS[args.workload], args.seed, load_expected())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
