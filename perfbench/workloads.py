"""The benchmark's workloads and the check every run's output must pass.

Each workload is one ``torsorlab`` CLI invocation.  The two sampled check
workloads take the benchmark seed as ``--seed``; the exhaustive check and the
Cayley table are fixed inputs and ignore it.

Run ``python3 perfbench/workloads.py --record`` from the repository root to
re-record ``expected.json`` (stdout digests and per-law case counts at the
recorded seed).  Do that only in a change that alters report bytes on
purpose, and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected.json"
RECORDED_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple
    seeded: bool

    def argv(self, seed):
        """CLI arguments for this workload at the benchmark seed."""
        extra = ("--seed", str(seed)) if self.seeded else ()
        return list(self.args) + list(extra)

    @property
    def kind(self):
        return self.args[0]


# Why each workload is here is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("f2-exhaustive",
             ("check", "--suite", "all", "--field", "f2", "--ambient", "2",
              "--exhaustive"),
             False),
    Workload("f3-sampled",
             ("check", "--suite", "all", "--field", "f3", "--ambient", "4",
              "--trials", "40"),
             True),
    Workload("rat-sampled",
             ("check", "--suite", "all", "--field", "rat", "--ambient", "2",
              "--trials", "25"),
             True),
    Workload("torsor-table",
             ("gtable", "--form", "symplectic", "--n", "2", "--field", "f5",
              "--a", "1,0,0,0;0,1,0,0"),
             False),
)}


def cli_env():
    """Environment for a CLI subprocess: the checkout's sources, fixed hash."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest(data):
    return hashlib.sha256(data).hexdigest()


# -- output checks -------------------------------------------------------------


def parse_reports(data):
    """Report dicts from check output; ValueError on any malformed line."""
    reports = []
    for line in data.decode("utf-8").splitlines():
        rep = json.loads(line)
        if not isinstance(rep, dict) or not {"suite", "law", "cases",
                                             "passed"} <= rep.keys():
            raise ValueError("not a report line: %r" % line[:80])
        reports.append(rep)
    return reports


def work_done(workload, data):
    """Cases for a check workload, table cells for the table workload."""
    if workload.kind == "check":
        return sum(r["cases"] for r in parse_reports(data))
    table = json.loads(data)["table"]
    return sum(len(row) for row in table)


def _suites(names):
    return list(dict.fromkeys(names))


def _check_reports(data, expected, compare_exact):
    reports = parse_reports(data)
    for rep in reports:
        if rep["passed"] is not True or rep.get("failures", 0) != 0:
            return "report %s/%s did not pass" % (rep["suite"], rep["law"])
    # Some suites draw a seed-dependent number of parameters, so at other
    # seeds only the suites, in order, are known.
    if _suites(r["suite"] for r in reports) != _suites(
            s for s, _, _ in expected["reports"]):
        return "the suites differ from the recorded ones"
    if compare_exact:
        cases = [[r["suite"], r["law"], r["cases"]] for r in reports]
        if cases != expected["reports"]:
            return "per-law case counts differ from the recorded ones"
    return None


def _check_table(data, expected):
    lines = data.decode("utf-8").splitlines()
    if len(lines) != 1:
        return "expected one JSON line, got %d" % len(lines)
    doc = json.loads(lines[0])
    table, unit = doc["table"], doc["unit"]
    size = expected["size"]
    if len(doc["elements"]) != size or len(table) != size:
        return "table is not %d x %d" % (size, size)
    identity = list(range(size))
    for i, row in enumerate(table):
        if sorted(row) != identity:
            return "row %d is not a permutation of 0..%d" % (i, size - 1)
    if list(table[unit]) != identity:
        return "the unit's row is not the identity"
    return None


def check_output(workload, seed, data, expected):
    """None when the output is right; otherwise a one-line reason."""
    want = expected[workload.name]
    exact = not workload.seeded or seed == want["seed"]
    try:
        if workload.kind == "check":
            problem = _check_reports(data, want, exact)
        else:
            problem = _check_table(data, want)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return "unparseable output: %s" % exc
    if problem is None and exact and digest(data) != want["sha256"]:
        problem = "stdout sha256 differs from the recorded digest"
    return problem


# -- recording -------------------------------------------------------------------


def expected_entry(workload, seed=RECORDED_SEED):
    """Run the workload once and describe its output for ``check_output``."""
    argv = [sys.executable, "-m", "torsorlab.cli"] + workload.argv(seed)
    data = subprocess.run(argv, env=cli_env(), cwd=ROOT, check=True,
                          capture_output=True).stdout
    entry = {"seed": seed, "argv": workload.argv(seed),
             "sha256": digest(data)}
    if workload.kind == "check":
        entry["reports"] = [[r["suite"], r["law"], r["cases"]]
                            for r in parse_reports(data)]
    else:
        entry["size"] = len(json.loads(data)["table"])
    return entry


def record():
    """Run every workload at the recorded seed and write expected.json."""
    out = {name: expected_entry(w) for name, w in WORKLOADS.items()}
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/workloads.py --record")
    record()
