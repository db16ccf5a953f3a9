"""Quick self-test of the benchmark, at tiny sizes.

    python3 perfbench/selftest.py

It checks that the end-to-end and traced paths produce every metric that
``BENCHMARK.json`` names, with the same units; that the output check accepts
good output and rejects doctored output (a flipped ``passed``, a dropped
report line, a table row that is not a permutation); and that ``run.py``
fails without printing a result where there are no sources to run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import unittest

from workloads import (HERE, ROOT, SRC, WORKLOADS, Workload, check_output,
                       expected_entry)

sys.path.insert(0, str(SRC))

import run  # noqa: E402
import tracer  # noqa: E402

TINY = {w.name: w for w in (
    Workload("tiny-check",
             ("check", "--suite", "all", "--field", "f3", "--ambient", "2",
              "--trials", "2"),
             True),
    Workload("tiny-table",
             ("gtable", "--form", "symplectic", "--n", "1", "--field", "f3",
              "--a", "1,0"),
             False),
)}


def _benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _cli_output(workload, seed=0):
    argv = [sys.executable, "-m", "torsorlab.cli"] + workload.argv(seed)
    return subprocess.run(argv, env=run.cli_env(), cwd=ROOT, check=True,
                          capture_output=True).stdout


class SelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        run.RESULTS_DIR.mkdir(exist_ok=True)
        cls.expected = {name: expected_entry(w) for name, w in TINY.items()}

    def _assert_metrics(self, produced, declared):
        self.assertEqual(sorted(produced), sorted(m["name"] for m in declared))

    def test_workloads_match_benchmark_json(self):
        names = [w["name"] for w in _benchmark()["workloads"]]
        self.assertEqual(names, list(WORKLOADS))

    def test_end_to_end_metrics(self):
        bench = _benchmark()
        for w in TINY.values():
            deadline = time.monotonic() + 60
            stats, samples, failed = run.end_to_end(w, 0, 0.1, self.expected,
                                                    deadline)
            self.assertEqual(failed, 0, [s["problem"] for s in samples])
            self.assertGreaterEqual(len(samples), run.MIN_RUNS)
            produced = {n: stats[n]["median"] for n in run.END_TO_END}
            self._assert_metrics(produced, bench["end_to_end"])
            self.assertTrue(all(v > 0 for v in produced.values()), produced)

    def test_traced_metrics(self):
        bench = _benchmark()
        for w in TINY.values():
            result = tracer.measure(w, 0, self.expected)
            self.assertEqual(result["problems"], [])
            self._assert_metrics(result["metrics"], bench["per_layer"])
        self.assertGreater(result["metrics"]["involutions.cayley_table.cells"],
                           0)

    def test_output_check_rejects_doctored_reports(self):
        w = TINY["tiny-check"]
        good = _cli_output(w)
        self.assertIsNone(check_output(w, 0, good, self.expected))
        lines = good.decode().splitlines(keepends=True)
        flipped = lines[0].replace('"passed":true', '"passed":false')
        self.assertNotEqual(flipped, lines[0])
        flipped_doc = "".join([flipped] + lines[1:]).encode()
        for seed in (0, 7):
            self.assertIsNotNone(
                check_output(w, seed, flipped_doc, self.expected))
            self.assertIsNotNone(
                check_output(w, seed, b"not json\n", self.expected))
        for dropped in (lines[1:], lines[:-1], lines[:3] + lines[4:]):
            self.assertIsNotNone(check_output(
                w, 0, "".join(dropped).encode(), self.expected))

    def test_output_check_rejects_doctored_tables(self):
        w = TINY["tiny-table"]
        good = _cli_output(w)
        self.assertIsNone(check_output(w, 0, good, self.expected))
        doc = json.loads(good)
        size = len(doc["table"])
        self.assertGreater(size, 1)
        repeated = json.loads(good)
        repeated["table"][size - 1] = [0] * size
        swapped = json.loads(good)
        unit_row = swapped["table"][doc["unit"]]
        unit_row[0], unit_row[1] = unit_row[1], unit_row[0]
        short = json.loads(good)
        short["table"].pop()
        for bad, reason in ((repeated, "not a permutation"),
                            (swapped, "unit's row"), (short, "table is not")):
            data = (json.dumps(bad) + "\n").encode()
            self.assertIn(reason, check_output(w, 0, data, self.expected))

    def test_fails_without_sources(self):
        bare = run.RESULTS_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "f3-sampled", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, capture_output=True, timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn(b'"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
