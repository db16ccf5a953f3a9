"""The per-layer tracer still binds the library's names.

`perfbench/tracer.py` wraps and rebinds library functions by name, so a
rename in the library would break `perfbench/run.py --trace 1` without
failing any library test.  This runs the tracer on its smallest workload.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_reports_every_declared_per_layer_metric():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"),
         "--workload", "torsor-table", "--seed", "0"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["problems"] == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} <= set(result["metrics"])
