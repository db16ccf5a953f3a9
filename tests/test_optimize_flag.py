"""Behaviour under ``python -O``: validation survives and output is unchanged.

``-O`` strips ``assert`` statements, so argument checks must be real raises,
and nothing the CLI prints may depend on an assert having run.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

SHAPE_PROBES = """
from torsorlab import LinearRelation, ShapeError, full_subspace, join, meet
from torsorlab import apply_rel, compose, field_from_spec, random_relation
from torsorlab.matrices import Matrix
from torsorlab.rng import trial_rng

f3 = field_from_spec("f3")
k2, k3 = full_subspace(f3, 2), full_subspace(f3, 3)
r2 = random_relation(f3, 2, trial_rng(0, 0))
r3 = random_relation(f3, 3, trial_rng(0, 1))
probes = {
    "join": lambda: join(k2, k3),
    "meet": lambda: meet(k2, k3),
    "compose": lambda: compose(r3, r2),
    "apply_rel": lambda: apply_rel(r2, k3),
    "odd_relation": lambda: LinearRelation(k3),
    "ragged_matrix": lambda: Matrix(f3, 2, 2, ((0, 1), (1,))),
    "short_matrix": lambda: Matrix(f3, 2, 2, ((0, 1),)),
}
for name, call in probes.items():
    try:
        out = call()
    except ShapeError:
        print(name, "ShapeError")
    else:
        print(name, "returned", out)
"""


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_shape_mismatches_raise_under_optimize():
    proc = _python("-O", "-c", SHAPE_PROBES)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "join ShapeError", "meet ShapeError", "compose ShapeError",
        "apply_rel ShapeError", "odd_relation ShapeError",
        "ragged_matrix ShapeError", "short_matrix ShapeError"]


def test_check_all_prints_same_bytes_under_optimize():
    argv = ["-m", "torsorlab.cli", "check", "--suite", "all", "--field",
            "f3", "--ambient", "2", "--trials", "3"]
    plain = _python(*argv)
    optimized = _python("-O", *argv)
    assert plain.returncode == 0, plain.stderr
    assert optimized.returncode == 0, optimized.stderr
    assert plain.stdout
    assert optimized.stdout == plain.stdout
