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
from torsorlab.gamma import gamma_oracle
from torsorlab.involutions import ortho_involution
from torsorlab.matrices import Matrix
from torsorlab.rng import trial_rng
from torsorlab.subspaces import symplectic_form

f3 = field_from_spec("f3")
k2, k3 = full_subspace(f3, 2), full_subspace(f3, 3)
k2_f5 = full_subspace(field_from_spec("f5"), 2)
r2 = random_relation(f3, 2, trial_rng(0, 0))
r3 = random_relation(f3, 3, trial_rng(0, 1))
tau = ortho_involution(symplectic_form(f3, 1))
probes = {
    "join": lambda: join(k2, k3),
    "meet": lambda: meet(k2, k3),
    "compose": lambda: compose(r3, r2),
    "apply_rel": lambda: apply_rel(r2, k3),
    "odd_relation": lambda: LinearRelation(k3),
    "ragged_matrix": lambda: Matrix(f3, 2, ((0, 1), (1,))),
    "tau_ambient": lambda: tau(k3),
    "tau_ring": lambda: tau(k2_f5),
}
for slot in range(1, 5):
    for kind, foreign in (("ambient", k3), ("ring", k2_f5)):
        args = [k2] * 5
        args[slot] = foreign
        probes["gamma_%s_%d" % (kind, slot)] = (
            lambda args=args: gamma_oracle(*args))
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
        "ragged_matrix ShapeError",
        "tau_ambient ShapeError", "tau_ring ShapeError"] + [
        "gamma_%s_%d ShapeError" % (kind, slot)
        for slot in range(1, 5) for kind in ("ambient", "ring")]


ORDER_TWO_PROBE = """
from torsorlab import field_from_spec, symplectic_form
from torsorlab.involutions import InvolutionError, involution
from torsorlab.matrices import Matrix, mat_invert

f5 = field_from_spec("f5")
stretch = Matrix.build(f5, [[2, 0], [0, 1]])
try:
    involution(symplectic_form(f5, 1).gram * mat_invert(stretch))
except InvolutionError as exc:
    print("InvolutionError", exc)
else:
    print("accepted")
"""


def test_order_two_check_raises_under_optimize():
    proc = _python("-O", "-c", ORDER_TWO_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "InvolutionError map is not of order two\n"


def test_check_all_prints_same_bytes_under_optimize():
    argv = ["-m", "torsorlab.cli", "check", "--suite", "all", "--field",
            "f3", "--ambient", "2", "--trials", "3"]
    plain = _python(*argv)
    optimized = _python("-O", *argv)
    assert plain.returncode == 0, plain.stderr
    assert optimized.returncode == 0, optimized.stderr
    assert plain.stdout
    assert optimized.stdout == plain.stdout
