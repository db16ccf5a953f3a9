"""Deterministic portable randomness, and the table one check run shares.

All sampled checks derive from SplitMix64 (Steele-Lea-Flood), a fixed 64-bit
generator with a published closed form, so reports are reproducible across
platforms and Python versions.  Trial i of a run seeded with s uses a fresh
generator seeded with mix64(s + i * GOLDEN), making every trial independent of
execution order (shardable by index range).

Trial i of every law starts from that same generator state, so the laws of
one run draw the same cases again.  A draw is a function of its arguments
and the generator state, the whole of a SplitMix64, so while a run is open
(`run_table`) a `shared_draw` function is drawn once per (arguments, state)
and a repeat returns the same value and sets the generator to where the
fresh draw left it.  Pure computations such as tau share the same table
through `run_shared`.  The table lives for exactly one run; outside a run
nothing is kept.  This module imports nothing of the library, so every
layer can use it.
"""

from __future__ import annotations

import contextlib
import functools

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(z):
    z &= MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


class SplitMix64:
    def __init__(self, seed):
        self.state = seed & MASK

    def next_u64(self):
        self.state = (self.state + GOLDEN) & MASK
        return mix64(self.state)

    def below(self, n):
        """Uniform-ish integer in [0, n); modulo reduction, documented as such."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        return self.next_u64() % n


def trial_rng(seed, index):
    return SplitMix64(mix64((seed + index * GOLDEN) & MASK))


# The open run's table, or None outside a run.
_table = None


@contextlib.contextmanager
def run_table():
    """Open the run's table for the body, unless a run is already open.

    The outermost opening wins and drops the table when it exits, by
    return or by exception, so no value outlives the run.  Unbounded on
    purpose: laws run one after another, so a value comes back only after
    a whole law's trials, and a bounded table would have evicted it.
    """
    global _table
    if _table is not None:
        yield
        return
    _table = {}
    try:
        yield
    finally:
        _table = None


def run_shared(key, compute):
    """compute(), once per run for key; every call outside a run.

    compute must be pure, must not return None, and its key must tell it
    apart from every other computation of the run.  An exception leaves
    nothing in the table.
    """
    table = _table
    if table is None:
        return compute()
    value = table.get(key)
    if value is None:
        value = table[key] = compute()
    return value


def shared_draw(draw):
    """draw(*args, rng), shared within a run by (args, rng.state).

    A repeat returns the first draw's value and moves rng to the state
    that draw left, exactly where a fresh draw would leave it.
    """
    @functools.wraps(draw)
    def shared(*args):
        rng = args[-1]
        value, rng.state = run_shared((draw, args[:-1], rng.state),
                                      lambda: (draw(*args), rng.state))
        return value

    return shared
