"""A fixed slice of pure-Python work, timed between jobs to follow the
speed of the machine.

On a shared virtual machine the CPU runs slower or faster for minutes at a
time, and such a spell shifts whole runs. The benchmark times this slice
before each set-up and every half second of jobs, and scales set-up and
job timings by REF_S ÷ the mean slice time of the same phase, so a slow
spell slows both and cancels out. The work is like
the package's: exact max-plus products of small `Fraction` matrices, float
arithmetic and JSON encoding. It uses nothing from the package, so a
change to the package cannot move it.
"""

from __future__ import annotations

import gc
import json
import random
import time
from fractions import Fraction

from checks import mp_mul, mp_vec

# Median seconds of one slice on the reference machine (Intel Xeon, 2 vCPUs,
# Python 3.11). Only the ratio to it matters: on another machine the scaled
# timings read in that machine's units, the same for parent and change.
REF_S = 0.02

_rng = random.Random(20261017)
_A = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 4)) if _rng.random() < 0.8 else None
       for _ in range(6)] for _ in range(6)]
_X = [_rng.uniform(-5.0, 5.0) for _ in range(6)]
_F = [[_rng.uniform(0.0, 3.0) for _ in range(6)] for _ in range(6)]


def _work() -> str:
    P = _A
    for _ in range(18):
        P = mp_mul(_A, P)
    x = _X
    trajectory = []
    for _ in range(180):
        x = mp_vec(_F, x)
        top = max(x)
        x = [v - top for v in x]
        trajectory.append(x)
    return json.dumps({"product": [[str(v) for v in row] for row in P],
                       "trajectory": trajectory})


def measure() -> float:
    """Seconds one slice takes now. The cyclic garbage collector is off
    meanwhile, so that it cannot spend the slice on the last job's garbage."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        gc.enable()
