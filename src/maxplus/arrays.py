"""The array kernel: max-plus matrices as numpy arrays.

A k x k matrix is a (k, k) array with -inf for eps, and a stack of them an
(n, k, k) array. The product P A takes, for each (i, j), the max over l of
P[i, l] + A[l, j]: ``_max_last(P[:, None, :] + A.T[None], signed)``.

Two kinds of caller share it:

- the float drivers of ``stochastic`` (simulation, Lyapunov estimates, the
  eta track of coupling, Loynes at a positive tolerance), on float64;
- the exact power loop of ``spectral`` behind the transient and the
  cyclicity, on the integer normalized matrix. It holds it as float64
  while every value it forms is an integer below 2**53, which float64
  represents exactly, and past that as a ``dtype=object`` array of Python
  ints with the same code.

The exact word search of ``stochastic``, the per-state spectral records
it builds and ``spectral.first_rank_one_power`` stay on Python ints: their
matrices are small (k = 2..6) and come one product at a time, and below
about k = 8 an unbatched numpy product with its normal form and rank-one
test costs more than the Python-int one.
"""

from __future__ import annotations

import math

import numpy as np

from .semiring import EPS, FLOAT, Matrix


def _as_array(matrices) -> np.ndarray:
    """float64 (n, k, k) array of matrix rows, eps as -inf."""
    return np.array(
        [[[-math.inf if v is EPS else v for v in row] for row in rows] for rows in matrices],
        dtype=float,
    )


def _matrix_of(a: np.ndarray) -> Matrix:
    return Matrix(
        tuple(tuple(EPS if v == -math.inf else v for v in row) for row in a.tolist()), FLOAT
    )


def _negative_zero(a: np.ndarray) -> bool:
    return bool(np.signbit(a[a == 0]).any())


def _max_last(a: np.ndarray, signed: bool) -> np.ndarray:
    """Max over the last axis. Of tied values the scalar kernel keeps the
    first, as Python's max does; numpy need not for +0.0 and -0.0. -0.0
    arises only from -0.0 inputs, so callers pass signed=True once one
    was seen, and the first maximal entry is taken."""
    if not signed:
        return a.max(-1)
    first = (a == a.max(-1, keepdims=True)).argmax(-1)
    return np.take_along_axis(a, first[..., None], -1)[..., 0]
