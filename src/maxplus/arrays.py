"""The array kernel: max-plus matrices as numpy arrays.

A k x k matrix is a (k, k) array with -inf for eps, and a stack of them an
(n, k, k) array. The product P A takes, for each (i, j), the max over l of
P[i, l] + A[l, j]: ``_max_last(P[:, None, :] + A.T[None], signed)``.

Three kinds of caller share it:

- the float drivers of ``stochastic`` (simulation, Lyapunov estimates, the
  eta track of coupling, Loynes at a positive tolerance), on float64;
- the exact power loop of ``spectral`` behind the transient and the
  cyclicity, on the integer normalized matrix;
- the exact word search of ``stochastic.pattern_search``, on the
  integer-scaled support: it expands a whole breadth-first level as one
  stack of products (``_stack_mul``), takes their projective normal forms
  and tests them all for rank one at once (``_rank_one_flags``).

The exact callers stack their integers with ``_int_stack``: as float64
while every value they form stays below 2**53, which float64 represents
exactly, and past that as ``dtype=object`` arrays of Python ints with the
same code, where eps is a large negative integer that each step clamps
back.

The per-state spectral records of the word search and
``spectral.first_rank_one_power`` stay on Python ints: their matrices are
small (k = 2..6) and come one at a time, and below about k = 8 an
unbatched numpy product with its normal form and rank-one test costs more
than the Python-int one.
"""

from __future__ import annotations

import math

import numpy as np

from .semiring import EPS, EXACT, FLOAT, Matrix


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


def _int_matrix(a: np.ndarray, eps) -> Matrix:
    """The exact Matrix of a (k, k) integer array whose eps entries are eps."""
    return Matrix(
        tuple(tuple(EPS if v == eps else int(v) for v in row) for row in a.tolist()), EXACT
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


def _int_stack(mats, reach: int) -> tuple:
    """The integer matrices mats as one (m, k, k) array, for a walk whose
    values stay within reach times their largest magnitude top.

    The array is float64 with -inf for eps while top reach < 2**53, where
    all those integers are exact. Past that it is an object array of Python
    ints, and eps is the integer -B with B = 4 top reach + 4: a sum that
    involves eps is then below -B/2 and every finite value above it, so
    clamp(X) sets what fell below -B/2 back to -B. (-inf would not do
    there: int + -inf converts the int to float, which overflows past
    2**1024.) Returns (array, eps, clamp); on float64 clamp does nothing.
    """
    top = max((abs(v) for A in mats for row in A.rows for v in row if v is not EPS), default=0)
    if top * reach < 2**53:
        eps, dtype = -math.inf, float

        def clamp(X):
            pass

    else:
        bottom = 4 * top * reach + 4
        eps, dtype = -bottom, object

        def clamp(X):
            X[X < -bottom // 2] = -bottom

    rows = [[[eps if v is EPS else v for v in row] for row in A.rows] for A in mats]
    return np.array(rows, dtype=dtype), eps, clamp


def _stack_mul(A: np.ndarray, P: np.ndarray) -> np.ndarray:
    """The products A[c] P[c] of two (n, k, k) stacks. The max over l is
    taken one l at a time, so no temporary is larger than (n, k, k)."""
    Q = A[:, :, :1] + P[:, :1, :]
    for l in range(1, A.shape[-1]):
        np.maximum(Q, A[:, :, l : l + 1] + P[:, l : l + 1, :], out=Q)
    return Q


def _rank_one_flags(Q: np.ndarray, clamp) -> list:
    """projective.is_rank_one of each matrix of a stack of projective normal
    forms (max entry 0, none all eps), as a list of bools.

    With (r, c) the first 0 entry, a matrix is rank-one iff it is the outer
    sum of its column c and its row r: Q[i, j] = Q[i, c] + Q[r, j], eps
    included. clamp(S) sets the eps sums of an object stack back to its
    eps; on float64 the sums are exact where they can equal a finite entry
    of Q (between -2**53 and 0), and where they cannot, rounding does not
    make them equal either."""
    n, k, _ = Q.shape
    top = (Q.reshape(n, k * k) == 0).argmax(1)
    rows = np.arange(n)
    S = Q[rows, :, top % k][:, :, None] + Q[rows, top // k, :][:, None, :]
    clamp(S)
    return (S == Q).all((1, 2)).tolist()


def _stack_keys(Q: np.ndarray) -> list:
    """One hashable key per matrix of a stack, equal exactly for equal
    matrices: its bytes on float64 (no -0.0 arises in the integer walks),
    its tuple of Python ints on an object array."""
    n = len(Q)
    if Q.dtype == object:
        return [tuple(row) for row in Q.reshape(n, -1).tolist()]
    data, size = Q.tobytes(), Q[0].nbytes
    return [data[i * size : (i + 1) * size] for i in range(n)]
