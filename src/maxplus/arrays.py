"""The array kernel: max-plus matrices as numpy arrays.

A k x k matrix is a (k, k) array with -inf for eps, and a stack of them an
(n, k, k) array. The product P A takes, for each (i, j), the max over l of
P[i, l] + A[l, j]: ``_max_last(P[:, None, :] + A.T[None], signed)``. The
stochastic drivers and the exact power walk lay their stacks out with l
first and take the faster max over that leading axis instead (``_lead_step``).

Its callers:

- the stochastic drivers of ``stochastic`` (simulation, Lyapunov estimates,
  coupling, the backward scheme), for both backings: every state of a block
  of every replication of a group in one stack (``_states``), one step at
  a time, on the matrices where the block loop drew them, laid out with the
  steps first and the replications last; on float64 for float models, and
  on the integer-scaled support for exact ones, where integer max-plus sums
  and maxima are exact, so the states do not depend on the order in which
  the products are formed;
- the exact spectral record of ``spectral`` (irreducibility, Karp's
  algorithm, the closure, its fixpoint check, the critical graph and the
  eigenvectors), on the integer-scaled matrix, which the CLI loads from
  JSON straight into the array (``spectral._int_matrix``), and its exact
  power loop behind the transient and the cyclicity, on the normalized matrix;
- the exact word search of ``stochastic.pattern_search``, on the
  integer-scaled support: it expands a whole breadth-first level as one
  stack of products (``_stack_mul``), takes their projective normal forms
  (``_normal``), tests the new ones for rank one at once
  (``_rank_one_flags``), and, until a weak pattern is found, hands each
  level's new states to the batched spectral record at once
  (``spectral._scs1cyc1_flags``); ``spectral.first_rank_one_power`` tests
  the powers of its power loop the same way;
- the one-matrix public API (``semiring.mat_mul``, ``mat_vec``,
  ``mat_power``; ``projective.is_rank_one``, ``matrix_proj_normal``,
  ``proj_diameter``; ``spectral.span_membership``, ``weak_rank``;
  ``stochastic.word_product``), through ``_operands``, ``_times`` and
  ``_scalars``; ``tests/reference_kernel.py`` keeps its per-entry oracle.

The exact callers hold their integers on the dtype ``_guard`` picks for
the largest value they form: float64 while every such value stays below
2**53, which float64 represents exactly, and past that ``dtype=object``
arrays of Python ints with the same code, where eps is a large negative
integer that each step clamps back. ``_ints`` is the one way exact scalars
become such an array: times L, the lcm of their denominators, as a flat
array on the dtype for their reach; ``_recast`` moves an integer array to
the dtype a larger reach needs.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .semiring import EPS, FLOAT, ContractViolation, Matrix, _integers

# float64 holds every integer of magnitude below this exactly
_FLOAT_EXACT = 2**53


def _scalars(a, eps, L=None):
    """The scalars that a number, or a (k,) or (k, k) kernel array, a denotes,
    in tuples nested as a.tolist(): EPS for eps, the rest as they are or,
    given L, as Fractions over L."""

    def one(v):
        return EPS if v == eps else v if L is None else Fraction(int(v), L)

    if np.ndim(a) == 2:
        return tuple(tuple(map(one, row)) for row in a.tolist())
    return tuple(map(one, a.tolist())) if np.ndim(a) else one(a)


def _matrix_of(a: np.ndarray) -> Matrix:
    return Matrix(_scalars(a, -math.inf), FLOAT)


# the bits of -0.0 read as an int64
_NEGATIVE_ZERO = np.float64(-0.0).view(np.int64)


def _negative_zero(a: np.ndarray) -> bool:
    """Whether a float64 array holds a -0.0, as a compare of its bits as
    int64: no copy of a, whatever its strides. False for other dtypes."""
    return a.dtype == float and bool((a.view(np.int64) == _NEGATIVE_ZERO).any())


def _max_last(a: np.ndarray, signed: bool) -> np.ndarray:
    """Max over the last axis. Of tied values the scalar kernel keeps the
    first, as Python's max does; numpy need not for +0.0 and -0.0. -0.0
    arises only from -0.0 inputs, so callers pass signed=True once one
    was seen, and the first maximal entry is taken."""
    if not signed:
        return np.maximum.reduce(a, -1)
    first = (a == a.max(-1, keepdims=True)).argmax(-1)
    return np.take_along_axis(a, first[..., None], -1)[..., 0]


def _lead_step(A: np.ndarray, X: np.ndarray, signed: bool, out=None) -> np.ndarray:
    """The max over the leading axis l of A + X: one max-plus step on
    stacks laid out with the summed index first, A[l] the column l of the
    matrices and X[l] the row l of the states, powers or right factors,
    broadcast against each other, on float64 or an object array.

    With both laid out in C order so is the sum, and the max is an
    elementwise maximum of l contiguous slabs, which numpy takes faster
    than a max over a short last axis. Of tied values the first maximal
    one is kept once signed, as in _max_last. Writes to out when given."""
    S = A + X
    top = np.maximum.reduce(S, 0, out=out)
    if signed:
        top[...] = np.take_along_axis(S, (S == top).argmax(0)[None], 0)[0]
    return top


def _states(At: np.ndarray, X, signed: bool, clamp) -> np.ndarray:
    """Every state of a block of left products, for R blocks of n matrices
    A[r, j] laid out as the steps read them, the (n, k, k, R) stack
    At[j, l, i, r] = A[r, j][i, l], and the (R, m, k) stack X of m initial
    states each, one state a row: S[r, j, s] = A[r, j] S[r, j-1, s] with
    S[r, -1] = X[r]; with X None the unit vectors, so S[r, j] is the
    transpose of A[r, j] ... A[r, 0]. As (P A)^T = A^T P^T, the right
    products P A(0) ... A(j) are the states of the transposes from the rows
    of P, whose stack At holds the matrices as they are. Each step is one
    _lead_step of At[j] in place, then clamp of its states in place (the
    eps clamp of ``_guard`` on an object array): At is read, never copied,
    and S has its dtype, float64 or object. Returns S, (R, n, m, k), a view
    of St[j, i, r, s] = S[r, j, s, i]."""
    n, k, _, R = At.shape
    St = np.empty((n, k, R, k if X is None else X.shape[1]), At.dtype)
    if X is None:  # a copy of A[:, 0], with no sum that could turn -0.0 into 0.0
        St[0] = At[0].transpose(1, 2, 0)
    # one state a replication steps without the trailing axis of 1, which numpy broadcasts slower
    S, At = (St[..., 0], At) if St.shape[-1] == 1 else (St, At[..., None])
    if X is not None:
        clamp(_lead_step(At[0], X.transpose(2, 0, 1).reshape(S[0].shape)[:, None], signed, S[0]))
    for Aj, state, out in zip(At[1:], S[:, :, None], S[1:]):
        clamp(_lead_step(Aj, state, signed, out))
    return St.transpose(2, 0, 3, 1)


def _no_clamp(X):
    pass


def _guard(top: int, reach: int) -> tuple:
    """(eps, dtype, clamp) for integers within top reach in magnitude.

    float64 with -inf for eps while top reach < 2**53, where all those
    integers are exact. Past that object arrays of Python ints, and eps is
    the integer -B with B = 4 top reach + 4: a sum that involves eps is
    then below -B/2 and every finite value above it, so clamp(X) sets what
    fell below -B/2 back to -B. (-inf would not do there: int + -inf
    converts the int to float, which overflows past 2**1024.) On float64
    clamp does nothing.
    """
    if top * reach < _FLOAT_EXACT:
        return -math.inf, float, _no_clamp
    bottom = 4 * top * reach + 4

    def clamp(X):
        X[X < -bottom // 2] = -bottom

    return -bottom, object, clamp


def _ints(values, reach: int) -> tuple:
    """(L, a, eps, clamp): the exact scalars values times L, the lcm of their
    denominators (``_integers``: a float counts as the dyadic rational it
    denotes), as one flat array a on the dtype ``_guard`` picks for reach
    times their largest magnitude, eps entries eps."""
    L, ints = _integers(values)
    eps, dtype, clamp = _guard(max([abs(v) for v in ints if v is not EPS], default=0), reach)
    return L, np.array([eps if v is EPS else v for v in ints], dtype), eps, clamp


def _top(a: np.ndarray, finite: np.ndarray) -> int:
    """Largest magnitude of the finite entries of an integer array, 0 if none."""
    vals = a[finite]
    return int(abs(vals).max()) if vals.size else 0


def _as_object(a: np.ndarray, finite: np.ndarray, eps: int) -> np.ndarray:
    """Object array of Python ints: a where finite, eps elsewhere."""
    out = (a if a.dtype == object else np.where(finite, a, 0).astype(np.int64)).astype(object)
    out[~finite] = eps
    return out


def _recast(a: np.ndarray, finite: np.ndarray, reach: int) -> tuple:
    """The integer array a, finite where finite, on the dtype ``_guard``
    picks for reach; a itself when it is float64 and stays so. Returns
    (array, eps, clamp)."""
    eps, dtype, clamp = _guard(_top(a, finite), reach)
    if dtype is object:
        return _as_object(a, finite, eps), eps, clamp
    if a.dtype != float:
        a = np.where(finite, a, -math.inf).astype(float)
    return a, eps, clamp


def _operands(matrices, vectors, reach: int) -> tuple:
    """(L, M, X, eps, clamp): the (n, k, k) stack M of the matrices and the
    (m, k) stack X of the vectors, all of one backing, eps entries eps. Float
    ones as they are, L None; exact ones as ``_ints`` scales them for reach."""
    rows = [row for A in matrices for row in A.rows] + [x.entries for x in vectors]
    flat = [v for row in rows for v in row]
    if (matrices or vectors)[0].backing == FLOAT:
        L, eps, clamp = None, -math.inf, _no_clamp
        a = np.array([eps if v is EPS else v for v in flat], float)
    else:
        L, a, eps, clamp = _ints(flat, reach)
    a = a.reshape(len(rows), -1)
    n = len(matrices) * a.shape[1]
    return L, a[:n].reshape(-1, a.shape[1], a.shape[1]), a[n:], eps, clamp


def _times(P: np.ndarray, Q: np.ndarray, clamp) -> np.ndarray:
    """The product P Q of arrays (k, j) and (j, m) or (j,), ties to the
    first; a ContractViolation when a float sum overflows to inf."""
    signed = _negative_zero(P) or _negative_zero(Q)
    try:
        with np.errstate(over="raise"):
            R = _max_last(P + Q if Q.ndim == 1 else P[:, None, :] + Q.T[None], signed)
    except FloatingPointError:
        raise ContractViolation("a float value overflowed past the float64 range") from None
    clamp(R)
    return R


def _span(C, b, eps, clamp):
    """The principal coefficients of the kernel array b in the max-plus span
    of the columns of C, an array (k, m) with eps entries eps, when they
    reproduce b; None when they do not. alpha_j = min_i over finite C_ij
    of (b_i - C_ij), the first of tied ones, is eps when such a b_i is."""
    live, known = C != eps, b != eps
    bounds = np.where(live, np.where(known, b, 0)[:, None] - np.where(live, C, 0), math.inf)
    alpha = -_max_last(-bounds.T, True)
    alpha[(live & ~known[:, None]).any(0) | ~live.any(0)] = eps
    return alpha if (_times(C, alpha, clamp) == b).all() else None


def _stack_mul(A: np.ndarray, P: np.ndarray) -> np.ndarray:
    """The products A[c] P[c] of a (..., k, k) and a (..., k, j) stack,
    broadcast over the leading axes. The max over l is taken one l at a
    time, so no temporary is larger than the product."""
    Q = A[..., :, :1] + P[..., :1, :]
    for l in range(1, A.shape[-1]):
        np.maximum(Q, A[..., :, l : l + 1] + P[..., l : l + 1, :], out=Q)
    return Q


def _normal(C: np.ndarray, clamp) -> tuple:
    """(Q, top): the projective normal forms Q of a stack, each matrix
    minus its largest entry, of tied ones the first in row-major order
    (``_max_last``), and those largest entries top."""
    top = _max_last(C.reshape(*C.shape[:-2], -1), _negative_zero(C))
    Q = C - top[..., None, None]
    clamp(Q)
    return Q, top


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


def _pair_dists(X: np.ndarray) -> np.ndarray:
    """The largest projective distance between the m eps-free states of each
    (m, k) element of the stack X: M[i, j] + M[j, i] for M[i, j] =
    max(x_i - x_j), maximised over the pairs."""
    M = (X[..., :, None, :] - X[..., None, :, :]).max(-1)
    return (M + M.swapaxes(-1, -2)).max((-2, -1))


def _diameters(P: np.ndarray, eps) -> list:
    """proj_diameter of each matrix of the stack P (..., k, k), as a nested
    list: inf unless every entry is finite, else the largest distance
    between its columns, and 0.0 for a distance of -0.0, as max(0.0, d)
    gives."""
    finite = (P != eps).all((-2, -1))
    out = np.full(finite.shape, math.inf, P.dtype)
    d = _pair_dists(P[finite].swapaxes(-1, -2))
    out[finite] = np.where(d > 0, d, 0.0)
    return out.tolist()


def _stack_keys(Q: np.ndarray) -> list:
    """One hashable key per matrix of a stack, equal exactly for equal
    matrices: its bytes on float64 (no -0.0 arises in the integer walks),
    its tuple of Python ints on an object array."""
    n = len(Q)
    if Q.dtype == object:
        return [tuple(row) for row in Q.reshape(n, -1).tolist()]
    if n == 1:  # the bytes the view below gives, without it
        return [Q.tobytes()]
    return np.ascontiguousarray(Q).reshape(n, -1).view(f"V{Q[0].nbytes}")[:, 0].tolist()
