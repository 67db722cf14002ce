"""Reference max-plus kernel: the per-entry Python routines that the
one-matrix public API of ``maxplus`` ran on before it moved onto the array
kernel of ``maxplus.arrays``, kept verbatim as an oracle for differential
tests and for the other reference pipelines.

Products, powers, the rank-one test, the projective normal form and
diameter, residuation and word products, one entry at a time in the
operands' own arithmetic: ``Fraction`` or Python float, with eps as
``None``. ``mat_oplus``, ``scale_vector`` and ``proj_dist`` are elementwise
and never left ``maxplus``; they are re-exported so that the reference
pipelines take every kernel routine from here.

``scale_to_integers`` and ``int_stack`` are the scaling to integer matrices
and the stacking onto the kernel's dtype that ``maxplus.arrays._ints`` does
in one pass, kept as its oracle.
"""

import math
import random
from itertools import islice
from typing import Sequence

import numpy as np

from maxplus.arrays import _guard
from maxplus.projective import proj_dist
from maxplus.semiring import (
    EPS,
    EXACT,
    FLOAT,
    ContractViolation,
    Matrix,
    Vector,
    _integers,
    _require_same_backing,
    mat_oplus,
    otimes,
    scale_vector,
)
from maxplus.stochastic import FiniteSupport

__all__ = [
    "int_stack",
    "is_rank_one",
    "mat_mul",
    "mat_oplus",
    "mat_power",
    "mat_vec",
    "matrix_proj_normal",
    "proj_diameter",
    "proj_dist",
    "scale_to_integers",
    "scale_vector",
    "span_membership",
    "weak_rank",
    "word_product",
]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    """(A otimes B)_ij = max_l (A_il + B_lj)."""
    _require_same_backing(A, B, "mat_mul")
    if A.k != B.k:
        raise ContractViolation(f"mat_mul: dimension mismatch {A.k} vs {B.k}")
    bcols = tuple(zip(*B.rows))
    out = []
    for row in A.rows:
        orow = []
        for col in bcols:
            best = EPS
            for a, b in zip(row, col):
                if a is EPS or b is EPS:
                    continue
                s = a + b
                if best is EPS or s > best:
                    best = s
            orow.append(best)
        out.append(tuple(orow))
    return Matrix(tuple(out), A.backing)


def mat_vec(A: Matrix, x: Vector) -> Vector:
    """(A otimes x)_i = max_j (A_ij + x_j)."""
    _require_same_backing(A, x, "mat_vec")
    if A.k != len(x):
        raise ContractViolation(f"mat_vec: dimension mismatch {A.k} vs {len(x)}")
    xs = x.entries
    out = []
    for row in A.rows:
        best = EPS
        for a, v in zip(row, xs):
            if a is EPS or v is EPS:
                continue
            s = a + v
            if best is EPS or s > best:
                best = s
        out.append(best)
    return Vector(tuple(out), A.backing)


def mat_power(A: Matrix, n: int) -> Matrix:
    """n-th otimes power by repeated squaring; A^0 is the identity E."""
    if n < 0:
        raise ContractViolation("mat_power: negative exponent")
    result = Matrix.identity(A.k, A.backing)
    base = A
    while n:
        if n & 1:
            result = mat_mul(result, base)
        n >>= 1
        if n:
            base = mat_mul(base, base)
    return result


def is_rank_one(A: Matrix) -> bool:
    """True when all columns carrying a finite entry are pairwise proportional.

    Proportional means: identical eps pattern and a constant finite
    difference on it. A rank-one matrix maps every finite vector into a
    single projective class. The all-eps matrix is rejected.
    """
    live = [c for c in zip(*A.rows) if any(v is not EPS for v in c)]
    if not live:
        raise ContractViolation("is_rank_one: all-eps matrix")
    base = live[0]
    base_pattern = tuple(v is not EPS for v in base)
    for c in live[1:]:
        if tuple(v is not EPS for v in c) != base_pattern:
            return False
        diff = None
        for a, b in zip(c, base):
            if a is EPS:
                continue
            d = a - b
            if diff is None:
                diff = d
            elif d != diff:
                return False
    return True


def proj_diameter(A: Matrix, mode: str = "exact", samples: int = 128, seed: int = 0):
    """Projective diameter of the image of A: sup over u, v of d(Au, Av).

    Finite iff every entry of A is finite; in that case computed as the max
    projective distance over column pairs. "sampled" mode estimates the sup
    from random finite vectors, asserts the estimate never exceeds the
    column-pair value, and returns the estimate.
    """
    if mode not in ("exact", "sampled"):
        raise ContractViolation(f"proj_diameter: unknown mode {mode!r}")
    if not A.all_finite():
        return math.inf
    k = A.k
    cols = [Vector(A.col(j), A.backing) for j in range(k)]
    exact = zero_dist = 0 if A.backing == EXACT else 0.0
    for i in range(k):
        for j in range(i + 1, k):
            d = proj_dist(cols[i], cols[j])
            if d > exact:
                exact = d
    if mode == "exact":
        return exact
    rng = random.Random(seed)
    spread = 8
    best = zero_dist
    for _ in range(samples):
        if A.backing == EXACT:
            u = Vector.make([rng.randint(-spread, spread) for _ in range(k)], EXACT)
            v = Vector.make([rng.randint(-spread, spread) for _ in range(k)], EXACT)
        else:
            u = Vector.make([rng.uniform(-spread, spread) for _ in range(k)], FLOAT)
            v = Vector.make([rng.uniform(-spread, spread) for _ in range(k)], FLOAT)
        d = proj_dist(mat_vec(A, u), mat_vec(A, v))
        slack = 0 if A.backing == EXACT else 1e-9
        if d > exact + slack:
            raise ContractViolation(
                "proj_diameter: sampled distance exceeds the column-pair value"
            )
        if d > best:
            best = d
    return best


def matrix_proj_normal(A: Matrix) -> Matrix:
    """Projective normal form of a matrix: subtract the max finite entry.

    Two matrices act identically on projective space iff they differ by a
    scalar otimes, so this is a hashable key for memoizing products.
    """
    finite = [v for row in A.rows for v in row if v is not EPS]
    if not finite:
        raise ContractViolation("matrix_proj_normal: all-eps matrix")
    top = max(finite)
    return Matrix(
        tuple(tuple(EPS if v is EPS else v - top for v in row) for row in A.rows),
        A.backing,
    )


def span_membership(cols: Sequence[Vector], b: Vector):
    """Greatest sub-solution test for b in the max-plus span of cols.

    Residuation gives the principal coefficients alpha_j = min_i over finite
    C_ij of (b_i - C_ij); membership holds iff they actually reproduce b.
    Returns the coefficient tuple, or None. Scaling b scales the
    coefficients, so the test is projective.
    """
    if not cols:
        raise ContractViolation("span_membership: empty column set")
    k = len(b)
    for c in cols:
        if len(c) != k:
            raise ContractViolation("span_membership: dimension mismatch")
        if c.backing != b.backing:
            raise ContractViolation("span_membership: mixed backings")
    alphas = []
    for c in cols:
        alpha = "unset"
        for bi, ci in zip(b.entries, c.entries):
            if ci is EPS:
                continue
            if bi is EPS:
                alpha = EPS
                break
            bound = bi - ci
            if alpha == "unset" or (alpha is not EPS and bound < alpha):
                alpha = bound
        alphas.append(EPS if alpha == "unset" else alpha)
    rebuilt = []
    for i in range(k):
        best = EPS
        for alpha, c in zip(alphas, cols):
            term = otimes(alpha, c.entries[i])
            if term is EPS:
                continue
            if best is EPS or term > best:
                best = term
        rebuilt.append(best)
    if tuple(rebuilt) == b.entries:
        return tuple(alphas)
    return None


def weak_rank(A: Matrix) -> int:
    """Size of the column set left by greedy elimination in ascending order.

    A column is dropped iff it lies in the span of the other currently kept
    columns. Rejects matrices with an all-eps column.
    """
    k = A.k
    cols = [Vector(A.col(j), A.backing) for j in range(k)]
    for j, c in enumerate(cols):
        if all(v is EPS for v in c.entries):
            raise ContractViolation(f"weak_rank: column {j} is all eps")
    kept = list(range(k))
    for j in range(k):
        others = [cols[i] for i in kept if i != j]
        if not others:
            continue
        if span_membership(others, cols[j]) is not None:
            kept.remove(j)
    return len(kept)


def word_product(D: FiniteSupport, word: Sequence[int]) -> Matrix:
    """Exact product A(u_{N-1}) ... A(u_0) of the word (u_0, ..., u_{N-1})."""
    P = D.matrices[word[0]]
    for letter in word[1:]:
        P = mat_mul(D.matrices[letter], P)
    return P


def scale_to_integers(matrices: Sequence[Matrix], vectors: Sequence[Vector] = ()):
    """(L, matrices times L, vectors times L) for L the lcm of every entry
    denominator: exact containers of Python ints.

    otimes is positively homogeneous, (L A) otimes (L B) = L (A otimes B),
    so products, projective classes, rank-one tests and distances of the
    scaled values are those of the originals, up to the one factor L.
    Float entries count as the exact dyadic rationals they denote.
    """
    blocks = [M.rows for M in matrices] + [(x.entries,) for x in vectors]
    L, flat = _integers([v for rows in blocks for row in rows for v in row])
    flat = iter(flat)
    scaled = [tuple(tuple(islice(flat, len(row))) for row in rows) for rows in blocks]
    n = len(matrices)
    return (
        L,
        tuple(Matrix(rows, EXACT) for rows in scaled[:n]),
        tuple(Vector(rows[0], EXACT) for rows in scaled[n:]),
    )


def int_stack(mats, reach: int, top: int = 0) -> tuple:
    """The integer matrices mats as one (m, k, k) array, for a walk whose
    values stay within reach times top, the largest magnitude of their
    entries and of the given top, on the dtype ``_guard`` picks. Returns
    (array, eps, clamp)."""
    top = max([top] + [abs(v) for A in mats for row in A.rows for v in row if v is not EPS])
    eps, dtype, clamp = _guard(top, reach)
    rows = [[[eps if v is EPS else v for v in row] for row in A.rows] for A in mats]
    return np.array(rows, dtype=dtype), eps, clamp
