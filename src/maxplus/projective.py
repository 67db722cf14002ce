"""Projective max-plus space: canonical classes, the projective metric,
matrix diameter, and rank-one detection.

Two finite vectors are projectively equal when they differ by a scalar
otimes, i.e. by adding one constant to every coordinate. The canonical
representative of a class shifts the maximum coordinate to 0.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .semiring import (
    EPS,
    EXACT,
    FLOAT,
    ContractViolation,
    Matrix,
    Vector,
    mat_vec,
)


@dataclass(frozen=True)
class ProjVector:
    """Canonical representative of a projective class: finite entries, max = 0."""

    entries: tuple
    backing: str

    def __len__(self) -> int:
        return len(self.entries)

    def as_vector(self) -> Vector:
        return Vector(self.entries, self.backing)

    def __repr__(self) -> str:
        return f"ProjVector({list(self.entries)!r}, {self.backing})"


def _finite_entries(x: Union[Vector, ProjVector], what: str) -> tuple:
    entries = x.entries
    if any(v is EPS for v in entries):
        raise ContractViolation(f"{what}: vector has eps coordinates")
    return entries


def canonicalize(x: Union[Vector, ProjVector]) -> ProjVector:
    """Canonical form of a finite vector: subtract the max coordinate."""
    entries = _finite_entries(x, "canonicalize")
    top = max(entries)
    return ProjVector(tuple(v - top for v in entries), x.backing)


def proj_norm(x: Union[Vector, ProjVector]):
    """Projective norm: max coordinate minus min coordinate."""
    entries = _finite_entries(x, "proj_norm")
    return max(entries) - min(entries)


def proj_dist(u: Union[Vector, ProjVector], v: Union[Vector, ProjVector]):
    """Projective distance max_i(u_i - v_i) + max_i(v_i - u_i).

    Zero exactly on projectively equal vectors; invariant under scalar
    otimes on either argument.
    """
    ue = _finite_entries(u, "proj_dist")
    ve = _finite_entries(v, "proj_dist")
    if len(ue) != len(ve):
        raise ContractViolation("proj_dist: dimension mismatch")
    if u.backing != v.backing:
        raise ContractViolation("proj_dist: mixed backings")
    diffs = [a - b for a, b in zip(ue, ve)]
    return max(diffs) + max(-d for d in diffs)


def proj_equal(u, v, tol=None) -> bool:
    """Projective equality; exact when tol is None, else proj_dist <= tol."""
    if tol is None:
        return canonicalize(u).entries == canonicalize(v).entries
    return proj_dist(u, v) <= tol


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
