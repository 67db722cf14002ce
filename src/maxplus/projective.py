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
from typing import Union

from .semiring import EPS, EXACT, ContractViolation, Matrix, Vector


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


def _pair(u, v, what: str) -> tuple:
    """The entries of finite vectors u and v of one dimension and backing."""
    ue, ve = _finite_entries(u, what), _finite_entries(v, what)
    if len(ue) != len(ve):
        raise ContractViolation(f"{what}: dimension mismatch")
    if u.backing != v.backing:
        raise ContractViolation(f"{what}: mixed backings")
    return ue, ve


def proj_dist(u: Union[Vector, ProjVector], v: Union[Vector, ProjVector]):
    """Projective distance max_i(u_i - v_i) + max_i(v_i - u_i).

    Zero exactly on projectively equal vectors; invariant under scalar
    otimes on either argument.
    """
    ue, ve = _pair(u, v, "proj_dist")
    diffs = [a - b for a, b in zip(ue, ve)]
    return max(diffs) + max(-d for d in diffs)


def proj_equal(u, v, tol=None) -> bool:
    """Projective equality; exact when tol is None, else proj_dist <= tol."""
    if tol is None:
        _pair(u, v, "proj_equal")
        return canonicalize(u).entries == canonicalize(v).entries
    return proj_dist(u, v) <= tol


def is_rank_one(A: Matrix) -> bool:
    """True when all columns carrying a finite entry are pairwise proportional.

    Proportional means: identical eps pattern and a constant finite
    difference on it, each column minus the first live one, entry by entry.
    A rank-one matrix maps every finite vector into a single projective
    class. The all-eps matrix is rejected.
    """
    from .arrays import _operands

    _, (a,), _, eps, _ = _operands((A,), (), 2)
    finite = a != eps
    live = finite.any(0)
    if not live.any():
        raise ContractViolation("is_rank_one: all-eps matrix")
    base = int(live.argmax())
    pattern = finite[:, base]
    if (finite[:, live] != pattern[:, None]).any():
        return False
    diffs = a[pattern][:, live] - a[pattern, base][:, None]
    return bool((diffs == diffs[0]).all())


def proj_diameter(A: Matrix, mode: str = "exact", samples: int = 128, seed: int = 0):
    """Projective diameter of the image of A: sup over u, v of d(Au, Av).

    Finite iff every entry of A is finite; in that case computed as the max
    projective distance over column pairs. "sampled" mode estimates the sup
    from random finite vectors, asserts the estimate never exceeds the
    column-pair value, and returns the estimate. A zero diameter is the
    int 0 on the exact backing.
    """
    if mode not in ("exact", "sampled"):
        raise ContractViolation(f"proj_diameter: unknown mode {mode!r}")
    if samples < 1:
        raise ContractViolation(f"proj_diameter: samples must be >= 1, got {samples}")
    if not A.all_finite():
        return math.inf
    from .arrays import _diameters, _operands, _pair_dists, _scalars, _times

    k, exact, rng = A.k, A.backing == EXACT, random.Random(seed)
    draw, n = rng.randint if exact else rng.uniform, 2 * samples if mode == "sampled" else 0
    us = [Vector.make([draw(-8, 8) for _ in range(k)], A.backing) for _ in range(n)]
    L, (a,), X, eps, clamp = _operands((A,), us, 8)
    d = _diameters(a, eps)
    if mode == "sampled":
        sampled = _pair_dists(_times(a, X.T, clamp).T.reshape(samples, 2, k))
        if (sampled > d + (0 if exact else 1e-9)).any():
            raise ContractViolation("proj_diameter: sampled distance exceeds the column-pair value")
        d = max(sampled.tolist())
    if d <= 0:
        return 0 if exact else 0.0
    return _scalars(d, eps, L)


def matrix_proj_normal(A: Matrix) -> Matrix:
    """Projective normal form of a matrix: subtract the max finite entry,
    the first of tied ones in row-major order.

    Two matrices act identically on projective space iff they differ by a
    scalar otimes, so this is a hashable key for memoizing products.
    """
    from .arrays import _normal, _operands, _scalars

    L, (a,), _, eps, clamp = _operands((A,), (), 2)
    if (a == eps).all():
        raise ContractViolation("matrix_proj_normal: all-eps matrix")
    return Matrix(_scalars(_normal(a[None], clamp)[0][0], eps, L), A.backing)
