"""Spectral theory of irreducible max-plus matrices.

An irreducible matrix has a unique eigenvalue, the maximum mean weight over
the circuits of its precedence graph. Normalizing (subtracting the
eigenvalue from every entry) exposes the critical graph, whose strongly
connected components generate the eigenspace and whose cyclicity governs
the eventually periodic behaviour of matrix powers:

    A^(m+d) = lambda^(otimes d) otimes A^m    for all m >= M.

Every reader builds one exact record per matrix (``_spectrum``): A is
scaled by the lcm L of its entry denominators, Karp's algorithm gives
lambda = p / (q L), and the normalized matrix is held as the integer matrix
Abar = q L A - p (otimes is positively homogeneous). Its closure Abar+ (one
Floyd-Warshall pass, O(k^3)), the critical graph and the eigenvectors are
computed on Python ints; ``Fraction`` appears only on output. A float
matrix enters the same record as the exact dyadic rationals its entries
denote and is rounded once on output, so no check fails through rounding.

The power loop behind the transient M and cyclicity d walks Abar, Abar^2,
... on the array kernel of ``arrays``. An entry of Abar^n is a sum of n
entries of Abar, so at most max|Abar| n in magnitude. While that bound at
the power budget stays below 2**53 the walk runs on float64 with -inf for
eps: every such integer is exact there, no -0.0 or NaN arises, and equal
powers have equal ``tobytes()``. Past it the same code runs on object
arrays of Python ints, with an integer sentinel for eps and tuple keys.
``first_rank_one_power`` stays on Python ints: its one caller, the
rank-one script, passes 2 x 2 matrices, where an unbatched numpy step
costs more than the Python-int product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .graphs import SccDecomposition, is_irreducible, scc_from_arcs
from .projective import ProjVector, canonicalize, is_rank_one, matrix_proj_normal
from .semiring import (
    EPS,
    EXACT,
    BudgetExceeded,
    ContractViolation,
    Matrix,
    Vector,
    mat_mul,
    mat_oplus,
    mat_vec,
    otimes,
    scalar_to_json,
    scale_to_integers,
)


@dataclass(frozen=True)
class CriticalGraph:
    """Nodes and arcs realizing circuits of maximal mean, with their SCCs."""

    nodes: tuple
    arcs: tuple
    scc: SccDecomposition


@dataclass(frozen=True)
class SpectralSummary:
    eigenvalue: object
    critical: CriticalGraph
    cyclicity: int
    scs1cyc1: bool
    eigenbasis: tuple
    transient: Optional[int] = None


def default_power_budget(k: int) -> int:
    return 10 * k * k + 64


@dataclass(frozen=True)
class _Spectrum:
    """Exact spectral data of one irreducible matrix A.

    abar = scale * A - shift holds integers, so lambda = shift / scale;
    plus is the closure abar+. Integer matrices never leave the module:
    ``value`` turns one of their entries back into a scalar of A's backing.
    """

    backing: str
    scale: int
    shift: int
    abar: Matrix
    plus: Matrix
    critical: CriticalGraph

    def value(self, v):
        if v is EPS:
            return EPS
        x = Fraction(v, self.scale)
        return x if self.backing == EXACT else float(x)

    def matrix(self, M: Matrix) -> Matrix:
        return Matrix(tuple(tuple(self.value(v) for v in row) for row in M.rows), self.backing)


def _max_cycle_mean(B: Matrix) -> Fraction:
    """Karp's algorithm: walks of 0..k arcs from node 0, one mat_vec each."""
    k = B.k
    x = Vector(tuple(0 if i == 0 else EPS for i in range(k)), B.backing)
    walks = [x.entries]
    for _ in range(k):
        x = mat_vec(B, x)
        walks.append(x.entries)
    best = None
    for v in range(k):
        top = walks[k][v]
        if top is EPS:
            continue
        worst = min(
            (Fraction(top - walks[j][v], k - j) for j in range(k) if walks[j][v] is not EPS),
            default=None,
        )
        if worst is not None and (best is None or worst > best):
            best = worst
    if best is None:
        raise ContractViolation("eigenvalue: graph has no circuit")
    return best


def _closure(A: Matrix) -> Matrix:
    """A+ = A oplus A^2 oplus ... by one Floyd-Warshall pass, O(k^3).

    Entry (i, j) is the best weight of a path from j to i of length >= 1;
    valid when no circuit has positive weight, which the caller checks.
    """
    k = A.k
    P = [list(row) for row in A.rows]
    for m in range(k):
        via = P[m]
        for row in P:
            head = row[m]
            if head is EPS:
                continue
            for j in range(k):
                tail = via[j]
                if tail is EPS:
                    continue
                s = head + tail
                if row[j] is EPS or s > row[j]:
                    row[j] = s
    return Matrix(tuple(tuple(row) for row in P), A.backing)


def _spectrum(A: Matrix) -> _Spectrum:
    """The one exact record behind every spectral reader of A."""
    if not is_irreducible(A):
        raise ContractViolation("eigenvalue: matrix is not irreducible")
    return _irreducible_spectrum(A)


def _irreducible_spectrum(A: Matrix) -> _Spectrum:
    lcm, (B,), _ = scale_to_integers((A,))
    lam = _max_cycle_mean(B)
    q, p = lam.denominator, lam.numerator
    abar = Matrix(
        tuple(tuple(EPS if v is EPS else q * v - p for v in row) for row in B.rows), EXACT
    )
    plus = _closure(abar)
    if mat_oplus(plus, mat_mul(plus, abar)) != plus:
        raise ContractViolation("a_plus: fixpoint A+ oplus A^(k+1) = A+ failed")
    nodes = tuple(i for i in range(A.k) if plus.rows[i][i] == 0)
    arcs = tuple(
        (i, j)
        for i in nodes
        for j in nodes
        if otimes(abar.rows[j][i], plus.rows[i][j]) == 0
    )
    critical = CriticalGraph(nodes, arcs, scc_from_arcs(A.k, arcs, nodes=nodes))
    return _Spectrum(A.backing, q * lcm, p, abar, plus, critical)


def _cyclicity(crit: CriticalGraph) -> int:
    result = 1
    for c in crit.scc.cyclicities:
        if c is None:
            raise ContractViolation("cyclicity: critical SCC without a circuit")
        result = result * c // math.gcd(result, c)
    return result


def _require_exact(A: Matrix, what: str) -> None:
    if A.backing != EXACT:
        raise ContractViolation(f"{what}: exact backing required")


def _powers(abar: Matrix, max_power: int):
    """(n, Abar^n) for n = 1..max_power, each power the one before times Abar.

    An entry of Abar^n is at most max|Abar| n in magnitude, so the powers
    run on arrays._int_stack with reach max_power: float64 while those
    integers are exact, object arrays of Python ints past that.
    """
    # numpy loads here, on the first walk, and not with this module: the
    # package imports spectral before stochastic, and without a bytecode
    # cache numpy loaded ahead of compiling stochastic.py raises the peak
    # memory of every process by about 1.7 MB.
    from .arrays import _int_stack, _max_last

    stack, _, clamp = _int_stack([abar], max_power)
    A = stack[0]
    P = None
    for n in range(1, max_power + 1):
        P = A if P is None else _max_last(P[:, None, :] + A.T[None], False)
        clamp(P)
        yield n, P


def _key(P):
    """Hashable and equal exactly for equal powers."""
    return P.tobytes() if P.dtype == float else tuple(P.flat)


def _period_and_transient(rec: _Spectrum, max_power: Optional[int]) -> Tuple[int, int]:
    if max_power is None:
        max_power = default_power_budget(rec.abar.k)
    seen: dict = {}
    for n, P in _powers(rec.abar, max_power):
        first = seen.setdefault(_key(P), n)
        if first != n:
            d = n - first
            crit_d = _cyclicity(rec.critical)
            if d != crit_d:
                raise ContractViolation(
                    f"cyclicity_and_transient: power period {d} != critical cyclicity {crit_d}"
                )
            return d, first
    raise BudgetExceeded(
        f"cyclicity_and_transient: no repetition within {max_power} powers"
    )


def _eigenbasis(rec: _Spectrum) -> tuple:
    basis = []
    for comp in rec.critical.scc.components:
        v = canonicalize(Vector(rec.plus.col(comp[0]), EXACT)).as_vector()
        if mat_vec(rec.abar, v) != v:
            raise ContractViolation("eigenbasis: eigenvector relation failed")
        basis.append(v.entries)
    if len(set(basis)) != len(basis):
        raise ContractViolation("eigenbasis: repeated classes across critical SCCs")
    return tuple(ProjVector(tuple(rec.value(x) for x in v), rec.backing) for v in basis)


def eigenvalue(A: Matrix):
    """Unique eigenvalue of an irreducible matrix: max circuit mean.

    Karp's dynamic program over walk lengths 0..k from a fixed source, run
    exactly on the integer-scaled matrix.
    """
    rec = _spectrum(A)
    return rec.value(rec.shift)


def normalize(A: Matrix) -> Tuple[Matrix, object]:
    """Subtract the eigenvalue from every finite entry; returns (Abar, lambda)."""
    rec = _spectrum(A)
    return rec.matrix(rec.abar), rec.value(rec.shift)


def a_plus(A: Matrix) -> Matrix:
    """A + A^2 + ... + A^k (otimes powers, oplus sum) of a normalized matrix.

    Entry (i, j) is the best weight of a path from j to i of length 1..k.
    Rejects non-normalized input; the fixpoint A+ oplus A+ A = A+ is
    asserted on the result.
    """
    rec = _spectrum(A)
    if rec.shift != 0:
        raise ContractViolation("a_plus: matrix is not normalized (eigenvalue != e)")
    return rec.matrix(rec.plus)


def critical_graph(A: Matrix) -> CriticalGraph:
    """Subgraph of arcs lying on circuits whose mean attains the eigenvalue.

    Node i is critical iff (Abar+)_(ii) = e; the arc i -> j is critical iff
    Abar_(ji) otimes (Abar+)_(ij) = e.
    """
    return _spectrum(A).critical


def cyclicity(A: Matrix) -> int:
    """Cyclicity of the critical graph (lcm of per-SCC circuit gcds)."""
    return _cyclicity(_spectrum(A).critical)


def cyclicity_and_transient(A: Matrix, max_power: Optional[int] = None) -> Tuple[int, int]:
    """Smallest (d, M) with A^(m+d) = lambda^(otimes d) otimes A^m for m >= M.

    M is the least power >= 1 from which the identity holds (the power
    semigroup A, A^2, ... is considered, not A^0 = E). Found by exact
    iteration of the normalized powers until the first repetition; the
    period is cross-checked against the critical graph. Exact backing
    only. Raises BudgetExceeded when max_power (default 10 k^2 + 64) is
    hit before a repetition.

    The powers are computed on the array kernel: on float64, keyed by
    their bytes, while max|Abar| max_power < 2**53, so that every entry of
    every power is an exactly held integer, and on object arrays of Python
    ints, keyed by their entries, past that.
    """
    _require_exact(A, "cyclicity_and_transient")
    return _period_and_transient(_spectrum(A), max_power)


def eigenbasis(A: Matrix) -> tuple:
    """One eigenvector class per critical SCC: the column of Abar+ at the
    least node of the component, canonicalized. Classes are pairwise
    distinct and each satisfies A v = lambda v exactly."""
    return _eigenbasis(_spectrum(A))


def _scs1cyc1(rec: _Spectrum) -> bool:
    scc = rec.critical.scc
    return scc.count == 1 and scc.cyclicities[0] == 1


def is_scs1cyc1(A: Matrix) -> bool:
    """Single critical SCC and cyclicity 1: the powers converge projectively."""
    return _scs1cyc1(_spectrum(A))


def _irreducible_scs1cyc1(A: Matrix) -> bool:
    """is_irreducible(A) and is_scs1cyc1(A), with one SCC decomposition."""
    return is_irreducible(A) and _scs1cyc1(_irreducible_spectrum(A))


def classify(A: Matrix, with_transient: bool = False, max_power: Optional[int] = None) -> SpectralSummary:
    rec = _spectrum(A)
    d = _cyclicity(rec.critical)
    transient = None
    if with_transient:
        _require_exact(A, "cyclicity_and_transient")
        _d, transient = _period_and_transient(rec, max_power)
    return SpectralSummary(
        eigenvalue=rec.value(rec.shift),
        critical=rec.critical,
        cyclicity=d,
        scs1cyc1=(rec.critical.scc.count == 1 and d == 1),
        eigenbasis=_eigenbasis(rec),
        transient=transient,
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


def first_rank_one_power(A: Matrix, max_power: Optional[int] = None) -> Optional[int]:
    """Least n with A^n rank-one, or None when the power sequence provably
    cycles without ever reaching a rank-one matrix. Exact backing only.
    The powers are Python-int products, not array ones: the matrices this
    is called on are small, and there numpy costs more per step."""
    _require_exact(A, "first_rank_one_power")
    if max_power is None:
        max_power = default_power_budget(A.k)
    abar = _spectrum(A).abar
    seen = set()
    power = None
    for n in range(1, max_power + 1):
        power = abar if power is None else mat_mul(power, abar)
        if is_rank_one(power):
            return n
        key = matrix_proj_normal(power).rows
        if key in seen:
            return None
        seen.add(key)
    raise BudgetExceeded(f"first_rank_one_power: undecided within {max_power} powers")


def summary_to_json(s: SpectralSummary) -> dict:
    return {
        "eigenvalue": scalar_to_json(s.eigenvalue),
        "critical_nodes": list(s.critical.nodes),
        "critical_arcs": [list(a) for a in s.critical.arcs],
        "critical_scc_count": s.critical.scc.count,
        "cyclicity": s.cyclicity,
        "scs1cyc1": s.scs1cyc1,
        "eigenbasis": [[scalar_to_json(v) for v in vec.entries] for vec in s.eigenbasis],
        "transient": s.transient,
    }
