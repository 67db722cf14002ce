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
Abar = q L A - p (otimes is positively homogeneous). The record is built on
the array kernel of ``arrays``: irreducibility by boolean reachability on
the finite pattern, Karp by k array mat-vec steps with the minimum over
walk lengths and the maximum over nodes found by comparing the means as
integer cross products, the closure Abar+ by k vectorised Floyd-Warshall
relaxations, its fixpoint check by one array product, and the critical
graph and the eigenvectors by array comparisons. Only the SCC
decomposition of the critical graph runs in Python, and ``Fraction``
appears only on output. The record bounds every integer it forms by
6 k^2 max|B| (``_reach``); the array is float64 with -inf for eps while
those integers are below 2**53, where float64 holds them exactly, and an
object array of Python ints with an integer eps past that
(``arrays._guard``), with the same code. A float matrix enters the same
record as the exact dyadic rationals its entries denote and is rounded
once on output, so no check fails through rounding. The word search hands
its integer states to the record directly (``_int_scs1cyc1``).

The power loop behind the transient M and cyclicity d walks Abar, Abar^2,
... on the same kernel. An entry of Abar^n is a sum of n entries of Abar,
so at most n max|Abar| in magnitude. While that bound stays below 2**53
the walk runs on float64: no -0.0 or NaN arises, and equal powers have
equal ``tobytes()``. From the first power past it the walk runs on object
arrays of Python ints, keyed by tuples, and the powers seen so far are
re-keyed once. ``first_rank_one_power`` multiplies Python ints: its one
caller, the rank-one script, passes 2 x 2 matrices, where an unbatched
numpy step costs more than the Python-int product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .graphs import SccDecomposition, scc_from_arcs
from .projective import ProjVector, is_rank_one, matrix_proj_normal
from .semiring import (
    EPS,
    EXACT,
    BudgetExceeded,
    ContractViolation,
    Matrix,
    Vector,
    mat_mul,
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
    plus is the closure abar+. Both are (k, k) arrays of the array kernel
    whose eps entries equal eps: float64 with -inf, or object arrays of
    Python ints with an integer eps (``arrays._guard``). They never leave
    the module: ``value`` turns one of their entries back into a scalar of
    A's backing.
    """

    backing: str
    scale: int
    shift: int
    abar: object
    plus: object
    eps: object
    critical: CriticalGraph

    def value(self, v):
        if v == self.eps:
            return EPS
        x = Fraction(int(v), self.scale)
        return x if self.backing == EXACT else float(x)

    def matrix(self, X) -> Matrix:
        return Matrix(tuple(tuple(self.value(v) for v in row) for row in X.tolist()), self.backing)


def _reach(k: int) -> int:
    """A bound, in units of max|B|, on every integer the record of a k x k
    integer matrix B forms (see _int_spectrum)."""
    return 6 * k * k


def _int_spectrum(B, eps, backing: str = EXACT, scale: int = 1) -> Optional[_Spectrum]:
    """The record of A = B / scale, for B a (k, k) integer array of the
    array kernel whose eps entries equal eps; None when B is reducible.

    Every step runs on arrays. With t = max|B|, the integers formed are:
    the Karp walks of up to k arcs (at most k t), the cross products that
    compare their means (at most 2 k^2 t), Abar = q B - p (at most
    a = 2 k t, as q <= k and |p| <= k t), the closure, whose entries are
    best path weights (at most k a) and whose candidate sums are at most
    2 k a, the fixpoint and critical sums (at most 2 k a), and the
    eigenvector check (at most 3 k a = 6 k^2 t). So B is recast under the
    guard with reach ``_reach(k)`` = 6 k^2: float64 when all of these are
    exact there.
    """
    # numpy and the kernel load on first use, in the functions that use
    # them, and not with this module: the package imports spectral before
    # stochastic, and without a bytecode cache numpy loaded ahead of
    # compiling stochastic.py raises the peak memory of every process by
    # about 1.7 MB.
    import numpy as np

    from .arrays import _max_last, _recast

    k = len(B)
    finite = B != eps
    # irreducible iff every node reaches every other: square the pattern
    # with the identity until paths of k - 1 arcs are covered
    reach = finite | np.eye(k, dtype=bool)
    for _ in range((k - 1).bit_length()):
        reach = reach @ reach
    if not reach.all():
        return None
    B, eps, clamp = _recast(B, finite, _reach(k))

    # Karp: walks of 0..k arcs from node 0, one array mat-vec step each
    x = np.full(k, eps, B.dtype)
    x[0] = 0
    walks = [x]
    for _ in range(k):
        x = _max_last(B + x, False)
        clamp(x)
        walks.append(x)
    W = np.array(walks)
    live = W[k] != eps
    if not live.any():
        raise ContractViolation("eigenvalue: graph has no circuit")
    # lambda = max over v of min over j of D[j, v] / E[j], with
    # D = W[k] - W[j] and E = k - j, comparing a / b with c / d as a d with
    # c b. A node reached in k arcs is reached in fewer too, so every min
    # is finite; an eps W[j, v] gives +inf, or on an object array an integer
    # above every finite D, and never attains the min.
    D = W[k, live] - W[:k, live]
    E = np.arange(k, 0, -1, dtype=B.dtype)[:, None]
    least = (D[:, None] * E[None] <= D[None] * E[:, None]).all(1).argmax(0)
    num, den = D[least, np.arange(len(least))], E[least, 0]
    best = (num[:, None] * den[None] >= num[None] * den[:, None]).all(1).argmax()
    lam = Fraction(int(num[best]), int(den[best]))
    q, p = lam.denominator, lam.numerator

    abar = B * q - p
    clamp(abar)
    # abar+ by k Floyd-Warshall relaxations: entry (i, j) is the best
    # weight of a path from j to i of length >= 1, as no circuit of abar
    # has positive weight
    plus = abar.copy()
    for m in range(k):
        np.maximum(plus, plus[:, m, None] + plus[m], out=plus)
        clamp(plus)
    closed = _max_last(plus[:, None, :] + abar.T[None], False)  # abar+ abar
    clamp(closed)
    if (closed > plus).any():
        raise ContractViolation("a_plus: fixpoint A+ oplus A^(k+1) = A+ failed")
    # node i is critical iff abar+_(ii) = 0, the arc i -> j iff
    # abar_(ji) + abar+_(ij) = 0 (such an arc closes a circuit of weight 0,
    # so both its ends are critical)
    nodes = tuple(np.flatnonzero(plus.diagonal() == 0).tolist())
    arcs = tuple(map(tuple, np.argwhere(abar.T + plus == 0).tolist()))
    critical = CriticalGraph(nodes, arcs, scc_from_arcs(k, arcs, nodes=nodes))
    return _Spectrum(backing, q * scale, p, abar, plus, eps, critical)


def _integers(A: Matrix) -> tuple:
    """(B, eps, L): A scaled by the lcm L of its entry denominators, as an
    integer array of the array kernel with eps entries eps."""
    from .arrays import _int_stack

    lcm, (B,), _ = scale_to_integers((A,))
    stack, eps, _ = _int_stack([B], 1)
    return stack[0], eps, lcm


def _spectrum(A: Matrix) -> _Spectrum:
    """The one exact record behind every spectral reader of A."""
    B, eps, lcm = _integers(A)
    rec = _int_spectrum(B, eps, A.backing, lcm)
    if rec is None:
        raise ContractViolation("eigenvalue: matrix is not irreducible")
    return rec


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


def _powers(rec: _Spectrum, max_power: int, rekey=None):
    """(n, Abar^n) for n = 1..max_power, each power the one before times Abar.

    An entry of Abar^n, and every sum that forms it, is at most n max|Abar|
    in magnitude. The walk runs on float64 with -inf for eps while that
    bound is below 2**53, where those integers are exact, and from the
    first power past it on object arrays of Python ints, with the eps that
    arrays._guard picks for max_power. At that switch rekey, when given, is
    called once with the function that takes a float64 power to its object
    form, so that a caller holding earlier powers can convert them.
    """
    from .arrays import _FLOAT_EXACT, _as_object, _guard, _max_last, _recast, _top

    finite = rec.abar != rec.eps
    top = _top(rec.abar, finite)
    eps, _, object_clamp = _guard(top, max_power)

    def to_object(F):
        return _as_object(F, F != -math.inf, eps)

    if top < _FLOAT_EXACT:
        A, _, clamp = _recast(rec.abar, finite, 1)  # float64, no clamp
    else:
        A, clamp = _as_object(rec.abar, finite, eps), object_clamp
    P = None
    for n in range(1, max_power + 1):
        if A.dtype == float and n * top >= _FLOAT_EXACT:
            A, clamp = to_object(A), object_clamp
            P = to_object(P)
            if rekey is not None:
                rekey(to_object)
        P = A if P is None else _max_last(P[:, None, :] + A.T[None], False)
        clamp(P)
        yield n, P


def _key(P):
    """Hashable and equal exactly for equal powers."""
    return P.tobytes() if P.dtype == float else tuple(P.flat)


def _period_and_transient(rec: _Spectrum, max_power: Optional[int]) -> Tuple[int, int]:
    import numpy as np

    k = len(rec.abar)
    if max_power is None:
        max_power = default_power_budget(k)
    seen: dict = {}

    def rekey(to_object):
        old = list(seen.items())
        seen.clear()
        seen.update((_key(to_object(np.frombuffer(b).reshape(k, k))), n) for b, n in old)

    for n, P in _powers(rec, max_power, rekey):
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
    from .arrays import _max_last

    basis = []
    for comp in rec.critical.scc.components:
        v = rec.plus[:, comp[0]]
        v = v - v.max()
        if (_max_last(rec.abar + v, False) != v).any():
            raise ContractViolation("eigenbasis: eigenvector relation failed")
        basis.append(tuple(v.tolist()))
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
    their bytes, while n max|Abar| < 2**53 at power n, so that every entry
    of every power is an exactly held integer, and on object arrays of
    Python ints, keyed by their entries, from the first power past that.
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


def _int_scs1cyc1(B, eps) -> bool:
    """Irreducible and scs1cyc1, for the integer array B of the array
    kernel whose eps entries equal eps; reducible B reads as False."""
    rec = _int_spectrum(B, eps)
    return rec is not None and _scs1cyc1(rec)


def _irreducible_scs1cyc1(A: Matrix) -> bool:
    """is_irreducible(A) and is_scs1cyc1(A), from one record."""
    return _int_scs1cyc1(*_integers(A)[:2])


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
    The powers are Python-int products of the record's Abar, not array
    ones: the matrices this is called on are small, and there numpy costs
    more per step."""
    from .arrays import _int_matrix

    _require_exact(A, "first_rank_one_power")
    if max_power is None:
        max_power = default_power_budget(A.k)
    rec = _spectrum(A)
    abar = _int_matrix(rec.abar, rec.eps)
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
