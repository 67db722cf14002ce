"""Spectral theory of irreducible max-plus matrices.

An irreducible matrix has a unique eigenvalue, the maximum mean weight over
the circuits of its precedence graph. Normalizing (subtracting the
eigenvalue from every entry) exposes the critical graph, whose strongly
connected components generate the eigenspace and whose cyclicity governs
the eventually periodic behaviour of matrix powers:

    A^(m+d) = lambda^(otimes d) otimes A^m    for all m >= M.

Every reader builds one exact record per matrix (``_int_spectrum``): A is
scaled by the lcm L of its entry denominators, Karp's algorithm gives
lambda = p / (q L), and the normalized matrix is held as the integer matrix
Abar = q L A - p (otimes is positively homogeneous). It starts from L and
the array L A, which ``arrays._ints`` scales: from a Matrix's entries
(``_scaled``), or, for the CLI, from the table of distinct entries of the
JSON, each parsed and scaled once, with no Matrix built (``_int_matrix``).
The record is built on the array kernel of ``arrays``: irreducibility by
the boolean reachability closure of ``graphs`` on the finite pattern, Karp
by k array mat-vec steps with the minimum over walk lengths and the maximum
over nodes found by comparing the means as integer cross products, the
closure Abar+ by k vectorised Floyd-Warshall relaxations, its fixpoint
check by one array product, and the critical graph and the eigenvectors by
array comparisons. The SCC decomposition of the critical graph reads the
same boolean closure of its arcs; only its component order, the
per-component cyclicity and the output tuples run in Python, and
``Fraction`` appears only on output. The record bounds every integer it
forms by 6 k^2 max|B| (``_reach``); the array is float64 with -inf for eps
while those integers are below 2**53, where float64 holds them exactly, and
an object array of Python ints with an integer eps past that
(``arrays._guard``), with the same code. A float matrix enters the same
record as the exact dyadic rationals its entries denote and is rounded once
on output, so no check fails through rounding.

The steps of the record run on a whole stack of matrices at once
(``_records``); a spectral reader passes a single matrix. The word search
tests the new states of a level for the weak pattern (irreducible, one
critical SCC, cyclicity 1) on one such stack (``_scs1cyc1_flags``), and
reads "one SCC of cyclicity 1" from boolean powers of the critical
adjacency rather than an SCC decomposition.

The power loop behind the transient M and cyclicity d walks Abar, Abar^2,
... on the same kernel up to the first repeated power (``_walk``), each
power Abar times the one before by a max over a contiguous leading axis
(``arrays._lead_step``), which for commuting powers is the one before
times Abar. An entry of Abar^n is a sum of n entries of Abar, so at most n max|Abar| in
magnitude. While that bound stays below 2**53 the walk runs on float64: no
-0.0 or NaN arises, and equal powers have equal keys. From the first power
past it the walk runs on object arrays of Python ints, and the powers seen
so far are re-keyed once. ``first_rank_one_power`` reads the same walk and
stops at the first power whose normal form passes the kernel's rank-one
test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence, Tuple

from .graphs import SccDecomposition, _closure, scc_from_arcs
from .projective import ProjVector
from .semiring import (
    EPS,
    EXACT,
    BudgetExceeded,
    ContractViolation,
    Matrix,
    Vector,
    _matrix_table,
    scalar_to_json,
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
    integer matrix B forms (see _records)."""
    return 6 * k * k


def _records(B, eps, clamp) -> tuple:
    """The record arrays of each matrix of B, a (..., k, k) stack of
    irreducible integer matrices on the dtype that arrays._guard picked for
    reach ``_reach(k)``, with eps entries eps and that guard's clamp; a
    single (k, k) matrix is the stack with no leading axis. Returns (p, q,
    abar, plus, nodes, arcs): lambda = p / q in lowest terms, each of the
    leading shape; abar = q B - p and its closure abar+, each (..., k, k);
    the critical nodes, a (..., k) mask; and the critical arcs, a
    (..., k, k) mask whose entry (i, j) is the arc i -> j.

    Every step is one array operation on the whole stack. With t = max|B|,
    the integers formed are: the Karp walks of up to k arcs (at most k t),
    the cross products that compare their means (at most 2 k^2 t),
    Abar = q B - p (at most a = 2 k t, as q <= k and |p| <= k t), the
    closure, whose entries are best path weights (at most k a) and whose
    candidate sums are at most 2 k a, the fixpoint and critical sums (at
    most 2 k a), and the eigenvector check of ``_eigenbasis`` (at most
    3 k a = 6 k^2 t), all within the reach.
    """
    import numpy as np

    k = B.shape[-1]
    # Karp: walks of 0..k arcs from node 0, one array mat-vec step each;
    # W[j] holds the walks of j arcs
    x = np.full(B.shape[:-1], eps, B.dtype)
    x[..., 0] = 0
    walks = [x]
    for _ in range(k):
        x = (B + x[..., None, :]).max(-1)
        clamp(x)
        walks.append(x)
    W = np.array(walks)
    live = x != eps
    if not live.any(-1).all():
        raise ContractViolation("eigenvalue: graph has no circuit")
    # lambda = max over live v of min over j of D[j, v] / E[j], with
    # D = W[k] - W[j] and E = k - j, comparing a / b with c / d as a d with
    # c b. A node reached in k arcs is reached in fewer too, so every min
    # over a live v is finite; an eps W[j, v] gives +inf, or on an object
    # array an integer above every finite D, and never attains the min. The
    # nodes that are not live take W[k, v] = 0, and then the mean eps, below
    # every other, for the max. The N matrices of the stack lie on one axis.
    D = (np.where(live, x, 0) - W[:k]).reshape(k, -1, k)  # (j, N, v)
    E = np.arange(k, 0, -1).astype(B.dtype)
    least = (D[:, None] * E[None, :, None, None] <= D[None] * E[:, None, None, None])
    least = least.all(1).argmax(0)  # (N, v)
    rows = np.arange(len(least))
    num = np.where(live.reshape(-1, k), D[least, rows[:, None], np.arange(k)], eps)
    den = E[least]
    best = (num[:, :, None] * den[:, None] >= num[:, None] * den[:, :, None]).all(-1).argmax(-1)
    num, den = num[rows, best], den[rows, best]
    g = np.gcd(num, den) if B.dtype == object else np.gcd(num.astype(int), den.astype(int))
    p, q = (num // g).reshape(x.shape[:-1]), (den // g).reshape(x.shape[:-1])

    abar = B * q[..., None, None] - p[..., None, None]
    clamp(abar)
    # abar+ by k Floyd-Warshall relaxations: entry (i, j) is the best
    # weight of a path from j to i of length >= 1, as no circuit of abar
    # has positive weight
    plus = abar.copy()
    for m in range(k):
        np.maximum(plus, plus[..., :, m, None] + plus[..., None, m, :], out=plus)
        clamp(plus)
    arcs = abar.swapaxes(-1, -2)
    closed = (plus[..., :, None, :] + arcs[..., None, :, :]).max(-1)  # abar+ abar
    clamp(closed)
    if (closed > plus).any():
        raise ContractViolation("a_plus: fixpoint A+ oplus A^(k+1) = A+ failed")
    # node i is critical iff abar+_(ii) = 0, the arc i -> j iff
    # abar_(ji) + abar+_(ij) = 0 (such an arc closes a circuit of weight 0,
    # so both its ends are critical)
    nodes = plus.diagonal(0, -2, -1) == 0
    return p, q, abar, plus, nodes, arcs + plus == 0


# The matrices of a stack are tested in slices of at most this many entries
# of an (n, k, k, k) temporary, so the predicate's memory does not grow
# with the level.
_SLICE = 2**18


def _scs1cyc1_flags(Q, eps) -> list:
    """Irreducible and scs1cyc1, for each matrix of the integer stack Q
    (n, k, k) of the array kernel whose eps entries equal eps, as a list of
    bools; a reducible matrix reads as False.

    The stack's irreducible matrices are recast once, for the largest
    magnitude among them, and their records built a slice at a time. A
    critical graph is one SCC of cyclicity 1 iff its adjacency C,
    restricted to the critical nodes, is primitive, and by Wielandt's bound
    a primitive m x m pattern has C^t all true for every t > (m - 1)^2,
    while no power of an imprimitive or not strongly connected one is. So
    C squared s times, with 2^s > (k - 1)^2 >= (m - 1)^2, decides both at
    once, with no SCC decomposition.
    """
    import numpy as np

    from .arrays import _recast

    n, k, _ = Q.shape
    finite = Q != eps
    flags = _closure(finite).all((1, 2))
    which = np.flatnonzero(flags)
    B, eps, clamp = _recast(Q[which], finite[which], _reach(k))
    step = max(1, _SLICE // k**3)
    for lo in range(0, len(which), step):
        *_, nodes, C = _records(B[lo : lo + step], eps, clamp)
        for _ in range(((k - 1) ** 2).bit_length()):
            C = C @ C
        outside = ~(nodes[:, :, None] & nodes[:, None])
        flags[which[lo : lo + step]] = (C | outside).all((1, 2))
    return flags.tolist()


def _scaled(A: Matrix) -> tuple:
    """(L, B, eps, clamp): B = L A for L the lcm of A's entry denominators,
    on the array kernel for reach ``_reach(k)`` (``arrays._ints``)."""
    from .arrays import _ints

    lcm, B, eps, clamp = _ints([v for row in A.rows for v in row], _reach(A.k))
    return lcm, B.reshape(A.k, A.k), eps, clamp


def _int_matrix(obj, backing: str) -> tuple:
    """``_scaled(matrix_from_json(obj, backing))``, its errors included, with
    each distinct entry parsed and scaled once and the rows indexed through
    that table into one array: no Matrix is built."""
    # numpy and the kernel load on first use, in the functions that use
    # them, and not with this module: the package imports spectral before
    # stochastic, and without a bytecode cache numpy loaded ahead of
    # compiling stochastic.py raises the peak memory of every process by
    # about 1.7 MB.
    import numpy as np

    from .arrays import _ints

    values, index = _matrix_table(obj, backing)
    k = len(index)
    lcm, table, eps, clamp = _ints(values, _reach(k))
    slots = np.fromiter(chain.from_iterable(index), np.intp, k * k).reshape(k, k)
    return lcm, table[slots], eps, clamp


def _int_spectrum(backing: str, lcm: int, B, eps, clamp) -> _Spectrum:
    """The one exact record behind every spectral reader, the one-matrix
    case of ``_records``, of B / lcm on backing (B, eps, clamp of ``_scaled``)."""
    import numpy as np

    if not _closure(B != eps).all():
        raise ContractViolation("eigenvalue: matrix is not irreducible")
    p, q, abar, plus, nodes, arcs = _records(B, eps, clamp)
    nodes = tuple(np.flatnonzero(nodes).tolist())
    arcs = tuple(map(tuple, np.argwhere(arcs).tolist()))
    critical = CriticalGraph(nodes, arcs, scc_from_arcs(len(B), arcs, nodes=nodes))
    return _Spectrum(backing, int(q) * lcm, int(p), abar, plus, eps, critical)


def _spectrum(A: Matrix) -> _Spectrum:
    return _int_spectrum(A.backing, *_scaled(A))


def _cyclicity(crit: CriticalGraph) -> int:
    if None in crit.scc.cyclicities:
        raise ContractViolation("cyclicity: critical SCC without a circuit")
    return math.lcm(*crit.scc.cyclicities)


def _require_exact(backing: str, what: str) -> None:
    if backing != EXACT:
        raise ContractViolation(f"{what}: exact backing required")


def _powers(rec: _Spectrum, max_power: int):
    """(n, Abar^n, eps) for n = 1..max_power, each power Abar times the one
    before by ``arrays._lead_step`` of a contiguous Abar transposed, with
    the value of its eps entries.

    An entry of Abar^n, and every sum that forms it, is at most n max|Abar|
    in magnitude. The walk runs on float64 with -inf for eps while that
    bound is below 2**53, where those integers are exact, and from the
    first power past it on object arrays of Python ints, with the eps that
    arrays._guard picks for max_power.
    """
    import numpy as np

    from .arrays import _FLOAT_EXACT, _as_object, _guard, _lead_step, _recast, _top

    finite = rec.abar != rec.eps
    top = _top(rec.abar, finite)
    object_eps, _, object_clamp = _guard(top, max_power)
    if top < _FLOAT_EXACT:
        A, eps, clamp = _recast(rec.abar, finite, 1)  # float64, no clamp
    else:
        A, eps, clamp = _as_object(rec.abar, finite, object_eps), object_eps, object_clamp
    At = np.ascontiguousarray(A.T)[:, :, None]
    P = None
    for n in range(1, max_power + 1):
        if A.dtype == float and n * top >= _FLOAT_EXACT:
            A, P = (_as_object(X, X != eps, object_eps) for X in (A, P))
            At = np.ascontiguousarray(A.T)[:, :, None]
            eps, clamp = object_eps, object_clamp
        P = A if P is None else _lead_step(At, P[:, None, :], False)
        clamp(P)
        yield n, P, eps


def _power_budget(max_power: Optional[int], k: int) -> int:
    """max_power, by default default_power_budget(k); negative is a ContractViolation."""
    if max_power is not None and max_power < 0:
        raise ContractViolation(f"max_power must be >= 0, got {max_power}")
    return default_power_budget(k) if max_power is None else max_power


def _walk(rec: _Spectrum, max_power: Optional[int], what: str, hit=None) -> tuple:
    """(first, n) for the first power Abar^n of ``_powers`` equal to an
    earlier one, Abar^first; (None, n) for the first power before that
    which hit(P, eps), when given, accepts. Raises BudgetExceeded, with
    what, when neither comes within max_power powers (by default
    ``default_power_budget(k)``), and a ContractViolation when max_power
    is negative. The powers are keyed by
    ``arrays._stack_keys``: at the switch to object arrays the float64 keys
    seen so far are converted once."""
    import numpy as np

    from .arrays import _as_object, _stack_keys

    k = len(rec.abar)
    max_power = _power_budget(max_power, k)
    seen: dict = {}
    dtype = None
    for n, P, eps in _powers(rec, max_power):
        if hit is not None and hit(P, eps):
            return None, n
        if seen and P.dtype != dtype:
            F = np.frombuffer(b"".join(seen)).reshape(-1, k, k)
            seen = dict(zip(_stack_keys(_as_object(F, F != -math.inf, eps)), seen.values()))
        dtype = P.dtype
        first = seen.setdefault(_stack_keys(P[None])[0], n)
        if first != n:
            return first, n
    raise BudgetExceeded(f"{what} within {max_power} powers")


def _period_and_transient(rec: _Spectrum, max_power: Optional[int]) -> Tuple[int, int]:
    first, n = _walk(rec, max_power, "cyclicity_and_transient: no repetition")
    d = n - first
    crit_d = _cyclicity(rec.critical)
    if d != crit_d:
        raise ContractViolation(
            f"cyclicity_and_transient: power period {d} != critical cyclicity {crit_d}"
        )
    return d, first


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
    hit before a repetition, and a ContractViolation when it is negative.

    The powers are computed on the array kernel: on float64, keyed by
    their bytes, while n max|Abar| < 2**53 at power n, so that every entry
    of every power is an exactly held integer, and on object arrays of
    Python ints, keyed by their entries, from the first power past that.
    """
    return _cyclicity_and_transient(A.backing, *_scaled(A), max_power)


def _cyclicity_and_transient(backing: str, lcm: int, B, eps, clamp, max_power) -> Tuple[int, int]:
    """cyclicity_and_transient of the matrix B / lcm, as ``_scaled`` gives it."""
    _require_exact(backing, "cyclicity_and_transient")
    return _period_and_transient(_int_spectrum(backing, lcm, B, eps, clamp), max_power)


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


def classify(A: Matrix, with_transient: bool = False, max_power: Optional[int] = None) -> SpectralSummary:
    return _classify(A.backing, *_scaled(A), with_transient, max_power)


def _classify(backing: str, lcm: int, B, eps, clamp, with_transient, max_power) -> SpectralSummary:
    """classify of the matrix B / lcm, as ``_scaled`` gives it."""
    _power_budget(max_power, len(B))  # checked even when no power is walked
    rec = _int_spectrum(backing, lcm, B, eps, clamp)
    d = _cyclicity(rec.critical)
    transient = None
    if with_transient:
        _require_exact(backing, "cyclicity_and_transient")
        _d, transient = _period_and_transient(rec, max_power)
    return SpectralSummary(
        eigenvalue=rec.value(rec.shift),
        critical=rec.critical,
        cyclicity=d,
        scs1cyc1=_scs1cyc1(rec),
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
    for c in cols:
        if len(c) != len(b):
            raise ContractViolation("span_membership: dimension mismatch")
        if c.backing != b.backing:
            raise ContractViolation("span_membership: mixed backings")
    from .arrays import _operands, _scalars, _span

    L, _, X, eps, clamp = _operands((), (*cols, b), 3)
    alpha = _span(X[:-1].T, X[-1], eps, clamp)
    return None if alpha is None else _scalars(alpha, eps, L)


def weak_rank(A: Matrix) -> int:
    """Size of the column set left by greedy elimination in ascending order.

    A column is dropped iff it lies in the span of the other currently kept
    columns. Rejects matrices with an all-eps column.
    """
    from .arrays import _operands, _span

    _, (a,), _, eps, clamp = _operands((A,), (), 3)
    for j in range(A.k):
        if (a[:, j] == eps).all():
            raise ContractViolation(f"weak_rank: column {j} is all eps")
    kept = list(range(A.k))
    for j in range(A.k):
        others = [i for i in kept if i != j]
        if others and _span(a[:, others], a[:, j], eps, clamp) is not None:
            kept.remove(j)
    return len(kept)


def _rank_one(P, eps) -> bool:
    """Whether the integer power P, with eps entries eps, is rank-one:
    ``arrays._rank_one_flags`` on its projective normal form, recast for
    reach 4 of max|P|, which holds the normal form's entries (at most
    2 max|P| in magnitude) and the sums of the test (at most 4 max|P|)."""
    from .arrays import _normal, _rank_one_flags, _recast

    P, _, clamp = _recast(P, P != eps, 4)
    return _rank_one_flags(_normal(P[None], clamp)[0], clamp)[0]


def first_rank_one_power(A: Matrix, max_power: Optional[int] = None) -> Optional[int]:
    """Least n with A^n rank-one, or None when the power sequence provably
    cycles without ever reaching a rank-one matrix. Exact backing only.
    The powers are those of the record's Abar, on the walk behind
    ``cyclicity_and_transient``."""
    _require_exact(A.backing, "first_rank_one_power")
    first, n = _walk(_spectrum(A), max_power, "first_rank_one_power: undecided", _rank_one)
    return n if first is None else None


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
