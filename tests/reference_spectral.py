"""Reference spectral pipeline: the product-based implementation that
``maxplus.spectral`` replaced, kept verbatim as an oracle for differential
tests.

Every reader recomputes what it needs from scratch: the eigenvalue by
Karp's dynamic program in the matrix's own arithmetic, A+ as the oplus of
k matrix products (O(k^4)), and the transient by powers of the normalized
matrix in ``Fraction`` arithmetic, on the per-entry products of
``reference_kernel``. Slow, but independent of the integer scaling, the
array kernel, the Floyd-Warshall closure and the shared record.
"""

import math
from typing import Optional, Tuple

from maxplus.graphs import graph_of, is_irreducible, scc_from_arcs
from maxplus.projective import canonicalize
from maxplus.semiring import EPS, EXACT, BudgetExceeded, ContractViolation, Matrix, Vector, zero
from maxplus.spectral import CriticalGraph, SpectralSummary, default_power_budget
from reference_kernel import (
    is_rank_one,
    mat_mul,
    mat_oplus,
    mat_vec,
    matrix_proj_normal,
    scale_vector,
)


def eigenvalue(A: Matrix):
    """Unique eigenvalue of an irreducible matrix: max circuit mean.

    Dynamic program over walk lengths 0..k from a fixed source; exact in
    the exact backing.
    """
    if not is_irreducible(A):
        raise ContractViolation("eigenvalue: matrix is not irreducible")
    k = A.k
    G = graph_of(A)
    incoming = [[] for _ in range(k)]
    for src, dst, w in G.arcs:
        incoming[dst].append((src, w))
    if not G.arcs:
        raise ContractViolation("eigenvalue: graph has no circuit")
    # d[j][v] = best weight of a walk with exactly j arcs from node 0 to v
    d = [[EPS] * k for _ in range(k + 1)]
    d[0][0] = zero(A.backing)
    for j in range(1, k + 1):
        prev = d[j - 1]
        cur = d[j]
        for v in range(k):
            best = EPS
            for u, w in incoming[v]:
                p = prev[u]
                if p is EPS:
                    continue
                s = p + w
                if best is EPS or s > best:
                    best = s
            cur[v] = best
    best = None
    for v in range(k):
        top = d[k][v]
        if top is EPS:
            continue
        worst = None
        for j in range(k):
            dj = d[j][v]
            if dj is EPS:
                continue
            mean = (top - dj) / (k - j)
            if worst is None or mean < worst:
                worst = mean
        if worst is not None and (best is None or worst > best):
            best = worst
    if best is None:
        raise ContractViolation("eigenvalue: graph has no circuit")
    return best


def normalize(A: Matrix) -> Tuple[Matrix, object]:
    """Subtract the eigenvalue from every finite entry; returns (Abar, lambda)."""
    lam = eigenvalue(A)
    B = Matrix(
        tuple(tuple(EPS if v is EPS else v - lam for v in row) for row in A.rows),
        A.backing,
    )
    return B, lam


def a_plus(A: Matrix) -> Matrix:
    """A + A^2 + ... + A^k (otimes powers, oplus sum) of a normalized matrix.

    Entry (i, j) is the best weight of a path from j to i of length 1..k.
    Rejects non-normalized input; the fixpoint A+ oplus A^(k+1) = A+ is
    asserted on the result.
    """
    lam = eigenvalue(A)
    if lam != zero(A.backing):
        raise ContractViolation("a_plus: matrix is not normalized (eigenvalue != e)")
    k = A.k
    acc = A
    power = A
    for _ in range(k - 1):
        power = mat_mul(power, A)
        acc = mat_oplus(acc, power)
    power = mat_mul(power, A)  # A^(k+1)
    if mat_oplus(acc, power) != acc:
        raise ContractViolation("a_plus: fixpoint A+ oplus A^(k+1) = A+ failed")
    return acc


def critical_graph(A: Matrix) -> CriticalGraph:
    """Subgraph of arcs lying on circuits whose mean attains the eigenvalue.

    Node i is critical iff (Abar+)_(ii) = e; the arc i -> j is critical iff
    Abar_(ji) otimes (Abar+)_(ij) = e.
    """
    Abar, _lam = normalize(A)
    P = a_plus(Abar)
    e = zero(A.backing)
    nodes = tuple(i for i in range(A.k) if P.rows[i][i] == e)
    arcs = []
    for i in nodes:
        for j in nodes:
            w = Abar.rows[j][i]
            if w is EPS:
                continue
            back = P.rows[i][j]
            if back is not EPS and w + back == e:
                arcs.append((i, j))
    arcs = tuple(sorted(arcs))
    scc = scc_from_arcs(A.k, arcs, nodes=nodes)
    return CriticalGraph(nodes, arcs, scc)


def cyclicity(A: Matrix) -> int:
    """Cyclicity of the critical graph (lcm of per-SCC circuit gcds)."""
    crit = critical_graph(A)
    result = 1
    for c in crit.scc.cyclicities:
        if c is None:
            raise ContractViolation("cyclicity: critical SCC without a circuit")
        result = result * c // math.gcd(result, c)
    return result


def cyclicity_and_transient(A: Matrix, max_power: Optional[int] = None) -> Tuple[int, int]:
    """Smallest (d, M) with A^(m+d) = lambda^(otimes d) otimes A^m for m >= M.

    M is the least power >= 1 from which the identity holds (the power
    semigroup A, A^2, ... is considered, not A^0 = E). Found by exact
    iteration of the normalized powers until the first repetition; the
    period is cross-checked against the critical graph. Exact backing
    only. Raises BudgetExceeded when max_power (default 10 k^2 + 64) is
    hit before a repetition.
    """
    if A.backing != EXACT:
        raise ContractViolation("cyclicity_and_transient: exact backing required")
    if max_power is None:
        max_power = default_power_budget(A.k)
    Abar, _lam = normalize(A)
    seen: dict = {}
    power = Matrix.identity(A.k, A.backing)
    for n in range(1, max_power + 1):
        power = mat_mul(power, Abar)
        first = seen.get(power.rows)
        if first is not None:
            M, d = first, n - first
            crit_d = cyclicity(A)
            if d != crit_d:
                raise ContractViolation(
                    f"cyclicity_and_transient: power period {d} != critical cyclicity {crit_d}"
                )
            return d, M
        seen[power.rows] = n
    raise BudgetExceeded(
        f"cyclicity_and_transient: no repetition within {max_power} powers"
    )


def eigenbasis(A: Matrix) -> tuple:
    """One eigenvector class per critical SCC: the column of Abar+ at the
    least node of the component, canonicalized. Classes are pairwise
    distinct and each satisfies A v = lambda v exactly."""
    Abar, lam = normalize(A)
    P = a_plus(Abar)
    crit = critical_graph(A)
    out = []
    for comp in crit.scc.components:
        rep = comp[0]
        col = Vector(P.col(rep), A.backing)
        v = canonicalize(col)
        out.append(v)
    for v in out:
        vec = v.as_vector()
        if mat_vec(A, vec) != scale_vector(lam, vec):
            raise ContractViolation("eigenbasis: eigenvector relation failed")
    keys = {v.entries for v in out}
    if len(keys) != len(out):
        raise ContractViolation("eigenbasis: repeated classes across critical SCCs")
    return tuple(out)


def classify(A: Matrix, with_transient: bool = False, max_power: Optional[int] = None) -> SpectralSummary:
    lam = eigenvalue(A)
    crit = critical_graph(A)
    d = 1
    for c in crit.scc.cyclicities:
        if c is not None:
            d = d * c // math.gcd(d, c)
    transient = None
    if with_transient:
        d2, transient = cyclicity_and_transient(A, max_power)
        if d2 != d:
            raise ContractViolation("classify: cyclicity mismatch")
    return SpectralSummary(
        eigenvalue=lam,
        critical=crit,
        cyclicity=d,
        scs1cyc1=(crit.scc.count == 1 and d == 1),
        eigenbasis=eigenbasis(A),
        transient=transient,
    )


def first_rank_one_power(A: Matrix, max_power: Optional[int] = None) -> Optional[int]:
    """Least n with A^n rank-one, or None when the power sequence provably
    cycles without ever reaching a rank-one matrix. Exact backing only."""
    if A.backing != EXACT:
        raise ContractViolation("first_rank_one_power: exact backing required")
    if max_power is None:
        max_power = default_power_budget(A.k)
    Abar, _lam = normalize(A)
    seen = set()
    power = None
    for n in range(1, max_power + 1):
        power = Abar if power is None else mat_mul(power, Abar)
        if is_rank_one(power):
            return n
        key = matrix_proj_normal(power).rows
        if key in seen:
            return None
        seen.add(key)
    raise BudgetExceeded(f"first_rank_one_power: undecided within {max_power} powers")
