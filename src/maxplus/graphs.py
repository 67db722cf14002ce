"""Precedence graphs of max-plus matrices.

The graph of a k x k matrix A has nodes 0..k-1 and an arc i -> j exactly
when A[j][i] is finite, carrying that entry as its valuation. Note the
transpose convention: the arc follows the flow of influence x_i -> x_j in
x(n+1) = A x(n), while the matrix entry is indexed (target, source). Keeping
this in one place is the point of the module.

Every question of who reaches whom goes through one routine, ``_closure``:
Warshall's boolean reachability matrix, formed by squaring the adjacency
with the identity ceil(log2 k) times, at O(k^3 log k) for k nodes (the
spectral record of the same matrix already pays O(k^3) for Karp and the
Floyd-Warshall closure). A graph is irreducible when its closure is all
true, the SCCs are the classes of mutual reach, and their topological
order repeatedly takes the least-node component that no remaining one
reaches. The same closure gives the recurrent letters of a Markov kernel
and the upstream components of an open system (``stochastic``). numpy
loads inside the functions that use it, for the reason ``spectral`` gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from .semiring import EPS, ContractViolation, Matrix


@dataclass(frozen=True)
class PrecedenceGraph:
    k: int
    arcs: tuple  # (src, dst, valuation), sorted by (src, dst)


@dataclass(frozen=True)
class SccDecomposition:
    """Strongly connected components in condensation-topological order.

    components are tuples of ascending node ids; ties in the topological
    order are broken by least node id, so the decomposition is deterministic.
    cyclicities holds the per-component circuit-length gcd, None for a
    trivial component without a circuit.
    """

    components: tuple
    component_of: tuple
    condensation_arcs: tuple
    cyclicities: tuple

    @property
    def count(self) -> int:
        return len(self.components)


def graph_of(A: Matrix) -> PrecedenceGraph:
    arcs = []
    for j, row in enumerate(A.rows):
        for i, v in enumerate(row):
            if v is not EPS:
                arcs.append((i, j, v))
    arcs.sort(key=lambda a: (a[0], a[1]))
    return PrecedenceGraph(A.k, tuple(arcs))


def _closure(adj):
    """Reachability of a (..., k, k) boolean adjacency whose entry (i, j) is
    the arc i -> j: entry (i, j) of the result is whether j is reached from
    i by a path of length >= 0. The adjacency with the identity is squared
    until paths of k - 1 arcs are covered."""
    import numpy as np

    k = adj.shape[-1]
    reach = adj | np.eye(k, dtype=bool)
    for _ in range((k - 1).bit_length()):
        reach = reach @ reach
    return reach


def _component_cyclicity(members: tuple, arc_set: set) -> Optional[int]:
    """gcd of circuit lengths inside one SCC, via BFS level differences."""
    inside = [(u, v) for (u, v) in arc_set if u in members and v in members]
    if not inside:
        return None
    succ = {u: [] for u in members}
    for u, v in inside:
        succ[u].append(v)
    root = members[0]
    level = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in succ.get(u, ()):
                if v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    g = 0
    for u, v in inside:
        g = math.gcd(g, level[u] + 1 - level[v])
    return g if g > 0 else None


def scc_from_arcs(
    k: int, arcs: Iterable[Tuple[int, int]], nodes: Optional[Sequence[int]] = None
) -> SccDecomposition:
    """Decompose the directed graph given by unweighted arcs.

    When nodes is given, the graph is restricted to that subset (arcs with
    an endpoint outside it are dropped and other nodes do not appear).
    """
    import numpy as np

    arc_set = set(arcs)
    if nodes is None:
        nodes = range(k)
        for u, v in arc_set:
            if not (0 <= u < k and 0 <= v < k):
                raise ContractViolation(f"scc_from_arcs: arc ({u}, {v}) outside 0..{k - 1}")
    node_list = sorted(set(nodes))
    for n in node_list:
        if not 0 <= n < k:
            raise ContractViolation(f"scc_from_arcs: node {n} outside 0..{k - 1}")
    local = {n: i for i, n in enumerate(node_list)}
    inside = [(local[u], local[v]) for u, v in arc_set if u in local and v in local]
    n = len(node_list)
    adj = bytearray(n * n)
    for u, v in inside:
        adj[u * n + v] = True
    # a single node reaches itself, with or without a loop
    reach = _closure(np.frombuffer(adj, bool).reshape(n, n)).tolist() if n > 1 else [[True]] * n
    # a component is a class of mutual reach, named by its least member
    head = [next(j for j in range(i + 1) if row[j] and reach[j][i]) for i, row in enumerate(reach)]
    heads = [i for i, h in enumerate(head) if h == i]
    # topological order, least node first among the components that no
    # remaining component reaches: pending counts the remaining components
    # that reach each one, itself included
    pending = [sum(reach[g][h] for g in heads) for h in heads]
    order = {}
    for _ in heads:
        c = heads[pending.index(1)]
        order[c] = len(order)
        pending = [n - reach[c][h] for n, h in zip(pending, heads)]
    cid = [order[h] for h in head]
    components = tuple(tuple(n for n, h in zip(node_list, head) if h == c) for c in order)
    component_of = [-1] * k
    for n, c in zip(node_list, cid):
        component_of[n] = c
    condensation = tuple(sorted({(cid[u], cid[v]) for u, v in inside if cid[u] != cid[v]}))
    cyclicities = tuple(_component_cyclicity(comp, arc_set) for comp in components)
    return SccDecomposition(components, tuple(component_of), condensation, cyclicities)


def scc_decompose(G: PrecedenceGraph) -> SccDecomposition:
    return scc_from_arcs(G.k, [(u, v) for u, v, _w in G.arcs])


def is_irreducible(A: Matrix) -> bool:
    """True iff the precedence graph is strongly connected."""
    import numpy as np

    # the finite pattern is the transposed adjacency, which is strongly
    # connected exactly when the graph is
    return bool(_closure(np.array(A.eps_pattern())).all())


def graph_cyclicity(G: PrecedenceGraph) -> int:
    """lcm of the per-SCC circuit-length gcds; components without a circuit
    are excluded. Rejects a graph with no circuit at all."""
    circuits = [c for c in scc_decompose(G).cyclicities if c is not None]
    if not circuits:
        raise ContractViolation("graph_cyclicity: graph has no circuit")
    return math.lcm(*circuits)


def is_aperiodic(A: Matrix) -> bool:
    """Irreducible with graph cyclicity 1."""
    if not is_irreducible(A):
        return False
    return graph_cyclicity(graph_of(A)) == 1
