"""Precedence graphs of max-plus matrices.

The graph of a k x k matrix A has nodes 0..k-1 and an arc i -> j exactly
when A[j][i] is finite, carrying that entry as its valuation. Note the
transpose convention: the arc follows the flow of influence x_i -> x_j in
x(n+1) = A x(n), while the matrix entry is indexed (target, source). Keeping
this in one place is the point of the module.
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


def _tarjan(k: int, adj: Sequence[Sequence[int]]) -> list:
    """Iterative Tarjan; returns components in reverse topological order."""
    index = [-1] * k
    low = [0] * k
    on_stack = [False] * k
    stack: list = []
    comps: list = []
    counter = 0
    for root in range(k):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, ptr = work[-1]
            if ptr == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            for nxt_i in range(ptr, len(adj[node])):
                nxt = adj[node][nxt_i]
                if index[nxt] == -1:
                    work[-1] = (node, nxt_i + 1)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if on_stack[nxt] and index[nxt] < low[node]:
                    low[node] = index[nxt]
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == node:
                        break
                comps.append(tuple(sorted(comp)))
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
    return comps


def _component_cyclicity(members: tuple, arc_set: set) -> Optional[int]:
    """gcd of circuit lengths inside one SCC, via BFS level differences."""
    inside = [(u, v) for (u, v) in arc_set if u in members and v in members]
    member_set = set(members)
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
    arc_set = {(u, v) for (u, v) in arcs}
    if nodes is None:
        node_list = list(range(k))
        for u, v in arc_set:
            if not (0 <= u < k and 0 <= v < k):
                raise ContractViolation(f"scc_from_arcs: arc ({u}, {v}) outside 0..{k - 1}")
    else:
        node_list = sorted(set(nodes))
        arc_set = {(u, v) for (u, v) in arc_set if u in node_list and v in node_list}
    remap = {n: i for i, n in enumerate(node_list)}
    adj = [[] for _ in node_list]
    for u, v in sorted(arc_set):
        adj[remap[u]].append(remap[v])
    comps_local = _tarjan(len(node_list), adj)
    comps = [tuple(node_list[i] for i in comp) for comp in comps_local]

    # Deterministic topological order over the condensation, min node id first.
    comp_of_local = {}
    for ci, comp in enumerate(comps):
        for n in comp:
            comp_of_local[n] = ci
    cond_arcs = set()
    indeg = [0] * len(comps)
    for u, v in arc_set:
        cu, cv = comp_of_local[u], comp_of_local[v]
        if cu != cv and (cu, cv) not in cond_arcs:
            cond_arcs.add((cu, cv))
            indeg[cv] += 1
    import heapq

    ready = [(comps[ci][0], ci) for ci in range(len(comps)) if indeg[ci] == 0]
    heapq.heapify(ready)
    order = []
    succs = {ci: [] for ci in range(len(comps))}
    for cu, cv in cond_arcs:
        succs[cu].append(cv)
    while ready:
        _key, ci = heapq.heappop(ready)
        order.append(ci)
        for cv in succs[ci]:
            indeg[cv] -= 1
            if indeg[cv] == 0:
                heapq.heappush(ready, (comps[cv][0], cv))
    new_index = {old: new for new, old in enumerate(order)}
    components = tuple(comps[old] for old in order)
    component_of_map = {}
    for new_ci, comp in enumerate(components):
        for n in comp:
            component_of_map[n] = new_ci
    component_of = tuple(component_of_map.get(n, -1) for n in range(k))
    condensation = tuple(
        sorted((new_index[cu], new_index[cv]) for cu, cv in cond_arcs)
    )
    cyclicities = tuple(
        _component_cyclicity(comp, arc_set) for comp in components
    )
    return SccDecomposition(components, component_of, condensation, cyclicities)


def scc_decompose(G: PrecedenceGraph) -> SccDecomposition:
    return scc_from_arcs(G.k, [(u, v) for u, v, _w in G.arcs])


def is_irreducible(A: Matrix) -> bool:
    """True iff the precedence graph is strongly connected."""
    return scc_decompose(graph_of(A)).count == 1


def graph_cyclicity(G: PrecedenceGraph) -> int:
    """lcm of the per-SCC circuit-length gcds; components without a circuit
    are excluded. Rejects a graph with no circuit at all."""
    dec = scc_decompose(G)
    result = 1
    seen = False
    for c in dec.cyclicities:
        if c is not None:
            result = result * c // math.gcd(result, c)
            seen = True
    if not seen:
        raise ContractViolation("graph_cyclicity: graph has no circuit")
    return result


def is_aperiodic(A: Matrix) -> bool:
    """Irreducible with graph cyclicity 1."""
    if not is_irreducible(A):
        return False
    return graph_cyclicity(graph_of(A)) == 1
