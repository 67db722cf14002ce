import random
from fractions import Fraction
from math import gcd

import networkx as nx
import pytest

from maxplus import graphs, spectral, stochastic
from maxplus.semiring import EPS, EXACT, ContractViolation, Matrix
from maxplus.graphs import (
    graph_cyclicity,
    graph_of,
    is_aperiodic,
    is_irreducible,
    scc_decompose,
    scc_from_arcs,
)

from conftest import nx_graph, random_matrix


def M(rows):
    return Matrix.make(rows, EXACT)


class TestArcConvention:
    def test_entry_j_i_means_arc_i_to_j(self):
        # A[1][0] finite: node 0 feeds node 1, valuation rides along
        A = M([[EPS, EPS], [5, EPS]])
        g = graph_of(A)
        pairs = [(s, d) for s, d, _w in g.arcs]
        assert pairs == [(0, 1)]
        assert g.arcs[0][2] == 5

    def test_self_loop_from_diagonal(self):
        g = graph_of(M([[3]]))
        assert [(s, d) for s, d, _w in g.arcs] == [(0, 0)]


class TestSccOracle:
    def test_matches_networkx_on_random_patterns(self):
        rng = random.Random(11)
        for _ in range(200):
            k = rng.randrange(1, 8)
            A = random_matrix(rng, k, rng.uniform(0.1, 0.9))
            dec = scc_decompose(graph_of(A))
            ours = sorted(sorted(c) for c in dec.components)
            theirs = sorted(sorted(c) for c in nx.strongly_connected_components(nx_graph(A)))
            assert ours == theirs

    def test_irreducibility_matches_networkx(self):
        rng = random.Random(12)
        seen = {True: 0, False: 0}
        for _ in range(200):
            k = rng.randrange(2, 7)
            A = random_matrix(rng, k, rng.uniform(0.2, 0.8))
            want = nx.is_strongly_connected(nx_graph(A))
            assert is_irreducible(A) == want
            seen[want] += 1
        assert seen[True] > 10 and seen[False] > 10

    def test_condensation_is_topologically_sorted(self):
        A = M([
            [0, EPS, EPS, EPS],
            [0, 0, EPS, EPS],
            [EPS, 0, 0, 0],
            [EPS, EPS, 0, 0],
        ])
        dec = scc_decompose(graph_of(A))
        order = {}
        for idx, comp in enumerate(dec.components):
            for node in comp:
                order[node] = idx
        for src, dst in dec.condensation_arcs:
            assert src < dst


class TestCyclicity:
    def test_single_loop(self):
        assert graph_cyclicity(graph_of(M([[1]]))) == 1

    def test_two_cycle(self):
        A = M([[EPS, 0], [0, EPS]])
        assert graph_cyclicity(graph_of(A)) == 2
        assert not is_aperiodic(A)

    def test_coprime_cycles_give_one(self):
        # cycles of lengths 2 and 3 through node 0
        A = M([
            [EPS, 0, 0],
            [0, EPS, EPS],
            [0, EPS, EPS],
        ])
        # arcs: 1->0, 2->0, 0->1, 0->2 -- every cycle has even length
        assert graph_cyclicity(graph_of(A)) == 2
        B = M([
            [0, 0, 0],
            [0, EPS, EPS],
            [EPS, 0, EPS],
        ])
        assert graph_cyclicity(graph_of(B)) == 1

    def test_gcd_per_component_lcm_across(self):
        # two disjoint cycles of lengths 2 and 3: lcm = 6
        A = M([
            [EPS, 0, EPS, EPS, EPS],
            [0, EPS, EPS, EPS, EPS],
            [EPS, EPS, EPS, EPS, 0],
            [EPS, EPS, 0, EPS, EPS],
            [EPS, EPS, EPS, 0, EPS],
        ])
        assert graph_cyclicity(graph_of(A)) == 6

    def test_matches_brute_force_on_random_irreducible(self):
        from math import gcd

        rng = random.Random(13)
        checked = 0
        while checked < 60:
            k = rng.randrange(2, 6)
            A = random_matrix(rng, k, rng.uniform(0.25, 0.7))
            G = nx_graph(A)
            if not nx.is_strongly_connected(G):
                continue
            want = 0
            for cyc in nx.simple_cycles(G):
                want = gcd(want, len(cyc))
            assert graph_cyclicity(graph_of(A)) == want
            checked += 1


class TestArcsConstructor:
    def test_explicit_arcs(self):
        dec = scc_from_arcs(3, [(0, 1), (1, 0), (1, 2)])
        assert sorted(sorted(c) for c in dec.components) == [[0, 1], [2]]

    def test_bad_node_rejected(self):
        with pytest.raises(ContractViolation):
            scc_from_arcs(2, [(0, 5)])

    def test_restriction_to_nodes_outside_range_rejected(self):
        with pytest.raises(ContractViolation):
            scc_from_arcs(2, [(0, 5), (5, 0)], nodes=[0, 5])
        with pytest.raises(ContractViolation):
            scc_from_arcs(2, [], nodes=[-1])


def random_arcs(rng: random.Random, k: int) -> list:
    p = rng.uniform(0.05, 0.5)
    return [(u, v) for u in range(k) for v in range(k) if rng.random() < p]


class TestClosureAgainstNetworkx:
    def test_decomposition_matches_networkx_exactly(self):
        # components in the condensation's topological order, ties broken by
        # least member; eigenbases and open-system reports list them so
        rng = random.Random(14)
        for trial in range(400):
            k = rng.randrange(1, 9)
            arcs = random_arcs(rng, k)
            nodes = None
            if trial % 2:
                nodes = rng.sample(range(k), rng.randrange(1, k + 1))
            G = nx.DiGraph()
            G.add_nodes_from(range(k) if nodes is None else nodes)
            G.add_edges_from((u, v) for u, v in arcs if u in G and v in G)
            C = nx.condensation(G)
            least = {c: min(C.nodes[c]["members"]) for c in C}
            order = list(nx.lexicographical_topological_sort(C, key=least.get))
            index = {c: i for i, c in enumerate(order)}
            dec = scc_from_arcs(k, arcs, nodes=nodes)
            assert dec.components == tuple(tuple(sorted(C.nodes[c]["members"])) for c in order)
            assert dec.component_of == tuple(
                index[C.graph["mapping"][n]] if n in G else -1 for n in range(k)
            )
            assert dec.condensation_arcs == tuple(sorted((index[a], index[b]) for a, b in C.edges))
            for comp, cyclicity in zip(dec.components, dec.cyclicities):
                want = 0
                for cycle in nx.simple_cycles(G.subgraph(comp)):
                    want = gcd(want, len(cycle))
                assert cyclicity == (want or None)

    def test_recurrent_letters_are_the_attracting_components(self):
        rng = random.Random(15)
        for _ in range(300):
            m = rng.randrange(1, 9)
            kernel = []
            for i in range(m):
                row = [rng.random() < 0.3 for _ in range(m)]
                row[rng.randrange(m)] = True
                kernel.append([Fraction(1, sum(row)) if x else Fraction(0) for x in row])
            G = nx.DiGraph()
            G.add_nodes_from(range(m))
            G.add_edges_from((i, j) for i in range(m) for j in range(m) if kernel[i][j] > 0)
            want = sorted(n for comp in nx.attracting_components(G) for n in comp)
            assert stochastic._recurrent_letters(kernel) == tuple(want)


def test_reachability_readers_make_no_decomposition(count_calls):
    # irreducibility and recurrence read the boolean closure; the spectral
    # record decomposes only its critical graph
    calls = count_calls(graphs, "scc_from_arcs", "scc_decompose")
    rng = random.Random(16)
    for _ in range(20):
        is_irreducible(random_matrix(rng, rng.randrange(1, 7), 0.5))
    stochastic._recurrent_letters([[0, 1, 0], [1, 0, 0], [0, Fraction(1, 2), Fraction(1, 2)]])
    with pytest.raises(ContractViolation):
        spectral._spectrum(M([[0, EPS], [0, 0]]))
    assert calls == {}
    spectral._spectrum(M([[0, 1], [1, 0]]))
    assert calls == {"scc_from_arcs": 1}
