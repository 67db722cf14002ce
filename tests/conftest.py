"""Shared corpus builders and brute-force oracles.

The oracles deliberately take the slow road (enumerate every simple cycle,
every column pair) so library results can be checked against an
independent computation.
"""

import random
import sys
from collections import Counter
from fractions import Fraction

import networkx as nx
import pytest

from maxplus import spectral
from maxplus.semiring import EPS, EXACT, Matrix
from maxplus.graphs import is_irreducible
from reference_kernel import int_stack, scale_to_integers


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(-12, 13), rng.randrange(1, 5))


def random_matrix(rng: random.Random, k: int, density: float) -> Matrix:
    rows = [
        [random_rational(rng) if rng.random() < density else EPS for _ in range(k)]
        for _ in range(k)
    ]
    return Matrix.make(rows, EXACT)


def random_irreducible(rng: random.Random, k: int) -> Matrix:
    while True:
        A = random_matrix(rng, k, rng.uniform(0.3, 0.9))
        if is_irreducible(A):
            return A


def irreducible_corpus(count: int, seed: int = 2024) -> list:
    rng = random.Random(seed)
    return [random_irreducible(rng, rng.randrange(2, 7)) for _ in range(count)]


def nx_graph(A: Matrix) -> nx.DiGraph:
    # arc i -> j iff A[j][i] is finite, weighted by that entry
    G = nx.DiGraph()
    G.add_nodes_from(range(A.k))
    for j in range(A.k):
        for i in range(A.k):
            w = A.entry(j, i)
            if w is not None:
                G.add_edge(i, j, weight=w)
    return G


def brute_max_cycle_mean(A: Matrix):
    """Maximum mean weight over every simple cycle, or None if acyclic."""
    G = nx_graph(A)
    best = None
    for cyc in nx.simple_cycles(G):
        total = sum(G[cyc[t]][cyc[(t + 1) % len(cyc)]]["weight"] for t in range(len(cyc)))
        mean = Fraction(total, len(cyc))
        if best is None or mean > best:
            best = mean
    return best


def level_flags(mats, reach=1):
    """spectral._scs1cyc1_flags of the exact matrices mats, scaled to
    integers and stacked as one level of a walk whose values stay within
    reach times their largest magnitude; returns (flags, stack dtype)."""
    _, ints, _ = scale_to_integers(mats)
    stack, eps, _ = int_stack(ints, reach)
    return spectral._scs1cyc1_flags(stack, eps), stack.dtype


@pytest.fixture(scope="session")
def small_corpus():
    return irreducible_corpus(100, seed=7)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, *names) -> a Counter of the calls, by name, to the
    named functions of module while the test runs. Every maxplus module that
    binds the same function object counts too, so a call is counted however
    the caller imported it."""

    def install(module, *names):
        counts = Counter()
        for name in names:
            fn = getattr(module, name)

            def counting(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            for key, mod in list(sys.modules.items()):
                if key.split(".")[0] == "maxplus" and getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, counting)
        return counts

    return install
