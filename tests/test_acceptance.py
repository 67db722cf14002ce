"""End-to-end acceptance checks.

Each test prints one pass/fail line under pytest -v. Randomized checks use
fixed seeds; tolerances and corpus sizes are pinned, not tunable.
"""

import random
import time
from fractions import Fraction

import pytest

from maxplus.semiring import (
    EPS,
    EXACT,
    Matrix,
    Vector,
    mat_mul,
    mat_power,
    mat_vec,
    scale_matrix,
)
from maxplus.projective import canonicalize, is_rank_one, proj_diameter, proj_dist
from maxplus.spectral import (
    classify,
    cyclicity_and_transient,
    eigenbasis,
    eigenvalue,
    first_rank_one_power,
    normalize,
)
from maxplus.stochastic import (
    FiniteSupport,
    backward_loynes,
    forward_coupling,
    open_system_analysis,
    pattern_search,
    sample_sequence,
    simulate,
    structural_conditions,
)
from maxplus.models import (
    CjnSpec,
    JointServiceLaw,
    cjn_matrix,
    cjn_stability_condition,
    shared_uniform_diagonal,
)

from conftest import brute_max_cycle_mean, irreducible_corpus, random_matrix
from helpers import otimes_repeat


def M(rows, backing=EXACT):
    return Matrix.make(rows, backing)


def V(entries, backing=EXACT):
    return Vector.make(entries, backing)


@pytest.fixture(scope="module")
def corpus_500():
    return irreducible_corpus(500, seed=2024)


@pytest.fixture(scope="module")
def bottleneck_ring():
    return FiniteSupport.make(
        [cjn_matrix([2, 1, 1]), cjn_matrix([1, 1, 1])], ["1/2", "1/2"]
    )


RING_X0S = [
    [0, 0, 0],
    [5, 0, 0],
    [0, 7, 1],
    [2, 2, 9],
    [1, 4, 2],
]


def test_01_eigenvalue_matches_cycle_mean_oracle(corpus_500):
    """500 random irreducible rational matrices, k in 2..6: eigenvalue()
    equals the enumerated maximal cycle mean exactly, within 30 s."""
    start = time.monotonic()
    for A in corpus_500:
        assert eigenvalue(A) == brute_max_cycle_mean(A), A.rows
    elapsed = time.monotonic() - start
    assert elapsed <= 30.0, f"oracle sweep took {elapsed:.1f}s"


def test_02_power_periodicity_and_minimal_transient(corpus_500):
    """Same corpus: reported (cyclicity d, transient M) satisfy
    A^(M+d) = lam^d (x) A^M exactly, M is the least such power, and no
    shorter period works; within 60 s."""
    start = time.monotonic()
    for A in corpus_500:
        d, m = cyclicity_and_transient(A)
        lam = eigenvalue(A)
        Am = mat_power(A, m)
        assert mat_mul(mat_power(A, d), Am).rows == scale_matrix(otimes_repeat(lam, d), Am).rows
        if m > 1:
            prev = mat_power(A, m - 1)
            assert mat_mul(mat_power(A, d), prev).rows != scale_matrix(
                otimes_repeat(lam, d), prev
            ).rows
        for shorter in range(1, d):
            assert mat_mul(mat_power(A, shorter), Am).rows != scale_matrix(
                otimes_repeat(lam, shorter), Am
            ).rows
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"power sweep took {elapsed:.1f}s"


def test_03_two_node_fixture_eigenbasis_and_difference_law():
    """[[0,-1],[-1,0]]: eigenbasis is {(0,-1),(-1,0)}; starting from
    (lam, 1-lam) the coordinate difference stays 2*lam - 1 for n <= 50."""
    A = M([[0, -1], [-1, 0]])
    basis = [v.entries for v in eigenbasis(A)]
    assert basis == [(Fraction(0), Fraction(-1)), (Fraction(-1), Fraction(0))]
    D = FiniteSupport.make([A], [1])
    for lam in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        tr = simulate(D, V([lam, 1 - lam]), horizon=50, seed=0)
        for st in tr.states:
            assert st.entries[0] - st.entries[1] == 2 * lam - 1


def test_04_ring_classification_matches_bottleneck_count():
    """For every service vector sigma in {1,2,3}^3 and {1,2}^5, the ring
    matrix is scs1cyc1 exactly when the slowest service time is unique or
    shared by every queue."""
    import itertools

    def expected(sigma):
        top = max(sigma)
        hits = sum(1 for v in sigma if v == top)
        return hits in (1, len(sigma))

    for sigma in itertools.product((1, 2, 3), repeat=3):
        assert classify(cjn_matrix(sigma)).scs1cyc1 == expected(sigma), sigma
    for sigma in itertools.product((1, 2), repeat=5):
        assert classify(cjn_matrix(sigma)).scs1cyc1 == expected(sigma), sigma


def test_05a_ring_coupling_certified_in_every_replication(bottleneck_ring):
    """Ring with service draws {(2,1,1),(1,1,1)} each w.p. 1/2: from 5
    distinct starts, 1000/1000 replications strong-couple within horizon
    200 and each carries a recomputable exactly-rank-one window."""
    x0s = [V(e) for e in RING_X0S]
    rep = forward_coupling(
        bottleneck_ring, x0s, horizon=200, seed=17, replications=1000, threads=8
    )
    assert len(rep.samples) == 1000
    for smp in rep.samples:
        assert smp.merge_time is not None, f"replication {smp.replication} never merged"
        q = smp.window_start + smp.window_length
        assert smp.merge_time <= q <= 200
        mats = sample_sequence(bottleneck_ring, seed=17, n=q, replication=smp.replication)
        prod = mats[smp.window_start]
        for Ai in mats[smp.window_start + 1 : q]:
            prod = mat_mul(Ai, prod)
        assert is_rank_one(prod), f"replication {smp.replication} window not rank-one"


def test_05b_cyclic_shift_support_has_a_length_four_pattern():
    """Ring with the three cyclic shifts of (2,2,1), each w.p. 1/3: the
    closed-form coupling condition fails, yet the search finds the rank-one
    word (0,0,1,0) of length 4 with probability 1/81, and its product,
    formed here with plain Python ints, has every column a shift of the
    first. (A published claim says no such word of length <= 12 exists; the
    brute-force test_cyclic_shift_words_by_brute_force finds the same word.)"""
    spec = CjnSpec(
        queues=3,
        customers=3,
        law=JointServiceLaw.make([(2, 2, 1), (1, 2, 2), (2, 1, 2)], ["1/3", "1/3", "1/3"]),
    )
    ok, witness = cjn_stability_condition(spec)
    assert not ok and witness is None
    D = FiniteSupport.make(
        [cjn_matrix([2, 2, 1]), cjn_matrix([1, 2, 2]), cjn_matrix([2, 1, 2])],
        ["1/3", "1/3", "1/3"],
    )
    report = pattern_search(D, max_len=12)
    assert (report.found, report.word, report.length) == (True, (0, 0, 1, 0), 4)
    assert report.probability == Fraction(1, 81)

    def times(A, B):  # A otimes B, eps as None
        return [[max((a + b for a, b in zip(row, col) if a is not None and b is not None),
                     default=None) for col in zip(*B)] for row in A]

    ints = [[[None if v is EPS else int(v) for v in row] for row in A.rows] for A in D.matrices]
    P = ints[0]
    for letter in (0, 1, 0):
        P = times(ints[letter], P)
    assert P == [[8, 8, 8], [8, 8, 8], [7, 7, 7]]
    assert report.matrix.rows == tuple(map(tuple, P))
    first = [row[0] for row in P]
    assert all(len({r[j] - f for r, f in zip(P, first)}) == 1 for j in range(3))


def test_06_uniform_diagonal_distance_law():
    """Shared uniform diagonal model on 2 nodes: the projective distance
    from x(n, (y,0)) to the origin class equals the running minimum of the
    uniform draws, within 1e-12, for y in {1,5}, n <= 10^4, 20 seeds."""
    gen = shared_uniform_diagonal(2)
    origin = canonicalize(V([0.0, 0.0], "float")).as_vector()
    horizon = 10_000
    for y in (1.0, 5.0):
        for seed in range(20):
            tr = simulate(gen, V([y, 0.0], "float"), horizon=horizon, seed=seed)
            us = [m.entry(0, 0) for m in sample_sequence(gen, seed=seed, n=horizon)]
            running = float("inf")
            for n in range(1, horizon + 1):
                running = min(running, us[n - 1])
                want = min(y, running)
                got = proj_dist(tr.projective[n], origin)
                assert abs(got - want) < 1e-12, (y, seed, n, got, want)


def test_07_slow_merge_threshold_with_heuristic_bound():
    """Two-node matrix with off-diagonal slack 1/4: powers first become
    rank-one at n = 8. The coarse 1/slack heuristic predicts only n > 4;
    both numbers are part of the record."""
    eta = Fraction(1, 4)
    A = M([[1 - eta, 0], [0, 1]])
    measured = first_rank_one_power(A)
    heuristic = int(1 / eta)
    assert measured == 8
    assert measured > heuristic, (measured, heuristic)
    Abar = normalize(A)[0]
    assert is_rank_one(mat_power(Abar, measured))
    assert not is_rank_one(mat_power(Abar, measured - 1))
    print(f"\nmeasured rank-one threshold n = {measured}; 1/slack heuristic gives n > {heuristic}")


def test_08_backward_limit_consistent_with_forward_coupling(bottleneck_ring):
    """100 seeds: the backward scheme at tolerance 0 terminates, and its
    limit class, driven forward along the same draws, coincides with the
    coupled forward trajectory from the certified window end onward."""
    x0s = [V(e) for e in RING_X0S]
    for seed in range(100):
        back = backward_loynes(bottleneck_ring, tolerance=0, budget=4000, seed=seed)
        assert back.converged, f"seed {seed} did not converge"
        fwd = forward_coupling(bottleneck_ring, x0s, horizon=300, seed=seed, replications=1)
        smp = fwd.samples[0]
        assert smp.merge_time is not None and smp.window_start is not None
        q = smp.window_start + smp.window_length
        steps = q + 10
        mats = sample_sequence(bottleneck_ring, seed=seed, n=steps)
        z = back.limit_class.as_vector()
        x = x0s[0]
        for n in range(steps):
            z = mat_vec(mats[n], z)
            x = mat_vec(mats[n], x)
            if n + 1 >= q:
                assert canonicalize(z).entries == canonicalize(x).entries, (seed, n + 1)


def test_09_projective_contraction_properties():
    """10^4 random exact triples (A, u, v): d(Au, Av) <= d(u, v) with zero
    violations; 10^3 fully finite pairs: D(AB) <= min(D(A), D(B))."""
    rng = random.Random(99)

    def rand_vec(k):
        return V([Fraction(rng.randrange(-20, 21), rng.randrange(1, 4)) for _ in range(k)])

    for _ in range(10_000):
        k = rng.randrange(2, 5)
        A = random_matrix(rng, k, rng.uniform(0.4, 1.0))
        if any(all(v is EPS for v in row) for row in A.rows):
            continue
        u, v = rand_vec(k), rand_vec(k)
        assert proj_dist(mat_vec(A, u), mat_vec(A, v)) <= proj_dist(u, v)

    for _ in range(1_000):
        k = rng.randrange(2, 5)
        A = random_matrix(rng, k, 1.0)
        B = random_matrix(rng, k, 1.0)
        assert proj_diameter(mat_mul(A, B)) <= min(proj_diameter(A), proj_diameter(B))


def test_10_two_block_node_limits_and_verdicts():
    """Deterministic [[1,eps],[0,2]]: per-node growth limits (1, 2) within
    1e-6 at horizon 10^4 and the diverging verdict; [[1,eps],[0,1/2]]:
    limits (1, 1) and the unique-regime verdict."""
    D_fast_sink = FiniteSupport.make([M([[1, EPS], [0, 2]])], [1])
    rep = open_system_analysis(D_fast_sink, horizon=10_000, replications=3, seed=0)
    lims = [float(v) for v in rep.node_limits]
    assert abs(lims[0] - 1.0) <= 1e-6 and abs(lims[1] - 2.0) <= 1e-6, lims
    assert rep.two_block == "differences diverge"

    D_slow_sink = FiniteSupport.make([M([[1, EPS], [0, "1/2"]])], [1])
    rep2 = open_system_analysis(D_slow_sink, horizon=10_000, replications=3, seed=0)
    lims2 = [float(v) for v in rep2.node_limits]
    assert abs(lims2[0] - 1.0) <= 1e-6 and abs(lims2[1] - 1.0) <= 1e-6, lims2
    assert rep2.two_block == "unique stationary regime for differences"


def test_11_condition_ii_markov_vs_iid():
    """The two-matrix support whose markov kernel forces strict alternation
    fails condition II; the same support sampled iid satisfies it with a
    witness word of length 2."""
    A = M([[EPS, 0], [0, 1]])
    B = M([[0, 0], [1, EPS]])
    markov = FiniteSupport.make([A, B], ["1/2", "1/2"], kernel=[[0, 1], [1, 0]])
    rep = structural_conditions(markov)
    assert rep.condition_i is True
    assert rep.condition_ii is False
    assert rep.status == "saturated"

    iid = FiniteSupport.make([A, B], ["1/2", "1/2"])
    rep2 = structural_conditions(iid)
    assert rep2.condition_ii is True
    assert len(rep2.witness) == 2
