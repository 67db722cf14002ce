import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import ks_2samp

import reference_stochastic as reference

from maxplus.semiring import (
    EPS,
    EXACT,
    FLOAT,
    ContractViolation,
    Matrix,
    Vector,
    mat_mul,
    mat_vec,
)
from maxplus.projective import canonicalize, is_rank_one, proj_dist
from maxplus.spectral import eigenbasis
from maxplus import projective, semiring, spectral, stochastic
from maxplus.stochastic import (
    CouplingSample,
    FiniteSupport,
    GeneratorDistribution,
    StabilityOptions,
    backward_loynes,
    distribution_from_json,
    distribution_to_json,
    forward_coupling,
    lyapunov_estimate,
    open_system_analysis,
    pattern_search,
    sample_sequence,
    simulate,
    stability_verdict,
    stationary_distribution,
    structural_conditions,
    word_probability,
    word_product,
)
from maxplus.models import (
    CjnSpec,
    UniformServiceLaw,
    cjn_distribution,
    cjn_matrix,
    independent_uniform_diagonal,
    shared_uniform_diagonal,
)


def M(rows, backing=EXACT):
    return Matrix.make(rows, backing)


def V(entries, backing=EXACT):
    return Vector.make(entries, backing)


@pytest.fixture(scope="module")
def good_cjn():
    return FiniteSupport.make(
        [cjn_matrix([2, 1, 1]), cjn_matrix([1, 1, 1])], ["1/2", "1/2"]
    )


@pytest.fixture(scope="module")
def alternating():
    A = M([[EPS, 0], [0, 1]])
    B = M([[0, 0], [1, EPS]])
    return FiniteSupport.make([A, B], ["1/2", "1/2"], kernel=[[0, 1], [1, 0]])


class TestSampling:
    def test_same_seed_same_sequence(self):
        D = FiniteSupport.make(
            [M([[0, EPS], [0, 0]]), M([[1, 0], [EPS, 1]])], ["1/2", "1/2"]
        )
        s1 = sample_sequence(D, seed=42, n=20)
        s2 = sample_sequence(D, seed=42, n=20)
        assert all(a.rows == b.rows for a, b in zip(s1, s2))
        s3 = sample_sequence(D, seed=43, n=20)
        assert any(a.rows != b.rows for a, b in zip(s1, s3))

    def test_replications_are_independent_streams(self):
        D = FiniteSupport.make(
            [M([[0, EPS], [0, 0]]), M([[1, 0], [EPS, 1]])], ["1/2", "1/2"]
        )
        a = sample_sequence(D, seed=4, n=30, replication=0)
        b = sample_sequence(D, seed=4, n=30, replication=1)
        assert any(x.rows != y.rows for x, y in zip(a, b))

    def test_negative_seed_rejected(self):
        D = FiniteSupport.make([M([[0]])], [1])
        with pytest.raises(ContractViolation):
            sample_sequence(D, seed=-1, n=1)

    def test_markov_kernel_alternates(self, alternating):
        seq = sample_sequence(alternating, seed=5, n=10)
        idx = [0 if m.entry(0, 0) is EPS else 1 for m in seq]
        assert all(a != b for a, b in zip(idx, idx[1:]))

    def test_stationary_of_swap_kernel(self):
        pi = stationary_distribution([[0, 1], [1, 0]])
        assert abs(pi[0] - 0.5) < 1e-12 and abs(pi[1] - 0.5) < 1e-12


class TestSimulate:
    def test_constant_difference_two_node_fixture(self):
        D = FiniteSupport.make([M([[0, -1], [-1, 0]])], [1])
        for lam in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            tr = simulate(D, V([lam, 1 - lam]), horizon=50, seed=0)
            for st in tr.states:
                assert st.entries[0] - st.entries[1] == 2 * lam - 1

    def test_unit_ring_grows_linearly(self):
        D = FiniteSupport.make([cjn_matrix([1, 1, 1])], [1])
        tr = simulate(D, V([0, 0, 0]), horizon=10, seed=0)
        for n, st in zip(tr.sample_times, tr.states):
            assert st.entries == (Fraction(n),) * 3
        assert tr.increments == ((Fraction(1),) * 3,) * 10

    def test_thinning_keeps_endpoints(self, good_cjn):
        tr = simulate(good_cjn, V([0, 0, 0]), horizon=10, seed=1, thin=4)
        assert tr.sample_times[0] == 0 and tr.sample_times[-1] == 10

    def test_row_without_finite_entry_rejected(self):
        D = FiniteSupport.make([M([[EPS, EPS], [0, 0]])], [1])
        with pytest.raises(ContractViolation) as err:
            simulate(D, V([0, 0]), horizon=3, seed=0)
        assert "row 0" in str(err.value)


class TestLyapunov:
    def test_deterministic_rate_is_exact(self):
        D = FiniteSupport.make([cjn_matrix([1, 2, 3])], [1])
        est = lyapunov_estimate(D, horizon=500, replications=2, seed=1)
        assert float(est.point) == 3.0
        assert est.ci_low <= 3.0 <= est.ci_high

    def test_identity_support_rate_zero(self):
        est = lyapunov_estimate(
            FiniteSupport.make([Matrix.identity(3, EXACT)], [1]), 50, 2, 0
        )
        assert est.point == 0

    def test_negative_rate_keeps_its_sign(self):
        # eigenvalue -1: the self-loops beat the circuit of mean -5/2
        D = FiniteSupport.make([M([[-1, -2], [-3, -1]])], [1])
        est = lyapunov_estimate(D, horizon=40, replications=2, seed=0)
        assert est.point == -1
        assert est.per_replication == (-1, -1)

    def test_thread_count_does_not_change_output(self, good_cjn):
        e1 = lyapunov_estimate(good_cjn, 200, 6, seed=9, threads=1)
        e2 = lyapunov_estimate(good_cjn, 200, 6, seed=9, threads=3)
        assert e1.per_replication == e2.per_replication
        assert (e1.point, e1.ci_low, e1.ci_high) == (e2.point, e2.ci_low, e2.ci_high)


X0S = [
    [0, 0, 0],
    [5, 0, 0],
    [0, 7, 1],
    [2, 2, 9],
    [1, 4, 2],
]


class TestCoupling:
    def test_strong_coupling_with_recomputable_window(self, good_cjn):
        x0s = [V(e) for e in X0S]
        rep = forward_coupling(good_cjn, x0s, horizon=200, seed=3, replications=20, threads=4)
        assert rep.modes == ("strong", "eta")
        for smp in rep.samples:
            assert smp.merge_time is not None
            q = smp.window_start + smp.window_length
            assert smp.merge_time <= q <= 200
            mats = sample_sequence(good_cjn, seed=3, n=q, replication=smp.replication)
            prod = mats[smp.window_start]
            for Ai in mats[smp.window_start + 1 : q]:
                prod = mat_mul(Ai, prod)
            assert is_rank_one(prod)
            assert smp.eta_time is not None and smp.eta_time <= smp.merge_time

    def test_rank_one_singleton_couples_at_one(self):
        D = FiniteSupport.make([M([[0, 0], [0, 0]])], [1])
        rep = forward_coupling(D, [V([0, 5]), V([3, 0])], horizon=4, seed=0)
        smp = rep.samples[0]
        assert (smp.merge_time, smp.window_start, smp.window_length) == (1, 0, 1)

    def test_eta_threshold_is_compared_exactly(self):
        # the float 1/3 lies just below 1/3, so a distance of exactly 1/3 exceeds it
        D = FiniteSupport.make([Matrix.identity(2, EXACT)], [1])
        x0s = [V(["1/3", 0]), V([0, 0])]
        assert forward_coupling(D, x0s, horizon=3, eta=1 / 3).samples[0].eta_time is None
        assert forward_coupling(D, x0s, horizon=3, eta=Fraction(1, 3)).samples[0].eta_time == 0

    def test_thread_count_does_not_change_samples(self, good_cjn):
        x0s = [V(e) for e in X0S]
        a = forward_coupling(good_cjn, x0s, horizon=100, seed=3, replications=8, threads=1)
        b = forward_coupling(good_cjn, x0s, horizon=100, seed=3, replications=8, threads=8)
        assert a.samples == b.samples

    def test_float_backing_reports_eta_only(self):
        gen = shared_uniform_diagonal(2)
        rep = forward_coupling(
            gen,
            [V([1.0, 0.0], FLOAT), V([0.0, 0.0], FLOAT)],
            horizon=500,
            eta=0.05,
            seed=2,
            replications=3,
        )
        assert rep.modes == ("eta",)
        for smp in rep.samples:
            assert smp.merge_time is None and smp.window_start is None
            assert smp.eta_time is not None
            us = [
                m.entry(0, 0)
                for m in sample_sequence(gen, seed=2, n=smp.eta_time, replication=smp.replication)
            ]
            assert min(us) <= 0.05
            assert smp.eta_time == 1 or min(us[:-1]) > 0.05

    def test_single_initial_condition_rejected(self, good_cjn):
        with pytest.raises(ContractViolation):
            forward_coupling(good_cjn, [V([0, 0, 0])], horizon=5, seed=0)

    def test_eta_must_be_a_number_at_least_zero(self, good_cjn):
        x0s = [V(e) for e in X0S]
        for eta in (-1e-6, float("nan")):
            with pytest.raises(ContractViolation):
                forward_coupling(good_cjn, x0s, horizon=5, eta=eta, seed=0)
        rep = forward_coupling(good_cjn, x0s, horizon=5, eta=float("inf"), seed=0)
        assert rep.samples[0].eta_time == 0


class TestUniformDiagonalLaw:
    def test_distance_to_origin_is_running_minimum(self):
        gen = shared_uniform_diagonal(2)
        target = canonicalize(V([0.0, 0.0], FLOAT))
        for y in (1.0, 5.0):
            for seed in (0, 7):
                tr = simulate(gen, V([y, 0.0], FLOAT), horizon=200, seed=seed)
                us = [m.entry(0, 0) for m in sample_sequence(gen, seed=seed, n=200)]
                for n in range(201):
                    want = y if n == 0 else min(y, min(us[:n]))
                    got = proj_dist(tr.states[n], target.as_vector())
                    assert abs(got - want) < 1e-12


class TestBackward:
    def test_rank_one_singleton_stops_at_one(self):
        D = FiniteSupport.make([M([[0, 0], [0, 0]])], [1])
        res = backward_loynes(D, tolerance=0, budget=10, seed=0)
        assert res.converged and res.steps == 1 and res.achieved_diameter == 0

    def test_deterministic_limit_is_the_eigenvector_class(self):
        A = cjn_matrix([1, 2, 3])
        res = backward_loynes(FiniteSupport.make([A], [1]), tolerance=0, budget=64, seed=0)
        assert res.converged
        assert res.limit_class.entries == eigenbasis(A)[0].entries

    def test_tolerance_zero_needs_exact_backing(self):
        gen = shared_uniform_diagonal(2)
        with pytest.raises(ContractViolation):
            backward_loynes(gen, tolerance=0, budget=10, seed=0)

    def test_float_tolerance_run_converges_with_monotone_trace(self):
        gen = shared_uniform_diagonal(2)
        res = backward_loynes(gen, tolerance=1e-3, budget=20000, seed=11)
        assert res.converged
        assert max(abs(float(v)) for v in res.limit_class.entries) <= 1e-3 + 1e-12
        diams = [d for _, d in res.trace]
        assert all(a >= b - 1e-12 for a, b in zip(diams, diams[1:]))

    def test_budget_exhaustion_returns_partial(self, alternating):
        res = backward_loynes(alternating, tolerance=0, budget=5, seed=0)
        assert not res.converged and res.steps == 5
        assert res.limit_class is None

    def test_backward_forward_consistency(self, good_cjn):
        x0s = [V(e) for e in X0S]
        for seed in range(10):
            back = backward_loynes(good_cjn, tolerance=0, budget=4000, seed=seed)
            assert back.converged
            fwd = forward_coupling(good_cjn, x0s, horizon=300, seed=seed, replications=1)
            smp = fwd.samples[0]
            q = smp.window_start + smp.window_length
            mats = sample_sequence(good_cjn, seed=seed, n=q)
            z = back.limit_class.as_vector()
            x = x0s[0]
            for n in range(q):
                z = mat_vec(mats[n], z)
                x = mat_vec(mats[n], x)
            assert canonicalize(z).entries == canonicalize(x).entries


class TestPatternSearch:
    def test_finds_rank_one_word_with_exact_probability(self, good_cjn):
        rep = pattern_search(good_cjn, max_len=8)
        assert rep.found and rep.status == "found"
        assert is_rank_one(rep.matrix)
        assert rep.matrix.rows == word_product(good_cjn, rep.word).rows
        assert rep.probability == word_probability(good_cjn, rep.word)
        assert rep.probability == Fraction(1, 2 ** rep.length)
        assert rep.classification == "rank-one+scs1cyc1"

    def test_cyclic_shift_support_has_short_rank_one_word(self):
        D = FiniteSupport.make(
            [cjn_matrix([2, 2, 1]), cjn_matrix([1, 2, 2]), cjn_matrix([2, 1, 2])],
            ["1/3", "1/3", "1/3"],
        )
        rep = pattern_search(D, max_len=12)
        assert rep.found and rep.length == 4
        assert is_rank_one(word_product(D, rep.word))
        assert rep.probability == Fraction(1, 81)

    def test_slow_merge_pair_needs_length_eight(self):
        eta = Fraction(1, 4)
        A = M([[1 - eta, 0], [0, 1]])
        B = M([[1, 0], [0, 1 - eta]])
        D = FiniteSupport.make([A, B], ["1/2", "1/2"])
        rep = pattern_search(D, max_len=10)
        assert rep.found and rep.length == 8

    def test_markov_alternation_saturates_without_pattern(self):
        eta = Fraction(1, 4)
        A = M([[1 - eta, 0], [0, 1]])
        B = M([[1, 0], [0, 1 - eta]])
        D = FiniteSupport.make([A, B], ["1/2", "1/2"], kernel=[[0, 1], [1, 0]])
        rep = pattern_search(D, max_len=40)
        assert not rep.found and rep.status == "saturated"

    def test_max_len_cutoff_reported(self, alternating):
        rep = pattern_search(alternating, max_len=1)
        assert not rep.found and rep.status == "truncated"


class TestStructuralConditions:
    def test_alternating_markov_fails_condition_ii(self, alternating):
        rep = structural_conditions(alternating)
        assert rep.condition_i is True
        assert rep.condition_ii is False
        assert rep.status == "saturated"

    def test_same_support_iid_satisfies_condition_ii(self):
        D = FiniteSupport.make(
            [M([[EPS, 0], [0, 1]]), M([[0, 0], [1, EPS]])], ["1/2", "1/2"]
        )
        rep = structural_conditions(D)
        assert rep.condition_ii is True
        assert list(rep.witness) == [0, 0]
        assert word_product(D, rep.witness).all_finite()

    def test_condition_i_violation_reported(self):
        D = FiniteSupport.make([M([[EPS, EPS], [0, 0]])], [1])
        rep = structural_conditions(D)
        assert rep.condition_i is False
        assert rep.offending == (0, 0)  # (support index, row)


class TestStabilityVerdicts:
    def test_iid_rank_one_pattern_gives_strong(self, good_cjn):
        v = stability_verdict(good_cjn, StabilityOptions(seed=0))
        assert v.verdict == "StableStrong"
        assert v.basis == "positive-probability-rank-one-pattern"
        word = v.certificate["word"]
        assert is_rank_one(word_product(good_cjn, word))

    def test_rank_one_singleton_certificate_length_one(self):
        D = FiniteSupport.make([M([[0, 0], [0, 0]])], [1])
        v = stability_verdict(D, StabilityOptions(seed=0))
        assert v.verdict == "StableStrong" and v.certificate["length"] == 1

    def test_float_generator_falls_back_to_monte_carlo(self):
        gen = shared_uniform_diagonal(2)
        v = stability_verdict(gen, StabilityOptions(seed=0, eta=1e-2, mc_seeds=10, mc_budget=3000))
        assert v.verdict == "StableWeak"
        assert v.basis == "backward-diameter-evidence"
        assert v.certificate["successes"] / v.certificate["seeds"] >= 0.95
        assert all(d <= 1e-2 for d in v.certificate["diameters"])

    def test_condition_ii_failure_is_inconclusive(self, alternating):
        v = stability_verdict(alternating, StabilityOptions(seed=0))
        assert v.verdict == "Inconclusive"
        assert v.basis == "condition-ii-fails"
        assert any("open-system" in n for n in v.notes)

    def test_saturation_without_pattern_is_unstable(self):
        # all-finite period-two matrix: products cycle between two projective
        # classes, neither rank-one, so the semigroup saturates
        D = FiniteSupport.make([M([[0, 1], [1, 0]])], [1])
        v = stability_verdict(D, StabilityOptions(seed=0))
        assert v.verdict == "UnstableCertified"
        assert v.basis == "pattern-semigroup-saturated-without-rank-one"

    def test_eps_swap_singleton_fails_condition_ii_first(self):
        # no product of the pure swap is ever all-finite, so the ladder
        # stops at the structural check rather than certifying instability
        D = FiniteSupport.make([M([[EPS, 0], [0, EPS]])], [1])
        v = stability_verdict(D, StabilityOptions(seed=0))
        assert v.verdict == "Inconclusive" and v.basis == "condition-ii-fails"


class TestOpenSystem:
    def test_diverging_two_block(self):
        D = FiniteSupport.make([M([[1, EPS], [0, 2]])], [1])
        rep = open_system_analysis(D, horizon=2000, replications=2, seed=0)
        lims = [float(v) for v in rep.node_limits]
        assert abs(lims[0] - 1) < 1e-6 and abs(lims[1] - 2) < 1e-6
        assert rep.two_block == "differences diverge"

    def test_stable_two_block(self):
        D = FiniteSupport.make([M([[1, EPS], [0, "1/2"]])], [1])
        rep = open_system_analysis(D, horizon=2000, replications=2, seed=0)
        lims = [float(v) for v in rep.node_limits]
        assert abs(lims[0] - 1) < 1e-6 and abs(lims[1] - 1) < 1e-6
        assert rep.two_block == "unique stationary regime for differences"

    def test_irreducible_model_reduces_to_growth_rate(self):
        D = FiniteSupport.make([cjn_matrix([1, 2, 3])], [1])
        rep = open_system_analysis(D, horizon=300, replications=2, seed=0)
        assert len(rep.components) == 1 and rep.two_block is None
        assert abs(float(rep.node_limits[0]) - 3) < 1e-9

    def test_mixed_eps_patterns_rejected(self):
        D = FiniteSupport.make(
            [M([[0, EPS], [0, 0]]), M([[0, 0], [0, 0]])], ["1/2", "1/2"]
        )
        with pytest.raises(ContractViolation):
            open_system_analysis(D, horizon=10, replications=1, seed=0)


class TestDistributionJson:
    def test_finite_round_trip(self, good_cjn):
        D = distribution_from_json(distribution_to_json(good_cjn))
        assert D.matrices[0].rows == good_cjn.matrices[0].rows
        assert D.probabilities == good_cjn.probabilities

    def test_markov_round_trip_keeps_kernel(self, alternating):
        D = distribution_from_json(distribution_to_json(alternating))
        assert D.kernel == alternating.kernel

    def test_generator_round_trip_replays(self):
        gen = shared_uniform_diagonal(2)
        rt = distribution_from_json(distribution_to_json(gen))
        assert isinstance(rt, GeneratorDistribution)
        assert sample_sequence(rt, 4, 3)[0].rows == sample_sequence(gen, 4, 3)[0].rows

    def test_backing_required_for_finite(self):
        obj = {"kind": "finite", "k": 1, "support": [{"matrix": {"k": 1, "entries": [[0]]}, "probability": 1}]}
        with pytest.raises(ContractViolation):
            distribution_from_json(obj)

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ContractViolation):
            FiniteSupport.make([M([[0]]), M([[1]])], ["1/2", "1/3"])


class TestIncrementStationarity:
    """Once trajectories from different starts have merged projectively, the
    law of the increments z(n) = x(n) - x(n-1) forgets the start; before the
    merge it plainly does not."""

    START_A = (0, 0, 0)
    START_B = (0, 9, 0)
    SEED_A, SEED_B = 11, 12
    N_STAR = 40
    REPS = 200

    def _sample(self, D, start, seed, n, coord):
        x0 = V(list(start))
        return [
            float(simulate(D, x0, horizon=n, seed=seed, replication=r).increments[n - 1][coord])
            for r in range(self.REPS)
        ]

    def test_merges_happen_well_before_the_comparison_point(self, good_cjn):
        report = forward_coupling(
            good_cjn,
            [V(list(self.START_A)), V(list(self.START_B))],
            horizon=self.N_STAR,
            seed=5,
            replications=100,
        )
        times = report.merge_times()
        assert all(t is not None for t in times)
        assert max(times) < self.N_STAR

    def test_increment_law_is_start_independent_after_merge(self, good_cjn):
        for coord in range(3):
            a = self._sample(good_cjn, self.START_A, self.SEED_A, self.N_STAR, coord)
            b = self._sample(good_cjn, self.START_B, self.SEED_B, self.N_STAR, coord)
            assert ks_2samp(a, b).pvalue > 0.01, coord

    def test_increment_law_remembers_the_start_at_step_one(self, good_cjn):
        a = self._sample(good_cjn, self.START_A, self.SEED_A, 1, 2)
        b = self._sample(good_cjn, self.START_B, self.SEED_B, 1, 2)
        assert ks_2samp(a, b).pvalue < 0.01


# ---------------------------------------------------------------------------
# The integer-scaled exact routines against the Fraction reference


RATIONAL = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 6))


@st.composite
def rational_supports(draw):
    """Row-finite rational supports: k <= 4, 1-3 letters, denominators <= 6,
    iid or under a random Markov kernel."""
    k = draw(st.integers(1, 4))
    size = draw(st.integers(1, 3))
    mats = []
    for _ in range(size):
        rows = []
        for _ in range(k):
            row = [draw(st.one_of(st.none(), RATIONAL)) for _ in range(k)]
            if all(v is None for v in row):
                row[draw(st.integers(0, k - 1))] = draw(RATIONAL)
            rows.append(row)
        mats.append(M(rows))
    weights = [draw(st.integers(1, 4)) for _ in range(size)]
    probs = [Fraction(w, sum(weights)) for w in weights]
    kernel = None
    if draw(st.booleans()):
        kernel = []
        for i in range(size):
            row = [draw(st.integers(0, 3)) for _ in range(size)]
            if not any(row):
                row[draw(st.integers(0, size - 1))] = 1
            kernel.append([Fraction(w, sum(row)) for w in row])
    return FiniteSupport.make(mats, probs, kernel)


def rational_vectors(k, count):
    return st.lists(
        st.lists(RATIONAL, min_size=k, max_size=k).map(V), min_size=count, max_size=count
    )


def same_json(a, b) -> bool:
    """Byte equality of two reports: 0 and 0.0 compare equal as objects."""
    return json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


def scaled_support(D, c):
    return FiniteSupport.make(
        [M([[EPS if v is EPS else c * v for v in row] for row in A.rows]) for A in D.matrices],
        D.probabilities,
        D.kernel,
    )


class TestIntegerScaledRoutines:
    @settings(max_examples=60, deadline=None)
    @given(rational_supports(), st.integers(1, 6))
    def test_pattern_search_matches_reference(self, D, max_len):
        got = pattern_search(D, max_len=max_len, budget=200)
        assert same_json(got, reference.pattern_search(D, max_len, 200))

    @settings(max_examples=40, deadline=None)
    @given(
        rational_supports().flatmap(
            lambda D: st.tuples(st.just(D), rational_vectors(D.k, 3))
        ),
        st.one_of(
            st.sampled_from([0, 1e-6, 1 / 3]),
            st.builds(Fraction, st.integers(0, 12), st.integers(1, 6)),
            st.floats(0, 4),
        ),
        st.integers(0, 50),
    )
    def test_forward_coupling_matches_reference(self, model, eta, seed):
        D, x0s = model
        rep = forward_coupling(D, x0s, horizon=20, eta=eta, seed=seed, replications=2)
        assert rep.samples == tuple(
            reference._couple_one(D, tuple(x0s), 20, eta, seed, r, True) for r in range(2)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        rational_supports(),
        st.sampled_from([0, Fraction(1, 2), Fraction(7, 3)]),
        st.integers(0, 3),
        st.integers(0, 50),
    )
    def test_backward_loynes_matches_reference(self, D, tolerance, trace_every, seed):
        args = dict(tolerance=tolerance, budget=25, seed=seed, trace_every=trace_every)
        assert same_json(backward_loynes(D, **args), reference.backward_loynes(D, **args))

    @settings(max_examples=40, deadline=None)
    @given(rational_supports(), st.builds(Fraction, st.integers(1, 6), st.integers(1, 4)))
    def test_word_search_is_homogeneous(self, D, c):
        a = pattern_search(D, max_len=5, budget=200)
        b = pattern_search(scaled_support(D, c), max_len=5, budget=200)
        assert (a.word, a.scs1cyc1_word, a.status, a.states_explored) == (
            b.word,
            b.scs1cyc1_word,
            b.status,
            b.states_explored,
        )


def test_exact_routines_multiply_integers(monkeypatch):
    """No Fraction reaches mat_mul or is_rank_one inside the exact routines;
    only the report matrices of pattern_search multiply the rational support."""
    D = FiniteSupport.make(
        [cjn_matrix(["5/2", "1/3", "1/2"]), cjn_matrix(["1/2", "1/3", "1/2"])], ["1/3", "2/3"]
    )
    seen = set()
    reporting = []

    def recording(fn):
        def wrapper(*args):
            if not reporting:
                seen.update(type(v) for A in args for row in A.rows for v in row if v is not EPS)
            return fn(*args)

        return wrapper

    def report_product(D, word):
        reporting.append(word)
        try:
            return word_product(D, word)
        finally:
            reporting.pop()

    monkeypatch.setattr(stochastic, "mat_mul", recording(stochastic.mat_mul))
    monkeypatch.setattr(stochastic, "is_rank_one", recording(stochastic.is_rank_one))
    monkeypatch.setattr(stochastic, "word_product", report_product)
    assert pattern_search(D, max_len=8).found
    x0s = [V(["1/5", 0, 2]), V([0, "3/4", 1])]
    assert forward_coupling(D, x0s, horizon=60, seed=1, replications=2).certified_fraction() == 1
    assert backward_loynes(D, tolerance=0, budget=200, seed=1).converged
    assert seen == {int}


# ---------------------------------------------------------------------------
# The numpy float routines against the scalar reference

FLOAT_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.5, 0.1, 1 / 3]),
    st.floats(-4, 4, allow_nan=False, allow_infinity=False),
)


@st.composite
def float_supports(draw):
    """Row-finite float supports with eps entries and signed zeros: k <= 6,
    1-3 letters, iid or under a random Markov kernel."""
    k = draw(st.integers(1, 6))
    size = draw(st.integers(1, 3))
    mats = []
    for _ in range(size):
        rows = []
        for _ in range(k):
            row = [draw(st.one_of(st.none(), FLOAT_ENTRY)) for _ in range(k)]
            if all(v is None for v in row):
                row[draw(st.integers(0, k - 1))] = draw(FLOAT_ENTRY)
            rows.append(row)
        mats.append(M(rows, FLOAT))
    weights = [draw(st.integers(1, 4)) for _ in range(size)]
    kernel = None
    if draw(st.booleans()):
        kernel = []
        for _ in range(size):
            row = [draw(st.integers(0, 3)) for _ in range(size)]
            if not any(row):
                row[draw(st.integers(0, size - 1))] = 1
            kernel.append([Fraction(w, sum(row)) for w in row])
    return FiniteSupport.make(mats, [Fraction(w, sum(weights)) for w in weights], kernel)


@st.composite
def builtin_generators(draw):
    low = draw(st.sampled_from([0.0, 0.25, 1.0]))
    high = low + draw(st.sampled_from([0.0, 0.5, 1.5]))
    family = draw(st.sampled_from(["shared", "independent", "cjn"]))
    if family == "cjn":
        queues = draw(st.integers(2, 4))
        customers = draw(st.integers(queues, 6))
        return cjn_distribution(
            CjnSpec(queues, customers, UniformServiceLaw(queues, low, high)), FLOAT
        )
    build = shared_uniform_diagonal if family == "shared" else independent_uniform_diagonal
    return build(draw(st.integers(1, 6)), low, high)


def float_models():
    """(the model, the same model as the scalar routines sample it)."""
    return st.one_of(
        float_supports().map(lambda D: (D, D)),
        builtin_generators().map(lambda D: (D, reference.scalar_generator(D))),
    )


def finite_vectors(k, count):
    return st.lists(
        st.lists(FLOAT_ENTRY, min_size=k, max_size=k).map(lambda v: V(v, FLOAT)),
        min_size=count,
        max_size=count,
    )


def trajectory_json(tr) -> str:
    return json.dumps([
        tr.sample_times,
        [x.entries for x in tr.states],
        [p.entries for p in tr.projective],
        tr.increments,
    ])


def report_text(r) -> str:
    return json.dumps(r.to_json(), sort_keys=True)


SEEDS = st.integers(0, 10**6)


class TestFloatRoutines:
    @settings(max_examples=80, deadline=None)
    @given(
        float_models().flatmap(lambda m: st.tuples(st.just(m), finite_vectors(m[0].k, 1))),
        st.integers(0, 40),
        st.integers(1, 4),
        SEEDS,
    )
    def test_simulate_matches_reference(self, model, horizon, thin, seed):
        (D, R), (x0,) = model
        got = simulate(D, x0, horizon, seed, replication=1, thin=thin)
        assert trajectory_json(got) == trajectory_json(
            reference.simulate(R, x0, horizon, seed, replication=1, thin=thin)
        )

    @settings(max_examples=80, deadline=None)
    @given(
        float_models().flatmap(
            lambda m: st.tuples(st.just(m), st.one_of(st.none(), finite_vectors(m[0].k, 1)))
        ),
        st.integers(1, 40),
        st.integers(1, 4),
        SEEDS,
        st.integers(0, 3),
    )
    def test_lyapunov_matches_reference(self, model, horizon, reps, seed, channel):
        (D, R), x0s = model
        x0 = None if x0s is None else x0s[0]
        args = dict(replications=reps, seed=seed, x0=x0, channel=channel)
        assert report_text(lyapunov_estimate(D, horizon, **args)) == report_text(
            reference.lyapunov_estimate(R, horizon, **args)
        )

    @settings(max_examples=80, deadline=None)
    @given(
        float_models().flatmap(
            lambda m: st.tuples(st.just(m), st.integers(2, 3).flatmap(
                lambda c: finite_vectors(m[0].k, c)))
        ),
        st.sampled_from([0, 1e-6, 0.01, 0.5, 2.0, Fraction(1, 3), math.inf]),
        st.integers(0, 60),
        SEEDS,
    )
    def test_eta_coupling_matches_reference(self, model, eta, horizon, seed):
        (D, R), x0s = model
        rep = forward_coupling(D, x0s, horizon=horizon, eta=eta, seed=seed, replications=2)
        assert rep.modes == ("eta",)
        assert rep.samples == tuple(
            reference._couple_one(R, tuple(x0s), horizon, eta, seed, r, False) for r in range(2)
        )

    @settings(max_examples=80, deadline=None)
    @given(
        float_models(),
        st.sampled_from([1e-9, 0.05, 0.5, 2.0]),
        st.integers(0, 40),
        st.integers(0, 3),
        SEEDS,
    )
    def test_backward_loynes_matches_reference(self, model, tolerance, budget, trace_every, seed):
        D, R = model
        args = dict(tolerance=tolerance, budget=budget, seed=seed, replication=2,
                    trace_every=trace_every)
        assert report_text(backward_loynes(D, **args)) == report_text(
            reference.backward_loynes(R, **args)
        )

    @settings(max_examples=40, deadline=None)
    @given(builtin_generators(), st.integers(1, 40), SEEDS)
    def test_sample_block_stacks_sample_fn(self, D, n, seed):
        block = D.sample_block(np.random.default_rng(seed), n)
        rng = np.random.default_rng(seed)
        scalar = reference.scalar_generator(D).sample_fn
        mats = [scalar(rng, i) for i in range(n)]
        assert block.shape == (n, D.k, D.k) and block.dtype == np.float64
        rng = np.random.default_rng(seed)
        assert [D.sample_fn(rng, i) for i in range(n)] == mats
        assert [stochastic._matrix_of(A) for A in block] == mats


def test_signed_zeros_keep_the_first_of_ties():
    """-0.0 and 0.0 tie; the scalar kernel keeps the first, numpy's max need
    not. Every report matches the reference bit for bit, signs included."""
    A = M([[-0.0, 0.0, EPS], [0.0, -0.0, -0.0], [EPS, -0.0, 0.0]], FLOAT)
    B = M([[0.0, -0.0, -0.0], [-0.0, EPS, 0.0], [-0.0, 0.0, EPS]], FLOAT)
    D = FiniteSupport.make([A, B], ["1/2", "1/2"])
    x0 = V([-0.0, 0.0, -0.0], FLOAT)
    got = simulate(D, x0, 12, seed=3)
    want = reference.simulate(D, x0, 12, seed=3)
    assert trajectory_json(got) == trajectory_json(want)
    assert "-0.0" in trajectory_json(want)
    for x in (x0, V([0.0, -0.0, -0.0], FLOAT)):
        est = lyapunov_estimate(D, 7, 3, seed=1, x0=x)
        assert report_text(est) == report_text(reference.lyapunov_estimate(D, 7, 3, seed=1, x0=x))
    res = backward_loynes(D, tolerance=0.5, budget=5, seed=4)
    assert report_text(res) == report_text(reference.backward_loynes(D, tolerance=0.5, budget=5, seed=4))
    assert res.converged


def _diagonal(k, u):
    return M([[u if i == j else 0.0 for j in range(k)] for i in range(k)], FLOAT)


def _custom(bad_at=None, bad_row=1, k=3):
    """A generator without a block sampler; position bad_at gets an all-eps row."""

    def sample(rng, n):
        A = _diagonal(k, float(rng.uniform(0.0, 1.0)))
        if n == bad_at:
            rows = [list(r) for r in A.rows]
            rows[bad_row] = [EPS] * k
            A = Matrix(tuple(map(tuple, rows)), FLOAT)
        return A

    return GeneratorDistribution(k=k, sample_fn=sample, name="custom-test")


class TestCustomGenerators:
    def test_sample_fn_only_generator_matches_reference(self):
        D = _custom()
        x0s = [V([0.0, 1.0, 2.0], FLOAT), V([2.0, 0.5, 0.0], FLOAT)]
        assert trajectory_json(simulate(D, x0s[0], 50, 7)) == trajectory_json(
            reference.simulate(D, x0s[0], 50, 7)
        )
        assert report_text(lyapunov_estimate(D, 60, 3, 7)) == report_text(
            reference.lyapunov_estimate(D, 60, 3, 7)
        )
        assert forward_coupling(D, x0s, 300, 0.01, 7, 3).samples == tuple(
            reference._couple_one(D, tuple(x0s), 300, 0.01, 7, r, False) for r in range(3)
        )
        assert report_text(backward_loynes(D, 0.01, 300, 7)) == report_text(
            reference.backward_loynes(D, 0.01, 300, 7)
        )

    @pytest.mark.parametrize("bad_at", [0, 5, 15, 16, 40])
    def test_all_eps_row_raises_when_the_scalar_routine_did(self, bad_at):
        D = _custom(bad_at=bad_at)
        x0s = [V([0.0, 1.0, 2.0], FLOAT), V([2.0, 0.5, 0.0], FLOAT)]
        runs = [
            lambda m, r: m.simulate(D, x0s[0], 30, 2),
            lambda m, r: m.lyapunov_estimate(D, 30, 3, 2),
            lambda m, r: m._couple_one(D, tuple(x0s), 60, 0.2, 2, r, False)
            if m is reference else m.forward_coupling(D, x0s, 60, 0.2, 2, 1).samples[0],
            lambda m, r: m.backward_loynes(D, 0.3, 60, 2, trace_every=0),
        ]
        for run in runs:
            outcome = []
            for m in (stochastic, reference):
                try:
                    res = run(m, 0)
                    outcome.append(res if isinstance(res, CouplingSample) else
                                   trajectory_json(res) if hasattr(res, "increments") else
                                   report_text(res))
                except ContractViolation as exc:
                    outcome.append(("raised", str(exc)))
            assert outcome[0] == outcome[1]

    # seeds 10 and 15: replication 0 meets its all-eps row only after the
    # first block, a later one within it, in another row
    @pytest.mark.parametrize("seed", [0, 10, 15])
    def test_lyapunov_reports_the_first_replication_to_meet_an_all_eps_row(self, seed):
        """Each step has an all-eps row with probability 1/1500, in a random
        row, so replications meet one at different steps, some past the
        first block: the error is that of the lowest such replication."""

        def sample(rng, n):
            u = float(rng.uniform(0.0, 1.0))
            rows = [[u if i == j else 0.0 for j in range(3)] for i in range(3)]
            if u < 1 / 1500:
                rows[int(u * 4500)] = [EPS] * 3
            return M(rows, FLOAT)

        D = GeneratorDistribution(k=3, sample_fn=sample)
        messages = []
        for m in (stochastic, reference):
            with pytest.raises(ContractViolation) as err:
                m.lyapunov_estimate(D, 4000, 6, seed)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_all_eps_row_message(self):
        with pytest.raises(ContractViolation, match=r"^lyapunov_estimate: matrix row 1 is all eps"):
            lyapunov_estimate(_custom(bad_at=3), 10, 2, 0)

    def test_wrong_shape_rejected(self):
        D = GeneratorDistribution(k=2, sample_fn=lambda rng, n: _diagonal(3, 0.0))
        with pytest.raises(ContractViolation, match="must produce float matrices of size 2"):
            simulate(D, V([0.0, 0.0], FLOAT), 3, 0)
        blocky = GeneratorDistribution(
            k=2, sample_fn=None, sample_block=lambda rng, n: np.zeros((n, 3, 3))
        )
        with pytest.raises(ContractViolation, match="must produce float matrices of size 2"):
            lyapunov_estimate(blocky, 3, 1, 0)


@pytest.mark.parametrize("backing", [EXACT, FLOAT])
def test_lyapunov_needs_a_replication(backing):
    D = FiniteSupport.make([M([[0, 1], [1, 0]], backing)], [1])
    with pytest.raises(ContractViolation, match="replications must be >= 1"):
        lyapunov_estimate(D, 5, 0, 0)


def test_eps_left_at_the_horizon_is_a_contract_error():
    D = FiniteSupport.make([M([[0.0, EPS], [EPS, 0.0]], FLOAT)], [1])
    with pytest.raises(ContractViolation, match="eps coordinates"):
        lyapunov_estimate(D, 5, 2, 0, x0=V([0.0, EPS], FLOAT))
    E = FiniteSupport.make([M([[0, EPS], [EPS, 0]])], [1])
    with pytest.raises(ContractViolation, match="eps coordinates"):
        lyapunov_estimate(E, 5, 2, 0, x0=V([0, EPS]))


def test_float_routines_use_no_scalar_kernel(monkeypatch):
    """On a generator, the float drivers step on arrays: the per-step
    mat_vec, mat_mul and proj_diameter of the scalar kernel never run."""

    def forbidden(*args, **kwargs):
        raise AssertionError("scalar kernel called")

    for name in ("mat_vec", "mat_mul", "proj_diameter", "proj_dist"):
        monkeypatch.setattr(stochastic, name, forbidden)
    D = shared_uniform_diagonal(4, 0.1, 1.2)
    x0s = [V([0.0, 1.0, 2.0, 0.5], FLOAT), V([1.0, 0.0, 0.0, 3.0], FLOAT)]
    tr = simulate(D, x0s[0], 40, 1)
    est = lyapunov_estimate(D, 40, 3, 1)
    forward_coupling(D, x0s, 40, 0.01, 1, 2)
    res = backward_loynes(D, 0.5, 2000, 1, trace_every=7)
    stability_verdict(D, StabilityOptions(eta=0.05, mc_seeds=2, mc_budget=30, seed=1))
    # values leave the module as Python floats, not numpy scalars
    floats = [v for x in tr.states + tr.projective for v in x.entries]
    floats += [v for z in tr.increments for v in z] + list(est.per_replication)
    floats += [d for _, d in res.trace] + [res.achieved_diameter] + list(res.limit_class.entries)
    assert {type(v) for v in floats} == {float}


# ---------------------------------------------------------------------------
# One word walk behind pattern_search and structural_conditions


@st.composite
def pattern_supports(draw):
    """eps-heavy supports, all-eps rows allowed: k <= 5, 1-3 letters, exact
    or float, iid or under a Markov kernel with zero entries."""
    k = draw(st.integers(1, 5))
    size = draw(st.integers(1, 3))
    entry = st.sampled_from([EPS, EPS, EPS, 0, 1, Fraction(-1, 2)])
    backing = draw(st.sampled_from([EXACT, FLOAT]))
    mats = [
        M([[draw(entry) for _ in range(k)] for _ in range(k)], backing) for _ in range(size)
    ]
    kernel = None
    if draw(st.booleans()):
        kernel = []
        for _ in range(size):
            row = [draw(st.sampled_from([0, 0, 1, 2])) for _ in range(size)]
            if not any(row):
                row[draw(st.integers(0, size - 1))] = 1
            kernel.append([Fraction(w, sum(row)) for w in row])
    return FiniteSupport.make(mats, [Fraction(1, size)] * size, kernel)


@settings(max_examples=150, deadline=None)
@given(pattern_supports())
def test_structural_conditions_match_reference_at_every_budget(D):
    saturation = reference.structural_conditions(D, 64, 10**6).states_explored
    for budget in range(1, saturation + 1):
        for max_len in (1, 2, 3, 4, 64):
            got = structural_conditions(D, max_len=max_len, budget=budget)
            want = reference.structural_conditions(D, max_len, budget)
            assert same_json(got, want), (budget, max_len)


@settings(max_examples=20, deadline=None)
@given(rational_supports())
def test_pattern_search_matches_reference_at_every_budget(D):
    """A budget may run out in the middle of a level, which the walk expands
    as one array product: every cut-off of a search of up to 25 expansions
    (a search expands at most one word per state)."""
    states = reference.pattern_search(D, 64, 25).states_explored
    for budget in range(1, min(states, 25) + 2):
        for max_len in (1, 2, 3, 4, 64):
            got = pattern_search(D, max_len=max_len, budget=budget)
            want = reference.pattern_search(D, max_len, budget)
            assert same_json(got, want), (budget, max_len)


def test_cyclic_shifts_match_reference_at_every_budget():
    """The three cyclic shifts of (2, 2, 1) under a Markov kernel, then iid,
    at every budget up to saturation or the first rank-one word."""
    D = FiniteSupport.make(
        [cjn_matrix([2, 2, 1]), cjn_matrix([1, 2, 2]), cjn_matrix([2, 1, 2])],
        ["1/3", "1/3", "1/3"],
        kernel=[["1/2", "1/2", 0], [0, "1/2", "1/2"], ["1/2", 0, "1/2"]],
    )
    for D in (D, FiniteSupport.make(D.matrices, D.probabilities)):
        saturation = reference.pattern_search(D, 64, 10**4).states_explored
        for budget in range(1, saturation + 2):
            for max_len in (1, 2, 3, 4, 64):
                got = pattern_search(D, max_len=max_len, budget=budget)
                assert same_json(got, reference.pattern_search(D, max_len, budget))


# Entries of magnitude <= 1: the shortest rank-one word has length 6, after
# 58 states. Scaled by c, max|Aint| = c.
UNIT_SUPPORT = [
    [[1, -1, EPS], [0, 1, -1], [EPS, -1, 0]],
    [[1, EPS, 0], [1, 0, -1], [-1, EPS, 1]],
]


def unit_support(c=1, denominators=(1, 1)):
    return FiniteSupport.make(
        [
            M([[EPS if v is EPS else Fraction(c * v, q) for v in row] for row in rows])
            for rows, q in zip(UNIT_SUPPORT, denominators)
        ],
        ["1/2", "1/2"],
    )


def walk_dtypes(monkeypatch, D, max_len, budget=200000):
    """pattern_search(D) and the dtypes of the stacks its walk multiplied."""
    dtypes = set()

    def recording(A, P):
        dtypes.add(A.dtype)
        return stack_mul(A, P)

    stack_mul = stochastic._stack_mul
    monkeypatch.setattr(stochastic, "_stack_mul", recording)
    return pattern_search(D, max_len=max_len, budget=budget), dtypes


def test_pattern_guard_boundary(monkeypatch):
    # a word has at most 6 letters, so the walk holds float64 while
    # 2 (6 + 1) max|Aint| < 2**53
    inside = (2**53 - 1) // 14
    for c, dtype in ((inside, np.float64), (inside + 1, object)):
        D = unit_support(c)
        got, dtypes = walk_dtypes(monkeypatch, D, 6)
        assert dtypes == {np.dtype(dtype)}
        assert same_json(got, reference.pattern_search(D, 6, 200000))
        assert (got.word, got.states_explored) == ((0, 1, 0, 0, 1, 0), 58)
    # the budget bounds the word length too: 3 expansions make words of <= 4
    # letters, and 2 (4 + 1) (2**53 // 10 - 1) < 2**53
    D = unit_support(2**53 // 10 - 1)
    for budget, dtype in ((3, np.float64), (4, object)):
        got, dtypes = walk_dtypes(monkeypatch, D, 16, budget)
        assert dtypes == {np.dtype(dtype)}
        assert same_json(got, reference.pattern_search(D, 16, budget))


def test_large_lcm_takes_the_object_pattern_path(monkeypatch):
    # L = (2**40 + 15)(2**40 + 21), about 2**80, and max|Aint| about 2**60
    D = unit_support(2**20, (2**40 + 15, 2**40 + 21))
    for max_len in (4, 6, 8):
        got, dtypes = walk_dtypes(monkeypatch, D, max_len)
        assert dtypes == {np.dtype(object)}
        assert same_json(got, reference.pattern_search(D, max_len, 200000))
    assert (got.word, got.states_explored) == ((0, 1, 0, 0, 1, 0, 1), 115)
    # a rank-one letter with an all-eps column: its outer sums with eps must
    # come back to the eps sentinel
    p, q = 2**40 + 15, 2**40 + 21
    D = FiniteSupport.make(
        [M([[1, Fraction(1, p)], [Fraction(1, q), 0]]), M([[Fraction(1, p), EPS], [2**20, EPS]])],
        ["1/2", "1/2"],
    )
    got, dtypes = walk_dtypes(monkeypatch, D, 4)
    assert dtypes == {np.dtype(object)}
    assert same_json(got, reference.pattern_search(D, 4, 200000))
    assert got.word == (1,)


def test_pattern_walk_makes_no_matrix_product(monkeypatch):
    """The walk multiplies, normalizes and tests whole levels on arrays: no
    mat_mul, matrix_proj_normal or is_rank_one runs in it, except in the
    report's word_product and the spectral records of
    _irreducible_scs1cyc1."""
    outside = []
    inside = []

    def guarded(fn):
        def wrapped(*args):
            if not inside:
                outside.append(fn.__name__)
            return fn(*args)

        return wrapped

    def allowed(fn):
        def wrapped(*args):
            inside.append(fn)
            try:
                return fn(*args)
            finally:
                inside.pop()

        return wrapped

    for module in (semiring, projective, spectral, stochastic):
        for name in ("mat_mul", "matrix_proj_normal", "is_rank_one"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, guarded(getattr(module, name)))
    for name in ("word_product", "_irreducible_scs1cyc1"):
        monkeypatch.setattr(stochastic, name, allowed(getattr(stochastic, name)))
    got = pattern_search(unit_support(1, (3, 1)), max_len=8)
    assert (got.word, got.states_explored) == ((0, 0, 0, 0, 1, 0, 0), 60)
    assert outside == []


def test_both_searches_run_through_one_word_walk(monkeypatch, good_cjn):
    calls = []

    def counting(*args):
        calls.append(args)
        return walk(*args)

    walk = stochastic._word_bfs
    monkeypatch.setattr(stochastic, "_word_bfs", counting)
    pattern_search(good_cjn, max_len=8)
    assert len(calls) == 1
    structural_conditions(good_cjn)
    assert len(calls) == 2


def test_cyclic_shift_words_by_brute_force():
    """All 120 words of length <= 4 over the three cyclic shifts of (2,2,1),
    multiplied out one by one with no search: the shortest rank-one word has
    length 4, and (0,0,1,0) is one, with probability 1/81."""
    D = FiniteSupport.make(
        [cjn_matrix([2, 2, 1]), cjn_matrix([1, 2, 2]), cjn_matrix([2, 1, 2])],
        ["1/3", "1/3", "1/3"],
    )
    words = [w for n in range(1, 5) for w in itertools.product(range(3), repeat=n)]
    assert len(words) == 120
    rank_one = {w for w in words if is_rank_one(word_product(D, w))}
    assert all(len(w) == 4 for w in rank_one)
    assert (0, 0, 1, 0) in rank_one
    assert word_probability(D, (0, 0, 1, 0)) == Fraction(1, 81)


# ---------------------------------------------------------------------------
# Markov letters are admissible by their exact probabilities


TINY = Fraction(1, 10**400)  # positive, and 0.0 as a double


def tiny_markov():
    """Letter 1 (all zero, rank-one) follows letter 0 with probability
    1e-400 and is recurrent; letter 0 alone never gives a rank-one or
    everywhere-finite product."""
    return FiniteSupport.make(
        [M([[0, EPS], [EPS, 0]]), M([[0, 0], [0, 0]])],
        ["1/2", "1/2"],
        kernel=[[1 - TINY, TINY], ["1/2", "1/2"]],
    )


def test_tiny_transition_is_admissible():
    assert float(TINY) == 0.0
    D = tiny_markov()
    assert stochastic._initial_letters(D) == (0, 1)
    assert stochastic._next_letters(D, 0) == (0, 1)
    got = pattern_search(D)
    assert (got.status, got.word, got.classification) == ("found", (1,), "rank-one+scs1cyc1")
    cond = structural_conditions(D)
    assert (cond.condition_ii, cond.witness, cond.status) == (True, (1,), "found")
