"""The exact stochastic drivers as block recursions on the array kernel.

``simulate``, ``lyapunov_estimate``, ``forward_coupling`` and
``backward_loynes`` step a block's states on the integer-scaled support one
matrix at a time, as the float drivers do, and test every step of the
block at once.
These tests hold them to the one-matrix-at-a-time ``Fraction`` routines of
``reference_stochastic``, on report JSON text, on both sides of the
float64/object guard, and check that no scalar kernel call runs inside.
"""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_stochastic as reference
from helpers import certified_fraction
from test_stochastic import M, V, rational_supports, rational_vectors

import maxplus
from maxplus import arrays, projective, semiring, stochastic
from maxplus.semiring import EPS, scalar_to_json
from maxplus.stochastic import (
    FiniteSupport,
    backward_loynes,
    forward_coupling,
    lyapunov_estimate,
    simulate,
)


def trajectory_text(tr) -> str:
    def vec(x):
        return [scalar_to_json(v) for v in x.entries]

    return json.dumps([
        tr.sample_times,
        [vec(x) for x in tr.states],
        [vec(p) for p in tr.projective],
        [[scalar_to_json(v) for v in z] for z in tr.increments],
    ])


def samples_text(samples) -> str:
    return json.dumps([dataclasses.asdict(s) for s in samples])


def report_text(r) -> str:
    return json.dumps(r.to_json(), sort_keys=True)


def reference_samples(D, x0s, horizon, eta, seed, replications):
    return [reference._couple_one(D, tuple(x0s), horizon, eta, seed, r, True)
            for r in range(replications)]


def same_runs(D, x0s, horizon, eta=Fraction(1, 3), tolerance=0, trace_every=1, seed=3):
    """All four exact drivers agree with the reference on D."""
    got = forward_coupling(D, x0s, horizon, eta, seed, replications=3)
    assert samples_text(got.samples) == samples_text(
        reference_samples(D, x0s, horizon, eta, seed, 3))
    args = dict(tolerance=tolerance, budget=horizon, seed=seed, trace_every=trace_every)
    assert report_text(backward_loynes(D, **args)) == report_text(
        reference.backward_loynes(D, **args))
    assert trajectory_text(simulate(D, x0s[0], horizon, seed, 1, 3)) == trajectory_text(
        reference.simulate(D, x0s[0], horizon, seed, 1, 3))
    args = dict(replications=3, seed=seed, x0=x0s[1])
    assert report_text(lyapunov_estimate(D, max(horizon, 1), **args)) == report_text(
        reference.lyapunov_estimate(D, max(horizon, 1), **args))


# forward_coupling rejects an infinite eta; 1e300 is above every distance
ETAS = st.sampled_from([0, Fraction(1, 3), 1 / 3, 1e300])
TOLERANCES = st.one_of(
    st.just(0), st.builds(Fraction, st.integers(0, 12), st.integers(1, 6))
)


class TestAgainstReference:
    @settings(max_examples=50, deadline=None)
    @given(
        rational_supports().flatmap(lambda D: st.tuples(st.just(D), rational_vectors(D.k, 3))),
        ETAS,
        st.integers(0, 40),
        st.integers(1, 6),
        st.integers(0, 10**6),
    )
    def test_forward_coupling(self, model, eta, horizon, replications, seed):
        D, x0s = model
        got = forward_coupling(D, x0s, horizon, eta, seed, replications)
        assert samples_text(got.samples) == samples_text(
            reference_samples(D, x0s, horizon, eta, seed, replications))

    @settings(max_examples=50, deadline=None)
    @given(rational_supports(), TOLERANCES, st.integers(0, 60), st.sampled_from([0, 1, 3]),
           st.integers(0, 10**6))
    def test_backward_loynes(self, D, tolerance, budget, trace_every, seed):
        args = dict(tolerance=tolerance, budget=budget, seed=seed, replication=1,
                    trace_every=trace_every)
        assert report_text(backward_loynes(D, **args)) == report_text(
            reference.backward_loynes(D, **args))

    @settings(max_examples=40, deadline=None)
    @given(
        rational_supports().flatmap(lambda D: st.tuples(st.just(D), rational_vectors(D.k, 1))),
        st.integers(0, 60),
        st.integers(1, 4),
        st.integers(0, 10**6),
    )
    def test_simulate(self, model, horizon, thin, seed):
        D, (x0,) = model
        assert trajectory_text(simulate(D, x0, horizon, seed, 2, thin)) == trajectory_text(
            reference.simulate(D, x0, horizon, seed, 2, thin))

    @settings(max_examples=40, deadline=None)
    @given(
        rational_supports().flatmap(
            lambda D: st.tuples(st.just(D), st.one_of(st.none(), rational_vectors(D.k, 1)))),
        st.integers(1, 60),
        st.integers(1, 5),
        st.integers(0, 10**6),
        st.integers(0, 3),
    )
    def test_lyapunov_estimate(self, model, horizon, replications, seed, channel):
        D, x0s = model
        args = dict(replications=replications, seed=seed,
                    x0=None if x0s is None else x0s[0], channel=channel)
        assert report_text(lyapunov_estimate(D, horizon, **args)) == report_text(
            reference.lyapunov_estimate(D, horizon, **args))


# ---------------------------------------------------------------------------
# Both sides of the float64/object guard


def spy_scans(monkeypatch):
    """The dtype and length of every block the drivers step."""
    seen = []

    def recording(At, *args, **kwargs):
        seen.append((At.dtype, len(At)))
        return states(At, *args, **kwargs)

    states = stochastic._states
    monkeypatch.setattr(stochastic, "_states", recording)
    return seen


def symmetric_pair(top):
    """Two letters whose products never turn rank-one and stay finite: the
    diameter of every product is 2 top."""
    return FiniteSupport.make(
        [M([[top, 0], [0, top]]), M([[0, top], [top, 0]])], ["1/3", "2/3"]
    )


def test_large_lcm_runs_on_object_arrays(monkeypatch):
    """Denominators 3**25 and 5**17 scale the support by L near 2**79, past
    float64 from the first block; the reports are the reference's."""
    a, b = Fraction(1, 3**25), Fraction(2, 5**17)
    D = FiniteSupport.make(
        [M([[a, 1], [0, b]]), M([[b, EPS], [a, 2]]), M([[1, a], [b, 0]])],
        ["1/2", "1/4", "1/4"],
    )
    seen = spy_scans(monkeypatch)
    x0s = [V([0, a]), V([b, 3]), V([1, 0])]
    same_runs(D, x0s, 40)
    same_runs(D, x0s, 40, eta=0, tolerance=Fraction(1, 7), trace_every=3)
    assert seen and {dtype for dtype, _ in seen} == {np.dtype(object)}
    markov = FiniteSupport.make(D.matrices, D.probabilities,
                                [["1/2", "1/2", 0], [0, "1/3", "2/3"], [1, 0, 0]])
    same_runs(markov, x0s, 40, eta=1 / 3)


@pytest.mark.parametrize("steps", [48, 100])
def test_guard_switches_at_the_block_that_needs_it(monkeypatch, steps):
    """Blocks of 16, 32 and 52 steps cover 100. With top * _reach(steps) at
    2**53 the walk leaves float64 at the block that ends at steps, one less
    keeps it there; a block is object exactly when top * _reach(its end)
    reaches 2**53, and the reports are the reference's on both sides."""
    top = -(-arrays._FLOAT_EXACT // stochastic._reach(steps))
    seen = spy_scans(monkeypatch)
    for t in (top - 1, top):
        seen.clear()
        D = symmetric_pair(t)
        simulate(D, V([0, 1]), 100, 5)
        lyapunov_estimate(D, 100, 1, 5)
        backward_loynes(D, 0, 100, 5)
        want = [(np.dtype(object if t * stochastic._reach(end) >= arrays._FLOAT_EXACT
                          else float), n) for end, n in ((16, 16), (48, 32), (100, 52))]
        assert seen == want * 3
        assert (want[(16, 48, 100).index(steps)][0] == object) == (t == top)
        same_runs(D, [V([0, 1]), V([t, 0]), V([3, 3])], 100, tolerance=Fraction(1, 2))


def test_a_huge_budget_alone_stays_on_float64(monkeypatch):
    D = FiniteSupport.make([M([[2, EPS, 2], [1, 1, EPS], [EPS, 1, 1]]),
                            M([[1, EPS, 1], [1, 1, EPS], [EPS, 1, 1]])], ["1/2", "1/2"])
    seen = spy_scans(monkeypatch)
    for budget in (10**6, 10**18):
        args = dict(tolerance=0, budget=budget, seed=3)
        got = backward_loynes(D, **args)
        assert got.converged and report_text(got) == report_text(
            reference.backward_loynes(D, **args))
        got = forward_coupling(D, [V([0, 0, 0]), V([0, 5, 2])], budget, 1e-6, 3, 2)
        assert certified_fraction(got) == 1
    assert {dtype for dtype, _ in seen} == {np.dtype(float)}


# ---------------------------------------------------------------------------
# Letters, and the cost of the drivers


@settings(max_examples=40, deadline=None)
@given(rational_supports(), st.lists(st.integers(0, 40), min_size=1, max_size=6),
       st.booleans(), st.integers(0, 10**6))
def test_letters_do_not_depend_on_the_block_split(D, sizes, backward, seed):
    whole = stochastic._Letters(D, np.random.default_rng(seed), backward).draw(sum(sizes))
    letters = stochastic._Letters(D, np.random.default_rng(seed), backward)
    assert np.concatenate([letters.draw(n) for n in sizes]).tolist() == whole.tolist()


def test_exact_drivers_make_no_scalar_call(count_calls):
    """The exact drivers multiply, test and measure on arrays: no scalar
    product, rank-one test, distance or diameter runs inside them."""
    products = count_calls(semiring, "mat_mul", "mat_vec")
    tests = count_calls(projective, "is_rank_one", "proj_dist", "proj_diameter")
    D = FiniteSupport.make(
        [M([[2, EPS, "1/2"], [1, 1, EPS], [EPS, 1, "3/2"]]),
         M([[1, EPS, 1], [1, "1/3", EPS], [EPS, 1, 1]])], ["1/2", "1/2"])
    x0s = [V([0, 0, 0]), V([0, 5, "2/3"])]
    assert certified_fraction(forward_coupling(D, x0s, 100, Fraction(1, 3), 1, 4)) == 1
    assert backward_loynes(D, 0, 500, 1).converged
    backward_loynes(D, Fraction(1, 10**9), 50, 1, trace_every=3)
    simulate(D, x0s[1], 300, 1)
    lyapunov_estimate(D, 300, 4, 1)
    assert sum(products.values()) + sum(tests.values()) == 0
    maxplus.mat_mul(*D.matrices)
    assert products["mat_mul"] == 1  # the counter sees the calls through other modules


def test_states_form_the_running_products():
    """_states gives the transposes of the left running products
    A(j) ... A(0) with X None, and, on the matrices as they are, the right
    ones P A(0) ... A(j) stepped from the rows of P: those of a _stack_mul
    chain, on float64 and on an object array of Python ints past 2**53,
    whose eps sums each step clamps back to eps."""
    rng = np.random.default_rng(0)
    A = rng.integers(-9, 9, (2, 7, 3, 3)).astype(float)  # A[r, j]
    A[A < -6] = -math.inf
    P = rng.integers(-9, 9, (2, 3, 3)).astype(float)
    P[:, 0] = -math.inf  # so every right product has an eps row
    eps, dtype, clamp = arrays._guard(9 * (2**60 + 1), stochastic._reach(8))
    assert dtype is object

    def big(a):  # the finite entries times 2**60 + 1, as Python ints, and eps for -inf
        finite = a != -math.inf
        return arrays._as_object(arrays._as_object(a, finite, 0) * (2**60 + 1), finite, eps)

    for A, P, eps, clamp in [(A, P, -math.inf, arrays._no_clamp), (big(A), big(P), eps, clamp)]:
        left = arrays._states(A.transpose(1, 3, 2, 0), None, False, clamp)
        right = arrays._states(A.transpose(1, 2, 3, 0), P, False, clamp)
        assert left.dtype == right.dtype == A.dtype
        for r in range(2):
            C, Q = A[r, 0], P[r]
            for j in range(7):
                if j:
                    C = arrays._stack_mul(A[r, j], C)
                    clamp(C)
                Q = arrays._stack_mul(Q, A[r, j])
                clamp(Q)
                assert (left[r, j] == C.T).all() and (right[r, j] == Q).all()
        assert (left == eps).any() and (right == eps).any()  # so the chains test the clamp


def test_every_driver_steps_on_states(monkeypatch, count_calls):
    """The four drivers, and the coupling window, form their states on
    arrays._states for both backings: no second step path is left, and no
    prefix scan beside it."""
    assert not hasattr(arrays, "_scan")
    calls = count_calls(arrays, "_states")
    windows, window = [], stochastic._window

    def counted(*args):
        before = calls["_states"]
        got = window(*args)
        windows.append(calls["_states"] - before)
        return got

    monkeypatch.setattr(stochastic, "_window", counted)
    D = FiniteSupport.make(
        [M([[2, EPS, "1/2"], [1, 1, EPS], [EPS, 1, "3/2"]]),
         M([[1, EPS, 1], [1, "1/3", EPS], [EPS, 1, 1]])], ["1/2", "1/2"])
    for model, tolerance in [(D, 0), (D.to_float(), 0.5)]:
        x0s = [V([0, 0, 0]), V([0, 5, 2])]
        if model.backing == "float":
            x0s = [x.to_float() for x in x0s]
        runs = [
            lambda: simulate(model, x0s[1], 40, 1),
            lambda: lyapunov_estimate(model, 40, 2, 1),
            lambda: forward_coupling(model, x0s, 40, 1e-6, 1, 2),
            lambda: backward_loynes(model, tolerance, 40, 1),
        ]
        for run in runs:
            before = calls["_states"]
            run()
            assert calls["_states"] > before
    assert windows and min(windows) > 0


# ---------------------------------------------------------------------------
# The one block loop


def test_exact_replications_that_span_two_groups():
    """70 replications at horizon 20 form two _group groups (64 and 6):
    each replication gives the reference's report, whichever group holds
    it."""
    assert [len(g) for g in stochastic._group(70, 20)] == [64, 6]
    D = FiniteSupport.make([M([[2, EPS, "1/2"], [1, 1, EPS], [EPS, 1, "3/2"]]),
                            M([[1, EPS, 1], [1, "1/3", EPS], [EPS, 1, 1]])], ["1/3", "2/3"])
    x0s = [V([0, 0, 0]), V([0, 5, "2/3"]), V(["1/2", 1, 0])]
    got = forward_coupling(D, x0s, 20, Fraction(1, 3), 9, 70)
    assert samples_text(got.samples) == samples_text(
        reference_samples(D, x0s, 20, Fraction(1, 3), 9, 70))
    args = dict(replications=70, seed=9, x0=x0s[1])
    assert report_text(lyapunov_estimate(D, 20, **args)) == report_text(
        reference.lyapunov_estimate(D, 20, **args))


@pytest.mark.parametrize("backing, tolerance", [
    ("exact", 0), ("exact", Fraction(1, 2)), ("float", 0.5), ("float", 1e-9)])
def test_one_replication_is_its_entry_of_a_stack(backing, tolerance):
    """backward_loynes(replication=r) steps a stack of one; it reports what
    replication r reports in a stack of all of them, converged or not."""
    D = FiniteSupport.make([M([[0, "1/2", EPS], [EPS, 0, 1], [1, EPS, "1/3"]]),
                            M([[1, EPS, 0], [0, 1, EPS], [EPS, "1/2", 0]])], ["1/2", "1/2"])
    if backing == "float":
        D = D.to_float()
    stack = stochastic._loynes(D, tolerance, 20, 3, range(8), 3)
    alone = [backward_loynes(D, tolerance, 20, 3, r, trace_every=3) for r in range(8)]
    assert [report_text(r) for r in alone] == [report_text(r) for r in stack]
    assert {r.converged for r in stack} == {True, False}


def test_letter_tables_are_built_once_a_call(count_calls):
    """A float Markov stability verdict builds the stationary law and the
    reversed kernel once, however many Monte-Carlo replications it runs."""
    D = FiniteSupport.make(
        [M([[0.0, 1.5], [0.25, EPS]], "float"), M([[1.0, EPS], [0.5, 0.0]], "float"),
         M([[EPS, 0.5], [1.0, 0.25]], "float")],
        ["1/3", "1/3", "1/3"], [["1/2", "1/2", 0], [0, "1/2", "1/2"], ["1/2", 0, "1/2"]])
    counts = []
    for seeds in (1, 20):
        calls = count_calls(stochastic, "stationary_distribution", "_reverse_kernel_cum")
        verdict = stochastic.stability_verdict(
            D, stochastic.StabilityOptions(eta=0.05, mc_seeds=seeds, mc_budget=50, seed=2))
        counts.append(dict(calls))
        assert verdict.to_json()["certificate"]["seeds"] == seeds
    assert counts[0] == counts[1] and counts[0]["_reverse_kernel_cum"] >= 1
