"""Each float block is written once, into the layout its steps read.

``stochastic._Walk.blocks`` writes the blocks of a stack of replications
into one array laid out as their walk says (``_Walk.order``): the float
drivers step on it in place, only the tail of a block cut short is filled,
and the -0.0 and all-eps row tests read it without a copy.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from test_stochastic import _custom, _dying, _outcome, report_text, trajectory_json

from maxplus import arrays, stochastic
from maxplus.models import shared_uniform_diagonal
from maxplus.semiring import FLOAT, Vector
from maxplus.stochastic import (
    StabilityOptions,
    backward_loynes,
    forward_coupling,
    lyapunov_estimate,
    simulate,
)


def _mask_and_copy(a):
    """The -0.0 test as it was: the sign bits of a copy of every zero entry."""
    return a.dtype == float and bool(np.signbit(a[a == 0]).any())


entries = st.one_of(st.sampled_from([0.0, -0.0, -math.inf, math.nan]), st.floats())


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=5),
               elements=entries),
    st.data(),
)
def test_negative_zero_is_the_mask_and_copy_test(a, data):
    """On float arrays with signed zeros, -inf and NaN at any position, on
    transposed and sliced views, which are not contiguous, and on empty
    ones."""
    views = [a, a.transpose(data.draw(st.permutations(range(a.ndim))))]
    if a.ndim:
        step = data.draw(st.integers(1, 3))
        views += [a[::step], a[..., ::-step]]
    for view in views:
        assert arrays._negative_zero(view) == _mask_and_copy(view)


@pytest.mark.parametrize("rows", [[[-0.0, 1]], [[0, -0.0]], [], [[math.nan]]])
def test_negative_zero_is_false_on_object_arrays(rows):
    assert arrays._negative_zero(np.array(rows, dtype=object)) is False


def _x0(k):
    return Vector(tuple(float(i % 3) for i in range(k)), FLOAT)


def _runs(D):
    """Every float driver on D, each to its report or its error."""
    starts = (_x0(D.k), Vector(tuple(2.0 - i % 3 for i in range(D.k)), FLOAT))
    options = StabilityOptions(eta=0.3, mc_seeds=3, mc_budget=60, seed=2)
    runs = [
        lambda: trajectory_json(simulate(D, starts[0], 30, 2)),
        lambda: report_text(lyapunov_estimate(D, 30, 3, 2)),
        lambda: forward_coupling(D, starts, 60, 0.2, 2, 3).samples,
        lambda: report_text(backward_loynes(D, 0.3, 60, 2, trace_every=1)),
        lambda: report_text(backward_loynes(D, 100.0, 60, 2, trace_every=0)),
        lambda: stochastic._mc_backward_evidence(D, options),
    ]
    return [_outcome(run) for run in runs]


def test_padded_steps_are_never_read(monkeypatch):
    """A block cut short before a bad matrix ends in padding. Filled with
    NaN in place of zeros, it changes no report and no error of any float
    driver, also where a replication ends in the block before its bad
    matrix and the driver reports it."""
    models = [_custom(bad_at=b) for b in (1, 5, 20)] + [_custom(bad_at=5, misshapen=True), _dying()]
    models += [_dying(1 / 8, 4)]
    want = [_runs(D) for D in models]

    blocks, padded = stochastic._Walk.blocks, []

    def nan_tails(walk, *args, **kwargs):
        for live, keep, A, lengths, t in blocks(walk, *args, **kwargs):
            for a, b in zip(A.transpose(walk.axes), lengths):
                a[b:] = math.nan
                padded.append(len(a) - b)
            yield live, keep, A, lengths, t

    monkeypatch.setattr(stochastic._Walk, "blocks", nan_tails)
    got = [_runs(D) for D in models]
    assert sum(padded) > 0
    assert got == want
    # the backward run at tolerance 100 converges at its first step, so
    # its reports come from blocks that stop short
    assert not any(isinstance(outcome[4], tuple) for outcome in got)


def test_float_steps_read_the_stack_in_place(monkeypatch):
    """Every float step reads the array that _Walk.blocks filled: no driver
    copies a block into another layout."""
    stacks, steps = [], []
    blocks, step = stochastic._Walk.blocks, arrays._lead_step

    def recording_blocks(*args, **kwargs):
        for item in blocks(*args, **kwargs):
            stacks.append(item[2])
            yield item

    def recording_step(A, X, signed, out=None):
        steps.append(A)
        return step(A, X, signed, out)

    monkeypatch.setattr(stochastic._Walk, "blocks", recording_blocks)
    monkeypatch.setattr(arrays, "_lead_step", recording_step)  # every driver steps in arrays._states
    D = shared_uniform_diagonal(3, 0.1, 1.2)
    x0s = [_x0(3), Vector((1.0, 0.0, 3.0), FLOAT)]
    runs = [
        lambda: simulate(D, x0s[0], 40, 1),
        lambda: lyapunov_estimate(D, 40, 3, 1),
        lambda: forward_coupling(D, x0s, 40, 1e-9, 1, 2),
        lambda: backward_loynes(D, 1e-9, 40, 1),
    ]
    for run in runs:
        stacks.clear()
        steps.clear()
        run()
        assert stacks and steps
        assert all(any(np.shares_memory(A, stack) for stack in stacks) for A in steps)


def test_lyapunov_peaks_below_two_and_a_half_blocks():
    """The stack of R blocks of n matrices, R n k^2 float64 entries, is the
    one array of its size: the block a generator returns is copied into it
    once. A zero-filled stack and a transposed copy of it made 3.1 blocks."""
    D = shared_uniform_diagonal(8, 0.1, 1.2)
    lyapunov_estimate(D, 400, 4, seed=1)  # first-call allocations
    tracemalloc.start()
    lyapunov_estimate(D, 400, 4, seed=1)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2.5 * 4 * 400 * 8**2 * 8


def test_simulate_keeps_no_copy_of_its_block():
    """simulate steps on its block as it was drawn: with the copy of its
    last block into step order kept alive, it peaked at 2.46 MB (4.68
    blocks of 1024 8 x 8 matrices); without, at 2.21 MB."""
    D = shared_uniform_diagonal(8, 0.1, 1.2)
    x0 = _x0(8)
    simulate(D, x0, 1500, 1)  # first-call allocations
    tracemalloc.start()
    simulate(D, x0, 1500, 1)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 4.45 * 1024 * 8**2 * 8
