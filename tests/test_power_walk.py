"""The power loop of ``spectral`` on the array kernel.

``_period_and_transient`` walks the integer powers of Abar on float64
while every value it forms is below 2**53 and on object arrays of Python
ints from the first power past that. These tests hold both sides of that
guard, and the switch between them, to the product-based reference in
``reference_spectral``.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxplus import arrays, semiring, spectral
from maxplus.arrays import _max_last
from maxplus.semiring import EPS, EXACT, BudgetExceeded, Matrix
from maxplus.spectral import classify, cyclicity_and_transient, first_rank_one_power

import reference_spectral as reference


def M(rows):
    return Matrix.make(rows, EXACT)


def scaled(rows, c):
    return M([[EPS if v is EPS else c * v for v in row] for row in rows])


def outcome(fn, *args):
    """fn's result, or the BudgetExceeded class when its power budget runs out."""
    try:
        return fn(*args)
    except BudgetExceeded:
        return BudgetExceeded


def agree_with_reference(A, max_power):
    for fn, ref, args in [
        (classify, reference.classify, (A, True, max_power)),
        (cyclicity_and_transient, reference.cyclicity_and_transient, (A, max_power)),
        (first_rank_one_power, reference.first_rank_one_power, (A, max_power)),
    ]:
        assert outcome(fn, *args) == outcome(ref, *args), fn.__name__


def walk_dtype(A, max_power):
    """dtype of the arrays the power walk of A runs on at power max_power."""
    for _, P in spectral._powers(spectral._spectrum(A), max_power):
        pass
    return P.dtype


@st.composite
def large_irreducible_matrices(draw):
    """k = 8..16: a Hamiltonian circuit plus random entries p/q, q <= 3."""
    k = draw(st.integers(8, 16))
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
    rows = [[draw(st.one_of(st.none(), st.none(), entry)) for _ in range(k)] for _ in range(k)]
    perm = draw(st.permutations(range(k)))
    for a in range(k):
        i, j = perm[(a + 1) % k], perm[a]
        if rows[i][j] is None:
            rows[i][j] = draw(entry)
    return Matrix.make(rows, EXACT)


@settings(max_examples=20, deadline=None)
@given(large_irreducible_matrices())
def test_large_matrices_match_reference(A):
    agree_with_reference(A, 40)


# lambda = 0 and integer entries of magnitude <= 1, so c * B has Abar = c * B
# and max|Abar| = c. CYCLIC has cyclicity 3 and no rank-one power.
CYCLIC = [[-1, 0, EPS], [EPS, -1, 0], [0, EPS, -1]]


def test_transient_guard_boundary():
    # max|Abar| * max_power = 2**53 - 1 = 6361 * 1416003655831: float64
    below = scaled(CYCLIC, 1416003655831)
    assert walk_dtype(below, 6361) == np.float64
    agree_with_reference(below, 6361)
    assert cyclicity_and_transient(below, 6361) == cyclicity_and_transient(M(CYCLIC), 6361)
    # max|Abar| * max_power = 2**53 = 64 * 2**47: object arrays
    at = scaled(CYCLIC, 2**47)
    assert walk_dtype(at, 64) == object
    agree_with_reference(at, 64)
    assert cyclicity_and_transient(at, 64) == cyclicity_and_transient(M(CYCLIC), 64)


def test_large_budget_stays_on_float64():
    # max|Abar| = 1: only the budget passes 2**53, and the walk stops at the
    # first repetition, long before a power could leave float64
    walk = spectral._powers(spectral._spectrum(M(CYCLIC)), 10**18)
    assert {P.dtype for _, (_, P) in zip(range(50), walk)} == {np.dtype(float)}
    agree_with_reference(M(CYCLIC), 10**18)
    assert cyclicity_and_transient(M(CYCLIC), 10**18) == cyclicity_and_transient(M(CYCLIC))


# lambda = 1 and max|Abar| = 4; the powers repeat with period 3 from power 7
# on, first seen at power 10
LATE = [
    [-1, 0, 2, 1, EPS],
    [0, EPS, -3, EPS, EPS],
    [EPS, EPS, -1, EPS, 1],
    [EPS, 2, EPS, EPS, 2],
    [EPS, EPS, -2, -1, 1],
]


def test_walk_switches_to_object_at_the_power_it_reaches():
    assert cyclicity_and_transient(M(LATE)) == (3, 7)
    for n0 in range(2, 13):
        # max|Abar| = 4c, so power n0 is the first with n0 max|Abar| >= 2**53;
        # n0 = 8 puts the entries near 2**50, and n0 = 8..10 falls between
        # the two powers that repeat, whose keys are then converted
        c = -(-(2**51) // n0)
        A = scaled(LATE, c)
        dtypes = [P.dtype for _, P in spectral._powers(spectral._spectrum(A), 12)]
        assert dtypes == [np.dtype(float)] * (n0 - 1) + [np.dtype(object)] * (13 - n0)
        agree_with_reference(A, 40)
        assert cyclicity_and_transient(A, 40) == (3, 7)


@settings(max_examples=20, deadline=None)
@given(large_irreducible_matrices())
def test_object_walk_matches_float_walk(A):
    # the same powers on both sides of the guard: equal finite entries, and
    # one sentinel value, below them all, wherever float64 holds -inf. The
    # object walk is the same walk with the float64 range of exact integers
    # taken as empty.
    rec = spectral._spectrum(A)
    floats = [F for _, F in spectral._powers(rec, 40)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arrays, "_FLOAT_EXACT", 1)
        objects = [O for _, O in spectral._powers(rec, 40)]
    for F, O in zip(floats, objects):
        live = F > -np.inf
        assert O[live].tolist() == F[live].tolist()
        bottom = set(O[~live].tolist())
        assert len(bottom) <= 1 and all(b < O[live].min() for b in bottom)


def test_large_lcm_takes_the_object_path():
    # L = 3 (2**61 - 1) >= 2**60
    p = 2**61 - 1
    A = M([
        [Fraction(1, p), Fraction(-2, 3), EPS],
        [EPS, Fraction(5, p), 0],
        [1, Fraction(1, 3), Fraction(-7, 3 * p)],
    ])
    assert walk_dtype(A, 40) == object
    agree_with_reference(A, 40)


def test_object_path_past_float_range():
    # entries near 2**1100, past the range of float64
    big = 2**1100 + 1
    A = M([[Fraction(1, big), 0, EPS], [EPS, Fraction(-3, big), -1], [2, EPS, EPS]])
    assert walk_dtype(A, 40) == object
    agree_with_reference(A, 40)


def test_transient_loop_makes_no_matrix_product(monkeypatch):
    calls = []

    def counting(fn):
        def wrapped(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(spectral, "mat_mul", counting(semiring.mat_mul))
    monkeypatch.setattr(semiring, "mat_mul", counting(semiring.mat_mul))
    A = M([[-1, 0, EPS, 2], [EPS, -1, 0, EPS], [0, EPS, -1, 1], [-3, EPS, EPS, -2]])
    classify(A, with_transient=True)
    assert calls == []  # the A+ fixpoint check is an array product too
    cyclicity_and_transient(A)
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(large_irreducible_matrices(), st.integers(1, 6), st.integers(1, 6))
def test_equal_powers_have_equal_keys(A, a, b):
    powers = [P for _, P in spectral._powers(spectral._spectrum(A), a + b)]
    Pa, Pb, P = powers[a - 1], powers[b - 1], powers[a + b - 1]
    other = _max_last(Pa[:, None, :] + Pb.T[None], False)  # A^a A^b, not A^(a+b-1) A
    assert spectral._key(other) == spectral._key(P)
    assert not np.signbit(P[P == 0]).any()
