"""The exact spectral record on the array kernel.

``spectral._int_spectrum`` decides irreducibility, runs Karp's algorithm,
builds Abar, its closure and fixpoint check, the critical graph and the
eigenvectors on arrays: float64 while every integer it forms stays below
2**53, object arrays of Python ints past that. These tests hold every
reader to the product-based reference in ``reference_spectral`` and to a
brute-force enumeration of circuits, on both sides of that guard, and hold
the word search, which hands its integer states to the record as they
are, to ``reference_stochastic``.
"""

import json
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

import reference_spectral as reference
import reference_stochastic
from conftest import brute_max_cycle_mean

from maxplus import semiring, spectral, stochastic
from maxplus.models import cjn_matrix
from maxplus.semiring import EPS, EXACT, BudgetExceeded, Matrix
from maxplus.spectral import (
    a_plus,
    classify,
    critical_graph,
    eigenbasis,
    eigenvalue,
    normalize,
)
from maxplus.stochastic import FiniteSupport, pattern_search


def M(rows):
    return Matrix.make(rows, EXACT)


def outcome(fn, *args):
    """fn's result, or the BudgetExceeded class when its power budget runs out."""
    try:
        return fn(*args)
    except BudgetExceeded:
        return BudgetExceeded


def guard_top(k, side):
    """The largest max|B| whose record stays on float64 (side "below"), or
    the least one that leaves it (side "at")."""
    top = (2**53 - 1) // spectral._reach(k)
    return top if side == "below" else top + 1


KINDS = ("small", "below", "at", "lcm", "huge")


@st.composite
def record_matrices(draw, kinds=KINDS, max_k=16):
    """(kind, A): an irreducible exact A, k = 1..max_k, a Hamiltonian circuit
    plus random entries. "small" entries are p/q with q <= 3; "below" and
    "at" are integers whose largest magnitude puts the record just inside
    and just outside float64; "lcm" entries have denominators near 2**40;
    "huge" entries are near 2**1100, past the range of float64."""
    kind = draw(st.sampled_from(kinds))
    k = draw(st.integers(1, max_k))
    if kind == "small":
        entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
    elif kind in ("below", "at"):
        top = guard_top(k, kind)
        entry = st.integers(-top, top).map(Fraction)
    elif kind == "lcm":
        entry = st.builds(Fraction, st.integers(-6, 6), st.integers(2**40, 2**40 + 64))
    else:
        entry = st.builds(
            lambda s, r, q: Fraction(s * 2**1100 + r, q),
            st.sampled_from([-1, 1]),
            st.integers(-8, 8),
            st.integers(1, 3),
        )
    rows = [[draw(st.one_of(st.none(), entry)) for _ in range(k)] for _ in range(k)]
    perm = draw(st.permutations(range(k)))
    for a in range(k):
        i, j = perm[(a + 1) % k], perm[a]
        if rows[i][j] is None:
            rows[i][j] = draw(entry)
    if kind in ("below", "at"):
        # the largest magnitude sits on the circuit
        i, j = perm[1 % k], perm[0]
        rows[i][j] = Fraction(draw(st.sampled_from([-1, 1])) * guard_top(k, kind))
    return kind, M(rows)


def record_dtype(A):
    return spectral._spectrum(A).abar.dtype


@settings(max_examples=40, deadline=None)
@given(record_matrices())
def test_record_matches_reference(case):
    kind, A = case
    if kind in ("small", "below"):
        assert record_dtype(A) == np.float64
    elif kind in ("at", "huge"):
        assert record_dtype(A) == object
    assert eigenvalue(A) == reference.eigenvalue(A)
    assert normalize(A) == reference.normalize(A)
    Abar = normalize(A)[0]
    assert a_plus(Abar) == reference.a_plus(Abar)
    assert critical_graph(A) == reference.critical_graph(A)
    assert eigenbasis(A) == reference.eigenbasis(A)
    assert outcome(classify, A, True, 40) == outcome(reference.classify, A, True, 40)


@settings(max_examples=60, deadline=None)
@given(record_matrices(max_k=6))
def test_eigenvalue_is_the_brute_force_cycle_mean(case):
    _, A = case
    assert eigenvalue(A) == brute_max_cycle_mean(A)


def test_one_node_matrices():
    assert classify(M([[Fraction(-7, 3)]]), True) == reference.classify(M([[Fraction(-7, 3)]]), True)
    # one node without a loop is strongly connected but has no circuit
    for reader in (spectral._spectrum, reference.eigenvalue):
        try:
            reader(M([[EPS]]))
        except semiring.ContractViolation as exc:
            assert "no circuit" in str(exc)
        else:
            raise AssertionError("accepted a matrix without a circuit")


def test_record_makes_no_scalar_product(monkeypatch):
    """Karp, the closure, its fixpoint check and the eigenvector check run on
    arrays: no mat_mul or mat_vec of the scalar kernel."""

    def forbidden(*args):
        raise AssertionError("scalar kernel called")

    for module in (semiring, spectral):
        for name in ("mat_mul", "mat_vec"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    A = M([[-1, 0, EPS, 2], [EPS, -1, 0, EPS], [0, EPS, -1, 1], [-3, EPS, EPS, -2]])
    classify(A, with_transient=True)
    for reader in (spectral._spectrum, eigenvalue, normalize, critical_graph, eigenbasis):
        reader(A)
    a_plus(normalize(A)[0])


# ---------------------------------------------------------------------------
# The word search hands its states to the record


@st.composite
def search_supports(draw):
    """Row-finite supports, k = 2..5, 1-3 letters, iid or Markov. scale
    picks the integers the search and its records meet: small ones; ones
    the walk holds on float64 while each record needs object arrays; or
    denominators near 2**40, where both are object arrays."""
    k = draw(st.integers(2, 5))
    size = draw(st.integers(1, 3))
    scale = draw(st.sampled_from(["small", "record", "lcm"]))
    c, q = {"small": (1, 1), "record": (2**44, 1), "lcm": (1, 2**40 + 15)}[scale]
    entry = st.builds(lambda p, d: Fraction(c * p, d * q), st.integers(-3, 3), st.integers(1, 2))
    mats = []
    for _ in range(size):
        rows = []
        for _ in range(k):
            row = [draw(st.one_of(st.none(), entry)) for _ in range(k)]
            if all(v is None for v in row):
                row[draw(st.integers(0, k - 1))] = draw(entry)
            rows.append(row)
        mats.append(M(rows))
    kernel = None
    if draw(st.booleans()):
        kernel = []
        for _ in range(size):
            row = [draw(st.integers(0, 3)) for _ in range(size)]
            if not any(row):
                row[draw(st.integers(0, size - 1))] = 1
            kernel.append([Fraction(w, sum(row)) for w in row])
    return FiniteSupport.make(mats, [Fraction(1, size)] * size, kernel)


def same_json(a, b) -> bool:
    return json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


@settings(max_examples=25, deadline=None)
@given(search_supports())
def test_pattern_search_matches_reference_at_every_budget(D):
    states = reference_stochastic.pattern_search(D, 64, 25).states_explored
    for budget in range(1, min(states, 25) + 2):
        for max_len in (1, 2, 3, 64):
            got = pattern_search(D, max_len=max_len, budget=budget)
            want = reference_stochastic.pattern_search(D, max_len, budget)
            assert same_json(got, want), (budget, max_len)


def tie_support():
    """Two ring draws that tie their maxima at the same two queues: the
    search saturates without a rank-one word, and every state it meets
    gets a spectral record."""
    return FiniteSupport.make([cjn_matrix([2, 2, 1]), cjn_matrix([3, 3, 1])], ["1/2", "1/2"])


def spy_visits(monkeypatch):
    """Wrap the visit of every word walk; returns (records, built): the
    dtype of each record built while a visit runs (None for a reducible
    state) and the Matrix objects made then."""
    records, built, inside = [], [], []
    record = spectral._int_spectrum

    def recording(B, eps, *args):
        rec = record(B, eps, *args)
        if inside:
            records.append(None if rec is None else rec.abar.dtype)
        return rec

    init = Matrix.__init__

    def counting(self, *args, **kwargs):
        if inside:
            built.append(args)
        init(self, *args, **kwargs)

    walk = stochastic._word_bfs

    def walking(D, root, expand, visit, max_len, budget):
        def visiting(*args):
            inside.append(1)
            try:
                return visit(*args)
            finally:
                inside.pop()

        return walk(D, root, expand, visiting, max_len, budget)

    monkeypatch.setattr(spectral, "_int_spectrum", recording)
    monkeypatch.setattr(Matrix, "__init__", counting)
    monkeypatch.setattr(stochastic, "_word_bfs", walking)
    return records, built


def test_pattern_visit_builds_no_matrix(monkeypatch):
    records, built = spy_visits(monkeypatch)
    got = pattern_search(tie_support(), max_len=16)
    assert got.status == "saturated" and got.scs1cyc1_word is None
    assert len(records) == got.states_explored
    assert built == []
    assert same_json(got, reference_stochastic.pattern_search(tie_support(), 16, 200000))


def test_search_records_leave_float64_when_they_must(monkeypatch):
    # words of <= 4 letters keep the walk on float64 while 2 (4 + 1) max|Aint|
    # < 2**53, but the record forms integers up to _reach(3) = 90 times the
    # largest magnitude of a state, past 2**53
    D = tie_support()
    big = FiniteSupport.make(
        [M([[EPS if v is EPS else v * 2**48 for v in row] for row in A.rows]) for A in D.matrices],
        D.probabilities,
    )
    records, _ = spy_visits(monkeypatch)
    got = pattern_search(big, max_len=4)
    assert set(records) - {None} == {np.dtype(object)}
    assert same_json(got, reference_stochastic.pattern_search(big, 4, 200000))
    assert got.states_explored == pattern_search(D, max_len=4).states_explored
