"""The exact spectral record on the array kernel.

``spectral._records`` decides irreducibility, runs Karp's algorithm,
builds Abar, its closure and fixpoint check and the critical graph for a
stack of matrices on arrays: float64 while every integer it forms stays
below 2**53, object arrays of Python ints past that. These tests hold
every reader, the one-matrix stack, to the product-based reference in
``reference_spectral`` and to a brute-force enumeration of circuits, on
both sides of that guard; hold the word search's level predicate
(``spectral._scs1cyc1_flags``) to the one-matrix readers on mixed stacks;
and hold the word search, which hands each level's new states to that
predicate as they are, to ``reference_stochastic``.
"""

import json
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

import reference_spectral as reference
import reference_stochastic
from conftest import brute_max_cycle_mean, level_flags
from reference_kernel import scale_to_integers

from maxplus import semiring, spectral, stochastic
from maxplus.graphs import is_irreducible
from maxplus.models import cjn_matrix
from maxplus.semiring import EPS, EXACT, BudgetExceeded, Matrix
from maxplus.spectral import (
    a_plus,
    classify,
    critical_graph,
    eigenbasis,
    eigenvalue,
    is_scs1cyc1,
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
    goes through the level predicate."""
    return FiniteSupport.make([cjn_matrix([2, 2, 1]), cjn_matrix([3, 3, 1])], ["1/2", "1/2"])


def spy_visits(monkeypatch):
    """Wrap every word walk; returns (tested, records, built): the number
    of states handed to the weak-pattern predicate, the dtype of each stack
    of records built, and the Matrix objects made while a walk runs, its
    expansions and visits included."""
    tested, records, built, inside = [], [], [], []
    flags, record = stochastic._scs1cyc1_flags, spectral._records

    def testing(Q, eps):
        tested.append(len(Q))
        return flags(Q, eps)

    def recording(B, *args):
        records.append(B.dtype)
        return record(B, *args)

    init = Matrix.__init__

    def counting(self, *args, **kwargs):
        if inside:
            built.append(args)
        init(self, *args, **kwargs)

    walk = stochastic._word_bfs

    def walking(*args):
        inside.append(1)
        try:
            return walk(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(stochastic, "_scs1cyc1_flags", testing)
    monkeypatch.setattr(spectral, "_records", recording)
    monkeypatch.setattr(Matrix, "__init__", counting)
    monkeypatch.setattr(stochastic, "_word_bfs", walking)
    return tested, records, built


def test_pattern_visit_builds_no_matrix(monkeypatch):
    tested, records, built = spy_visits(monkeypatch)
    got = pattern_search(tie_support(), max_len=16)
    assert got.status == "saturated" and got.scs1cyc1_word is None
    assert sum(tested) == got.states_explored
    assert records and built == []
    assert same_json(got, reference_stochastic.pattern_search(tie_support(), 16, 200000))


def test_search_records_leave_float64_when_they_must(monkeypatch):
    # words of <= 4 letters keep the walk on float64 while 2 (4 + 1) max|Aint|
    # < 2**53, but the records form integers up to _reach(3) = 54 times the
    # largest magnitude of a state, past 2**53
    D = tie_support()
    big = FiniteSupport.make(
        [M([[EPS if v is EPS else v * 2**48 for v in row] for row in A.rows]) for A in D.matrices],
        D.probabilities,
    )
    _, records, _ = spy_visits(monkeypatch)
    got = pattern_search(big, max_len=4)
    assert set(records) == {np.dtype(object)}
    assert same_json(got, reference_stochastic.pattern_search(big, 4, 200000))
    assert got.states_explored == pattern_search(D, max_len=4).states_explored


# ---------------------------------------------------------------------------
# The level predicate of the word search


@st.composite
def level_matrices(draw, k, c):
    """A k x k exact matrix with a finite entry in every row, entries times
    c, of one of these kinds: "random" patterns (often reducible);
    "reducible" ones with no arc from the last nodes to the first;
    "periodic" ones, whose critical graph has d in {1, 2, 3} node classes
    and 0-weight arcs only from a class to the next, so its cyclicity is a
    multiple of d; and "components", with two critical loops."""
    kinds = ["random", "periodic"] + (["reducible", "components"] if k > 1 else [])
    kind = draw(st.sampled_from(kinds))
    small = st.integers(-3, 3)
    rows = [[draw(st.one_of(st.none(), small)) for _ in range(k)] for _ in range(k)]
    if kind == "reducible":
        m = draw(st.integers(1, k - 1))
        for i in range(m):
            for j in range(m, k):
                rows[i][j] = None
    elif kind in ("periodic", "components"):
        # every arc weighs -1 or less, with a Hamiltonian circuit of -1 arcs
        # for irreducibility, then the critical circuits weigh 0
        rows = [[None if v is None else -1 - abs(v) for v in row] for row in rows]
        perm = draw(st.permutations(range(k)))
        for a in range(k):
            rows[perm[(a + 1) % k]][perm[a]] = -1
        if kind == "components":
            rows[perm[0]][perm[0]] = rows[perm[1]][perm[1]] = 0
        else:
            d = draw(st.sampled_from([v for v in (1, 2, 3) if v <= k]))
            crit = perm[: d * draw(st.integers(1, k // d))]
            for a, node in enumerate(crit):
                rows[crit[(a + 1) % len(crit)]][node] = 0
                for b, other in enumerate(crit):
                    if b % d == (a + 1) % d and draw(st.booleans()):
                        rows[other][node] = 0
    for row in rows:
        if all(v is None for v in row):
            row[draw(st.integers(0, k - 1))] = draw(small)
    shift = draw(st.integers(-2, 2))
    q = draw(st.sampled_from([1, 2]))
    return M([[EPS if v is None else Fraction(c * (v + shift), q) for v in row] for row in rows])


@st.composite
def predicate_levels(draw):
    """(mats, reach): a level of 1-6 matrices sharing k = 1..8. reach 1
    with small entries keeps everything on float64; entries near 2**51
    keep the stack on float64 while the records need object arrays; reach
    2**60 puts the stack itself on object arrays."""
    k = draw(st.integers(1, 8))
    c, reach = draw(st.sampled_from([(1, 1), (2**51, 1), (1, 2**60)]))
    return [draw(level_matrices(k, c)) for _ in range(draw(st.integers(1, 6)))], reach


@settings(max_examples=100, deadline=None)
@given(predicate_levels())
def test_level_predicate_matches_the_one_matrix_readers(case):
    mats, reach = case
    dtypes = []
    record = spectral._records

    def recording(B, *args):
        dtypes.append(B.dtype)
        return record(B, *args)

    spectral._records = recording
    try:
        flags, stack_dtype = level_flags(mats, reach)
    finally:
        spectral._records = record
    # slices of one matrix each give the same flags
    k, size = mats[0].k, spectral._SLICE
    spectral._SLICE = k**3
    try:
        assert level_flags(mats, reach)[0] == flags
    finally:
        spectral._SLICE = size
    want = []
    for A in mats:
        irreducible = is_irreducible(A)
        want.append(irreducible and is_scs1cyc1(A))
        if irreducible:
            assert want[-1] == reference.classify(A).scs1cyc1
    assert flags == want

    # the stack and its records sit on the dtype their reach requires: the
    # records are recast once, for the largest irreducible matrix
    def dtype(mats, reach):
        top = max([0] + [abs(v) for A in mats for row in A.rows for v in row if v is not EPS])
        return np.dtype(object if top * reach >= 2**53 else float)

    ints = scale_to_integers(mats)[1]
    assert stack_dtype == dtype(ints, reach)
    assert set(dtypes) <= {dtype([A for A in ints if is_irreducible(A)], spectral._reach(k))}


# Two iid supports whose first rank-one state and first scs1cyc1 state fall
# in the same level, before any scs1cyc1 state: the rank-one word (0, 0, 0)
# comes first in the first, so the search stops without a weak word; the
# scs1cyc1 word (0, 1) comes first in the second, ahead of the hit (1, 1).
ORDERED_LEVELS = {
    "rank-one first": (
        [[[EPS, -1, 1], [EPS, -1, -2], [EPS, -2, EPS]], [[-2, 0, EPS], [EPS, EPS, 1], [0, 1, -1]]],
        (0, 0, 0),
        None,
    ),
    "scs1cyc1 first": (
        [[[EPS, -1, EPS], [-2, 1, EPS], [0, -2, 0]], [[0, EPS, 1], [-1, EPS, -1], [-1, EPS, -1]]],
        (1, 1),
        (0, 1),
    ),
}


def test_pattern_search_orders_a_level_as_the_reference():
    for mats, hit, weak in ORDERED_LEVELS.values():
        D = FiniteSupport.make([M(rows) for rows in mats], ["1/2", "1/2"])
        got = pattern_search(D, max_len=8)
        assert (got.word, got.scs1cyc1_word) == (hit, weak)
        for budget in range(1, got.states_explored + 2):
            for max_len in (1, 2, 3, 8):
                want = reference_stochastic.pattern_search(D, max_len, budget)
                assert same_json(pattern_search(D, max_len=max_len, budget=budget), want)
