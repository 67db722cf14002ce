import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from maxplus.semiring import (
    EPS,
    EXACT,
    BudgetExceeded,
    ContractViolation,
    Matrix,
    Vector,
    mat_mul,
    mat_power,
    mat_vec,
    scale_matrix,
)
from maxplus.projective import is_rank_one, proj_equal
from maxplus import graphs, semiring, spectral
from maxplus.spectral import (
    a_plus,
    classify,
    critical_graph,
    cyclicity,
    cyclicity_and_transient,
    eigenbasis,
    eigenvalue,
    first_rank_one_power,
    is_scs1cyc1,
    normalize,
    span_membership,
    weak_rank,
)
from maxplus.models import cjn_matrix

import reference_spectral as reference
from helpers import otimes_repeat
from conftest import brute_max_cycle_mean, irreducible_corpus, level_flags, random_irreducible


def M(rows):
    return Matrix.make(rows, EXACT)


def V(entries):
    return Vector.make(entries, EXACT)


class TestEigenvalue:
    def test_brute_force_parity(self, small_corpus):
        for A in small_corpus:
            assert eigenvalue(A) == brute_max_cycle_mean(A)

    def test_known_two_by_two(self):
        # circuits: loop at 0 (mean 0), loop at 1 (mean 0), 2-cycle (mean -1)
        assert eigenvalue(M([[0, -1], [-1, 0]])) == 0

    def test_rational_cycle_mean(self):
        # only circuit is the 2-cycle with weights 1 and 2: mean 3/2
        A = M([[EPS, 1], [2, EPS]])
        assert eigenvalue(A) == Fraction(3, 2)

    def test_reducible_rejected(self):
        with pytest.raises(ContractViolation):
            eigenvalue(M([[0, EPS], [0, 0]]))

    def test_normalize_zeroes_the_eigenvalue(self, small_corpus):
        for A in small_corpus[:30]:
            Abar, lam = normalize(A)
            assert lam == eigenvalue(A)
            assert eigenvalue(Abar) == 0


class TestCriticalGraph:
    def test_nodes_match_a_plus_diagonal(self, small_corpus):
        # critical nodes are exactly those with a zero diagonal in (Abar)+
        for A in small_corpus[:40]:
            Abar, _ = normalize(A)
            P = a_plus(Abar)
            want = tuple(i for i in range(A.k) if P.entry(i, i) == 0)
            assert critical_graph(A).nodes == want

    def test_arcs_carry_critical_circuits(self):
        cg = critical_graph(M([[0, -1], [-1, 0]]))
        assert cg.nodes == (0, 1)
        assert set(cg.arcs) == {(0, 0), (1, 1)}
        assert cg.scc.count == 2


class TestCyclicityAndTransient:
    def test_swap_matrix(self):
        A = M([[EPS, 0], [0, EPS]])
        assert cyclicity(A) == 2
        assert cyclicity_and_transient(A) == (2, 1)

    def test_identity_like(self):
        assert cyclicity_and_transient(M([[0]])) == (1, 1)

    def test_identity_and_minimality_on_corpus(self, small_corpus):
        for A in small_corpus[:25]:
            d, m = cyclicity_and_transient(A)
            lam = eigenvalue(A)
            Am = mat_power(A, m)
            Ad = mat_mul(mat_power(A, d), Am)
            assert Ad.rows == scale_matrix(otimes_repeat(lam, d), Am).rows
            if m > 1:
                Aprev = mat_power(A, m - 1)
                lhs = mat_mul(mat_power(A, d), Aprev)
                assert lhs.rows != scale_matrix(otimes_repeat(lam, d), Aprev).rows
            for smaller in range(1, d):
                lhs = mat_mul(mat_power(A, smaller), Am)
                assert lhs.rows != scale_matrix(otimes_repeat(lam, smaller), Am).rows

    def test_budget_exhaustion_raises(self):
        with pytest.raises(BudgetExceeded):
            cyclicity_and_transient(M([[EPS, 0], [0, EPS]]), max_power=1)

    def test_negative_budget_is_a_contract_violation(self):
        A = M([[EPS, 0], [0, EPS]])
        walks = (cyclicity_and_transient, first_rank_one_power,
                 lambda A, max_power: classify(A, with_transient=True, max_power=max_power))
        for walk in walks:
            with pytest.raises(ContractViolation, match="max_power"):
                walk(A, max_power=-1)
            with pytest.raises(BudgetExceeded):
                walk(A, max_power=0)

    def test_negative_budget_is_rejected_without_a_walk(self):
        """classify walks no power without with_transient, and still
        rejects a negative max_power."""
        with pytest.raises(ContractViolation, match="max_power must be >= 0, got -1"):
            classify(M([[EPS, 0], [0, EPS]]), max_power=-1)
        assert classify(M([[EPS, 0], [0, EPS]]), max_power=0).transient is None


class TestEigenbasis:
    def test_columns_are_eigenvectors(self, small_corpus):
        for A in small_corpus[:40]:
            lam = eigenvalue(A)
            for v in eigenbasis(A):
                got = mat_vec(A, v)
                want = Vector.make(
                    [otimes_repeat(lam, 1) + x if x is not EPS else EPS for x in v.entries],
                    EXACT,
                )
                assert got.entries == want.entries

    def test_one_column_per_critical_component(self, small_corpus):
        for A in small_corpus[:40]:
            assert len(eigenbasis(A)) == critical_graph(A).scc.count

    def test_two_loop_fixture(self):
        basis = [v.entries for v in eigenbasis(M([[0, -1], [-1, 0]]))]
        assert basis == [(Fraction(0), Fraction(-1)), (Fraction(-1), Fraction(0))]


class TestSpan:
    def test_eigenvector_combination_recognized(self):
        A = M([[0, -1], [-1, 0]])
        basis = eigenbasis(A)
        combo = V([0, 0])  # oplus of the two basis columns
        assert span_membership(basis, combo) is not None

    def test_non_member_rejected(self):
        A = M([[0, -1], [-1, 0]])
        basis = eigenbasis(A)
        assert span_membership(basis, V([0, -5])) is None

    def test_coefficients_reproduce_member(self):
        cols = [V([0, 2]), V([1, 0])]
        b = V([1, 2])
        alphas = span_membership(cols, b)
        assert alphas is not None
        rebuilt = [
            max(a + c.entries[i] for a, c in zip(alphas, cols) if a is not EPS)
            for i in range(2)
        ]
        assert tuple(rebuilt) == b.entries


class TestClassification:
    def test_scs1cyc1_requires_single_component_and_cyclicity_one(self):
        assert not classify(M([[0, -1], [-1, 0]])).scs1cyc1  # two critical SCCs
        assert not classify(M([[EPS, 0], [0, EPS]])).scs1cyc1  # cyclicity 2
        assert classify(cjn_matrix([2, 1, 1])).scs1cyc1

    def test_shift_invariance(self):
        A = cjn_matrix([2, 1, 1])
        assert is_scs1cyc1(A) == is_scs1cyc1(scale_matrix(Fraction(7), A))

    def test_weak_rank(self):
        assert weak_rank(M([[0, 1], [2, 3]])) == 1
        assert weak_rank(M([[0, -1], [-1, 0]])) == 2

    def test_transient_present_when_requested(self):
        s = classify(M([[EPS, 0], [0, EPS]]), with_transient=True)
        assert (s.cyclicity, s.transient) == (2, 1)
        assert classify(M([[0]])).transient is None


class TestRankOnePowers:
    def test_rank_one_immediately(self):
        assert first_rank_one_power(M([[0, 1], [2, 3]])) == 1

    def test_never_rank_one_detected_by_cycle(self):
        assert first_rank_one_power(M([[EPS, 0], [0, EPS]])) is None

    def test_slow_merge_threshold(self):
        eta = Fraction(1, 4)
        A = M([[1 - eta, 0], [0, 1]])
        n = first_rank_one_power(A)
        assert n == 8
        assert is_rank_one(mat_power(normalize(A)[0], n))
        assert not is_rank_one(mat_power(normalize(A)[0], n - 1))


@st.composite
def irreducible_matrices(draw, max_k=7):
    """Irreducible exact matrices: a Hamiltonian circuit plus random entries p/q, q <= 3."""
    k = draw(st.integers(1, max_k))
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
    rows = [[draw(st.one_of(st.none(), entry)) for _ in range(k)] for _ in range(k)]
    perm = draw(st.permutations(range(k)))
    for a in range(k):
        i, j = perm[(a + 1) % k], perm[a]
        if rows[i][j] is None:
            rows[i][j] = draw(entry)
    return Matrix.make(rows, EXACT)


def outcome(fn, *args):
    """fn's result, or the BudgetExceeded class when its power budget runs out."""
    try:
        return fn(*args)
    except BudgetExceeded:
        return BudgetExceeded


class TestDifferentialAgainstReference:
    """The single integer-scaled record against the product-based reference."""

    @settings(max_examples=80, deadline=None)
    @given(irreducible_matrices())
    def test_classify_matches_reference(self, A):
        assert outcome(classify, A, True, 60) == outcome(reference.classify, A, True, 60)

    @settings(max_examples=80, deadline=None)
    @given(irreducible_matrices())
    def test_first_rank_one_power_matches_reference(self, A):
        assert outcome(first_rank_one_power, A, 60) == outcome(
            reference.first_rank_one_power, A, 60
        )

    @settings(max_examples=60, deadline=None)
    @given(irreducible_matrices(), st.integers(1, 5))
    def test_integer_scaling_is_homogeneous(self, A, c):
        cA = Matrix(tuple(tuple(EPS if v is EPS else c * v for v in row) for row in A.rows), EXACT)
        assert eigenvalue(cA) == c * eigenvalue(A)
        assert critical_graph(cA) == critical_graph(A)


@settings(max_examples=60, deadline=None)
@given(irreducible_matrices())
def test_float_matrix_is_its_dyadic_rationals_rounded_once(A):
    Af = A.to_float()
    rows = tuple(tuple(EPS if v is EPS else Fraction(v) for v in row) for row in Af.rows)
    dyadic = classify(Matrix(rows, EXACT))
    s = classify(Af)
    assert s.eigenvalue == float(dyadic.eigenvalue)
    assert (s.critical, s.cyclicity) == (dyadic.critical, dyadic.cyclicity)
    assert [v.entries for v in s.eigenbasis] == [
        tuple(float(x) for x in v.entries) for v in dyadic.eigenbasis
    ]


def test_classify_cost_is_one_record_plus_the_powers(count_calls):
    # One fixpoint check of the closure, then the powers Abar^2 .. Abar^(M+d):
    # a k-product closure or a second record per reader would exceed this.
    A = random_irreducible(random.Random(10), 12)
    calls = count_calls(semiring, "mat_mul")
    s = classify(A, with_transient=True)
    assert (s.transient, s.cyclicity) == (18, 2)
    assert calls["mat_mul"] <= s.transient + s.cyclicity + 1


def test_search_helper_reads_reducible_as_not_scs1cyc1(monkeypatch):
    # the word search's level predicate decides irreducibility on its array
    # pattern and scs1cyc1 by boolean powers, with no SCC decomposition; the
    # public reader still rejects reducible input
    reducible = M([[0, EPS], [0, 0]])
    calls = []
    monkeypatch.setattr(graphs, "scc_decompose", lambda G: calls.append(G))
    monkeypatch.setattr(spectral, "scc_from_arcs", lambda *args, **kw: calls.append(args))
    assert level_flags([reducible])[0] == [False]
    assert level_flags([M([[0, -1], [-1, 0]])])[0] == [False]
    assert level_flags([M([[0, 0], [0, -1]])])[0] == [True]
    assert calls == []
    with pytest.raises(ContractViolation):
        is_scs1cyc1(reducible)
