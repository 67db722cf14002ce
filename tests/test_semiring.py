import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import full_eps, is_row_finite

from maxplus.semiring import (
    EPS,
    EXACT,
    FLOAT,
    ContractViolation,
    Matrix,
    Vector,
    as_scalar,
    mat_mul,
    mat_oplus,
    mat_power,
    mat_vec,
    matrix_from_json,
    matrix_to_json,
    oplus,
    otimes,
    scalar_to_json,
    vector_from_json,
)


def M(rows, backing=EXACT):
    return Matrix.make(rows, backing)


class TestScalars:
    def test_exact_coercions(self):
        assert as_scalar(3, EXACT) == Fraction(3)
        assert as_scalar("3/4", EXACT) == Fraction(3, 4)
        assert as_scalar(Fraction(-1, 2), EXACT) == Fraction(-1, 2)
        assert as_scalar(None, EXACT) is EPS

    def test_exact_rejects_floats_and_bools(self):
        with pytest.raises(ContractViolation):
            as_scalar(0.5, EXACT)
        with pytest.raises(ContractViolation):
            as_scalar(True, EXACT)

    def test_float_coercions(self):
        assert as_scalar(3, FLOAT) == 3.0
        assert isinstance(as_scalar(3, FLOAT), float)
        assert as_scalar(0.25, FLOAT) == 0.25

    def test_oplus_otimes_neutral_elements(self):
        assert oplus(EPS, Fraction(2)) == Fraction(2)
        assert oplus(Fraction(2), EPS) == Fraction(2)
        assert oplus(EPS, EPS) is EPS
        assert otimes(Fraction(2), Fraction(3)) == Fraction(5)
        assert otimes(EPS, Fraction(3)) is EPS
        assert otimes(Fraction(3), EPS) is EPS


finite = st.integers(min_value=-8, max_value=8).map(Fraction)
entry = st.one_of(st.none(), finite)


def matrices(k):
    return st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k).map(
        lambda rows: Matrix.make(rows, EXACT)
    )


class TestMatrixAlgebra:
    def test_identity_neutral(self):
        A = M([[1, EPS], [0, 2]])
        I = Matrix.identity(2, EXACT)
        assert mat_mul(A, I).rows == A.rows
        assert mat_mul(I, A).rows == A.rows

    def test_full_eps_absorbing(self):
        A = M([[1, EPS], [0, 2]])
        Z = full_eps(2, EXACT)
        assert mat_mul(A, Z).rows == Z.rows
        assert mat_mul(Z, A).rows == Z.rows

    @settings(max_examples=60, deadline=None)
    @given(matrices(3), matrices(3), matrices(3))
    def test_associativity(self, A, B, C):
        assert mat_mul(mat_mul(A, B), C).rows == mat_mul(A, mat_mul(B, C)).rows

    @settings(max_examples=60, deadline=None)
    @given(matrices(3), matrices(3), matrices(3))
    def test_left_distributivity(self, A, B, C):
        lhs = mat_mul(A, mat_oplus(B, C))
        rhs = mat_oplus(mat_mul(A, B), mat_mul(A, C))
        assert lhs.rows == rhs.rows

    @settings(max_examples=40, deadline=None)
    @given(matrices(3), st.integers(min_value=1, max_value=9))
    def test_power_matches_repeated_multiplication(self, A, n):
        naive = A
        for _ in range(n - 1):
            naive = mat_mul(naive, A)
        assert mat_power(A, n).rows == naive.rows

    @pytest.mark.parametrize("n", [2.0, True, "2", None])
    def test_power_rejects_an_exponent_that_is_not_an_int(self, n):
        with pytest.raises(ContractViolation, match=f"mat_power: exponent must be an int, got {n!r}"):
            mat_power(M([[1, EPS], [0, 2]]), n)

    def test_mat_vec_matches_column_expansion(self):
        A = M([[1, EPS], [0, 2]])
        v = Vector.make([3, -1], EXACT)
        got = mat_vec(A, v)
        assert got.entries == (Fraction(4), Fraction(3))

    @pytest.mark.parametrize("product", [
        lambda A: mat_mul(A, A),
        lambda A: mat_vec(A, Vector.make([1e308, 0.0], FLOAT)),
        lambda A: mat_power(A, 2),
    ])
    def test_float_overflow_is_a_contract_violation(self, product):
        """A float sum past the float64 range raises, with no inf in a
        result and no numpy warning."""
        A = M([[1e308, 1e308], [0.0, 0.0]], FLOAT)
        with pytest.raises(ContractViolation, match="a float value overflowed past the float64 range"):
            product(A)

    def test_mixed_backing_rejected(self):
        A = M([[1, EPS], [0, 2]])
        B = M([[1.0, EPS], [0.0, 2.0]], FLOAT)
        with pytest.raises(ContractViolation):
            mat_mul(A, B)

    def test_dimension_mismatch_rejected(self):
        A = M([[0]])
        B = M([[0, EPS], [EPS, 0]])
        with pytest.raises(ContractViolation):
            mat_mul(A, B)


class TestStructure:
    def test_eps_pattern(self):
        A = M([[1, EPS], [0, 2]])
        assert A.eps_pattern() == ((True, False), (True, True))

    def test_row_finiteness(self):
        A = M([[EPS, EPS], [0, 2]])
        assert not is_row_finite(A)
        assert A.row_finite_violation() == 0
        assert is_row_finite(M([[1, EPS], [0, 2]]))

    def test_all_finite(self):
        assert M([[1, 0], [0, 2]]).all_finite()
        assert not M([[1, EPS], [0, 2]]).all_finite()

    def test_to_float(self):
        A = M([[Fraction(1, 2), EPS], [0, 2]])
        F = A.to_float()
        assert F.backing == FLOAT
        assert F.entry(0, 0) == 0.5 and F.entry(0, 1) is EPS


class TestJson:
    def test_scalar_encoding(self):
        assert scalar_to_json(EPS) == "-inf"
        assert scalar_to_json(Fraction(3)) == 3
        assert scalar_to_json(Fraction(1, 2)) == "1/2"
        assert scalar_to_json(0.25) == 0.25
        assert as_scalar(scalar_to_json(Fraction(1, 2)), EXACT) == Fraction(1, 2)

    def test_matrix_round_trip_exact(self):
        A = M([[Fraction(1, 2), EPS], [3, -2]])
        obj = matrix_to_json(A)
        assert json.loads(json.dumps(obj)) == obj
        B = matrix_from_json(obj, EXACT)
        assert B.rows == A.rows

    def test_matrix_round_trip_float(self):
        A = M([[0.5, EPS], [3.0, -2.0]], FLOAT)
        B = matrix_from_json(matrix_to_json(A), FLOAT)
        assert B.rows == A.rows

    def test_vector_accepts_bare_list(self):
        v = vector_from_json([1, "-inf"], EXACT)
        assert v.entries == (Fraction(1), EPS)
