from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import full_eps

from maxplus.semiring import EPS, EXACT, FLOAT, ContractViolation, Matrix, Vector, mat_vec
from maxplus.projective import (
    canonicalize,
    is_rank_one,
    matrix_proj_normal,
    proj_diameter,
    proj_dist,
    proj_equal,
    proj_norm,
)


def V(entries, backing=EXACT):
    return Vector.make(entries, backing)


def M(rows, backing=EXACT):
    return Matrix.make(rows, backing)


finite_vec = st.lists(
    st.integers(min_value=-10, max_value=10).map(Fraction), min_size=3, max_size=3
).map(lambda e: Vector.make(e, EXACT))


class TestCanonicalForm:
    def test_max_entry_becomes_zero(self):
        p = canonicalize(V([3, 1, -2]))
        assert p.entries == (Fraction(0), Fraction(-2), Fraction(-5))

    def test_shift_invariance(self):
        assert canonicalize(V([3, 1])).entries == canonicalize(V([10, 8])).entries

    def test_eps_entries_rejected(self):
        # projective classes are defined for finite vectors only
        with pytest.raises(ContractViolation):
            canonicalize(V([2, EPS, 0]))


class TestDistance:
    def test_known_value(self):
        # d(u,v) = max(u-v) + max(v-u)
        assert proj_dist(V([0, 0]), V([0, 1])) == Fraction(1)
        assert proj_dist(V([3, 1]), V([5, 3])) == Fraction(0)

    def test_norm_is_distance_to_origin_class(self):
        u = V([2, -1])
        assert proj_norm(u) == proj_dist(u, V([0, 0]))

    @settings(max_examples=80, deadline=None)
    @given(finite_vec, finite_vec)
    def test_symmetry(self, u, v):
        assert proj_dist(u, v) == proj_dist(v, u)

    @settings(max_examples=80, deadline=None)
    @given(finite_vec, finite_vec, finite_vec)
    def test_triangle_inequality(self, u, v, w):
        assert proj_dist(u, w) <= proj_dist(u, v) + proj_dist(v, w)

    @settings(max_examples=80, deadline=None)
    @given(finite_vec, st.integers(min_value=-5, max_value=5).map(Fraction))
    def test_zero_iff_parallel(self, u, c):
        shifted = V([x + c for x in u.entries])
        assert proj_dist(u, shifted) == 0
        bumped = V([u.entries[0] + 1] + [x for x in u.entries[1:]])
        assert proj_dist(u, bumped) > 0

    def test_eps_coordinates_rejected(self):
        with pytest.raises(ContractViolation):
            proj_dist(V([0, EPS]), V([0, 0]))

    def test_proj_equal_rejects_mixed_backings(self):
        with pytest.raises(ContractViolation, match="proj_equal: mixed backings"):
            proj_equal(V([1, 2]), V([1.0, 2.0], FLOAT))

    def test_proj_equal_rejects_a_dimension_mismatch(self):
        with pytest.raises(ContractViolation, match="proj_equal: dimension mismatch"):
            proj_equal(V([1, 2]), V([1, 2, 3]))

    def test_proj_equal_tolerance(self):
        assert proj_equal(V([0.0, 0.0], FLOAT), V([0.0, 1e-9], FLOAT), tol=1e-6)
        assert not proj_equal(V([0.0, 0.0], FLOAT), V([0.0, 0.1], FLOAT), tol=1e-6)


mat3 = st.lists(
    st.lists(st.integers(min_value=-6, max_value=6).map(Fraction), min_size=3, max_size=3),
    min_size=3,
    max_size=3,
).map(lambda rows: Matrix.make(rows, EXACT))


class TestNonExpansiveness:
    @settings(max_examples=100, deadline=None)
    @given(mat3, finite_vec, finite_vec)
    def test_matrix_action_contracts(self, A, u, v):
        assert proj_dist(mat_vec(A, u), mat_vec(A, v)) <= proj_dist(u, v)


class TestDiameter:
    def test_brute_force_parity(self):
        A = M([[0, 3, 1], [2, 0, 0], [1, 1, 4]])
        cols = [Vector(A.col(j), A.backing) for j in range(3)]
        brute = max(proj_dist(a, b) for a in cols for b in cols)
        assert proj_diameter(A) == brute

    def test_rank_one_has_zero_diameter(self):
        A = M([[0, 1], [2, 3]])
        assert proj_diameter(A) == 0
        assert is_rank_one(A)

    def test_eps_column_gives_infinite_diameter(self):
        A = M([[0, EPS], [0, 0]])
        assert proj_diameter(A) == float("inf")

    @pytest.mark.parametrize("samples", [0, -1])
    def test_sampled_mode_needs_a_sample(self, samples):
        with pytest.raises(ContractViolation, match="samples must be >= 1"):
            proj_diameter(M([[0, 1], [1, 0]]), mode="sampled", samples=samples)

    def test_sampled_mode_lower_bounds_exact(self):
        A = M([[0, 3, 1], [2, 0, 0], [1, 1, 4]])
        assert proj_diameter(A, mode="sampled", samples=20, seed=0) <= proj_diameter(A)


class TestRankOne:
    def test_constant_column_offsets(self):
        u = [Fraction(0), Fraction(2), Fraction(-1)]
        offsets = [Fraction(0), Fraction(5), Fraction(1)]
        A = M([[u[i] + offsets[j] for j in range(3)] for i in range(3)])
        assert is_rank_one(A)

    def test_eps_columns_ignored(self):
        A = M([[0, EPS], [2, EPS]])
        assert is_rank_one(A)

    def test_mixed_eps_pattern_not_rank_one(self):
        A = M([[0, EPS], [EPS, 0]])
        assert not is_rank_one(A)

    def test_not_rank_one(self):
        assert not is_rank_one(M([[0, 1], [1, 0]]))

    def test_all_eps_matrix_rejected(self):
        with pytest.raises(ContractViolation):
            is_rank_one(full_eps(2, EXACT))

    def test_shift_invariance_via_normal_form(self):
        A = M([[5, 6], [7, 8]])
        B = matrix_proj_normal(A)
        assert is_rank_one(A) == is_rank_one(B)
        assert max(v for row in B.rows for v in row if v is not EPS) == 0
