from fractions import Fraction

import pytest

from maxplus import stochastic
from maxplus.semiring import EPS, EXACT, FLOAT, ContractViolation, Matrix, Vector
from maxplus.projective import is_rank_one
from maxplus.spectral import classify
from maxplus.stochastic import (
    FiniteSupport,
    GeneratorDistribution,
    lyapunov_estimate,
    sample_sequence,
    simulate,
    structural_conditions,
)
from maxplus.models import (
    CjnSpec,
    JointServiceLaw,
    PerQueueServiceLaw,
    SubsetLaw,
    TaskGraphSpec,
    UniformServiceLaw,
    cjn_distribution,
    cjn_matrix,
    cjn_spec_from_json,
    cjn_stability_condition,
    cjn_trajectory_columns,
    split_service_vector,
    taskgraph_distribution,
    taskgraph_spec_from_json,
)


def M(rows, backing=EXACT):
    return Matrix.make(rows, backing)


def V(entries, backing=EXACT):
    return Vector.make(entries, backing)


class TestRingMatrix:
    def test_structure_diagonal_and_predecessor(self):
        got = cjn_matrix([1, 2, 3])
        want = M([[1, EPS, 1], [2, 2, EPS], [EPS, 3, 3]])
        assert got.rows == want.rows

    def test_two_queue_ring_is_full(self):
        assert cjn_matrix([0, 0]).rows == M([[0, 0], [0, 0]]).rows
        assert is_rank_one(cjn_matrix([0, 0]))

    def test_equal_services_are_scs1cyc1(self):
        assert classify(cjn_matrix([1, 1, 1])).scs1cyc1

    def test_single_queue_rejected(self):
        with pytest.raises(ContractViolation):
            cjn_matrix([5])

    def test_float_backing(self):
        A = cjn_matrix([0.5, 1.5], backing=FLOAT)
        assert A.backing == FLOAT and A.entry(0, 0) == 0.5


class TestSplitting:
    def test_round_robin_insertion(self):
        assert split_service_vector([7, 9], 3) == (Fraction(7), Fraction(0), Fraction(9))
        assert split_service_vector([7, 9], 4) == (
            Fraction(7),
            Fraction(0),
            Fraction(9),
            Fraction(0),
        )
        assert split_service_vector([1, 2, 3], 5) == (
            Fraction(1),
            Fraction(0),
            Fraction(2),
            Fraction(0),
            Fraction(3),
        )

    def test_distribution_dimension_is_customer_count(self):
        spec = CjnSpec(queues=2, customers=3, law=JointServiceLaw.make([(7, 9)], [1]))
        D = cjn_distribution(spec)
        assert D.k == 3
        zero_rows = [
            i
            for i in range(3)
            if all(v in (Fraction(0), EPS) for v in D.matrices[0].rows[i])
            and any(v == 0 for v in D.matrices[0].rows[i])
        ]
        assert len(zero_rows) == 1

    def test_fewer_customers_than_queues_rejected(self):
        with pytest.raises(ContractViolation):
            cjn_distribution(
                CjnSpec(queues=3, customers=2, law=JointServiceLaw.make([(1, 1, 1)], [1]))
            )

    def test_split_preserves_growth_rate(self):
        base = CjnSpec(
            queues=2, customers=2, law=JointServiceLaw.make([(2, 1), (1, 1)], ["1/2", "1/2"])
        )
        est_base = lyapunov_estimate(cjn_distribution(base), 400, 4, seed=5)
        est_split = lyapunov_estimate(
            cjn_distribution(CjnSpec(queues=2, customers=4, law=base.law)), 400, 4, seed=5
        )
        assert abs(float(est_base.point) - float(est_split.point)) < 0.05


class TestServiceLaws:
    def test_per_queue_law_enumerates_product_support(self):
        pq = PerQueueServiceLaw.make([(1, 2)] * 3, [("1/2", "1/2")] * 3)
        D = cjn_distribution(CjnSpec(queues=3, customers=3, law=pq))
        assert D.size == 8
        assert all(p == Fraction(1, 8) for p in D.probabilities)

    def test_mixed_fraction_float_per_queue_law(self):
        # exact products stay Fractions; a float factor, or a float in a
        # merged sum, makes the probability a float
        pq = PerQueueServiceLaw.make([(1, 1), (1, 2)], [("1/4", 0.75), ("1/3", "2/3")])
        D = cjn_distribution(CjnSpec(queues=2, customers=2, law=pq))
        assert D.size == 2
        assert D.probabilities == (
            float(Fraction(1, 12)) + 0.75 * float(Fraction(1, 3)),
            float(Fraction(1, 6)) + 0.75 * float(Fraction(2, 3)),
        )
        assert all(type(p) is float for p in D.probabilities)
        joint = pq.joint()
        assert joint.probs[:2] == (Fraction(1, 12), Fraction(1, 6))
        assert joint.probs[2:] == (0.75 * float(Fraction(1, 3)), 0.75 * float(Fraction(2, 3)))

    def test_duplicate_atoms_merge(self):
        law = JointServiceLaw.make([(1, 1), (1, 1), (2, 1)], ["1/4", "1/4", "1/2"])
        D = cjn_distribution(CjnSpec(queues=2, customers=2, law=law))
        assert D.size == 2
        assert sorted(D.probabilities) == [Fraction(1, 2), Fraction(1, 2)]

    def test_uniform_law_builds_generator(self):
        spec = CjnSpec(queues=2, customers=2, law=UniformServiceLaw(k=2, low=0.0, high=1.0))
        D = cjn_distribution(spec)
        assert isinstance(D, GeneratorDistribution)
        mats = sample_sequence(D, seed=0, n=5)
        assert all(0.0 <= m.entry(j, j) < 1.0 for m in mats for j in range(2))

    def test_generator_respects_seed_channels(self):
        spec = CjnSpec(queues=2, customers=2, law=UniformServiceLaw(k=2, low=0.0, high=1.0))
        D = cjn_distribution(spec)
        a = sample_sequence(D, seed=3, n=4)
        b = sample_sequence(D, seed=3, n=4)
        assert all(x.rows == y.rows for x, y in zip(a, b))


class TestStabilityCondition:
    def test_unique_strict_max_atom(self):
        ok, wit = cjn_stability_condition(
            CjnSpec(3, 3, JointServiceLaw.make([(2, 1, 1), (1, 2, 1)], ["1/2", "1/2"]))
        )
        assert ok and wit == (2, 1, 1)

    def test_all_equal_atom(self):
        ok, wit = cjn_stability_condition(CjnSpec(3, 3, JointServiceLaw.make([(1, 1, 1)], [1])))
        assert ok and wit == (1, 1, 1)

    def test_cyclic_shifts_fail(self):
        ok, wit = cjn_stability_condition(
            CjnSpec(
                3,
                3,
                JointServiceLaw.make(
                    [(2, 2, 1), (1, 2, 2), (2, 1, 2)], ["1/3", "1/3", "1/3"]
                ),
            )
        )
        assert not ok and wit is None

    def test_spelled_service_times_compare_as_scalars(self):
        got = [cjn_stability_condition(CjnSpec(3, 3, JointServiceLaw.make([atom], [1])))
               for atom in (("10", "9", "9"), (10, 9, 9), (10.0, "9", 9))]
        assert got == [(True, (10, 9, 9))] * 3
        ok, wit = cjn_stability_condition(CjnSpec(3, 3, PerQueueServiceLaw.make(
            [[1, "3/2"], [2], ["1/2", "5/4"]], [["1/2", "1/2"], [1], ["1/2", "1/2"]])))
        assert ok and wit == (1, 2, Fraction(1, 2))

    def test_split_model_rejected(self):
        with pytest.raises(ContractViolation):
            cjn_stability_condition(CjnSpec(2, 3, JointServiceLaw.make([(1, 1)], [1])))


class TestTrajectoryColumns:
    def test_idle_times_nonnegative_and_consistent(self):
        D = FiniteSupport.make(
            [cjn_matrix([2, 1, 1]), cjn_matrix([1, 1, 1])], ["1/2", "1/2"]
        )
        mats = sample_sequence(D, seed=3, n=20)
        tr = simulate(D, V([0, 0, 0]), horizon=20, seed=3)
        cols = cjn_trajectory_columns(tr, mats)
        for n in range(1, 21):
            A = mats[n - 1]
            for j in range(3):
                idle = cols["idle"][n - 1][j]
                assert idle == tr.states[n].entries[j] - A.entry(j, j) - tr.states[n - 1].entries[j]
                assert idle >= 0

    def test_waiting_suppressed_for_split_models(self):
        spec = CjnSpec(queues=2, customers=3, law=JointServiceLaw.make([(1, 2)], [1]))
        D = cjn_distribution(spec)
        mats = sample_sequence(D, seed=0, n=5)
        tr = simulate(D, V([0, 0, 0]), horizon=5, seed=0)
        cols = cjn_trajectory_columns(tr, mats, physical=False)
        assert cols["waiting"] is None
        assert len(cols["idle"]) == 5

    def test_thinned_trajectory_rejected(self):
        D = FiniteSupport.make([cjn_matrix([1, 1])], [1])
        tr = simulate(D, V([0, 0]), horizon=4, seed=0, thin=2)
        with pytest.raises(ContractViolation):
            cjn_trajectory_columns(tr, sample_sequence(D, seed=0, n=4))


class TestTaskGraphs:
    def test_singleton_deterministic_matrix(self):
        tg = TaskGraphSpec(
            k=2,
            subsets=(SubsetLaw.make([0b11], [1]), SubsetLaw.make([0b10], [1])),
            duration=1,
        )
        D = taskgraph_distribution(tg)
        assert D.size == 1
        assert D.matrices[0].rows == M([[1, EPS], [1, 1]]).rows

    def test_random_subsets_enumerate_support(self):
        tg = TaskGraphSpec(
            k=2,
            subsets=(
                SubsetLaw.make([0b11, 0b10], ["1/2", "1/2"]),
                SubsetLaw.make([0b11], [1]),
            ),
            duration=1,
        )
        assert taskgraph_distribution(tg).size == 2

    def test_full_dependence_satisfies_condition_ii_immediately(self):
        full = TaskGraphSpec(k=3, subsets=(SubsetLaw.make([0b111], [1]),) * 3, duration=2)
        D = taskgraph_distribution(full)
        assert D.matrices[0].all_finite()
        rep = structural_conditions(D)
        assert rep.condition_ii and len(rep.witness) == 1

    def test_starved_processor_rejected(self):
        with pytest.raises(ContractViolation) as err:
            taskgraph_distribution(
                TaskGraphSpec(
                    k=2,
                    subsets=(SubsetLaw.make([0b01], [1]), SubsetLaw.make([0b01], [1])),
                    duration=1,
                )
            )
        assert "processor 1" in str(err.value)

    def test_uniform_duration_builds_generator(self):
        tg = TaskGraphSpec(
            k=2,
            subsets=(SubsetLaw.make([0b11], [1]), SubsetLaw.make([0b11], [1])),
            duration=("uniform", 0.0, 1.0),
        )
        D = taskgraph_distribution(tg)
        assert isinstance(D, GeneratorDistribution)
        mats = sample_sequence(D, seed=1, n=3)
        assert all(m.backing == FLOAT for m in mats)

    @pytest.mark.parametrize("seed, replication", [(0, 0), (5, 2)])
    def test_uniform_duration_draws_are_pinned(self, seed, replication):
        # the per-matrix sampler as first written, one accumulate-and-compare
        # loop per processor: the draws must stay these doubles in this order
        k, low, high = 3, 0.5, 2.0
        laws = (
            SubsetLaw.make([0b010, 0b110, 0b111], ["1/3", "1/2", "1/6"]),
            SubsetLaw.make([0b101, 0b111], ["1/4", "3/4"]),
            SubsetLaw.make([0b000, 0b011, 0b100], ["1/5", "0", "4/5"]),
        )

        def sample(rng, n):
            rows = [[EPS] * k for _ in range(k)]
            for i, law in enumerate(laws):
                u = float(rng.random())
                acc = 0.0
                mask = law.masks[-1]
                for m, p in zip(law.masks, law.probs):
                    acc += float(p)
                    if u < acc:
                        mask = m
                        break
                for j in range(k):
                    if mask >> j & 1:
                        rows[j][i] = float(rng.uniform(low, high))
            return Matrix(tuple(tuple(r) for r in rows), FLOAT)

        D = taskgraph_distribution(TaskGraphSpec(k=k, subsets=laws, duration=("uniform", low, high)))
        rng = stochastic._stream(seed, replication, 0)
        expected = [sample(rng, n).rows for n in range(40)]
        got = sample_sequence(D, seed=seed, n=40, replication=replication)
        assert [A.rows for A in got] == expected


class TestSpecJson:
    def test_cjn_joint_law(self):
        spec = cjn_spec_from_json(
            {
                "queues": 3,
                "customers": 3,
                "law": {"joint": {"atoms": [[2, 1, 1], [1, 1, 1]], "probs": ["1/2", "1/2"]}},
            }
        )
        assert spec.queues == 3 and isinstance(spec.law, JointServiceLaw)
        assert cjn_distribution(spec).size == 2

    def test_cjn_per_queue_law(self):
        spec = cjn_spec_from_json(
            {
                "queues": 2,
                "customers": 2,
                "law": {"per_queue": {"values": [[1, 2], [1, 2]], "probs": [["1/2", "1/2"], ["1/2", "1/2"]]}},
            }
        )
        assert isinstance(spec.law, PerQueueServiceLaw)
        assert cjn_distribution(spec).size == 4

    def test_cjn_uniform_law(self):
        spec = cjn_spec_from_json(
            {"queues": 2, "customers": 2, "law": {"uniform": {"low": 0.0, "high": 2.0}}}
        )
        assert isinstance(spec.law, UniformServiceLaw)

    def test_taskgraph_spec(self):
        spec = taskgraph_spec_from_json(
            {
                "k": 2,
                "subsets": [{"masks": [3], "probs": [1]}, {"masks": [3], "probs": [1]}],
                "duration": 1,
            }
        )
        D = taskgraph_distribution(spec)
        assert D.size == 1 and D.matrices[0].all_finite()

    def test_bad_law_rejected(self):
        with pytest.raises(ContractViolation):
            cjn_spec_from_json({"queues": 2, "customers": 2, "law": {"mystery": {}}})
