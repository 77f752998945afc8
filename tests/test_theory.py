import math

import pytest

import gwrange as g
from gwrange import rng as rngmod
from gwrange.errors import DomainError, ScheduleInfeasibleError, SignatureError
from gwrange.genealogy import IncreasingCollection, Partition
from gwrange.theory import (
    desk_band,
    pairwise_split_requirements,
    signature_sum_identity,
    split_bound_sum_identity,
)

P = Partition.make


@pytest.fixture(scope="module")
def pair_collection():
    return IncreasingCollection((P([[1, 2]]), P([[1], [2]])))


class TestClosedForm:
    def test_pair_value(self, law, pair_collection):
        psi2 = g.log_laplace(law, 2.0)
        c2 = g.moment_c_j(law, 2, (1, 1))
        for s1 in (1, 2, 3, 5):
            val = g.esp_partition_law(law, 2, (s1,), pair_collection)
            assert val == pytest.approx(math.exp((s1 - 1) * psi2) * c2, rel=1e-12)

    def test_prefactor_variants_coincide_only_at_two(self, law, pair_collection):
        for s1 in (1, 2, 3):
            derived = g.esp_partition_law(law, 2, (s1,), pair_collection)
            literal = g.esp_partition_law(law, 2, (s1,), pair_collection,
                                          prefactor="literal")
            if s1 == 2:
                assert derived == pytest.approx(literal, rel=1e-12)
            else:
                assert derived != pytest.approx(literal, rel=1e-6)

    def test_four_slot_symmetric_structure(self, law):
        # two shapes on four slots whose persistence factors differ:
        # balanced pair-of-pairs vs nested triple
        t = (2, 4, 6)
        psi = lambda q: g.log_laplace(law, q)
        coll_a = IncreasingCollection(
            (P([[1, 2, 3, 4]]), P([[1, 3], [2, 4]]), P([[1, 3], [2], [4]]),
             P([[1], [2], [3], [4]]))
        )
        val_a = g.esp_partition_law(law, 4, t, coll_a, prefactor="literal",
                                    enforce_assumptions=False)
        expect_a = (
            g.moment_c_j(law, 2, (2, 2))
            * g.moment_c_j(law, 1, (2,))
            * g.moment_c_j(law, 2, (1, 1)) ** 2
            * math.exp((t[2] - t[1] - 1) * psi(2) + 2 * (t[1] - t[0] - 1) * psi(2)
                       + psi(4))
        )
        assert val_a == pytest.approx(expect_a, rel=1e-10)

        coll_b = IncreasingCollection(
            (P([[1, 2, 3, 4]]), P([[1, 3, 4], [2]]), P([[1, 3], [2], [4]]),
             P([[1], [2], [3], [4]]))
        )
        val_b = g.esp_partition_law(law, 4, t, coll_b, prefactor="literal",
                                    enforce_assumptions=False)
        expect_b = (
            g.moment_c_j(law, 2, (3, 1))
            * g.moment_c_j(law, 2, (2, 1))
            * g.moment_c_j(law, 2, (1, 1))
            * math.exp((t[2] - t[1] - 1) * psi(2) + (t[1] - t[0] - 1) * psi(3)
                       + psi(4))
        )
        assert val_b == pytest.approx(expect_b, rel=1e-10)
        assert val_a != pytest.approx(val_b, rel=1e-3)

    def test_kappa_guard(self, law, pair_collection):
        # four-slot sums need kappa > 8, which the default law fails
        coll = IncreasingCollection((P([[1, 2, 3, 4]]), P([[1], [2], [3], [4]])))
        with pytest.raises(DomainError):
            g.esp_partition_law(law, 4, (2,), coll)

    def test_relabeling_invariance(self, law):
        colls = (
            IncreasingCollection(
                (P([[1, 2, 3]]), P([[1, 2], [3]]), P([[1], [2], [3]]))
            ),
            IncreasingCollection(
                (P([[1, 2, 3]]), P([[1, 3], [2]]), P([[1], [2], [3]]))
            ),
            IncreasingCollection(
                (P([[1, 2, 3]]), P([[1], [2, 3]]), P([[1], [2], [3]]))
            ),
        )
        vals = {g.esp_partition_law(law, 3, (2, 4), c) for c in colls}
        assert len(vals) == 1

    def test_shape_validation(self, law, pair_collection):
        with pytest.raises(SignatureError):
            g.esp_partition_law(law, 2, (3, 4), pair_collection)
        with pytest.raises(SignatureError):
            g.esp_partition_law(law, 2, (0,), pair_collection)


class TestPairRequirements:
    def test_pairwise_map(self):
        coll = IncreasingCollection(
            (P([[1, 2, 3, 4]]), P([[1, 3], [2, 4]]), P([[1, 3], [2], [4]]),
             P([[1], [2], [3], [4]]))
        )
        req = pairwise_split_requirements((2, 4, 6), coll)
        assert req[(1, 3)] == 5  # separates at the last step
        assert req[(2, 4)] == 3
        assert req[(1, 2)] == 1


class TestEstimator:
    def test_pair_estimate_matches_closed_form(self, law, pair_collection):
        val = g.esp_partition_law(law, 2, (3,), pair_collection)
        est, se = g.estimate_esp_partition(law, 2, (3,), pair_collection, 20_000,
                                           rngmod.stream(1, "est"))
        assert abs(est - val) <= 4 * se

    def test_one_generation_reduction(self, law, pair_collection):
        est, se = g.estimate_esp_partition(law, 2, (1,), pair_collection, 20_000,
                                           rngmod.stream(2, "est"))
        assert abs(est - g.moment_c_j(law, 2, (1, 1))) <= 4 * se

    def test_fast_and_generic_paths_agree(self, law):
        coll = IncreasingCollection(
            (P([[1, 2, 3]]), P([[1, 3], [2]]), P([[1], [2], [3]]))
        )
        val = g.esp_partition_law(law, 3, (2, 3), coll)
        fast, se_f = g.estimate_esp_partition(law, 3, (2, 3), coll, 20_000,
                                              rngmod.stream(3, "est"))
        slow, se_s = g.estimate_esp_partition(law, 3, (2, 3), coll, 1200,
                                              rngmod.stream(4, "est"), fast=False)
        assert abs(fast - val) <= 4 * se_f
        assert abs(slow - val) <= 4 * se_s

    def test_extinguishing_law_matches_closed_form(self, extinguishing_law,
                                                    pair_collection):
        # trees that die out count as zero on both paths
        law = extinguishing_law
        val = g.esp_partition_law(law, 2, (3,), pair_collection, enforce_assumptions=False)
        fast, se_f = g.estimate_esp_partition(law, 2, (3,), pair_collection, 20_000,
                                              rngmod.stream(7, "est"))
        slow, se_s = g.estimate_esp_partition(law, 2, (3,), pair_collection, 2000,
                                              rngmod.stream(8, "est"), fast=False)
        assert abs(fast - val) <= 4 * se_f
        assert abs(slow - val) <= 4 * se_s

    @pytest.mark.parametrize("which", ["default", "extinguishing"])
    def test_paths_agree_on_one_stream(self, which, law, extinguishing_law):
        law = {"default": law, "extinguishing": extinguishing_law}[which]
        coll = IncreasingCollection(
            (P([[1, 2, 3]]), P([[1, 3], [2]]), P([[1], [2], [3]]))
        )
        fast = g.estimate_esp_partition(law, 3, (2, 3), coll, 300, rngmod.stream(9, "est"))
        slow = g.estimate_esp_partition(law, 3, (2, 3), coll, 300, rngmod.stream(9, "est"),
                                        fast=False)
        assert fast[0] > 0
        assert fast == pytest.approx(slow, rel=1e-12, abs=0)

    def test_uncalibrated_law_rejected(self, pair_collection):
        bad = g.two_point_law(b=0.5)
        with pytest.raises(DomainError):
            g.estimate_esp_partition(bad, 2, (3,), pair_collection, 10,
                                     rngmod.stream(5, "est"))

    def test_single_child_law_cannot_calibrate(self, pair_collection):
        # one child with a fixed positive displacement: the transform at 1
        # cannot vanish, so the estimator refuses
        bad = g.generic_law([(1.0, (0.5,))])
        with pytest.raises(DomainError):
            g.estimate_esp_partition(bad, 2, (3,), pair_collection, 10,
                                     rngmod.stream(6, "est"))


class TestExactIdentities:
    def test_signature_partition_of_unity_pairs(self, law):
        tree = g.generate(law, 4, seed=81)
        out = signature_sum_identity(tree, 2, 4)
        assert out["bitwise"]
        assert out["unique_signature_per_tuple"]

    def test_split_bound_normalization(self, law):
        tree = g.generate(law, 4, seed=82)
        out = split_bound_sum_identity(tree, 2, 4, bound=3)
        assert out["bitwise"]
        assert out["pointwise"]


class TestDeskBand:
    def test_canonical_grid(self, law):
        assert desk_band(law, 10**4) == (13, 16)
        assert desk_band(law, 10**6) == (21, 22)

    def test_infeasible_tiny_budget(self, law):
        with pytest.raises(ScheduleInfeasibleError):
            desk_band(law, 16)

    def test_depth_capped_by_node_budget(self, law):
        lo, hi = desk_band(law, 10**9, node_cap=2**20)
        assert hi <= 18


class TestReports:
    def test_band_volume_smoke(self, law):
        rep = g.limit_report("band-volume", law, [2000, 5000], replicas=3, seed=9)
        assert rep["theorem"] == "band-volume"
        assert len(rep["grid"]) == 2
        assert set(rep["grid"][0]) >= {"n", "mean", "se", "target", "deviation"}
        assert "pass" in rep["verdict"]

    def test_constrained_ratio_smoke(self, law):
        f = g.make_f_lambda([2])
        rep = g.limit_report("constrained-ratio", law, [2000, 5000], k=2,
                             constraint=f, replicas=3, seed=10, l_star=8)
        assert rep["constraint"] == f.name
        assert len(rep["grid"]) == 2

    def test_threads_do_not_change_results(self, law):
        a = g.limit_report("band-volume", law, [2000], replicas=4, seed=11)
        b = g.limit_report("band-volume", law, [2000], replicas=4, seed=11, threads=2)
        assert a == b


class TestLocalTimeProbe:
    def test_probe_reports_inexact_and_flags_small_budgets(self, law):
        rep = g.local_time_law_probe(law, [16, 4000], replicas=10, seed=12)
        assert rep["exact"] is False
        rows = {row["n"]: row for row in rep["grid"]}
        assert rows[16]["feasible"] is False
        assert rows[4000]["feasible"] is True
        assert "ks_distance" in rows[4000]
        assert rows[4000]["half_normal_mean"] == pytest.approx(math.sqrt(2 / math.pi))
