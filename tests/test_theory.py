import ast
import inspect
import json
import math
import textwrap
import tracemalloc

import numpy as np
import pytest

import gwrange as g
from gwrange import rng as rngmod
from gwrange import environment, theory
from gwrange import tree as treemod
from gwrange import rangestats
from gwrange.errors import CombinatorialCapError, DomainError, ScheduleInfeasibleError, SignatureError
from gwrange.genealogy import (IncreasingCollection, Partition, genealogy_indicator,
                               pairwise_split_requirements)
from gwrange.theory import desk_band
from identity_oracle import signature_sum_identity, split_bound_sum_identity

P = Partition.make


@pytest.fixture(scope="module")
def pair_collection():
    return IncreasingCollection((P([[1, 2]]), P([[1], [2]])))


# (k, split times, collection) of the signature means checked below
SHAPES = {
    "pair@3": (2, (3,), IncreasingCollection((P([[1, 2]]), P([[1], [2]])))),
    "triple@(2,3)": (3, (2, 3), IncreasingCollection(
        (P([[1, 2, 3]]), P([[1, 3], [2]]), P([[1], [2], [3]])))),
    "quad@(1,2)": (4, (1, 2), IncreasingCollection(
        (P([[1, 2, 3, 4]]), P([[1, 2], [3, 4]]), P([[1], [2], [3], [4]])))),
}


def forest_tree(forest, i):
    """Tree ``i`` of a forest block as a MarkedTree down to its last
    nonempty generation, laid out by tree_from_parents."""
    parents, disps = [[treemod.PARENT_OF_ROOT]], [[0.0]]
    prev, base = i, 0  # first row of tree i in the level above, and its id
    for gen in range(1, len(forest.V)):
        lo, hi = np.searchsorted(forest.root[gen], (i, i + 1))
        rows = forest.parent[gen][lo:hi]
        parents.append(rows - prev + base)
        disps.append(forest.V[gen][lo:hi] - forest.V[gen - 1][rows])
        base += len(parents[-2])
        prev = lo
    return g.tree_from_parents(np.concatenate(parents), np.concatenate(disps))


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

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("which", ["default", "extinguishing"])
    def test_reference_sums_match_per_tree_enumeration(self, shape, which, law,
                                                       extinguishing_law):
        # the array passes against reference_tuple_sum with the genealogy
        # indicator on each tree of the block, rebuilt as a MarkedTree
        law = {"default": law, "extinguishing": extinguishing_law}[which]
        k, svec, coll = SHAPES[shape]
        depth = svec[-1]
        forest = next(treemod.sample_forest(law, depth, 30, rngmod.stream(10, "est", shape)))
        vals = theory._reference_sums(forest, k, svec, coll)
        counts = np.bincount(forest.root[-1], minlength=30)
        expected = np.zeros(30)
        for i in np.flatnonzero(counts >= k):
            t = forest_tree(forest, int(i))
            ids = t.generation_ids(depth)
            expected[i] = rangestats.reference_tuple_sum(
                t, ids, k, lambda tree, xs: genealogy_indicator(tree, xs, svec, coll),
                [t.exp_neg_v[ids]] * k)[0]
        assert (expected > 0).any()
        if which == "extinguishing":
            assert (counts == 0).any()  # trees that died out sum to 0
        assert vals == pytest.approx(expected, rel=1e-12, abs=0)

    def test_reference_path_refuses_beyond_tuple_cap(self, law, pair_collection,
                                                     monkeypatch):
        # a depth-3 tree with three or more deepest vertices has 6 ordered pairs
        monkeypatch.setattr(rangestats, "DEFAULT_TUPLE_CAP", 5)
        with pytest.raises(CombinatorialCapError, match="exceed cap 5"):
            g.estimate_esp_partition(law, 2, (3,), pair_collection, 500,
                                     rngmod.stream(11, "est"), fast=False)

    def test_reference_sums_memory_bounded(self, law):
        # about 2^16 tuples at a time: this 2000-tree triple block lists
        # 2.1M tuples, which one unchunked pass holds in about 28 MiB
        k, svec, coll = SHAPES["triple@(2,3)"]
        forest = next(treemod.sample_forest(law, svec[-1], 2000, rngmod.stream(12, "est")))
        tracemalloc.start()
        try:
            theory._reference_sums(forest, k, svec, coll)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

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

    def test_depth_capped_by_node_budget(self, law, monkeypatch):
        monkeypatch.setattr(treemod, "DEFAULT_NODE_CAP", 2**20)
        lo, hi = desk_band(law, 10**9)
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

    @pytest.mark.parametrize("experiment, constraint", [
        ("band-volume", None),
        ("constrained-ratio", g.make_f_lambda([3])),
        ("constrained-volume", g.make_F_ell_s(1, [3], 2)),
    ], ids=["band-volume", "constrained-ratio", "constrained-volume"])
    def test_threads_do_not_change_results(self, law, experiment, constraint):
        kw = dict(constraint=constraint, replicas=4, seed=11, l_star=8)
        a = g.limit_report(experiment, law, [2000], **kw)
        b = g.limit_report(experiment, law, [2000], threads=2, **kw)
        assert a == b

    def test_report_same_bytes_with_c_infinity_solved_or_reused(self, law):
        def report():
            rep = g.limit_report("constrained-volume", law, [2000],
                                 constraint=g.make_F_ell_s(1, [3], 2), replicas=3, seed=12,
                                 l_star=8)
            return json.dumps(rep, sort_keys=True).encode()

        first = report()
        assert report() == first
        environment._c_infinity_solved.cache_clear()
        assert report() == first

    @pytest.mark.parametrize("experiment", ["band-volume", "constrained-volume",
                                            "constrained-ratio"])
    def test_reports_run_no_monte_carlo_c_infinity(self, law, monkeypatch, experiment):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{experiment} ran the Monte Carlo c_inf estimator")

        monkeypatch.setattr(environment, "estimate_c_infinity", refuse)
        monkeypatch.setattr(theory, "estimate_c_infinity", refuse, raising=False)
        rep = g.limit_report(experiment, law, [2000], constraint=g.make_f_m(5),
                             replicas=3, seed=10, l_star=8)
        assert len(rep["grid"]) == 1
        if experiment == "constrained-ratio":
            assert "c_infinity" not in rep
        else:
            assert rep["c_infinity"]["method"] == "deterministic"
            assert rep["c_infinity"]["value"] == g.c_infinity(law).value


    @pytest.mark.parametrize("experiment, constraint, grid, reason", [
        ("bogus", None, [2000, 4000], "unknown experiment 'bogus'"),
        ("constrained-volume", None, [2000, 4000], "constrained-volume needs a constraint"),
        ("constrained-ratio", None, [2000], "constrained-ratio needs a constraint"),
        ("split-cdf", None, [2000], "split-cdf needs 2 or more budgets, got 1"),
        ("band-volume", None, [], "band-volume needs 1 or more budgets, got 0"),
    ], ids=["unknown", "volume-no-constraint", "ratio-no-constraint", "split-one-budget",
            "empty-grid"])
    def test_refused_before_any_replica(self, law, monkeypatch, experiment, constraint,
                                        grid, reason):
        def refuse(*args, **kwargs):
            raise AssertionError("a replica was drawn")

        monkeypatch.setattr(theory, "map_replicas", refuse)
        monkeypatch.setattr(theory, "c_infinity", refuse)
        assert theory.limit_report_problem(experiment, constraint, grid) == reason
        with pytest.raises(ValueError, match=f"^{reason}$"):
            g.limit_report(experiment, law, grid, constraint=constraint, replicas=3)

    def test_limit_report_names_no_experiment(self):
        # experiments differ only by their table entry: below its docstring,
        # limit_report compares against no experiment name
        assert list(theory.EXPERIMENTS) == ["band-volume", "excursion-classes", "split-cdf",
                                            "constrained-volume", "constrained-ratio"]
        body = ast.parse(textwrap.dedent(inspect.getsource(theory.limit_report))).body[0].body
        consts = {node.value for stmt in body[1:] for node in ast.walk(stmt)
                  if isinstance(node, ast.Constant)}
        assert consts.isdisjoint(theory.EXPERIMENTS)
        assert "tuples_per_run" not in inspect.signature(g.limit_report).parameters


class TestBandWithoutAdmissibleTuple:
    def test_one_line_band_samples_nothing(self):
        # every visited band vertex lies on one line of descent: the band has
        # vertices but no admissible pair or triple to sample
        from gwrange.cli import _genealogy_measure

        tree = g.tree_from_parents([-1, 0, 0, 1, 3, 4], [0.0, 0.1, 0.3, 0.2, 0.1, 0.2])
        trace = g.run_excursions(tree, 400, rngmod.stream(12, "w"))
        sl = g.range_slice(trace, tree, 2, 4)
        assert list(sl.ids) == [3, 4, 5]
        run = theory._band_measure(True, 50, 12, 100, 0, sl)
        assert run.class_masses["total"] == 0 and run.split_samples is None
        assert theory._band_measure(False, 50, 12, 100, 0, sl).split_samples is None
        assert _genealogy_measure(2, 20, 12, 100, 0, sl) == []
        assert _genealogy_measure(3, 20, 12, 100, 0, sl) == []


class TestLocalTimeProbe:
    def test_probe_reports_inexact_and_flags_small_budgets(self, law):
        rep = g.local_time_law_probe(law, [16, 4000], replicas=10, seed=12)
        assert rep["exact"] is False
        rows = {row["n"]: row for row in rep["grid"]}
        assert rows[16]["feasible"] is False
        assert rows[4000]["feasible"] is True
        assert "ks_distance" in rows[4000]
        assert rows[4000]["half_normal_mean"] == pytest.approx(math.sqrt(2 / math.pi))
