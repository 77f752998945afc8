import math
import tracemalloc

import numpy as np
import pytest

import gwrange as g
from gwrange import rng as rngmod
from gwrange.errors import AncestryError
from gwrange.quenched import phi
from conductance_oracle import conductance_H
from identity_oracle import cross_check


class TestClosedForm:
    def test_child_of_root_zero_potential(self):
        t = g.tree_from_parents([-1, 0], [0.0, 0.0])
        assert g.hit_before_return(t, 0, 1) == pytest.approx(0.5, abs=1e-15)

    def test_child_of_root_general_potential(self):
        v = 0.8
        t = g.tree_from_parents([-1, 0], [0.0, v])
        expect = math.exp(-v) / (1.0 + math.exp(-v))
        assert g.hit_before_return(t, 0, 1) == pytest.approx(expect, rel=1e-12)

    def test_target_equals_start(self, small_tree):
        x = int(small_tree.generation_ids(4)[0])
        assert g.hit_before_return(small_tree, x, x) == pytest.approx(1.0)

    def test_off_line_rejected(self, small_tree):
        a, b = (int(v) for v in small_tree.generation_ids(4)[:2])
        with pytest.raises(AncestryError):
            g.hit_before_return(small_tree, a, b)

    def test_strictly_decreasing_along_descent(self, medium_tree):
        t = medium_tree
        x = int(t.generation_ids(9)[5])
        chain = t.ancestor_chain(x)
        probs = [g.hit_before_return(t, 0, int(z)) for z in chain[1:]]
        assert all(b < a for a, b in zip(probs, probs[1:]))

    def test_markov_factorization_exact(self, medium_tree):
        t = medium_tree
        rng = np.random.default_rng(5)
        for x in rng.choice(t.generation_ids(8), 10):
            x = int(x)
            chain = t.ancestor_chain(x)
            z = int(chain[rng.integers(1, len(chain) - 1)])
            lhs = g.hit_before_return(t, 0, x)
            rhs = g.hit_before_return(t, 0, z) * g.hit_before_return(t, z, x)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestOracle:
    def test_boundary_condition(self, small_tree):
        x = int(small_tree.generation_ids(3)[0])
        assert g.hit_before_return_oracle(small_tree, x, x) == pytest.approx(1.0)

    def test_agreement_random_instances(self, law):
        worst = 0.0
        for case in range(40):
            rng = rngmod.stream(900, "oracle", case)
            tree = g.generate(law, int(rng.integers(3, 8)), rng=rng)
            ids = tree.generation_ids(tree.depth)
            x = int(ids[rng.integers(len(ids))])
            chain = tree.ancestor_chain(x)
            z = int(chain[rng.integers(len(chain))])
            worst = max(worst, cross_check(tree, z, x))
        assert worst < 1e-10

    def test_unary_chain_matches_gambler_ruin(self):
        # single path: explicit birth-death reduction
        disps = [0.0, 0.3, -0.2, 0.5, 0.1]
        parents = [-1, 0, 1, 2, 3]
        t = g.tree_from_parents(parents, disps)
        x = 4
        closed = g.hit_before_return(t, 0, x)
        solved = g.hit_before_return_oracle(t, 0, x)
        # gambler's ruin with site-dependent conductances exp(-V)
        V = t.V
        resist = [math.exp(V[i]) for i in range(5)]  # edge (i-1, i) resistance
        expect = resist[0] / sum(resist)  # start after the first edge
        # direct check of the closed form against first principles:
        assert closed == pytest.approx(1.0 / sum(math.exp(V[i]) for i in range(5)),
                                       rel=1e-12)
        assert solved == pytest.approx(closed, abs=1e-10)

    def test_agreement_on_large_tree(self, law):
        tree = g.generate(law, 12, seed=5)
        assert tree.size > 20_000
        rng = np.random.default_rng(12)
        for gen in (12, 12, 7):
            ids = tree.generation_ids(gen)
            x = int(ids[rng.integers(len(ids))])
            chain = tree.ancestor_chain(x)
            for z in (0, int(chain[rng.integers(len(chain))])):
                assert g.hit_before_return_oracle(tree, z, x) == pytest.approx(
                    g.hit_before_return(tree, z, x), rel=1e-12)

    def test_agreement_with_childless_interior_vertices(self):
        # vertices 2 (generation 1), 5 and 7 (generation 3) have no children
        # above the generation-4 frontier
        parents = [-1, 0, 0, 1, 1, 3, 3, 4, 6]
        t = g.tree_from_parents(parents, [0.0, 0.4, -0.3, 0.2, 0.7, -0.5, 0.1, 0.3, -0.2])
        assert t.depth == 4 and [int(t.n_children[u]) for u in (2, 5, 7)] == [0, 0, 0]
        for x in range(t.size):
            for z in t.ancestor_chain(x):
                assert g.hit_before_return_oracle(t, int(z), x) == pytest.approx(
                    g.hit_before_return(t, int(z), x), rel=1e-12)

    def test_disagreement_dump(self, small_tree, tmp_path):
        x = int(small_tree.generation_ids(4)[0])
        path = tmp_path / "dump.tree"
        gap = cross_check(small_tree, 0, x, tol=1e-9, dump_path=path)
        assert gap < 1e-9
        assert not path.exists()


class TestQuenchedMeanQuasiIndependent:
    def test_two_unrelated_vertices(self):
        # root with two children u, v in the band
        t = g.tree_from_parents([-1, 0, 0], [0.0, 0.2, 0.5])
        s = 7
        val = g.quenched_mean_quasi_independent(t, 1, 1, s, 2)
        wu = t.exp_neg_v[1] / conductance_H(t, 1)
        wv = t.exp_neg_v[2] / conductance_H(t, 2)
        assert val == pytest.approx(2 * s * (s - 1) * wu * wv, rel=1e-12)

    def test_single_excursion_gives_zero(self):
        t = g.tree_from_parents([-1, 0, 0], [0.0, 0.2, 0.5])
        assert g.quenched_mean_quasi_independent(t, 1, 1, 1, 2) == 0.0

    def test_matches_monte_carlo(self, law):
        # small instance: fixed tree, many walks; the identity is exact in
        # the quenched law, so the empirical mean must match within 4 SE
        from gwrange.walk import range_slice, run_excursions
        from quasi_independent_oracle import sum_quasi_independent

        tree = g.generate(law, 7, seed=404)
        lo, hi, s = 2, 4, 6
        warmup = 3
        exact = g.quenched_mean_quasi_independent(tree, lo, hi, s, 2, warmup=warmup)
        reps = 2000
        vals = np.empty(reps)
        for i in range(reps):
            trace = run_excursions(tree, s, rngmod.stream(405, "mcq", i))
            sl = range_slice(trace, tree, lo, hi)
            vals[i] = sum_quasi_independent(sl, 2, warmup=warmup)
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - exact) <= 4 * se


class TestPhi:
    def test_degenerate_depth(self, law):
        val, se = phi(law, 5, 5, 1.0)
        assert val == 1.0 and se == 0.0

    @pytest.mark.parametrize("replicas", [0, 1])
    @pytest.mark.parametrize("mode,p", [("tree", 6), ("tilted", 6), ("auto", 2)])
    def test_fewer_than_two_replicas_refused(self, law, replicas, mode, p):
        with pytest.raises(ValueError, match="replicas"):
            phi(law, p, 2, 2.0, replicas=replicas, mode=mode)

    def test_non_increasing_in_r(self, law):
        vals = []
        for r in (1.0, 2.0, 4.0, 8.0):
            v, _ = phi(law, 12, 4, r, replicas=4000, rng=rngmod.stream(1, "phi"))
            vals.append(v)
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_tree_and_tilted_modes_agree(self, law):
        v_tree, se_tree = phi(law, 9, 3, 2.0, replicas=3000,
                              rng=rngmod.stream(2, "phi"), mode="tree")
        v_tilt, se_tilt = phi(law, 9, 3, 2.0, replicas=40_000,
                              rng=rngmod.stream(3, "phi"), mode="tilted")
        assert abs(v_tree - v_tilt) <= 4 * math.hypot(se_tree, se_tilt)

    def test_extinguishing_law_tree_matches_tilted(self, extinguishing_law):
        # trees that die out count as zero: tree mode is the annealed mean
        v_tree, se_tree = phi(extinguishing_law, 3, 0, 2.0, replicas=20_000,
                              rng=rngmod.stream(6, "phi"), mode="tree")
        v_tilt, se_tilt = phi(extinguishing_law, 3, 0, 2.0, replicas=20_000,
                              rng=rngmod.stream(7, "phi"), mode="tilted")
        assert abs(v_tree - v_tilt) <= 4 * math.hypot(se_tree, se_tilt)

    def test_tree_mode_memory_flat_in_replicas(self, law):
        def peak(replicas):
            tracemalloc.start()
            try:
                phi(law, 8, 0, 2.0, replicas=replicas, rng=rngmod.stream(8, "phi"),
                    mode="tree")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2000) < 1.5 * peak(500)

    def test_limit_is_c_infinity(self, law):
        v, se = phi(law, 210, 10, 1.0, replicas=60_000, rng=rngmod.stream(4, "phi"))
        est = g.estimate_c_infinity(law, truncation=200, replicas=60_000,
                                    rng=rngmod.stream(5, "phi"))
        assert abs(v - est.value) <= 4 * math.hypot(se, est.se)
