"""Partial trees drawn one generation ahead of the walk (tree.grow)."""

import math
import tracemalloc

import numpy as np
import pytest

import gwrange as g
from gwrange import rng as rngmod
from gwrange.errors import QueryError
from gwrange.quenched import quenched_mean_quasi_independent
from gwrange.rangestats import excursion_class_masses
from gwrange.theory import map_replicas, run_band_experiment
from test_walk import _two_sample_z

N, BAND = 2500, (8, 11)  # 50 excursions; a depth-11 tree has about 4k vertices
S = math.ceil(math.sqrt(N))


def _walked(law, seed, rep=0, depth=BAND[1]):
    tree = g.grow(law, depth, rngmod.stream(seed, f"tree/{N}", rep))
    return tree, g.run_excursions(tree, S, rngmod.stream(seed, f"walk/{N}", rep))


def _replica_stats(seed, n, rep, sl):
    m = excursion_class_masses(sl)
    top = sl.tree.filled(BAND[0], rngmod.stream(seed, f"fill/{n}", rep))
    return [sl.size, len(sl.trace.ids), m["distinct"], m["same-single"],
            g.additive_martingale(sl.tree, sl.tree.depth), g.weighted_range_A_l(top, 2, BAND[0])]


def _trace_arrays(seed, n, rep, sl):
    t = sl.trace
    return ([a.tolist() for a in (t.ids, t.local_time, t.edge_local_time, t.return_steps,
                                  sl.ids)]
            + [g.additive_martingale(sl.tree, sl.tree.depth).hex()])


class TestStructure:
    def test_holds_entered_vertices_and_their_children(self, law):
        tree, trace = _walked(law, 3)
        assert tree.partial and tree.depth == BAND[1]
        kids = np.arange(1, tree.size)
        assert np.all(np.diff(tree.gen) >= 0) and np.all(tree.parent[kids] < kids)
        assert np.array_equal(tree.V[kids], tree.V[tree.parent[kids]] + tree.disp[kids])
        assert np.array_equal(np.bincount(tree.gen, minlength=tree.depth + 1),
                              np.diff(tree.gen_offsets))
        # children were drawn for exactly the entered vertices above the depth,
        # and every drawn vertex but the root is such a child
        entered = np.zeros(tree.size, dtype=bool)
        entered[trace.ids] = True
        above = tree.gen < tree.depth
        assert np.array_equal(tree.first_child[above] >= 0, entered[above])
        assert np.array_equal(np.flatnonzero(tree.n_children), trace.ids[trace.gens < tree.depth])
        for x in trace.ids[trace.gens < tree.depth][:50]:
            assert np.array_equal(tree.parent[tree.children(x)], [x] * tree.n_children[x])
        # frontier weights exist exactly for the entered frontier vertices
        frontier = np.arange(tree.gen_offsets[tree.depth], tree.size)
        assert np.array_equal(np.isfinite(tree.halo_weight), entered[frontier])

    def test_generations_grow_in_order(self):
        tree = g.grow(g.gaussian_law(), 4, rngmod.stream(5, "tree"))
        with pytest.raises(QueryError):
            tree.draw_children(1, [1])
        tree.draw_children(0, [0, 0])
        tree.draw_children(0, [0])  # already drawn: nothing to do
        assert tree.size == 3 and list(tree.children(0)) == [1, 2]
        tree.draw_children(1, [1])
        assert tree.size == 5 and tree.first_child[2] == -1
        with pytest.raises(QueryError):  # generation 1 is grown without vertex 2
            tree.draw_children(1, [2])

    def test_filled_keeps_drawn_vertices(self, law):
        tree, _ = _walked(law, 10)
        top = 6
        full = tree.filled(top, rngmod.stream(10, "fill"))
        assert not full.partial and full.depth == top
        for gen in range(top + 1):
            drawn = tree.V[tree.gen_offsets[gen] : tree.gen_offsets[gen + 1]]
            assert np.isin(drawn, full.V[full.gen_offsets[gen] : full.gen_offsets[gen + 1]]).all()
        assert full.generation_size(top) > tree.generation_size(top)

    def test_complete_tree_untouched_by_walk(self, law):
        tree = g.generate(law, 8, seed=41)
        before = [a.copy() for a in (tree.parent, tree.V, tree.first_child, tree.halo_weight)]
        g.run_excursions(tree, 200, rngmod.stream(42, "w"))
        after = (tree.parent, tree.V, tree.first_child, tree.halo_weight)
        assert not tree.partial and all(map(np.array_equal, before, after))


class TestRefusals:
    @pytest.mark.parametrize("reader", [
        lambda t, p: t.generation_ids(3),
        lambda t, p: t.levels(3),
        lambda t, p: g.weighted_range_A_l(t, 2, 3),
        lambda t, p: quenched_mean_quasi_independent(t, 2, 4, 10, 2),
        lambda t, p: g.hit_before_return_oracle(t, 0, 0),
        lambda t, p: g.save_snapshot(t, p / "tree.txt"),
    ], ids=["generation_ids", "levels", "weighted_range_A_l", "quenched_mean_quasi_independent",
            "hit_before_return_oracle", "save_snapshot"])
    def test_whole_generation_readers_refuse(self, law, tmp_path, reader):
        tree, _ = _walked(law, 4)
        with pytest.raises(QueryError):
            reader(tree, tmp_path)
        assert not (tmp_path / "tree.txt").exists()


class TestMartingale:
    def test_complete_tree_gives_w_bitwise(self, law, extinguishing_law):
        trees = [g.generate(law, 9, seed=43), g.generate(extinguishing_law, 9, seed=44),
                 g.tree_from_parents([-1, 0, 0, 1, 1, 2], [0.0, 0.3, -0.2, 0.1, 0.4, 0.2])]
        for t in trees:
            for n in range(t.depth + 1):
                lo, hi = t.gen_offsets[n], t.gen_offsets[n + 1]
                assert g.additive_martingale(t, n) == float(np.exp(-t.V[lo:hi]).sum())

    @pytest.mark.parametrize("make_law", [g.default_law, g.gaussian_law],
                             ids=["default", "gaussian"])
    def test_conditional_mean_unbiased(self, make_law):
        # W_D of the tree completed below the drawn part, less its mean given
        # the drawn part, averages to 0
        law, reps = make_law(), 300
        res = np.empty(reps)
        for rep in range(reps):
            tree, _ = _walked(law, 6, rep)
            full = tree.filled(tree.depth, rngmod.stream(6, f"fill/{N}", rep))
            assert full.depth == tree.depth and full.size >= tree.size
            res[rep] = (g.additive_martingale(full, tree.depth)
                        - g.additive_martingale(tree, tree.depth))
        se = res.std(ddof=1) / math.sqrt(reps)
        assert se > 0 and abs(res.mean()) <= 4 * se, (res.mean(), se)


class TestReplicas:
    @pytest.mark.parametrize("make_law", [g.default_law, g.gaussian_law],
                             ids=["default", "gaussian"])
    def test_equal_law_with_generated_trees(self, make_law):
        # band count, visited-set size, class masses, martingale_depth and
        # the pair sum at the band's lower edge of the filled top, for
        # walk-drawn replicas against run_excursions on generate trees
        # (whose martingale_depth is W_D itself), on independent streams
        law, reps = make_law(), 250
        drawn = map_replicas(law, N, reps, 7, BAND, _replica_stats)
        whole = []
        for rep in range(reps):
            tree = g.generate(law, BAND[1], rng=rngmod.stream(8, f"tree/{N}", rep))
            trace = g.run_excursions(tree, S, rngmod.stream(8, f"walk/{N}", rep))
            whole.append(_replica_stats(8, N, rep, g.range_slice(trace, tree, *BAND)))
        z = _two_sample_z(drawn, whole)
        assert (z <= 4.0).all(), z

    def test_extinct_law_replicas_keep_generate(self, extinguishing_law):
        # a law that can die out draws whole trees, as before, on the same streams
        got = map_replicas(extinguishing_law, N, 3, 9, BAND, _trace_arrays)
        want = []
        for rep in range(3):
            tree = g.generate(extinguishing_law, BAND[1], rng=rngmod.stream(9, f"tree/{N}", rep))
            trace = g.run_excursions(tree, S, rngmod.stream(9, f"walk/{N}", rep))
            want.append(_trace_arrays(9, N, rep, g.range_slice(trace, tree, *BAND)))
        assert got == want

    def test_one_replica_memory_bounded(self, law):
        # a whole tree to the n=1e6 desk depth holds millions of vertices
        # (hundreds of MB); the walk-drawn one holds thousands
        tracemalloc.start()
        try:
            (run,) = run_band_experiment(law, 10**6, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run.band_count > 0
        assert peak < 16 * 2**20, peak
