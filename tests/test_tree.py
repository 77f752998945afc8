import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sstats

import gwrange as g
from gwrange import rng as rngmod
from gwrange import tree as treemod
from gwrange.errors import AncestryError, QueryError, ResourceLimitError
from gwrange.tree import VirtualLeaf, conductance_levels
from conductance_oracle import conductance_H, partial_H
from test_walk import WALK_DIGESTS

_ANCESTRY_TREE = g.generate(g.default_law(), 6, seed=101)


class TestGeneration:
    def test_depth_one_offspring_frequencies(self, law):
        rng = rngmod.stream(1, "gen")
        ones = 0
        draws = 10_000
        for _ in range(draws):
            counts, disp = law.sample_generation(rng, 1)
            assert counts[0] in (1, 3)
            if counts[0] == 1:
                ones += 1
                assert disp[0] == pytest.approx(-0.1)
            else:
                assert np.allclose(disp, law.b)
        freq = ones / draws
        assert abs(freq - 0.5) < 4 * math.sqrt(0.25 / draws)

    def test_truncation_contract(self, law):
        tree = g.generate(law, 5, seed=9)
        # no extinction for the default law: every interior node has children
        for x in range(tree.size):
            if tree.gen[x] < tree.depth:
                assert tree.n_children[x] in (1, 3)
            else:
                assert tree.n_children[x] == 0

    def test_mean_generation_sizes(self, law):
        trees = 1000
        sizes = np.empty((trees, 8))
        rng = rngmod.stream(3, "gen")
        for i in range(trees):
            t = g.generate(law, 7, rng=rng)
            sizes[i] = [t.generation_size(gn) for gn in range(8)]
        for gn in range(8):
            mean = sizes[:, gn].mean()
            se = sizes[:, gn].std(ddof=1) / math.sqrt(trees)
            assert abs(mean - 2.0**gn) <= max(4 * se, 1e-9), gn

    def test_offspring_marginal_chi_square(self, law):
        rng = rngmod.stream(4, "gen")
        counts, _ = law.sample_generation(rng, 10_000)
        observed = np.array([(counts == 1).sum(), (counts == 3).sum()])
        res = sstats.chisquare(observed, f_exp=[5000, 5000])
        assert res.pvalue > 0.01

    def test_node_cap(self, law):
        with pytest.raises(ResourceLimitError):
            g.generate(law, 40, seed=1)

    def test_seed_extends_realization(self, law):
        t1 = g.generate(law, 4, seed=77)
        t2 = g.generate(law, 6, seed=77)
        n = t1.size
        assert np.array_equal(t1.parent, t2.parent[:n])
        assert np.array_equal(t1.V, t2.V[:n])
        # the depth-4 frontier weights sum generation 5 of the deeper tree
        ids = t2.generation_ids(5)
        below = np.bincount(t2.parent[ids] - t2.gen_offsets[4], weights=t2.exp_neg_v[ids],
                            minlength=t1.generation_size(4))
        assert np.array_equal(t1.halo_weight, below)

    def test_extinction_rejection_reported(self):
        law = g.generic_law([(0.3, ()), (0.7, (0.2, 0.5))])
        tree = g.generate(law, 4, seed=5)
        assert tree.gen.max() == 4
        assert tree.regen_attempts >= 0

    def test_peak_memory_is_the_finished_tree(self):
        # the per-level draws are freed as the arrays are laid out, so the
        # peak is the finished tree plus the temporaries of one frontier block
        tracemalloc.start()
        try:
            tree = g.generate(g.default_law(), 18, rng=rngmod.stream(1, "q", 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = sum(getattr(tree, arr).nbytes for arr in TREE_ARRAYS)
        assert peak <= arrays + 4 * 2**20


# sha256 prefixes of every array of `generate`, pinned from the per-parent
# sampler that the scatter sampler replaced: (regen_attempts, size, digests
# of parent, gen, disp, V, first_child, n_children, gen_offsets, halo_weight).
TREE_ARRAYS = ("parent", "gen", "disp", "V", "first_child", "n_children",
               "gen_offsets", "halo_weight")
TREE_DTYPES = ("<i8", "<i4", "<f8", "<f8", "<i8", "<i4", "<i8", "<f8")
TREE_DIGESTS = {
    "default-seed": (
        0, 11719,
        ("267aba7885b4a173", "88ebfb3c93bb1fa2", "12bb5a3687512aa0", "2e70111333bb2ca3",
         "c17b0a3cf8a0b4b7", "787fd9aaad6a6ddb", "ff64869b3a66395d", "02b8eef7dc6e6906"),
    ),
    "default-rng": (
        0, 4571,
        ("043588bfddba089a", "dbef18378c6891b7", "fbd556c761d6364c", "22f3efaa0b6d982e",
         "f4697e8010ed67d9", "57a06b8b88773ea3", "1e1c0266e2a9becd", "4a29f66bc6a07d1b"),
    ),
    "mixed-seed": (
        0, 11643,
        ("c7367b8a9689c845", "d6e41b8c37e4523d", "e87f935d1e2ac6ac", "d0867fba01eca023",
         "79a90376066c3d5e", "6c4313d899af0098", "7fe2b8bd88f6152f", "d7544d55d2a8963b"),
    ),
    "mixed-rng": (
        0, 10631,
        ("c50d82286d86cee0", "fb5e8385709091df", "1889c4cfafd4f1ac", "cc5df497df743ffa",
         "4bde228f16141fac", "390a06911cfe57b6", "171e6e85e6759ba8", "3a838a0bfe73ba0d"),
    ),
    "extinct-seed": (
        5, 373,
        ("3847f378c3f66e2a", "50165b5aef0c9727", "cb6383dd8aaef27a", "a39bd64a78f0570b",
         "3ec69139128121ef", "d46b3c12aa21575a", "63122e916823ff93", "8ab3082546760527"),
    ),
    "extinct-rng": (
        2, 265,
        ("cd41571c5d47edab", "5331bc3811eae6c5", "53d00d0dd2300ada", "9930c2587e37324e",
         "5876c099d30cf56d", "5ffbce7e7e22a842", "cd8b23161627f230", "ca1114798ba34f7e"),
    ),
    "gaussian-seed": (
        0, 8191,
        ("227c6084c3ec82c4", "6f6dbb16671bed59", "5648bfb654451f05", "50fb35fe60e89962",
         "1a7f2f1fb4b0564b", "e609590792e0b9ec", "139d6a100a13c6b1", "3b64ee88c4d93988"),
    ),
    "gaussian-rng": (
        0, 8191,
        ("227c6084c3ec82c4", "6f6dbb16671bed59", "9da6a78da3f0b9fb", "76665985211e618e",
         "1a7f2f1fb4b0564b", "e609590792e0b9ec", "139d6a100a13c6b1", "4abc672681af26fe"),
    ),
}


def _digest_case(name):
    family, source = name.split("-")
    law, depth, seed = {
        "default": (g.default_law(), 12, 2024),
        # distinct displacements per child slot and three atom sizes
        "mixed": (g.generic_law([(0.2, (-0.3,)), (0.5, (0.1, 0.6, 1.2)),
                                 (0.3, (0.4, 0.9))]), 10, 2024),
        # a zero-child atom: extinct attempts are redrawn
        "extinct": (g.generic_law([(0.3, ()), (0.7, (0.2, 0.5))]), 12, 3),
        "gaussian": (g.gaussian_law(), 12, 2024),
    }[family]
    if source == "seed":
        return g.generate(law, depth, seed=seed)
    return g.generate(law, depth, rng=np.random.default_rng(seed))


class TestGenerationDigests:
    @pytest.mark.parametrize("name", sorted(TREE_DIGESTS))
    def test_arrays_bitwise_pinned(self, name):
        attempts, size, digests = TREE_DIGESTS[name]
        tree = _digest_case(name)
        assert tree.regen_attempts == attempts
        assert tree.size == size
        for arr, dtype, want in zip(TREE_ARRAYS, TREE_DTYPES, digests):
            a = getattr(tree, arr)
            assert a.dtype.str == dtype, arr
            got = hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]
            assert got == want, arr

    @pytest.mark.parametrize("name", sorted(TREE_DIGESTS))
    def test_frontier_blocks_bitwise_pinned(self, name, monkeypatch):
        # frontier weights drawn in uneven blocks consume the same stream
        monkeypatch.setattr(treemod, "FRONTIER_BLOCK", 7)
        self.test_arrays_bitwise_pinned(name)

    def test_first_child_matches_layout(self):
        tree = _digest_case("extinct-seed")
        for x in range(tree.size):
            kids = np.flatnonzero(tree.parent == x)
            assert tree.n_children[x] == len(kids)
            if len(kids):
                assert tree.first_child[x] == kids[0]
                assert np.array_equal(kids, tree.children(x))


@st.composite
def _breadth_first_trees(draw):
    """(parents, displacements) of a tree listed breadth first: vertex x has
    ``counts[x]`` children, and vertices past the drawn counts have none."""
    counts = draw(st.lists(st.integers(0, 3), max_size=40))
    parents, x = [-1], 0
    while x < min(len(parents), len(counts)):
        parents += [x] * counts[x]
        x += 1
    disps = draw(st.lists(st.floats(-3.0, 3.0), min_size=len(parents) - 1,
                          max_size=len(parents) - 1))
    return parents, [0.0] + disps


def _reference_layout(parents, disps):
    """Every array of ``tree_from_parents``, vertex by vertex in id order."""
    size = len(parents)
    gen, V = [0] * size, [0.0] * size
    for i in range(1, size):
        gen[i] = gen[parents[i]] + 1
        V[i] = V[parents[i]] + disps[i]
    depth = max(gen)
    n_children = [parents.count(x) for x in range(size)]
    first_child = [1 + sum(n_children[:x]) if gen[x] < depth else -1 for x in range(size)]
    gen_offsets = [sum(1 for h in gen if h < d) for d in range(depth + 2)]
    return dict(parent=parents, gen=gen, disp=disps, V=V, first_child=first_child,
                n_children=n_children, gen_offsets=gen_offsets,
                halo_weight=[0.0] * gen.count(depth)), depth


class TestTreeFromParents:
    @settings(max_examples=200, deadline=None)
    @given(case=_breadth_first_trees())
    def test_matches_per_vertex_reference(self, case):
        parents, disps = case
        tree = g.tree_from_parents(parents, disps)
        want, depth = _reference_layout(parents, disps)
        assert tree.depth == depth
        for arr, dtype in zip(TREE_ARRAYS, TREE_DTYPES):
            got = getattr(tree, arr)
            assert got.dtype.str == dtype, arr
            assert np.array_equal(got, np.array(want[arr], dtype=dtype)), arr

    @pytest.mark.parametrize("parents", [[-1, 0, 2], [-1, 1], [-1, -1, 0]],
                             ids=["own-parent", "parent-later", "second-root"])
    def test_parent_listed_first_and_one_root(self, parents):
        with pytest.raises(ValueError):
            g.tree_from_parents(parents, [0.0] * len(parents))


class TestPotential:
    def test_recompute_exact(self, medium_tree):
        t = medium_tree
        rng = np.random.default_rng(0)
        for x in rng.integers(0, t.size, 60):
            chain = t.ancestor_chain(int(x))
            v = 0.0
            for node in chain[1:]:
                v = v + t.disp[node]
            assert v == t.V[x]

    def test_root_values(self, small_tree):
        assert small_tree.V[0] == 0.0
        assert small_tree.gen[0] == 0
        assert small_tree.parent[0] == -1


class TestAncestry:
    def test_mrca_reflexive(self, small_tree):
        x = int(small_tree.generation_ids(4)[0])
        assert g.mrca(small_tree, x, x) == x

    def test_siblings_meet_at_parent(self, small_tree):
        t = small_tree
        for x in range(t.size):
            if t.n_children[x] == 3:
                kids = t.children(x)
                assert g.mrca(t, int(kids[0]), int(kids[1])) == x
                break

    def test_virtual_leaf_below_level(self, small_tree):
        x = int(small_tree.generation_ids(2)[0])
        out = g.ancestor_at(small_tree, x, 5, slot=4)
        assert out == VirtualLeaf(4)
        with pytest.raises(QueryError):
            g.ancestor_at(small_tree, x, 5)

    @settings(max_examples=60, deadline=None)
    @given(ids=st.lists(st.integers(0, _ANCESTRY_TREE.size - 1), max_size=12))
    def test_ancestor_forest_matches_chains(self, ids):
        t = _ANCESTRY_TREE
        forest, labels = t.ancestor_forest(ids)
        chains = [t.ancestor_chain(x) for x in ids]
        assert len(labels) == len(forest.V) == max([len(c) for c in chains], default=1)
        for gn, lab in enumerate(labels):
            assert lab.tolist() == sorted({int(c[gn]) for c in chains if len(c) > gn})
            assert np.array_equal(forest.V[gn], t.V[lab])
            assert not forest.root[gn].any()
            if gn:
                assert np.array_equal(labels[gn - 1][forest.parent[gn]], t.parent[lab])
            else:
                assert (forest.parent[0] == -1).all()


class TestConductance:
    def test_root_value(self, small_tree):
        assert conductance_H(small_tree, 0) == pytest.approx(1.0, abs=1e-15)

    def test_two_term_path(self, small_tree):
        c = int(small_tree.children(0)[0])
        v = small_tree.V[c]
        assert conductance_H(small_tree, c) == pytest.approx(
            math.exp(-v) + 1.0, rel=1e-12
        )

    def test_always_at_least_one(self, medium_tree):
        H = conductance_levels(medium_tree.levels(medium_tree.depth))
        assert all((h >= 1.0).all() for h in H)

    def test_level_recursion_matches_scalar(self, medium_tree):
        t = medium_tree
        H = np.concatenate(conductance_levels(t.levels(t.depth)))
        assert len(H) == t.size
        for x in range(t.size):
            assert H[x] == pytest.approx(conductance_H(t, x), rel=1e-12, abs=0)

    def test_decomposition_identity(self, medium_tree):
        t = medium_tree
        rng = np.random.default_rng(8)
        for x in rng.choice(t.generation_ids(9), 20):
            x = int(x)
            chain = t.ancestor_chain(x)
            u = int(chain[rng.integers(1, len(chain))])
            lhs = conductance_H(t, x)
            rhs = (conductance_H(t, u) - 1.0) * math.exp(-(t.V[x] - t.V[u])) + (
                partial_H(t, u, x)
            )
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_partial_requires_ancestry(self, small_tree):
        a, b = (int(v) for v in small_tree.generation_ids(3)[:2])
        with pytest.raises(AncestryError):
            partial_H(small_tree, a, b)


class TestMartingale:
    def test_initial_value(self, small_tree):
        assert g.additive_martingale(small_tree, 0) == 1.0

    def test_mean_one_over_ensemble(self, law):
        trees = 1500
        vals = np.empty(trees)
        rng = rngmod.stream(11, "mart")
        for i in range(trees):
            t = g.generate(law, 6, rng=rng)
            vals[i] = g.additive_martingale(t, 6)
        se = vals.std(ddof=1) / math.sqrt(trees)
        assert abs(vals.mean() - 1.0) <= 4 * se

    def test_frozen_prefix_extension(self, law):
        tree = g.generate(law, 5, seed=31)
        w5 = g.additive_martingale(tree, 5)
        leaves = tree.generation_ids(5)
        rng = rngmod.stream(32, "ext")
        reps = 4000
        vals = np.empty(reps)
        for r in range(reps):
            counts, disp = law.sample_generation(rng, len(leaves))
            child_v = tree.V[np.repeat(leaves, counts)] + disp
            vals[r] = np.exp(-child_v).sum()
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - w5) <= 4 * se


class TestDeltaEnumeration:
    def test_one_generation_count(self, small_tree):
        ids = small_tree.generation_ids(3)
        d = len(ids)
        tuples = list(g.enumerate_delta_k(small_tree, ids, 2))
        assert len(tuples) == d * (d - 1)

    def test_ancestor_pair_excluded(self, small_tree):
        u = int(small_tree.generation_ids(2)[0])
        c = int(small_tree.children(u)[0])
        assert list(g.enumerate_delta_k(small_tree, [u, c], 2)) == []

    def test_three_unrelated_pairs(self, small_tree):
        ids = list(small_tree.generation_ids(4)[:3])
        tuples = list(g.enumerate_delta_k(small_tree, ids, 2))
        assert len(tuples) == 6


class TestSnapshot:
    def test_round_trip(self, law, tmp_path):
        tree = g.generate(law, 4, seed=55)
        path = tmp_path / "tree.txt"
        g.save_snapshot(tree, path)
        back = g.load_snapshot(path)
        assert back.size == tree.size
        assert np.array_equal(back.parent, tree.parent)
        assert np.allclose(back.V, tree.V)
        assert back.law == law
        # the trees of the pinned walk traces, every array bitwise
        for name, (make_law, depth, seed, _) in sorted(WALK_DIGESTS.items()):
            tree = g.generate(make_law(), depth, seed=seed)
            g.save_snapshot(tree, path)
            back = g.load_snapshot(path)
            for arr in TREE_ARRAYS:
                assert np.array_equal(getattr(back, arr), getattr(tree, arr)), (name, arr)
                assert getattr(back, arr).dtype == getattr(tree, arr).dtype, (name, arr)

    def test_round_trip_extinguishing_law(self, tmp_path):
        # childless interior vertices keep the first-child position of generate
        tree = g.generate(g.generic_law([(0.3, ()), (0.7, (0.2, 0.5))]), 12, seed=3)
        path = tmp_path / "tree.txt"
        g.save_snapshot(tree, path)
        back = g.load_snapshot(path)
        for arr in TREE_ARRAYS:
            assert np.array_equal(getattr(back, arr), getattr(tree, arr)), arr

    def test_children_listed_in_parent_order(self):
        with pytest.raises(ValueError):
            g.tree_from_parents([-1, 0, 0, 1, 2, 1], [0.0] * 6)
        with pytest.raises(ValueError):
            g.tree_from_parents([-1, 0, 0, 2, 1], [0.0] * 5)

    def test_lossless_walk_replay(self, law, tmp_path):
        tree = g.generate(law, 6, seed=55)
        path = tmp_path / "tree.txt"
        g.save_snapshot(tree, path)
        back = g.load_snapshot(path)
        assert back.seed == 55
        for arr in TREE_ARRAYS:
            assert np.array_equal(getattr(back, arr), getattr(tree, arr)), arr
        a = g.run_excursions(tree, 2000, rngmod.stream(5, "walk"))
        b = g.run_excursions(back, 2000, rngmod.stream(5, "walk"))
        assert a.dives > 0
        assert (a.steps, a.dives) == (b.steps, b.dives)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.local_time, b.local_time)
        assert np.array_equal(a.return_steps, b.return_steps)
