import itertools
import math
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest

import gwrange as g
from gwrange import rangestats
from gwrange import rng as rngmod
from gwrange.errors import CombinatorialCapError, EmptySupportError, TupleError
from gwrange.genealogy import Constraint
from gwrange.rangestats import (
    CLASS_DISTINCT,
    CLASS_MIXED,
    CLASS_SAME_SINGLE,
    DEFAULT_TUPLE_CAP,
    reference_tuple_sum,
    tuple_sum,
)
from gwrange.cli import _genealogy_measure
from gwrange.theory import _band_measure, desk_band, map_replicas, tuple_stream
from gwrange.tree import mrca_generation
from gwrange.walk import range_slice, run_excursions
from excursion_class_oracle import classify_tuple_excursions
from quasi_independent_oracle import quasi_independent_range, sum_quasi_independent
from tuple_sampling_oracle import sample_uniform_tuple_by_climbs


@pytest.fixture(scope="module")
def walked(law):
    tree = g.generate(law, 8, seed=700)
    trace = run_excursions(tree, 40, rngmod.stream(701, "w"))
    return tree, trace


def _affine_value(scale, shift, value, times, coll):
    return scale * value(times, coll) + shift


def _plain(tree, xs):
    return 1.0


class TestGeneralRange:
    def test_one_generation_count(self, walked):
        tree, trace = walked
        sl = range_slice(trace, tree, 4, 4)
        d = sl.size
        stat = g.general_range(sl, 2)
        assert stat.value == d * (d - 1)
        assert stat.tuple_count == d * (d - 1)
        assert g.delta_k_count(sl, 2) == d * (d - 1)

    def test_small_band_returns_zero(self, walked):
        tree, trace = walked
        sl = range_slice(trace, tree, tree.depth + 1, tree.depth + 2)
        assert g.general_range(sl, 2).value == 0.0

    def test_monotone_in_split_bound(self, walked):
        tree, trace = walked
        sl = range_slice(trace, tree, 3, 5)
        vals = [g.general_range(sl, 2, g.make_f_m(m)).value for m in (1, 2, 3, 4)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_linearity(self, walked):
        tree, trace = walked
        sl = range_slice(trace, tree, 3, 5)
        f = g.make_f_m(2)
        affine = Constraint("2.5 f_m2 + 1", partial(_affine_value, 2.5, 1.0, f.by_signature), 2)
        lhs = g.general_range(sl, 2, affine).value
        assert lhs == pytest.approx(
            2.5 * g.general_range(sl, 2, f).value + g.general_range(sl, 2).value,
            rel=1e-12,
        )
        assert lhs == pytest.approx(reference_tuple_sum(tree, sl.ids, 2, affine)[0], rel=1e-12)

    def test_ancestor_pairs_excluded(self, walked):
        tree, trace = walked
        sl = range_slice(trace, tree, 3, 6)
        count = g.delta_k_count(sl, 2)
        assert count < sl.size * (sl.size - 1)  # band spans generations
        stat = g.general_range(sl, 2)
        assert stat.value == count

    def test_cap_refusal(self, law):
        # only the per-tuple reference sum has a size cap, and it refuses
        # before the first tuple: the deepest generation of the n = 1e4 tree
        # of seed 1, replica 0
        n = 10_000
        tree = g.generate(law, desk_band(law, n)[1], rng=rngmod.stream(1, f"tree/{n}", 0))
        ids = tree.generation_ids(tree.depth)
        assert math.perm(len(ids), 3) > DEFAULT_TUPLE_CAP

        def never_called(t, xs):
            raise AssertionError("a tuple was enumerated")

        with pytest.raises(CombinatorialCapError):
            reference_tuple_sum(tree, ids, 3, never_called)

    def test_band_sum_memory_stays_small(self, law):
        # all of generations 13-16, 393,776 vertices: a dense (vertices x 17)
        # int64 ancestor array alone would take 54 MB
        tree = g.generate(law, 16, seed=5)
        ids = np.arange(tree.gen_offsets[13], tree.gen_offsets[17])
        assert len(ids) == 393_776
        tuple_sum(tree, ids[:10], 2)  # the first np.unique imports numpy.ma
        tracemalloc.start()
        try:
            total = tuple_sum(tree, ids, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # each band vertex has one band ancestor per generation above 13
        n = len(ids)
        assert total == n * (n - 1) - 2 * int((tree.gen[ids] - 13).sum())
        assert peak < 40 * 2**20, peak

    @pytest.mark.parametrize("call", [
        lambda sl, f: g.general_range(sl, 2, f),
        lambda sl, f: tuple_sum(sl.tree, sl.ids, 2, f),
        lambda sl, f: g.weighted_range_A_l(sl.tree, 2, 4, f),
        lambda sl, f: g.quenched_mean_quasi_independent(sl.tree, 3, 5, 10, 2, f),
        lambda sl, f: g.quenched_mean_quasi_independent(sl.tree, 3, 5, 10, 2, f, warmup=4),
    ], ids=["general_range", "tuple_sum", "weighted_range_A_l", "quenched_mean",
            "quenched_mean_warmup"])
    def test_plain_callable_refused(self, walked, call):
        # per-tuple sums of other callables go through reference_tuple_sum
        tree, trace = walked
        sl = range_slice(trace, tree, 3, 5)
        with pytest.raises(TypeError, match="reference_tuple_sum"):
            call(sl, _plain)

    def test_hereditary_factorization(self, walked):
        # restricting a hereditary constraint to tuples fully split by m and
        # reading it at the generation-m ancestors gives the same sum
        tree, trace = walked
        sl = range_slice(trace, tree, 4, 6)
        m = 4
        f = g.make_f_lambda([3])  # heredity generation 3 <= m
        direct = 0.0
        factorized = 0.0
        for tup in g.enumerate_delta_k(tree, sl.ids, 2):
            if g.first_full_split(tree, tup) <= m:
                direct += f(tree, tup)
            anc = tuple(int(tree.ancestor_chain(x)[m]) for x in tup)
            if len(set(anc)) == 2:
                factorized += f(tree, anc)
        assert direct == factorized
        assert direct > 0


class TestClassification:
    def test_same_single(self, walked):
        tree, trace = walked
        rows = np.nonzero(trace.excursion_count == 1)[0]
        firsts = trace.first_excursion[rows]
        for exc in np.unique(firsts):
            cand = rows[firsts == exc]
            ids = trace.ids[cand]
            pairs = [
                (int(a), int(b))
                for a, b in itertools.combinations(ids, 2)
                if not g.is_ancestor(tree, *sorted((int(a), int(b)), key=lambda v: tree.gen[v]))
            ]
            if pairs:
                assert classify_tuple_excursions(trace, pairs[0]) == CLASS_SAME_SINGLE
                return
        pytest.skip("no same-excursion pair in this trace")

    def test_distinct(self, walked):
        tree, trace = walked
        rows = np.nonzero(trace.excursion_count == 1)[0]
        firsts = trace.first_excursion[rows]
        a = int(trace.ids[rows[np.argmin(firsts)]])
        b = int(trace.ids[rows[np.argmax(firsts)]])
        if g.is_ancestor(tree, *sorted((a, b), key=lambda v: tree.gen[v])):
            pytest.skip("ancestral pair")
        assert classify_tuple_excursions(trace, (a, b)) == CLASS_DISTINCT

    def test_mixed_triple_synthetic(self):
        # synthetic trace-level check through the public classifier:
        # indices (2, 2, 5) are neither all distinct nor all equal
        from gwrange.walk import WalkTrace

        ids = np.array([1, 2, 3], dtype=np.int64)
        trace = WalkTrace(
            s=6, steps=0, dives=0, return_steps=np.zeros(7, dtype=np.int64),
            ids=ids, gens=np.ones(3, dtype=np.int64),
            local_time=np.ones(3, dtype=np.int64),
            edge_local_time=np.ones(3, dtype=np.int64),
            excursion_count=np.ones(3, dtype=np.int64),
            first_excursion=np.array([2, 2, 5], dtype=np.int64),
            entry_excursions=[np.array([2]), np.array([2]), np.array([5])],
            root_local_time=6,
        )
        assert classify_tuple_excursions(trace, (1, 2, 3)) == CLASS_MIXED
        assert classify_tuple_excursions(trace, (1, 2)) == CLASS_SAME_SINGLE
        assert classify_tuple_excursions(trace, (1, 3)) == CLASS_DISTINCT

    def test_masses_partition_admissible_pairs(self, walked):
        tree, trace = walked
        sl = range_slice(trace, tree, 3, 6)
        masses = g.excursion_class_masses(sl)
        assert (
            masses[CLASS_DISTINCT] + masses[CLASS_SAME_SINGLE] + masses[CLASS_MIXED]
            == masses["total"]
        )
        assert masses["total"] == g.delta_k_count(sl, 2)
        # two nonempty entry sets always admit distinct representatives
        # unless both are the same singleton
        assert masses[CLASS_MIXED] == 0

    def test_masses_match_streamed_classifier(self, walked):
        tree, trace = walked
        # in [2, 5], multi-excursion vertices sit above single-excursion ones
        multi = set(trace.ids[trace.excursion_count > 1].tolist())
        assert any(g.is_ancestor(tree, a, int(x))
                   for x in trace.ids[(trace.excursion_count == 1) & (trace.gens <= 5)]
                   for a in multi if 2 <= tree.gen[a] < tree.gen[x])
        for lower, upper in ((4, 6), (2, 5)):
            sl = range_slice(trace, tree, lower, upper)
            masses = g.excursion_class_masses(sl)
            counted = {CLASS_DISTINCT: 0, CLASS_SAME_SINGLE: 0, CLASS_MIXED: 0}
            for tup in g.enumerate_delta_k(tree, sl.ids, 2):
                counted[classify_tuple_excursions(trace, tup)] += 1
            for key in counted:
                assert counted[key] == masses[key], (lower, key)
            assert masses["total"] == sum(counted.values())

    def test_masses_memory_stays_small(self, law):
        # 599 band vertices, 116 of them visited in several excursions: no
        # n x n array and no per-pair loop
        tree = g.generate(law, 10, seed=5)
        trace = run_excursions(tree, 400, rngmod.stream(5, "w"))
        sl = range_slice(trace, tree, 5, 10)
        assert (sl.size, int((sl.excursion_counts() > 1).sum())) == (599, 116)
        want = g.excursion_class_masses(sl)  # the first np.unique imports numpy.ma
        tracemalloc.start()
        try:
            masses = g.excursion_class_masses(sl)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert masses == want and masses["total"] > 0
        assert peak < 1_000_000, peak


class TestQuasiIndependent:
    def test_repeated_indices_rejected(self, walked):
        tree, trace = walked
        sl = range_slice(trace, tree, 3, 5)
        with pytest.raises(TupleError):
            quasi_independent_range(sl, (2, 2))

    def test_out_of_range_rejected(self, walked):
        tree, trace = walked
        sl = range_slice(trace, tree, 3, 5)
        with pytest.raises(TupleError):
            quasi_independent_range(sl, (1, trace.s + 1))

    def test_two_vertex_example(self, law):
        # find an excursion pair with exactly the expected contribution
        tree = g.generate(law, 6, seed=702)
        trace = run_excursions(tree, 8, rngmod.stream(703, "w"))
        sl = range_slice(trace, tree, 2, 4)
        total = 0.0
        for j1, j2 in itertools.permutations(range(1, 9), 2):
            total += quasi_independent_range(sl, (j1, j2))
        assert total == sum_quasi_independent(sl, 2)

    def test_unvisited_excursion_contributes_zero(self, law):
        tree = g.generate(law, 6, seed=702)
        trace = run_excursions(tree, 8, rngmod.stream(703, "w"))
        sl = range_slice(trace, tree, 2, 4)
        entered = set()
        for row in sl.rows:
            entered.update(int(e) for e in trace.entry_excursions[row])
        idle = [j for j in range(1, 9) if j not in entered]
        if not idle:
            pytest.skip("every excursion touched the band")
        other = next(j for j in range(1, 9) if j != idle[0])
        assert quasi_independent_range(sl, (idle[0], other)) == 0.0

    def test_overcount_inequality(self, walked):
        # summed quasi-independent range dominates the range restricted to
        # distinct-excursion single-visit tuples, exactly, on full traces
        tree, trace = walked
        sl = range_slice(trace, tree, 3, 6)
        lhs = sum_quasi_independent(sl, 2)
        rhs = 0.0
        for tup in g.enumerate_delta_k(tree, sl.ids, 2):
            rows = [trace.index_of(x) for x in tup]
            if all(trace.excursion_count[r] == 1 for r in rows):
                if classify_tuple_excursions(trace, tup) == CLASS_DISTINCT:
                    rhs += 1.0
        assert lhs >= rhs


class TestWeightedLevelRange:
    def test_single_vertex_generation_zero(self, law):
        tree = g.tree_from_parents([-1, 0], [0.0, 0.2])
        assert g.weighted_range_A_l(tree, 2, 1) == 0.0

    def test_diagonal_mass_positive_and_decaying(self, law):
        # (W_l)^2 - pair sum = sum exp(-2V) >= 0, ensemble mean shrinks in l
        rng = rngmod.stream(704, "trees")
        means = []
        for level in (2, 6, 10):
            vals = []
            for _ in range(120):
                t = g.generate(law, level, rng=rng)
                w = g.additive_martingale(t, level)
                pair = g.weighted_range_A_l(t, 2, level)
                diff = w * w - pair
                assert diff >= -1e-15
                exact = float((t.exp_neg_v[t.generation_ids(level)] ** 2).sum())
                assert diff == pytest.approx(exact, rel=1e-9)
                vals.append(diff)
            means.append(np.mean(vals))
        assert means[2] < means[0]

    def test_beta_weighting(self, small_tree):
        val = g.weighted_range_A_l(small_tree, 2, 2, beta=(2, 1))
        env = small_tree.exp_neg_v
        ids = small_tree.generation_ids(2)
        expect = sum(
            env[x] ** 2 * env[y] for x, y in itertools.permutations(ids, 2)
        )
        assert val == pytest.approx(expect, rel=1e-12)


# Whole-generation sums before they read MarkedTree.levels in place of the
# induced ancestor forest, as float.hex: the default law at depth 16
# (seed 5) and a law that can die out at depth 10 (seed 3, with dead
# branches above the summed generations).
WHOLE_GENERATION_SUMS = {
    "qi16": "0x1.578a1ac140855p+13",
    "qi16_fm": "0x1.3bc0ffa905375p+13",
    "A16": "0x1.0b85587831d6dp-1",
    "A16_F": "0x1.c7a55d544f960p-17",
    "qiext": "0x1.a68919e10982ap+15",
    "qiext3": "0x1.c655f0d043d10p+13",
    "Aext": "0x1.8badf47116219p-1",
    "Aext_fm": "0x1.2acaee9636519p-1",
}


class TestWholeGenerationSums:
    @pytest.fixture(scope="class")
    def trees(self, law, extinguishing_law):
        return g.generate(law, 16, seed=5), g.generate(extinguishing_law, 10, seed=3)

    def test_levels_are_the_ancestor_forest(self, trees):
        for tree, lower, top in ((trees[0], 13, 16), (trees[1], 6, 10), (trees[1], 8, 8)):
            ids = np.arange(tree.gen_offsets[lower], tree.gen_offsets[top + 1])
            want, labels = tree.ancestor_forest(ids)
            got = tree.levels(top, lower)
            for a, b, lab in zip(got.V, want.V, labels):
                assert np.array_equal(a, b) and np.array_equal(a, tree.V[lab])
            for a, b in zip(got.parent, want.parent):
                assert np.array_equal(a, b)
        # dead branches above generation 8 are left out
        assert len(got.V[5]) < trees[1].generation_size(5)

    def test_values_kept_bitwise(self, trees):
        from gwrange.quenched import quenched_mean_quasi_independent as qi

        t16, te = trees
        got = {
            "qi16": qi(t16, 13, 16, 100, 2),
            "qi16_fm": qi(t16, 13, 16, 100, 2, f=g.make_f_m(3), warmup=12),
            "A16": g.weighted_range_A_l(t16, 2, 12, None),
            "A16_F": g.weighted_range_A_l(t16, 2, 12, g.make_F_ell_s(1, [3], 2), beta=(2.0, 1.0)),
            "qiext": qi(te, 6, 10, 100, 2),
            "qiext3": qi(te, 7, 9, 20, 3, f=g.make_f_lambda([3, 5])),
            "Aext": g.weighted_range_A_l(te, 2, 8, None),
            "Aext_fm": g.weighted_range_A_l(te, 3, 7, g.make_f_m(4)),
        }
        assert {k: v.hex() for k, v in got.items()} == WHOLE_GENERATION_SUMS


class TestUniformSampling:
    def test_two_vertex_frequencies(self, law, rng):
        tree = g.tree_from_parents([-1, 0, 0], [0.0, 0.2, 0.4])
        trace = run_excursions(tree, 200, rngmod.stream(705, "w"))
        sl = range_slice(trace, tree, 1, 1)
        assert sl.size == 2
        draws = 10_000
        first = 0
        for _ in range(draws):
            tup = g.sample_uniform_tuple(sl, 2, rng)
            if tup[0] == 1:
                first += 1
        freq = first / draws
        assert abs(freq - 0.5) <= 4 * math.sqrt(0.25 / draws)

    def test_band_too_small(self, walked):
        tree, trace = walked
        sl = range_slice(trace, tree, tree.depth + 1, tree.depth + 2)
        with pytest.raises(EmptySupportError):
            g.sample_uniform_tuple(sl, 2, np.random.default_rng(0))

    def test_empty_admissible_support(self, monkeypatch):
        # a unary chain: the band's two vertices are ancestrally related, so
        # rejection can never succeed and the support is verified empty
        monkeypatch.setattr(rangestats, "SAMPLE_MAX_ATTEMPTS", 200)
        tree = g.tree_from_parents([-1, 0, 1], [0.0, 0.2, 0.4])
        trace = run_excursions(tree, 300, rngmod.stream(706, "w"))
        sl = range_slice(trace, tree, 1, 2)
        assert sl.size == 2
        with pytest.raises(EmptySupportError, match="admissible tuple set is empty"):
            g.sample_uniform_tuple(sl, 2, np.random.default_rng(1))

    def test_empty_support_raises_fast(self):
        # at the library's own attempt count the exact emptiness check runs
        # after a hundredth of the rejections, not after all of them
        tree = g.tree_from_parents([-1, 0, 1], [0.0, 0.2, 0.4])
        sl = range_slice(run_excursions(tree, 300, rngmod.stream(706, "w")), tree, 1, 2)
        t0 = time.perf_counter()
        with pytest.raises(EmptySupportError, match="admissible tuple set is empty"):
            g.sample_uniform_tuple(sl, 2, np.random.default_rng(1))
        assert time.perf_counter() - t0 < 0.5

    def test_empty_support_raises_fast_in_batches(self):
        # as above, with 300 tuples asked for at once
        tree = g.tree_from_parents([-1, 0, 1], [0.0, 0.2, 0.4])
        sl = range_slice(run_excursions(tree, 300, rngmod.stream(706, "w")), tree, 1, 2)
        t0 = time.perf_counter()
        with pytest.raises(EmptySupportError, match="admissible tuple set is empty"):
            g.sample_uniform_tuples(sl, 2, 300, np.random.default_rng(1))
        assert time.perf_counter() - t0 < 0.5


def _keep_slice(seed, n, rep, sl):
    return sl


# (budget, band): the desk band of the budget, and a band from generation 1
# whose tuples are often ancestrally related (about 40% of its 4-tuples are
# admissible on both laws)
SAMPLING_BANDS = {"desk": (10_000, None), "wide": (1_000, (1, 6))}


@pytest.fixture(scope="module")
def sampling_slices(law, extinguishing_law):
    laws = {"default": law, "extinguishing": extinguishing_law}
    return {(name, band): map_replicas(laws[name], n, 1, 3, edges, _keep_slice)[0]
            for name in laws for band, (n, edges) in SAMPLING_BANDS.items()}


class TestBatchedSampling:
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("band", sorted(SAMPLING_BANDS))
    @pytest.mark.parametrize("law_name", ["default", "extinguishing"])
    def test_same_tuples_and_stream_as_one_attempt_oracle(self, sampling_slices, law_name,
                                                          band, k):
        sl = sampling_slices[law_name, band]
        if band == "wide" and k == 4:
            assert g.delta_k_count(sl, k) < 0.5 * math.perm(sl.size, k)
        batched, single = rngmod.stream(808, "t"), rngmod.stream(808, "t")
        got = g.sample_uniform_tuples(sl, k, 300, batched)
        want = [sample_uniform_tuple_by_climbs(sl, k, single) for _ in range(300)]
        assert got.shape == (300, k) and [tuple(t) for t in got.tolist()] == want
        assert batched.random() == single.random()
        assert g.sample_uniform_tuple(sl, k, batched) == sample_uniform_tuple_by_climbs(
            sl, k, single)

    @pytest.mark.parametrize("case", ["rejection-fails", "empty-support"])
    def test_same_refusal_and_stream_as_one_attempt_oracle(self, sampling_slices, monkeypatch,
                                                           case):
        # three attempts fail on some 4-tuple of the wide band; on the
        # unary chain every attempt fails and the emptiness check refuses
        if case == "rejection-fails":
            attempts, sl, k = 3, sampling_slices["default", "wide"], 4
        else:
            chain = g.tree_from_parents([-1, 0, 1], [0.0, 0.2, 0.4])
            trace = run_excursions(chain, 300, rngmod.stream(706, "w"))
            attempts, sl, k = 200, range_slice(trace, chain, 1, 2), 2
        monkeypatch.setattr(rangestats, "SAMPLE_MAX_ATTEMPTS", attempts)
        batched, single = rngmod.stream(809, "t"), rngmod.stream(809, "t")
        with pytest.raises(EmptySupportError) as got:
            g.sample_uniform_tuples(sl, k, 300, batched)
        with pytest.raises(EmptySupportError) as want:
            for _ in range(300):
                sample_uniform_tuple_by_climbs(sl, k, single)
        assert str(got.value) == str(want.value)
        assert batched.random() == single.random()

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_table_reads_match_tree_climbs(self, sampling_slices, k):
        pairs = list(itertools.combinations(range(1, k + 1), 2))
        for sl in sampling_slices.values():
            tuples = g.sample_uniform_tuples(sl, k, 100, rngmod.stream(810, "t"))
            mrca = g.band_mrca_generations(sl, tuples)
            for tup, row in zip(tuples.tolist(), mrca.tolist()):
                assert row == [mrca_generation(sl.tree, tup[a - 1], tup[b - 1])
                               for a, b in pairs]
                assert max(row) + 1 == g.first_full_split(sl.tree, tup)
                assert (g.signature_from_mrca(dict(zip(pairs, row)), k)
                        == g.coalescent_times(sl.tree, tup))

    def test_measures_match_per_tuple_climbs(self, sampling_slices):
        for sl in sampling_slices.values():
            splits = _band_measure(False, 200, 5, 100, 0, sl).split_samples
            stream = tuple_stream(5, 100, 0)
            assert splits == [g.first_full_split(sl.tree, sample_uniform_tuple_by_climbs(
                sl, 2, stream)) for _ in range(200)]
            for k in (3, 4):
                stream = tuple_stream(5, 100, 0)
                assert _genealogy_measure(k, 50, 5, 100, 0, sl) == [
                    g.coalescent_times(sl.tree, sample_uniform_tuple_by_climbs(sl, k, stream))
                    for _ in range(50)]
