import hashlib
import math

import numpy as np
import pytest

import gwrange as g
from gwrange import rng as rngmod
from gwrange.errors import QueryError
from gwrange.theory import desk_band, map_replicas
from walk_oracle import excursion_stats, step_excursions


def _assert_multinomial(counts, visits, probs):
    """Moves out of a vertex over its visits are multinomial given the
    visit count: each target's count within 4 SE of its share."""
    for count, p in zip(counts, probs):
        se = math.sqrt(visits * p * (1 - p))
        assert abs(count - visits * p) <= 4 * se, (count, visits, p)


class TestTransition:
    """The one-step kernel, read off the trace counts of run_excursions."""

    def test_reflector_always_enters_root(self, small_tree):
        s = 50
        trace = g.run_excursions(small_tree, s, rngmod.stream(14, "w"))
        i0 = trace.index_of(0)
        kids = small_tree.children(0)
        into_kids = sum(int(trace.edge_local_time[trace.index_of(c)])
                        for c in kids if trace.was_visited(c))
        # every excursion starts with a step from the reflector into the root
        # and ends with the root's one step up
        assert trace.edge_local_time[i0] == s
        assert trace.local_time[i0] - into_kids == s

    def test_single_child_kernel(self):
        # explicit chain: root -> child, V(child) = v
        t = g.tree_from_parents([-1, 0, 1], [0.0, 0.4, 0.2])
        p_child = math.exp(-t.V[1]) / (1.0 + math.exp(-t.V[1]))
        trace = g.run_excursions(t, 40_000, rngmod.stream(15, "w"))
        visits = int(trace.local_time[trace.index_of(0)])
        down = int(trace.edge_local_time[trace.index_of(1)])
        _assert_multinomial([down, visits - down], visits, [p_child, 1 - p_child])

    def test_multinomial_kernel_at_fixed_vertex(self, law):
        t = g.generate(law, 6, seed=11)
        trace = g.run_excursions(t, 4000, rngmod.stream(16, "w"))
        rows = [i for i, u in enumerate(trace.ids)
                if t.n_children[u] == 3 and t.gen[u] < t.depth]
        row = max(rows, key=lambda i: trace.local_time[i])
        u = int(trace.ids[row])
        kids = [int(c) for c in t.children(u)]
        into = [int(trace.edge_local_time[trace.index_of(c)]) if trace.was_visited(c) else 0
                for c in kids]
        visits = int(trace.local_time[row])
        assert visits > 5000
        weights = np.exp(-t.V[[u] + kids])
        _assert_multinomial([visits - sum(into)] + into, visits, weights / weights.sum())

    def test_frontier_collapse_kernel(self, law):
        t = g.generate(law, 4, seed=12)
        trace = g.run_excursions(t, 2000, rngmod.stream(17, "w"))
        rows = np.nonzero(trace.gens == t.depth)[0]
        local = trace.local_time[rows]
        edge = trace.edge_local_time[rows]
        # each entry from the parent ends in one step up; every other visit
        # to a frontier vertex is the return from a collapsed dive
        assert int((local - edge).sum()) == trace.dives > 0
        row = rows[np.argmax(local)]
        u = int(trace.ids[row])
        w_up = math.exp(-t.V[u])
        p_up = w_up / (w_up + t.frontier_down_weight(u))
        visits = int(trace.local_time[row])
        up = int(trace.edge_local_time[row])
        assert visits > 1000
        _assert_multinomial([up, visits - up], visits, [p_up, 1 - p_up])


class TestRunExcursions:
    def test_ends_at_reflector(self, medium_tree):
        trace = g.run_excursions(medium_tree, 20, rngmod.stream(1, "w"))
        assert len(trace.return_steps) == 21
        assert trace.return_steps[-1] == trace.steps
        assert trace.root_local_time == 20

    def test_root_edge_count_equals_excursions(self, medium_tree):
        trace = g.run_excursions(medium_tree, 50, rngmod.stream(2, "w"))
        i0 = trace.index_of(0)
        assert trace.edge_local_time[i0] == 50
        assert trace.excursion_count[i0] == 50

    def test_step_accounting_identity(self, medium_tree):
        trace = g.run_excursions(medium_tree, 40, rngmod.stream(3, "w"))
        assert trace.local_time.sum() + trace.s + trace.dives == trace.steps

    def test_exact_identity_without_dives(self, law):
        # deep tree, few excursions: frontier never reached
        tree = g.generate(law, 14, seed=8)
        trace = g.run_excursions(tree, 3, rngmod.stream(4, "w"))
        if trace.dives == 0:
            assert trace.local_time.sum() + trace.s == trace.steps

    def test_edge_at_most_local(self, medium_tree):
        trace = g.run_excursions(medium_tree, 30, rngmod.stream(5, "w"))
        assert (trace.edge_local_time <= trace.local_time).all()

    def test_bitwise_reproducibility(self, medium_tree):
        a = g.run_excursions(medium_tree, 25, rngmod.stream(6, "w"))
        b = g.run_excursions(medium_tree, 25, rngmod.stream(6, "w"))
        assert a.steps == b.steps and a.dives == b.dives
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.local_time, b.local_time)
        assert np.array_equal(a.return_steps, b.return_steps)
        assert all(np.array_equal(x, y) for x, y in zip(a.entry_excursions, b.entry_excursions))

    def test_simulate_collapse_policy(self, law):
        # the replica driver walks ceil(sqrt(n)) excursions, collapsing dives
        # below a tree truncated at the band's upper edge
        def measure(seed, n, rep, sl):
            return sl.trace.s, len(sl.trace.return_steps), sl.tree.depth

        assert map_replicas(law, 100, 2, 124, (3, 5), measure) == [(10, 11, 5)] * 2

    def test_walk_handles_interior_dead_ends(self):
        # a law with extinction: surviving trees still contain childless
        # interior vertices, from which the only move is upward
        law = g.generic_law([(0.4, ()), (0.6, (0.1, 0.3, 0.5))])
        tree = g.generate(law, 5, seed=9)
        trace = g.run_excursions(tree, 30, rngmod.stream(10, "w"))
        assert trace.s == 30
        assert trace.local_time.sum() + trace.s + trace.dives == trace.steps


# sha256 prefixes of walk traces pinned from the branching sampler (one
# negative_binomial draw per generation, one binomial per child slot):
# (steps, dives, visited, digest of ids, local and edge local times,
# excursion counts, first excursions, return steps and per-vertex entry
# excursions).
WALK_DIGESTS = {
    "default": (g.default_law, 12, 2024, (9050, 280, 648, "62da19d14ccfcd3b")),
    "mixed": (lambda: g.generic_law([(0.2, (-0.3,)), (0.5, (0.1, 0.6, 1.2)),
                                     (0.3, (0.4, 0.9))]),
              10, 2024, (199034, 32153, 6178, "a0c0c75b742739f4")),
    "extinct": (lambda: g.generic_law([(0.3, ()), (0.7, (0.2, 0.5))]),
                12, 3, (15710, 684, 336, "95b9dfa07fa7d6d4")),
    "gaussian": (g.gaussian_law, 12, 2024, (9754, 305, 697, "fc9beded558414c3")),
}


def _trace_digest(trace):
    h = hashlib.sha256()
    for a in (trace.ids, trace.local_time, trace.edge_local_time, trace.excursion_count,
              trace.first_excursion, trace.return_steps):
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    for e in trace.entry_excursions:
        h.update(np.ascontiguousarray(e, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


class TestWalkDigests:
    @pytest.mark.parametrize("name", sorted(WALK_DIGESTS))
    def test_trace_bitwise_pinned(self, name):
        make_law, depth, seed, want = WALK_DIGESTS[name]
        tree = g.generate(make_law(), depth, seed=seed)
        trace = g.run_excursions(tree, 400, np.random.default_rng(seed))
        assert (trace.steps, trace.dives, len(trace.ids), _trace_digest(trace)) == want

    def test_martingale_after_walk_is_generation_weight_sum(self, law):
        tree = g.generate(law, 10, seed=202)
        g.run_excursions(tree, 50, rngmod.stream(11, "w"))
        w = g.additive_martingale(tree, 7)
        assert w == tree.exp_neg_v[tree.generation_ids(7)].sum()


def _band_excursion_counts(seed, n, rep, sl):
    return sl.excursion_counts()


class TestExcursionStats:
    def test_root_visited_every_excursion(self, medium_tree):
        trace = g.run_excursions(medium_tree, 15, rngmod.stream(9, "w"))
        count, single, first = excursion_stats(trace, 0)
        assert count == 15 and not single and first == 1

    def test_unknown_vertex_rejected(self, medium_tree):
        trace = g.run_excursions(medium_tree, 5, rngmod.stream(10, "w"))
        unvisited = next(
            x for x in range(medium_tree.size - 1, 0, -1) if not trace.was_visited(x)
        )
        with pytest.raises(QueryError):
            excursion_stats(trace, unvisited)

    def test_entry_excursions_read_from_one_column(self, medium_tree):
        trace = g.run_excursions(medium_tree, 30, rngmod.stream(14, "w"))
        entries = trace.entry_excursions
        assert len(entries) == len(trace.ids)
        listed = list(entries)
        for i, e in enumerate(listed):
            assert np.array_equal(entries[i], e)
            assert len(e) == trace.excursion_count[i] and e[0] == trace.first_excursion[i]
            assert (np.diff(e) > 0).all()
        assert np.array_equal(entries[-1], listed[-1])
        with pytest.raises(IndexError):
            entries[len(listed)]

    def test_multi_visit_suppression_in_band(self, law):
        # the band is deep enough that nearly every visited vertex there is
        # seen during a single excursion; pooled over replicas the fraction
        # of multi-excursion vertices stays small at every budget
        for n, reps in ((10**4, 8), (10**5, 5)):
            counts = map_replicas(law, n, reps, 77, None, _band_excursion_counts)
            multi = sum(int((c >= 2).sum()) for c in counts)
            total = sum(len(c) for c in counts)
            assert multi / total < 0.10, n


class TestRangeSlice:
    def test_full_band_is_visited_set(self, medium_tree):
        trace = g.run_excursions(medium_tree, 12, rngmod.stream(11, "w"))
        sl = g.range_slice(trace, medium_tree, 0, medium_tree.depth)
        assert sl.size == len(trace.ids)

    def test_band_above_reach_is_empty(self, medium_tree):
        trace = g.run_excursions(medium_tree, 2, rngmod.stream(12, "w"))
        sl = g.range_slice(trace, medium_tree, medium_tree.depth + 1,
                           medium_tree.depth + 5)
        assert sl.size == 0 and sl.max_generation == -1
        assert sl.ancestors.shape == (0, 0)

    def test_ancestor_table_matches_climbs(self, medium_tree):
        trace = g.run_excursions(medium_tree, 12, rngmod.stream(15, "w"))
        sl = g.range_slice(trace, medium_tree, 3, 8)
        table = sl.ancestors
        assert table.shape == (sl.size, sl.max_generation + 1)
        assert sl.ancestors is table  # built once per slice
        for row, (x, gx) in enumerate(zip(sl.ids.tolist(), sl.gens.tolist())):
            path = [x]
            while path[-1] != 0:
                path.append(int(medium_tree.parent[path[-1]]))
            assert table[row].tolist() == path[::-1] + [-1] * (sl.max_generation - gx)

    def test_csv_export(self, medium_tree, tmp_path):
        trace = g.run_excursions(medium_tree, 5, rngmod.stream(13, "w"))
        path = tmp_path / "trace.csv"
        g.trace_to_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("vertex_id,generation")
        assert len(lines) == len(trace.ids) + 1


def _two_sample_z(a, b):
    """Per column, the gap of the means over its standard error."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    se = np.sqrt(a.var(axis=0, ddof=1) / len(a) + b.var(axis=0, ddof=1) / len(b))
    return np.abs(a.mean(axis=0) - b.mean(axis=0)) / se


class TestBranchingLaw:
    """The branching sampler against the step-by-step oracle and an exact
    identity; every bound is 4 SE."""

    @staticmethod
    def _band_stats(trace, tree, lower, upper):
        sl = g.range_slice(trace, tree, lower, upper)
        counts = sl.excursion_counts()
        return [sl.size, counts.sum(), trace.steps, trace.dives, (counts == 1).sum()]

    @pytest.mark.parametrize("case", ["default-n1e4", "extinct"])
    def test_equal_law_with_step_oracle(self, law, case):
        # fixed trees, independent walks per side: band count, summed
        # excursion counts over the band, steps, dives and single-excursion
        # band vertices agree in mean
        if case == "default-n1e4":
            lower, upper = desk_band(law, 10**4)
            tree = g.generate(law, upper, rng=rngmod.stream(1, "tree/10000", 0))
            s = 100
        else:
            lower, upper = 8, 12
            tree = g.generate(g.generic_law([(0.3, ()), (0.7, (0.2, 0.5))]), upper, seed=2024)
            s = 60
        walks = 250
        fast = [self._band_stats(g.run_excursions(tree, s, rngmod.stream(31, "branching", i)),
                                 tree, lower, upper) for i in range(walks)]
        slow = [self._band_stats(step_excursions(tree, s, rngmod.stream(31, "steps", i)),
                                 tree, lower, upper) for i in range(walks)]
        z = _two_sample_z(fast, slow)
        assert (z <= 4.0).all(), z

    def test_generation_entries_match_martingale(self, law):
        # one excursion enters x e^{-V(x)} times in mean, so the edge local
        # times of generation g sum to s W_g in mean
        tree = g.generate(law, 16, seed=5)
        s, walks, levels = 100, 400, [5, 10, 16]
        sums = []
        for i in range(walks):
            trace = g.run_excursions(tree, s, rngmod.stream(32, "w", i))
            per_gen = np.bincount(trace.gens, weights=trace.edge_local_time,
                                  minlength=tree.depth + 1)
            sums.append(per_gen[levels])
        sums = np.array(sums)
        want = np.array([s * g.additive_martingale(tree, lv) for lv in levels])
        se = sums.std(axis=0, ddof=1) / math.sqrt(walks)
        assert (np.abs(sums.mean(axis=0) - want) <= 4 * se).all(), (sums.mean(axis=0), want, se)


class TestStepScale:
    def test_trace_time_ratio_within_pilot_bracket(self, law):
        # observed (trace) steps per unit budget at the canonical largest
        # budget; true elapsed time additionally contains the unobservable
        # below-frontier dives, so the bracket is pilot-calibrated for the
        # recorded quantity and reported rather than derived
        n, s = 10**6, 1000
        ratios = []
        for seed in range(5):
            tree = g.generate(law, 22, rng=rngmod.stream(880, "tree", seed))
            tr = g.run_excursions(tree, s, rngmod.stream(880, "walk", seed))
            assert tr.dives >= 0
            ratios.append(tr.steps / n)
        assert all(0.01 <= r <= 0.5 for r in ratios), sorted(ratios)


class TestHittingFrequency:
    def test_matches_closed_form(self, law):
        # one long run serves several targets at once
        tree = g.generate(law, 8, seed=44)
        s = 30_000
        trace = g.run_excursions(tree, s, rngmod.stream(45, "w"))
        rng = np.random.default_rng(46)
        checked = 0
        for gen in (2, 3, 4, 5):
            for x in rng.choice(tree.generation_ids(gen), 2, replace=False):
                x = int(x)
                p = g.hit_before_return(tree, 0, x)
                if p < 1e-4:
                    continue
                hits = trace.excursion_count[trace.index_of(x)] if trace.was_visited(x) else 0
                se = math.sqrt(p * (1 - p) / s)
                assert abs(hits / s - p) <= 4 * se, (x, p, hits / s)
                checked += 1
        assert checked >= 4
