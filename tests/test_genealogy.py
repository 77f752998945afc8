import itertools
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

import gwrange as g
from gwrange.errors import SignatureError, TupleError
from gwrange.genealogy import (
    Constraint,
    IncreasingCollection,
    Partition,
    constant_one,
    enumerate_increasing_collections,
)
from gwrange.quenched import _within_warmup

P = Partition.make

_COLLECTIONS = {}


def random_increasing_collection(k, rng):
    if k not in _COLLECTIONS:
        _COLLECTIONS[k] = list(enumerate_increasing_collections(k))
    colls = _COLLECTIONS[k]
    return colls[rng.integers(len(colls))]


def _labels(k):
    return st.lists(st.integers(0, k - 1), min_size=k, max_size=k)


# label vectors over slots 1..k; a partition groups equal labels
LABELLINGS = st.integers(1, 7).flatmap(lambda k: st.tuples(_labels(k), _labels(k), _labels(k)))
_CHAINS = {k: list(enumerate_increasing_collections(k)) for k in range(2, 6)}
CHAINS = st.sampled_from(sorted(_CHAINS)).flatmap(lambda k: st.sampled_from(_CHAINS[k]))


class TestPartition:
    def test_canonical_ordering(self):
        p = P([[3, 1], [2]])
        assert p.blocks == ((1, 3), (2,))

    def test_from_labels(self):
        p = Partition.from_labels(["a", "b", "a", "c"])
        assert p.blocks == ((1, 3), (2,), (4,))

    def test_refinement_direction(self):
        fine = P([[1], [2, 4], [3]])
        coarse = P([[1, 3], [2, 4]])
        assert fine.refines(coarse)
        assert not coarse.refines(fine)

    def test_invalid_partition_rejected(self):
        with pytest.raises(SignatureError):
            Partition(((1, 2), (2, 3)))
        with pytest.raises(SignatureError):
            Partition(((1,), (3,)))


class TestPartitionProperties:
    @settings(max_examples=200, deadline=None)
    @given(labels=LABELLINGS)
    def test_refines_means_the_meet_is_itself(self, labels):
        # a refines b exactly when the common refinement of a and b is a
        la, lb, _ = labels
        a, b = Partition.from_labels(la), Partition.from_labels(lb)
        assert a.refines(b) == (Partition.from_labels(list(zip(la, lb))) == a)
        if a.refines(b) and b.refines(a):
            assert a == b

    @settings(max_examples=200, deadline=None)
    @given(labels=LABELLINGS)
    def test_reflexive_and_transitive(self, labels):
        la, lb, lc = labels
        coarse = Partition.from_labels(la)
        mid = Partition.from_labels(list(zip(la, lb)))
        fine = Partition.from_labels(list(zip(la, lb, lc)))
        for part in (coarse, mid, fine):
            assert part.refines(part)
        assert fine.refines(mid) and mid.refines(coarse) and fine.refines(coarse)
        a, b, c = (Partition.from_labels(lab) for lab in labels)
        if a.refines(b) and b.refines(c):
            assert a.refines(c)

    @settings(max_examples=200, deadline=None)
    @given(labels=LABELLINGS)
    def test_singletons_and_one_block_bound_every_partition(self, labels):
        part = Partition.from_labels(labels[0])
        assert Partition.singletons(part.k).refines(part)
        assert part.refines(Partition.one_block(part.k))
        assert Partition.one_block(part.k).refines(part) == (len(part) == 1)


class TestIncreasingCollection:
    def test_endpoint_validation(self):
        with pytest.raises(SignatureError):
            IncreasingCollection((P([[1, 2]]), P([[1, 2]])))
        with pytest.raises(SignatureError):
            IncreasingCollection((P([[1], [2]]), P([[1, 2]])))

    def test_beta_cardinality_conservation(self, rng):
        for _ in range(200):
            k = int(rng.integers(2, 7))
            coll = random_increasing_collection(k, rng)
            for p in range(1, coll.depth + 1):
                prev = coll.levels[p - 1]
                for block, beta in zip(prev.blocks, coll.beta_profile(p)):
                    assert sum(beta) == len(block)

    def test_enumeration_counts(self):
        # chains of strictly refining partitions, one-block to singletons
        assert len(list(enumerate_increasing_collections(2))) == 1
        assert len(list(enumerate_increasing_collections(3))) == 4
        assert len(list(enumerate_increasing_collections(4))) == 32

    def test_enumeration_cap(self):
        with pytest.raises(ValueError):
            list(enumerate_increasing_collections(7))


class TestReduction:
    def test_worked_example(self):
        coll = IncreasingCollection(
            (
                P([[1, 2, 3, 4, 5]]),
                P([[1, 3, 4], [2, 5]]),
                P([[1, 3], [2, 5], [4]]),
                P([[1, 3], [2], [4], [5]]),
                P([[1], [2], [3], [4], [5]]),
            )
        )
        red = g.reduce_collection(coll)
        assert [lvl.blocks for lvl in red.levels] == [
            ((1, 2, 3, 4),),
            ((1, 3), (2, 4)),
            ((1,), (2, 4), (3,)),
            ((1,), (2,), (3,), (4,)),
        ]

    def test_minimal_collection_reduces_to_trivial(self):
        coll = IncreasingCollection((P([[1, 2]]), P([[1], [2]])))
        red = g.reduce_collection(coll)
        assert [lvl.blocks for lvl in red.levels] == [((1,),)]
        assert red.k == 1

    def test_invariants_on_random_collections(self, rng):
        checked = 0
        for _ in range(1000):
            k = int(rng.integers(3, 7))
            coll = random_increasing_collection(k, rng)
            if coll.depth < 2:
                continue
            red = g.reduce_collection(coll)
            assert len(red.levels) == len(coll.levels) - 1
            for a, b in zip(coll.levels[:-1], red.levels):
                assert len(a) == len(b)
            for p in range(1, red.depth + 1):
                assert red.split_counts(p) == coll.split_counts(p)
            checked += 1
        assert checked > 500


@settings(max_examples=200, deadline=None)
@given(coll=CHAINS)
def test_reduction_invariants(coll):
    red = g.reduce_collection(coll)
    base = coll.levels[-2]
    assert red.k == len(base) and len(red.levels) == len(coll.levels) - 1
    for part, reduced in zip(coll.levels, red.levels):
        assert len(reduced) == len(part)
        # each reduced level, its elements read back as blocks of the base
        # level, is the original level
        assert Partition.make([[i for j in b for i in base.blocks[j - 1]]
                               for b in reduced.blocks]) == part
    for p in range(1, red.depth + 1):
        assert red.split_counts(p) == coll.split_counts(p)


class TestSplitTimes:
    def test_siblings_split_at_one(self, small_tree):
        t = small_tree
        u = next(x for x in range(t.size) if t.gen[x] == 0 or t.n_children[x] == 3)
        kids = t.children(0)
        if len(kids) >= 2:
            pair = (int(kids[0]), int(kids[1]))
            assert g.first_full_split(t, pair) == 1

    def test_figure_tuple(self, figure_tree):
        x1, x2, x3, x4 = 7, 10, 6, 8
        assert g.first_full_split(figure_tree, (x1, x2, x3, x4)) == 4
        sig = g.coalescent_times(figure_tree, (x1, x2, x3, x4))
        assert sig.times == (2, 4)
        assert sig.times[-1] == g.first_full_split(figure_tree, (x1, x2, x3, x4))

    def test_three_split_times(self):
        # asymmetric fixture whose three splits land at distinct generations
        parents = [-1, 0, 1, 1, 2, 2, 3, 4, 5, 6, 6]
        disps = [0.0, 0.1, 0.2, 0.3, 0.1, 0.2, 0.3, 0.1, 0.2, 0.3, 0.1]
        t = g.tree_from_parents(parents, disps)
        sig = g.coalescent_times(t, (7, 9, 8, 10))
        assert sig.split_count == 3
        assert sig.times == (2, 3, 4)

    def test_membership_exhaustive_pairs(self, law):
        tree = g.generate(law, 4, seed=21)
        ids = tree.generation_ids(4)
        for x, y in itertools.combinations((int(v) for v in ids), 2):
            split = g.first_full_split(tree, (x, y))
            for m in range(1, 6):
                member = split <= m
                assert member == (g.mrca_generation(tree, x, y) < m)

    def test_rejects_ancestral_tuple(self, small_tree):
        u = int(small_tree.generation_ids(2)[0])
        c = int(small_tree.children(u)[0])
        with pytest.raises(TupleError):
            g.first_full_split(small_tree, (u, c))


class TestPartitionProcess:
    def test_level_zero_one_block(self, figure_tree):
        part = g.partition_process(figure_tree, (7, 10, 6, 8), 0)
        assert part == P([[1, 2, 3, 4]])

    def test_beyond_max_generation_singletons(self, figure_tree):
        tup = (7, 10, 6, 8)
        deepest = max(int(figure_tree.gen[x]) for x in tup)
        part = g.partition_process(figure_tree, tup, deepest + 1)
        assert part == P([[1], [2], [3], [4]])

    def test_figure_pairing(self, figure_tree):
        part = g.partition_process(figure_tree, (7, 10, 6, 8), 2)
        assert part == P([[1, 3], [2, 4]])

    def test_figure_process_changes_one_after_each_mrca(self, figure_tree):
        # pairwise MRCAs of the figure tuple sit at generations 1 and 3
        tup = (7, 10, 6, 8)
        want = [P([[1, 2, 3, 4]])] * 2 + [P([[1, 3], [2, 4]])] * 2 + [P([[1], [2], [3], [4]])] * 2
        assert [g.partition_process(figure_tree, tup, m) for m in range(6)] == want

    def test_refinement_chain_in_level(self, law, rng):
        tree = g.generate(law, 6, seed=33)
        ids = tree.generation_ids(6)
        for _ in range(50):
            tup = tuple(int(v) for v in rng.choice(ids, 3, replace=False))
            if len(set(tup)) < 3:
                continue
            prev = g.partition_process(tree, tup, 0)
            for m in range(1, 7):
                cur = g.partition_process(tree, tup, m)
                assert cur.refines(prev)
                prev = cur


class TestUpsilon:
    def test_level_zero_one_block_always(self, figure_tree):
        assert g.upsilon_member(figure_tree, (7, 10, 6, 8), 0, P([[1, 2, 3, 4]]))

    def test_figure_membership_flips(self, figure_tree):
        pi = P([[1, 3], [2, 4]])
        tup = (7, 10, 6, 8)
        assert g.upsilon_member(figure_tree, tup, 2, pi)
        assert not g.upsilon_member(figure_tree, tup, 4, pi)

    def test_figure_membership_holds_at_mrca_generation(self, figure_tree):
        tup = (7, 10, 6, 8)
        assert g.upsilon_member(figure_tree, tup, 1, P([[1, 2, 3, 4]]))
        assert g.upsilon_member(figure_tree, tup, 3, P([[1, 3], [2, 4]]))

    def test_singletons_at_full_split(self, law, rng):
        tree = g.generate(law, 5, seed=44)
        ids = tree.generation_ids(5)
        for _ in range(30):
            tup = tuple(int(v) for v in rng.choice(ids, 2, replace=False))
            split = g.first_full_split(tree, tup)
            assert g.upsilon_member(tree, tup, split, P([[1], [2]]))


class TestIndicator:
    def test_sibling_pair(self, law):
        tree = g.generate(law, 3, seed=55)
        root_kids = tree.children(0)
        if len(root_kids) < 2:
            tree = g.generate(law, 3, seed=56)
            root_kids = tree.children(0)
        pair = (int(root_kids[0]), int(root_kids[1]))
        coll = IncreasingCollection((P([[1, 2]]), P([[1], [2]])))
        assert g.genealogy_indicator(tree, pair, (1,), coll) == 1

    def test_round_trip_random_tuples(self, law, rng):
        tree = g.generate(law, 6, seed=57)
        ids = tree.generation_ids(6)
        done = 0
        for _ in range(1000):
            k = int(rng.integers(2, 5))
            tup = tuple(int(v) for v in rng.choice(ids, k, replace=False))
            if len(set(tup)) < k:
                continue
            sig = g.coalescent_times(tree, tup)
            assert g.genealogy_indicator(tree, tup, sig.times, sig.collection) == 1
            done += 1
        assert done > 900

    def test_malformed_times_rejected(self, figure_tree):
        coll = IncreasingCollection(
            (P([[1, 2, 3, 4]]), P([[1, 3], [2, 4]]), P([[1], [2], [3], [4]]))
        )
        with pytest.raises(SignatureError):
            g.genealogy_indicator(figure_tree, (7, 10, 6, 8), (4, 2), coll)

    def test_signature_json_round_trip(self, figure_tree):
        sig = g.coalescent_times(figure_tree, (7, 10, 6, 8))
        back = g.GenealogySignature.from_json(sig.to_json())
        assert back == sig


def _extinguishing_law():
    b = math.log(2.1)
    return g.generic_law([(0.3, ()), (0.7, (b, b, b))])


_TABLE_TREES = [g.generate(make_law(), 5, seed=seed)
                for make_law in (g.default_law, _extinguishing_law, g.gaussian_law)
                for seed in (71, 72)]


def _grouped_by_ancestor(tree, xs, m):
    # the definition: slots with one generation-m ancestor form a block, a
    # slot shallower than m stands alone
    return Partition.from_labels([int(tree.ancestor_chain(x)[m]) if tree.gen[x] >= m
                                  else ("alone", i) for i, x in enumerate(xs)])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_genealogy_matches_ancestor_definition(data):
    # repeated and ancestral vertices allowed
    tree = data.draw(st.sampled_from(_TABLE_TREES))
    xs = data.draw(st.lists(st.integers(0, tree.size - 1), min_size=2, max_size=4))
    for m in range(tree.depth + 3):
        assert g.partition_process(tree, xs, m) == _grouped_by_ancestor(tree, xs, m), (xs, m)
    if g.tree.ancestral_pair(tree, xs) is not None:
        return
    sig = g.coalescent_times(tree, xs)
    assert g.genealogy_indicator(tree, xs, sig.times, sig.collection) == 1
    assert sum(g.genealogy_indicator(tree, xs, sig.times, coll) for coll in
               enumerate_increasing_collections(len(xs), sig.split_count)) == 1
    assert g.genealogy.pairwise_split_requirements(sig.times, sig.collection) == {
        (a + 1, b + 1): g.mrca_generation(tree, xs[a], xs[b])
        for a, b in itertools.combinations(range(len(xs)), 2)}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_signature_json_round_trip_property(data):
    coll = data.draw(st.one_of(st.just(IncreasingCollection((P([[1]]),))), CHAINS))
    times = data.draw(st.lists(st.integers(1, 10**6), min_size=coll.depth,
                               max_size=coll.depth, unique=True))
    sig = g.GenealogySignature(tuple(sorted(times)), coll)
    text = sig.to_json()
    back = g.GenealogySignature.from_json(text)
    assert back == sig and back.to_json() == text


def _weighted_times(times, coll):
    # a signature function outside the library: reads times and partitions
    return float(sum(t * len(part) for t, part in zip(times, coll.levels[1:])))


_HEREDITY_TREES = [g.generate(g.default_law(), 6, seed=seed) for seed in (61, 62)]
_HEREDITY_CASES = {
    k: [constant_one(), g.make_f_m(3), g.make_f_lambda([2, 3][: k - 1]),
        g.make_f_lambda([math.inf] * (k - 1)), _within_warmup(g.make_f_m(3), 4),
        Constraint("weighted-times", _weighted_times, 1)]
    + [g.make_F_ell_s(ell, svec, k)
       for ell in range(1, k) for svec in itertools.combinations(range(1, 5), ell)]
    for k in (2, 3)
}


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_constraints_are_hereditary(data):
    # a constraint reads only the signature, which a tuple shares with its
    # generation-p ancestors from its first full split on
    tree = data.draw(st.sampled_from(_HEREDITY_TREES))
    k = data.draw(st.sampled_from(sorted(_HEREDITY_CASES)))
    f = data.draw(st.sampled_from(_HEREDITY_CASES[k]))
    xs = data.draw(st.lists(st.integers(1, tree.size - 1), min_size=k, max_size=k, unique=True))
    try:
        split = g.first_full_split(tree, xs)
    except TupleError:
        assume(False)
    value = f(tree, xs)
    for p in range(split, min(int(tree.gen[x]) for x in xs) + 1):
        ys = [int(tree.ancestor_chain(x)[p]) for x in xs]
        assert f(tree, ys) == value, (f.name, xs, p)


class TestConstraintLibrary:
    def test_split_bound_on_sibling_pair(self, law):
        tree = g.generate(law, 2, seed=58)
        kids = tree.children(0)
        if len(kids) >= 2:
            pair = (int(kids[0]), int(kids[1]))
            assert g.make_f_m(1)(tree, pair) == 1.0

    def test_infinite_sentinel_reduces_to_one(self, law, rng):
        tree = g.generate(law, 5, seed=59)
        f = g.make_f_lambda([math.inf, math.inf])
        ids = tree.generation_ids(5)
        for _ in range(20):
            tup = tuple(int(v) for v in rng.choice(ids, 3, replace=False))
            if len(set(tup)) == 3:
                assert f(tree, tup) == 1.0

    def test_time_family_sums_to_split_indicator(self, law, rng):
        # pointwise: summing the families over all split counts and time
        # vectors below the bound is the full-split indicator
        tree = g.generate(law, 4, seed=60)
        bound = 3
        fams = [
            g.make_F_ell_s(ell, times, 3)
            for ell in (1, 2)
            for times in itertools.combinations(range(1, bound + 1), ell)
        ]
        ids = tree.generation_ids(4)
        for _ in range(60):
            tup = tuple(int(v) for v in rng.choice(ids, 3, replace=False))
            if len(set(tup)) < 3:
                continue
            total = sum(f(tree, tup) for f in fams)
            expect = 1.0 if g.first_full_split(tree, tup) <= bound else 0.0
            assert total == expect
