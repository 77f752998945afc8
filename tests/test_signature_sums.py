"""Signature-resolved tuple sums against per-tuple brute force."""

import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gwrange as g
from gwrange import rng as rngmod
from gwrange.cli import main
from gwrange.genealogy import constant_one, enumerate_increasing_collections
from gwrange.quenched import _within_warmup
from gwrange.rangestats import (
    DEFAULT_TUPLE_CAP,
    reference_tuple_sum,
    signature_sum,
    vertex_forest,
)
from gwrange.theory import desk_band
from gwrange.tree import Forest
from gwrange.walk import range_slice, run_excursions

_TREES = [g.generate(g.default_law(), depth, seed=seed)
          for depth, seed in ((3, 40), (4, 41), (5, 41), (5, 52))]


def _signatures(k, depth):
    for d in range(1, k):
        for coll in enumerate_increasing_collections(k, length=d):
            for times in itertools.combinations(range(1, depth + 1), d):
                yield times, coll


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_engine_matches_brute_force_per_signature(data):
    tree = data.draw(st.sampled_from(_TREES))
    k = data.draw(st.sampled_from([2, 3, 4]))
    ids = sorted(data.draw(st.lists(st.integers(0, tree.size - 1), min_size=k,
                                    max_size=min(9, tree.size), unique=True)))
    unit = data.draw(st.booleans())
    if unit:
        weights = [np.ones(tree.size)] * k
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        pool = [rng.uniform(0.1, 2.0, tree.size) for _ in range(2)]
        weights = [pool[data.draw(st.integers(0, 1))] for _ in range(k)]
    buckets = {}
    for tup in g.enumerate_delta_k(tree, ids, k):
        sig = g.coalescent_times(tree, tup)
        w = 1.0
        for wi, x in zip(weights, tup):
            w *= wi[x]
        key = (sig.times, sig.collection)
        buckets[key] = buckets.get(key, 0.0) + w
    # scale of the terms the Moebius sums cancel: every ordered k-tuple of
    # ids, repeats and ancestral pairs included
    total = math.prod(float(w[ids].sum()) for w in weights)
    forest, local = vertex_forest(tree, ids, [w[ids] for w in weights])
    for times, coll in _signatures(k, tree.depth):
        got = signature_sum(forest, times, coll, local)
        assert got.shape == (1,)
        want = buckets.pop((times, coll), 0.0)
        if unit:
            assert got[0] == want, (times, coll)
        else:
            assert abs(got[0] - want) <= 1e-12 * total, (times, coll)
    assert not buckets


def test_forest_roots_are_trees():
    # two trees side by side: per-root sums equal the per-tree sums
    a, b = _TREES[0], _TREES[2]
    depth = 3
    fa, fb = a.levels(depth), b.levels(depth)
    forest = Forest(
        tuple(np.concatenate(v) for v in zip(fa.V, fb.V)),
        (np.full(2, -1),) + tuple(np.concatenate([pa, pb + len(va)])
                                  for pa, pb, va in zip(fa.parent[1:], fb.parent[1:], fa.V)),
        tuple(np.concatenate([ra, rb + 1]) for ra, rb in zip(fa.root, fb.root)),
    )
    w = [0.0] * depth + [np.exp(-forest.V[depth])]
    for times, coll in _signatures(3, depth):
        got = signature_sum(forest, times, coll, [w] * 3)
        for root, t in enumerate((a, b)):
            ids = t.generation_ids(depth)
            one, local = vertex_forest(t, ids, [t.exp_neg_v[ids]] * 3)
            assert got[root] == pytest.approx(
                signature_sum(one, times, coll, local)[0], rel=1e-12, abs=0
            )


# direct per-tuple definitions the library constraints had before they were
# written as functions of the signature


def _old_f_lambda(lams):
    def fn(tree, xs):
        for i in range(1, len(xs)):
            if g.mrca_generation(tree, xs[i - 1], xs[i]) >= lams[i - 1]:
                return 0.0
        return 1.0
    return fn


def _old_f_m(m):
    return lambda tree, xs: 1.0 if g.first_full_split(tree, xs) <= m else 0.0


def _old_F_ell_s(ell, svec, k):
    colls = list(enumerate_increasing_collections(k, length=ell))
    return lambda tree, xs: float(
        sum(g.genealogy_indicator(tree, xs, svec, c) for c in colls))


@pytest.mark.parametrize("k", [2, 3])
def test_library_constraints_match_direct_definitions(k):
    pairs = [(constant_one(), lambda tree, xs: 1.0)]
    for lam in (2, 3, math.inf):
        lams = [lam, 2][: k - 1]
        pairs.append((g.make_f_lambda(lams), _old_f_lambda(lams)))
    for m in (2, 3):
        pairs.append((g.make_f_m(m), _old_f_m(m)))
    for ell in range(1, k):
        for svec in itertools.combinations(range(1, 5), ell):
            pairs.append((g.make_F_ell_s(ell, svec, k), _old_F_ell_s(ell, svec, k)))
    for tree in _TREES[:2]:
        tuples = list(g.enumerate_delta_k(tree, range(tree.size), k))
        assert tuples
        for new, old in pairs:
            for tup in tuples:
                assert new(tree, tup) == old(tree, tup), (new.name, tup)


@pytest.fixture(scope="module")
def walked_n1e4():
    """Seed 1 at n = 1e4, replica 0."""
    law = g.default_law()
    n = 10_000
    tree = g.generate(law, desk_band(law, n)[1], rng=rngmod.stream(1, f"tree/{n}", 0))
    return tree, run_excursions(tree, 100, rngmod.stream(1, f"walk/{n}", 0))


def test_triples_beyond_the_enumeration_cap(walked_n1e4):
    # 400 excursions on the same tree: the desk band then holds several
    # hundred vertices, well past the 172 at which ordered triples exceed
    # the enumeration cap
    tree, _ = walked_n1e4
    trace = run_excursions(tree, 400, rngmod.stream(1, "walk/10000", 0))
    sl = range_slice(trace, tree, *desk_band(g.default_law(), 10_000))
    n = sl.size
    assert n * (n - 1) * (n - 2) > DEFAULT_TUPLE_CAP
    stat = g.general_range(sl, 3)
    assert stat.value == stat.tuple_count == g.delta_k_count(sl, 3) > 0
    families = sum(
        g.general_range(sl, 3, g.make_F_ell_s(ell, svec, 3)).value
        for ell in (1, 2)
        for svec in itertools.combinations(range(1, sl.upper + 1), ell)
    )
    assert families == stat.tuple_count


def test_pair_count_and_constraints_match_enumeration(walked_n1e4):
    tree, trace = walked_n1e4
    sl = range_slice(trace, tree, 14, 15)
    for f in (None, g.make_f_lambda([3]), g.make_f_m(6), g.make_F_ell_s(1, [4], 2)):
        stat = g.general_range(sl, 2, f)
        total, count = reference_tuple_sum(sl.tree, sl.ids, 2, f)
        assert (stat.value, stat.tuple_count) == (total, count)


def test_library_constraints_pickle(walked_n1e4):
    # limit_report ships its constraint to worker processes
    tree, trace = walked_n1e4
    sl = range_slice(trace, tree, 14, 15)
    cases = [(constant_one(), 2), (g.make_f_m(6), 2), (g.make_f_lambda([3]), 2),
             (g.make_f_lambda([3, math.inf]), 3), (g.make_F_ell_s(1, [4], 2), 2),
             (g.make_F_ell_s(2, [2, 4], 3), 3), (_within_warmup(g.make_f_m(3), 4), 2)]
    tuples = list(itertools.permutations(sl.ids[:6].tolist(), 3))
    for f, k in cases:
        back = pickle.loads(pickle.dumps(pickle.loads(pickle.dumps(f))))
        assert (back.name, back.heredity_generation) == (f.name, f.heredity_generation)
        assert g.general_range(sl, k, back).value == g.general_range(sl, k, f).value
        assert [back(tree, t[:k]) for t in tuples] == [f(tree, t[:k]) for t in tuples]


def test_reference_sum_is_exact():
    tree = _TREES[1]
    ids = tree.generation_ids(3)
    tuples = list(itertools.permutations(ids.tolist(), 2))
    big = {tuples[0]: 1e16, tuples[-1]: -1e16}

    def f(tree, xs):
        # each unit term vanishes into a running float sum held near 1e16
        return big.get(tuple(xs), 1.0)

    total, count = reference_tuple_sum(tree, ids, 2, f)
    assert count == len(tuples)
    assert total == len(tuples) - 2


def test_readme_constrained_ratio_command(tmp_path):
    args = ["verify", "constrained-ratio", "--constraint", "f_lambda:3",
            "--n-grid", "10000", "--replicas", "2", "--out", str(tmp_path)]
    assert main(args) == 0
