"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria (tolerances pinned here, nothing deferred):

  ACC-01  closed-form hitting probability vs linear-solve oracle, 100 random
          instances at depth <= 8, max gap < 1e-9, under 10 s
  ACC-02  hitting probability vs walk frequencies, 20 targets, 1e5
          excursions, within 4 SE, under 2 min
  ACC-03  tilted-walk means vs tree sums, horizons 1..5, three test
          functions, 1e5 replicas per side, within 4 combined SE, under 2 min
  ACC-04  depth martingale: ensemble mean 1 within 4 SE (depth 10, 1e4
          trees); frozen-prefix extension returns the prefix value within 4 SE
  ACC-05  second transform zero in [6.9, 7.0] with |psi| < 1e-9 at the root
  ACC-06  tilted-walk constant inside its deterministic bracket; truncation
          doubling stable within 3 combined SE
  ACC-07  collection reduction reproduces the worked example; block-count
          and split-count preservation on 1e3 random collections
  ACC-08  signature-mean Monte Carlo (1e5 trees; pair at time 3, triple
          with a two-step chain) within 4 SE of the closed form with the
          derived root factor; the literal-variant discriminator recorded;
          under 5 min
  ACC-09  band volume per excursion and generation vs the predicted
          constant: non-increasing median absolute deviation over the
          budget grid, final median relative deviation < 0.35, under 30 min
          together with ACC-10/11
  ACC-10  mass fraction of band pairs without pairwise-distinct excursions:
          non-increasing median over the same grid
  ACC-11  empirical split-generation law of sampled pairs: stable within
          3 cluster SE between the two largest budgets, monotone in m
  ACC-12  signature partition of unity and split-bound normalization,
          bitwise per tree, exhaustive for k in {2,3} at depth <= 5
  ACC-13  byte-identical artifacts for repeated (config, seed) runs
"""

import math
import time

import numpy as np
import pytest

import gwrange as g
from gwrange import rng as rngmod
from gwrange.genealogy import IncreasingCollection, Partition
from gwrange.quenched import cross_check
from gwrange.theory import (
    run_band_experiment,
    signature_sum_identity,
    split_bound_sum_identity,
)
from gwrange.tree import sample_forest

P = Partition.make
ACC_SEED = 1
GRID = (10_000, 100_000, 1_000_000)
REPLICAS = {10_000: 24, 100_000: 16, 1_000_000: 12}


def report(tag, ok, detail=""):
    print(f"\n{tag}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


@pytest.fixture(scope="module")
def law():
    return g.default_law()


@pytest.fixture(scope="module")
def c_inf(law):
    return g.estimate_c_infinity(law, truncation=200, replicas=200_000,
                                 rng=rngmod.stream(ACC_SEED, "cinf"))


@pytest.fixture(scope="module")
def grid_runs(law):
    """Shared (tree, walk) replicas over the budget grid for ACC-09/10/11."""
    t0 = time.time()
    runs = {
        n: run_band_experiment(
            law, n, REPLICAS[n], seed=ACC_SEED, with_classes=True,
            tuples_per_run=300,
        )
        for n in GRID
    }
    runs["elapsed"] = time.time() - t0
    return runs


def test_acc01_oracle_agreement(law):
    t0 = time.time()
    worst = 0.0
    for case in range(100):
        rng = rngmod.stream(ACC_SEED, "acc01", case)
        tree = g.generate(law, int(rng.integers(3, 9)), rng=rng)
        ids = tree.generation_ids(tree.depth)
        x = int(ids[rng.integers(len(ids))])
        chain = tree.ancestor_chain(x)
        z = int(chain[rng.integers(len(chain))])
        worst = max(worst, cross_check(tree, z, x))
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    assert report("ACC-01 oracle agreement", ok,
                  f"(max gap {worst:.2e}, {elapsed:.1f}s)")


def test_acc02_hitting_frequencies(law):
    t0 = time.time()
    tree = g.generate(law, 8, seed=ACC_SEED + 17)
    s = 100_000
    trace = g.run_excursions(tree, s, rngmod.stream(ACC_SEED, "acc02"))
    rng = np.random.default_rng(ACC_SEED)
    # detectability floor: 1e5 excursions resolve p >= 5e-4
    pool = [
        int(x)
        for gen in (2, 3, 4, 5, 6)
        for x in tree.generation_ids(gen)
        if g.hit_before_return(tree, 0, int(x)) >= 5e-4
    ]
    targets = [int(v) for v in rng.choice(pool, size=20, replace=False)]
    assert len(set(targets)) == 20
    worst_z = 0.0
    for x in targets:
        p = g.hit_before_return(tree, 0, x)
        hits = int(trace.excursion_count[trace.index_of(x)]) if trace.was_visited(x) else 0
        se = math.sqrt(p * (1.0 - p) / s)
        worst_z = max(worst_z, abs(hits / s - p) / se)
    elapsed = time.time() - t0
    ok = worst_z <= 4.0 and elapsed < 120.0
    assert report("ACC-02 hitting frequencies", ok,
                  f"(20 targets, worst z {worst_z:.2f}, {elapsed:.1f}s)")


def test_acc03_tilted_walk_vs_tree_sums(law):
    t0 = time.time()
    reps = 100_000
    fns = (("identity", lambda v: v), ("square", lambda v: v * v),
           ("neg-exp", lambda v: np.exp(-v)))
    worst_z = 0.0
    for p in range(1, 6):
        paths = g.sample_tilted_walk(law, p, rngmod.stream(ACC_SEED, "acc03-s", p),
                                     replicas=reps)
        end = paths[:, -1]
        sums = [[] for _ in fns]
        for f in sample_forest(law, p, reps, rngmod.stream(ACC_SEED, "acc03-t", p)):
            term = f.V[p]
            for acc, (_, fn) in zip(sums, fns):
                acc.append(f.tree_sums(np.exp(-term) * fn(term)))
        for (name, fn), acc in zip(fns, sums):
            walk_vals = fn(end)
            tree_vals = np.concatenate(acc)
            gap = abs(walk_vals.mean() - tree_vals.mean())
            se = math.hypot(walk_vals.std(ddof=1), tree_vals.std(ddof=1)) / math.sqrt(reps)
            worst_z = max(worst_z, gap / se)
    elapsed = time.time() - t0
    ok = worst_z <= 4.0 and elapsed < 120.0
    assert report("ACC-03 tilted-walk transfer", ok,
                  f"(horizons 1..5 x 3 functions, worst z {worst_z:.2f}, {elapsed:.1f}s)")


def test_acc04_martingale_checks(law):
    t0 = time.time()
    trees = 10_000
    batch = 2_000
    vals = []
    for b in range(trees // batch):
        for f in sample_forest(law, 10, batch, rngmod.stream(ACC_SEED, "acc04", b)):
            vals.append(f.tree_sums(np.exp(-f.V[10])))
    w10 = np.concatenate(vals)
    se = w10.std(ddof=1) / math.sqrt(trees)
    mean_ok = abs(w10.mean() - 1.0) <= 4 * se

    tree = g.generate(law, 6, seed=ACC_SEED + 23)
    w6 = g.additive_martingale(tree, 6)
    leaves = tree.generation_ids(6)
    rng = rngmod.stream(ACC_SEED, "acc04-ext")
    reps = 6000
    ext = np.empty(reps)
    for r in range(reps):
        counts, disp = law.sample_generation(rng, len(leaves))
        child_v = tree.V[np.repeat(leaves, counts)] + disp
        ext[r] = np.exp(-child_v).sum()
    se_ext = ext.std(ddof=1) / math.sqrt(reps)
    prefix_ok = abs(ext.mean() - w6) <= 4 * se_ext
    elapsed = time.time() - t0
    ok = mean_ok and prefix_ok
    assert report("ACC-04 martingale checks", ok,
                  f"(mean {w10.mean():.4f}+-{se:.4f}, prefix gap "
                  f"{abs(ext.mean() - w6):.4f} vs 4se {4 * se_ext:.4f}, {elapsed:.0f}s)")


def test_acc05_second_zero(law):
    kap = g.kappa(law)
    resid = abs(g.log_laplace(law, kap))
    ok = 6.9 <= kap <= 7.0 and resid < 1e-9
    assert report("ACC-05 second transform zero", ok,
                  f"(kappa {kap:.6f}, |psi| {resid:.1e})")


def test_acc06_c_infinity(law, c_inf):
    lo, hi = c_inf.bracket
    in_bracket = lo <= c_inf.value <= hi
    half = g.estimate_c_infinity(law, truncation=100, replicas=200_000,
                                 rng=rngmod.stream(ACC_SEED, "acc06"))
    stable = abs(half.value - c_inf.value) <= 3 * math.hypot(half.se, c_inf.se)
    ok = in_bracket and stable
    assert report("ACC-06 tilted-walk constant", ok,
                  f"(value {c_inf.value:.5f} in [{lo:.4f}, 1], doubling gap "
                  f"{abs(half.value - c_inf.value):.2e})")


def test_acc07_collection_reduction():
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
    example_ok = [lvl.blocks for lvl in red.levels] == [
        ((1, 2, 3, 4),),
        ((1, 3), (2, 4)),
        ((1,), (2, 4), (3,)),
        ((1,), (2,), (3,), (4,)),
    ]
    from gwrange.genealogy import enumerate_increasing_collections

    pools = {k: list(enumerate_increasing_collections(k)) for k in (3, 4, 5, 6)}
    rng = np.random.default_rng(ACC_SEED)
    invariant_ok = True
    checked = 0
    while checked < 1000:
        k = int(rng.integers(3, 7))
        coll = pools[k][rng.integers(len(pools[k]))]
        if coll.depth < 2:
            continue
        red = g.reduce_collection(coll)
        for a, b in zip(coll.levels[:-1], red.levels):
            invariant_ok &= len(a) == len(b)
        for p in range(1, red.depth + 1):
            invariant_ok &= red.split_counts(p) == coll.split_counts(p)
            for block, beta in zip(red.levels[p - 1].blocks, red.beta_profile(p)):
                invariant_ok &= sum(beta) == len(block)
        checked += 1
    ok = example_ok and invariant_ok
    assert report("ACC-07 collection reduction", ok,
                  f"(worked example {'ok' if example_ok else 'BAD'}, "
                  f"{checked} random collections)")


def test_acc08_signature_mean(law):
    t0 = time.time()
    reps = 100_000
    pair = IncreasingCollection((P([[1, 2]]), P([[1], [2]])))
    triple = IncreasingCollection(
        (P([[1, 2, 3]]), P([[1, 3], [2]]), P([[1], [2], [3]]))
    )
    results = []
    for k, svec, coll, tag in ((2, (3,), pair, "pair@3"),
                               (3, (2, 3), triple, "triple@(2,3)")):
        derived = g.esp_partition_law(law, k, svec, coll, prefactor="derived")
        literal = g.esp_partition_law(law, k, svec, coll, prefactor="literal")
        est, se = g.estimate_esp_partition(law, k, svec, coll, reps,
                                           rngmod.stream(ACC_SEED, f"acc08-{k}"))
        z_derived = abs(est - derived) / se
        z_literal = abs(est - literal) / se
        results.append((tag, est, se, derived, literal, z_derived, z_literal))
    elapsed = time.time() - t0
    ok = all(zd <= 4.0 for *_, zd, _ in results) and elapsed < 300.0
    detail = "; ".join(
        f"{tag}: est {est:.5f}+-{se:.5f}, derived z {zd:.2f}, literal z {zl:.2f}"
        for tag, est, se, drv, lit, zd, zl in results
    )
    # discriminator recorded: the literal root factor is rejected wherever
    # the two variants differ (the pair case has split time != 2)
    discriminated = results[0][6] > 4.0
    assert report("ACC-08 signature mean", ok,
                  f"({detail}; literal-variant discriminated: {discriminated}, "
                  f"{elapsed:.0f}s)")


def test_acc09_band_volume_trend(law, c_inf, grid_runs):
    medians_abs, medians_rel = [], []
    for n in GRID:
        runs = grid_runs[n]
        devs = [abs(r.volume_stat - c_inf.value * r.martingale_depth) for r in runs]
        rels = [
            abs(r.volume_stat - c_inf.value * r.martingale_depth)
            / (c_inf.value * r.martingale_depth)
            for r in runs
        ]
        medians_abs.append(float(np.median(devs)))
        medians_rel.append(float(np.median(rels)))
    trend = all(b <= a for a, b in zip(medians_abs, medians_abs[1:]))
    final_ok = medians_rel[-1] < 0.35
    elapsed = grid_runs["elapsed"]
    ok = trend and final_ok and elapsed < 1800.0
    assert report(
        "ACC-09 band volume trend", ok,
        f"(median |dev| {['%.4f' % v for v in medians_abs]}, final rel "
        f"{medians_rel[-1]:.3f} < 0.35, grid {elapsed:.0f}s)",
    )


def test_acc10_excursion_class_trend(law, grid_runs):
    medians = []
    for n in GRID:
        fracs = []
        for r in grid_runs[n]:
            m = r.class_masses
            if m["total"]:
                fracs.append((m["same-single"] + m["mixed"]) / m["total"])
        medians.append(float(np.median(fracs)))
    ok = all(b <= a for a, b in zip(medians, medians[1:]))
    assert report("ACC-10 shared-excursion mass trend", ok,
                  f"(medians {['%.4f' % v for v in medians]})")


def test_acc11_split_cdf_stabilization(law, grid_runs):
    ms = list(range(1, 7))
    cdfs = {}
    ses = {}
    mono = True
    for n in GRID:
        per_run = []
        for r in grid_runs[n]:
            if r.split_samples:
                arr = np.asarray(r.split_samples)
                per_run.append([(arr <= m).mean() for m in ms])
        mat = np.array(per_run)
        cdfs[n] = mat.mean(axis=0)
        # runs share a tree each: per-run CDFs are the independent units
        ses[n] = mat.std(axis=0, ddof=1) / math.sqrt(len(mat))
        mono &= bool(np.all(np.diff(cdfs[n]) >= -1e-12))
    a, b = GRID[-2], GRID[-1]
    gap = np.abs(cdfs[a] - cdfs[b])
    lim = 3.0 * np.sqrt(ses[a] ** 2 + ses[b] ** 2)
    stable = bool((gap <= lim).all())
    ok = stable and mono
    assert report(
        "ACC-11 split-generation law", ok,
        f"(max gap {gap.max():.4f} vs limit {lim[np.argmax(gap)]:.4f}, "
        f"monotone {mono})",
    )


def test_acc12_exact_identities(law):
    t0 = time.time()
    all_ok = True
    for k in (2, 3):
        for depth in (3, 4, 5):
            tree = g.generate(law, depth, seed=ACC_SEED + 31 * depth + k)
            out = signature_sum_identity(tree, k, depth)
            all_ok &= out["bitwise"] and out["unique_signature_per_tuple"]
            out2 = split_bound_sum_identity(tree, k, depth, bound=depth - 1)
            all_ok &= out2["bitwise"] and out2["pointwise"]
    elapsed = time.time() - t0
    assert report("ACC-12 exact per-tree identities", all_ok,
                  f"(k in {{2,3}}, depth <= 5, bitwise, {elapsed:.0f}s)")


def test_acc13_reproducible_artifacts(tmp_path):
    from gwrange.cli import main

    args = ["verify", "excursion-classes", "--n-grid", "2000,4000",
            "--replicas", "3", "--seed", str(ACC_SEED)]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        outs.append(out)
    same = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("report.json", "grid.csv", "manifest.json")
    )
    assert report("ACC-13 reproducible artifacts", same,
                  "(verify rerun byte-identical)")
