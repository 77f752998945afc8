"""Closed-form limit values and the simulation comparison harness.

The closed forms evaluate the annealed mean of potential-weighted tuple
sums with a prescribed genealogical signature as a product of one-
generation joint moments and persistence factors of the log-Laplace
transform. The harness confronts desk-scale walk simulations with the
limit predictions through verdicts along a growing budget grid; a verdict
fails, and says why, when a budget leaves fewer than two replicas with a
value.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .environment import (
    EnvironmentLaw,
    _mean_se,
    c_infinity,
    c_zero,
    kappa,
    log_laplace,
    moment_c_j,
)
from .errors import DomainError, ScheduleInfeasibleError, SignatureError
from .genealogy import (
    Constraint,
    GenealogySignature,
    IncreasingCollection,
    pairwise_split_requirements,
)
from .rangestats import (
    _check_tuple_cap,
    band_mrca_generations,
    delta_k_count,
    excursion_class_masses,
    general_range,
    sample_uniform_tuples,
    signature_sum,
    weighted_range_A_l,
)
from . import tree as treemod
from .tree import additive_martingale, generate, grow, sample_forest
from .walk import range_slice, run_excursions

__all__ = [
    "esp_partition_law",
    "estimate_esp_partition",
    "desk_band",
    "BandRun",
    "map_replicas",
    "tuple_stream",
    "run_band_experiment",
    "EXPERIMENTS",
    "limit_report_problem",
    "limit_report",
    "local_time_law_probe",
]


# ---------------------------------------------------------------------------
# closed form for signature-constrained tuple sums
# ---------------------------------------------------------------------------


def _split_times(k: int, svec, coll: IncreasingCollection) -> tuple:
    """``svec`` as split times of ``coll`` on k slots, checked by GenealogySignature."""
    if coll.k != k:
        raise SignatureError("collection ground set does not match k")
    return GenealogySignature(tuple(int(v) for v in svec), coll).times


def esp_partition_law(
    law: EnvironmentLaw,
    k: int,
    svec,
    coll: IncreasingCollection,
    prefactor: str = "derived",
    enforce_assumptions: bool = True,
) -> float:
    """Annealed mean of the signature-constrained tuple sum in the deep limit.

    Product over refinement steps of the one-generation joint moments given
    by the collection's split profiles, times persistence factors of the
    transform for every surviving block, times a root factor. The root
    factor is exp((s_1 - 1) * psi(k)) by the conditional-expectation
    recursion (``prefactor="derived"``, the default); ``"literal"``
    selects exp(psi(k)) instead, and the two coincide only at s_1 = 2.
    """
    svec = _split_times(k, svec, coll)
    if enforce_assumptions:
        # the limit statement behind this mean needs kappa > 2k; the product
        # itself stays well defined for finite-atom laws, so structural
        # comparisons may evaluate it with enforcement off
        kap = kappa(law)
        if not kap > 2 * k:
            raise DomainError(f"requires kappa > {2 * k}, law has kappa = {kap}")
    if prefactor == "derived":
        log_total = (svec[0] - 1) * log_laplace(law, k)
    elif prefactor == "literal":
        log_total = log_laplace(law, k)
    else:
        raise ValueError("prefactor must be 'derived' or 'literal'")
    ell = coll.depth
    for i in range(1, ell + 1):
        for bj, beta in zip(coll.split_counts(i), coll.beta_profile(i)):
            c = moment_c_j(law, bj, beta)
            if c <= 0.0:
                return 0.0
            log_total += math.log(c)
        s_star = (svec[i] - svec[i - 1] - 1) if i < ell else 1
        for b in coll.levels[i].blocks:
            if len(b) >= 2:
                log_total += s_star * log_laplace(law, len(b))
    return math.exp(log_total)


# ---------------------------------------------------------------------------
# Monte Carlo estimator of the same mean
# ---------------------------------------------------------------------------


def estimate_esp_partition(
    law: EnvironmentLaw,
    k: int,
    svec,
    coll: IncreasingCollection,
    replicas: int,
    rng: np.random.Generator,
    fast: bool = True,
):
    """Unbiased Monte Carlo of the deep-limit mean via trees of depth s_ell.

    The weighted tuple sum at generation s_ell with the signature indicator
    has the deep-limit mean exactly (conditional-expectation identity), so
    averaging it over independent trees estimates the closed form. Returns
    (estimate, standard error). The trees are one :func:`sample_forest`
    draw of ``replicas`` trees, not conditioned on survival (a tree that
    dies out adds 0); ``fast`` picks only how the per-tree sums are
    computed: by :func:`signature_sum` on each forest block, or
    (``fast=False``) by brute force, independent of the Moebius engine:
    every ordered k-tuple of one tree's deepest level is listed and tested
    pair by pair against the signature's MRCA generations, in array passes
    over the whole block. That path refuses a tree with more than
    ``rangestats.DEFAULT_TUPLE_CAP`` tuples (``CombinatorialCapError``).
    """
    if abs(log_laplace(law, 1.0)) > 1e-9:
        raise DomainError("law is not calibrated: transform does not vanish at 1")
    svec = _split_times(k, svec, coll)
    return _mean_se(np.concatenate([
        signature_sum(f, svec, coll, [[0.0] * svec[-1] + [np.exp(-f.V[-1])]] * k)
        if fast else _reference_sums(f, k, svec, coll)
        for f in sample_forest(law, svec[-1], replicas, rng)
    ]))


def _reference_sums(forest, k, svec, coll):
    """Per-tree signature sums of a forest block, tuple by tuple.

    A tree's deepest vertices all lie in one generation, so its admissible
    tuples are its ordered tuples of distinct deepest vertices. Trees with c
    such vertices share one list of the ordered k-tuples of range(c), offset
    by each tree's first row; every tuple is tested pair by pair against
    :func:`pairwise_split_requirements` on the ancestor rows of its slots,
    at most 2^16 tuples at a time. Refuses, before any work, a tree with more
    than ``DEFAULT_TUPLE_CAP`` tuples.
    """
    req = list(pairwise_split_requirements(svec, coll).items())
    ends = np.searchsorted(forest.root[-1], np.arange(len(forest.V[0]) + 1))
    counts = np.diff(ends)
    _check_tuple_cap(int(counts.max(initial=0)), k)
    anc = [np.arange(len(forest.V[-1]))]  # each deepest vertex's ancestor row per generation
    for g in range(len(forest.V) - 1, 0, -1):
        anc.insert(0, forest.parent[g][anc[0]])
    w = np.exp(-forest.V[-1])
    vals = np.zeros(len(counts))
    chunk = 1 << 16  # tuples tested per pass
    for c in np.unique(counts[counts >= k]):  # fewer than k vertices sum to 0
        trees = np.flatnonzero(counts == c)
        first = ends[trees][:, None]
        perms = itertools.permutations(range(c), k)
        for _ in range(0, math.perm(c, k), chunk):
            piece = np.fromiter(itertools.chain.from_iterable(itertools.islice(perms, chunk)),
                                dtype=np.int64).reshape(-1, k).T.copy()
            step = max(1, chunk // piece.shape[1])
            for lo in range(0, len(trees), step):
                xs = first[lo:lo + step] + piece[:, None, :]  # (slots, trees, tuples)
                term = w[xs[0]]
                for x in xs[1:]:
                    term *= w[x]
                for (a, b), m in req:
                    xa, xb = xs[a - 1], xs[b - 1]
                    term *= (anc[m][xa] == anc[m][xb]) & (anc[m + 1][xa] != anc[m + 1][xb])
                vals[trees[lo:lo + step]] += term.sum(axis=1)
    return vals


# ---------------------------------------------------------------------------
# desk-scale band experiments
# ---------------------------------------------------------------------------

# Bands for the canonical budget grid: deep enough that visit probabilities
# are small against sqrt(n) excursions, shallow enough to materialize.
_DESK_TABLE = {10_000: (13, 16), 100_000: (17, 20), 1_000_000: (21, 22)}


def desk_band(law: EnvironmentLaw, n: int):
    """(lower, upper) generation band for budget n at desk scale.

    Grows like 1.5 log n; the upper edge doubles as the truncation depth
    and is capped by the expected-node budget ``tree.DEFAULT_NODE_CAP``.
    """
    if n in _DESK_TABLE:
        lower, upper = _DESK_TABLE[n]
    else:
        lower = max(3, int(math.ceil(1.5 * math.log(n))))
        upper = lower + 3
    mu = max(law.mean_offspring, 1.0 + 1e-9)
    max_depth = int(math.floor(math.log(treemod.DEFAULT_NODE_CAP / 4.0) / math.log(mu)))
    upper = min(upper, max_depth)
    lower = min(lower, upper)
    if lower > math.sqrt(n):
        raise ScheduleInfeasibleError(
            f"band lower edge {lower} exceeds sqrt(n) at n={n}",
            min_feasible_n=int(math.exp(lower / 1.5)),
        )
    return lower, upper


@dataclass
class BandRun:
    """One (tree, walk) replica summarized for the limit comparisons.

    ``martingale_depth`` is :func:`gwrange.tree.additive_martingale` at the
    truncation depth: W_D itself on a complete tree, and on a walk-drawn
    one its conditional mean given the drawn part.
    """

    n: int
    replica: int
    s: int
    lower: int
    upper: int
    depth: int
    martingale_depth: float
    band_count: int
    max_generation: int
    class_masses: dict = None
    split_samples: list = None

    @property
    def width(self) -> int:
        return self.upper - self.lower + 1

    @property
    def volume_stat(self) -> float:
        return self.band_count / (math.sqrt(self.n) * self.width)


def tuple_stream(seed: int, n: int, rep: int) -> np.random.Generator:
    """The stream replica ``rep`` at budget n samples its band tuples from."""
    return rngmod.stream(seed, f"tuple/{n}", rep)


def _replica(job):
    law, n, rep, seed, lower, upper, measure = job
    tree_rng = rngmod.stream(seed, f"tree/{n}", rep)
    # survival to the depth is a whole-tree event, so a law that can die out
    # draws and rejection-resamples whole trees
    tree = generate(law, upper, rng=tree_rng) if law.can_die_out else grow(law, upper, tree_rng)
    trace = run_excursions(tree, int(math.ceil(math.sqrt(n))),
                           rngmod.stream(seed, f"walk/{n}", rep))
    return measure(seed, n, rep, range_slice(trace, tree, lower, upper))


def map_replicas(law: EnvironmentLaw, n: int, replicas: int, seed: int, band, measure,
                 threads: int = 1) -> list:
    """``measure(seed, n, rep, slice)`` of each (tree, walk, band) replica, in
    replica order.

    Replica ``rep`` draws a tree truncated at the band's upper edge on the
    stream tagged tree/n, walks ceil(sqrt(n)) excursions on walk/n and
    slices the visited set to the band (``None`` picks :func:`desk_band`).
    The tree grows one generation ahead of the walk (:func:`gwrange.tree.grow`),
    so it holds only the entered vertices and their children; a law that
    can die out instead draws the whole tree by :func:`generate`, conditioned
    on survival. A measure that samples tuples builds :func:`tuple_stream`
    (tagged tuple/n) itself, and one that reads whole generations completes
    the tree's top on fill/n (:meth:`gwrange.tree.MarkedTree.filled`). The
    streams are counter-based, so the result is identical for any worker
    count. ``threads > 1`` maps over a process pool, so the
    measure must then pickle: a module-level function, bound with
    ``functools.partial``. Only the measure's result outlives a replica, so
    it should not hold the tree.
    """
    lower, upper = desk_band(law, n) if band is None else band
    jobs = [(law, n, rep, seed, lower, upper, measure) for rep in range(replicas)]
    if threads <= 1:
        return [_replica(j) for j in jobs]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(_replica, jobs))


def _band_measure(with_classes, tuples_per_run, seed, n, rep, sl) -> BandRun:
    tree = sl.tree
    masses = excursion_class_masses(sl) if with_classes else None
    splits = None
    # a band on one line of descent has vertices but no admissible pair
    if (tuples_per_run > 0 and sl.size >= 2
            and (masses["total"] if masses else delta_k_count(sl, 2))):
        pairs = sample_uniform_tuples(sl, 2, tuples_per_run, tuple_stream(seed, n, rep))
        # a pair's first full split is one past its MRCA generation
        splits = (band_mrca_generations(sl, pairs)[:, 0] + 1).tolist()
    return BandRun(
        n=n,
        replica=rep,
        s=sl.trace.s,
        lower=sl.lower,
        upper=sl.upper,
        depth=tree.depth,
        martingale_depth=additive_martingale(tree, tree.depth),
        band_count=sl.size,
        max_generation=sl.max_generation,
        class_masses=masses,
        split_samples=splits,
    )


def run_band_experiment(
    law: EnvironmentLaw,
    n: int,
    replicas: int,
    seed: int,
    band=None,
    with_classes: bool = False,
    tuples_per_run: int = 0,
    threads: int = 1,
) -> list:
    """Simulate `replicas` independent (tree, walk) pairs at budget n.

    Each run of :func:`map_replicas` is summarized as a :class:`BandRun`:
    depth martingale, band count, optionally the excursion-class masses and
    the full-split generations of ``tuples_per_run`` uniform pairs (none on
    a band without an admissible pair). The pairs are drawn in one call of
    :func:`gwrange.rangestats.sample_uniform_tuples`, and each pair's full
    split is read from the band's ancestor table
    (:attr:`gwrange.walk.RangeSlice.ancestors`) as the number of
    generations where the two rows agree.
    """
    measure = functools.partial(_band_measure, with_classes, tuples_per_run)
    return map_replicas(law, n, replicas, seed, band, measure, threads)


# ---------------------------------------------------------------------------
# report drivers
# ---------------------------------------------------------------------------


def _constrained_measure(experiment, k, constraint, l_star, seed, n, rep, sl):
    """(statistic, target) of one replica; the volume target still lacks the
    c_inf**k factor. None when a ratio's denominator vanishes: the band has
    no admissible tuple, or generation min(l_star, depth) holds fewer than k
    vertices (A_l(1) = 0). The target sums that generation of the tree's top,
    completed on the stream tagged fill/n."""
    num = general_range(sl, k, constraint)
    lstar = min(l_star, sl.tree.depth)
    tree = sl.tree.filled(lstar, rngmod.stream(seed, f"fill/{n}", rep))
    if experiment == "constrained-volume":
        return (num.value / (math.sqrt(n) * sl.width) ** k,
                weighted_range_A_l(tree, k, lstar, constraint))
    # the unconstrained band sum is the tuple count general_range already took
    if num.tuple_count == 0:
        return None
    a_1 = weighted_range_A_l(tree, k, lstar, None)
    if a_1 == 0.0:
        return None
    return num.value / num.tuple_count, weighted_range_A_l(tree, k, lstar, constraint) / a_1


def _deviation_row(n, stats, targets, relative=False) -> dict:
    """Grid row of per-replica statistics against their targets (one array or
    a constant); its deviation is the median |statistic - target|. Without
    statistics every value is None, and with one the SE is."""
    stats, targets = np.array(stats, dtype=float), np.array(targets, dtype=float)
    mean, se = _mean_se(stats)
    devs, some = np.abs(stats - targets), len(stats) > 0
    row = {"n": n, "mean": mean, "se": se, "target": float(targets.mean()) if some else None,
           "deviation": float(np.median(devs)) if some else None}
    if relative:
        row["relative_deviation_median"] = float(np.median(devs / targets)) if some else None
    return row


def _volume_row(n, runs, scale):
    return _deviation_row(n, [r.volume_stat for r in runs],
                          [scale * r.martingale_depth for r in runs], relative=True)


def _class_row(n, runs, scale):
    # share of a band's pair mass not in pairwise distinct excursions, against 0
    return _deviation_row(n, [(m["same-single"] + m["mixed"]) / m["total"]
                              for m in (r.class_masses for r in runs) if m["total"]], 0.0)


def _split_row(n, runs, scale):
    # per replica with split samples, the empirical CDF of the full-split
    # generation at m = 1..6; no mean without such a replica, no SE with one
    cdf = np.array([[(arr <= m).mean() for m in range(1, 7)]
                    for arr in (np.array(r.split_samples) for r in runs if r.split_samples)])
    row = {"n": n, "mean": None, "se": None, "target": None, "deviation": None}
    if len(cdf):
        row["mean"] = [float(v) for v in cdf.mean(axis=0)]
    if len(cdf) >= 2:
        row["se"] = [float(v) for v in cdf.std(axis=0, ddof=1) / math.sqrt(len(cdf))]
    return row


def _constrained_row(n, pairs, scale):
    pairs = [p for p in pairs if p is not None]
    return _deviation_row(n, [stat for stat, _ in pairs],
                          [scale * target for _, target in pairs])


def _short_budget_verdict(rows):
    """A failing verdict naming the budgets where fewer than two replicas
    gave a value (their rows have no SE), or None when there is none."""
    short = [row["n"] for row in rows if row["se"] is None]
    if not short:
        return None
    return {"pass": False, "reason": "fewer than two replicas gave a value at n = "
                                     + ", ".join(map(str, short))}


def _trend_verdict(slack, rows, final_bound=None) -> dict:
    # the median |deviation| shrinks along the grid, up to a factor slack a
    # step, and with a final_bound the last median relative deviation is below it
    short = _short_budget_verdict(rows)
    if short:
        return short
    devs = [row["deviation"] for row in rows]
    trend = all(b <= a * slack for a, b in zip(devs, devs[1:]))
    if final_bound is None:
        return {"deviation_non_increasing": trend, "pass": trend}
    final = rows[-1]["relative_deviation_median"]
    return {"deviation_non_increasing": trend, "final_relative_deviation": final,
            "pass": trend and final < final_bound}


def _split_verdict(rows) -> dict:
    # the two largest budgets agree within 3 SE at every m
    short = _short_budget_verdict(rows)
    if short:
        return short
    (a, se_a), (b, se_b) = ((np.array(r["mean"]), np.array(r["se"])) for r in rows[-2:])
    stab = bool((np.abs(a - b) <= 3.0 * np.sqrt(se_a ** 2 + se_b ** 2)).all())
    mono = all(np.all(np.diff(r["mean"]) >= -1e-12) for r in rows)
    return {"stabilized_within_3se": stab, "monotone_in_m": mono, "pass": stab and mono}


# One limit_report experiment: the picklable measure it maps over the replicas
# (a constrained experiment's takes k, constraint and l_star first), the power
# of c_inf its target reads (None, 1 or "k"), its grid row (n, replica results,
# scale c_inf ** power or 1) -> dict, its verdict over the grid rows, whether it
# needs a constraint, and the fewest budgets it runs on.
_Experiment = collections.namedtuple(
    "_Experiment", "measure c_power row verdict constrained min_budgets", defaults=(False, 1))

EXPERIMENTS = {
    "band-volume": _Experiment(functools.partial(_band_measure, False, 0), 1, _volume_row,
                               functools.partial(_trend_verdict, 1.0, final_bound=0.35)),
    "excursion-classes": _Experiment(functools.partial(_band_measure, True, 0), None,
                                     _class_row, functools.partial(_trend_verdict, 1.0)),
    # split-cdf samples the full-split generations of 200 uniform band pairs
    "split-cdf": _Experiment(functools.partial(_band_measure, False, 200), None,
                             _split_row, _split_verdict, min_budgets=2),
    "constrained-volume": _Experiment(
        functools.partial(_constrained_measure, "constrained-volume"), "k",
        _constrained_row, functools.partial(_trend_verdict, 1.05), constrained=True),
    "constrained-ratio": _Experiment(
        functools.partial(_constrained_measure, "constrained-ratio"), None,
        _constrained_row, functools.partial(_trend_verdict, 1.05), constrained=True),
}


def limit_report_problem(experiment: str, constraint, n_grid):
    """Why :func:`limit_report` cannot run these arguments, or None."""
    entry = EXPERIMENTS.get(experiment)
    if entry is None:
        return f"unknown experiment {experiment!r}"
    if entry.constrained and constraint is None:
        return f"{experiment} needs a constraint"
    if len(n_grid) < entry.min_budgets:
        return f"{experiment} needs {entry.min_budgets} or more budgets, got {len(n_grid)}"
    return None


def limit_report(
    experiment: str,
    law: EnvironmentLaw,
    n_grid,
    k: int = 2,
    constraint: Constraint = None,
    replicas=12,
    seed: int = 1,
    bands: dict = None,
    l_star: int = 12,
    threads: int = 1,
) -> dict:
    """Trend comparison of a simulated statistic against its limit target.

    Experiments (:data:`EXPERIMENTS`): ``band-volume`` (band count per
    excursion and generation against the tilted-walk constant times the
    depth martingale), ``excursion-classes`` (mass fraction of pairs without
    distinct excursions, expected to shrink), ``split-cdf`` (law of the
    full-split generation of sampled pairs, expected to stabilize),
    ``constrained-volume`` and ``constrained-ratio`` (constrained tuple sums
    against their per-tree deep-level proxies). Each budget's replicas are
    drawn by :func:`map_replicas` on ``threads`` workers. The visit-rate
    constant c_inf is computed deterministically by
    :func:`gwrange.environment.c_infinity`, only where a target reads it:
    for ``band-volume`` and ``constrained-volume``, whose reports record it.
    That solve runs once per law in a process, so only the first such report
    pays it; the report is the same whether it was solved or reused.
    Arguments that :func:`limit_report_problem` refuses raise ``ValueError``
    before any replica is drawn.
    """
    n_grid = sorted(int(n) for n in n_grid)
    problem = limit_report_problem(experiment, constraint, n_grid)
    if problem is not None:
        raise ValueError(problem)
    entry = EXPERIMENTS[experiment]
    report = {
        "theorem": experiment,
        "law": law.family,
        "k": k,
        "constraint": None if constraint is None else constraint.name,
        "grid": [],
        "verdict": None,
    }
    scale = 1.0
    power = k if entry.c_power == "k" else entry.c_power
    if power is not None:
        cinf = c_infinity(law)
        report["c_infinity"] = {"value": cinf.value, "error": cinf.error,
                                "method": "deterministic"}
        scale = cinf.value ** power
    if not isinstance(replicas, dict):
        replicas = dict.fromkeys(n_grid, replicas)
    bands = bands or {}
    measure = entry.measure
    if entry.constrained:
        measure = functools.partial(measure, k, constraint, l_star)
    for n in n_grid:
        results = map_replicas(law, n, replicas.get(n, 8), seed, bands.get(n), measure, threads)
        report["grid"].append(entry.row(n, results, scale))
    report["verdict"] = entry.verdict(report["grid"])
    return report


def local_time_law_probe(
    law: EnvironmentLaw,
    n_grid,
    replicas: int = 100,
    seed: int = 1,
) -> dict:
    """Diagnostic for the root local-time scaling law.

    The prediction concerns the number of completed excursions within a
    real-time budget. On pregenerated truncated trees the time spent below
    the frontier is unobservable (``exact: false`` in the report): the
    probe counts the excursions that return within n recorded steps, so its
    samples are systematically inflated and the half-normal comparison is a
    shape diagnostic, never a hard assertion. Excursions are drawn on the
    lt-walk/n stream in batches of ceil(sqrt(n)), then twice the previous
    batch, until the recorded steps pass n. Budgets too small for the desk
    band are flagged schedule-infeasible.
    """
    from scipy import stats as sstats

    c0 = c_zero(law)
    out = {"theorem": "local-time", "law": law.family, "exact": False,
           "caveat": "time below the truncation frontier is not observable; "
                     "samples use recorded steps only",
           "grid": []}
    for n in sorted(int(v) for v in n_grid):
        try:
            lower, upper = desk_band(law, n)
        except ScheduleInfeasibleError as err:
            out["grid"].append({"n": n, "feasible": False,
                                "reason": str(err)})
            continue
        samples = []
        for rep in range(replicas):
            tree = generate(law, upper, rng=rngmod.stream(seed, f"lt-tree/{n}", rep))
            walk_rng = rngmod.stream(seed, f"lt-walk/{n}", rep)
            elapsed, completed, batch = 0, 0, int(math.ceil(math.sqrt(n)))
            while elapsed <= n:
                trace = run_excursions(tree, batch, walk_rng)
                completed += int(np.count_nonzero(trace.return_steps[1:] <= n - elapsed))
                elapsed += trace.steps
                batch *= 2
            w = additive_martingale(tree, tree.depth)
            samples.append(completed * w / (math.sqrt(n) * math.sqrt(c0)))
        arr = np.array(samples, dtype=float)
        ks = sstats.kstest(arr, "halfnorm")
        out["grid"].append(
            {
                "n": n,
                "feasible": True,
                "samples": len(arr),
                "mean": float(arr.mean()),
                "half_normal_mean": math.sqrt(2.0 / math.pi),
                "ks_distance": float(ks.statistic),
            }
        )
    feas = [row for row in out["grid"] if row.get("feasible")]
    if len(feas) >= 2:
        out["ks_trend_non_increasing"] = bool(
            all(b["ks_distance"] <= a["ks_distance"] for a, b in zip(feas, feas[1:]))
        )
    return out
