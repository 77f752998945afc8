"""Closed-form limit values and the simulation comparison harness.

The closed forms evaluate the annealed mean of potential-weighted tuple
sums with a prescribed genealogical signature as a product of one-
generation joint moments and persistence factors of the log-Laplace
transform. The harness confronts desk-scale walk simulations with the
limit predictions: exact identities are checked exactly, limit statements
through trend verdicts along a growing budget grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .environment import (
    EnvironmentLaw,
    c_zero,
    estimate_c_infinity,
    kappa,
    log_laplace,
    moment_c_j,
)
from .errors import DomainError, ScheduleInfeasibleError, SignatureError, StepBudgetError
from .genealogy import (
    Constraint,
    IncreasingCollection,
    coalescent_times,
    enumerate_increasing_collections,
    first_full_split,
    make_F_ell_s,
    pairwise_split_requirements,
)
from .rangestats import (
    AncestorForest,
    excursion_class_masses,
    reference_tuple_sum,
    sample_uniform_tuple,
    signature_sum,
    weighted_range_A_l,
)
from .tree import additive_martingale, generate, sample_forest
from .walk import range_slice, run_excursions

__all__ = [
    "esp_partition_law",
    "estimate_esp_partition",
    "pairwise_split_requirements",
    "desk_band",
    "BandRun",
    "run_band_experiment",
    "limit_report",
    "local_time_law_probe",
    "signature_sum_identity",
    "split_bound_sum_identity",
]


# ---------------------------------------------------------------------------
# closed form for signature-constrained tuple sums
# ---------------------------------------------------------------------------


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
    svec = tuple(int(v) for v in svec)
    if coll.k != k:
        raise SignatureError("collection ground set does not match k")
    if len(svec) != coll.depth:
        raise SignatureError("need one split time per refinement step")
    if any(b <= a for a, b in zip(svec, svec[1:])) or (svec and svec[0] < 1):
        raise SignatureError("split times must be strictly increasing and >= 1")
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
    (``fast=False``) tuple by tuple through the reference enumeration on
    each tree.
    """
    if abs(log_laplace(law, 1.0)) > 1e-9:
        raise DomainError("law is not calibrated: transform does not vanish at 1")
    svec = tuple(int(v) for v in svec)
    if coll.k != k or len(svec) != coll.depth:
        raise SignatureError("collection/split-time shape mismatch")
    per_tree = np.concatenate([
        signature_sum(AncestorForest.of_levels(f.parent), svec, coll, [np.exp(-f.V[-1])] * k)
        if fast else _reference_sums(f, k, svec, coll)
        for f in sample_forest(law, svec[-1], replicas, rng)
    ])
    est = float(per_tree.mean())
    se = float(per_tree.std(ddof=1) / math.sqrt(replicas))
    return est, se


def _reference_sums(forest, k, svec, coll):
    """Per-tree signature sums of a forest block by the per-tuple reference
    enumeration, one :class:`MarkedTree` per tree."""
    req = list(pairwise_split_requirements(svec, coll).items())
    depth = svec[-1]
    ends = np.searchsorted(forest.root[-1], np.arange(len(forest.V[0]) + 1))
    vals = np.zeros(len(ends) - 1)
    for i in np.flatnonzero(np.diff(ends) >= k):  # fewer than k vertices sum to 0
        t = forest.tree(int(i))
        ids = t.generation_ids(depth)
        anc = t.ancestor_matrix(ids).T.tolist()
        first = int(ids[0])

        def has_signature(tree, xs):
            for (a, b), m in req:
                ra, rb = xs[a - 1] - first, xs[b - 1] - first
                if anc[m][ra] != anc[m][rb] or anc[m + 1][ra] == anc[m + 1][rb]:
                    return 0.0
            return 1.0

        vals[i], _ = reference_tuple_sum(t, ids, k, has_signature, [t.exp_neg_v[ids]] * k)
    return vals


# ---------------------------------------------------------------------------
# desk-scale band experiments
# ---------------------------------------------------------------------------

# Bands for the canonical budget grid: deep enough that visit probabilities
# are small against sqrt(n) excursions, shallow enough to materialize.
_DESK_TABLE = {10_000: (13, 16), 100_000: (17, 20), 1_000_000: (21, 22)}


def desk_band(law: EnvironmentLaw, n: int, node_cap: int = 30_000_000):
    """(lower, upper) generation band for budget n at desk scale.

    Grows like 1.5 log n; the upper edge doubles as the truncation depth
    and is capped by the expected-node budget.
    """
    if n in _DESK_TABLE:
        lower, upper = _DESK_TABLE[n]
    else:
        lower = max(3, int(math.ceil(1.5 * math.log(n))))
        upper = lower + 3
    mu = max(law.mean_offspring, 1.0 + 1e-9)
    max_depth = int(math.floor(math.log(node_cap / 4.0) / math.log(mu)))
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
    """One (tree, walk) replica summarized for the limit comparisons."""

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
    multi_visit_fraction: float = None

    @property
    def width(self) -> int:
        return self.upper - self.lower + 1

    @property
    def volume_stat(self) -> float:
        return self.band_count / (math.sqrt(self.n) * self.width)


def _band_replica(job) -> BandRun:
    (law, n, rep, seed, lower, upper, with_classes, tuples_per_run, split_bound) = job
    s = int(math.ceil(math.sqrt(n)))
    tree = generate(law, upper, rng=rngmod.stream(seed, f"tree/{n}", rep))
    trace = run_excursions(tree, s, rngmod.stream(seed, f"walk/{n}", rep))
    sl = range_slice(trace, tree, lower, upper)
    masses = excursion_class_masses(sl, s) if with_classes else None
    splits = None
    if tuples_per_run > 0 and sl.size >= 2:
        srng = rngmod.stream(seed, f"tuple/{n}", rep)
        splits = []
        for _ in range(tuples_per_run):
            tup = sample_uniform_tuple(sl, 2, srng, split_bound=split_bound)
            splits.append(first_full_split(tree, tup))
    multi = float((sl.excursion_counts() >= 2).mean()) if sl.size else None
    return BandRun(
        n=n,
        replica=rep,
        s=s,
        lower=lower,
        upper=upper,
        depth=tree.depth,
        martingale_depth=additive_martingale(tree, tree.depth),
        band_count=sl.size,
        max_generation=sl.max_generation,
        class_masses=masses,
        split_samples=splits,
        multi_visit_fraction=multi,
    )


def run_band_experiment(
    law: EnvironmentLaw,
    n: int,
    replicas: int,
    seed: int,
    band=None,
    with_classes: bool = False,
    tuples_per_run: int = 0,
    split_bound: int = None,
    threads: int = 1,
) -> list:
    """Simulate `replicas` independent (tree, walk) pairs at budget n.

    Each run generates a tree truncated at the band's upper edge, walks
    ceil(sqrt(n)) excursions, slices the visited set to the band, and
    summarizes what the limit comparisons need. Replicas use independent
    counter-based streams, so the result (in replica order) is identical
    for any worker count.
    """
    lower, upper = desk_band(law, n) if band is None else band
    jobs = [
        (law, n, rep, seed, lower, upper, with_classes, tuples_per_run, split_bound)
        for rep in range(replicas)
    ]
    if threads <= 1:
        return [_band_replica(j) for j in jobs]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(_band_replica, jobs))


# ---------------------------------------------------------------------------
# report drivers
# ---------------------------------------------------------------------------


def _c_infinity_value(law, seed):
    est = estimate_c_infinity(law, truncation=200, replicas=200_000,
                              rng=rngmod.stream(seed, "cinf"))
    return est


def limit_report(
    experiment: str,
    law: EnvironmentLaw,
    n_grid,
    k: int = 2,
    constraint: Constraint = None,
    replicas=12,
    seed: int = 1,
    bands: dict = None,
    tuples_per_run: int = 200,
    l_star: int = 12,
    threads: int = 1,
) -> dict:
    """Trend comparison of a simulated statistic against its limit target.

    Experiments: ``band-volume`` (band count per excursion and generation
    against the tilted-walk constant times the depth martingale),
    ``excursion-classes`` (mass fraction of tuples without pairwise
    distinct excursions, expected to shrink), ``split-cdf`` (law of the
    full-split generation of sampled pairs, expected to stabilize),
    ``constrained-volume`` and ``constrained-ratio`` (constrained tuple
    sums against their per-tree deep-level proxies).
    """
    n_grid = sorted(int(n) for n in n_grid)
    report = {
        "theorem": experiment,
        "law": law.family,
        "k": k,
        "constraint": None if constraint is None else constraint.name,
        "grid": [],
        "verdict": None,
    }
    if isinstance(replicas, dict):
        reps = {n: replicas.get(n, 8) for n in n_grid}
    else:
        reps = {n: replicas for n in n_grid}
    if experiment == "band-volume":
        cinf = _c_infinity_value(law, seed)
        medians = []
        for n in n_grid:
            band = None if bands is None else bands.get(n)
            runs = run_band_experiment(law, n, reps[n], seed, band=band, threads=threads)
            stats = np.array([r.volume_stat for r in runs])
            targets = np.array([cinf.value * r.martingale_depth for r in runs])
            devs = np.abs(stats - targets)
            rel = devs / targets
            medians.append(float(np.median(devs)))
            report["grid"].append(
                {
                    "n": n,
                    "mean": float(stats.mean()),
                    "se": float(stats.std(ddof=1) / math.sqrt(len(stats))),
                    "target": float(targets.mean()),
                    "deviation": float(np.median(devs)),
                    "relative_deviation_median": float(np.median(rel)),
                }
            )
        trend = all(b <= a for a, b in zip(medians, medians[1:]))
        final_rel = report["grid"][-1]["relative_deviation_median"]
        report["verdict"] = {
            "deviation_non_increasing": bool(trend),
            "final_relative_deviation": final_rel,
            "pass": bool(trend and final_rel < 0.35),
        }
        report["c_infinity"] = {"value": cinf.value, "se": cinf.se}
        return report
    if experiment == "excursion-classes":
        fracs = []
        for n in n_grid:
            band = None if bands is None else bands.get(n)
            runs = run_band_experiment(law, n, reps[n], seed, band=band, with_classes=True,
                                       threads=threads)
            per_run = []
            for r in runs:
                m = r.class_masses
                if m["total"]:
                    per_run.append((m["same-single"] + m["mixed"]) / m["total"])
            med = float(np.median(per_run))
            fracs.append(med)
            report["grid"].append(
                {
                    "n": n,
                    "mean": float(np.mean(per_run)),
                    "se": float(np.std(per_run, ddof=1) / math.sqrt(len(per_run))),
                    "target": 0.0,
                    "deviation": med,
                }
            )
        trend = all(b <= a for a, b in zip(fracs, fracs[1:]))
        report["verdict"] = {"deviation_non_increasing": bool(trend), "pass": bool(trend)}
        return report
    if experiment == "split-cdf":
        ms = list(range(1, 7))
        rows = []
        for n in n_grid:
            band = None if bands is None else bands.get(n)
            runs = run_band_experiment(
                law, n, reps[n], seed, tuples_per_run=tuples_per_run,
                band=band, threads=threads,
            )
            per_run_cdf = []
            for r in runs:
                if r.split_samples:
                    arr = np.array(r.split_samples)
                    per_run_cdf.append([(arr <= m).mean() for m in ms])
            cdf = np.array(per_run_cdf)
            mean = cdf.mean(axis=0)
            se = cdf.std(axis=0, ddof=1) / math.sqrt(len(cdf))
            rows.append({"n": n, "cdf": mean, "se": se})
            report["grid"].append(
                {
                    "n": n,
                    "mean": [float(v) for v in mean],
                    "se": [float(v) for v in se],
                    "target": None,
                    "deviation": None,
                }
            )
        a, b = rows[-2], rows[-1]
        gap = np.abs(a["cdf"] - b["cdf"])
        lim = 3.0 * np.sqrt(a["se"] ** 2 + b["se"] ** 2)
        stab = bool((gap <= lim).all())
        mono = bool(
            all(np.all(np.diff(r["cdf"]) >= -1e-12) for r in rows)
        )
        report["verdict"] = {
            "stabilized_within_3se": stab,
            "monotone_in_m": mono,
            "pass": bool(stab and mono),
        }
        return report
    if experiment in ("constrained-volume", "constrained-ratio"):
        if constraint is None:
            raise ValueError("constraint required for this experiment")
        cinf = _c_infinity_value(law, seed)
        medians = []
        for n in n_grid:
            band = (bands.get(n) if bands else None) or desk_band(law, n)
            lower, upper = band
            s = int(math.ceil(math.sqrt(n)))
            devs = []
            stats = []
            targets = []
            from .rangestats import general_range

            for rep in range(reps[n]):
                tree = trace = sl = None  # free the last replica before drawing the next
                tree = generate(law, upper, rng=rngmod.stream(seed, f"tree/{n}", rep))
                trace = run_excursions(tree, s, rngmod.stream(seed, f"walk/{n}", rep))
                sl = range_slice(trace, tree, lower, upper)
                num = general_range(sl, k, constraint, s=s)
                lstar = min(l_star, tree.depth)
                if experiment == "constrained-volume":
                    stat = num.value / (math.sqrt(n) * sl.width) ** k
                    target = cinf.value**k * weighted_range_A_l(tree, k, lstar, constraint)
                else:
                    den = general_range(sl, k, None, s=s)
                    if den.value == 0:
                        continue
                    stat = num.value / den.value
                    a_f = weighted_range_A_l(tree, k, lstar, constraint)
                    a_1 = weighted_range_A_l(tree, k, lstar, None)
                    target = a_f / a_1
                stats.append(stat)
                targets.append(target)
                devs.append(abs(stat - target))
            medians.append(float(np.median(devs)))
            report["grid"].append(
                {
                    "n": n,
                    "mean": float(np.mean(stats)),
                    "se": float(np.std(stats, ddof=1) / math.sqrt(len(stats))),
                    "target": float(np.mean(targets)),
                    "deviation": float(np.median(devs)),
                }
            )
        trend = all(b <= a * 1.05 for a, b in zip(medians, medians[1:]))
        report["verdict"] = {"deviation_non_increasing": bool(trend), "pass": bool(trend)}
        return report
    raise ValueError(f"unknown experiment {experiment!r}")


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
    probe counts excursions within a budget of recorded steps, so its
    samples are systematically inflated and the half-normal comparison is a
    shape diagnostic, never a hard assertion. Budgets too small for the
    desk band are flagged schedule-infeasible.
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
            try:
                trace = run_excursions(
                    tree, s=max(2, n), rng=rngmod.stream(seed, f"lt-walk/{n}", rep),
                    step_budget=n,
                )
                completed = trace.s
            except StepBudgetError as err:
                completed = len(err.partial.return_steps) - 1
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


# ---------------------------------------------------------------------------
# exact per-tree identities
# ---------------------------------------------------------------------------


def signature_sum_identity(tree, k: int, level: int) -> dict:
    """Per-tree partition of unity of the signature indicators.

    Every admissible tuple at one generation carries exactly one signature
    with times up to that generation, so summing the constrained weighted
    tuple sums over all signatures reproduces the unconstrained sum. Both
    sides are exact sums of the same multiset of terms, making the
    comparison bitwise.
    """
    from .genealogy import genealogy_indicator

    colls = {
        d: list(enumerate_increasing_collections(k, length=d)) for d in range(1, k)
    }
    ids = tree.generation_ids(level)
    weights = [tree.exp_neg_v[ids]] * k
    seen = set()

    def hits(tree, tup):
        out = 0
        for d, cs in colls.items():
            for times in itertools.combinations(range(1, level + 1), d):
                out += sum(genealogy_indicator(tree, tup, times, coll) for coll in cs)
        seen.add(out)
        return out

    lhs, _ = reference_tuple_sum(tree, ids, k, hits, weights)
    rhs, _ = reference_tuple_sum(tree, ids, k, None, weights)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "bitwise": lhs == rhs,
        "unique_signature_per_tuple": seen <= {1},
    }


def split_bound_sum_identity(tree, k: int, level: int, bound: int) -> dict:
    """Per-tree normalization of the fixed-split-time family.

    Summing the time-resolved signature families over all admissible split
    counts and time vectors below the bound reproduces the indicator of a
    full split by the bound, tuple by tuple.
    """
    fams = []
    for ell in range(1, k):
        for times in itertools.combinations(range(1, bound + 1), ell):
            fams.append(make_F_ell_s(ell, times, k))
    ids = tree.generation_ids(level)
    weights = [tree.exp_neg_v[ids]] * k
    mismatches = []

    def indicator(tree, tup):
        return 1.0 if first_full_split(tree, tup) <= bound else 0.0

    def family_sum(tree, tup):
        # each family's per-tuple value, read off the tuple's signature once
        sig = coalescent_times(tree, tup)
        val = sum(f.by_signature(sig.times, sig.collection) for f in fams)
        if val != indicator(tree, tup):
            mismatches.append(tup)
        return val

    lhs, _ = reference_tuple_sum(tree, ids, k, family_sum, weights)
    rhs, _ = reference_tuple_sum(tree, ids, k, indicator, weights)
    return {"lhs": lhs, "rhs": rhs, "bitwise": lhs == rhs, "pointwise": not mismatches}
