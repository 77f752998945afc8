"""Batch experiment driver.

Subcommands:

* ``assumptions``  standing-assumption report for the configured law
* ``constants``    closed-form, deterministic and Monte Carlo constants table
* ``simulate``     tree + walk replicas, trace and band-slice exports
* ``genealogy``    signatures and split-time histograms of sampled tuples
* ``verify``       limit-comparison report for one experiment id
* ``oracle``       closed-form hitting probability vs sparse linear solve

Configuration is an INI file with sections [law], [schedule], [experiment];
the command line overrides seed, replica count, worker count and output
directory (also via the GWRANGE_OUT environment variable). Every run
writes a manifest with the configuration hash, seed and versions, even on
failure; identical (config, seed) reruns produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import hashlib
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import rng as rngmod
from .environment import (
    c_infinity,
    c_zero,
    check_assumptions,
    classify_regime,
    compute_schedule,
    estimate_c_infinity,
    kappa,
    law_from_text,
    log_laplace,
    log_laplace_prime,
    moment_c_j,
    two_point_law,
)
from .errors import GwrangeError, ScheduleInfeasibleError
from .genealogy import MAX_GROUND, coalescent_times, make_F_ell_s, make_f_lambda, make_f_m
from .quenched import hit_before_return, hit_before_return_oracle
from .rangestats import (
    delta_k_count,
    excursion_class_masses,
    general_range,
    sample_uniform_tuple,
)
from .theory import (EXPERIMENTS, desk_band, limit_report, limit_report_problem,
                     local_time_law_probe, map_replicas, tuple_stream)
from .tree import generate, save_snapshot
from .walk import trace_to_csv


def _load_config(path):
    cp = configparser.ConfigParser()
    if path is not None:
        with open(path) as fh:
            text = fh.read()
        cp.read_string(text)
    else:
        text = ""
    return cp, text


def _law_from_config(cp):
    if not cp.has_section("law"):
        return two_point_law()
    lines = [f'{k} = {v}' for k, v in cp.items("law")]
    return law_from_text("\n".join(lines))


def _parse_constraint(ident, k):
    """Constraint ids: one | f_m:M | f_lambda:l2,l3,... | F:ELL:s1,s2,..."""
    if ident in (None, "", "one"):
        return None
    head, _, rest = ident.partition(":")
    if head == "f_m":
        return make_f_m(int(rest))
    if head == "f_lambda":
        lams = [math.inf if v == "inf" else int(v) for v in rest.split(",")]
        return make_f_lambda(lams)
    if head == "F":
        ell, _, times = rest.partition(":")
        return make_F_ell_s(int(ell), [int(v) for v in times.split(",")], k)
    raise ValueError(f"unknown constraint id {ident!r}")


def _constraint_id(args, cp):
    return args.constraint or cp.get("experiment", "constraint", fallback="one")


def _argument_problem(args, cp):
    """Why the arguments cannot run, or None; checked before any work."""
    if args.command == "oracle" and (args.cases < 1 or args.depth_max < 3):
        return (f"need --cases >= 1 and --depth-max >= 3, got {args.cases} "
                f"and {args.depth_max}")
    if args.command == "assumptions" and args.k < 2:
        return f"need --k >= 2, got {args.k}"
    if args.command in ("simulate", "genealogy", "verify"):
        if not 2 <= args.k <= MAX_GROUND:
            return f"need 2 <= --k <= {MAX_GROUND}, got {args.k}"
        if min(_grid(args, cp)) < 1:
            return "need --n-grid budgets that are positive integers"
    # the Monte Carlo constants and every verify report carry a standard error
    least = {"constants": 2, "verify": 2, "simulate": 1, "genealogy": 1}.get(args.command)
    if least is not None and args.replicas is not None and args.replicas < least:
        return f"need --replicas >= {least}, got {args.replicas}"
    if args.command == "genealogy" and args.tuples < 1:
        return f"need --tuples >= 1, got {args.tuples}"
    if args.command == "constants" and args.truncation < 0:
        return f"need --truncation >= 0, got {args.truncation}"
    if args.command == "verify":
        ident = _constraint_id(args, cp)
        try:
            constraint = _parse_constraint(ident, args.k)
        except (ValueError, GwrangeError) as err:
            return f"bad --constraint {ident!r}: {err}"
        if args.experiment != "local-time":
            return limit_report_problem(args.experiment, constraint, _grid(args, cp))
    return None


def _json_dump(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_manifest(outdir, args, config_text, status, failure=None):
    manifest = {
        "command": args.command,
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "seed": args.seed,
        "replicas": args.replicas,
        "threads": args.threads,
        "status": status,
        "failure": failure,
        "versions": {
            "gwrange": __version__,
            "numpy": np.__version__,
        },
    }
    _json_dump(manifest, os.path.join(outdir, "manifest.json"))


def _grid(args, cp):
    """The budget grid, with 0 for a budget that is not a decimal integer."""
    text = args.n_grid or cp.get("experiment", "n_grid", fallback="10000,100000,1000000")
    return [int(v) if v.strip().isdecimal() else 0 for v in text.split(",")]


def _band(cp, law, n):
    if cp.has_option("schedule", f"band_{n}"):
        lo, hi = cp.get("schedule", f"band_{n}").split(",")
        return int(lo), int(hi)
    return desk_band(law, n)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_assumptions(args, cp, law, outdir):
    report = check_assumptions(law, args.k)
    report["regime"] = classify_regime(law)
    _json_dump(report, os.path.join(outdir, "assumptions.json"))
    print(f"assumptions: {'PASS' if report['passed'] else 'FAIL'} "
          f"(kappa={report['kappa']}, regime={report['regime']})")
    return 0


def _cmd_constants(args, cp, law, outdir):
    cinf = c_infinity(law)
    cinf_out = {"value": cinf.value, "error": cinf.error, "method": "deterministic",
                "bracket": list(cinf.bracket)}
    mc_text = ""
    if law.family != "gaussian":
        # the Monte Carlo oracle draws tilted paths, which need a finite step law
        mc = estimate_c_infinity(law, truncation=args.truncation,
                                 replicas=args.replicas or 100_000,
                                 rng=rngmod.stream(args.seed, "constants"))
        cinf_out["monte_carlo"] = {"value": mc.value, "se": mc.se,
                                   "truncation": mc.truncation, "replicas": mc.replicas}
        mc_text = f" (Monte Carlo {mc.value:.6f} +- {mc.se:.1e})"
    kap = kappa(law)
    out = {
        "psi": {str(t): log_laplace(law, t) for t in (0.0, 1.0, 2.0, 3.0, 4.0)},
        "psi_prime1": log_laplace_prime(law, 1.0),
        "kappa": kap if math.isfinite(kap) else "inf",
        "c_infinity": cinf_out,
        "c_zero": c_zero(law),
    }
    try:
        sch = compute_schedule(law, 10**6)
        out["delta0"] = sch.delta0
        out["schedule_n1e6"] = {"warmup": sch.warmup, "lower": sch.lower,
                                "upper": sch.upper}
    except ScheduleInfeasibleError as err:
        out["delta0"] = None
        out["schedule_n1e6"] = {"infeasible": str(err)}
    rows = []
    for j in (1, 2, 3):
        for beta in {(1,) * j, (2,) + (1,) * (j - 1)}:
            rows.append({"j": j, "beta": list(beta),
                         "value": moment_c_j(law, j, beta)})
    out["c_j"] = sorted(rows, key=lambda r: (r["j"], r["beta"]))
    _json_dump(out, os.path.join(outdir, "constants.json"))
    with open(os.path.join(outdir, "c_j.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["j", "beta", "value"])
        for r in out["c_j"]:
            w.writerow([r["j"], " ".join(map(str, r["beta"])), repr(r["value"])])
    print(f"constants: c_inf={cinf.value:.9f} +- {cinf.error:.1e} (deterministic){mc_text} "
          f"c0={out['c_zero']:.6f} kappa={out['kappa']}")
    return 0


def _simulate_measure(k, seed, n, rep, sl):
    """(range_stats.csv row, walk trace) of one replica."""
    s = sl.trace.s
    stat = general_range(sl, k, None)
    classes = excursion_class_masses(sl) if k == 2 else {}
    row = [n, s, k, "one", rep, sl.size, sl.max_generation,
           repr(stat.value), repr(stat.value / stat.normalization),
           classes.get("distinct", ""), classes.get("same-single", ""),
           classes.get("mixed", "")]
    return row, sl.trace


def _cmd_simulate(args, cp, law, outdir):
    n = _grid(args, cp)[0]
    lo, hi = _band(cp, law, n)
    reps = args.replicas or 4
    results = map_replicas(law, n, reps, args.seed, (lo, hi),
                           functools.partial(_simulate_measure, args.k), args.threads)
    for rep, (_, trace) in enumerate(results):
        trace_to_csv(trace, os.path.join(outdir, f"trace_{rep}.csv"))
    with open(os.path.join(outdir, "range_stats.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "s", "k", "constraint_id", "replica", "band_count",
                    "max_generation", "value", "normalized_value",
                    "class_distinct", "class_same_single", "class_mixed"])
        w.writerows(row for row, _ in results)
    print(f"simulate: {reps} replicas at n={n}, band [{lo},{hi}]")
    return 0


def _genealogy_measure(k, tuples, seed, n, rep, sl):
    """Signatures of ``tuples`` uniform k-tuples of one replica's band, none
    when the band has no admissible k-tuple."""
    if sl.size < k or not delta_k_count(sl, k):
        return []
    srng = tuple_stream(seed, n, rep)
    return [coalescent_times(sl.tree, sample_uniform_tuple(sl, k, srng))
            for _ in range(tuples)]


def _cmd_genealogy(args, cp, law, outdir):
    n = _grid(args, cp)[0]
    reps = args.replicas or 4
    measure = functools.partial(_genealogy_measure, args.k, args.tuples)
    results = map_replicas(law, n, reps, args.seed, _band(cp, law, n), measure,
                           args.threads)
    hist = {}
    with open(os.path.join(outdir, "signatures.jsonl"), "w") as sig_fh:
        for sig in itertools.chain.from_iterable(results):
            sig_fh.write(sig.to_json() + "\n")
            for t in sig.times:
                hist[t] = hist.get(t, 0) + 1
    with open(os.path.join(outdir, "split_times.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["split_generation", "count"])
        for t in sorted(hist):
            w.writerow([t, hist[t]])
    print(f"genealogy: histogram over {sum(hist.values())} split times")
    return 0


def _cmd_verify(args, cp, law, outdir):
    grid = _grid(args, cp)
    if args.experiment == "local-time":
        report = local_time_law_probe(law, grid, replicas=args.replicas or 60,
                                      seed=args.seed)
    else:
        constraint = _parse_constraint(_constraint_id(args, cp), args.k)
        bands = {n: _band(cp, law, n) for n in grid}
        reps = args.replicas or {10_000: 24, 100_000: 16, 1_000_000: 12}
        report = limit_report(
            args.experiment, law, grid, k=args.k, constraint=constraint,
            replicas=reps, seed=args.seed, bands=bands, threads=args.threads,
        )
    _json_dump(report, os.path.join(outdir, "report.json"))
    with open(os.path.join(outdir, "grid.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "mean", "se", "target", "deviation"])
        for row in report["grid"]:
            w.writerow([row.get("n"), repr(row.get("mean")), repr(row.get("se")),
                        repr(row.get("target")), repr(row.get("deviation"))])
    verdict = report.get("verdict")
    print(f"verify {args.experiment}: verdict={json.dumps(verdict, sort_keys=True)}")
    return 0


def _cmd_oracle(args, cp, law, outdir):
    worst = 0.0
    rows = []
    for case in range(args.cases):
        rng = rngmod.stream(args.seed, "oracle", case)
        depth = int(rng.integers(3, args.depth_max + 1))
        tree = generate(law, depth, rng=rng)
        ids = tree.generation_ids(depth)
        x = int(ids[rng.integers(len(ids))])
        chain = tree.ancestor_chain(x)
        z = int(chain[rng.integers(len(chain))])
        closed = hit_before_return(tree, z, x)
        solved = hit_before_return_oracle(tree, z, x)
        gap = abs(closed - solved)
        if gap > 1e-9:
            save_snapshot(tree, os.path.join(outdir, f"disagreement_{case}.tree"))
        worst = max(worst, gap)
        rows.append([case, depth, z, x, repr(closed), repr(solved), repr(gap)])
    with open(os.path.join(outdir, "oracle.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["case", "depth", "z", "x", "closed_form", "linear_solve", "gap"])
        w.writerows(rows)
    print(f"oracle: {args.cases} cases, max deviation {worst:.3e}")
    return 0 if worst < 1e-9 else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="INI configuration file")
    common.add_argument("--seed", type=int, default=1)
    common.add_argument("--replicas", type=int, default=None)
    common.add_argument("--threads", type=int, default=1)
    common.add_argument("--out", default=None, help="output directory")
    # the commands that draw (tree, walk, band) replicas
    replica = argparse.ArgumentParser(add_help=False, parents=[common])
    replica.add_argument("--n-grid", default=None, help="comma-separated positive budgets")
    replica.add_argument("--k", type=int, default=2)

    p = argparse.ArgumentParser(prog="gwrange", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("assumptions", parents=[common])
    sp.add_argument("--k", type=int, default=2)

    sp = sub.add_parser("constants", parents=[common])
    sp.add_argument("--truncation", type=int, default=200)

    sub.add_parser("simulate", parents=[replica])

    sp = sub.add_parser("genealogy", parents=[replica])
    sp.add_argument("--tuples", type=int, default=100)

    sp = sub.add_parser("verify", parents=[replica])
    sp.add_argument("experiment", choices=[*EXPERIMENTS, "local-time"])
    sp.add_argument("--constraint", default=None)

    sp = sub.add_parser("oracle", parents=[common])
    sp.add_argument("--cases", type=int, default=100)
    sp.add_argument("--depth-max", type=int, default=8)
    return p


_HANDLERS = {
    "assumptions": _cmd_assumptions,
    "constants": _cmd_constants,
    "simulate": _cmd_simulate,
    "genealogy": _cmd_genealogy,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    outdir = args.out or os.environ.get("GWRANGE_OUT") or "gwrange_out"
    os.makedirs(outdir, exist_ok=True)
    try:
        cp, config_text = _load_config(args.config)
        law = _law_from_config(cp)
    except Exception as err:
        os.makedirs(outdir, exist_ok=True)
        _write_manifest(outdir, args, "", "config-error", failure=str(err))
        print(f"config error: {err}", file=sys.stderr)
        return 2
    problem = _argument_problem(args, cp)
    if problem is not None:
        _write_manifest(outdir, args, config_text, "failed", failure=problem)
        print(f"{args.command}: {problem}", file=sys.stderr)
        return 2
    try:
        status = _HANDLERS[args.command](args, cp, law, outdir)
        _write_manifest(outdir, args, config_text, "ok" if status == 0 else "failed")
        return status
    except GwrangeError as err:
        _write_manifest(outdir, args, config_text, "failed", failure=str(err))
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # manifest still required on unexpected failure
        _write_manifest(outdir, args, config_text, "failed",
                        failure=f"{type(err).__name__}: {err}")
        raise


if __name__ == "__main__":
    sys.exit(main())
