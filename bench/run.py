#!/usr/bin/env python3
"""Benchmark of gwrange: three workloads timed through public entry points.

    python3 bench/run.py --workload band-grid --seed 1 --seconds 35 --trace 0

Workloads (see bench/README.md for why each exists):

* ``band-grid``: ``theory.run_band_experiment`` with excursion classes and
  300 sampled pairs per replica, at budgets 1e4, 1e5 and 1e6.
* ``constrained-sums``: ``theory.limit_report`` for constrained-ratio and
  constrained-volume at budgets 1e4 and 1e5 with ``l_star=8``, coalescent
  times of sampled triples, and the exact quasi-independent mean; plus two
  known-failure probes outside the timed section.
* ``small-trees``: ``quenched.phi`` in tree and tilted mode,
  ``environment.estimate_c_infinity``, ``theory.estimate_esp_partition`` on
  the forest and the generic path, and ``gwrange oracle`` through
  ``cli.main``.

One run sets the workload up ``SETUPS`` times (``setup_s`` is the median),
then repeats one fixed pass of operations while the next pass is projected
to end within ``--seconds`` (at least one pass). ``wall_s`` is the median
pass time, and like ``setup_s`` in reference seconds (see ``SpeedProbe``).
The first pass runs output checks on intermediate results through hooks;
the time spent in them is not counted. Every pass must reproduce the first
pass's output digest. With ``--trace 1`` untraced and traced passes
alternate; traced passes record spans around every call into gwrange's
public functions (bench/tracing.py), and the run reports the per-layer
metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Artifacts (digest, spans, run
record) go to ``.bench_out/`` under the current directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

# threads=1: one BLAS thread, so dense solves do not contend for the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(".bench_out")
SETUPS = 5
# setup_s and wall_s are in reference seconds: raw seconds on a host that runs
# one SpeedProbe sample in PROBE_REF_S
PROBE_REF_S = 0.004
PROBE_INTERVAL_S = 0.2

BAND_GRID_REPLICAS = {10_000: 4, 100_000: 2, 1_000_000: 1}
BAND_GRID_TUPLES = 300
# constrained-ratio runs at both budgets; constrained-volume, whose F
# constraint costs twice as much per pair, at the smaller one
CS_RATIO_REPLICAS = {10_000: 2, 100_000: 2}
CS_VOLUME_REPLICAS = {10_000: 2}
CS_L_STAR = 8
CS_GENEALOGY_N = 10_000
CS_GENEALOGY_TUPLES = 100
# the quasi-independent mean costs the square of the band size, so it runs
# over many small trees rather than one tree of random size
CS_QI_TREES = 16
PHI_DEPTHS = (6, 8)
PHI_TREES = 500
PHI_TILTED = 40_000
C_INF_REPLICAS = 60_000
ESP_FOREST_TREES = 100_000
ESP_GENERIC_TREES = 500
ORACLE_CASES = 100
# the dense solve costs n^3 in the case's tree size, so depth 8 lets a few
# large trees set the workload's time; depth 7 keeps it a sum over cases
ORACLE_DEPTH_MAX = 7

# Master seeds of the tree-heavy workloads, screened by bench/screen.py for a
# typical pass time (and, for band-grid, peak tree size); --seed s runs
# POOLS[workload][s % len(pool)].
POOLS = {
    "band-grid": [935, 1252, 1957],
    "constrained-sums": [4, 12, 17, 21, 24, 39, 40, 48],
}


class SpeedProbe:
    """Samples the host's speed while the code under test runs.

    The host changes speed by about a third within seconds (a fixed
    pure-Python loop took 0.21 s and 0.30 s a few seconds apart on the
    2-core x86 host the benchmark was built on, CPU time moving with wall
    time), which would swamp any bound on raw times. Inside ``with probe:``
    a timer signal every ``PROBE_INTERVAL_S`` runs a fixed loop of
    interpreter work, which touches no gwrange state, and records its
    duration. ``scale(raw)`` converts raw seconds of that block to reference
    seconds, leaving out the time the samples took.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    @staticmethod
    def _sample():
        t0 = time.perf_counter()
        x = 0
        for i in range(40_000):
            x += i * i
        return time.perf_counter() - t0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(self._sample())
        self.spent += time.perf_counter() - t0

    def scale(self, raw):
        """Reference seconds of ``raw`` seconds measured in the last block."""
        # a block shorter than one interval gets one sample taken after it
        samples = self.samples or [self._sample()]
        return (raw - self.spent) * PROBE_REF_S / statistics.median(samples)


def import_gwrange(src: Path):
    """Import gwrange afresh from ``src`` and return its package object."""
    if not (src / "gwrange" / "__init__.py").is_file():
        raise FileNotFoundError(f"no gwrange package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "gwrange" or n.startswith("gwrange.")]:
        del sys.modules[name]
    gw = importlib.import_module("gwrange")
    for sub in ("cli", "environment", "genealogy", "quenched", "rangestats", "rng",
                "theory", "tree", "walk"):
        importlib.import_module(f"gwrange.{sub}")
    if Path(gw.__file__).resolve().parent != (src / "gwrange").resolve():
        raise ImportError(f"gwrange resolved to {gw.__file__}, not {src}")
    return gw


# ---------------------------------------------------------------------------
# output digests
# ---------------------------------------------------------------------------


def _plain(obj):
    """JSON-ready form with exact floats, for digesting outputs."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)
                if not f.name.startswith("_")}
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return {"dtype": str(obj.dtype), "shape": list(obj.shape),
                "sha256": hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()}
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float):
        return float.hex(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if hasattr(obj, "to_json"):
        return obj.to_json()
    raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(_plain(obj), sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Workload:
    """One workload's operations, checks and probes, built by a setup function.

    ``ops`` maps an operation name to a call of a public entry point.
    ``check(outputs)`` returns ``(op, problem)`` pairs for the first pass's
    outputs; ``hooks`` observe intermediate results during that pass and
    append problems to ``problems``. ``probes`` are calls expected to fail
    at the parent commit; they run once, outside the timed section.
    """

    ops: dict
    check: object
    hooks: dict = dataclasses.field(default_factory=dict)
    probes: dict = dataclasses.field(default_factory=dict)
    problems: list = dataclasses.field(default_factory=list)
    current: str = None
    notes: dict = dataclasses.field(default_factory=dict)


def setup_band_grid(gw, seed, master):
    law = gw.environment.default_law()

    def op(n, reps):
        return lambda: gw.theory.run_band_experiment(
            law, n, reps, master, with_classes=True, tuples_per_run=BAND_GRID_TUPLES)

    ops = {f"band_experiment.n{n}": op(n, reps) for n, reps in BAND_GRID_REPLICAS.items()}

    def check(outputs):
        problems = []
        for n, reps in BAND_GRID_REPLICAS.items():
            name = f"band_experiment.n{n}"
            runs = outputs[name]
            if [r.replica for r in runs] != list(range(reps)):
                problems.append((name, "replicas missing or out of order"))
            for r in runs:
                m = r.class_masses
                if m["distinct"] + m["same-single"] + m["mixed"] != m["total"]:
                    problems.append((name, f"replica {r.replica}: classes do not partition pairs"))
                if r.band_count >= 2 and len(r.split_samples) != BAND_GRID_TUPLES:
                    problems.append((name, f"replica {r.replica}: split samples missing"))
        return problems

    wl = Workload(ops=ops, check=check)

    def trace_invariants(trace, args, kwargs):
        s = tracing.call_arg(args, kwargs, 1, "s")
        if trace.root_local_time != s or trace.s != s:
            wl.problems.append((wl.current, f"root local time {trace.root_local_time} != s {s}"))
        if not np.all(trace.edge_local_time <= trace.local_time):
            wl.problems.append((wl.current, "edge local time exceeds local time"))
        wl.notes["traces_checked"] = wl.notes.get("traces_checked", 0) + 1

    wl.hooks[("walk", "run_excursions")] = trace_invariants
    return wl


def _slice(gw, law, seed, n, rep):
    lower, upper = gw.theory.desk_band(law, n)
    s = math.ceil(math.sqrt(n))
    tree = gw.tree.generate(law, upper, rng=gw.rng.stream(seed, f"tree/{n}", rep))
    trace = gw.walk.run_excursions(tree, s, gw.rng.stream(seed, f"walk/{n}", rep))
    return tree, gw.walk.range_slice(trace, tree, lower, upper)


def setup_constrained_sums(gw, seed, master):
    law = gw.environment.default_law()
    gen = gw.genealogy
    f_lambda = gen.make_f_lambda([3])
    f_m = gen.make_f_m(3)
    F = gen.make_F_ell_s(1, [3], 2)
    # the replicas limit_report draws at the smallest budget, reused for
    # sampled genealogies and the exactness checks
    slices = [_slice(gw, law, master, CS_GENEALOGY_N, rep)
              for rep in range(CS_RATIO_REPLICAS[CS_GENEALOGY_N])]
    qi_trees = [gw.tree.generate(law, 5, rng=gw.rng.stream(master, "bench/qi", i))
                for i in range(CS_QI_TREES)]

    def report(experiment, constraint, replicas):
        return lambda: gw.theory.limit_report(
            experiment, law, sorted(replicas), k=2, constraint=constraint,
            replicas=dict(replicas), seed=master, l_star=CS_L_STAR)

    def signatures():
        out = []
        for rep, (tree, sl) in enumerate(slices):
            srng = gw.rng.stream(master, "bench/tuple", rep)
            for _ in range(CS_GENEALOGY_TUPLES):
                tup = gw.rangestats.sample_uniform_tuple(sl, 3, srng)
                out.append((rep, tup, gw.genealogy.coalescent_times(tree, tup)))
        return out

    ops = {
        "limit_report.constrained-ratio.f_lambda":
            report("constrained-ratio", f_lambda, CS_RATIO_REPLICAS),
        "limit_report.constrained-volume.F": report("constrained-volume", F, CS_VOLUME_REPLICAS),
        "genealogy.coalescent_times": signatures,
        "quenched.qi_mean.f_m": lambda: [
            gw.quenched.quenched_mean_quasi_independent(t, 3, 5, 100, 2, f=f_m, warmup=4)
            for t in qi_trees],
    }

    def check(outputs):
        problems = []
        for name, replicas in (("limit_report.constrained-ratio.f_lambda", CS_RATIO_REPLICAS),
                               ("limit_report.constrained-volume.F", CS_VOLUME_REPLICAS)):
            rep = outputs[name]
            if [row["n"] for row in rep["grid"]] != sorted(replicas):
                problems.append((name, "grid rows do not match the budgets"))
            if not all(math.isfinite(row["mean"]) for row in rep["grid"]):
                problems.append((name, "non-finite mean"))
        # exact identities on the realizations limit_report uses at 1e4
        name = "limit_report.constrained-ratio.f_lambda"
        one = gen.constant_one()
        for tree, sl in slices:
            stat = gw.rangestats.general_range(sl, 2, None)
            exact = gw.rangestats.delta_k_count(sl, 2)
            if not (stat.value == exact == stat.tuple_count):
                problems.append((name, f"general_range {stat.value} != delta_k_count {exact}"))
            a = gw.rangestats.weighted_range_A_l(tree, 2, CS_L_STAR, None)
            b = gw.rangestats.weighted_range_A_l(tree, 2, CS_L_STAR, one)
            if not abs(a - b) <= 1e-12 * abs(b):
                problems.append((name, f"A_l inclusion-exclusion {a!r} vs permutations {b!r}"))
        name = "genealogy.coalescent_times"
        for rep, tup, sig in outputs[name]:
            if sig.times[-1] != gw.genealogy.first_full_split(slices[rep][0], tup):
                problems.append((name, f"last split time of {tup} is not its first full split"))
        if not all(math.isfinite(v) and v >= 0.0 for v in outputs["quenched.qi_mean.f_m"]):
            problems.append(("quenched.qi_mean.f_m", "negative or non-finite mean"))
        return problems

    def probe_readme():
        # README: gwrange verify constrained-ratio --constraint f_lambda:3 (default l_star=12)
        out = OUT / "probe-readme"
        rc = gw.cli.main(["verify", "constrained-ratio", "--constraint", "f_lambda:3",
                          "--n-grid", "10000", "--out", str(out)])
        if rc != 0:
            failure = json.loads((out / "manifest.json").read_text())["failure"]
            raise RuntimeError(f"exit {rc}: {failure}")

    def probe_k3():
        # the 189-vertex band of seed 1, n=1e4, replica 0
        _, sl = _slice(gw, law, 1, 10_000, 0)
        gw.rangestats.general_range(sl, 3)

    probes = {"probe.readme_constrained_ratio": probe_readme,
              "probe.general_range_k3": probe_k3}
    return Workload(ops=ops, check=check, probes=probes)


def setup_small_trees(gw, seed, master):
    law = gw.environment.default_law()
    gen = gw.genealogy
    P = gen.Partition.make
    shapes = {
        "pair@3": (2, (3,), gen.IncreasingCollection((P([[1, 2]]), P([[1], [2]])))),
        "triple@(2,3)": (3, (2, 3), gen.IncreasingCollection(
            (P([[1, 2, 3]]), P([[1, 3], [2]]), P([[1], [2], [3]])))),
    }
    closed = {tag: gw.theory.esp_partition_law(law, k, svec, coll)
              for tag, (k, svec, coll) in shapes.items()}
    stream = gw.rng.stream
    ops = {}
    for d in PHI_DEPTHS:
        ops[f"phi.tree.d{d}"] = (lambda d=d: gw.quenched.phi(
            law, 2 + d, 2, 2.0, replicas=PHI_TREES, rng=stream(seed, "bench/phi-tree", d),
            mode="tree"))
        ops[f"phi.tilted.d{d}"] = (lambda d=d: gw.quenched.phi(
            law, 2 + d, 2, 2.0, replicas=PHI_TILTED, rng=stream(seed, "bench/phi-tilted", d),
            mode="tilted"))
    ops["phi.tilted.deep"] = lambda: gw.quenched.phi(
        law, 210, 10, 1.0, replicas=C_INF_REPLICAS, rng=stream(seed, "bench/phi-deep"),
        mode="tilted")
    ops["c_infinity"] = lambda: gw.environment.estimate_c_infinity(
        law, truncation=200, replicas=C_INF_REPLICAS, rng=stream(seed, "bench/cinf"))
    for path, trees, fast in (("forest", ESP_FOREST_TREES, True),
                              ("generic", ESP_GENERIC_TREES, False)):
        for tag, (k, svec, coll) in shapes.items():
            ops[f"esp.{path}.{tag}"] = (
                lambda k=k, svec=svec, coll=coll, trees=trees, fast=fast, tag=tag:
                gw.theory.estimate_esp_partition(
                    law, k, svec, coll, trees, stream(seed, f"bench/esp-{path}", k), fast=fast))
    oracle_out = OUT / f"oracle-seed{seed}"

    def oracle():
        rc = gw.cli.main(["oracle", "--cases", str(ORACLE_CASES), "--seed", str(seed),
                          "--depth-max", str(ORACLE_DEPTH_MAX), "--out", str(oracle_out)])
        files = sorted(oracle_out.iterdir())
        return {"rc": rc, "bytes": sum(f.stat().st_size for f in files),
                "csv": (oracle_out / "oracle.csv").read_text()}

    ops["cli.oracle"] = oracle

    def check(outputs):
        problems = []
        for d in PHI_DEPTHS:
            (a, sa), (b, sb) = outputs[f"phi.tree.d{d}"], outputs[f"phi.tilted.d{d}"]
            if abs(a - b) > 4.0 * math.hypot(sa, sb):
                problems.append((f"phi.tree.d{d}", f"tree {a} vs tilted {b} beyond 4 SE"))
        cinf = outputs["c_infinity"]
        if not cinf.within_bracket():
            problems.append(("c_infinity", f"{cinf.value} outside {cinf.bracket}"))
        v, se = outputs["phi.tilted.deep"]
        if abs(v - cinf.value) > 4.0 * math.hypot(se, cinf.se):
            problems.append(("phi.tilted.deep", f"phi {v} vs c_infinity {cinf.value} beyond 4 SE"))
        for path in ("forest", "generic"):
            for tag in shapes:
                est, se = outputs[f"esp.{path}.{tag}"]
                if abs(est - closed[tag]) > 4.0 * se:
                    problems.append((f"esp.{path}.{tag}",
                                     f"{est} +- {se} vs closed form {closed[tag]} beyond 4 SE"))
        orc = outputs["cli.oracle"]
        gaps = [float(line.split(",")[-1]) for line in orc["csv"].splitlines()[1:]]
        if orc["rc"] != 0 or len(gaps) != ORACLE_CASES or not max(gaps) < 1e-9:
            problems.append(("cli.oracle", f"exit {orc['rc']}, max gap {max(gaps, default=None)}"))
        return problems

    return Workload(ops=ops, check=check)


WORKLOADS = {
    "band-grid": setup_band_grid,
    "constrained-sums": setup_constrained_sums,
    "small-trees": setup_small_trees,
}


# ---------------------------------------------------------------------------
# passes, probes and the result
# ---------------------------------------------------------------------------


def run_pass(wl, tracer=None):
    """Run every operation once; returns (outputs, errors, seconds per op)."""
    outputs, errors, times = {}, {}, {}
    for name, fn in wl.ops.items():
        wl.current = name
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outputs[name] = fn()
            else:
                with tracer.op(name):
                    outputs[name] = fn()
        except Exception as err:  # a failed operation is counted, the run goes on
            errors[name] = f"{type(err).__name__}: {err}"
        times[name] = time.perf_counter() - t0
    return outputs, errors, times


def measure(gw, wl, seconds, trace):
    """Time passes while the next one is projected to end within ``seconds``.

    The first pass is checked. With ``trace``, untraced and traced passes
    alternate (at least one of each), so the tracing overhead compares
    passes run under the same conditions. Every pass is also given in
    reference seconds (``SpeedProbe``). Returns a run record.
    """
    tracer = tracing.Tracer() if trace else None
    probe = SpeedProbe()
    passes = []  # (raw seconds, reference seconds, traced, probe samples)
    failed_ops = {}
    ref = op_times = None
    start = time.perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 1
        if index == 0:
            restore, spent = tracing.observe(gw, wl.hooks)
        elif traced:
            tracer.install(gw)
            tracer.begin_pass(index)
        with probe:
            t0 = time.perf_counter()
            outputs, errors, times = run_pass(wl, tracer if traced else None)
            wall = time.perf_counter() - t0
        if index == 0:
            restore()
            wall -= spent()
        elif traced:
            tracer.uninstall()
        passes.append((wall, probe.scale(wall), traced, len(probe.samples)))
        for name, msg in errors.items():
            failed_ops.setdefault(name, msg)
        digests = {name: digest(out) for name, out in outputs.items()}
        if index == 0:
            ref, op_times = digests, times
            for name, problem in wl.problems + wl.check(outputs):
                failed_ops.setdefault(name, problem)
        else:
            for name, d in digests.items():
                if d != ref.get(name):
                    failed_ops.setdefault(name, f"pass {index} output differs from pass 0")
        index += 1
        if trace and index < 2:
            continue
        if time.perf_counter() - start + wall > seconds:
            break
    return {
        "walls": [p[0] for p in passes if not p[2]],
        "traced_walls": [p[0] for p in passes if p[2]],
        "scaled": [p[1] for p in passes if not p[2]],
        "traced_scaled": [p[1] for p in passes if p[2]],
        "traced_passes": [i for i, p in enumerate(passes) if p[2]],
        "probe_samples": [p[3] for p in passes],
        "failed_ops": failed_ops,
        "digests": ref,
        "op_times_s": op_times,
        "digest": hashlib.sha256(json.dumps(ref, sort_keys=True).encode()).hexdigest(),
        "tracer": tracer,
    }


def run_probes(wl):
    results = {}
    for name, fn in wl.probes.items():
        try:
            fn()
            results[name] = None
        except Exception as err:  # probes are expected to fail; record how
            results[name] = f"{type(err).__name__}: {err}"
    return results


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def metadata():
    import scipy

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def band_grid_replicas(spans):
    """Per-replica counters of each band experiment in the first traced pass."""
    first = min(s["pass"] for s in spans)
    rows = {}
    for s in spans:
        if s["pass"] != first or not s["counters"]:
            continue
        top = s
        while top["parent"] >= 0 and not top["name"].startswith("theory.band_experiment"):
            top = spans[top["parent"]]
        if top is s or not top["name"].startswith("theory.band_experiment"):
            continue
        row = rows.setdefault((top["name"], s["replica"]),
                              {"experiment": top["name"], "replica": s["replica"]})
        row.update(s["counters"])
        if s["name"] == "tree.generate":
            row["generate_s"] = s["end"] - s["start"]
    return [rows[k] for k in sorted(rows)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--master-seed", type=int, default=None,
                    help="override the pooled master seed (baseline cross-checks)")
    args = ap.parse_args(argv)
    if not (SRC / "gwrange" / "__init__.py").is_file():
        print(f"error: no gwrange sources under {SRC}", file=sys.stderr)
        return 2
    pool = POOLS.get(args.workload)
    master = args.master_seed
    if master is None:
        master = pool[args.seed % len(pool)] if pool else args.seed
    OUT.mkdir(exist_ok=True)

    setups = []
    probe = SpeedProbe()
    for _ in range(SETUPS):
        with probe:
            t0 = time.perf_counter()
            gw = import_gwrange(SRC)
            wl = WORKLOADS[args.workload](gw, args.seed, master)
            raw = time.perf_counter() - t0
        setups.append((raw, probe.scale(raw)))

    rec = measure(gw, wl, args.seconds, bool(args.trace))
    probes = run_probes(wl)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = len(rec["failed_ops"]) + sum(1 for v in probes.values() if v is not None)
    attempted = len(wl.ops) + len(probes)
    correct = not rec["failed_ops"]
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        spans = rec["tracer"].records()
        metrics = tracing.summarize(spans, rec["traced_passes"])
        # pass 0 is a cold, checked pass: compare with later untraced passes if any
        untraced = rec["scaled"][1:] or rec["scaled"]
        overhead = statistics.median(rec["traced_scaled"]) - statistics.median(untraced)
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.spans"] = (len(spans), "count")
        extra = {"replicas": band_grid_replicas(spans)} if args.workload == "band-grid" else {}
        (OUT / f"{stem}.spans.json").write_text(json.dumps({"spans": spans, **extra}))
    else:
        metrics = {
            "setup_s": (statistics.median(v for _, v in setups), "s"),
            "wall_s": (statistics.median(rec["scaled"]), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
        }

    record = {
        "workload": args.workload, "seed": args.seed, "master_seed": master,
        "trace": args.trace, "seconds": args.seconds, "metadata": metadata(),
        "setups_s": setups, "passes_s": rec["walls"], "traced_passes_s": rec["traced_walls"],
        "scaled_passes_s": rec["scaled"], "probe_samples": rec["probe_samples"],
        "op_times_s": rec["op_times_s"], "digest": rec["digest"], "op_digests": rec["digests"],
        "failed_ops": rec["failed_ops"], "probes": probes, "notes": wl.notes,
        "peak_rss_mb": peak_mb,
    }
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    (OUT / f"{stem}.digest").write_text(rec["digest"] + "\n")

    print(f"workload {args.workload} seed {args.seed} master seed {master} "
          f"passes {len(rec['walls'])}+{len(rec['traced_walls'])} traced")
    print(f"raw median pass {statistics.median(rec['walls']):.6g} s, "
          f"raw median set-up {statistics.median(r for r, _ in setups):.6g} s")
    print(f"digest {rec['digest']}")
    for name, msg in rec["failed_ops"].items():
        print(f"FAILED {name}: {msg}")
    for name, msg in probes.items():
        print(f"probe {name}: {'completed' if msg is None else 'failed: ' + msg}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
