"""Spans around calls into gwrange's public functions, recorded from outside the package.

``rebind`` points every module-level reference to a chosen gwrange function,
in every loaded ``gwrange`` module and in the package namespace, at a
replacement. Calls between modules (``theory`` calling ``tree.generate``, the
CLI calling ``quenched``) then pass through the replacement, so nothing
inside ``src/gwrange`` is edited. ``Tracer`` uses it to record spans with
name, start, end, parent span, pass, replica id and counters; spans stay in
memory until the benchmark writes them at exit. ``observe`` uses it to run
output checks on intermediate results of the first, untraced pass.

The replica id of a span is the number of ``tree.generate`` calls started
before it within the current benchmark operation, minus one: every
generation starts a new replica, and the spans that follow belong to it.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("environment", "tree", "walk", "rangestats", "genealogy", "quenched", "theory", "cli")


def call_arg(args, kwargs, pos, name, default=None):
    """Argument ``name`` of a call, passed by keyword or at position ``pos``."""
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _walk_counts(out, args, kwargs):
    return {"steps": out.steps, "dives": out.dives, "visited": len(out.ids),
            "tree_nodes": args[0].size}


def _range_counts(out, args, kwargs):
    f = call_arg(args, kwargs, 2, "f")
    hits = None if f is None else out.value
    return {"tuples": out.tuple_count, "hits": hits}


def _phi_name(args, kwargs):
    return f"quenched.phi_{call_arg(args, kwargs, 6, 'mode', 'auto')}"


def _phi_counts(out, args, kwargs):
    if call_arg(args, kwargs, 6, "mode", "auto") != "tree":
        return {}
    return {"trees": call_arg(args, kwargs, 4, "replicas", 20_000)}


def _band_name(args, kwargs):
    n = int(call_arg(args, kwargs, 1, "n"))
    return f"theory.band_experiment.n1e{round(math.log10(n))}"


def _esp_counts(out, args, kwargs):
    return {"replicas": call_arg(args, kwargs, 4, "replicas")}


def _cli_name(args, kwargs):
    argv = call_arg(args, kwargs, 0, "argv") or sys.argv[1:]
    return f"cli.{argv[0]}"


def _cli_counts(out, args, kwargs):
    """Bytes of the artifacts in the command's ``--out`` directory."""
    argv = list(call_arg(args, kwargs, 0, "argv") or sys.argv[1:])
    if "--out" not in argv:
        return {}
    outdir = Path(argv[argv.index("--out") + 1])
    return {"artifact_bytes": sum(f.stat().st_size for f in outdir.iterdir() if f.is_file())}


# (module, function, span name or name(args, kwargs), counters(out, args, kwargs))
TRACE_POINTS = (
    ("environment", "estimate_c_infinity", "environment.c_infinity", None),
    ("tree", "generate", "tree.generate", lambda out, a, kw: {"nodes": out.size}),
    ("tree", "additive_martingale", "tree.martingale", None),
    ("walk", "run_excursions", "walk.run_excursions", _walk_counts),
    ("walk", "range_slice", "walk.range_slice", lambda out, a, kw: {"band_size": out.size}),
    ("rangestats", "excursion_class_masses", "rangestats.class_masses",
     lambda out, a, kw: {"class_pairs": out["total"]}),
    ("rangestats", "sample_uniform_tuple", "rangestats.sample_tuple", None),
    ("rangestats", "general_range", "rangestats.general_range", _range_counts),
    ("rangestats", "weighted_range_A_l", "rangestats.weighted_A_l", None),
    ("genealogy", "first_full_split", "genealogy.first_full_split", None),
    ("genealogy", "coalescent_times", "genealogy.coalescent_times", None),
    ("quenched", "phi", _phi_name, _phi_counts),
    ("quenched", "hit_before_return", "quenched.hit", None),
    ("quenched", "hit_before_return_oracle", "quenched.oracle", None),
    ("quenched", "quenched_mean_quasi_independent", "quenched.qi_mean", None),
    ("theory", "run_band_experiment", _band_name, None),
    ("theory", "limit_report", "theory.limit_report", None),
    ("theory", "estimate_esp_partition", "theory.estimate_esp", _esp_counts),
    ("cli", "main", _cli_name, _cli_counts),
)


def rebind(replacements):
    """Rebind module-level references in gwrange to replacement functions.

    ``replacements`` maps ``id(original)`` to ``(original, replacement)``.
    Returns a callable that restores the originals.
    """
    undo = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "gwrange" or name.startswith("gwrange.")):
            continue
        for attr, val in list(vars(mod).items()):
            hit = replacements.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, val))

    def restore():
        for mod, attr, val in reversed(undo):
            setattr(mod, attr, val)

    return restore


def observe(gw, hooks):
    """Call ``hooks[(module, function)](out, args, kwargs)`` after each such call.

    Returns ``(restore, spent)``; ``spent()`` is the time spent inside hooks,
    which the caller subtracts from the pass it timed.
    """
    spent = [0.0]
    replacements = {}
    for (module, function), hook in hooks.items():
        orig = getattr(getattr(gw, module), function)

        def wrapper(*args, _orig=orig, _hook=hook, **kwargs):
            out = _orig(*args, **kwargs)
            t0 = time.perf_counter()
            _hook(out, args, kwargs)
            spent[0] += time.perf_counter() - t0
            return out

        replacements[id(orig)] = (orig, wrapper)
    return rebind(replacements), lambda: spent[0]


class Tracer:
    """In-memory span recorder around gwrange's public functions."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, pass, replica, counters, error]
        self._stack = []
        self._pass = -1
        self._replica = -1
        self._restore = None

    def install(self, gw):
        replacements = {}
        for module, function, name, counters in TRACE_POINTS:
            orig = getattr(getattr(gw, module), function)
            replacements[id(orig)] = (orig, self._wrap(orig, name, counters))
        self._restore = rebind(replacements)

    def uninstall(self):
        if self._restore is not None:
            self._restore()
            self._restore = None

    def begin_pass(self, index):
        self._pass = index

    @contextmanager
    def op(self, name):
        """Span of one benchmark operation; resets the replica counter."""
        self._replica = -1
        rec = self._open(f"bench.{name}")
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, self._pass, self._replica, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, orig, name, counters):
        def wrapper(*args, **kwargs):
            span = name if isinstance(name, str) else name(args, kwargs)
            if span == "tree.generate":
                self._replica += 1
            rec = self._open(span)
            try:
                out = orig(*args, **kwargs)
            except BaseException as err:
                rec[7] = type(err).__name__
                raise
            finally:
                self._close(rec)
            if counters is not None:
                rec[6] = counters(out, args, kwargs)
            return out

        return wrapper

    def records(self):
        keys = ("name", "start", "end", "parent", "pass", "replica", "counters", "error")
        return [dict(zip(keys, rec)) for rec in self.spans]


def timing(values):
    """Median, the highest percentile with at least ten samples above it, and
    the sample count. With ten or fewer samples the tail is the maximum."""
    if not values:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    n = len(ordered)
    tail = ordered[n - 11] if n > 10 else ordered[-1]
    return statistics.median(ordered), tail, n


def summarize(spans, traced_passes):
    """Per-layer metrics from the spans of the traced passes.

    Timings pool the spans of every traced pass; counters and self times
    are per pass (counters from the first traced pass, self times the
    median over traced passes).
    """
    durations = {}
    children = {}
    for i, s in enumerate(spans):
        durations.setdefault(s["name"], []).append(s["end"] - s["start"])
        children.setdefault(s["parent"], []).append(i)

    def child_names(i):
        return {spans[c]["name"] for c in children.get(i, ())}

    # the estimator path is read from what the call did: the generic path
    # generates one tree per replica, the forest path never calls generate
    esp = {"forest": [], "generic": []}
    forest_trees = 0
    first = traced_passes[0]
    for i, s in enumerate(spans):
        if s["name"] == "theory.estimate_esp":
            path = "generic" if "tree.generate" in child_names(i) else "forest"
            esp[path].append(s["end"] - s["start"])
            if path == "forest" and s["pass"] == first:
                forest_trees += s["counters"]["replicas"]

    def total(name, key, pass_=first):
        return sum((s["counters"] or {}).get(key) or 0 for s in spans
                   if s["name"] == name and s["pass"] == pass_)

    def busy(name, pass_=first):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name and s["pass"] == pass_)

    metrics = {}

    def put_timing(metric, values):
        med, tail, n = timing(values)
        metrics[metric] = (med, "s")
        metrics[f"{metric}.tail"] = (tail, "s")
        metrics[f"{metric}.n"] = (n, "count")

    for metric, span in (
        ("environment.c_infinity_s", "environment.c_infinity"),
        ("tree.generate_s", "tree.generate"),
        ("tree.martingale_s", "tree.martingale"),
        ("walk.run_excursions_s", "walk.run_excursions"),
        ("walk.range_slice_s", "walk.range_slice"),
        ("rangestats.class_masses_s", "rangestats.class_masses"),
        ("rangestats.sample_tuple_s", "rangestats.sample_tuple"),
        ("rangestats.general_range_s", "rangestats.general_range"),
        ("rangestats.weighted_A_l_s", "rangestats.weighted_A_l"),
        ("genealogy.first_full_split_s", "genealogy.first_full_split"),
        ("genealogy.coalescent_times_s", "genealogy.coalescent_times"),
        ("quenched.phi_tree_s", "quenched.phi_tree"),
        ("quenched.phi_tilted_s", "quenched.phi_tilted"),
        ("quenched.hit_s", "quenched.hit"),
        ("quenched.oracle_s", "quenched.oracle"),
        ("quenched.qi_mean_s", "quenched.qi_mean"),
        ("theory.band_experiment_s.n1e4", "theory.band_experiment.n1e4"),
        ("theory.band_experiment_s.n1e5", "theory.band_experiment.n1e5"),
        ("theory.band_experiment_s.n1e6", "theory.band_experiment.n1e6"),
        ("theory.limit_report_s", "theory.limit_report"),
        ("cli.oracle_s", "cli.oracle"),
    ):
        put_timing(metric, durations.get(span, []))
    put_timing("theory.estimate_esp_s.forest", esp["forest"])
    put_timing("theory.estimate_esp_s.generic", esp["generic"])

    nodes = total("tree.generate", "nodes")
    steps = total("walk.run_excursions", "steps")
    visited = total("walk.run_excursions", "visited")
    walked_nodes = total("walk.run_excursions", "tree_nodes")
    tuples = total("rangestats.general_range", "tuples")
    constrained = [s for s in spans if s["name"] == "rangestats.general_range"
                   and s["pass"] == first and s["counters"]["hits"] is not None]
    hits = sum(s["counters"]["hits"] for s in constrained)
    hit_base = sum(s["counters"]["tuples"] for s in constrained)

    def ratio(a, b):
        return a / b if b else 0.0

    def count(name, pass_=first):
        return sum(1 for s in spans if s["name"] == name and s["pass"] == pass_)

    metrics.update({
        "tree.nodes": (nodes, "count"),
        "tree.nodes_per_s": (ratio(nodes, busy("tree.generate")), "1/s"),
        "tree.nodes_per_visited": (ratio(walked_nodes, visited), "ratio"),
        "walk.steps": (steps, "count"),
        "walk.steps_per_s": (ratio(steps, busy("walk.run_excursions")), "1/s"),
        "walk.dives": (total("walk.run_excursions", "dives"), "count"),
        "walk.visited": (visited, "count"),
        "walk.band_size": (total("walk.range_slice", "band_size"), "count"),
        "rangestats.class_pairs": (total("rangestats.class_masses", "class_pairs"), "count"),
        "rangestats.tuples_sampled": (count("rangestats.sample_tuple"), "count"),
        "rangestats.tuples_summed": (tuples, "count"),
        "rangestats.constraint_hit_ratio": (ratio(hits, hit_base), "ratio"),
        "genealogy.signatures": (count("genealogy.coalescent_times"), "count"),
        "quenched.phi_tree_trees": (total("quenched.phi_tree", "trees"), "count"),
        "quenched.oracle_cases": (count("quenched.oracle"), "count"),
        "theory.forest_trees": (forest_trees, "count"),
        "cli.artifact_bytes": (total("cli.oracle", "artifact_bytes"), "B"),
    })

    for layer in LAYERS:
        per_pass = [self_time(spans, children, layer, p) for p in traced_passes]
        metrics[f"self_s.{layer}"] = (statistics.median(per_pass), "s")
    return metrics


def self_time(spans, children, layer, pass_):
    """Summed self time of one layer's spans in one pass: each span's
    duration minus the time its direct child spans cover."""
    out = 0.0
    for i, s in enumerate(spans):
        if s["pass"] != pass_ or s["name"].split(".")[0] != layer:
            continue
        inner = sum(spans[c]["end"] - spans[c]["start"] for c in children.get(i, ()))
        out += (s["end"] - s["start"]) - inner
    return out
