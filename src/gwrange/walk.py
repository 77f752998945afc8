"""Quenched biased walk on a truncated marked tree, reflected at the root's parent.

The walk lives on the tree plus the reflecting vertex -1 above the root.
From any interior vertex it moves to the parent or to a child with weights
exp(-V(.)); from the reflecting vertex it always re-enters the root. The
trace is recorded per excursion (segments between successive visits to the
reflecting vertex).

Truncation frontier. In the recurrent regimes this package targets, a step
below the deepest materialized generation enters a subtree from which the
walk returns to the entry vertex with probability one (the only way back
up is through it) without touching anything materialized. The default policy
therefore collapses such a sub-excursion into a single recorded return
visit to the entry vertex, drawn with the exact quenched down-weight of
its unmaterialized children. Every statistic supported here (visited sets,
local times, edge local times, per-excursion visit counts at materialized
generations) has exactly the law it would have on the infinite tree. Only
the wall-clock step count of the collapsed sub-excursions is unobservable:
``steps`` counts each collapse as its two-step minimum and ``dives``
reports how many collapses occurred, so ``steps`` is an exact lower bound
on the true elapsed time and exact whenever ``dives == 0``.

The alternative policy ``error`` raises on the first frontier step with
the partial trace attached.

A single walk is strictly sequential; finalized traces are immutable and
shareable, and (tree, walk) replicas run embarrassingly parallel on
independent streams.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .errors import DepthExceededError, QueryError, StepBudgetError
from .tree import MarkedTree, generate

__all__ = [
    "WalkTrace",
    "RangeSlice",
    "transition",
    "run_excursions",
    "simulate",
    "excursion_stats",
    "range_slice",
    "trace_to_csv",
]

REFLECTOR = -1


@dataclass
class WalkTrace:
    """Finalized record of s completed excursions."""

    s: int
    steps: int
    dives: int
    return_steps: np.ndarray  # T^0..T^s in recorded-step units
    ids: np.ndarray  # visited vertex ids, ascending
    gens: np.ndarray
    local_time: np.ndarray  # visits up to T^s
    edge_local_time: np.ndarray  # entries from the parent up to T^s
    excursion_count: np.ndarray  # number of excursions with an entry
    first_excursion: np.ndarray  # 1-based index of the first visiting excursion
    first_hit_step: np.ndarray
    entry_excursions: list  # per vertex, sorted excursion indices with entries
    root_local_time: int  # visits to the reflecting vertex = s
    complete: bool = True
    _index: dict = field(default=None, repr=False)

    def index_of(self, u: int) -> int:
        if self._index is None:
            self._index = {int(v): i for i, v in enumerate(self.ids)}
        try:
            return self._index[int(u)]
        except KeyError:
            raise QueryError(f"vertex {u} was never visited") from None

    def was_visited(self, u: int) -> bool:
        if self._index is None:
            self._index = {int(v): i for i, v in enumerate(self.ids)}
        return int(u) in self._index


def transition(tree: MarkedTree, u: int, rng: np.random.Generator) -> int:
    """One step of the quenched kernel from u; -1 denotes the reflecting vertex.

    Raises DepthExceededError when the sampled move would leave the
    materialized tree at the truncation frontier.
    """
    if u == REFLECTOR:
        return 0
    w_up = tree.exp_neg_v[u]
    if tree.is_frontier(u):
        w_down = tree.frontier_down_weight(u)
        if rng.random() * (w_up + w_down) < w_up:
            return int(tree.parent[u])
        raise DepthExceededError(f"step below the frontier from {u}")
    kids = tree.children(u)
    w_kids = tree.exp_neg_v[kids]
    total = w_up + w_kids.sum()
    r = rng.random() * total
    if r < w_up:
        return int(tree.parent[u])
    r -= w_up
    acc = 0.0
    for j in range(len(kids)):
        acc += w_kids[j]
        if r < acc:
            return int(kids[j])
    return int(kids[-1])


def run_excursions(
    tree: MarkedTree,
    s: int,
    rng: np.random.Generator,
    policy: str = "collapse",
    step_budget: int = None,
) -> WalkTrace:
    """Simulate until the s-th return to the reflecting vertex.

    Deterministic given (tree, s, rng state). ``step_budget`` defaults to
    50 * s**2, the nominal time scale of s excursions.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if policy not in ("collapse", "error"):
        raise ValueError(f"unknown policy {policy!r}")
    if step_budget is None:
        step_budget = 50 * s * s
    parent = tree.parent
    V = tree.V
    first_child = tree.first_child
    n_children = tree.n_children
    frontier_gen = tree.depth
    gen = tree.gen
    halo = tree.halo_weight
    frontier_base = int(tree.gen_offsets[frontier_gen])

    # per-vertex record: [local, edge, exc_count, first_exc, first_step, last_entry_exc]
    records: dict = {}
    entry_lists: dict = {}
    # exp(-V) of the vertices met so far, computed one child block at a time
    # when the walk first stands on the parent (a vertex below the root is
    # always entered from its parent first), so a walk that visits a small
    # part of a big tree never holds a weight for every vertex.
    weight = {0: float(np.exp(-V[0]))}
    kid_weights: dict = {}
    rand = rng.random

    steps = 0
    dives = 0
    exc = 0
    return_steps = [0]
    u = REFLECTOR
    while True:
        if u == REFLECTOR:
            exc += 1
            v = 0
            from_parent = True
        else:
            w_up = weight[u]
            if gen[u] == frontier_gen:
                w_down = 0.0 if halo is None else halo[u - frontier_base]
                if rand() * (w_up + w_down) < w_up:
                    v = int(parent[u])
                    from_parent = False
                else:
                    if policy == "error":
                        raise DepthExceededError(
                            f"step below the frontier from {u}",
                            partial=_finalize(records, entry_lists, tree, exc - 1,
                                              steps, dives, return_steps, False),
                            step=steps + 1,
                        )
                    # collapsed sub-excursion: return visit to u, two steps
                    steps += 2
                    dives += 1
                    rec = records[u]
                    rec[0] += 1
                    if steps > step_budget:
                        raise StepBudgetError(
                            f"step budget {step_budget} exhausted",
                            partial=_finalize(records, entry_lists, tree, exc - 1,
                                              steps, dives, return_steps, False),
                        )
                    continue
            else:
                fc = int(first_child[u])
                kids = kid_weights.get(u)
                if kids is None:
                    kids = np.exp(np.negative(V[fc : fc + n_children[u]])).tolist()
                    kid_weights[u] = kids
                    weight.update(zip(range(fc, fc + len(kids)), kids))
                total = w_up
                for w in kids:
                    total += w
                r = rand() * total
                if r < w_up:
                    v = int(parent[u])
                    from_parent = False
                else:
                    r -= w_up
                    v = fc + len(kids) - 1
                    acc = 0.0
                    for j, w in enumerate(kids):
                        acc += w
                        if r < acc:
                            v = fc + j
                            break
                    from_parent = True
        steps += 1
        if v == REFLECTOR:
            return_steps.append(steps)
            if exc == s:
                break
            u = v
        else:
            rec = records.get(v)
            if rec is None:
                rec = [0, 0, 0, exc, steps, 0]
                records[v] = rec
                entry_lists[v] = []
            rec[0] += 1
            if from_parent:
                rec[1] += 1
                if rec[5] != exc:
                    rec[2] += 1
                    rec[5] = exc
                    entry_lists[v].append(exc)
            u = v
        if steps > step_budget:
            raise StepBudgetError(
                f"step budget {step_budget} exhausted",
                partial=_finalize(records, entry_lists, tree, exc - 1, steps,
                                  dives, return_steps, False),
            )
    return _finalize(records, entry_lists, tree, s, steps, dives, return_steps, True)


def _finalize(records, entry_lists, tree, s, steps, dives, return_steps, complete):
    ids = np.array(sorted(records), dtype=np.int64)
    n = len(ids)
    local = np.zeros(n, dtype=np.int64)
    edge = np.zeros(n, dtype=np.int64)
    excc = np.zeros(n, dtype=np.int64)
    first_exc = np.zeros(n, dtype=np.int64)
    first_step = np.zeros(n, dtype=np.int64)
    entries = []
    for i, v in enumerate(ids):
        rec = records[int(v)]
        local[i] = rec[0]
        edge[i] = rec[1]
        excc[i] = rec[2]
        first_exc[i] = rec[3]
        first_step[i] = rec[4]
        entries.append(np.array(entry_lists[int(v)], dtype=np.int64))
    return WalkTrace(
        s=int(s),
        steps=int(steps),
        dives=int(dives),
        return_steps=np.array(return_steps, dtype=np.int64),
        ids=ids,
        gens=tree.gen[ids].astype(np.int64) if n else np.zeros(0, dtype=np.int64),
        local_time=local,
        edge_local_time=edge,
        excursion_count=excc,
        first_excursion=first_exc,
        first_hit_step=first_step,
        entry_excursions=entries,
        root_local_time=int(max(s, 0)),
        complete=complete,
    )


def simulate(
    law,
    depth: int,
    s: int,
    seed: int,
    policy: str = "collapse",
    step_budget: int = None,
):
    """Generate a tree from ``seed`` and walk it; returns (tree, trace)."""
    tree = generate(law, depth, seed=seed)
    trace = run_excursions(tree, s, rngmod.stream(seed, "walk"), policy=policy,
                           step_budget=step_budget)
    return tree, trace


def excursion_stats(trace: WalkTrace, u: int):
    """(number of visiting excursions, single-excursion flag, first excursion index)."""
    i = trace.index_of(u)
    count = int(trace.excursion_count[i])
    return count, count == 1, int(trace.first_excursion[i])


@dataclass
class RangeSlice:
    """Visited vertices of a trace restricted to a generation band."""

    tree: MarkedTree
    trace: WalkTrace
    lower: int
    upper: int
    ids: np.ndarray
    gens: np.ndarray
    rows: np.ndarray  # row indices into the trace arrays

    @property
    def size(self) -> int:
        return len(self.ids)

    @property
    def max_generation(self) -> int:
        return int(self.gens.max()) if len(self.gens) else -1

    @property
    def width(self) -> int:
        return self.upper - self.lower + 1

    def first_excursions(self) -> np.ndarray:
        return self.trace.first_excursion[self.rows]

    def excursion_counts(self) -> np.ndarray:
        return self.trace.excursion_count[self.rows]


def range_slice(trace: WalkTrace, tree: MarkedTree, lower: int, upper: int) -> RangeSlice:
    """Filter the visited set by the generation band [lower, upper]."""
    mask = (trace.gens >= lower) & (trace.gens <= upper)
    rows = np.nonzero(mask)[0]
    return RangeSlice(
        tree=tree,
        trace=trace,
        lower=int(lower),
        upper=int(upper),
        ids=trace.ids[rows],
        gens=trace.gens[rows],
        rows=rows,
    )


def trace_to_csv(trace: WalkTrace, path) -> None:
    """Per-vertex summary rows."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["vertex_id", "generation", "local_time", "edge_local_time",
             "excursion_count", "first_excursion"]
        )
        for i in range(len(trace.ids)):
            w.writerow(
                [int(trace.ids[i]), int(trace.gens[i]), int(trace.local_time[i]),
                 int(trace.edge_local_time[i]), int(trace.excursion_count[i]),
                 int(trace.first_excursion[i])]
            )
