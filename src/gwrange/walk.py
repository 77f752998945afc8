"""Quenched biased walk on a truncated marked tree, reflected at the root's parent.

The walk lives on the tree plus the reflecting vertex -1 above the root.
From any interior vertex it moves to the parent or to a child with weights
exp(-V(.)); from the reflecting vertex it always re-enters the root. The
trace is recorded per excursion (segments between successive visits to the
reflecting vertex).

Branching form. Every statistic recorded here depends only on how often each
vertex is entered in each excursion, not on the order of the steps. Each
entry into x from its parent ends in exactly one step back up, and the moves
from x into its children between two such steps are geometric with success
probability p_up(x) = e^{-V(x)} / (e^{-V(x)} + down(x)), down(x) the sum of
e^{-V(c)} over the children. Given N entries into x in one excursion, the
moves into its children therefore number NegBin(N, p_up(x)), and they split
multinomially by e^{-V(c)}: the entry counts of one excursion form a
branching process over generations (Kesten, Kozlov & Spitzer, Compositio
Math. 1975). :func:`run_excursions` advances all s excursions together, one
generation at a time, on rows (excursion, vertex, N).

Truncation frontier. In the recurrent regimes this package targets, a step
below the truncation depth enters a subtree from which the walk returns to
the entry vertex with probability one (the only way back up is through
it) without touching any generation up to the depth. Such a dive is
collapsed into a single recorded return visit to the entry vertex: at the
frontier down(x) is the exact quenched weight ``halo_weight`` of the
children below the depth, and the NegBin count is the number of dives.
Every statistic supported here (visited sets, local times, edge local
times, per-excursion visit counts at generations up to the depth) has
exactly the law it would have on the infinite tree.

Drawn trees. Before it reads the children (at the frontier, the child
weights) of a generation's entered vertices, the kernel asks the tree for
them (:meth:`MarkedTree.draw_children`). A complete tree already holds
them; a partial tree from :func:`gwrange.tree.grow` draws them then, so
the walk draws only the vertices it enters and their children. Given its
potential a vertex's children are independent of everything drawn before,
so the (tree, walk) pair has the same joint law either way.

Recorded steps. An excursion crosses the edge above each entered vertex
twice per entry and spends two recorded steps on each dive, so its recorded
length is 2 sum N + 2 dives; ``return_steps`` are the cumulative lengths.
The wall-clock length of a dive is unobservable, so ``steps`` is an exact
lower bound on the true elapsed time and exact whenever ``dives == 0``.

Finalized traces are immutable and shareable, and (tree, walk) replicas run
embarrassingly parallel on independent streams.
"""

from __future__ import annotations

import csv
import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import QueryError
from .tree import MarkedTree

__all__ = [
    "WalkTrace",
    "RangeSlice",
    "run_excursions",
    "range_slice",
    "trace_to_csv",
]


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
    entry_excursions: Sequence  # per vertex, sorted excursion indices with entries
    root_local_time: int  # visits to the reflecting vertex = s

    def index_of(self, u: int) -> int:
        i = int(np.searchsorted(self.ids, u))
        if i == len(self.ids) or self.ids[i] != u:
            raise QueryError(f"vertex {u} was never visited")
        return i

    def was_visited(self, u: int) -> bool:
        i = int(np.searchsorted(self.ids, u))
        return i < len(self.ids) and self.ids[i] == u


class _EntryExcursions(Sequence):
    """Per-vertex entry excursions read from one column sorted by vertex:
    item i is ``column[bounds[i]:bounds[i + 1]]``, a view cut on each access."""

    def __init__(self, column: np.ndarray, bounds: np.ndarray):
        self.column = column
        self.bounds = bounds

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, i):
        i = range(len(self))[i]
        return self.column[self.bounds[i]:self.bounds[i + 1]]


def run_excursions(tree: MarkedTree, s: int, rng: np.random.Generator) -> WalkTrace:
    """Simulate s excursions from the reflecting vertex.

    Generation by generation over rows (excursion, vertex, N), N the entries
    from the parent: one ``negative_binomial`` call gives every row's moves
    into children (dives at the frontier), and one ``binomial`` call per
    child slot splits them over the children, the last child taking the
    remainder. Deterministic given (tree, s, rng state). Only the exp(-V)
    of entered vertices and their children are computed, and on a partial
    tree only those vertices are drawn, one generation ahead of the walk.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    depth = tree.depth
    # rows stay in (excursion, vertex) order: children are laid out row by
    # row and slot by slot, and child ids follow their parents' order
    exc = np.arange(1, s + 1, dtype=np.int64)
    vert = np.zeros(s, dtype=np.int64)
    entries = np.ones(s, dtype=np.int64)
    rows = []  # per generation: (excursion, vertex, entries, moves down)
    for g in range(depth + 1):
        tree.draw_children(g, vert)
        V = tree.V
        w_up = np.exp(-V[vert])
        if g == depth:
            down = tree.halo_weight[vert - tree.gen_offsets[depth]]
        else:
            n_kids = tree.n_children[vert]
            slots = np.arange(n_kids.max(initial=0))
            has = slots < n_kids[:, None]
            kid = tree.first_child[vert, None] + slots
            kid_w = np.zeros(kid.shape)
            kid_w[has] = np.exp(-V[kid[has]])
            # weight of slots j.. summed from the last slot, so that it is
            # never below slot j's own weight
            rest_w = np.cumsum(kid_w[:, ::-1], axis=1)[:, ::-1]
            down = rest_w[:, 0] if len(slots) else np.zeros(len(vert))
        moves = rng.negative_binomial(entries, w_up / (w_up + down))
        rows.append((exc, vert, entries, moves))
        go = np.flatnonzero(moves)
        if g == depth or not go.size:
            break
        left, n_kids, kid, kid_w, rest_w = moves[go], n_kids[go], kid[go], kid_w[go], rest_w[go]
        into = np.zeros(kid.shape, dtype=np.int64)
        for j in slots:
            last = np.flatnonzero(n_kids == j + 1)
            into[last, j] = left[last]
            mid = np.flatnonzero(n_kids > j + 1)
            into[mid, j] = rng.binomial(left[mid], kid_w[mid, j] / rest_w[mid, j])
            left = left - into[:, j]
        at, slot = np.nonzero(into)
        exc, vert, entries = exc[go[at]], kid[at, slot], into[at, slot]
    return _assemble(tree, s, rows)


def _assemble(tree, s, rows):
    """The per-vertex trace of the (excursion, vertex, entries, moves) rows."""
    exc, vert, entries, moves = (np.concatenate(col) for col in zip(*rows))
    frontier = tree.gen[vert] == tree.depth
    # recorded length of excursion e: 2 sum N + 2 dives
    length = np.bincount(exc, weights=entries + frontier * moves, minlength=s + 1)[1:]
    return_steps = np.zeros(s + 1, dtype=np.int64)
    np.cumsum(2 * length.astype(np.int64), out=return_steps[1:])
    # a stable sort by vertex keeps each vertex's excursions ascending
    order = np.argsort(vert, kind="stable")
    exc, vert, entries, visits = exc[order], vert[order], entries[order], (entries + moves)[order]
    starts = np.flatnonzero(np.r_[True, vert[1:] != vert[:-1]])
    ids = vert[starts]
    bounds = np.r_[starts, len(vert)]
    return WalkTrace(
        s=int(s),
        steps=int(return_steps[-1]),
        dives=int(moves[frontier].sum()),
        return_steps=return_steps,
        ids=ids,
        gens=tree.gen[ids].astype(np.int64),
        local_time=np.add.reduceat(visits, starts),
        edge_local_time=np.add.reduceat(entries, starts),
        excursion_count=np.diff(bounds),
        first_excursion=exc[starts],
        entry_excursions=_EntryExcursions(exc, bounds),
        root_local_time=int(s),
    )


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

    @functools.cached_property
    def ancestors(self) -> np.ndarray:
        """The band's ancestor table, built on first use and kept: row i
        holds the ancestor of ``ids[i]`` at each generation 0 to ``gens[i]``
        (the vertex itself last) and -1 below, filled by one climb of
        ``tree.parent`` per generation. Band vertices x, y with |x| <= |y|
        are ancestrally related exactly when row y holds x at generation
        |x|, and down to the shallower of their generations two rows agree
        exactly up to their most recent common ancestor's, so sampled
        tuples are tested and split by lookups instead of climbs."""
        table = np.full((self.size, self.max_generation + 1), -1, dtype=np.int64)
        cur = self.ids.copy()
        for g in range(self.max_generation, -1, -1):
            on = self.gens >= g
            table[on, g] = cur[on]
            cur[on] = self.tree.parent[cur[on]]
        table.flags.writeable = False
        return table

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
