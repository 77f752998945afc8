"""Marked Galton-Watson trees stored as flat arenas.

Nodes are dense integer ids in generation (breadth-first) order; the root
is id 0 and its parent is the reflecting vertex, written -1. Each node
carries its displacement and its accumulated potential. Trees are
truncated at a configured depth and the truncation frontier additionally
stores, per frontier node, the total child weight sum(exp(-V(child))) of
the one unmaterialized generation below, which is exactly what the walk
kernel needs there. The infinite tree is never materialized, and a tree
need not be materialized whole down to its depth either: :func:`grow`
starts a partial tree that holds only its root and draws the children of
the vertices a walk enters, one generation ahead of the walk
(:meth:`MarkedTree.draw_children`). Given its potential, a vertex's
children are i.i.d. of the rest of the tree, so a walk on the partial tree
has the law it has on the whole one. Readers that sum whole generations
refuse partial trees (``QueryError``); :meth:`MarkedTree.filled` completes
the top of one on a separate stream.

Two functions write the arena. :func:`tree_from_parents` lays out every
complete tree, one generation at a time, from parent ids and displacements
listed breadth first: :func:`generate`, :meth:`MarkedTree.filled` and
:func:`load_snapshot` only produce those lists.
:meth:`MarkedTree.draw_children` lays out partial trees, appending one
generation as the walk reaches it.

Trees from :func:`generate` and :func:`tree_from_parents` are immutable
and safe to read from any number of threads; a partial tree grows only
while the one walk on it runs, and is read-only after. Generation itself
is single threaded, replicas parallelize.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .errors import QueryError, ResourceLimitError
from .environment import EnvironmentLaw, law_to_text, law_from_text, log_laplace

__all__ = [
    "MarkedTree",
    "generate",
    "grow",
    "tree_from_parents",
    "mrca",
    "mrca_generation",
    "additive_martingale",
    "conductance_levels",
    "Forest",
    "sample_forest",
    "enumerate_delta_k",
    "is_ancestor",
    "ancestral_pair",
    "save_snapshot",
    "load_snapshot",
]

PARENT_OF_ROOT = -1
DEFAULT_NODE_CAP = 30_000_000
# Frontier parents whose child weights are drawn at once.
FRONTIER_BLOCK = 1 << 16
# Expected vertices of one block of a forest draw (see sample_forest).
FOREST_BLOCK_NODES = 1 << 18


@dataclass
class MarkedTree:
    parent: np.ndarray
    gen: np.ndarray
    disp: np.ndarray
    V: np.ndarray
    first_child: np.ndarray
    n_children: np.ndarray
    gen_offsets: np.ndarray  # shape (depth+2,), node-id range of generation g
    depth: int
    halo_weight: np.ndarray  # per frontier node: sum exp(-V(child)) below
    law: EnvironmentLaw = None
    seed: int = None
    regen_attempts: int = 0
    # a partial tree holds only drawn vertices: the root, the vertices a walk
    # entered and their children; first_child is -1 where children are not drawn
    partial: bool = False
    _grow_rng: np.random.Generator = field(default=None, repr=False)
    _grown: int = 0  # generations 0.._grown-1 have had their children drawn

    def __len__(self):
        return len(self.parent)

    @property
    def size(self) -> int:
        return len(self.parent)

    def require_complete(self) -> None:
        """Refuse a reader of whole generations on a partial tree."""
        if self.partial:
            raise QueryError("this tree holds only the part a walk entered, not whole "
                             "generations (MarkedTree.filled completes its top)")

    def generation_ids(self, g: int) -> np.ndarray:
        self.require_complete()
        if g < 0 or g > self.depth:
            raise QueryError(f"generation {g} outside [0, {self.depth}]")
        return np.arange(self.gen_offsets[g], self.gen_offsets[g + 1], dtype=np.int64)

    def generation_size(self, g: int) -> int:
        return int(self.gen_offsets[g + 1] - self.gen_offsets[g])

    def children(self, x: int) -> np.ndarray:
        fc = self.first_child[x]
        return np.arange(fc, fc + self.n_children[x], dtype=np.int64)

    @property
    def exp_neg_v(self) -> np.ndarray:
        return np.exp(-self.V)

    def frontier_down_weight(self, x: int) -> float:
        """Total kernel weight of the unmaterialized children of a frontier node."""
        if self.gen[x] != self.depth:
            raise QueryError(f"{x} is not at the truncation frontier")
        return float(self.halo_weight[x - self.gen_offsets[self.depth]])

    def ancestor_chain(self, x: int) -> np.ndarray:
        """Ids from the root down to x inclusive."""
        out = np.empty(self.gen[x] + 1, dtype=np.int64)
        cur = x
        for g in range(self.gen[x], -1, -1):
            out[g] = cur
            cur = self.parent[cur]
        return out

    def levels(self, top: int, lower: int = 0) -> "Forest":
        """Generations 0..top as a one-tree :class:`Forest`, keeping above
        ``lower`` only the vertices with a descendant there: the ancestor
        forest of generations lower..top, in id order on every level."""
        self.require_complete()
        off = self.gen_offsets
        V = [self.V[off[g] : off[g + 1]] for g in range(top + 1)]
        parent = [np.full(1, PARENT_OF_ROOT)]
        parent += [self.parent[off[g] : off[g + 1]] - off[g - 1] for g in range(1, top + 1)]
        for g in range(lower, 0, -1):
            kept = np.zeros(len(V[g - 1]), dtype=bool)
            kept[parent[g]] = True
            parent[g] = (np.cumsum(kept) - 1)[parent[g]]
            V[g - 1], parent[g - 1] = V[g - 1][kept], parent[g - 1][kept]
        return Forest(tuple(V), tuple(parent),
                      tuple(np.zeros(len(p), dtype=np.int64) for p in parent))

    def draw_children(self, g: int, vert) -> None:
        """Make sure the children of the generation-g vertices ``vert`` are
        drawn; at the truncation depth, their frontier child weights.

        A complete tree holds them already. A tree from :func:`grow` draws
        generation g+1 once, when g is the next generation to grow: one
        :meth:`EnvironmentLaw.sample_generation` call (at the depth, one
        :meth:`EnvironmentLaw.child_weights` call) on its stream for the
        distinct ``vert`` in id order. Asked later for a vertex of a grown
        generation whose children it did not draw, it raises QueryError.
        """
        if self._grow_rng is None:
            return
        vert = np.unique(vert)
        if g < self._grown:
            drawn = (np.isfinite(self.halo_weight[vert - self.gen_offsets[g]]) if g == self.depth
                     else self.first_child[vert] >= 0)
            if drawn.all():
                return
        if g != self._grown:
            raise QueryError(f"generation {g} of this partial tree is not the next to grow")
        if g == self.depth:
            self.halo_weight[vert - self.gen_offsets[g]] = self.law.child_weights(
                self._grow_rng, self.V[vert])
            self._grown = g + 1
            return
        counts, disp = self.law.sample_generation(self._grow_rng, len(vert))
        rows = np.repeat(vert, counts)
        v = self.V[rows]
        v += disp
        if abs(v).max(initial=0.0) > 600:
            raise ResourceLimitError("potential magnitude too large for direct exponentials")
        size, n_new = self.size, len(rows)
        self.first_child[vert] = size + np.cumsum(counts) - counts
        self.n_children[vert] = counts
        self.parent = np.concatenate((self.parent, rows))
        self.gen = np.concatenate((self.gen, np.full(n_new, g + 1, dtype=np.int32)))
        self.disp = np.concatenate((self.disp, disp))
        self.V = np.concatenate((self.V, v))
        self.first_child = np.concatenate((self.first_child, np.full(n_new, -1)))
        self.n_children = np.concatenate((self.n_children, np.zeros(n_new, dtype=np.int32)))
        self.gen_offsets[g + 2 :] = size + n_new
        if g + 1 == self.depth:
            self.halo_weight = np.full(n_new, np.nan)
        self._grown = g + 1

    def filled(self, top: int, rng: np.random.Generator) -> "MarkedTree":
        """Generations 0..top as a complete tree: this tree when it is
        complete; for a partial tree, its drawn vertices (same potentials)
        with the missing children drawn from ``rng``, one
        :meth:`EnvironmentLaw.sample_generation` call per generation for the
        vertices without drawn children, in order, laid out by
        :func:`tree_from_parents`. No frontier weights."""
        if not self.partial:
            return self
        src = np.zeros(1, dtype=np.int64)  # per filled vertex: its id here, or -1
        parents, disps, base = [np.full(1, PARENT_OF_ROOT)], [np.zeros(1)], 0
        for _ in range(top):
            fc = np.where(src >= 0, self.first_child[src], -1)
            known = fc >= 0
            counts = np.where(known, self.n_children[src], 0).astype(np.int64)
            fresh_counts, fresh = self.law.sample_generation(rng, int((~known).sum()))
            counts[~known] = fresh_counts
            rows = np.repeat(np.arange(len(src)), counts)
            from_tree = known[rows]
            kid = fc[rows] + np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
            src = np.where(from_tree, kid, -1)
            disp = np.empty(len(rows))
            disp[from_tree] = self.disp[src[from_tree]]
            disp[~from_tree] = fresh
            parents.append(rows + base)
            disps.append(disp)
            base += len(counts)
        return tree_from_parents(np.concatenate(parents), np.concatenate(disps), law=self.law)

    def ancestor_forest(self, ids):
        """The ancestors of vertices ``ids`` (any generations, themselves
        included) as a one-tree :class:`Forest` down to the deepest of them,
        and the ascending ids of each of its levels.

        Level g is ``ids`` at generation g and the parents of level g+1: it
        is climbed from the deepest generation up, one ``np.unique`` each.
        """
        ids = np.asarray(ids, dtype=np.int64)
        gens = self.gen[ids]
        deepest = int(gens.max(initial=0))
        labels = [np.unique(ids[gens == deepest])]
        for g in range(deepest - 1, -1, -1):
            labels.insert(0, np.unique(np.concatenate((ids[gens == g], self.parent[labels[0]]))))
        parent = [np.full(len(labels[0]), PARENT_OF_ROOT)]
        parent += [np.searchsorted(labels[g - 1], self.parent[labels[g]])
                   for g in range(1, len(labels))]
        return Forest(tuple(self.V[lab] for lab in labels), tuple(parent),
                      tuple(np.zeros(len(lab), dtype=np.int64) for lab in labels)), labels


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def _expected_nodes(law: EnvironmentLaw, depth: int) -> float:
    mu = law.mean_offspring
    total = 1.0
    level = 1.0
    for _ in range(depth + 1):  # +1 accounts for the frontier child weights
        level *= mu
        total += level
    return total


def generate(
    law: EnvironmentLaw,
    depth: int,
    rng: np.random.Generator = None,
    seed: int = None,
) -> MarkedTree:
    """Generate a marked tree truncated at ``depth``.

    Either ``rng`` or ``seed`` must be given. Generation g (1 <= g <= depth)
    is one :meth:`EnvironmentLaw.sample_generation` call for all vertices
    of generation g-1. The frontier child weights are generation depth+1,
    drawn by :meth:`EnvironmentLaw.child_weights` in blocks of
    ``FRONTIER_BLOCK`` frontier vertices: each block is reduced to one
    weight per parent with no per-child array, and the blocks consume the
    stream as one ``sample_generation`` call for the whole frontier would.
    With a seed, each generation draws from the counter-based stream
    ``rng.stream(seed, f"tree/{attempt}", g)``, so deepening the truncation
    extends the same realization and the frontier weights at one depth sum
    the next generation of a deeper tree. With ``rng``, the calls draw from
    the one generator in turn. The drawn parents and displacements are laid
    out by :func:`tree_from_parents`. Laws that permit extinction are
    rejection-resampled until the tree survives to the full depth: a seed
    moves on to the next attempt's streams, an ``rng`` keeps drawing from
    where the extinct attempt stopped. The number of extra attempts is
    recorded on the tree; :func:`sample_forest` draws unconditioned trees.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if (rng is None) == (seed is None):
        raise ValueError("pass exactly one of rng, seed")
    expected = _expected_nodes(law, depth)
    if expected > DEFAULT_NODE_CAP:
        raise ResourceLimitError(
            f"expected node count {expected:.3g} exceeds cap {DEFAULT_NODE_CAP}"
        )
    for attempt in range(10_000):
        tree = _generate_once(law, depth, rng, seed, attempt)
        if tree is not None:
            tree.regen_attempts = attempt
            return tree
    raise ResourceLimitError("rejection sampling failed 10000 times")


def grow(law: EnvironmentLaw, depth: int, rng: np.random.Generator) -> MarkedTree:
    """A partial tree truncated at ``depth`` that holds only its root and
    draws, from ``rng``, each generation's children of the vertices a walk
    enters there (:meth:`MarkedTree.draw_children`), one generation ahead of
    the walk. Unlike :func:`generate` it is not conditioned on survival."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    offsets = np.ones(depth + 2, dtype=np.int64)
    offsets[0] = 0
    return MarkedTree(
        parent=np.full(1, PARENT_OF_ROOT, dtype=np.int64),
        gen=np.zeros(1, dtype=np.int32),
        disp=np.zeros(1),
        V=np.zeros(1),
        first_child=np.full(1, -1, dtype=np.int64),
        n_children=np.zeros(1, dtype=np.int32),
        gen_offsets=offsets,
        depth=depth,
        halo_weight=np.zeros(0),
        law=law,
        partial=True,
        _grow_rng=rng,
    )


def _level_rng(rng, seed, attempt, level):
    if rng is not None:
        return rng
    return rngmod.stream(seed, f"tree/{attempt}", level)


def _generate_once(law, depth, rng, seed, attempt):
    """One attempt of :func:`generate`: the draws, laid out by
    :func:`tree_from_parents`; None when the tree dies out."""
    parents, disps = [np.full(1, PARENT_OF_ROOT)], [np.zeros(1)]
    lo, size = 0, 1  # ids of the last drawn generation
    for g in range(1, depth + 1):
        counts, disp = law.sample_generation(_level_rng(rng, seed, attempt, g), size - lo)
        n_new = int(counts.sum())
        if n_new == 0:
            return None  # extinct before reaching the truncation depth
        if size + n_new > DEFAULT_NODE_CAP:
            raise ResourceLimitError(f"actual node count exceeds cap {DEFAULT_NODE_CAP}")
        parents.append(np.repeat(np.arange(lo, size), counts))
        disps.append(disp)
        lo, size = size, size + n_new
    # free each level's draws as it is joined, so the peak is the finished tree
    del counts, disp
    parents = np.concatenate(parents)
    disps = np.concatenate(disps)
    tree = tree_from_parents(parents, disps, law=law)
    if abs(tree.V.max(initial=0.0)) > 600 or abs(tree.V.min(initial=0.0)) > 600:
        raise ResourceLimitError("potential magnitude too large for direct exponentials")

    # Frontier child weights: one more sampled generation, reduced to
    # per-parent sums of exp(-V(child)) and never stored as nodes. The
    # parents are drawn in blocks from the same generator, which consumes
    # the stream exactly as one draw for all of them would.
    r = _level_rng(rng, seed, attempt, depth + 1)
    level_v, halo = tree.V[lo:], tree.halo_weight
    for i in range(0, len(halo), FRONTIER_BLOCK):
        halo[i : i + FRONTIER_BLOCK] = law.child_weights(r, level_v[i : i + FRONTIER_BLOCK])
    tree.seed = seed
    return tree


@dataclass(frozen=True)
class Forest:
    """Trees stored level by level: a block of :func:`sample_forest`, the top
    of a :class:`MarkedTree` (:meth:`~MarkedTree.levels`) or the ancestors
    of a vertex set (:meth:`~MarkedTree.ancestor_forest`). Level g lists
    the generation-g vertices of every tree, grouped by tree in tree order.
    ``V[g]`` holds their potentials, ``parent[g]`` the row of each one's
    parent in level g-1 (-1 at the roots) and ``root[g]`` the row of its
    tree's root. A tree that died out has no rows below its last generation.
    """

    V: tuple
    parent: tuple
    root: tuple

    def tree_sums(self, values: np.ndarray) -> np.ndarray:
        """Per tree, the sum of ``values`` over its vertices of the deepest
        level (0 for a tree that died out)."""
        return np.bincount(self.root[-1], weights=values, minlength=len(self.V[0]))

    def roll_up(self, vals: np.ndarray, g: int, a: int) -> np.ndarray:
        """Sum level-g values over the descendants of each level-a vertex."""
        for h in range(g, a, -1):
            vals = np.bincount(self.parent[h], weights=vals, minlength=len(self.V[h - 1]))
        return vals

    def subtree_sums(self, own) -> list:
        """Per level, the total of the per-level weights ``own`` over each
        vertex's subtree; ``own[g]`` may be 0 on a level without weight."""
        out = [own[-1]]
        for g in range(len(self.V) - 1, 0, -1):
            out.insert(0, own[g - 1] + self.roll_up(out[0], g, g - 1))
        return out


def sample_forest(law: EnvironmentLaw, depth: int, trees: int, rng: np.random.Generator):
    """Draw ``trees`` independent trees of ``depth`` generations, yielded as
    consecutive :class:`Forest` blocks.

    The trees are not conditioned on survival: one that dies out before
    ``depth`` has no vertices there and sums to 0, so forest averages are
    annealed means. A block holds about ``FOREST_BLOCK_NODES`` vertices in
    expectation, so memory does not grow with ``trees``. Generation g of a
    block is one :meth:`EnvironmentLaw.sample_generation` call for the
    block's generation g-1, all drawn from ``rng`` in turn.
    """
    per_block = max(1, int(FOREST_BLOCK_NODES // _expected_nodes(law, depth)))
    for lo in range(0, trees, per_block):
        n = min(per_block, trees - lo)
        V, parent, root = [np.zeros(n)], [np.full(n, PARENT_OF_ROOT)], [np.arange(n)]
        for _ in range(depth):
            counts, disp = law.sample_generation(rng, len(V[-1]))
            rows = np.repeat(np.arange(len(V[-1]), dtype=np.int64), counts)
            disp += V[-1][rows]
            V.append(disp)
            parent.append(rows)
            root.append(root[-1][rows])
        yield Forest(tuple(V), tuple(parent), tuple(root))


def tree_from_parents(parents, disps, law=None) -> MarkedTree:
    """The complete tree with parent ids ``parents`` and displacements
    ``disps``, laid out one generation at a time.

    Nodes are listed breadth first: parents[0] == -1 and disps[0] == 0, and
    every other node's parent comes before it, the children of one parent
    together and in parent order. Generation g+1 is then the run of nodes
    whose parents lie in generation g, and its potentials are the parents'
    plus the displacements. Every complete tree is laid out here:
    :func:`generate`, :meth:`MarkedTree.filled` and :func:`load_snapshot`.
    The frontier child weights are 0 (the frontier reflects) until
    :func:`generate` draws them.
    """
    parent = np.asarray(parents, dtype=np.int64)
    disp = np.asarray(disps, dtype=float)
    size = len(parent)
    up = parent[1:]
    if size == 0 or parent[0] != PARENT_OF_ROOT or len(disp) != size:
        raise ValueError("first node must be the root with parent -1, "
                         "and each node needs one displacement")
    if (up[:1] < 0).any() or (up[1:] < up[:-1]).any():
        raise ValueError("nodes must have one root, the children of one parent "
                         "together and in parent order")
    # with parents in order, generation g+1 ends before the first node
    # whose parent lies past generation g
    offsets = [0, 1]
    V = np.zeros(size)
    while offsets[-1] < size:
        hi = offsets[-1]
        end = 1 + int(up.searchsorted(hi))
        if end == hi:
            raise ValueError(f"node {hi} is listed before its parent")
        np.add(V[parent[hi:end]], disp[hi:end], out=V[hi:end])
        offsets.append(end)
    offsets = np.array(offsets, dtype=np.int64)
    depth, n_int = len(offsets) - 2, int(offsets[-2])
    n_children = np.bincount(up, minlength=size).astype(np.int32)
    # The children of an interior vertex (childless or not) start after the
    # root and the children of every interior vertex before it.
    first_child = np.full(size, -1, dtype=np.int64)
    head = first_child[:n_int]
    n_children[:n_int].cumsum(out=head)
    head -= n_children[:n_int]
    head += 1
    return MarkedTree(
        parent=parent,
        gen=np.arange(depth + 1, dtype=np.int32).repeat(offsets[1:] - offsets[:-1]),
        disp=disp,
        V=V,
        first_child=first_child,
        n_children=n_children,
        gen_offsets=offsets,
        depth=depth,
        halo_weight=np.zeros(size - n_int),
        law=law,
    )


# ---------------------------------------------------------------------------
# ancestry
# ---------------------------------------------------------------------------


def mrca(tree: MarkedTree, x: int, y: int) -> int:
    """Most recent common ancestor (possibly the root)."""
    gx, gy = int(tree.gen[x]), int(tree.gen[y])
    while gx > gy:
        x = tree.parent[x]
        gx -= 1
    while gy > gx:
        y = tree.parent[y]
        gy -= 1
    while x != y:
        x = tree.parent[x]
        y = tree.parent[y]
    return int(x)


def mrca_generation(tree: MarkedTree, x: int, y: int) -> int:
    return int(tree.gen[mrca(tree, x, y)])


def is_ancestor(tree: MarkedTree, u: int, x: int) -> bool:
    """True when u is an ancestor of x or equal to it."""
    gu, gx = int(tree.gen[u]), int(tree.gen[x])
    if gu > gx:
        return False
    cur = x
    for _ in range(gx - gu):
        cur = tree.parent[cur]
    return cur == u


def ancestral_pair(tree: MarkedTree, xs):
    """The first pair (a, b) of ``xs``, in combination order, with a the
    shallower and an ancestor of b or equal to it; None when ``xs`` are
    distinct and pairwise non-ancestral (an admissible tuple)."""
    for u, v in itertools.combinations(xs, 2):
        a, b = (u, v) if tree.gen[u] <= tree.gen[v] else (v, u)
        if is_ancestor(tree, a, b):
            return a, b
    return None


# ---------------------------------------------------------------------------
# potential sums
# ---------------------------------------------------------------------------


def additive_martingale(tree: MarkedTree, n: int) -> float:
    """E[W_n | drawn part], W_n the sum over generation n of exp(-V): the
    drawn generation-n vertices, plus e^{-V(u)} e^{(n - |u|) psi(1)} for
    each drawn vertex u above n whose children were not drawn, the mean of
    its generation-n descendants' sum. On a complete tree there is no such
    u, and the value is W_n bit for bit."""
    if n < 0 or n > tree.depth:
        raise QueryError(f"generation {n} outside [0, {tree.depth}]")
    lo, hi = tree.gen_offsets[n], tree.gen_offsets[n + 1]
    w = np.negative(tree.V[lo:hi])
    total = float(np.exp(w, out=w).sum())
    undrawn = np.flatnonzero(tree.first_child[:lo] < 0)
    if undrawn.size:
        log_mean = (n - tree.gen[undrawn]) * log_laplace(tree.law, 1.0) - tree.V[undrawn]
        total += float(np.exp(log_mean).sum())
    return total


def _logsumexp(a: np.ndarray) -> float:
    m = a.max()
    return float(m + math.log(np.exp(a - m).sum()))


def conductance_levels(forest: Forest) -> list:
    """H per level of a :class:`Forest`: 1 at the roots, and H_x = 1 +
    exp(V(parent) - V(x)) H_parent below, which equals the path sum over
    root..x of exp(V(w) - V(x)) up to rounding.
    """
    V = forest.V
    H = [np.ones(len(V[0]))]
    for g in range(1, len(V)):
        p = forest.parent[g]
        H.append(1.0 + np.exp(V[g - 1][p] - V[g]) * H[-1][p])
    return H


# ---------------------------------------------------------------------------
# tuple sets
# ---------------------------------------------------------------------------


def enumerate_delta_k(tree: MarkedTree, vertices, k: int):
    """Ordered k-tuples of distinct, pairwise non-ancestral vertices.

    For vertices all in one generation this is just ordered distinct
    tuples; in general ancestor-related pairs are filtered via a
    combination pre-pass so each unordered set is checked once.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    verts = [int(v) for v in vertices]
    if len({int(tree.gen[v]) for v in verts}) <= 1:
        yield from itertools.permutations(verts, k)
        return
    for combo in itertools.combinations(verts, k):
        if ancestral_pair(tree, combo) is None:
            yield from itertools.permutations(combo)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------


def save_snapshot(tree: MarkedTree, path) -> None:
    """Line-oriented dump: id parent generation displacement potential,
    followed on frontier nodes by their child weight below.

    The law and the seed go in header comments. Values are written with
    ``repr``, so :func:`load_snapshot` restores every array bit for bit.
    """
    tree.require_complete()
    base = int(tree.gen_offsets[tree.depth])
    with open(path, "w") as fh:
        fh.write("# gwrange tree snapshot v2\n")
        if tree.law is not None:
            for line in law_to_text(tree.law).splitlines():
                fh.write(f"# law: {line}\n")
        fh.write(f"# seed: {tree.seed}\n")
        for i in range(tree.size):
            fh.write(
                f"{i} {int(tree.parent[i])} {int(tree.gen[i])} "
                f"{float(tree.disp[i])!r} {float(tree.V[i])!r}"
            )
            if i >= base:
                fh.write(f" {float(tree.frontier_down_weight(i))!r}")
            fh.write("\n")


def load_snapshot(path) -> MarkedTree:
    parents = []
    disps = []
    halo = []
    law_lines = []
    seed = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# law:"):
                law_lines.append(line[len("# law:") :].strip())
                continue
            if line.startswith("# seed:"):
                value = line[len("# seed:") :].strip()
                seed = None if value == "None" else int(value)
                continue
            if not line or line.startswith("#"):
                continue
            _, p, _, d, _, *w = line.split()
            parents.append(int(p))
            disps.append(float(d))
            halo.extend(float(x) for x in w)
    law = law_from_text("\n".join(law_lines)) if law_lines else None
    tree = tree_from_parents(parents, disps, law=law)
    tree.seed = seed
    if halo:
        if len(halo) != len(tree.halo_weight):
            raise ValueError(
                f"{len(halo)} frontier weights for {len(tree.halo_weight)} frontier nodes"
            )
        tree.halo_weight = np.array(halo)
    return tree
