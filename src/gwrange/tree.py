"""Marked Galton-Watson trees stored as flat arenas.

Nodes are dense integer ids in generation (breadth-first) order; the root
is id 0 and its parent is the reflecting vertex, written -1. Each node
carries its displacement and its accumulated potential. Trees are
truncated at a configured depth and the truncation frontier additionally
stores, per frontier node, the total child weight sum(exp(-V(child))) of
the one unmaterialized generation below, which is exactly what the walk
kernel needs there. The infinite tree is never materialized.

Trees are immutable after generation and safe to read from any number of
threads; generation itself is single threaded, replicas parallelize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .errors import AncestryError, QueryError, ResourceLimitError
from .environment import EnvironmentLaw, law_to_text, law_from_text

__all__ = [
    "MarkedTree",
    "VirtualLeaf",
    "generate",
    "tree_from_parents",
    "ancestor_at",
    "mrca",
    "mrca_generation",
    "additive_martingale",
    "conductance_H",
    "partial_H",
    "conductance_levels",
    "Forest",
    "sample_forest",
    "enumerate_delta_k",
    "is_ancestor",
    "save_snapshot",
    "load_snapshot",
]

PARENT_OF_ROOT = -1
DEFAULT_NODE_CAP = 30_000_000
# Frontier parents whose child weights are drawn at once.
FRONTIER_BLOCK = 1 << 16
# Expected vertices of one block of a forest draw (see sample_forest).
FOREST_BLOCK_NODES = 1 << 18


@dataclass(frozen=True)
class VirtualLeaf:
    """Slot-indexed stand-in ancestor for a vertex shallower than the queried level."""

    slot: int


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
    halo_weight: np.ndarray = None  # per frontier node: sum exp(-V(child)) below
    law: EnvironmentLaw = None
    seed: int = None
    regen_attempts: int = 0
    _exp_neg_v: np.ndarray = field(default=None, repr=False)

    def __len__(self):
        return len(self.parent)

    @property
    def size(self) -> int:
        return len(self.parent)

    def generation_ids(self, g: int) -> np.ndarray:
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
        if self._exp_neg_v is None:
            self._exp_neg_v = np.negative(self.V)
            np.exp(self._exp_neg_v, out=self._exp_neg_v)
        return self._exp_neg_v

    def is_frontier(self, x: int) -> bool:
        return self.gen[x] == self.depth

    def frontier_down_weight(self, x: int) -> float:
        """Total kernel weight of the unmaterialized children of a frontier node."""
        if not self.is_frontier(x):
            raise QueryError(f"{x} is not at the truncation frontier")
        if self.halo_weight is None:
            return 0.0
        return float(self.halo_weight[x - self.gen_offsets[self.depth]])

    def ancestor_chain(self, x: int) -> np.ndarray:
        """Ids from the root down to x inclusive."""
        out = np.empty(self.gen[x] + 1, dtype=np.int64)
        cur = x
        for g in range(self.gen[x], -1, -1):
            out[g] = cur
            cur = self.parent[cur]
        return out

    def ancestor_matrix(self, ids: np.ndarray) -> np.ndarray:
        """Ancestor ids of each vertex at every level, shape (len(ids), depth+1).

        Entry [i, g] is the generation-g ancestor of ids[i], or -2 when the
        vertex is shallower than g.
        """
        ids = np.asarray(ids, dtype=np.int64)
        out = np.full((len(ids), self.depth + 1), -2, dtype=np.int64)
        cur = ids.copy()
        gens = self.gen[ids].astype(np.int64)
        for g in range(self.depth, -1, -1):
            active = gens >= g
            deeper = gens > g
            cur[deeper] = self.parent[cur[deeper]]
            gens[deeper] = g
            out[active & (gens == g), g] = cur[active & (gens == g)]
        return out

    def levels(self, top: int):
        """Generations 0..top in the level layout of :class:`Forest`: the
        potentials, and the parent rows in the level above (none at level 0)."""
        off = self.gen_offsets
        parent = [self.parent[off[g] : off[g + 1]] - off[g - 1] for g in range(1, top + 1)]
        return [self.V[off[g] : off[g + 1]] for g in range(top + 1)], [None] + parent


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
    node_cap: int = DEFAULT_NODE_CAP,
) -> MarkedTree:
    """Generate a marked tree truncated at ``depth``.

    Either ``rng`` or ``seed`` must be given. Generation g (1 <= g <= depth)
    is one :meth:`EnvironmentLaw.sample_generation` call for all vertices
    of generation g-1, and the frontier child weights one more call at
    g = depth+1. With a seed, that call draws from the counter-based stream
    ``rng.stream(seed, f"tree/{attempt}", g)``, so deepening the truncation
    extends the same realization and the frontier weights at one depth sum
    the next generation of a deeper tree. With ``rng``, the calls draw from
    the one generator in turn. Laws that permit extinction are
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
    if expected > node_cap:
        raise ResourceLimitError(
            f"expected node count {expected:.3g} exceeds cap {node_cap}"
        )
    for attempt in range(10_000):
        tree = _generate_once(law, depth, rng, seed, attempt, node_cap)
        if tree is not None:
            tree.regen_attempts = attempt
            return tree
    raise ResourceLimitError("rejection sampling failed 10000 times")


def _level_rng(rng, seed, attempt, level):
    if rng is not None:
        return rng
    return rngmod.stream(seed, f"tree/{attempt}", level)


def _generate_once(law, depth, rng, seed, attempt, node_cap):
    parents = [np.array([PARENT_OF_ROOT], dtype=np.int64)]
    disps = [np.zeros(1)]
    vs = [np.zeros(1)]
    counts_per_level = []
    level_v = np.zeros(1)
    offsets = [0, 1]
    for g in range(1, depth + 1):
        r = _level_rng(rng, seed, attempt, g)
        counts, disp = law.sample_generation(r, len(level_v))
        n_new = int(counts.sum())
        if n_new == 0:
            return None  # extinct before reaching the truncation depth
        if offsets[-1] + n_new > node_cap:
            raise ResourceLimitError(f"actual node count exceeds cap {node_cap}")
        rows = np.repeat(np.arange(len(level_v)), counts)
        level_v = level_v[rows]
        level_v += disp
        rows += offsets[-2]  # parent ids
        counts_per_level.append(counts)
        parents.append(rows)
        disps.append(disp)
        vs.append(level_v)
        offsets.append(offsets[-1] + n_new)

    # Join the per-level arrays, freeing each list before the frontier draw.
    del counts, disp, rows  # the last level's arrays, also held by the lists
    parent = np.concatenate(parents)
    del parents
    disp_all = np.concatenate(disps)
    del disps
    v_all = np.concatenate(vs)
    del vs
    level_v = v_all[offsets[-2]:]  # a view, so the last level's copy is freed
    interior = np.concatenate(counts_per_level)
    del counts_per_level
    if abs(v_all.max(initial=0.0)) > 600 or abs(v_all.min(initial=0.0)) > 600:
        raise ResourceLimitError("potential magnitude too large for direct exponentials")

    # Frontier child weights: one more sampled generation, reduced to
    # per-parent sums of exp(-V(child)) and never stored as nodes. The
    # parents are drawn in blocks from the same generator, which consumes
    # the stream exactly as one draw for all of them would.
    r = _level_rng(rng, seed, attempt, depth + 1)
    halo = np.empty(len(level_v))
    for lo in range(0, len(level_v), FRONTIER_BLOCK):
        block_v = level_v[lo : lo + FRONTIER_BLOCK]
        counts, weight = law.sample_generation(r, len(block_v))
        rows = np.repeat(np.arange(len(block_v)), counts)
        weight += block_v[rows]
        np.negative(weight, out=weight)
        np.exp(weight, out=weight)
        halo[lo : lo + len(block_v)] = np.bincount(rows, weights=weight, minlength=len(block_v))
    del counts, rows, weight

    size = len(parent)
    n_int = len(interior)
    gen = np.repeat(np.arange(depth + 1, dtype=np.int32), np.diff(offsets))
    n_children = np.zeros(size, dtype=np.int32)
    n_children[:n_int] = interior
    del interior
    # Breadth-first ids: the children of x start after the root and the
    # children of every interior node before x. The sum runs in place so
    # no full-size temporary is cast.
    first_child = np.full(size, -1, dtype=np.int64)
    head = first_child[:n_int]
    head[:] = n_children[:n_int]
    np.cumsum(head, out=head)
    head -= n_children[:n_int]
    head += 1
    return MarkedTree(
        parent=parent,
        gen=gen,
        disp=disp_all,
        V=v_all,
        first_child=first_child,
        n_children=n_children,
        gen_offsets=np.array(offsets, dtype=np.int64),
        depth=depth,
        halo_weight=halo,
        law=law,
        seed=seed,
    )


@dataclass(frozen=True)
class Forest:
    """One block of independent trees, stored level by level: level g lists
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

    def tree(self, i: int) -> MarkedTree:
        """Tree ``i`` as a :class:`MarkedTree` down to its last nonempty
        generation, without frontier weights."""
        parents, disps = [[PARENT_OF_ROOT]], [[0.0]]
        prev, base = i, 0  # first row of tree i in the level above, and its id
        for g in range(1, len(self.V)):
            lo, hi = np.searchsorted(self.root[g], (i, i + 1))
            rows = self.parent[g][lo:hi]
            parents.append(rows - prev + base)
            disps.append(self.V[g][lo:hi] - self.V[g - 1][rows])
            base += len(parents[-2])
            prev = lo
        return tree_from_parents(np.concatenate(parents), np.concatenate(disps))


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
    """Build a tree from explicit parent ids and displacements.

    Nodes must be listed in generation order with parents[0] == -1 and
    disps[0] == 0. Used by fixtures and the snapshot loader; no frontier
    child weights are attached (the frontier reflects).
    """
    parent = np.asarray(parents, dtype=np.int64)
    disp = np.asarray(disps, dtype=float)
    size = len(parent)
    if size == 0 or parent[0] != PARENT_OF_ROOT:
        raise ValueError("first node must be the root with parent -1")
    gen = np.zeros(size, dtype=np.int32)
    V = np.zeros(size)
    for i in range(1, size):
        p = parent[i]
        if p < 0 or p >= i:
            raise ValueError("nodes must be listed in generation order")
        gen[i] = gen[p] + 1
        V[i] = V[p] + disp[i]
    depth = int(gen.max())
    order_ok = bool(np.all(np.diff(gen) >= 0))
    if not order_ok:
        raise ValueError("nodes must be sorted by generation")
    n_children = np.bincount(parent[1:], minlength=size).astype(np.int32)
    # As in generate: the children of an interior vertex (childless or not)
    # start after the root and the children of every interior vertex before it.
    n_int = int(np.searchsorted(gen, depth))
    first_child = np.full(size, -1, dtype=np.int64)
    first_child[:n_int] = np.cumsum(n_children[:n_int]) - n_children[:n_int] + 1
    kid = np.arange(1, size)
    start = first_child[parent[1:]]
    if not np.all((start <= kid) & (kid < start + n_children[parent[1:]])):
        raise ValueError("children of one parent must be contiguous, in parent order")
    offsets = [0]
    for g in range(depth + 1):
        offsets.append(offsets[-1] + int((gen == g).sum()))
    halo = np.zeros(int((gen == depth).sum()))
    return MarkedTree(
        parent=parent,
        gen=gen,
        disp=disp,
        V=V,
        first_child=first_child,
        n_children=n_children,
        gen_offsets=np.array(offsets, dtype=np.int64),
        depth=depth,
        halo_weight=halo,
        law=law,
    )


# ---------------------------------------------------------------------------
# ancestry
# ---------------------------------------------------------------------------


def ancestor_at(tree: MarkedTree, x: int, m: int, slot: int = None):
    """Generation-m ancestor of x, or the slot's virtual leaf when |x| < m."""
    gx = int(tree.gen[x])
    if m > gx:
        if slot is None:
            raise QueryError(f"vertex {x} has no generation-{m} ancestor and no slot given")
        return VirtualLeaf(slot)
    cur = x
    for _ in range(gx - m):
        cur = tree.parent[cur]
    return int(cur)


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


# ---------------------------------------------------------------------------
# potential sums
# ---------------------------------------------------------------------------


def additive_martingale(tree: MarkedTree, n: int) -> float:
    """W_n = sum over generation n of exp(-V)."""
    ids = tree.generation_ids(n)
    return float(tree.exp_neg_v[ids].sum())


def _logsumexp(a: np.ndarray) -> float:
    m = a.max()
    return float(m + math.log(np.exp(a - m).sum()))


def conductance_H(tree: MarkedTree, x: int) -> float:
    """H_x = sum over root..x of exp(V(w) - V(x)); always >= 1."""
    chain = tree.ancestor_chain(x)
    return math.exp(_logsumexp(tree.V[chain] - tree.V[x]))


def partial_H(tree: MarkedTree, u: int, x: int) -> float:
    """Path sum over u..x of exp(V(w) - V(x)) for an ancestor u of x."""
    if not is_ancestor(tree, u, x):
        raise AncestryError(f"{u} is not an ancestor-or-equal of {x}")
    chain = tree.ancestor_chain(x)
    seg = chain[int(tree.gen[u]) :]
    return math.exp(_logsumexp(tree.V[seg] - tree.V[x]))


def conductance_levels(V, parent) -> list:
    """H per level of a tree or forest in the level layout of :class:`Forest`
    (``parent[0]`` is not read): 1 at the roots, and H_x = 1 + exp(V(parent)
    - V(x)) H_parent below, which equals :func:`conductance_H` up to rounding.
    """
    H = [np.ones(len(V[0]))]
    for g in range(1, len(V)):
        p = parent[g]
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
    import itertools

    if k < 2:
        raise ValueError("k must be >= 2")
    verts = [int(v) for v in vertices]
    gens = {v: int(tree.gen[v]) for v in verts}
    same_gen = len({gens[v] for v in verts}) <= 1
    if same_gen:
        yield from itertools.permutations(verts, k)
        return
    for combo in itertools.combinations(verts, k):
        ok = True
        for u, v in itertools.combinations(combo, 2):
            a, b = (u, v) if gens[u] <= gens[v] else (v, u)
            if is_ancestor(tree, a, b):
                ok = False
                break
        if ok:
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
