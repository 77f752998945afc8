"""Generalized range statistics over k-tuples of visited vertices.

The central object is the constrained tuple count over a generation band
of the visited set: the sum of a tuple functional over all ordered
k-tuples of distinct, pairwise non-ancestral vertices. Such a sum splits
over the tuples' genealogical signatures; :func:`signature_sum` computes
one signature's share by group sums on the induced ancestor forest, with
a Moebius sum over ordered distinct children at each split (Rota 1964),
without visiting tuples. Tuples are further classified by how their
vertices distribute over excursions (all distinct excursions, all in one
shared excursion, or mixed).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CombinatorialCapError, EmptySupportError
from .tree import Forest, MarkedTree, enumerate_delta_k
from .walk import RangeSlice
from .genealogy import (
    Constraint,
    GenealogySignature,
    enumerate_increasing_collections,
    enumerate_partitions,
)

__all__ = [
    "RangeStat",
    "signature_sum",
    "vertex_forest",
    "reference_tuple_sum",
    "tuple_sum",
    "forest_tuple_sum",
    "general_range",
    "excursion_class_masses",
    "weighted_range_A_l",
    "sample_uniform_tuple",
    "sample_uniform_tuples",
    "band_mrca_generations",
    "delta_k_count",
]

DEFAULT_TUPLE_CAP = 5_000_000
SAMPLE_MAX_ATTEMPTS = 100_000  # rejection draws before giving up

CLASS_DISTINCT = "distinct"
CLASS_SAME_SINGLE = "same-single"
CLASS_MIXED = "mixed"


@dataclass(frozen=True)
class RangeStat:
    """A constrained band tuple count with its normalization."""

    value: float
    tuple_count: int
    normalization: float
    constraint: str
    k: int


@functools.lru_cache(maxsize=8)
def _mobius_terms(r: int) -> tuple:
    """(coefficient, groups) of the Moebius sum over ordered distinct r-tuples:
    sum over set partitions of prod over blocks of (-1)^(|B|-1) (|B|-1)!."""
    return tuple(
        (math.prod((-1) ** (len(b) - 1) * math.factorial(len(b) - 1) for b in part.blocks),
         tuple(tuple(i - 1 for i in b) for b in part.blocks))
        for part in enumerate_partitions(range(1, r + 1))
    )


def _split_plan(coll, block=None, j=0):
    """Slot number of a singleton block, else (step at which the block
    splits, plans of its sub-blocks there)."""
    block = coll.levels[0].blocks[0] if block is None else block
    if len(block) == 1:
        return block[0]
    p = j + 1
    while block in coll.levels[p].blocks:
        p += 1
    parts = [c for c in coll.levels[p].blocks if set(c) <= set(block)]
    return p, tuple(_split_plan(coll, c, p) for c in parts)


def _plan_sum(forest, plan, times, anchor, sub):
    """Per generation-``anchor`` label: the weighted sum over placements of
    the plan's slots below it with the plan's splits at ``times``."""
    if isinstance(plan, int):
        return sub[plan - 1][anchor]
    p, parts = plan
    t = times[p - 1]
    if t >= len(forest.V):
        return np.zeros(len(forest.V[anchor]))
    kids = [_plan_sum(forest, c, times, t, sub) for c in parts]
    up, n = forest.parent[t], len(forest.V[t - 1])
    # sum over ordered distinct children c_1..c_r of prod kids[i][c_i]
    sums = {}
    total = 0.0
    for coef, groups in _mobius_terms(len(kids)):
        term = coef
        for grp in groups:
            if grp not in sums:
                prod = kids[grp[0]]
                for i in grp[1:]:
                    prod = prod * kids[i]
                sums[grp] = np.bincount(up, weights=prod, minlength=n)
            term = term * sums[grp]
        total = total + term
    return forest.roll_up(total, t - 1, anchor)


def _slot_sums(forest, k, weights):
    """Per slot, the subtree sums of its per-level weights."""
    if len(weights) != k:
        raise ValueError("need one weight array per slot")
    return [forest.subtree_sums(w) for w in weights]


def signature_sum(forest: Forest, times, coll, weights) -> np.ndarray:
    """Per-root sum of prod_i weights[i](x_i) over the ordered k-tuples of
    distinct, pairwise non-ancestral forest vertices with signature
    (times, coll).

    ``weights[i]`` holds slot i's weights level by level (``weights[i][g]``
    aligned with ``forest.V[g]``, or 0 on a level without weight); tuples
    with a zero-weight slot add nothing. Integer weights give exact counts
    below 2^53.
    """
    times = GenealogySignature(tuple(int(t) for t in times), coll).times
    sub = _slot_sums(forest, coll.k, weights)
    return _plan_sum(forest, _split_plan(coll), times, 0, sub)


def vertex_forest(tree: MarkedTree, ids, weights):
    """The ancestor forest of vertices ``ids``
    (:meth:`MarkedTree.ancestor_forest`), and each weight array aligned with
    ``ids`` laid out on its levels: 0 at the ancestors outside ``ids``."""
    forest, labels = tree.ancestor_forest(ids)
    # tree ids run in generation order, so the levels concatenate sorted
    ends = np.cumsum([len(lab) for lab in labels])
    at = np.searchsorted(np.concatenate(labels), ids)
    return forest, [np.split(np.bincount(at, weights=w, minlength=ends[-1]), ends[:-1])
                    for w in weights]


def _check_constraint(f) -> None:
    """Refuse an ``f`` that is neither None nor a :class:`Constraint`."""
    if f is not None and not isinstance(f, Constraint):
        raise TypeError(f"f must be None or a Constraint, not {type(f).__name__}; "
                        "sum other callables tuple by tuple with reference_tuple_sum")


def _check_tuple_cap(n: int, k: int) -> None:
    """Refuse more than ``DEFAULT_TUPLE_CAP`` ordered k-tuples of n vertices."""
    if math.perm(n, k) > DEFAULT_TUPLE_CAP:
        raise CombinatorialCapError(
            f"{math.perm(n, k):.3g} ordered tuples exceed cap {DEFAULT_TUPLE_CAP}"
        )


def reference_tuple_sum(tree: MarkedTree, ids, k: int, f=None, weights=None):
    """Per-tuple reference: (sum, count) over the admissible ordered
    k-tuples xs of ``ids`` of f(tree, xs) * prod_i w_i(xs[i]), streamed in
    the fixed order of :func:`enumerate_delta_k` and summed exactly
    (``math.fsum``), so the sum depends only on the multiset of terms.
    ``weights`` holds one array per slot aligned with ``ids`` (default all
    ones). Refuses beyond ``DEFAULT_TUPLE_CAP`` tuples, before enumerating any.
    """
    _check_tuple_cap(len(ids), k)
    ids = [int(v) for v in ids]
    if weights is not None:
        weights = [dict(zip(ids, w.tolist())) for w in weights]
    count = 0

    def terms():
        nonlocal count
        for tup in enumerate_delta_k(tree, ids, k):
            count += 1
            val = 1.0 if f is None else float(f(tree, tup))
            if val == 0.0:
                continue
            if weights is not None:
                for w, x in zip(weights, tup):
                    val *= w[x]
            yield val

    total = math.fsum(terms())  # exhausts the stream before count is read
    return total, count


def tuple_sum(tree: MarkedTree, ids, k: int, f=None, weights=None) -> float:
    """Sum over the admissible ordered k-tuples xs of ``ids`` of
    f(tree, xs) * prod_i w_i(xs[i]), weights aligned with ``ids``.

    ``f`` is None (every tuple counts one) or a :class:`Constraint`, and
    the sum runs signature by signature on the ancestor forest of ``ids``,
    with no size cap. Any other callable raises TypeError before any work:
    sum it tuple by tuple with :func:`reference_tuple_sum`, under its cap.
    """
    _check_constraint(f)
    if weights is None:
        weights = [np.ones(len(ids))] * k
    return forest_tuple_sum(*vertex_forest(tree, ids, weights), k, f)


def forest_tuple_sum(forest: Forest, weights, k: int, f=None) -> float:
    """:func:`tuple_sum` over the vertices of a one-tree forest, each slot's
    weights laid out level by level as in :func:`signature_sum`."""
    sub = _slot_sums(forest, k, weights)
    value = None if f is None else f.by_signature
    # a split at time t needs a generation-(t-1) label with two children
    split_times = [
        t for t in range(1, len(forest.V))
        if len(forest.parent[t]) and np.bincount(forest.parent[t]).max() >= 2
    ]
    total = 0.0
    for d in range(1, k):
        for coll in enumerate_increasing_collections(k, length=d):
            plan = _split_plan(coll)
            for times in itertools.combinations(split_times, d):
                v = 1.0 if value is None else value(times, coll)
                if v != 0.0:
                    total += v * float(_plan_sum(forest, plan, times, 0, sub).sum())
    return total


def delta_k_count(slice_: RangeSlice, k: int) -> int:
    """Exact number of admissible ordered k-tuples in the band."""
    return int(tuple_sum(slice_.tree, slice_.ids, k))


def general_range(slice_: RangeSlice, k: int, f=None) -> RangeStat:
    """Band tuple sum of f over admissible ordered k-tuples.

    Returns 0 when the band holds fewer than k vertices. The normalization
    is (s * width)^k with s the trace's excursion count. ``f`` is None or a
    :class:`Constraint`, summed as in :func:`tuple_sum`.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    _check_constraint(f)
    forest, weights = vertex_forest(slice_.tree, slice_.ids, [np.ones(len(slice_.ids))] * k)
    total = forest_tuple_sum(forest, weights, k, f)
    count = total if f is None else forest_tuple_sum(forest, weights, k)
    norm = float(slice_.trace.s * slice_.width) ** k
    return RangeStat(total, int(count), norm, "one" if f is None else f.name, k)


def excursion_class_masses(slice_: RangeSlice) -> dict:
    """Ordered-pair class masses over the band (k = 2), from counts.

    ``total`` is the number of admissible pairs (:func:`delta_k_count`).
    With c_e the number of single-excursion band vertices whose one
    excursion is e, and A the number of (ancestor, descendant) pairs among
    them,

        same-single = sum_e c_e (c_e - 1) - 2 A,

    because a vertex entered only in excursion e has every ancestor
    entered in e, so each such pair shares its label. ``mixed`` is empty
    for pairs: two nonempty entry sets admit distinct representatives
    unless both are the same singleton. ``distinct`` is the rest.
    """
    single = slice_.excursion_counts() == 1
    ids = slice_.ids[single]  # ascending
    _, per_label = np.unique(slice_.first_excursions()[single], return_counts=True)
    ancestral = 0
    cur = ids
    while len(cur):
        cur = slice_.tree.parent[cur]
        cur = cur[(cur >= 0) & (slice_.tree.gen[cur] >= slice_.lower)]
        pos = np.minimum(np.searchsorted(ids, cur), len(ids) - 1)
        ancestral += int(np.count_nonzero(ids[pos] == cur))
    same = int((per_label * (per_label - 1)).sum()) - 2 * ancestral
    total = delta_k_count(slice_, 2)
    return {
        CLASS_DISTINCT: total - same,
        CLASS_SAME_SINGLE: same,
        CLASS_MIXED: 0,
        "total": total,
    }


def weighted_range_A_l(
    tree: MarkedTree,
    k: int,
    level: int,
    f=None,
    beta=None,
) -> float:
    """Potential-weighted tuple sum over one generation:
    sum over ordered distinct k-tuples at ``level`` of f(x) * exp(-<beta, V(x)>).

    beta defaults to all ones. Distinct same-generation vertices are never
    ancestrally related, so admissibility is automatic. ``f`` is None or a
    :class:`Constraint`, summed as in :func:`tuple_sum` on the ancestor
    forest of the generation (:meth:`MarkedTree.levels`). A partial tree
    raises QueryError.
    """
    _check_constraint(f)
    if level > tree.depth:
        raise ValueError("level beyond the truncation depth")
    beta = (1.0,) * k if beta is None else tuple(beta)
    if len(beta) != k:
        raise ValueError("beta must have length k")
    forest = tree.levels(level, level)
    env = np.exp(-forest.V[level])
    powered = {b: env**b for b in set(beta)}
    return forest_tuple_sum(forest, [[0] * level + [powered[b]] for b in beta], k, f)


@functools.lru_cache(maxsize=8)
def _slot_pairs(k: int) -> np.ndarray:
    """Slots a < b of each pair of a k-tuple, in combinations order, as rows
    (a, b) of a read-only array."""
    pairs = np.array(list(itertools.combinations(range(k), 2)), dtype=np.intp).reshape(-1, 2).T
    pairs.flags.writeable = False
    return pairs


def sample_uniform_tuples(slice_: RangeSlice, k: int, count: int,
                          rng: np.random.Generator) -> np.ndarray:
    """``count`` independent uniform draws from the admissible ordered
    k-tuples of the band, as a (count, k) array of vertex ids.

    Exact rejection from ordered distinct-vertex draws, one draw of k
    distinct band rows without replacement per candidate: the draws, the
    tuples and the stream's final state are those of ``count`` calls of
    :func:`sample_uniform_tuple`. Candidates come in batches of at most
    the tuples still missing, so no draw is made past the last tuple's,
    and a batch is tested by lookups in the band's ancestor table
    (:attr:`RangeSlice.ancestors`): two slots are ancestrally related
    exactly when the deeper slot's ancestor at the shallower slot's
    generation is that slot. Raises when the band is too small or its
    admissible support is verified empty, after the same draws as the
    one-tuple calls.
    """
    ids, gens = slice_.ids, slice_.gens
    n = len(ids)
    if n < k:
        raise EmptySupportError(f"band holds {n} < k = {k} vertices")
    anc = slice_.ancestors
    ia, ib = _slot_pairs(k)
    out = np.empty((count, k), dtype=np.int64)
    done = 0
    # rejections of the tuple being drawn; one exact emptiness check, early
    # enough that an empty band raises fast
    attempt, check_at = 0, SAMPLE_MAX_ATTEMPTS // 100
    while done < count:
        if attempt == check_at and tuple_sum(slice_.tree, ids, k) == 0:
            raise EmptySupportError("admissible tuple set is empty")
        # no batch runs past the emptiness check or the last attempt of
        # the tuple being drawn
        size = min(count - done, (check_at if attempt < check_at else SAMPLE_MAX_ATTEMPTS)
                   - attempt)
        picks = np.empty((size, k), dtype=np.int64)
        for j in range(size):
            picks[j] = rng.choice(n, size=k, replace=False)
        # two slots are related when their rows agree at the shallower
        # slot's generation, where its row holds the slot itself
        a, b = picks[:, ia], picks[:, ib]
        at = np.minimum(gens[a], gens[b])
        hits = np.flatnonzero(~(anc[a, at] == anc[b, at]).any(axis=1))
        out[done:done + len(hits)] = picks[hits]
        done += len(hits)
        attempt = size - 1 - int(hits[-1]) if len(hits) else attempt + size
        if attempt == SAMPLE_MAX_ATTEMPTS:
            raise EmptySupportError(
                f"rejection failed after {SAMPLE_MAX_ATTEMPTS} attempts on nonempty support"
            )
    return ids[out]


def sample_uniform_tuple(slice_: RangeSlice, k: int, rng: np.random.Generator):
    """Uniform draw from the admissible ordered k-tuples of the band: the
    one-tuple case of :func:`sample_uniform_tuples`, as a tuple of ids."""
    return tuple(sample_uniform_tuples(slice_, k, 1, rng)[0].tolist())


def band_mrca_generations(slice_: RangeSlice, tuples) -> np.ndarray:
    """Pairwise most recent common ancestor generations of band tuples.

    ``tuples`` is a (count, k) array of admissible band tuples; column c of
    the result is slot pair c in :func:`itertools.combinations` order,
    read as one less than the number of generations where the two slots'
    rows of :attr:`RangeSlice.ancestors` agree.
    """
    rows = np.searchsorted(slice_.ids, tuples)
    ia, ib = _slot_pairs(rows.shape[1])
    x, y = slice_.ancestors[rows[:, ia]], slice_.ancestors[rows[:, ib]]
    return ((x == y) & (x >= 0)).sum(axis=2) - 1
