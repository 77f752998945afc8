"""Exact quenched analytics: hitting probabilities and mean range formulas.

The closed forms here are rational expressions in exp(V) along ancestral
lines; they are evaluated in log-sum-exp form since potentials grow
linearly in the generation. An independent oracle solves the same hitting
problem as a harmonic function on the full truncated tree, by Gaussian
elimination from the leaves up (on a tree it has no fill-in), and is used
to cross-check the closed form. Everything here is a pure function of an
immutable tree.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .environment import EnvironmentLaw, _mean_se, _tilted_perpetuity
from .errors import AncestryError
from .genealogy import Constraint, constant_one
from .rangestats import _check_constraint, forest_tuple_sum
from .tree import (
    MarkedTree,
    _logsumexp,
    conductance_levels,
    is_ancestor,
    sample_forest,
)

__all__ = [
    "hit_before_return",
    "hit_before_return_oracle",
    "quenched_mean_quasi_independent",
    "phi",
]

# Largest depth p - warmup that phi's "auto" mode sums on trees.
PHI_TREE_DEPTH = 14


def hit_before_return(tree: MarkedTree, z: int, x: int) -> float:
    """Probability, from z on the ancestral line of x, of hitting x before
    the walk's first return to the reflecting vertex.

    z may be the root (the walk's start one step after reflection); z = x
    gives 1. Exact ratio of exponential path sums.
    """
    if not is_ancestor(tree, z, x):
        raise AncestryError(f"{z} is not on the ancestral line of {x}")
    log_den = _logsumexp(tree.V[tree.ancestor_chain(x)])
    log_num = _logsumexp(tree.V[tree.ancestor_chain(z)])
    return math.exp(log_num - log_den)


def hit_before_return_oracle(tree: MarkedTree, z: int, x: int) -> float:
    """Same probability via the harmonic system h = P h, h(x)=1, h(reflector)=0.

    The system runs over every materialized vertex, with conductance
    w_v = exp(-V(v)) on the edge from v to its parent. On a tree it is
    solved exactly by Gaussian elimination from the leaves up, with no
    fill-in: generation by generation from the deepest, each vertex gets
    h(v) = a_v h(parent v) + b_v, where a_v = w_v / D_v and
    b_v = sum_c w_c b_c / D_v over its children c, with
    D_v = w_v + sum_c w_c (1 - a_c). D_v and 1 - a_v = (D_v - w_v) / D_v
    are sums of nonnegative terms, so nothing cancels. At x the boundary
    condition gives a = 0 and b = 1. At the truncation frontier the
    unmaterialized children contribute a self-loop (the walk returns from
    below with probability one without hitting x, which lies in the
    materialized part); it cancels from the vertex's row, leaving
    h(v) = h(parent v), the a = 1, b = 0 of a vertex with no children.
    The reflector has h = 0, so h(z) is read by descending the ancestor
    chain of z from the root.
    """
    tree.require_complete()
    if not is_ancestor(tree, z, x):
        raise AncestryError(f"{z} is not on the ancestral line of {x}")
    chain = tree.ancestor_chain(z)
    off = np.append(tree.gen_offsets, tree.size)  # the frontier's children: none
    a = np.empty(len(chain))
    b = np.empty(len(chain))
    # per child c of the generation being eliminated: w_c (1 - a_c) and w_c b_c
    child_rest = child_b = np.zeros(0)
    for g in range(tree.depth, -1, -1):
        lo, hi = int(off[g]), int(off[g + 1])
        par = tree.parent[hi : off[g + 2]] - lo
        rest = np.bincount(par, weights=child_rest, minlength=hi - lo)  # D_v - w_v
        w = np.exp(-tree.V[lo:hi])
        d = w + rest
        a_g = w / d
        b_g = np.bincount(par, weights=child_b, minlength=hi - lo) / d
        rest = rest / d  # 1 - a_v
        if lo <= x < hi:
            a_g[x - lo], b_g[x - lo], rest[x - lo] = 0.0, 1.0, 1.0
        if g < len(chain):
            a[g], b[g] = a_g[chain[g] - lo], b_g[chain[g] - lo]
        child_rest, child_b = w * rest, w * b_g
    h = 0.0
    for g in range(len(chain)):
        h = float(a[g] * h + b[g])
    return h


def quenched_mean_quasi_independent(
    tree: MarkedTree,
    lower: int,
    upper: int,
    s: int,
    k: int,
    f=None,
    warmup: int = None,
) -> float:
    """Exact quenched mean of the distinct-excursion range sum.

    Equals s(s-1)...(s-k+1) times the band sum of f(x) * prod over slots of
    exp(-V)/H, restricted to tuples whose full split generation is at most
    ``warmup``. f defaults to 1; it must be hereditary for the asymptotics
    to apply but the identity itself is exact for any f. ``f`` is None or
    a :class:`gwrange.genealogy.Constraint`, summed as in
    :func:`gwrange.rangestats.tuple_sum` on the ancestor forest of the band
    generations (:meth:`gwrange.tree.MarkedTree.levels`). A partial tree
    raises QueryError.
    """
    _check_constraint(f)
    if k < 2:
        raise ValueError("k must be >= 2")
    top = min(upper, tree.depth)
    if s < k or lower > top:
        return 0.0
    forest = tree.levels(top, lower)
    H = conductance_levels(forest)
    weight = [0] * lower + [np.exp(-forest.V[g]) / H[g] for g in range(lower, top + 1)]
    if warmup is not None:
        f = _within_warmup(f, warmup)
    return math.perm(s, k) * forest_tuple_sum(forest, [weight] * k, k, f)


def _warmup_value(value, warmup, times, coll):
    return value(times, coll) if times[-1] <= warmup else 0.0


def _within_warmup(f, warmup: int) -> Constraint:
    """f restricted to tuples fully split by ``warmup``."""
    base = constant_one() if f is None else f
    return Constraint(base.name, partial(_warmup_value, base.by_signature, warmup), warmup)


def phi(
    law: EnvironmentLaw,
    p: int,
    warmup: int,
    r: float,
    replicas: int = 20_000,
    rng: np.random.Generator = None,
    mode: str = "auto",
):
    """Mean of exp(-V(x)) / ((r-1) exp(-V(x)) + H_x) over generation p - warmup.

    Returns (estimate, standard error). ``mode="tree"`` averages the sum
    over ``replicas`` independent trees of one :func:`sample_forest` draw,
    not conditioned on survival (a tree that dies out adds 0), with H from
    the level recursion; it is exact to the definition but only feasible
    for small depth. ``mode="tilted"`` transports the sum to the tilted
    one-dimensional walk (an exact identity), which scales to any depth:
    the value of a path is 1/Q_d for the perpetuity Q_0 = r, Q_j = 1 +
    e^{-xi_j} Q_{j-1} over its steps, that is (r-1) e^{-S_d} + sum_{j<=d}
    e^{S_j - S_d}, with no path matrix and no exponential per step. Its
    draws are those of :func:`gwrange.environment.sample_tilted_walk` on
    ``rng``, and each value agrees with the exp-cumsum form on those paths
    up to rounding. ``auto`` picks tree mode up to depth ``PHI_TREE_DEPTH``
    and tilted mode beyond. ``replicas`` must be at least 2, for the
    standard error.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    d = p - warmup
    if d < 0:
        raise ValueError("p must be >= warmup")
    if r < 1.0:
        raise ValueError("r must be >= 1")
    if replicas < 2:
        raise ValueError("replicas must be >= 2")
    if d == 0:
        return 1.0 / ((r - 1.0) + 1.0), 0.0
    if mode == "auto":
        mode = "tree" if d <= PHI_TREE_DEPTH else "tilted"
    if mode == "tilted":
        return _mean_se(1.0 / _tilted_perpetuity(law, d, rng, replicas, r, backward=False))
    if mode != "tree":
        raise ValueError(f"unknown mode {mode!r}")
    vals = []
    for f in sample_forest(law, d, replicas, rng):
        e = np.exp(-f.V[-1])
        h = conductance_levels(f)[-1]
        vals.append(f.tree_sums(e / ((r - 1.0) * e + h)))
    return _mean_se(np.concatenate(vals))
