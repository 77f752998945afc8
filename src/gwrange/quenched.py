"""Exact quenched analytics: hitting probabilities and mean range formulas.

The closed forms here are rational expressions in exp(V) along ancestral
lines; they are evaluated in log-sum-exp form since potentials grow
linearly in the generation. An independent linear-system oracle solves the
same hitting problem as a harmonic function on the full truncated tree and
is used to cross-check the closed form. Everything here is a pure
function of an immutable tree.
"""

from __future__ import annotations

import math

import numpy as np

from .environment import EnvironmentLaw, tilted_path_values
from .errors import AncestryError, SolverError
from .genealogy import Constraint, constant_one, first_full_split
from .rangestats import tuple_sum
from .tree import (
    MarkedTree,
    _logsumexp,
    conductance_levels,
    is_ancestor,
    sample_forest,
    save_snapshot,
)

__all__ = [
    "hit_before_return",
    "hit_before_return_oracle",
    "quenched_mean_quasi_independent",
    "phi",
]


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


def hit_before_return_oracle(
    tree: MarkedTree,
    z: int,
    x: int,
    dense_limit: int = 2000,
    tol: float = 1e-12,
    max_iter: int = 200_000,
) -> float:
    """Same probability via the harmonic system h = P h, h(x)=1, h(reflector)=0.

    The system runs over every materialized vertex; at the truncation
    frontier the unmaterialized children contribute a self-loop (the walk
    returns from below with probability one without hitting x, which lies
    in the materialized part). Dense solve below ``dense_limit`` states,
    damped fixed-point iteration above.
    """
    if not is_ancestor(tree, z, x):
        raise AncestryError(f"{z} is not on the ancestral line of {x}")
    n = tree.size
    # transition rows: for node u, weights to parent and children
    up_w = tree.exp_neg_v.copy()
    if n <= dense_limit:
        A = np.zeros((n, n))
        b = np.zeros(n)
        for u in range(n):
            if u == x:
                A[u, u] = 1.0
                b[u] = 1.0
                continue
            kids = tree.children(u)
            w = np.concatenate(([up_w[u]], tree.exp_neg_v[kids]))
            if tree.is_frontier(u):
                down = tree.frontier_down_weight(u)
                total = up_w[u] + down
                A[u, u] = 1.0 - down / total  # self-loop: sub-excursion returns
                p = tree.parent[u]
                if p >= 0:
                    A[u, p] -= up_w[u] / total
                # parent = reflector contributes h=0
                continue
            total = w.sum()
            A[u, u] = 1.0
            p = tree.parent[u]
            if p >= 0:
                A[u, p] -= up_w[u] / total
            for j, c in enumerate(kids):
                A[u, c] -= tree.exp_neg_v[c] / total
        from scipy.linalg import solve

        h = solve(A, b)
        return float(h[z])
    # damped Jacobi sweep
    h = np.zeros(n)
    h[x] = 1.0
    damp = 0.5
    for it in range(max_iter):
        new = np.zeros(n)
        for u in range(n):
            if u == x:
                new[u] = 1.0
                continue
            kids = tree.children(u)
            if tree.is_frontier(u):
                down = tree.frontier_down_weight(u)
                total = up_w[u] + down
                val = down / total * h[u]
                p = tree.parent[u]
                if p >= 0:
                    val += up_w[u] / total * h[p]
                new[u] = val
                continue
            total = up_w[u] + tree.exp_neg_v[kids].sum()
            val = 0.0
            p = tree.parent[u]
            if p >= 0:
                val += up_w[u] / total * h[p]
            for c in kids:
                val += tree.exp_neg_v[c] / total * h[c]
            new[u] = val
        delta = float(np.abs(new - h).max())
        h = (1 - damp) * h + damp * new
        if delta < tol:
            return float(h[z])
    raise SolverError("harmonic iteration did not converge", residual=delta)


def cross_check(tree, z, x, tol=1e-9, dump_path=None) -> float:
    """|closed form - oracle|, dumping the tree when the gap exceeds tol."""
    a = hit_before_return(tree, z, x)
    b = hit_before_return_oracle(tree, z, x)
    gap = abs(a - b)
    if gap > tol and dump_path is not None:
        save_snapshot(tree, dump_path)
    return gap


def quenched_mean_quasi_independent(
    tree: MarkedTree,
    lower: int,
    upper: int,
    s: int,
    k: int,
    f=None,
    warmup: int = None,
    tuple_cap: int = 5_000_000,
) -> float:
    """Exact quenched mean of the distinct-excursion range sum.

    Equals s(s-1)...(s-k+1) times the band sum of f(x) * prod over slots of
    exp(-V)/H, restricted to tuples whose full split generation is at most
    ``warmup``. f defaults to 1; it must be hereditary for the asymptotics
    to apply but the identity itself is exact for any f. ``f`` is summed
    as in :func:`gwrange.rangestats.tuple_sum`.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if s < k:
        return 0.0
    top = min(upper, tree.depth)
    band = np.arange(tree.gen_offsets[min(lower, top + 1)], tree.gen_offsets[top + 1])
    H = np.concatenate(conductance_levels(*tree.levels(top)))
    weight = tree.exp_neg_v[band] / H[band]
    if warmup is not None:
        f = _within_warmup(f, warmup)
    return math.perm(s, k) * tuple_sum(tree, band, k, f, [weight] * k, tuple_cap)


def _within_warmup(f, warmup: int) -> Constraint:
    """f restricted to tuples fully split by ``warmup``, keeping f's
    signature form when it has one."""
    base = constant_one() if f is None else f
    value = getattr(base, "by_signature", None)
    return Constraint(
        name=getattr(base, "name", "custom"),
        fn=lambda tree, xs: base(tree, xs) if first_full_split(tree, xs) <= warmup else 0.0,
        heredity_generation=warmup,
        by_signature=value and (lambda t, coll: value(t, coll) if t[-1] <= warmup else 0.0),
    )


def phi(
    law: EnvironmentLaw,
    p: int,
    warmup: int,
    r: float,
    replicas: int = 20_000,
    rng: np.random.Generator = None,
    mode: str = "auto",
    depth_cap: int = 14,
):
    """Mean of exp(-V(x)) / ((r-1) exp(-V(x)) + H_x) over generation p - warmup.

    Returns (estimate, standard error). ``mode="tree"`` averages the sum
    over ``replicas`` independent trees of one :func:`sample_forest` draw,
    not conditioned on survival (a tree that dies out adds 0), with H from
    the level recursion; it is exact to the definition but only feasible
    for small depth. ``mode="tilted"`` transports the sum to the tilted
    one-dimensional walk (an exact identity), which scales to any depth.
    ``auto`` picks by depth.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    d = p - warmup
    if d < 0:
        raise ValueError("p must be >= warmup")
    if r < 1.0:
        raise ValueError("r must be >= 1")
    if d == 0:
        return 1.0 / ((r - 1.0) + 1.0), 0.0
    if mode == "auto":
        mode = "tree" if d <= depth_cap else "tilted"
    if mode == "tilted":
        def value(paths):
            end = paths[:, -1]
            h = np.exp(paths - end[:, None]).sum(axis=1)
            return 1.0 / ((r - 1.0) * np.exp(-end) + h)

        vals = tilted_path_values(law, d, rng, replicas, value)
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(replicas))
    if mode != "tree":
        raise ValueError(f"unknown mode {mode!r}")
    vals = []
    for f in sample_forest(law, d, replicas, rng):
        e = np.exp(-f.V[-1])
        h = conductance_levels(f.V, f.parent)[-1]
        vals.append(f.tree_sums(e / ((r - 1.0) * e + h)))
    vals = np.concatenate(vals)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(replicas))
