"""Exact quenched analytics: hitting probabilities and mean range formulas.

The closed forms here are rational expressions in exp(V) along ancestral
lines; they are evaluated in log-sum-exp form since potentials grow
linearly in the generation. An independent oracle solves the same hitting
problem as a harmonic function on the full truncated tree, by one sparse
direct solve, and is used to cross-check the closed form. Everything here
is a pure function of an immutable tree.
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

    The system runs over every materialized vertex; at the truncation
    frontier the unmaterialized children contribute a self-loop (the walk
    returns from below with probability one without hitting x, which lies
    in the materialized part). I - P is assembled as a sparse matrix, with
    row x replaced by the boundary condition, and solved once by a sparse
    direct solve.
    """
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import spsolve

    tree.require_complete()
    if not is_ancestor(tree, z, x):
        raise AncestryError(f"{z} is not on the ancestral line of {x}")
    n = tree.size
    w = tree.exp_neg_v
    down = np.zeros(n)
    down[tree.gen_offsets[tree.depth] : tree.gen_offsets[tree.depth + 1]] = tree.halo_weight
    kids = np.flatnonzero(tree.parent >= 0)
    par = tree.parent[kids]
    total = w + np.bincount(par, weights=w[kids], minlength=n) + down
    diag = np.arange(n)
    rows = np.concatenate((diag, kids, par))
    cols = np.concatenate((diag, par, kids))
    vals = np.concatenate((1.0 - down / total, -w[kids] / total[kids], -w[kids] / total[par]))
    keep = rows != x
    A = csc_matrix(
        (np.append(vals[keep], 1.0), (np.append(rows[keep], x), np.append(cols[keep], x))),
        shape=(n, n),
    )
    b = np.zeros(n)
    b[x] = 1.0
    return float(spsolve(A, b)[z])


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
