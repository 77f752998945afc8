"""Scalar conductances along one ancestral line, in log-sum-exp form.

The library computes conductances level by level
(:func:`gwrange.tree.conductance_levels`); these per-vertex path sums are
the definitions it is checked against.
"""

import math

from gwrange.errors import AncestryError
from gwrange.tree import _logsumexp, is_ancestor


def conductance_H(tree, x: int) -> float:
    """H_x = sum over root..x of exp(V(w) - V(x)); always >= 1."""
    chain = tree.ancestor_chain(x)
    return math.exp(_logsumexp(tree.V[chain] - tree.V[x]))


def partial_H(tree, u: int, x: int) -> float:
    """Path sum over u..x of exp(V(w) - V(x)) for an ancestor u of x."""
    if not is_ancestor(tree, u, x):
        raise AncestryError(f"{u} is not an ancestor-or-equal of {x}")
    chain = tree.ancestor_chain(x)
    seg = chain[int(tree.gen[u]) :]
    return math.exp(_logsumexp(tree.V[seg] - tree.V[x]))
