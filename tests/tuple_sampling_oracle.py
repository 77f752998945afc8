"""Uniform band tuples drawn one attempt at a time: the oracle of
:func:`gwrange.rangestats.sample_uniform_tuples`, which tests whole
batches of candidates by lookups in the band's ancestor table.

Each attempt draws k distinct band rows and tests the candidate by parent
climbs (:func:`gwrange.tree.ancestral_pair`); the exact emptiness check
runs once, after a hundredth of the attempt budget.
"""

from gwrange import rangestats
from gwrange.errors import EmptySupportError
from gwrange.tree import ancestral_pair


def sample_uniform_tuple_by_climbs(slice_, k, rng):
    """One uniform admissible ordered k-tuple of the band, as vertex ids."""
    ids = slice_.ids
    n = len(ids)
    if n < k:
        raise EmptySupportError(f"band holds {n} < k = {k} vertices")
    tree = slice_.tree
    attempts = rangestats.SAMPLE_MAX_ATTEMPTS
    check_at = attempts // 100
    for attempt in range(attempts):
        if attempt == check_at and rangestats.tuple_sum(tree, ids, k) == 0:
            raise EmptySupportError("admissible tuple set is empty")
        pick = rng.choice(n, size=k, replace=False)
        tup = tuple(int(ids[i]) for i in pick)
        if ancestral_pair(tree, tup) is None:
            return tup
    raise EmptySupportError(f"rejection failed after {attempts} attempts on nonempty support")
