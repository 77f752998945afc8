"""Per-tuple sums of the quasi-independent range: over all distinct
excursion k-tuples, the simulated side of the exact quenched identity of
:func:`gwrange.quenched_mean_quasi_independent`, and for one fixed
excursion per slot.

They enumerate every admissible band tuple (O(n^k)), so they serve only as
test oracles on small bands.
"""

from gwrange.errors import TupleError
from gwrange.genealogy import first_full_split
from gwrange.rangestats import reference_tuple_sum


def sum_quasi_independent(slice_, k: int, g=None, warmup: int = None) -> float:
    """Sum of the quasi-independent range over all distinct excursion
    k-tuples, computed per tuple through the count of injective
    excursion assignments (a small permanent)."""
    trace = slice_.trace
    sets = {
        int(v): [int(e) for e in trace.entry_excursions[row]]
        for row, v in zip(slice_.rows, slice_.ids)
    }

    def f(tree, xs):
        if warmup is not None and first_full_split(tree, xs) > warmup:
            return 0.0
        val = 1.0 if g is None else float(g(tree, xs))
        return val * _injective_assignments([sets[x] for x in xs]) if val else 0.0

    return reference_tuple_sum(slice_.tree, slice_.ids, k, f)[0]


def _injective_assignments(sets) -> int:
    """Number of ways to pick pairwise distinct representatives."""
    count = 0

    def rec(pos, used):
        nonlocal count
        if pos == len(sets):
            count += 1
            return
        for j in sets[pos]:
            if j not in used:
                rec(pos + 1, used | {j})

    rec(0, frozenset())
    return count


def quasi_independent_range(slice_, jvec, g=None) -> float:
    """Band tuple sum with slot i required to receive an entry in excursion j_i.

    The excursion indices must be pairwise distinct and within the trace.
    """
    jvec = tuple(int(j) for j in jvec)
    k = len(jvec)
    if len(set(jvec)) != k:
        raise TupleError("excursion indices must be pairwise distinct")
    if any(j < 1 or j > slice_.trace.s for j in jvec):
        raise TupleError("excursion index outside 1..s")
    trace, tree = slice_.trace, slice_.tree
    per_slot = []
    for j in jvec:
        hits = {
            int(v)
            for row, v in zip(slice_.rows, slice_.ids)
            if j in trace.entry_excursions[row]
        }
        if not hits:
            return 0.0
        per_slot.append(hits)
    pool = set().union(*per_slot)

    def f(tree, xs):
        if not all(x in hits for x, hits in zip(xs, per_slot)):
            return 0.0
        return 1.0 if g is None else g(tree, xs)

    ids = [int(v) for v in slice_.ids if int(v) in pool]
    return reference_tuple_sum(tree, ids, k, f)[0]
