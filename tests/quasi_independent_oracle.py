"""Per-tuple sum of the quasi-independent range, the simulated side of the
exact quenched identity of :func:`gwrange.quenched_mean_quasi_independent`.

It enumerates every admissible band tuple (O(n^k)), so it serves only as a
test oracle on small bands.
"""

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
