"""Per-tuple excursion classes: the oracle of
:func:`gwrange.rangestats.excursion_class_masses`, which computes the pair
masses from counts, and the classifier for k >= 3.

It looks at one tuple at a time, so summing it over a band enumerates
every band tuple; it serves only as a test oracle on small bands.
"""

from gwrange.rangestats import CLASS_DISTINCT, CLASS_MIXED, CLASS_SAME_SINGLE

CLASS_UNVISITED = "not-all-visited"


def classify_tuple_excursions(trace, xs) -> str:
    """Excursion class of a tuple: ``distinct`` when the slots admit
    pairwise different visiting excursions, ``same-single`` when all slots
    were visited only in one common excursion, ``mixed`` otherwise.

    Vertices visited in several excursions are handled through their full
    entry-excursion sets. A tuple with a slot the trace never entered is
    ``not-all-visited``.
    """
    sets = []
    for x in xs:
        if not trace.was_visited(x):
            return CLASS_UNVISITED
        i = trace.index_of(x)
        entries = trace.entry_excursions[i]
        entries = entries[entries <= trace.s]
        if len(entries) == 0:
            return CLASS_UNVISITED
        sets.append(entries)
    if all(len(e) == 1 for e in sets):
        firsts = [int(e[0]) for e in sets]
        if len(set(firsts)) == len(firsts):
            return CLASS_DISTINCT
        if len(set(firsts)) == 1:
            return CLASS_SAME_SINGLE
        return CLASS_MIXED
    # precedence: a tuple admitting pairwise distinct excursions is
    # "distinct" even when it also shares one, so the three classes
    # partition the visited tuples
    if _has_distinct_assignment(sets):
        return CLASS_DISTINCT
    common = set(int(v) for v in sets[0])
    for e in sets[1:]:
        common &= set(int(v) for v in e)
    if common:
        return CLASS_SAME_SINGLE
    return CLASS_MIXED


def _has_distinct_assignment(sets) -> bool:
    """Bipartite matching slots -> excursions, brute force for small k."""
    k = len(sets)
    order = sorted(range(k), key=lambda i: len(sets[i]))
    used = set()

    def rec(pos):
        if pos == k:
            return True
        for j in sets[order[pos]]:
            j = int(j)
            if j not in used:
                used.add(j)
                if rec(pos + 1):
                    return True
                used.discard(j)
        return False

    return rec(0)
