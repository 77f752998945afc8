"""Step-by-step oracle of :func:`gwrange.walk.run_excursions`.

The kernel below replays the quenched walk one step at a time: from an
interior vertex it moves to the parent or to a child with weights
exp(-V(.)); from the reflecting vertex -1 it re-enters the root; at the
truncation frontier a down move is a collapsed dive, recorded as one return
visit of two steps. It returns the same :class:`WalkTrace` as the library's
branching-process sampler, whose law it checks: the two draw different
random numbers, so they agree in law, not in bits.
"""

import numpy as np

from gwrange.tree import MarkedTree
from gwrange.walk import WalkTrace

REFLECTOR = -1


def step_excursions(tree: MarkedTree, s: int, rng: np.random.Generator) -> WalkTrace:
    """Simulate step by step until the s-th return to the reflecting vertex."""
    if s < 1:
        raise ValueError("s must be >= 1")
    parent = tree.parent
    V = tree.V
    first_child = tree.first_child
    n_children = tree.n_children
    frontier_gen = tree.depth
    gen = tree.gen
    halo = tree.halo_weight
    frontier_base = int(tree.gen_offsets[frontier_gen])

    # per-vertex record: [local, edge, exc_count, first_exc, last_entry_exc]
    records: dict = {}
    entry_lists: dict = {}
    # exp(-V) of the vertices met so far, computed one child block at a time
    # when the walk first stands on the parent (a vertex below the root is
    # always entered from its parent first)
    weight = {0: float(np.exp(-V[0]))}
    kid_weights: dict = {}
    rand = rng.random

    steps = 0
    dives = 0
    exc = 0
    return_steps = [0]
    u = REFLECTOR
    while True:
        if u == REFLECTOR:
            exc += 1
            v = 0
            from_parent = True
        else:
            w_up = weight[u]
            if gen[u] == frontier_gen:
                w_down = 0.0 if halo is None else halo[u - frontier_base]
                if rand() * (w_up + w_down) < w_up:
                    v = int(parent[u])
                    from_parent = False
                else:
                    # collapsed sub-excursion: return visit to u, two steps
                    steps += 2
                    dives += 1
                    records[u][0] += 1
                    continue
            else:
                fc = int(first_child[u])
                kids = kid_weights.get(u)
                if kids is None:
                    kids = np.exp(np.negative(V[fc : fc + n_children[u]])).tolist()
                    kid_weights[u] = kids
                    weight.update(zip(range(fc, fc + len(kids)), kids))
                total = w_up
                for w in kids:
                    total += w
                r = rand() * total
                if r < w_up:
                    v = int(parent[u])
                    from_parent = False
                else:
                    r -= w_up
                    v = fc + len(kids) - 1
                    acc = 0.0
                    for j, w in enumerate(kids):
                        acc += w
                        if r < acc:
                            v = fc + j
                            break
                    from_parent = True
        steps += 1
        if v == REFLECTOR:
            return_steps.append(steps)
            if exc == s:
                break
            u = v
        else:
            rec = records.get(v)
            if rec is None:
                rec = [0, 0, 0, exc, 0]
                records[v] = rec
                entry_lists[v] = []
            rec[0] += 1
            if from_parent:
                rec[1] += 1
                if rec[4] != exc:
                    rec[2] += 1
                    rec[4] = exc
                    entry_lists[v].append(exc)
            u = v
    ids = np.array(sorted(records), dtype=np.int64)
    table = np.array([records[int(v)] for v in ids], dtype=np.int64).reshape(len(ids), 5)
    return WalkTrace(
        s=int(s),
        steps=int(steps),
        dives=int(dives),
        return_steps=np.array(return_steps, dtype=np.int64),
        ids=ids,
        gens=tree.gen[ids].astype(np.int64),
        local_time=table[:, 0],
        edge_local_time=table[:, 1],
        excursion_count=table[:, 2],
        first_excursion=table[:, 3],
        entry_excursions=[np.array(entry_lists[int(v)], dtype=np.int64) for v in ids],
        root_local_time=int(s),
    )


def excursion_stats(trace: WalkTrace, u: int):
    """(number of visiting excursions, single-excursion flag, first excursion index)."""
    i = trace.index_of(u)
    count = int(trace.excursion_count[i])
    return count, count == 1, int(trace.first_excursion[i])
