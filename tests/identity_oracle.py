"""Exact per-tree identities and the hitting-probability cross check.

The identities sum per tuple through
:func:`gwrange.rangestats.reference_tuple_sum` and hold bitwise on every
tree (ACC-12); the cross check compares the closed-form hitting
probability with the sparse-solve oracle on one tree (ACC-01).
"""

import itertools

from gwrange.genealogy import (
    coalescent_times,
    enumerate_increasing_collections,
    first_full_split,
    genealogy_indicator,
    make_F_ell_s,
)
from gwrange.quenched import hit_before_return, hit_before_return_oracle
from gwrange.rangestats import reference_tuple_sum
from gwrange.tree import save_snapshot


def cross_check(tree, z, x, tol=1e-9, dump_path=None) -> float:
    """|closed form - oracle|, dumping the tree when the gap exceeds tol."""
    a = hit_before_return(tree, z, x)
    b = hit_before_return_oracle(tree, z, x)
    gap = abs(a - b)
    if gap > tol and dump_path is not None:
        save_snapshot(tree, dump_path)
    return gap


def signature_sum_identity(tree, k: int, level: int) -> dict:
    """Per-tree partition of unity of the signature indicators.

    Every admissible tuple at one generation carries exactly one signature
    with times up to that generation, so summing the constrained weighted
    tuple sums over all signatures reproduces the unconstrained sum. Both
    sides are exact sums of the same multiset of terms, making the
    comparison bitwise.
    """
    colls = {
        d: list(enumerate_increasing_collections(k, length=d)) for d in range(1, k)
    }
    ids = tree.generation_ids(level)
    weights = [tree.exp_neg_v[ids]] * k
    seen = set()

    def hits(tree, tup):
        out = 0
        for d, cs in colls.items():
            for times in itertools.combinations(range(1, level + 1), d):
                out += sum(genealogy_indicator(tree, tup, times, coll) for coll in cs)
        seen.add(out)
        return out

    lhs, _ = reference_tuple_sum(tree, ids, k, hits, weights)
    rhs, _ = reference_tuple_sum(tree, ids, k, None, weights)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "bitwise": lhs == rhs,
        "unique_signature_per_tuple": seen <= {1},
    }


def split_bound_sum_identity(tree, k: int, level: int, bound: int) -> dict:
    """Per-tree normalization of the fixed-split-time family.

    Summing the time-resolved signature families over all admissible split
    counts and time vectors below the bound reproduces the indicator of a
    full split by the bound, tuple by tuple.
    """
    fams = []
    for ell in range(1, k):
        for times in itertools.combinations(range(1, bound + 1), ell):
            fams.append(make_F_ell_s(ell, times, k))
    ids = tree.generation_ids(level)
    weights = [tree.exp_neg_v[ids]] * k
    mismatches = []

    def indicator(tree, tup):
        return 1.0 if first_full_split(tree, tup) <= bound else 0.0

    def family_sum(tree, tup):
        # each family's per-tuple value, read off the tuple's signature once
        sig = coalescent_times(tree, tup)
        val = sum(f.by_signature(sig.times, sig.collection) for f in fams)
        if val != indicator(tree, tup):
            mismatches.append(tup)
        return val

    lhs, _ = reference_tuple_sum(tree, ids, k, family_sum, weights)
    rhs, _ = reference_tuple_sum(tree, ids, k, indicator, weights)
    return {"lhs": lhs, "rhs": rhs, "bitwise": lhs == rhs, "pointwise": not mismatches}
