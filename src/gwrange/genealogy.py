"""Set-partition calculus and genealogical classification of k-tuples.

A k-tuple of pairwise non-ancestral vertices induces, at each level m, the
partition of slot indices grouping slots whose vertices share a
generation-m ancestor. As m grows the partition only refines, starting
from one block at the root and ending in singletons once every pairwise
most recent common ancestor has been passed. The generations at which the
block count strictly increases are the tuple's split times; together with
the partitions there they form its genealogical signature.

Every per-tuple question reads one table, the tuple's pairwise most
recent common ancestor generations: entry (i, j) is the generation of the
MRCA of slots i and j. Slots i and j share a generation-m ancestor exactly
when entry (i, j) >= m. A slot shallower than m has every entry below m,
so it stands alone at level m. All values here are immutable and the
functions pure.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

from .errors import SignatureError, TupleError
from .tree import MarkedTree, ancestral_pair, mrca_generation

__all__ = [
    "Partition",
    "IncreasingCollection",
    "GenealogySignature",
    "first_full_split",
    "partition_process",
    "coalescent_times",
    "signature_from_mrca",
    "upsilon_member",
    "genealogy_indicator",
    "reduce_collection",
    "enumerate_increasing_collections",
    "pairwise_split_requirements",
    "enumerate_partitions",
    "Constraint",
    "make_f_lambda",
    "make_f_m",
    "make_F_ell_s",
    "constant_one",
]

MAX_GROUND = 6  # collection enumeration is Bell-number hard beyond this


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Partition of {1..k} in canonical form: sorted blocks ordered by least element."""

    blocks: tuple

    def __post_init__(self):
        seen = set()
        for b in self.blocks:
            for i in b:
                if i in seen:
                    raise SignatureError(f"element {i} repeated across blocks")
                seen.add(i)
        ground = set(range(1, len(seen) + 1))
        if seen != ground:
            raise SignatureError(f"blocks do not partition 1..{len(seen)}")
        # the elements are 1..k, so canonical form takes one pass: tuples
        # whose elements increase strictly, each block starting above the
        # least element of the one before (0 lies below every element)
        canonical, least = isinstance(self.blocks, tuple), 0
        for b in self.blocks:
            canonical = canonical and isinstance(b, tuple) and b != ()
            if not canonical:
                break
            prev = least
            for i in b:
                canonical = canonical and prev < i
                prev = i
            least = b[0]
        if not canonical:
            raise SignatureError("blocks not in canonical least-element order")

    @classmethod
    def make(cls, blocks) -> "Partition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        return cls(canon)

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        """Partition grouping equal labels; labels is a sequence over slots 1..k."""
        groups = {}
        for i, lab in enumerate(labels, start=1):
            groups.setdefault(lab, []).append(i)
        return cls.make(groups.values())

    # partitions are immutable, so each reference partition is built once per k
    @classmethod
    @functools.lru_cache(maxsize=None)
    def one_block(cls, k: int) -> "Partition":
        return cls.make([range(1, k + 1)])

    @classmethod
    @functools.lru_cache(maxsize=None)
    def singletons(cls, k: int) -> "Partition":
        return cls.make([[i] for i in range(1, k + 1)])

    @property
    def k(self) -> int:
        return sum(len(b) for b in self.blocks)

    def __len__(self):
        return len(self.blocks)

    def refines(self, other: "Partition") -> bool:
        """True when every block here is contained in a block of other."""
        where = {}
        for j, b in enumerate(other.blocks):
            for i in b:
                where[i] = j
        for b in self.blocks:
            if len({where[i] for i in b}) != 1:
                return False
        return True


def enumerate_partitions(ground):
    """All partitions of the (sorted) ground set, canonical form."""
    items = sorted(ground)
    if not items:
        yield Partition(())
        return
    for blocks in _set_partitions_of(items):
        yield Partition.make(blocks)


def _set_partitions_of(items):
    """Partitions of an explicit element list, as lists of blocks."""
    items = sorted(items)

    def rec(rest, blocks):
        if not rest:
            yield [tuple(b) for b in blocks]
            return
        first, tail = rest[0], rest[1:]
        for j in range(len(blocks)):
            yield from rec(tail, blocks[:j] + [blocks[j] + [first]] + blocks[j + 1 :])
        yield from rec(tail, blocks + [[first]])

    yield from rec(items[1:], [[items[0]]])


def _refinements(part: Partition):
    """Proper refinements of a partition (strictly more blocks)."""
    pools = []
    for b in part.blocks:
        pools.append([(b,)] if len(b) == 1 else list(_set_partitions_of(b)))
    for combo in itertools.product(*pools):
        blocks = [blk for sub in combo for blk in sub]
        if len(blocks) > len(part.blocks):
            yield Partition.make(blocks)


@dataclass(frozen=True)
class IncreasingCollection:
    """Chain of partitions from one block to singletons with growing block
    counts, each level refining the previous one."""

    levels: tuple  # tuple of Partition

    def __post_init__(self):
        ps = self.levels
        if len(ps) == 1 and ps[0].k == 1:
            return  # trivial collection on one element
        if len(ps) < 2:
            raise SignatureError("need at least the one-block and singleton levels")
        k = ps[0].k
        if ps[0] != Partition.one_block(k):
            raise SignatureError("level 0 must be the one-block partition")
        if ps[-1] != Partition.singletons(k):
            raise SignatureError("last level must be singletons")
        for a, b in zip(ps, ps[1:]):
            if not len(a) < len(b):
                raise SignatureError("block counts must strictly increase")
            if not b.refines(a):
                raise SignatureError("each level must refine the previous one")

    @property
    def k(self) -> int:
        return self.levels[0].k

    @property
    def depth(self) -> int:
        """Number of refinement steps d (levels 0..d)."""
        return len(self.levels) - 1

    def __len__(self):
        return len(self.levels)

    def split_counts(self, p: int) -> list:
        """b_{p-1}(B_j) for each block j of level p-1: how many level-p blocks it unites."""
        return [len(sizes) for sizes in self.beta_profile(p)]

    def beta_profile(self, p: int) -> list:
        """Per block j of level p-1, the tuple of level-p sub-block sizes.

        Sub-blocks are taken in their level-p least-element order.
        """
        prev, nxt = self.levels[p - 1], self.levels[p]
        out = []
        for b in prev.blocks:
            members = set(b)
            sizes = tuple(len(c) for c in nxt.blocks if set(c) <= members)
            out.append(sizes)
        return out


def reduce_collection(coll: IncreasingCollection) -> IncreasingCollection:
    """Drop the deepest level and relabel over the blocks of the level below.

    Blocks of the second-deepest level become the new ground elements
    (numbered in least-element order); every shallower partition is mapped
    through this relabeling. Block counts and split counts are preserved;
    a single-step chain reduces to the trivial collection on one element.
    """
    if coll.depth < 1:
        raise SignatureError("nothing to reduce")
    base = coll.levels[-2]
    index = {b: j + 1 for j, b in enumerate(base.blocks)}
    new_levels = []
    for part in coll.levels[:-1]:
        blocks = []
        for b in part.blocks:
            members = set(b)
            blocks.append([index[c] for c in base.blocks if set(c) <= members])
        new_levels.append(Partition.make(blocks))
    return IncreasingCollection(tuple(new_levels))


def enumerate_increasing_collections(k: int, length: int = None):
    """All increasing collections on {1..k}; optionally only those with
    ``length`` refinement steps. Rejects k beyond the Bell-growth cap."""
    if k > MAX_GROUND:
        raise ValueError(f"k={k} exceeds the enumeration cap {MAX_GROUND}")
    start = Partition.one_block(k)
    end = Partition.singletons(k)

    def rec(chain):
        cur = chain[-1]
        if cur == end:
            if length is None or len(chain) - 1 == length:
                yield IncreasingCollection(tuple(chain))
            return
        if length is not None and len(chain) - 1 >= length:
            return
        for ref in _refinements(cur):
            yield from rec(chain + [ref])

    if k == 1:
        return
    yield from rec([start])


# ---------------------------------------------------------------------------
# tuples on trees
# ---------------------------------------------------------------------------


def _validate_tuple(tree: MarkedTree, xs) -> None:
    pair = ancestral_pair(tree, xs)
    if pair is not None:
        a, b = pair
        raise TupleError("tuple has repeated vertices" if a == b else f"{a} is an ancestor of {b}")


def _mrca_table(tree: MarkedTree, xs) -> dict:
    """The tuple's pairwise MRCA generations, keyed by slot pairs (a, b),
    1 <= a < b <= k, as in :func:`pairwise_split_requirements`."""
    return {(a, b): mrca_generation(tree, x, y)
            for (a, x), (b, y) in itertools.combinations(enumerate(xs, start=1), 2)}


def _partition_at(table: dict, k: int, m: int) -> Partition:
    """Slots grouped by shared generation-m ancestor: slot b joins the first
    slot a < b whose entry (a, b) is at least m, else stands alone."""
    labels = list(range(1, k + 1))
    for (a, b), d in table.items():  # a ascending: the first a is kept
        if d >= m and labels[b - 1] == b:
            labels[b - 1] = a
    return Partition.from_labels(labels)


def first_full_split(tree: MarkedTree, xs) -> int:
    """First generation at which no two slots share a common ancestor:
    one plus the deepest pairwise most recent common ancestor."""
    _validate_tuple(tree, xs)
    return max(_mrca_table(tree, xs).values(), default=0) + 1


def partition_process(tree: MarkedTree, xs, m: int) -> Partition:
    """Partition of slots sharing a generation-m ancestor; a slot shallower
    than m stands alone."""
    return _partition_at(_mrca_table(tree, xs), len(xs), m)


@dataclass(frozen=True)
class GenealogySignature:
    """Split times with the partitions attained there.

    ``times`` is strictly increasing; ``collection`` has one more level
    than times (level 0 is the one-block partition, level j the partition
    from time j on). The last time is the tuple's first full split.
    """

    times: tuple
    collection: IncreasingCollection

    def __post_init__(self):
        if len(self.times) != self.collection.depth:
            raise SignatureError("need exactly one time per refinement step")
        if any(t2 <= t1 for t1, t2 in zip(self.times, self.times[1:])):
            raise SignatureError("times must be strictly increasing")
        if self.times and self.times[0] < 1:
            raise SignatureError("times must be >= 1")

    @property
    def split_count(self) -> int:
        return len(self.times)

    def to_json(self) -> str:
        return json.dumps(
            {
                "t": list(self.times),
                "xi": [[list(b) for b in p.blocks] for p in self.collection.levels],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "GenealogySignature":
        data = json.loads(text)
        levels = tuple(Partition.make(bs) for bs in data["xi"])
        return cls(tuple(data["t"]), IncreasingCollection(levels))


def coalescent_times(tree: MarkedTree, xs) -> GenealogySignature:
    """Extract the tuple's split times and attained partitions.

    The partition process changes only in the generation after a pairwise
    MRCA, and gains blocks there, so the split times are the sorted
    distinct pairwise MRCA generations plus one.
    """
    _validate_tuple(tree, xs)
    return signature_from_mrca(_mrca_table(tree, xs), len(xs))


def signature_from_mrca(table: dict, k: int) -> GenealogySignature:
    """The signature of an admissible k-tuple from its pairwise MRCA
    generations, keyed by slot pairs (a, b), 1 <= a < b <= k."""
    times = tuple(sorted({d + 1 for d in table.values()}))
    levels = (Partition.one_block(k),) + tuple(_partition_at(table, k, m) for m in times)
    return GenealogySignature(times, IncreasingCollection(levels))


def upsilon_member(tree: MarkedTree, xs, m: int, part: Partition) -> bool:
    """Level-m block condition: same generation-m ancestor within blocks,
    different ancestors across blocks."""
    if part.k != len(xs):
        raise SignatureError("partition ground set does not match tuple length")
    return partition_process(tree, xs, m) == part


def genealogy_indicator(tree: MarkedTree, xs, times, coll: IncreasingCollection) -> int:
    """1 exactly when the tuple's splits happen at the given times with the
    given partitions: every slot pair has its MRCA at the generation
    :func:`pairwise_split_requirements` asks. Malformed (times, collection)
    pairs raise, as in :class:`GenealogySignature`.
    """
    times = GenealogySignature(tuple(times), coll).times
    if coll.k != len(xs):
        raise SignatureError("partition ground set does not match tuple length")
    return int(_mrca_table(tree, xs) == pairwise_split_requirements(times, coll))


# ---------------------------------------------------------------------------
# hereditary constraints
# ---------------------------------------------------------------------------


def pairwise_split_requirements(svec, coll: IncreasingCollection) -> dict:
    """Required ancestor depth per slot pair.

    A tuple carries the signature (svec, coll) exactly when each slot pair
    (a, b) has its most recent common ancestor at generation s_c - 1, where
    c is the first refinement step separating a and b.
    """
    svec = tuple(svec)
    out = {}
    k = coll.k
    for a, b in itertools.combinations(range(1, k + 1), 2):
        for i in range(1, coll.depth + 1):
            blocks = coll.levels[i].blocks
            if not any(a in blk and b in blk for blk in blocks):
                out[(a, b)] = svec[i - 1] - 1
                break
    return out


@dataclass(frozen=True)
class Constraint:
    """Named tuple functional of the genealogical signature, with its
    heredity generation.

    A tuple's value is ``by_signature(times, coll)`` of its signature, so
    tuple sums split over signatures instead of enumerating tuples.
    ``by_signature`` is a module-level function, or one bound by
    functools.partial, so the constraint pickles and can be sent to worker
    processes.
    """

    name: str
    by_signature: object
    heredity_generation: float

    def __call__(self, tree, xs):
        sig = coalescent_times(tree, xs)
        return self.by_signature(sig.times, sig.collection)


def _one_value(times, coll):
    return 1.0


def _f_lambda_value(lams, times, coll):
    req = pairwise_split_requirements(times, coll)
    ok = all(req[(i, i + 1)] < lams[i - 1] for i in range(1, coll.k))
    return 1.0 if ok else 0.0


def _f_m_value(m, times, coll):
    return 1.0 if times[-1] <= m else 0.0


def _F_value(svec, times, coll):
    return 1.0 if tuple(times) == svec else 0.0


def constant_one() -> Constraint:
    return Constraint("one", _one_value, 1)


def make_f_lambda(lams) -> Constraint:
    """Adjacent-slot split bounds: slot i-1 and i must split below lams[i].

    lams has one entry per adjacent pair (length k-1); an entry of
    math.inf removes that pair's constraint.
    """
    lams = tuple(lams)
    finite = [l for l in lams if math.isfinite(l)]
    heredity = max(finite) if finite else 1
    return Constraint(f"f_lambda{lams}", functools.partial(_f_lambda_value, lams), heredity)


def make_f_m(m: int) -> Constraint:
    """Indicator of a full split by generation m (the last split time)."""
    return Constraint(f"f_m{m}", functools.partial(_f_m_value, m), m)


def make_F_ell_s(ell: int, svec, k: int) -> Constraint:
    """Indicator of split times exactly svec (length ell): the sum over all
    increasing collections of the signature indicator at those times."""
    svec = tuple(svec)
    if len(svec) != ell:
        raise SignatureError("need one split time per refinement step")
    return Constraint(f"F_{ell}_{svec}", functools.partial(_F_value, svec), svec[-1])

