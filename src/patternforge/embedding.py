"""Backtracking search for arithmetic embeddings of one finite structure in
another.

A candidate map is determined by where it sends the source indecomposables:
images must be indecomposable, strictly increasing, and the arithmetic
extension of the choice must land inside the target carrier while preserving
le1 and le2 forward.  Images of a closed source are automatically closed, so
closed range comes for free; carrier membership of composite images is what
the search has to check.

Assignments are produced in lexicographic order of the indecomposable image
tuple, which makes every consumer deterministic.

The search runs on the carrier index (ordinals.CarrierIndex): an image is a
carrier rank, a composite image is found by the ranks of its summands (a
missing tuple is an image outside the carrier), and the ceiling and floors
become rank bounds found once per search.  An element pin x -> y is split
on ranks too: the i-th summand of x is pinned to the i-th summand of y, so
a pin whose image lies outside the carrier, has another summand count, or
sends one summand to two places admits nothing.  Each relation is held as
bitset rows, one Python int per rank for the pairs leaving it and one for
the pairs entering it, so preservation is a bit test per related pair; the
pairs with elements already sent to their own rank (the pinned part of a
game's challenge) take one mask test per row.  On shared rows the leading
indecomposables pinned to their own ranks, with the elements they lead,
are placed before the search branches: each has one candidate, and a pair
of elements sent to their own ranks is a pair of the target's rows.

A source that uses the target's own relation objects and lies inside its
carrier (every game the hierarchy plays) is searched on the target's ranks
and rows directly.  Any other source (a pattern being covered) is numbered
by its universe's own rank index (ClosedSet.index, cached on the set, which
already holds every element's summand ranks); a plain element tuple is
wrapped in a ClosedSet once per search.  Rows, the target's and such a
source's alike, come from the rows memo of patterns (_memo_rows), built once
per (closed set, le1, le2) frozenset snapshot.  Every hit refreshes its
entry, so a host's rows stay cached while a stream of distinct patterns (the
premises and conclusions of rules, the class representatives of a core)
passes through.  Terms stay OrdinalTerm at the API: limits come in as terms
and assignments go out as terms.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, Mapping, Optional, Tuple

from .ordinals import ClosedSet, OrdinalTerm, ZERO
from .patterns import _memo_rows

Pair = tuple[OrdinalTerm, OrdinalTerm]
Assignment = dict[OrdinalTerm, OrdinalTerm]


@dataclass(frozen=True)
class SourceSpec:
    """A finite closed set of elements, as a ClosedSet or an ascending tuple,
    with its two relations; only the pairs between its elements are read, so
    the relations may be larger."""

    elements: ClosedSet | Tuple[OrdinalTerm, ...]
    le1: FrozenSet[Pair]
    le2: FrozenSet[Pair]


@dataclass(frozen=True)
class TargetSpec:
    """Target carrier with its relations."""

    carrier: ClosedSet
    le1: FrozenSet[Pair]
    le2: FrozenSet[Pair]


@dataclass(frozen=True)
class SearchLimits:
    """Optional constraints on the embedding being searched.

    pinned          source element -> required image; pins on elements
                    outside the source are ignored
    ceiling         every image must be strictly below this term
    indec_floors    source indecomposable -> image must be strictly above
    moved_floor     images of elements not pinned to themselves must be
                    strictly above this term
    """

    pinned: Mapping[OrdinalTerm, OrdinalTerm] = field(default_factory=dict)
    ceiling: Optional[OrdinalTerm] = None
    indec_floors: Mapping[OrdinalTerm, OrdinalTerm] = field(default_factory=dict)
    moved_floor: Optional[OrdinalTerm] = None


def search_embeddings(
    source: SourceSpec, target: TargetSpec, limits: SearchLimits = SearchLimits()
) -> Iterator[Assignment]:
    """Yield every admissible embedding of source into target, smallest
    indecomposable images first."""
    carrier = target.carrier
    index = carrier.index
    tgt_elems = carrier.elements
    tgt_rows = _memo_rows(carrier, target.le1, target.le2)

    # Source elements are numbered by ids: their carrier ranks when the
    # source shares the target's relations and carrier, else their ranks in
    # the source's own closed set.  sums[id] holds the ids of an element's
    # summands, leading first.
    elements = source.elements
    shared = source.le1 is target.le1 and source.le2 is target.le2
    if shared:
        ids = [index.rank.get(x) for x in elements]
        shared = None not in ids
    if shared:
        sums, src_rows, keys = index.summands, tgt_rows, tgt_elems
        id_of = dict(zip(elements, ids))
    else:
        if not isinstance(elements, ClosedSet):
            elements = ClosedSet(elements)
        own = elements.index
        ids, keys, sums, id_of = range(len(elements)), elements.elements, own.summands, own.rank
        src_rows = _memo_rows(elements, source.le1, source.le2)
    by_summands = index.by_summands

    indecs = [y for y in ids if len(sums[y]) == 1]
    groups: Dict[int, list] = {i: [] for i in indecs}
    for y in ids:
        if sums[y]:
            groups[sums[y][0]].append(y)  # ascending, the indecomposable first

    # each pinned element's summands are pinned to its image's, in order
    pins: Dict[int, int] = {}
    for x, img in limits.pinned.items():
        y = id_of.get(x)
        if y is None:
            continue
        rank = index.rank.get(img)
        if rank is None or len(sums[y]) != len(index.summands[rank]):
            return
        for s, t in zip(sums[y], index.summands[rank]):
            if pins.setdefault(s, t) != t:
                return
    floors = {id_of[i]: index.at_most(f) for i, f in limits.indec_floors.items() if i in id_of}
    ceiling = len(tgt_elems) if limits.ceiling is None else index.below(limits.ceiling)
    moved_floor = 0
    fixed: FrozenSet[int] = frozenset()
    if limits.moved_floor is not None:
        # an element is fixed iff each of its summands is pinned to itself
        moved_floor = index.at_most(limits.moved_floor)
        selfpinned = {s for s, t in pins.items() if keys[s] == tgt_elems[t]}
        fixed = frozenset(y for y in ids if selfpinned.issuperset(sums[y]))
    tgt_indecs = index.indecomposables
    checks = tuple(zip(src_rows, tgt_rows))

    image = [0] * len(keys)
    completed: list = []
    # Completed ids split by their image: ``same`` holds those sent to their
    # own rank (only when ids are ranks), whose pairs are checked by one mask
    # test per row; ``moved`` holds the rest, checked one bit at a time.
    same = moved = 0

    def complete(x: int) -> Optional[int]:
        r = by_summands.get(tuple([image[s] for s in sums[x]]))
        if r is None or r >= ceiling:
            return None
        if r < moved_floor and x not in fixed:
            return None
        for src, tgt in checks:
            row = tgt[r]
            if src[x] & same & ~row:
                return None
            related = src[x] & moved
            while related:
                low = related & -related
                if not row >> image[low.bit_length() - 1] & 1:
                    return None
                related ^= low
        return r

    def extend(j: int) -> Iterator[Assignment]:
        nonlocal same, moved
        if j == len(indecs):
            yield {keys[y]: tgt_elems[image[y]] for y in completed}
            return
        i = indecs[j]
        lo = max(image[indecs[j - 1]] + 1 if j else 0, floors.get(i, 0))
        if i in pins:
            candidates = [pins[i]] if lo <= pins[i] < ceiling else []
        else:
            candidates = tgt_indecs[bisect_left(tgt_indecs, lo) : bisect_left(tgt_indecs, ceiling)]
        for mu in candidates:
            image[i] = mu
            placed = 0
            for x in groups[i]:
                r = complete(x)
                if r is None:
                    break
                image[x] = r
                completed.append(x)
                if shared and r == x:
                    same |= 1 << x
                else:
                    moved |= 1 << x
                placed += 1
            else:
                yield from extend(j + 1)
            for _ in range(placed):
                bit = ~(1 << completed.pop())
                same &= bit
                moved &= bit

    zero = id_of.get(ZERO)
    if zero is not None:
        if ceiling == 0:
            return
        image[zero] = 0  # the carrier's rank of 0
        completed.append(zero)
        if shared:
            same = 1 << zero
        else:
            moved = 1 << zero
    # A leading run of indecomposables pinned to their own ranks (the pins
    # of a game) has one candidate each and sends its groups to their own
    # ranks, whose pairs the shared rows hold by definition; it is placed
    # here, not one generator level each, while floors and ceiling admit it.
    j = 0
    while shared and j < len(indecs):
        i = indecs[j]
        if pins.get(i) != i or floors.get(i, 0) > i or groups[i][-1] >= ceiling:
            break
        for x in groups[i]:
            image[x] = x
            completed.append(x)
            same |= 1 << x
        j += 1
    yield from extend(j)


def first_embedding(
    source: SourceSpec, target: TargetSpec, limits: SearchLimits = SearchLimits()
) -> Optional[Assignment]:
    for assignment in search_embeddings(source, target, limits):
        return assignment
    return None
