"""Coverings of patterns in hierarchies, regressive bounds, covering
extension and budgeted cofinal-validity testing.

A covering is an arithmetic embedding of a pattern's universe into the
carrier whose range is closed and which preserves le1 and le2 forward.  A
regressive map assigns to each indecomposable in a covering's range a
strictly smaller carrier element; extensions of a covering are "above" the
map when every freshly placed indecomposable that sits under an old one
exceeds the bound of that old element's image.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Tuple

from .embedding import SearchLimits, SourceSpec, search_embeddings
from .hierarchy import Hierarchy
from .ordinals import (
    ClosedSet,
    OrdinalTerm,
    format_term,
    induced_embedding,
    is_indecomposable,
)
from .patterns import Pattern, is_closed_substructure

Assignment = Dict[OrdinalTerm, OrdinalTerm]


@dataclass(frozen=True)
class Covering:
    source: Pattern
    target: Hierarchy
    assignment: Tuple[Tuple[OrdinalTerm, OrdinalTerm], ...]

    @staticmethod
    def from_map(source: Pattern, target: Hierarchy, mapping: Mapping[OrdinalTerm, OrdinalTerm]) -> "Covering":
        return Covering(source, target, tuple(sorted(mapping.items())))

    def as_dict(self) -> Assignment:
        return dict(self.assignment)

    def __call__(self, x: OrdinalTerm) -> OrdinalTerm:
        for a, b in self.assignment:
            if a == x:
                return b
        raise KeyError(format_term(x))

    @property
    def range_elements(self) -> Tuple[OrdinalTerm, ...]:
        return tuple(sorted(b for _, b in self.assignment))

    def range_indecomposables(self) -> Tuple[OrdinalTerm, ...]:
        return tuple(x for x in self.range_elements if is_indecomposable(x))


class RegressiveMap:
    """bounds[xi] < xi for every indecomposable xi in its domain.

    The carrier minimum can never be in the domain; since the minimum of a
    closed carrier is 0 and 0 is decomposable, every indecomposable in a
    covering's range qualifies.
    """

    __slots__ = ("bounds",)

    def __init__(self, bounds: Mapping[OrdinalTerm, OrdinalTerm]):
        items = tuple(sorted(bounds.items()))
        for xi, b in items:
            if not is_indecomposable(xi):
                raise ValueError(f"{format_term(xi)} is not indecomposable")
            if not b < xi:
                raise ValueError(
                    f"bound {format_term(b)} for {format_term(xi)} is not regressive"
                )
        object.__setattr__(self, "bounds", items)

    def __setattr__(self, name, value):
        raise AttributeError("RegressiveMap is immutable")

    def as_dict(self) -> Dict[OrdinalTerm, OrdinalTerm]:
        return dict(self.bounds)

    def __eq__(self, other):
        if not isinstance(other, RegressiveMap):
            return NotImplemented
        return self.bounds == other.bounds

    def __hash__(self):
        return hash(self.bounds)

    def __repr__(self):
        inner = ", ".join(f"{format_term(k)}->{format_term(v)}" for k, v in self.bounds)
        return f"RegressiveMap({{{inner}}})"

    @staticmethod
    def empty() -> "RegressiveMap":
        return RegressiveMap({})

    @staticmethod
    def maximal(h: Covering) -> "RegressiveMap":
        """The pointwise-largest regressive map on the covering's range: each
        indecomposable is bounded by its carrier predecessor, the element one
        rank below it.  It dominates every other regressive map on the same
        domain."""
        carrier = h.target.carrier
        index = carrier.index
        return RegressiveMap(
            {xi: carrier.elements[index.below(xi) - 1] for xi in h.range_indecomposables()}
        )


def regressive_maps(h: Covering) -> Iterator[RegressiveMap]:
    """All regressive maps on the covering's range indecomposables, the
    pointwise-maximal one first, then the rest in ascending lexicographic
    order of their bound tuples."""
    first = RegressiveMap.maximal(h)
    yield first
    # the remaining maps are built only when a consumer asks past the first
    domain = h.range_indecomposables()
    carrier = h.target.carrier.elements
    choices = [[c for c in carrier if c < xi] for xi in domain]
    maximal = tuple(b for _, b in first.bounds)
    for bounds in itertools.product(*choices):
        if bounds != maximal:
            yield RegressiveMap(dict(zip(domain, bounds)))


def is_covering(h: Mapping[OrdinalTerm, OrdinalTerm] | Covering, P: Pattern, H: Hierarchy) -> bool:
    """Check every covering invariant for an arbitrary candidate map."""
    mapping = h.as_dict() if isinstance(h, Covering) else dict(h)
    universe = P.universe.elements
    if set(mapping) != set(universe):
        return False
    carrier = H.carrier.as_set()
    if any(v not in carrier for v in mapping.values()):
        return False
    # arithmetic: the map must be the extension of its indecomposable part,
    # which must send indecomposables strictly increasingly to indecomposables
    indec_part = {i: mapping[i] for i in P.universe.indecomposables}
    try:
        if induced_embedding(indec_part, universe) != mapping:
            return False
    except ValueError:
        return False
    # closed range inside the carrier
    try:
        ClosedSet(mapping.values())
    except ValueError:
        return False
    # forward preservation
    for k in (1, 2):
        rel_p, rel_h = P.rel(k), H.rel(k)
        for a, b in rel_p:
            if (mapping[a], mapping[b]) not in rel_h:
                return False
    return True


def search_coverings(
    P: Pattern,
    H: Hierarchy,
    fixed: Optional[Mapping[OrdinalTerm, OrdinalTerm]] = None,
    lower_bounds: Optional[Mapping[OrdinalTerm, OrdinalTerm]] = None,
) -> Iterator[Covering]:
    """Enumerate all coverings of P in H, in lexicographic order of the
    indecomposable images.

    fixed pins element images (a fixed prefix), each a key of P's universe;
    the search splits each pin into pins of the element's summands.
    lower_bounds forces chosen indecomposable images strictly above the
    given terms.  Unsatisfiable constraints produce an empty stream.

    The search reads P's universe through its own rank index and the bitset
    rows of P's relations from the embedding memo, shared with H's rows, so
    covering one pattern again, as a rule probe does for each covering of
    its premise, builds neither again.
    """
    fixed = fixed or {}
    if not P.universe.as_set().issuperset(fixed):
        raise ValueError("a fixed element is not in the pattern's universe")
    floors = dict(lower_bounds) if lower_bounds else {}
    source = SourceSpec(elements=P.universe, le1=P.le1, le2=P.le2)
    limits = SearchLimits(pinned=fixed, indec_floors=floors)
    for assignment in search_embeddings(source, H.target_spec(), limits):
        yield Covering.from_map(P, H, assignment)


def _fresh_floors(
    P: Pattern, Pplus: Pattern, h: Covering, phi: RegressiveMap
) -> Dict[OrdinalTerm, OrdinalTerm]:
    """The regressive bound each governed fresh indecomposable b of Pplus must
    exceed.

    b is governed by an indecomposable a of P when b sits strictly between
    everything of P below a and a itself; at most one such a exists, and the
    bound is phi at h(a).
    """
    bounds, hmap = phi.as_dict(), h.as_dict()
    floors = {}
    for b in Pplus.universe:
        if not is_indecomposable(b) or b in P.universe:
            continue
        a = next((a for a in P.universe if is_indecomposable(a) and b < a), None)
        if a is None or any(not x < b for x in P.universe if x < a):
            continue
        if hmap[a] not in bounds:
            raise ValueError(f"regressive map lacks a bound for {format_term(hmap[a])}")
        floors[b] = bounds[hmap[a]]
    return floors


def extends_above(hplus: Covering, h: Covering, phi: RegressiveMap) -> bool:
    """True iff hplus extends h and every fresh indecomposable sitting under
    an old indecomposable a exceeds phi at h(a)."""
    P, Pplus = h.source, hplus.source
    if not is_closed_substructure(P, Pplus):
        raise ValueError("the smaller covering's pattern must be a closed substructure")
    hmap, hpmap = h.as_dict(), hplus.as_dict()
    for x in P.universe:
        if hpmap.get(x) != hmap[x]:
            raise ValueError("coverings disagree on the common universe")
    return all(hpmap[b] > bound for b, bound in _fresh_floors(P, Pplus, h, phi).items())


def extend_covering(
    P: Pattern, Pplus: Pattern, h: Covering, phi: RegressiveMap
) -> Optional[Covering]:
    """First covering of Pplus extending h above phi, or None when the carrier
    has no room.  Absence at finite scale carries no weight: extension is a
    statement about the unbounded setting."""
    if not is_closed_substructure(P, Pplus):
        raise ValueError("P must be a closed substructure of Pplus")
    if h.source != P:
        raise ValueError("h must be a covering of P")
    floors = _fresh_floors(P, Pplus, h, phi)
    for cov in search_coverings(Pplus, h.target, fixed=h.as_dict(), lower_bounds=floors):
        return cov
    return None


@dataclass(frozen=True)
class Budget:
    """Enumeration caps for cofinal-validity testing; None means exhaustive.

    A cap must allow at least one covering: a probe that checks none has
    sampled nothing.
    """

    max_coverings: Optional[int] = None

    def __post_init__(self):
        if self.max_coverings is not None and self.max_coverings < 1:
            raise ValueError(f"max_coverings must be at least 1, not {self.max_coverings}")


@dataclass(frozen=True)
class CofinalVerdict:
    """The outcome of a rule probe.

    exhaustive is false only when the budget stopped the probe while one
    more covering was left to check; such a verdict has no counterexample
    and is not valid either: the rule is undecided within the budget.
    """

    valid: bool
    coverings_checked: int
    counterexample: Optional[Tuple[Covering, RegressiveMap]] = None
    exhaustive: bool = True

    def __bool__(self):
        return self.valid


def test_cofinal_validity(
    P: Pattern, Pplus: Pattern, H: Hierarchy, budget: Budget = Budget()
) -> CofinalVerdict:
    """Probe the rule P | Pplus: every covering of P must extend above every
    regressive bound.

    Only the pointwise-maximal regressive map, the first one regressive_maps
    yields, is tried per covering: an extension above it is above every
    other map, and a covering with no extension above it is a
    counterexample.  The first such (covering, bound) pair is returned.
    When the budget's cap is reached and another covering exists, the
    verdict is neither valid nor exhaustive.
    """
    if not is_closed_substructure(P, Pplus):
        raise ValueError("P must be a closed substructure of Pplus")
    checked = 0
    for h in search_coverings(P, H):
        if checked == budget.max_coverings:
            return CofinalVerdict(False, checked, None, exhaustive=False)
        checked += 1
        phi = next(regressive_maps(h))
        if extend_covering(P, Pplus, h, phi) is None:
            return CofinalVerdict(False, checked, (h, phi))
    return CofinalVerdict(True, checked, None)
