"""Isominimal realizations, cores, initial-segment core comparison, the
pattern characterization check, and le2 chain extraction.

The realization of a coverable pattern is the pointwise-least closed
substructure of the hierarchy that covers it; the core is the union of those
realizations over every pattern with at most a bounded number of
indecomposables.  Two cores compare positionally: member i maps to member i
and the witness isomorphism types must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .covering import search_coverings
from .hierarchy import Hierarchy, indecomposable_endpoints
from .ordinals import ClosedSet, OrdinalTerm, ZERO, format_term, is_indecomposable, parts_closure
from .patterns import Pattern, find_isomorphism, pointwise_le, validate_structure


@dataclass(frozen=True)
class IsominimalReport:
    """Outcome of the minimal-realization search for one pattern.

    realization       the chosen minimal closed substructure, None when the
                      pattern is not covered
    unique_minimum    exactly one minimal universe exists
    below_all_covers  the chosen universe is pointwise below every enumerated
                      covering range
    isomorphic        the realization is isomorphic to the source pattern
    covers_enumerated number of coverings examined
    """

    realization: Optional[Pattern]
    unique_minimum: bool
    below_all_covers: bool
    isomorphic: bool
    covers_enumerated: int


def isominimal(P: Pattern, H: Hierarchy) -> IsominimalReport:
    """Exhaustively enumerate the closed substructures covering P and pick a
    pointwise-minimal one (ties broken by lexicographically least universe)."""
    ranges: List[Tuple[OrdinalTerm, ...]] = []
    for cov in search_coverings(P, H):
        ranges.append(cov.range_elements)
    if not ranges:
        return IsominimalReport(None, False, False, False, 0)
    minimal = [
        r
        for r in ranges
        if not any(other != r and pointwise_le(other, r) for other in ranges)
    ]
    chosen = min(minimal)
    realization = H.restrict_pattern(chosen)
    below_all = all(pointwise_le(chosen, r) for r in ranges)
    iso = find_isomorphism(P, realization) is not None
    return IsominimalReport(
        realization=realization,
        unique_minimum=len(minimal) == 1,
        below_all_covers=below_all,
        isomorphic=iso,
        covers_enumerated=len(ranges),
    )


@dataclass(frozen=True)
class Core:
    """Union of the isominimal realizations of every pattern with at most
    size_bound indecomposables, with one witness pattern per member."""

    host: Hierarchy
    members: Tuple[OrdinalTerm, ...]
    witness: Tuple[Tuple[OrdinalTerm, Pattern], ...]
    size_bound: int

    def witness_for(self, member: OrdinalTerm) -> Pattern:
        for m, p in self.witness:
            if m == member:
                return p
        raise KeyError(format_term(member))


def closed_subsets(
    carrier: ClosedSet,
    max_indecomposables: Optional[int] = None,
    max_elements: Optional[int] = None,
) -> List[Tuple[OrdinalTerm, ...]]:
    """All closed subsets of the carrier within the given bounds, sorted."""
    seen = {(ZERO,)}
    frontier = [frozenset((ZERO,))]
    while frontier:
        nxt = []
        for s in frontier:
            for x in carrier:
                if x in s:
                    continue
                grown = frozenset(parts_closure(s | {x}))
                key = tuple(sorted(grown))
                if key in seen:
                    continue
                if max_elements is not None and len(grown) > max_elements:
                    continue
                if (
                    max_indecomposables is not None
                    and sum(1 for y in grown if is_indecomposable(y)) > max_indecomposables
                ):
                    continue
                seen.add(key)
                nxt.append(grown)
        frontier = nxt
    return sorted(seen)


def _pattern_sort_key(P: Pattern):
    return (
        len(P.indecomposables),
        P.universe.elements,
        P.strict_le1(),
        P.strict_le2(),
    )


def compute_core(H: Hierarchy, size_bound: int) -> Core:
    """Enumerate the coverable pattern family through the host's own closed
    substructures (every closed substructure is covered by its identity
    embedding, and every coverable pattern is isomorphic to one), dedupe up
    to isomorphism, and union the isominimal realizations."""
    if size_bound < 1:
        raise ValueError("size_bound must be at least 1")
    candidates = [
        H.restrict_pattern(subset)
        for subset in closed_subsets(H.carrier, max_indecomposables=size_bound)
    ]
    candidates.sort(key=_pattern_sort_key)
    classes: List[Pattern] = []
    for P in candidates:
        if not any(find_isomorphism(P, Q) is not None for Q in classes):
            classes.append(P)
    members: set = set()
    witness: List[Tuple[OrdinalTerm, Pattern]] = []
    witnessed: set = set()
    for P in classes:
        report = isominimal(P, H)
        realization = report.realization
        if realization is None:
            continue
        members.update(realization.universe.elements)
        for x in realization.universe:
            if x not in witnessed:
                witnessed.add(x)
                witness.append((x, realization))
    return Core(
        host=H,
        members=tuple(sorted(members)),
        witness=tuple(sorted(witness, key=lambda mw: mw[0])),
        size_bound=size_bound,
    )


@dataclass(frozen=True)
class InitialSegmentEmbedding:
    domain_core: Core
    codomain_core: Core
    mapping: Tuple[Tuple[OrdinalTerm, OrdinalTerm], ...]
    initial_segment_flag: bool


@dataclass(frozen=True)
class CoreMismatch:
    position: int
    left_witness: Optional[Pattern]
    right_witness: Optional[Pattern]

    def describe(self) -> str:
        if self.right_witness is None or self.left_witness is None:
            return f"no counterpart at position {self.position}"
        return f"witness isomorphism types differ at position {self.position}"


def compare_cores(C1: Core, C2: Core) -> InitialSegmentEmbedding | CoreMismatch:
    """Match members positionally; witness isomorphism types must agree at
    every position of the smaller core."""
    if C1.size_bound != C2.size_bound:
        raise ValueError("cores must be computed at the same size bound")
    mapping = []
    for i, m1 in enumerate(C1.members):
        if i >= len(C2.members):
            return CoreMismatch(i, C1.witness_for(m1), None)
        m2 = C2.members[i]
        w1, w2 = C1.witness_for(m1), C2.witness_for(m2)
        if find_isomorphism(w1, w2) is None:
            return CoreMismatch(i, w1, w2)
        mapping.append((m1, m2))
    return InitialSegmentEmbedding(
        domain_core=C1,
        codomain_core=C2,
        mapping=tuple(mapping),
        initial_segment_flag=True,
    )


@dataclass(frozen=True)
class PatternDecision:
    ok: bool
    reason: str  # "H-covered" | "valid but not H-covered" | "invalid structure"
    detail: str = ""

    def __bool__(self):
        return self.ok


def is_pattern(S, H: Hierarchy) -> PatternDecision:
    """Decide pattern-hood relative to H: valid structure plus coverability.

    S may be a Pattern or a raw (universe, le1, le2) triple.  The decision is
    complete only relative to the finite carrier: richer hierarchies can cover
    strictly more structures.
    """
    if isinstance(S, Pattern):
        P = S
    else:
        universe, le1, le2 = S
        violations = validate_structure(universe, le1, le2)
        if violations:
            return PatternDecision(
                False, "invalid structure", "; ".join(v.describe() for v in violations)
            )
        P = Pattern(universe, le1, le2)
    for _ in search_coverings(P, H):
        return PatternDecision(True, "H-covered")
    detail = ""
    if any(not indecomposable_endpoints(k, a, b) for k in (1, 2) for a, b in P.rel(k) if a != b):
        detail = (
            "strict le1 needs an indecomposable left element and strict le2 "
            "indecomposable endpoints; no hierarchy realizes this structure"
        )
    return PatternDecision(False, "valid but not H-covered", detail)


def longest_chain2(H: Hierarchy) -> Tuple[OrdinalTerm, ...]:
    """A maximum-length strictly increasing le2 chain, lexicographically least
    among the longest; single elements do not count, so a hierarchy without
    strict le2 pairs yields the empty chain."""
    elems = H.carrier.elements
    succ = {
        x: tuple(y for y in elems if y != x and (x, y) in H.le2) for x in elems
    }
    # strict le2 pairs ascend in the term order, so descending elements is a
    # reverse topological order; best[x] is the lexicographically least
    # maximum-length chain starting at x
    best: Dict[OrdinalTerm, Tuple[OrdinalTerm, ...]] = {}
    for x in reversed(elems):
        tails = [(x,) + best[y] for y in succ[x]]
        if tails:
            longest = max(len(t) for t in tails)
            best[x] = min(t for t in tails if len(t) == longest)
        else:
            best[x] = (x,)
    chains = list(best.values())
    longest = max(len(t) for t in chains) if chains else 0
    if longest < 2:
        return ()
    return min(t for t in chains if len(t) == longest)
