"""Isominimal realizations, cores, initial-segment core comparison, the
pattern characterization check, and le2 chain extraction.

The realization of a coverable pattern is the lexicographically least
closed substructure of the hierarchy that covers it, which is
pointwise-minimal among them (see isominimal); the core is the union of those
realizations over every pattern with at most a bounded number of
indecomposables, counted up to isomorphism: each class is keyed by
patterns.isomorphism_type, one key and one dict lookup per closed subset
of the host, listed once each by growing over carrier ranks.  A subset's
key is read from its carrier ranks: the summand ranks of the carrier's index
and the host's memoized relation rows under the subset's rank mask, so no
subset scans the host's pairs.  Two cores compare positionally: member i
maps to member i and the witness isomorphism types must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .covering import search_coverings
from .hierarchy import Hierarchy, indecomposable_endpoints
from .ordinals import ClosedSet, OrdinalTerm, format_term, is_indecomposable
from .patterns import Pattern, find_isomorphism, pointwise_le, validate_structure
from .patterns import _is_restriction, _memo_rows, _rank_key


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

    unique_minimum and below_all_covers always agree: the covering ranges
    are distinct, so they form a finite poset under the pointwise order, and
    such a poset has exactly one minimal element when that element is below
    all the others.  Both are kept because the CLI and the artifacts print
    both.
    """

    realization: Optional[Pattern]
    unique_minimum: bool
    below_all_covers: bool
    isomorphic: bool
    covers_enumerated: int


def isominimal(P: Pattern, H: Hierarchy) -> IsominimalReport:
    """Enumerate the closed substructures covering P and pick a
    pointwise-minimal one: the range of the first covering found.

    Coverings come in lexicographic order of their indecomposable images
    (search_coverings).  Where two coverings first differ, at an
    indecomposable i, they agree on every element below i (its summands are
    indecomposables below i), and both preserve order, so their ascending
    ranges first differ at i's position: the first range is the
    lexicographically least.  A range pointwise below it would be
    lexicographically smaller still, so it is pointwise-minimal, and it is
    the only minimal range exactly when it is below every range."""
    ranges = [cov.range_elements for cov in search_coverings(P, H)]
    if not ranges:
        return IsominimalReport(None, False, False, False, 0)
    chosen = ranges[0]
    induced = chosen == P.universe.elements and _is_restriction(P, H.carrier, H.le1, H.le2)
    realization = P if induced else H.restrict_pattern(chosen)
    below_all = all(pointwise_le(chosen, r) for r in ranges)
    return IsominimalReport(
        realization=realization,
        unique_minimum=below_all,
        below_all_covers=below_all,
        isomorphic=find_isomorphism(P, realization) is not None,
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
    """All closed subsets of the carrier within the bounds, as ascending
    tuples in lexicographic order, which compute_core relies on.
    A subset grows by ascending ranks, each joining once its split parts are
    in (parts come before wholes, see CarrierIndex), so each is built once."""
    index, n = carrier.index, len(carrier)
    needs = [sum(1 << p for p in set(parts)) for parts in index.parts]  # w+w: parts w, w
    indec = [len(s) == 1 for s in index.summands]
    max_e = n if max_elements is None else max_elements
    max_i = n if max_indecomposables is None else max_indecomposables
    out: List[Tuple[OrdinalTerm, ...]] = []

    def grow(ranks: Tuple[int, ...], mask: int, indecs: int) -> None:
        out.append(tuple(index.elements[r] for r in ranks))
        if len(ranks) < max_e:
            for r in range(ranks[-1] + 1, n):
                if not needs[r] & ~mask and indecs + indec[r] <= max_i:
                    grow(ranks + (r,), mask | 1 << r, indecs + indec[r])

    if max_e >= 1 and max_i >= 0:  # else not even {0} is within the bounds
        grow((0,), 1, 0)
    return out


def compute_core(H: Hierarchy, size_bound: int) -> Core:
    """Enumerate the coverable pattern family through the host's own closed
    substructures (every closed substructure is covered by its identity
    embedding, and every coverable pattern is isomorphic to one), dedupe up
    to isomorphism, and union the isominimal realizations.  A class is keyed by
    isomorphism_type and represented by its first closed subset in the order
    (indecomposable count, elements); only representatives become patterns."""
    if type(size_bound) is not int or size_bound < 1:
        raise ValueError("size_bound must be an integer of at least 1")
    subsets = closed_subsets(H.carrier, max_indecomposables=size_bound)
    subsets.sort(key=lambda s: sum(map(is_indecomposable, s)))  # stable: elements break ties
    index = H.carrier.index
    rows = _memo_rows(H.carrier, H.le1, H.le2)
    classes: Dict[tuple, Tuple[OrdinalTerm, ...]] = {}
    for subset in subsets:
        classes.setdefault(_rank_key(index, [index.rank[x] for x in subset], rows), subset)
    witness: Dict[OrdinalTerm, Pattern] = {}
    for subset in classes.values():
        realization = isominimal(H.restrict_pattern(subset), H).realization
        if realization is not None:
            for x in realization.universe:
                witness.setdefault(x, realization)
    members = tuple(sorted(witness))
    pairs = tuple((m, witness[m]) for m in members)
    return Core(host=H, members=members, witness=pairs, size_bound=size_bound)


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
