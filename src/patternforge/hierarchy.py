"""Finite hierarchies: le1/le2 matrices computed as a greatest fixed point of
two elementarity games plus structural pruning.

The pair (alpha, beta) semantics is a finite analogue of Sigma_1/Sigma_2
elementarity between the initial segments below alpha and below beta.  A
challenge is a closed subset of the carrier below beta; the respondent must
embed it strictly below alpha, pointwise fixing the part that already lies
below alpha, by an arithmetic embedding with closed range inside the carrier
that preserves the current relations forward.  For the two-round (Sigma_2)
game the respondent's embedding must additionally admit, for every closed
extension of its range below alpha, a backward arithmetic embedding into the
segment below beta inverting it on the challenge.

Literal finite truncation would make every strict pair fail outright: the
largest carrier element below alpha always joins the dominant challenge and
leaves no room above itself.  The build therefore applies a cofinality
window of 1: a challenge may shed elements of the top slice of the carrier
below alpha when no kept element needs them for closedness.  Mandatory parts
are never shed, which keeps the left-indecomposability argument intact: any
challenge containing a decomposable alpha pins alpha's parts and forces the
embedding to send alpha to itself, outside the open segment.

Pruning only ever shrinks the relations, so iterating the game plus the
structural clauses from the full order reaches a fixed point within
|carrier|^2 rounds.  The structural clauses are the order and respect clauses
of patterns.order_clause_failures, the same definition pattern validation
uses, plus strict-pair indecomposability (indecomposable_endpoints).
Rounds evaluate all pairs against an immutable snapshot, so the result is
independent of evaluation order and bit-exact across rebuilds.

A round decides some games without playing them, and prunes exactly what
playing them would (see _game_round):
  (i)  a failed one-round game of (alpha, beta) fails for every larger beta.
       The larger beta's reduced challenge keeps alpha's rank cut and shed
       zone, so it contains the smaller one, with more pins and the same
       ceiling alpha; restricting a witness for it, as game_pass does for
       the dominant challenge, would give a witness for the smaller one.
  (ii) a pair's two-round game fails whenever its one-round game fails: it
       passes only through a forward witness of the same search.

The games run on the carrier's rank index (ClosedSet.index): the reduced
challenge is cut out by rank bounds and closed by one descending sweep
over split-part ranks, and the pins and the backward source are prefixes of
the challenge and of the carrier.  Every game of a round hands the search
the same snapshot frozensets, unrestricted, as both the challenge's and the
carrier's relations, so the search reads the target's bitset rows for both
and builds them once per round (see embedding).  Hierarchy.target_spec
passes the built relations themselves, so all coverings into one hierarchy
share one set of rows.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Tuple

from .embedding import SearchLimits, SourceSpec, TargetSpec, first_embedding, search_embeddings
from .ordinals import (
    ClosedSet,
    OrdinalTerm,
    ZERO,
    format_term,
    is_indecomposable,
    parts_closure,
)
from .patterns import Pattern, induced_pattern, order_clause_failures, restrict_relation

Pair = Tuple[OrdinalTerm, OrdinalTerm]

BUILD_WINDOW = 1


@dataclass(frozen=True)
class RoundStats:
    game_le1: int
    game_le2: int
    structural_le1: int
    structural_le2: int

    def as_tuple(self):
        return (self.game_le1, self.game_le2, self.structural_le1, self.structural_le2)

    @property
    def total(self) -> int:
        return sum(self.as_tuple())


@dataclass(frozen=True)
class Hierarchy:
    """A carrier with its computed relations.  build_hierarchy is the factory;
    constructing directly skips validation (used for forged test inputs)."""

    carrier: ClosedSet
    top: OrdinalTerm
    le1: FrozenSet[Pair]
    le2: FrozenSet[Pair]
    build_log: Tuple[RoundStats, ...] = ()

    def rel(self, k: int) -> FrozenSet[Pair]:
        if k == 1:
            return self.le1
        if k == 2:
            return self.le2
        raise ValueError("k must be 1 or 2")

    def strict(self, k: int) -> Tuple[Pair, ...]:
        return tuple(sorted((a, b) for a, b in self.rel(k) if a != b))

    def target_spec(self) -> TargetSpec:
        return TargetSpec(carrier=self.carrier, le1=self.le1, le2=self.le2)

    def restrict_pattern(self, subset: Iterable[OrdinalTerm]) -> Pattern:
        """The pattern induced on a closed subset of the carrier."""
        return induced_pattern(subset, self.carrier, self.le1, self.le2)


# ---------------------------------------------------------------------------
# the games
# ---------------------------------------------------------------------------


def reduced_challenge(
    carrier: ClosedSet, alpha: OrdinalTerm, beta: OrdinalTerm, window: int = BUILD_WINDOW
) -> Tuple[OrdinalTerm, ...]:
    """The dominant challenge for a pair: everything below beta, shedding the
    top `window` slice of the carrier below alpha except where closedness of
    the kept elements forces it back in."""
    index = carrier.index
    b = index.below(beta)
    a = min(index.below(alpha), b)
    shed = max(a - window, 0) if window > 0 else a  # ranks shed..a-1 are the zone
    kept = [r == 0 or r < shed or r >= a for r in range(max(b, 1))]  # 0 even if beta = 0
    for r in reversed(range(b)):  # parts before wholes (CarrierIndex)
        if kept[r]:
            for p in index.parts[r]:
                kept[p] = True
    return tuple(x for x, k in zip(carrier.elements, kept) if k)


def game_pass(
    k: int,
    alpha: OrdinalTerm,
    beta: OrdinalTerm,
    carrier: ClosedSet,
    rel1: FrozenSet[Pair],
    rel2: FrozenSet[Pair],
    window: int = BUILD_WINDOW,
    moved_floor: Optional[OrdinalTerm] = None,
    challenge: Optional[Iterable[OrdinalTerm]] = None,
) -> bool:
    """Evaluate the k-round game for one pair against given relations.

    Only the dominant challenge needs checking: a witness for it restricts to
    a witness for every smaller challenge (the test suite verifies this
    against an oracle that sweeps all closed challenges).  The same
    restriction, from the challenge of a larger beta to that of a smaller
    one, is what lets a round infer one-round failures (_game_round, (i)).
    Passing an explicit challenge, a closed subset of the carrier, overrides
    the reduction; moved_floor additionally requires all non-fixed witness
    images to lie strictly above it.

    The challenge is searched with the snapshot relations themselves, not
    their restriction to it: the search only asks about pairs of challenge
    elements, and sharing the target's relation objects lets it use the
    target's memoized rows.
    """
    if alpha == beta:
        return True
    if challenge is None:
        elements = reduced_challenge(carrier, alpha, beta, window)
    else:
        elements = tuple(sorted(set(challenge)))
        if parts_closure(elements) != set(elements) or not carrier.as_set().issuperset(elements):
            raise ValueError("a challenge must be a closed subset of the carrier")
    source = SourceSpec(elements=elements, le1=rel1, le2=rel2)
    target = TargetSpec(carrier=carrier, le1=rel1, le2=rel2)
    # Carrier elements lie below alpha iff their ranks lie below a.  The
    # challenge is closed, so the summands of its part below alpha are that
    # part's indecomposables.
    index = carrier.index
    a = index.below(alpha)
    below_alpha = elements[: bisect_left(elements, a, key=index.rank.__getitem__)]
    pins = {x: x for x in below_alpha if is_indecomposable(x)}
    limits = SearchLimits(pinned=pins, ceiling=alpha, moved_floor=moved_floor)
    if k == 1:
        return first_embedding(source, target, limits) is not None

    # Two-round game: some forward witness must admit a backward map defined
    # on the whole carrier segment below alpha, inverting it on the challenge.
    back_source = SourceSpec(elements=carrier.elements[:a], le1=rel1, le2=rel2)
    indecs = [x for x in elements if is_indecomposable(x)]
    for h in search_embeddings(source, target, limits):
        back_limits = SearchLimits(pinned={h[i]: i for i in indecs}, ceiling=beta)
        if first_embedding(back_source, target, back_limits) is not None:
            return True
    return False


# ---------------------------------------------------------------------------
# structural pruning
# ---------------------------------------------------------------------------


def indecomposable_endpoints(k: int, a: OrdinalTerm, b: OrdinalTerm) -> bool:
    """Strict-pair indecomposability: a strict le1 pair needs an indecomposable
    left element, a strict le2 pair two indecomposable endpoints."""
    return is_indecomposable(a) and (k == 1 or is_indecomposable(b))


def _structural_pass(carrier: ClosedSet, rel1: set, rel2: set) -> Tuple[int, int]:
    """Restore strict-pair indecomposability and the order and respect clauses
    by simultaneous removals, iterated to stability.  Each failed clause drops
    the pair it blames; inside the term order antisymmetry cannot fail."""
    removed1 = removed2 = 0
    while True:
        drop = {
            k: {p for p in rel if p[0] != p[1] and not indecomposable_endpoints(k, *p)}
            for k, rel in ((1, rel1), (2, rel2))
        }
        for clause, k, w in order_clause_failures(carrier.elements, rel1, rel2):
            if clause == "respect":
                drop[k].add((w[0], w[2]))
            elif clause != "antisymmetric":
                drop[k].add(w[:2])
        if not drop[1] and not drop[2]:
            return removed1, removed2
        rel1 -= drop[1]
        rel2 -= drop[2]
        removed1 += len(drop[1])
        removed2 += len(drop[2])


def _game_round(
    carrier: ClosedSet, rel1: set, rel2: set, snap1: FrozenSet[Pair], snap2: FrozenSet[Pair]
) -> Tuple[int, int]:
    """Prune every pair failing its game against the snapshot relations,
    visiting pairs in ascending (beta, alpha) order.

    Two outcomes are inferred instead of played; every game of the round
    reads the same snapshot, so both are exact:

    (i)  once the one-round game of (alpha, beta) fails, it fails for every
         larger beta'.  The reduced challenge of (alpha, beta') keeps the
         same rank cut and shed zone for alpha and contains that of
         (alpha, beta), its pins contain theirs, and the ceiling is alpha
         for both.  A witness for the larger challenge would restrict to one
         for the smaller: the restriction is still arithmetic, increasing,
         below alpha and relation-preserving, and fixes the smaller pins.
    (ii) the two-round game of a pair fails whenever its one-round game
         does: it searches the same source, target and limits and passes
         only after that search yields a forward witness.

    So one failed one-round game of alpha prunes (alpha, beta') from both
    relations for every later beta', whether or not (alpha, beta') is in le1.
    """
    pruned1 = pruned2 = 0
    elems = carrier.elements
    failed1 = set()  # alphas whose one-round game failed at some beta so far
    for b, beta in enumerate(elems):
        for alpha in elems[:b]:
            pair = (alpha, beta)
            if alpha not in failed1 and pair in rel1:
                if not game_pass(1, alpha, beta, carrier, snap1, snap2):
                    failed1.add(alpha)
            if alpha in failed1:  # both games fail, by (i) and (ii)
                pruned1 += pair in rel1
                pruned2 += pair in rel2
                rel1.discard(pair)
                rel2.discard(pair)
            elif pair in rel2 and not game_pass(2, alpha, beta, carrier, snap1, snap2):
                rel2.discard(pair)
                pruned2 += 1
    return pruned1, pruned2


def build_hierarchy(carrier: ClosedSet | Iterable[OrdinalTerm], top: OrdinalTerm) -> Hierarchy:
    """Compute the relations on a closed carrier by iterated elimination.

    top plays the least-upper-bound role: it must be indecomposable and at
    least every carrier element.
    """
    if not isinstance(carrier, ClosedSet):
        carrier = ClosedSet(carrier)
    if not is_indecomposable(top):
        raise ValueError(f"top {format_term(top)} must be indecomposable")
    elems = carrier.elements
    if elems[-1] > top:
        raise ValueError("top must be at least every carrier element")

    n = len(elems)
    rel1 = {(a, b) for i, a in enumerate(elems) for b in elems[i:]}
    rel2 = set(rel1)
    log: List[RoundStats] = []
    for _ in range(n * n):
        snap1, snap2 = frozenset(rel1), frozenset(rel2)
        g1, g2 = _game_round(carrier, rel1, rel2, snap1, snap2)
        s1, s2 = _structural_pass(carrier, rel1, rel2)
        log.append(RoundStats(g1, g2, s1, s2))
        if g1 + g2 + s1 + s2 == 0:
            break
    else:
        raise AssertionError("fixed point not reached within |carrier|^2 rounds")

    return Hierarchy(
        carrier=carrier,
        top=top,
        le1=frozenset(rel1),
        le2=frozenset(rel2),
        build_log=tuple(log),
    )


def one_more_round(H: Hierarchy) -> Tuple[FrozenSet[Pair], FrozenSet[Pair]]:
    """Apply a single game-plus-structural round to H's relations; a built
    hierarchy must come back unchanged."""
    rel1, rel2 = set(H.le1), set(H.le2)
    _game_round(H.carrier, rel1, rel2, H.le1, H.le2)
    _structural_pass(H.carrier, rel1, rel2)
    return frozenset(rel1), frozenset(rel2)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def le_inf(
    H: Hierarchy, k: int, alpha: OrdinalTerm, beta: OrdinalTerm, window: int = 1
) -> bool:
    """Cofinal variant of the pair game on the built relations.

    True iff the base game passes and, for every threshold in the carrier
    below alpha except the `window` largest, the game also passes with all
    non-fixed witness images strictly above the threshold.

    One game decides it, at the largest such threshold (at none when there
    is no threshold).  Raising the floor only removes forward witnesses, and
    the two-round game's backward check does not read the floor, so a
    witness above the largest threshold is a witness above every smaller
    one and for the base game.
    """
    if alpha not in H.carrier or beta not in H.carrier:
        raise ValueError("both endpoints must be carrier elements")
    if not alpha <= beta:
        raise ValueError("le_inf needs alpha <= beta")
    thresholds = H.carrier.elements[: H.carrier.index.below(alpha)]
    selected = thresholds[:-window] if window > 0 else thresholds
    floor = selected[-1] if selected else None
    return game_pass(k, alpha, beta, H.carrier, H.le1, H.le2, moved_floor=floor)


@dataclass(frozen=True)
class AxiomReport:
    """Exact checks of the order, respect and top hypotheses, plus two
    diagnostics that finite truncation is allowed to fail."""

    order_violations: Tuple[str, ...]
    respect_violations: Tuple[str, ...]
    top_violations: Tuple[str, ...]
    elementarity_failures: Tuple[Tuple[int, OrdinalTerm, OrdinalTerm], ...]
    limit_continuity_failures: Tuple[Tuple[OrdinalTerm, OrdinalTerm], ...]

    @property
    def passed_exact(self) -> bool:
        return not (self.order_violations or self.respect_violations or self.top_violations)


_AXIOM_MESSAGES = {
    "antisymmetric": "(b) le{k} not antisymmetric at {w}",
    "transitive": "(b) le{k} not transitive at {w}",
    "inclusion": "(b) le2 pair {w} missing from le1",
    "term order": "(b) le1 pair {w} against the term order",
    "respect": "(c) le{k} skips {w}",
}


def check_hierarchy_axioms(H: Hierarchy, window: int = 1) -> AxiomReport:
    elems = H.carrier.elements
    eset = H.carrier.as_set()
    order: List[str] = []
    respect: List[str] = []
    top: List[str] = []

    for name, rel in (("le1", H.le1), ("le2", H.le2)):
        for x in elems:
            if (x, x) not in rel:
                order.append(f"(b) {name} not reflexive at {format_term(x)}")
        for a, b in sorted(rel - restrict_relation(rel, eset)):
            order.append(
                f"(b) {name} pair outside carrier ({format_term(a)}, {format_term(b)})"
            )
    for clause, k, w in order_clause_failures(elems, H.le1, H.le2):
        if clause == "antisymmetric" and not eset.issuperset(w):
            continue  # both halves are already reported as outside the carrier
        text = "(" + ", ".join(format_term(x) for x in w) + ")"
        message = _AXIOM_MESSAGES[clause].format(k=k, w=text)
        (respect if clause == "respect" else order).append(message)

    if not is_indecomposable(H.top):
        top.append(f"(d) top {format_term(H.top)} is not indecomposable")
    for x in elems:
        if x > H.top:
            top.append(f"(d) carrier element {format_term(x)} exceeds top")

    elementarity = []
    if not order and not respect:
        for k in (1, 2):
            for a, b in sorted(H.rel(k)):
                if a != b and not le_inf(H, k, a, b, window):
                    elementarity.append((k, a, b))

    limit_failures = []
    for b in elems:
        if b.exponents and b.exponents[-1] != ZERO:  # a limit ordinal
            for a in elems:
                if a < b:
                    between = [x for x in elems if a <= x < b]
                    if all((a, x) in H.le1 for x in between) and (a, b) not in H.le1:
                        limit_failures.append((a, b))

    return AxiomReport(
        order_violations=tuple(order),
        respect_violations=tuple(respect),
        top_violations=tuple(top),
        elementarity_failures=tuple(elementarity),
        limit_continuity_failures=tuple(limit_failures),
    )
