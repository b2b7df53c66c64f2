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
uses (the pass calls its rank core, patterns._clause_failures), plus
strict-pair indecomposability (indecomposable_endpoints, applied as rank
masks).  Rounds evaluate all pairs against an immutable snapshot, so the
result is independent of evaluation order and bit-exact across rebuilds.

A round decides some games without playing them, and prunes exactly what
playing them would (see _game_round):
  (i)   a failed one-round game of (alpha, beta) fails for every larger beta.
        The larger beta's reduced challenge keeps alpha's rank cut and shed
        zone, so it contains the smaller one, with more pins and the same
        ceiling alpha; restricting a witness for it, as game_pass does for
        the dominant challenge, would give a witness for the smaller one.
  (ii)  a pair's two-round game fails whenever its one-round game fails: it
        passes only through a forward witness of the same search.
  (iii) a decomposable alpha, 0 included, loses every one-round game, and
        so by (ii) every two-round game.  Its reduced challenge keeps alpha
        (only ranks below alpha are shed) and, being closed, all of alpha's
        summands.  They lie below alpha, so they are pinned to themselves,
        and alpha's image, the sum of theirs, is alpha itself, which is not
        below the ceiling alpha.  For alpha = 0 the ceiling admits no rank
        at all, not even 0's own image.

The build holds its relations as bitset rows over carrier ranks, the layout
of patterns._rows: per relation one Python int per rank for the pairs
leaving it (out) and one for the pairs entering it (in), from the full
order to the fixed point.  A round's game step visits only the pairs the
rows hold and prunes failed alphas by mask; the structural pass clears the
bits the indecomposability masks and the clause core blame, in both rows.
Each round builds its snapshot frozensets from the rows once, one object
for both relations when their rows agree (always in the first round), and
hands a copy of the rows to the rows memo of patterns under them, so no
game rebuilds rows.  The last round prunes nothing, so its snapshot is the
built hierarchy's relations, already in the memo.

The games run on the carrier's rank index (ClosedSet.index): the reduced
challenge is cut out by rank bounds and closed by one descending sweep
over split-part ranks, and the pins and the backward source are prefixes of
the challenge and of the carrier.  Every game of a round hands the search
the same snapshot frozensets, unrestricted, as both the challenge's and the
carrier's relations, so the search reads the memoized snapshot rows for
both (see embedding).  A pair's two-round game starts from the witness of
its one-round game, played just before on the same snapshot, instead of
searching for it again (see game_pass).  Hierarchy.target_spec passes the
built relations themselves, so all coverings into one hierarchy share one
set of rows.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, islice
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
from .patterns import (
    Pattern,
    _bits,
    _clause_failures,
    _memo_rows,
    _memo_store,
    induced_pattern,
    order_clause_failures,
    restrict_relation,
)

Pair = tuple[OrdinalTerm, OrdinalTerm]
Rows = Tuple[List[int], List[int], List[int], List[int]]  # out1, in1, out2, in2

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


# The one-round game that passed last, with its witness.  The round plays a
# pair's two-round game right after its one-round game, and that game's
# search, on the same arguments, yields the same witness first.  The entry
# holds the carrier and relations alive, so they are compared by identity;
# games with an explicit challenge or mutable relations are never recorded.
_last_witness: list = [None]


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

    A two-round game played right after a passing one-round game on the same
    arguments, as a round plays a pair's games, tries that game's witness
    first: its own forward search would yield the same witness first, so
    only a failed backward check makes it search, from the second witness.
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
    game = (alpha, beta, window, moved_floor)
    reusable = challenge is None and isinstance(rel1, frozenset) and isinstance(rel2, frozenset)
    if k == 1:
        h = first_embedding(source, target, limits)
        _last_witness[0] = (carrier, rel1, rel2, game, h) if h is not None and reusable else None
        return h is not None

    # Two-round game: some forward witness must admit a backward map defined
    # on the whole carrier segment below alpha, inverting it on the challenge.
    back_source = SourceSpec(elements=carrier.elements[:a], le1=rel1, le2=rel2)
    indecs = [x for x in elements if is_indecomposable(x)]
    witnesses = search_embeddings(source, target, limits)
    last = _last_witness[0]
    same = last is not None and last[0] is carrier and last[1] is rel1 and last[2] is rel2
    if reusable and same and last[3] == game:
        witnesses = chain([last[4]], islice(witnesses, 1, None))  # the same first
    for h in witnesses:
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


def _decomposables(carrier: ClosedSet) -> int:
    """The mask of the carrier's decomposable ranks, 0 included."""
    return (1 << len(carrier)) - 1 - sum(1 << r for r in carrier.index.indecomposables)


def _structural_pass(carrier: ClosedSet, rows: Rows) -> Tuple[int, int]:
    """Restore strict-pair indecomposability and the order and respect clauses
    by simultaneous removals from the rows, iterated to stability.

    rows are the build's live (out1, in1, out2, in2) over carrier ranks.
    Indecomposability is a mask per rank: a decomposable rank keeps no strict
    pair leaving it in either relation, an indecomposable one no strict le2
    pair into a decomposable rank.  Each clause that the rank core of the
    clause engine (patterns._clause_failures) reports failed drops the pair
    it blames; inside the term order antisymmetry cannot fail."""
    out1, in1, out2, in2 = rows
    n = len(out1)
    loose = _decomposables(carrier)
    removed1 = removed2 = 0
    while True:
        drop1 = [out1[a] & ~(1 << a) if loose >> a & 1 else 0 for a in range(n)]
        drop2 = [out2[a] & ~(1 << a) & (-1 if loose >> a & 1 else loose) for a in range(n)]
        for clause, k, w in _clause_failures(rows, (1 << n) - 1):
            if clause != "antisymmetric":
                a, b = (w[0], w[2]) if clause == "respect" else w[:2]
                (drop1 if k == 1 else drop2)[a] |= 1 << b
        count1 = sum(map(int.bit_count, drop1))
        count2 = sum(map(int.bit_count, drop2))
        if not count1 and not count2:
            return removed1, removed2
        for out, into, drop in ((out1, in1, drop1), (out2, in2, drop2)):
            for a, mask in enumerate(drop):
                if mask:
                    out[a] ^= mask
                    for b in _bits(mask):
                        into[b] ^= 1 << a
        removed1 += count1
        removed2 += count2


def _game_round(
    carrier: ClosedSet, rows: Rows, snap1: FrozenSet[Pair], snap2: FrozenSet[Pair]
) -> Tuple[int, int]:
    """Prune every pair failing its game against the snapshot relations,
    visiting pairs in ascending (beta, alpha) order.

    rows are the build's live (out1, in1, out2, in2) over carrier ranks, at
    the start of the round equal to the snapshot's.  For each beta rank b
    only the pairs present in either relation are visited, the ranks set in
    (in1[b] | in2[b]) below b; a pair's games read the snapshot, and a
    pruned pair is cleared from both of its rows.

    Three outcomes are inferred instead of played; every game of the round
    reads the same snapshot, so all are exact:

    (i)   once the one-round game of (alpha, beta) fails, it fails for every
          larger beta'.  The reduced challenge of (alpha, beta') keeps the
          same rank cut and shed zone for alpha and contains that of
          (alpha, beta), its pins contain theirs, and the ceiling is alpha
          for both.  A witness for the larger challenge would restrict to one
          for the smaller: the restriction is still arithmetic, increasing,
          below alpha and relation-preserving, and fixes the smaller pins.
    (ii)  the two-round game of a pair fails whenever its one-round game
          does: it searches the same source, target and limits and passes
          only after that search yields a forward witness.
    (iii) a decomposable alpha, 0 included, fails every one-round game, and
          so by (ii) every two-round game (see the module docstring).

    So the alphas whose one-round game has failed form a mask, which starts
    as the decomposable ranks, and every pair (alpha, beta') whose alpha is
    in it is pruned from both relations, whether or not it is in le1.
    """
    out1, in1, out2, in2 = rows
    elems = carrier.elements
    failed = _decomposables(carrier)  # (iii)
    cut = {a: a + 1 for a in _bits(failed)}  # failed alpha -> first beta rank pruned
    pruned1 = pruned2 = 0
    for b, beta in enumerate(elems):
        below = (1 << b) - 1
        for a in _bits((in1[b] | in2[b]) & below & ~failed):
            if in1[b] >> a & 1 and not game_pass(1, elems[a], beta, carrier, snap1, snap2):
                failed |= 1 << a  # (i)
                cut[a] = b
            elif in2[b] >> a & 1 and not game_pass(2, elems[a], beta, carrier, snap1, snap2):
                in2[b] ^= 1 << a
                out2[a] ^= 1 << b
                pruned2 += 1
        # both games of a failed alpha fail, by (i), (ii) and (iii)
        dead1, dead2 = in1[b] & below & failed, in2[b] & below & failed
        in1[b] ^= dead1
        in2[b] ^= dead2
        pruned1 += dead1.bit_count()
        pruned2 += dead2.bit_count()
    for a, b in cut.items():  # the out-rows lose the same pairs
        out1[a] &= (1 << b) - 1
        out2[a] &= (1 << b) - 1
    return pruned1, pruned2


def _relations(carrier: ClosedSet, rows: Rows) -> Tuple[FrozenSet[Pair], FrozenSet[Pair]]:
    """The relations held in rows as frozensets of term pairs; one object
    serves as both when the two relations' rows agree."""
    elems = carrier.elements
    rels = [
        frozenset([(x, elems[b]) for x, row in zip(elems, out) for b in _bits(row)])
        for out in ((rows[0],) if rows[0] == rows[2] else (rows[0], rows[2]))
    ]
    return rels[0], rels[-1]


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
    out = [((1 << n) - 1) >> a << a for a in range(n)]  # the full order
    into = [(2 << b) - 1 for b in range(n)]
    rows = (out, into, list(out), list(into))
    log: List[RoundStats] = []
    for _ in range(n * n):
        snap1, snap2 = _relations(carrier, rows)
        _memo_store(carrier, snap1, snap2, tuple(map(list, rows)))
        g1, g2 = _game_round(carrier, rows, snap1, snap2)
        s1, s2 = _structural_pass(carrier, rows)
        log.append(RoundStats(g1, g2, s1, s2))
        if g1 + g2 + s1 + s2 == 0:
            break  # the rows still equal this round's snapshot
    else:
        raise AssertionError("fixed point not reached within |carrier|^2 rounds")

    return Hierarchy(carrier=carrier, top=top, le1=snap1, le2=snap2, build_log=tuple(log))


def one_more_round(H: Hierarchy) -> Tuple[FrozenSet[Pair], FrozenSet[Pair]]:
    """Apply a single game-plus-structural round to H's relations; a built
    hierarchy must come back unchanged.

    The round runs on rows over carrier ranks, which cannot hold a pair with
    an endpoint outside the carrier; only a directly constructed Hierarchy
    can have one, and it raises ValueError naming the pair."""
    carrier = H.carrier
    snapshot = _memo_rows(carrier, H.le1, H.le2)
    for k, rel, out in ((1, H.le1, snapshot[0]), (2, H.le2, snapshot[2])):
        if sum(map(int.bit_count, out)) != len(rel):
            a, b = min(p for p in rel if p[0] not in carrier or p[1] not in carrier)
            raise ValueError(f"le{k} pair ({format_term(a)}, {format_term(b)}) leaves the carrier")
    rows = tuple(map(list, snapshot))
    _game_round(carrier, rows, H.le1, H.le2)
    _structural_pass(carrier, rows)
    return _relations(carrier, rows)


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
