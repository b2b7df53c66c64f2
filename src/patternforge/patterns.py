"""Finite two-relation structures over closed ordinal sets.

A pattern is a closed universe with two partial orders le1 and le2 such that
le2 <= le1 <= the term order, and each relation respects the previous one:
a le_{k-1} b le_{k-1} c together with a le_k c forces a le_k b.  The term
order itself (le0) is implicit and never stored.

These order and respect clauses are written once, in order_clause_failures;
pattern validation, the hierarchy's structural pruning and axiom report, and
rule completion all read their verdicts from it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .ordinals import (
    ClosedSet,
    OrdinalTerm,
    ZERO,
    closure,
    format_term,
    is_indecomposable,
    split_parts,
)

Pair = Tuple[OrdinalTerm, OrdinalTerm]


@dataclass(frozen=True)
class Violation:
    """One failed invariant clause with a minimal witness."""

    clause: str
    witness: Tuple[OrdinalTerm, ...]

    def describe(self) -> str:
        w = ", ".join(format_term(t) for t in self.witness)
        return f"{self.clause}: ({w})"


class InvalidPatternError(ValueError):
    def __init__(self, violations: Sequence[Violation]):
        self.violations = tuple(violations)
        lines = "; ".join(v.describe() for v in violations)
        super().__init__(f"invalid pattern: {lines}")


def _normalize(universe, pairs) -> FrozenSet[Pair]:
    """Relation as a frozenset including all reflexive pairs."""
    out = set((a, b) for a, b in pairs)
    out.update((x, x) for x in universe)
    return frozenset(out)


def restrict_relation(rel: Iterable[Pair], keep) -> FrozenSet[Pair]:
    """The pairs of rel with both endpoints in the set keep."""
    return frozenset(p for p in rel if p[0] in keep and p[1] in keep)


def order_clause_failures(
    elems: Sequence[OrdinalTerm], le1: AbstractSet[Pair], le2: AbstractSet[Pair]
) -> Iterator[Tuple[str, int, Tuple[OrdinalTerm, ...]]]:
    """Every failed order or respect clause of (le1, le2) over the ascending
    elems, as (clause, k, witness), in this order (le1 before le2 in the
    first two; witnesses ascend within a clause, pair first):

      antisymmetric  k (a, b)     a < b, both (a, b) and (b, a) in le_k
      transitive     k (a, b, c)  (a, b), (b, c) in le_k but not (a, c)
      inclusion      2 (a, b)     (a, b) in le2 but not in le1
      term order     1 (a, b)     (a, b) in le1 but not a <= b
      respect        k (a, b, c)  (a, c) in le_k, a le_{k-1} b le_{k-1} c with
                                  le0 the term order, but not (a, b)

    The middle element b and the third element c are walked in ascending
    order among elems only: transitivity walks c over b's successors in
    le_k, 2-respect walks b over a's successors in le1 (both lists built
    once, from the sorted pairs), and 1-respect walks b over the slice of
    elems between a and c, found by bisection.
    """
    eset = set(elems)
    sorted1, sorted2 = sorted(le1), sorted(le2)
    succ1, succ2 = {}, {}  # element -> its successors in elems, ascending
    for succ, pairs in ((succ1, sorted1), (succ2, sorted2)):
        for a, b in pairs:
            if b in eset:
                succ.setdefault(a, []).append(b)
    for k, rel, pairs, succ in ((1, le1, sorted1, succ1), (2, le2, sorted2, succ2)):
        for a, b in pairs:
            if (b, a) in rel and a < b:
                yield "antisymmetric", k, (a, b)
        for a, b in pairs:
            for c in succ.get(b, ()):
                if (a, c) not in rel:
                    yield "transitive", k, (a, b, c)
    for a, b in sorted2:
        if (a, b) not in le1:
            yield "inclusion", 2, (a, b)
    for a, b in sorted1:
        if not a <= b:
            yield "term order", 1, (a, b)
    for a, c in sorted1:
        for b in elems[bisect_left(elems, a) : bisect_right(elems, c)]:
            if (a, b) not in le1:
                yield "respect", 1, (a, b, c)
    for a, c in sorted2:
        for b in succ1.get(a, ()):
            if (b, c) in le1 and (a, b) not in le2:
                yield "respect", 2, (a, b, c)


_VIOLATION_NAMES = {
    "antisymmetric": "le{k} not antisymmetric",
    "transitive": "le{k} not transitive",
    "inclusion": "le2 not within le1",
    "term order": "le1 not within the term order",
    "respect": "le{k} does not respect le{j}",
}


def validate_structure(
    universe: Iterable[OrdinalTerm],
    le1: Iterable[Pair],
    le2: Iterable[Pair],
) -> List[Violation]:
    """Check every pattern invariant on a candidate structure.

    Reflexive pairs are taken as implicitly present.  Returns all violated
    clauses, each with a witness pair or triple; an empty list means valid.
    A respect failure is reported once per pair, with its least witness.
    """
    elems = sorted(set(universe))
    eset = frozenset(elems)
    out: List[Violation] = []

    if ZERO not in eset:
        out.append(Violation("universe not closed (missing 0)", (ZERO,)))
    for x in elems:
        for p in split_parts(x):
            if p not in eset:
                out.append(Violation("universe not closed", (x, p)))

    r1 = _normalize(elems, le1)
    r2 = _normalize(elems, le2)
    inside1 = restrict_relation(r1, eset)
    inside2 = restrict_relation(r2, eset)
    for name, rel, inside in (("le1", r1, inside1), ("le2", r2, inside2)):
        for a, b in sorted(rel - inside):
            out.append(Violation(f"{name} pair outside universe", (a, b)))

    reported = set()
    for clause, k, w in order_clause_failures(elems, inside1, inside2):
        if clause == "respect":
            if (k, w[0], w[2]) in reported:
                continue
            reported.add((k, w[0], w[2]))
        out.append(Violation(_VIOLATION_NAMES[clause].format(k=k, j=k - 1), w))
    return out


class Pattern:
    """Validated immutable pattern.  Relations are stored with reflexive pairs."""

    __slots__ = ("universe", "le1", "le2")

    def __init__(
        self,
        universe: Iterable[OrdinalTerm] | ClosedSet,
        le1: Iterable[Pair] = (),
        le2: Iterable[Pair] = (),
    ):
        if not isinstance(universe, ClosedSet):
            universe = ClosedSet(universe)
        r1 = _normalize(universe, le1)
        r2 = _normalize(universe, le2)
        violations = validate_structure(universe, r1, r2)
        if violations:
            raise InvalidPatternError(violations)
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "le1", r1)
        object.__setattr__(self, "le2", r2)

    def __setattr__(self, name, value):
        raise AttributeError("Pattern is immutable")

    def __eq__(self, other):
        if not isinstance(other, Pattern):
            return NotImplemented
        return (
            self.universe == other.universe
            and self.le1 == other.le1
            and self.le2 == other.le2
        )

    def __hash__(self):
        return hash((self.universe, self.le1, self.le2))

    def __repr__(self):
        u = ", ".join(format_term(x) for x in self.universe)
        return f"Pattern({{{u}}}, le1={len(self.strict_le1())}, le2={len(self.strict_le2())})"

    def rel(self, k: int) -> FrozenSet[Pair]:
        if k == 1:
            return self.le1
        if k == 2:
            return self.le2
        raise ValueError("k must be 1 or 2")

    def strict_le1(self) -> Tuple[Pair, ...]:
        return tuple(sorted((a, b) for a, b in self.le1 if a != b))

    def strict_le2(self) -> Tuple[Pair, ...]:
        return tuple(sorted((a, b) for a, b in self.le2 if a != b))

    @property
    def indecomposables(self) -> Tuple[OrdinalTerm, ...]:
        return self.universe.indecomposables

    def restrict(self, subset: Iterable[OrdinalTerm]) -> "Pattern":
        """The induced substructure on a closed subset of the universe."""
        return induced_pattern(subset, self.universe, self.le1, self.le2)


def induced_pattern(
    subset: Iterable[OrdinalTerm], universe: ClosedSet, le1: FrozenSet[Pair], le2: FrozenSet[Pair]
) -> Pattern:
    """The pattern that le1 and le2 induce on a closed subset of universe."""
    sub = ClosedSet(subset)
    for x in sub:
        if x not in universe:
            raise ValueError(f"{format_term(x)} is not in the universe")
    keep = sub.as_set()
    return Pattern(sub, restrict_relation(le1, keep), restrict_relation(le2, keep))


def trivial_pattern(universe: Iterable[OrdinalTerm]) -> Pattern:
    """Pattern with reflexive-only relations on the closure of the given terms."""
    return Pattern(closure(universe))


def is_closed_substructure(Q: Pattern, P: Pattern) -> bool:
    """True iff Q's universe is a closed subset of P's and Q's relations are
    exactly P's restrictions."""
    if not Q.universe <= P.universe:
        return False
    keep = Q.universe.as_set()
    return Q.le1 == restrict_relation(P.le1, keep) and Q.le2 == restrict_relation(P.le2, keep)


def isomorphism_type(
    elements: Sequence[OrdinalTerm], le1: AbstractSet[Pair], le2: AbstractSet[Pair]
) -> Tuple[tuple, tuple]:
    """The isomorphism key of le1 and le2 on the ascending closed universe
    elements: each element as the positions of its summands among the
    indecomposables, paired with the strict pairs of le1 and le2 between the
    elements as position pairs.  The canonical isomorphism sends the i-th
    indecomposable to the i-th and extends additively, so it preserves order:
    patterns are isomorphic exactly when their keys are equal, positionally."""
    pos = {x: i for i, x in enumerate(elements)}
    # the summand w^g of an element is named by its exponent g
    indecs = {x.exponents[0]: i for i, x in enumerate(filter(is_indecomposable, elements))}
    shape = tuple(tuple(indecs[g] for g in x.exponents) for x in elements)
    pairs = tuple(
        tuple(sorted((pos[a], pos[b]) for a, b in restrict_relation(rel, pos) if a != b))
        for rel in (le1, le2)
    )
    return shape, pairs


def find_isomorphism(P: Pattern, Q: Pattern) -> Optional[Dict[OrdinalTerm, OrdinalTerm]]:
    """The canonical pattern isomorphism (see isomorphism_type) as a map from
    P's universe onto Q's, or None when the patterns are not isomorphic."""
    keys = [isomorphism_type(R.universe.elements, R.le1, R.le2) for R in (P, Q)]
    return dict(zip(P.universe, Q.universe)) if keys[0] == keys[1] else None


def _ascending(X: Iterable[OrdinalTerm]) -> Sequence[OrdinalTerm]:
    """X as an ascending sequence without repeats; a tuple that already is one
    (a covering range, a closed set's elements) is returned as it is."""
    if isinstance(X, tuple) and all(a < b for a, b in zip(X, X[1:])):
        return X
    return sorted(set(X))


def pointwise_le(X: Iterable[OrdinalTerm], Y: Iterable[OrdinalTerm]) -> bool:
    """Compare equal-size finite sets position by position in increasing order."""
    xs, ys = _ascending(X), _ascending(Y)
    if len(xs) != len(ys):
        raise ValueError(f"pointwise order needs equal sizes, got {len(xs)} and {len(ys)}")
    return all(x <= y for x, y in zip(xs, ys))


def covers(S: Pattern, T: Pattern) -> bool:
    """True iff S and T share a universe and S carries at least T's relations."""
    if S.universe != T.universe:
        raise ValueError("covers requires identical universes")
    return T.le1 <= S.le1 and T.le2 <= S.le2
