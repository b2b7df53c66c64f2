"""Finite two-relation structures over closed ordinal sets.

A pattern is a closed universe with two partial orders le1 and le2 such that
le2 <= le1 <= the term order, and each relation respects the previous one:
a le_{k-1} b le_{k-1} c together with a le_k c forces a le_k b.  The term
order itself (le0) is implicit and never stored.

These order and respect clauses are written once, in order_clause_failures;
pattern validation, the hierarchy's structural pruning and axiom report, and
rule completion all read their verdicts from it.

Relations are read as bitset rows over ranks: for each relation, one Python
int per rank for the pairs leaving it (out) and one for the pairs entering
it (in).  _rows is the one builder; _memo_rows memoizes the rows of a closed
set's relation snapshot, keyed on the identity of the set and of two
frozensets, and numbers elements by the set's rank index
(ClosedSet.index); _memo_store puts rows a caller already holds into the
same memo (the hierarchy build hands over each round's snapshot rows).  The
embedding search, the clause engine (order_clause_failures numbers its own
elements, the hierarchy's structural pass calls its rank core
_clause_failures on the build's rows), the isomorphism key and the
closed-substructure check all read these rows; the frozensets of term pairs
stay the public form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .ordinals import (
    CarrierIndex,
    ClosedSet,
    OrdinalTerm,
    ZERO,
    closure,
    format_term,
    missing_parts,
)

Pair = tuple[OrdinalTerm, OrdinalTerm]


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
    out = set(pairs) if isinstance(pairs, (set, frozenset)) else {(a, b) for a, b in pairs}
    out.update((x, x) for x in universe)
    return frozenset(out)


def restrict_relation(rel: Iterable[Pair], keep) -> FrozenSet[Pair]:
    """The pairs of rel with both endpoints in the set keep."""
    return frozenset(p for p in rel if p[0] in keep and p[1] in keep)


_ROWS_MEMO_SIZE = 8
_rows_memo: Dict[Tuple[int, int, int], tuple] = {}  # least recently used first


def _rows(rank: Mapping, size: int, le1, le2) -> tuple:
    """Bitset rows (out1, in1, out2, in2) of two relations over the elements
    numbered by rank; pairs with an unnumbered endpoint are left out."""
    rows = []
    for rel in (le1, le2):
        out, into = [0] * size, [0] * size
        for a, b in rel:
            ra, rb = rank.get(a), rank.get(b)
            if ra is not None and rb is not None:
                out[ra] |= 1 << rb
                into[rb] |= 1 << ra
        rows += (out, into)
    return tuple(rows)


def _memo_rows(elements: ClosedSet, le1, le2) -> tuple:
    """The rows of le1 and le2 over the ranks of a closed set, memoized per
    frozenset snapshot in a small least-recently-used memo; a hit moves its
    entry to the recently used end.  An entry holds its three objects alive,
    so their ids cannot be reused while it is live.  Mutable relations can
    change between calls, so they are never memoized."""
    if not (isinstance(le1, frozenset) and isinstance(le2, frozenset)):
        return _rows(elements.index.rank, len(elements), le1, le2)
    key = (id(elements), id(le1), id(le2))
    hit = _rows_memo.pop(key, None)
    if hit is None:
        return _memo_store(elements, le1, le2, _rows(elements.index.rank, len(elements), le1, le2))
    _rows_memo[key] = hit
    return hit[3]


def _memo_store(elements: ClosedSet, le1: FrozenSet[Pair], le2: FrozenSet[Pair], rows: tuple) -> tuple:
    """Put rows into the memo as the rows of the frozensets le1 and le2 over
    the ranks of elements, as the most recently used entry, and return them.
    A caller that already holds the rows (the hierarchy build) hands them
    over here; they must not change afterwards."""
    key = (id(elements), id(le1), id(le2))
    _rows_memo.pop(key, None)
    if len(_rows_memo) >= _ROWS_MEMO_SIZE:
        del _rows_memo[next(iter(_rows_memo))]
    _rows_memo[key] = (elements, le1, le2, rows)
    return rows


def _bits(mask: int) -> List[int]:
    """The ranks set in mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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

    The pairs are read as rows over ranks, and the middle element b and the
    third element c range over elems only.  elems are numbered in order; only
    when a pair leaves elems are its outside endpoints numbered too, all in
    term order, with a mask of the ranks of elems.  The clauses themselves
    are evaluated on those rows by _clause_failures, whose rank witnesses
    are mapped back to terms here.
    """
    terms = elems
    rank = {x: r for r, x in enumerate(terms)}
    rows = _rows(rank, len(terms), le1, le2)
    inside = (1 << len(terms)) - 1
    if sum(map(int.bit_count, rows[0] + rows[2])) != len(le1) + len(le2):
        # some pair leaves elems
        terms = sorted(set(elems).union(*le1, *le2))
        rank = {x: r for r, x in enumerate(terms)}
        rows = _rows(rank, len(terms), le1, le2)
        inside = sum(1 << rank[x] for x in elems)
    for clause, k, w in _clause_failures(rows, inside):
        yield clause, k, tuple(terms[r] for r in w)


def _clause_failures(rows: tuple, inside: int) -> Iterator[Tuple[str, int, Tuple[int, ...]]]:
    """order_clause_failures on ranks: the failed clauses of the relations
    held in rows (out1, in1, out2, in2), numbered in term order, with middle
    and third elements drawn from the ranks in the mask inside, each witness
    a tuple of ranks, in the same order.  Each clause is a row operation per
    rank a: antisymmetry is out[a] & in[a] above the diagonal, transitivity
    out[b] & inside & ~out[a] for each strict successor b of a, inclusion
    out2[a] & ~out1[a], term order out1[a] below the diagonal, 1-respect the
    ranks from a to c in inside & ~out1[a], and 2-respect
    out1[a] & inside & in1[c] & ~out2[a]."""
    out1, in1, out2, in2 = rows
    # a rank whose rows hold its reflexive pair and nothing else starts no
    # failed clause, so only the other ranks are walked as a
    ranks = [a for a in range(len(out1)) if out1[a] != 1 << a or out2[a] != 1 << a]
    for k, out, into in ((1, out1, in1), (2, out2, in2)):
        for a in ranks:
            for b in _bits(out[a] & into[a] & -(2 << a)):  # -(2 << a): the ranks above a
                yield "antisymmetric", k, (a, b)
        for a in ranks:
            row = out[a]
            for b in _bits(row & ~(1 << a)):
                for c in _bits(out[b] & inside & ~row):
                    yield "transitive", k, (a, b, c)
    for a in ranks:
        for b in _bits(out2[a] & ~out1[a]):
            yield "inclusion", 2, (a, b)
    for a in ranks:
        for b in _bits(out1[a] & ((1 << a) - 1)):
            yield "term order", 1, (a, b)
    for a in ranks:
        missing = inside & ~out1[a] & -(1 << a)  # the ranks b >= a in inside but not in a's row
        if missing:
            for c in _bits(out1[a] & -(1 << a)):
                for b in _bits(missing & ((2 << c) - 1)):
                    yield "respect", 1, (a, b, c)
    for a in ranks:
        middle = out1[a] & inside & ~out2[a]
        if middle:
            for c in _bits(out2[a]):
                for b in _bits(middle & in1[c]):
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
    out: List[Violation] = []
    if isinstance(universe, ClosedSet):  # closed by construction
        elems, eset = universe.elements, universe.as_set()
    else:
        eset = frozenset(universe)
        elems = sorted(eset)
        if ZERO not in eset:
            out.append(Violation("universe not closed (missing 0)", (ZERO,)))
        out.extend(Violation("universe not closed", w) for w in missing_parts(elems))

    inside = []
    for name, rel in (("le1", le1), ("le2", le2)):
        rel = _normalize(elems, rel)
        outside = sorted(p for p in rel if p[0] not in eset or p[1] not in eset)
        out.extend(Violation(f"{name} pair outside universe", p) for p in outside)
        inside.append(rel.difference(outside) if outside else rel)

    reported = set()
    for clause, k, w in order_clause_failures(elems, *inside):
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
    return Q.universe <= P.universe and _is_restriction(Q, P.universe, P.le1, P.le2)


def _is_restriction(Q: Pattern, universe: ClosedSet, le1, le2) -> bool:
    """True iff Q's relations are le1 and le2 restricted to Q's universe, a
    subset of universe.  A pattern holds no pair outside its universe, so
    this is containment plus equal sizes, the restriction's size being the
    popcount of universe's out-rows of Q's ranks under Q's rank mask."""
    rank = universe.index.rank
    ranks = [rank[x] for x in Q.universe]
    mask = sum(1 << r for r in ranks)
    out1, _, out2, _ = _memo_rows(universe, le1, le2)
    return all(
        q <= rel and sum((out[r] & mask).bit_count() for r in ranks) == len(q)
        for q, rel, out in ((Q.le1, le1, out1), (Q.le2, le2, out2))
    )


def _rank_key(index: CarrierIndex, ranks: Sequence[int], rows: tuple) -> Tuple[tuple, tuple]:
    """isomorphism_type of the closed subset at the ascending ranks of index,
    read from the summand ranks of index and the out-rows of rows, which
    number the same set."""
    pos = {r: i for i, r in enumerate(ranks)}
    summands = index.summands
    indecs = {r: i for i, r in enumerate(r for r in ranks if len(summands[r]) == 1)}
    shape = tuple(tuple(indecs[s] for s in summands[r]) for r in ranks)
    mask = sum(1 << r for r in ranks)
    pairs = []
    for out in (rows[0], rows[2]):
        found = []
        for i, r in enumerate(ranks):
            strict = out[r] & mask & ~(1 << r)
            if strict:
                found += [(i, pos[s]) for s in _bits(strict)]
        pairs.append(tuple(found))
    return shape, tuple(pairs)


def isomorphism_type(
    elements: Sequence[OrdinalTerm], le1: AbstractSet[Pair], le2: AbstractSet[Pair]
) -> Tuple[tuple, tuple]:
    """The isomorphism key of le1 and le2 on the ascending closed universe
    elements: each element as the positions of its summands among the
    indecomposables, paired with the strict pairs of le1 and le2 between the
    elements as position pairs, in ascending order.  The canonical
    isomorphism sends the i-th indecomposable to the i-th and extends
    additively, so it preserves order: patterns are isomorphic exactly when
    their keys are equal, positionally.  Raises ValueError when elements is
    not closed (lacks 0 or a split part of an element)."""
    universe = elements if isinstance(elements, ClosedSet) else ClosedSet(elements)
    index = universe.index
    return _rank_key(index, range(len(universe)), _rows(index.rank, len(universe), le1, le2))


def find_isomorphism(P: Pattern, Q: Pattern) -> Optional[Dict[OrdinalTerm, OrdinalTerm]]:
    """The canonical pattern isomorphism (see isomorphism_type) as a map from
    P's universe onto Q's, or None when the patterns are not isomorphic.
    Each key is read from the pattern's universe index and the memoized rows
    of its relations, which a covering search of it has usually just built."""
    if P is not Q:
        keys = [
            _rank_key(R.universe.index, range(len(R.universe)), _memo_rows(R.universe, R.le1, R.le2))
            for R in (P, Q)
        ]
        if keys[0] != keys[1]:
            return None
    return dict(zip(P.universe, Q.universe))


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
