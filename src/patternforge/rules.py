"""Rule instances: premise/conclusion pattern pairs fed to the cofinal
validity tester.

Two structured constructors rebuild the operational shape of arithmetic
extension (no new indecomposables) and downward 1-reflection (a fresh
order-isomorphic copy of a slice interpolated below its source).  Semantic
adequacy of an instance is not guaranteed by construction; that is exactly
what budgeted cofinal-validity testing probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Tuple

from .ordinals import (
    ONE,
    OrdinalTerm,
    ZERO,
    add,
    closure,
    format_term,
    induced_embedding,
    is_indecomposable,
    omega_power,
    parts_closure,
    summands,
)
from .patterns import Pattern, is_closed_substructure, order_clause_failures, restrict_relation

VALID_KINDS = ("arith_ext", "reflect1_down", "generic")


@dataclass(frozen=True)
class RuleInstance:
    premise: Pattern
    conclusion: Pattern
    kind: str

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if not is_closed_substructure(self.premise, self.conclusion):
            raise ValueError("premise must be a closed substructure of the conclusion")


def _respect_transitive_completion(universe, le1: Set, le2: Set) -> Tuple[Set, Set]:
    """Least relation pair containing the given ones that is transitive and
    respectful, with le2 inside le1; grows the relations, never the universe.
    Each failed clause adds the pair it misses, until none is missing."""
    elems = sorted(universe)
    le1 = set(le1) | {(x, x) for x in elems}
    le2 = set(le2) | {(x, x) for x in elems}
    while True:
        missing = {1: set(), 2: set()}
        for clause, k, w in order_clause_failures(elems, le1, le2):
            if clause == "transitive":
                missing[k].add((w[0], w[2]))
            elif clause == "respect":
                missing[k].add(w[:2])
            elif clause == "inclusion":
                missing[1].add(w)
        if not missing[1] and not missing[2]:
            return le1, le2
        le1 |= missing[1]
        le2 |= missing[2]


def make_arith_ext(P: Pattern, new_terms: Iterable[OrdinalTerm]) -> RuleInstance:
    """Extend P's universe by terms whose indecomposables all occur in P
    already; relations grow only by what respect and transitivity force."""
    grown = closure(set(P.universe.elements) | set(new_terms))
    old_indecs = set(P.universe.indecomposables)
    for x in grown:
        if is_indecomposable(x) and x not in old_indecs:
            raise ValueError(
                f"arithmetic extension may not introduce indecomposable {format_term(x)}"
            )
    le1, le2 = _respect_transitive_completion(grown, set(P.le1), set(P.le2))
    conclusion = Pattern(grown, le1, le2)
    return RuleInstance(P, conclusion, "arith_ext")


def _fresh_indecomposables(
    lo: OrdinalTerm, hi: OrdinalTerm, used: Set[OrdinalTerm], count: int
) -> Optional[List[OrdinalTerm]]:
    """The `count` least unused indecomposables strictly between lo and hi.

    Candidate exponents are the finite ordinals merged with successors of
    lo's leading exponent, which covers every desk-scale gap that contains
    indecomposables at all.
    """
    if count == 0:
        return []
    candidates: List[OrdinalTerm] = []
    exponents = [OrdinalTerm()]
    for _ in range(64):
        exponents.append(add(exponents[-1], ONE))
    if lo.exponents:
        base = lo.exponents[0]
        for k in range(64):
            exponents.append(add(base, _finite(k)))
    seen = set()
    for g in sorted(exponents):
        if g in seen:
            continue
        seen.add(g)
        cand = omega_power(g)
        if lo < cand < hi and cand not in used:
            candidates.append(cand)
            if len(candidates) == count:
                return sorted(candidates)
    return None


def _finite(k: int) -> OrdinalTerm:
    return OrdinalTerm((ZERO,) * k)


def make_reflect1_down(
    P: Pattern,
    a: OrdinalTerm,
    b: OrdinalTerm,
    X: Iterable[OrdinalTerm],
) -> RuleInstance:
    """Reflect the slice X downward from b: interpolate a fresh arithmetic
    copy of X strictly between everything of P below a and b, copying
    relations so the old-below-a part together with the copy covers the
    old-below-a part together with X.

    The copy may straddle a; the fresh indecomposables chosen are the least
    available, recorded implicitly by the conclusion.  Raises when the term
    order offers no room.
    """
    X = sorted(set(X))
    if (a, b) not in P.le1 or a == b:
        raise ValueError("need a strictly le1-below b in P")
    below_a = [x for x in P.universe if x < a]
    for x in X:
        if x not in P.universe.as_set():
            raise ValueError(f"{format_term(x)} is not in the premise universe")
        if not x <= b or any(not y < x for y in below_a):
            raise ValueError("X must lie strictly above everything below a, at most b")
    if not X:
        return RuleInstance(P, P, "reflect1_down")

    below_set = set(below_a)
    copied = sorted(parts_closure(X) - {ZERO} - below_set)
    moved_indecs = sorted(
        {s for x in copied for s in summands(x) if s not in below_set}
    )
    lo = max(below_a) if below_a else ZERO
    fresh = _fresh_indecomposables(
        lo, b, set(P.universe.elements), len(moved_indecs)
    )
    if fresh is None:
        raise ValueError("no fresh indecomposable available in the term-order gap")
    slice_elems = sorted(below_set | set(copied) | {ZERO})
    copy_map = {s: s for s in below_a if is_indecomposable(s)}
    copy_map.update(dict(zip(moved_indecs, fresh)))
    image = induced_embedding(copy_map, slice_elems)
    tilde = {image[x] for x in copied}
    if any(not (lo < t < b) for t in tilde):
        raise ValueError("no fresh indecomposable available in the term-order gap")

    new_universe = closure(set(P.universe.elements) | tilde)
    keep = set(slice_elems)
    le1 = set(P.le1) | {(image[x], image[y]) for x, y in restrict_relation(P.le1, keep)}
    le2 = set(P.le2) | {(image[x], image[y]) for x, y in restrict_relation(P.le2, keep)}
    le1, le2 = _respect_transitive_completion(new_universe, le1, le2)
    conclusion = Pattern(new_universe, le1, le2)
    return RuleInstance(P, conclusion, "reflect1_down")


def make_generic(P: Pattern, Pplus: Pattern) -> RuleInstance:
    """Wrap an arbitrary premise/conclusion pair for the validity tester."""
    return RuleInstance(P, Pplus, "generic")
