"""Ordinal arithmetic in Cantor normal form below epsilon_0.

A term denotes w^g1 + w^g2 + ... + w^gk with g1 >= g2 >= ... >= gk, each
exponent itself a term.  The empty sum is 0.  Canonical form is unique, so
term equality is structural equality.  The additively indecomposable terms
are exactly the single-summand terms w^g; 0 is not indecomposable.

A term's key is the tuple of its exponents' keys.  Python orders tuples
lexicographically, a proper prefix first, as descending exponent sequences
order ordinals; by induction on depth, keys compare exactly as their terms do.

Everything here is a pure function of immutable values.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Dict, Iterable, Iterator, Mapping, Tuple


class TermSyntaxError(ValueError):
    """Raised when an ordinal expression does not match the grammar."""


class NonCanonicalTermError(ValueError):
    """Raised when summands of an ordinal expression are not descending."""


class OrdinalTerm:
    """A Cantor-normal-form ordinal below epsilon_0.

    ``exponents`` is the non-strictly descending tuple of summand exponents;
    the constructor rejects out-of-order input, so every reachable value is
    canonical.  Every comparison reads ``key``, ``tuple(e.key for e in
    exponents)``, whose tuple order is the ordinal order (see the module
    docstring); the hash, ``hash(key)``, equals ``hash(exponents)``.
    """

    __slots__ = ("exponents", "key", "_hash")

    def __init__(self, exponents: Tuple["OrdinalTerm", ...] = ()):
        exponents = tuple(exponents)
        for e in exponents:
            if not isinstance(e, OrdinalTerm):
                raise TypeError("exponents must be OrdinalTerm values")
        key = tuple(e.key for e in exponents)
        for hi, lo in zip(key, key[1:]):
            if hi < lo:
                raise NonCanonicalTermError("summand exponents must be non-strictly descending")
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __setattr__(self, name, value):
        raise AttributeError("OrdinalTerm is immutable")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self.key == other.key if isinstance(other, OrdinalTerm) else NotImplemented

    def __lt__(self, other):
        return self.key < other.key

    def __le__(self, other):
        return self.key <= other.key

    def __gt__(self, other):
        return self.key > other.key

    def __ge__(self, other):
        return self.key >= other.key

    def __repr__(self):
        return f"OrdinalTerm({format_term(self)!r})"

    def __str__(self):
        return format_term(self)


_term_key = attrgetter("key")  # sorting by it orders terms without calling __lt__

ZERO = OrdinalTerm()
ONE = OrdinalTerm((ZERO,))
OMEGA = OrdinalTerm((ONE,))


def compare(a: OrdinalTerm, b: OrdinalTerm) -> int:
    """Total order on canonical terms: -1, 0 or 1, read from their keys."""
    return (a.key > b.key) - (a.key < b.key)


def add(a: OrdinalTerm, b: OrdinalTerm) -> OrdinalTerm:
    """Ordinal addition: left summands below b's leading exponent are absorbed."""
    if not b.exponents:
        return a
    if not a.exponents:
        return b
    lead = b.exponents[0]
    keep = tuple(e for e in a.exponents if compare(e, lead) >= 0)
    return OrdinalTerm(keep + b.exponents)


def is_indecomposable(a: OrdinalTerm) -> bool:
    """True iff a = w^g for some g.  0 is not indecomposable."""
    return len(a.exponents) == 1


def omega_power(g: OrdinalTerm) -> OrdinalTerm:
    return OrdinalTerm((g,))


def split_parts(a: OrdinalTerm) -> Tuple[OrdinalTerm, ...]:
    """Additive decomposition step: remainder and last summand of a multi-summand
    term.  Terms with fewer than two summands have no parts."""
    if len(a.exponents) < 2:
        return ()
    return (OrdinalTerm(a.exponents[:-1]), OrdinalTerm((a.exponents[-1],)))


# A term's split parts as cuts of its exponents, remainder first.  Its key is
# the tuple of its exponents' keys, so the same cuts of the key are the parts'
# keys, and a closure check can read parts from keys without building them.
_SPLIT = (slice(None, -1), slice(-1, None))


def missing_parts(elems: Iterable[OrdinalTerm]) -> Iterator[Tuple[OrdinalTerm, OrdinalTerm]]:
    """(x, p) for each split part p of an element x of elems that elems lacks,
    in the order of elems, remainder first; only the missing parts are built."""
    elems = tuple(elems)
    keys = {x.key for x in elems}
    for x in elems:
        key = x.key
        if len(key) > 1:
            for cut in _SPLIT:
                if key[cut] not in keys:
                    yield x, OrdinalTerm(x.exponents[cut])


def summands(a: OrdinalTerm) -> Tuple[OrdinalTerm, ...]:
    """The indecomposable summands of a, leading first."""
    return tuple(OrdinalTerm((e,)) for e in a.exponents)


class CarrierIndex:
    """A closed set's elements by rank, 0..n-1 in ascending term order.

    rank            term -> its rank
    summands        per rank, the ranks of its summands, leading first
    parts           per rank, the ranks of its split parts (remainder, last
                    summand), empty for fewer than two summands
    by_summands     summand-rank tuple -> rank of the element with those
                    summands; a missing tuple is a term outside the set
    indecomposables the ranks of the indecomposable elements, ascending

    Closedness puts every part and every summand of an element in the set,
    so all of these are ranks of the same set; a part is smaller than its
    element, so its rank is smaller too: parts come before wholes.  Parts are
    found by key (the cuts of _SPLIT), so no term is built.
    """

    __slots__ = ("elements", "rank", "summands", "parts", "by_summands", "indecomposables")

    def __init__(self, elements: Tuple[OrdinalTerm, ...]):
        self.elements = elements
        rank = {x: r for r, x in enumerate(elements)}
        by_key = {x.key: r for r, x in enumerate(elements)}
        sums: list = []
        parts: list = []
        for r, x in enumerate(elements):
            key = x.key
            split = tuple(by_key[key[cut]] for cut in _SPLIT) if len(key) > 1 else ()
            parts.append(split)
            if split:  # the remainder is smaller, so its summands are known
                sums.append(sums[split[0]] + (split[1],))
            else:
                sums.append((r,) if x.exponents else ())
        self.rank = rank
        self.summands = tuple(sums)
        self.parts = tuple(parts)
        self.by_summands = {s: r for r, s in enumerate(sums)}
        self.indecomposables = tuple(r for r, s in enumerate(sums) if len(s) == 1)

    def below(self, t: OrdinalTerm) -> int:
        """The number of elements strictly below t."""
        r = self.rank.get(t)
        return bisect_left(self.elements, t) if r is None else r

    def at_most(self, t: OrdinalTerm) -> int:
        """The number of elements at most t."""
        r = self.rank.get(t)
        return bisect_right(self.elements, t) if r is None else r + 1


class ClosedSet:
    """A finite term set containing 0 and closed under the remainder/last-summand
    split.  Iteration is always in ascending order."""

    __slots__ = ("elements", "_set", "_index")

    def __init__(self, elements: Iterable[OrdinalTerm]):
        eset = frozenset(elements)
        elems = sorted(eset, key=_term_key)
        if ZERO not in eset:
            raise ValueError("closed set must contain 0")
        for x, p in missing_parts(elems):
            raise ValueError(f"closed set is missing {format_term(p)}, a part of {format_term(x)}")
        object.__setattr__(self, "elements", tuple(elems))
        object.__setattr__(self, "_set", eset)
        object.__setattr__(self, "_index", None)

    def __setattr__(self, name, value):
        raise AttributeError("ClosedSet is immutable")

    def __contains__(self, x):
        return x in self._set

    def __iter__(self) -> Iterator[OrdinalTerm]:
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        if not isinstance(other, ClosedSet):
            return NotImplemented
        return self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __le__(self, other: "ClosedSet"):
        return self._set <= other._set

    def __repr__(self):
        inner = ", ".join(format_term(x) for x in self.elements)
        return f"ClosedSet({{{inner}}})"

    def as_set(self) -> frozenset:
        return self._set

    @property
    def indecomposables(self) -> Tuple[OrdinalTerm, ...]:
        return tuple(x for x in self.elements if is_indecomposable(x))

    @property
    def index(self) -> CarrierIndex:
        """The rank index of the elements, built on first use; the set is
        immutable, so it never goes stale."""
        index = self._index
        if index is None:
            index = CarrierIndex(self.elements)
            object.__setattr__(self, "_index", index)
        return index


def closure(xs: Iterable[OrdinalTerm]) -> ClosedSet:
    """Least closed superset of xs."""
    return ClosedSet(parts_closure(xs))


def parts_closure(xs: Iterable[OrdinalTerm]) -> frozenset:
    """Least closed superset of xs as a plain frozenset: add 0 and split
    summands to a fixed point."""
    out = {ZERO}
    stack = list(xs)
    while stack:
        x = stack.pop()
        if x in out:
            continue
        out.add(x)
        stack.extend(split_parts(x))
    return frozenset(out)


def induced_embedding(
    indec_map: Mapping[OrdinalTerm, OrdinalTerm], X: Iterable[OrdinalTerm]
) -> Dict[OrdinalTerm, OrdinalTerm]:
    """Extend a strictly order-preserving map on X's indecomposables to X.

    Each summand w^g of an element is replaced by its image; this is the unique
    extension that commutes with + and decomposition.  Raises ValueError when
    the map is missing an indecomposable, moves one to a decomposable image, or
    is not strictly order-preserving.
    """
    elems = sorted(set(X))
    indecs = [x for x in elems if is_indecomposable(x)]
    for i in indecs:
        if i not in indec_map:
            raise ValueError(f"no image for indecomposable {format_term(i)}")
        img = indec_map[i]
        if not is_indecomposable(img):
            raise ValueError(
                f"image of {format_term(i)} is {format_term(img)}, not indecomposable"
            )
    for a, b in zip(indecs, indecs[1:]):
        if not indec_map[a] < indec_map[b]:
            raise ValueError(
                f"map is not order-preserving at {format_term(a)} < {format_term(b)}"
            )
    out: Dict[OrdinalTerm, OrdinalTerm] = {}
    for x in elems:
        image_exponents = tuple(
            indec_map[OrdinalTerm((g,))].exponents[0] for g in x.exponents
        )
        out[x] = OrdinalTerm(image_exponents)
    return out


# ---------------------------------------------------------------------------
# Text form.  Grammar:  T ::= "0" | S ("+" S)*
#                       S ::= "w^(" T ")" | "w" | "1" | positive integer
# "1" abbreviates w^(0), "w" abbreviates w^(w^(0)), an integer n (written
# without a leading zero) abbreviates n summands w^(0); n is at most
# MAX_INTEGER, checked before allocating, since a closed set holding n has n+1
# elements.  The summands one parse builds, counted at every nesting depth,
# are bounded by MAX_INTEGER too, also checked before allocating, so a sum of
# literals cannot get round the bound.  Summands must already be descending;
# the parser rejects non-canonical order instead of re-sorting.
# ---------------------------------------------------------------------------

MAX_INTEGER = 10**6


def parse_term(text: str) -> OrdinalTerm:
    """Parse an ordinal expression into its canonical term."""
    if not isinstance(text, str):
        raise TermSyntaxError(f"an ordinal expression must be a string, not {type(text).__name__}")
    s = "".join(text.split())
    if not s:
        raise TermSyntaxError("empty ordinal expression")
    try:
        term, pos = _parse_subterm(s, 0, [0])
    except NonCanonicalTermError:
        raise NonCanonicalTermError(f"summands of {text!r} are not in descending order") from None
    if pos != len(s):
        raise TermSyntaxError(f"unexpected {s[pos]!r} at position {pos} in {text!r}")
    return term


def _count_summands(built: list, n: int, pos: int) -> None:
    """Add n to built[0], the summands the whole parse has built so far,
    before they are made."""
    built[0] += n
    if built[0] > MAX_INTEGER:
        raise TermSyntaxError(f"summand count at position {pos} exceeds {MAX_INTEGER}")


def _parse_summand(s: str, pos: int, built: list):
    if pos >= len(s):
        raise TermSyntaxError("expected a summand, found end of input")
    ch = s[pos]
    if ch == "w":
        _count_summands(built, 1, pos)
        if s.startswith("w^(", pos):
            inner, pos = _parse_subterm(s, pos + 3, built)
            if pos >= len(s) or s[pos] != ")":
                raise TermSyntaxError("missing ')' in w^(...)")
            return [inner], pos + 1
        return [ONE], pos + 1
    if ch.isdigit():
        end = pos
        while end < len(s) and s[end].isdigit():
            end += 1
        if int(ch) == 0:
            raise TermSyntaxError("'0' cannot appear inside a sum or lead an integer")
        if end - pos > len(str(MAX_INTEGER)):
            raise TermSyntaxError(f"integer at position {pos} exceeds {MAX_INTEGER}")
        n = int(s[pos:end])
        _count_summands(built, n, pos)
        return [ZERO] * n, end
    raise TermSyntaxError(f"unexpected {ch!r} at position {pos}")


def _parse_subterm(s: str, pos: int, built: list):
    """Parse a T production starting at pos, stopping before the first
    character that cannot continue it; OrdinalTerm rejects summands out of
    descending order."""
    if pos < len(s) and s[pos] == "0":
        nxt = pos + 1
        if nxt < len(s) and s[nxt] == "+":
            raise TermSyntaxError("'0' cannot appear inside a sum")
        return ZERO, nxt
    exponents = []
    while True:
        exps, pos = _parse_summand(s, pos, built)
        exponents.extend(exps)
        if pos < len(s) and s[pos] == "+":
            pos += 1
            continue
        break
    return OrdinalTerm(tuple(exponents)), pos


def format_term(a: OrdinalTerm, sugar: bool = False) -> str:
    """Canonical text form; bit-exact and parse_term-invertible.

    Sugar-free output spells every summand as w^(...).  With sugar=True the
    summands w^(0) and w^(w^(0)) print as "1" and "w".
    """
    if not a.exponents:
        return "0"
    parts = []
    for g in a.exponents:
        if sugar and g == ZERO:
            parts.append("1")
        elif sugar and g == ONE:
            parts.append("w")
        else:
            parts.append(f"w^({format_term(g, sugar)})")
    return "+".join(parts)
