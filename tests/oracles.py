"""Independent brute-force oracles the tests check production code against.

Everything here favors dumb exhaustive loops over cleverness; none of it
shares search logic with the package.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, permutations, product

from patternforge import (
    ClosedSet,
    Covering,
    Hierarchy,
    OrdinalTerm,
    Pattern,
    ZERO,
    add,
    extends_above,
    format_term,
    is_covering,
    is_indecomposable,
    isominimal,
    regressive_maps,
)
from patternforge.embedding import SearchLimits, SourceSpec, TargetSpec
from patternforge.hierarchy import RoundStats, game_pass
from patternforge.ordinals import parts_closure, split_parts, summands


def brute_compare(a: OrdinalTerm, b: OrdinalTerm) -> int:
    """The ordinal order by its definition on Cantor normal forms, -1, 0 or 1:
    the first differing exponent decides, recursively, and a proper prefix of
    the summands is smaller."""
    for ea, eb in zip(a.exponents, b.exponents):
        c = brute_compare(ea, eb)
        if c:
            return c
    la, lb = len(a.exponents), len(b.exponents)
    return (la > lb) - (la < lb)


def brute_validate(universe, le1, le2) -> bool:
    """Direct evaluation of every quantified pattern clause."""
    elems = sorted(set(universe))
    eset = set(elems)
    r1 = set(le1) | {(x, x) for x in elems}
    r2 = set(le2) | {(x, x) for x in elems}
    if ZERO not in eset:
        return False
    for x in elems:
        for p in split_parts(x):
            if p not in eset:
                return False
    for r in (r1, r2):
        for a, b in r:
            if a not in eset or b not in eset:
                return False
            if (b, a) in r and a != b:
                return False
            for c, d in r:
                if b == c and (a, d) not in r:
                    return False
    if not r2 <= r1:
        return False
    if any(not a <= b for a, b in r1):
        return False
    for a, c in r1:
        for b in elems:
            if a <= b <= c and (a, b) not in r1:
                return False
    for a, c in r2:
        for b in elems:
            if (a, b) in r1 and (b, c) in r1 and (a, b) not in r2:
                return False
    return True


def brute_complete(universe, le1, le2):
    """Least (le1, le2) holding the given pairs and every reflexive pair that
    is transitive, respectful and has le2 inside le1: add one forced pair at a
    time until no clause forces another."""
    elems = sorted(set(universe))
    r1 = set(le1) | {(x, x) for x in elems}
    r2 = set(le2) | {(x, x) for x in elems}

    def forced():
        for a, b, c in product(elems, repeat=3):
            if (a, b) in r2 and (a, b) not in r1:
                return r1, (a, b)
            for r in (r1, r2):
                if (a, b) in r and (b, c) in r and (a, c) not in r:
                    return r, (a, c)
            if (a, c) in r1 and a <= b <= c and (a, b) not in r1:
                return r1, (a, b)
            if (a, c) in r2 and (a, b) in r1 and (b, c) in r1 and (a, b) not in r2:
                return r2, (a, b)
        return None

    step = forced()
    while step is not None:
        rel, pair = step
        rel.add(pair)
        step = forced()
    return r1, r2


def covering_maps_bruteforce(P: Pattern, H: Hierarchy):
    """Every strictly increasing injection of the universe into the carrier
    that passes is_covering; returns sorted assignment tuples.

    A covering is strictly order-preserving, so increasing injections are
    exhaustive; each |universe|-subset of the carrier in ascending order is
    one such injection.
    """
    n = len(P.universe)
    out = []
    for subset in combinations(H.carrier.elements, n):
        mapping = dict(zip(P.universe.elements, subset))
        if is_covering(mapping, P, H):
            out.append(tuple(sorted(mapping.items())))
    return sorted(out)


def brute_cofinal_validity(P: Pattern, Pplus: Pattern, H: Hierarchy, max_coverings=None):
    """The rule probe by its definition, as (valid, exhaustive,
    coverings_checked, counterexample covering or None).

    The coverings of P are taken in covering_maps_bruteforce's order, at
    most max_coverings of them; the probe is cut, neither valid nor
    exhaustive, when one more is left.  A covering h is a counterexample when
    some regressive map of regressive_maps(h), any of them, has no covering
    of Pplus that agrees with h on P's universe and extends above it.
    """
    coverings = covering_maps_bruteforce(P, H)
    extensions = covering_maps_bruteforce(Pplus, H)
    for checked, cov in enumerate(coverings):
        if checked == max_coverings:
            return False, False, checked, None
        h = Covering(P, H, cov)
        agreeing = [Covering(Pplus, H, e) for e in extensions if set(cov) <= set(e)]
        if any(not any(extends_above(hplus, h, phi) for hplus in agreeing) for phi in regressive_maps(h)):
            return False, True, checked + 1, h
    return True, True, len(coverings), None


def brute_embeddings(source, target, limits):
    """Every embedding of a SourceSpec into a TargetSpec under SearchLimits, in
    lexicographic order of the indecomposable images, by trying each strictly
    increasing choice of carrier indecomposables for the source's.

    Each element's image replaces every summand w^g by the image of w^g.  A
    choice is kept when every image lies in the carrier and below the
    ceiling, each pinned source element goes to its pin, floored
    indecomposables go above their floors, every element with a summand not
    pinned to itself goes above the moved floor, and every pair of distinct
    source elements in source le1 (le2) goes to a pair in target le1 (le2).
    A summand is pinned to itself when a pinned element has it where the
    pin's own summands, read in the same order, have it too.
    """
    elems = list(source.elements)
    pinned = {x: y for x, y in limits.pinned.items() if x in elems}
    floors = dict(limits.indec_floors)
    ceiling, moved_floor = limits.ceiling, limits.moved_floor
    selfpinned = {a for x, y in pinned.items() for a, b in zip(summands(x), summands(y)) if a == b}
    indecs = [x for x in elems if is_indecomposable(x)]
    carrier = set(target.carrier)
    moved = [x for x in elems if not selfpinned.issuperset(summands(x))]
    out = []
    for choice in combinations(sorted(x for x in carrier if is_indecomposable(x)), len(indecs)):
        f = dict(zip(indecs, choice))
        if any(i in floors and not f[i] > floors[i] for i in indecs):
            continue
        image = {
            x: OrdinalTerm(tuple(f[OrdinalTerm((g,))].exponents[0] for g in x.exponents))
            for x in elems
        }
        if any(image[x] != y for x, y in pinned.items()):
            continue
        if any(y not in carrier for y in image.values()):
            continue
        if ceiling is not None and any(not y < ceiling for y in image.values()):
            continue
        if moved_floor is not None and any(not image[x] > moved_floor for x in moved):
            continue
        if any(
            a != b and a in image and b in image and (image[a], image[b]) not in rel_t
            for rel_s, rel_t in ((source.le1, target.le1), (source.le2, target.le2))
            for a, b in rel_s
        ):
            continue
        out.append(image)
    return out


def shape_signature(elements):
    """Arithmetic shape of an ascending element tuple: each element as the
    tuple of positions of its summands among the tuple's own indecomposables.
    None when some summand is missing (the set cannot carry a closed
    arithmetic structure)."""
    indecs = [x for x in elements if is_indecomposable(x)]
    index = {x: i for i, x in enumerate(indecs)}
    sig = []
    for x in elements:
        try:
            sig.append(tuple(index[s] for s in summands(x)))
        except KeyError:
            return None
    return tuple(sig)


def covering_maps_by_shape(P: Pattern, H: Hierarchy, buckets=None):
    """Same result as covering_maps_bruteforce, factoring the enumeration
    through range subsets bucketed by arithmetic shape."""
    n = len(P.universe)
    if buckets is None:
        buckets = shape_buckets(H, n)
    sig = shape_signature(P.universe.elements)
    out = []
    for subset in buckets.get(sig, ()):
        mapping = dict(zip(P.universe.elements, subset))
        if is_covering(mapping, P, H):
            out.append(tuple(sorted(mapping.items())))
    return sorted(out)


def shape_buckets(H: Hierarchy, n: int):
    buckets = {}
    for subset in combinations(H.carrier.elements, n):
        sig = shape_signature(subset)
        if sig is not None:
            buckets.setdefault(sig, []).append(subset)
    return buckets


def brute_closed_subsets(carrier, max_indecomposables=None, max_elements=None):
    """Every subset of the carrier that contains 0, is closed under
    split_parts and stays within the bounds, found by trying each subset.
    Ascending tuples, sorted."""
    out = []
    for size in range(1, len(carrier) + 1):
        for subset in combinations(carrier.elements, size):
            members = set(subset)
            closed = ZERO in members and all(p in members for x in subset for p in split_parts(x))
            within = (max_elements is None or size <= max_elements) and (
                max_indecomposables is None
                or sum(map(is_indecomposable, subset)) <= max_indecomposables
            )
            if closed and within:
                out.append(subset)
    return sorted(out)


def game_all_challenges(k, alpha, beta, H: Hierarchy, window=1, moved_floor=None) -> bool:
    """The pair game quantified over every closed challenge below beta, each
    reduced by the player's window discards; validates the dominant-challenge
    shortcut."""
    zone_base = [c for c in H.carrier if c < alpha]
    zone = set(zone_base[-window:]) if window > 0 else set()
    below_beta = ClosedSet([c for c in H.carrier if c < beta] + [ZERO])
    for challenge in brute_closed_subsets(below_beta):
        reduced = tuple(sorted(parts_closure(set(challenge) - zone)))
        if not game_pass(
            k, alpha, beta, H.carrier, H.le1, H.le2,
            challenge=reduced, moved_floor=moved_floor,
        ):
            return False
    return True


def brute_game(k, alpha, beta, carrier, rel1, rel2, window=1, moved_floor=None) -> bool:
    """The k-round game of (alpha, beta) by its definition, with
    brute_embeddings for every search.  The challenge is everything below
    beta less the top window of the carrier below alpha, closed again; it
    must embed below alpha with its indecomposables below alpha pinned to
    themselves.  For k = 2 one such embedding h must also admit a backward
    embedding of the whole carrier below alpha below beta that sends h(i)
    back to i for every indecomposable i of the challenge."""
    if alpha == beta:
        return True
    below_alpha = [c for c in carrier if c < beta and c < alpha]
    zone = set(below_alpha[-window:]) if window > 0 else set()
    challenge = tuple(sorted(parts_closure({c for c in carrier if c < beta} - zone)))
    indecs = [x for x in challenge if is_indecomposable(x)]
    target = TargetSpec(carrier, rel1, rel2)
    limits = SearchLimits(pinned={x: x for x in indecs if x < alpha}, ceiling=alpha, moved_floor=moved_floor)
    forward = brute_embeddings(SourceSpec(challenge, rel1, rel2), target, limits)
    if k == 1:
        return bool(forward)
    back = SourceSpec(tuple(c for c in carrier if c < alpha), rel1, rel2)
    return any(
        brute_embeddings(back, target, SearchLimits(pinned={h[i]: i for i in indecs}, ceiling=beta))
        for h in forward
    )


def brute_le_inf(k, alpha, beta, H: Hierarchy, window=1) -> bool:
    """le_inf by its definition: the game passes with no floor and with each
    threshold below alpha, except the window largest, as the moved floor;
    each game over every closed challenge (game_all_challenges)."""
    thresholds = [c for c in H.carrier if c < alpha]
    selected = thresholds[:-window] if window > 0 else thresholds
    return all(game_all_challenges(k, alpha, beta, H, moved_floor=tau) for tau in [None] + selected)


def brute_realization(P: Pattern, H: Hierarchy):
    """(realization, unique_minimum, below_all_covers, isomorphic,
    covers_enumerated) as isominimal defines them, from every covering
    range of covering_maps_bruteforce: the ranges no other range lies
    pointwise below are the minimal ones, compared pairwise slot by slot,
    and the realization is the host's substructure on the
    lexicographically least of them."""
    ranges = [tuple(sorted(y for _, y in cov)) for cov in covering_maps_bruteforce(P, H)]
    if not ranges:
        return None, False, False, False, 0

    def below(X, Y):
        return all(x <= y for x, y in zip(X, Y))

    minimal = [r for r in ranges if not any(o != r and below(o, r) for o in ranges)]
    chosen = min(minimal)
    realization = H.restrict_pattern(chosen)
    return (
        realization,
        len(minimal) == 1,
        all(below(chosen, r) for r in ranges),
        brute_isomorphism(P, realization) is not None,
        len(ranges),
    )


def all_strict_chains2(H: Hierarchy):
    """Every strictly increasing le2 chain of length >= 2, by brute recursion."""
    elems = H.carrier.elements
    chains = []

    def grow(chain):
        extended = False
        for y in elems:
            if y != chain[-1] and (chain[-1], y) in H.le2:
                grow(chain + (y,))
                extended = True
        if len(chain) >= 2:
            chains.append(chain)

    for x in elems:
        grow((x,))
    return chains


def has_isomorphic_closed_substructure(S: Pattern, H: Hierarchy) -> bool:
    """Independent decision for pattern-hood relative to H: some closed
    substructure of H is isomorphic to S."""
    size = len(S.universe)
    for subset in brute_closed_subsets(H.carrier, max_elements=size):
        if len(subset) != size:
            continue
        Q = H.restrict_pattern(subset)
        if brute_isomorphism(S, Q) is not None:
            return True
    return False


def brute_isomorphism(P: Pattern, Q: Pattern):
    """A pattern isomorphism from P onto Q as a dict, or None, by trying every
    bijection between the universes (meant for at most 7 or 8 elements).

    A bijection is accepted when it sends indecomposables onto
    indecomposables, strictly increasing on them, sends each element to the
    sum of its summands' images, and has (a, b) in P's le_k exactly when
    (f(a), f(b)) is in Q's le_k.  Bijections that send an indecomposable to a
    decomposable element are skipped by construction, pairing each kind only
    with its own kind: the other conditions alone would accept 0, 1, w ->
    0, 1, 2 with trivial relations, which is no arithmetic isomorphism.
    """
    xs, ys = P.universe.elements, Q.universe.elements
    x_ind = [x for x in xs if is_indecomposable(x)]
    y_ind = [y for y in ys if is_indecomposable(y)]
    x_rest = [x for x in xs if not is_indecomposable(x)]
    y_rest = [y for y in ys if not is_indecomposable(y)]
    if len(x_ind) != len(y_ind) or len(x_rest) != len(y_rest):
        return None
    for ind_images in permutations(y_ind):
        if any(not a < b for a, b in zip(ind_images, ind_images[1:])):
            continue
        for rest_images in permutations(y_rest):
            f = dict(zip(x_ind + x_rest, ind_images + rest_images))
            if any(f[x] != reduce(add, (f[s] for s in summands(x)), ZERO) for x in xs):
                continue
            if all(
                ((a, b) in rp) == ((f[a], f[b]) in rq)
                for rp, rq in ((P.le1, Q.le1), (P.le2, Q.le2))
                for a in xs
                for b in xs
            ):
                return f
    return None


def brute_core(H: Hierarchy, size_bound: int):
    """(members, witness pairs) of the core, deduping the closed subsets with
    at most size_bound indecomposables pairwise with brute_isomorphism: the
    subsets go by (indecomposable count, elements), each is kept unless an
    earlier kept one is isomorphic to it, and every member's witness is the
    first kept subset's realization that contains it."""
    subsets = sorted(
        brute_closed_subsets(H.carrier, max_indecomposables=size_bound),
        key=lambda s: (len([x for x in s if is_indecomposable(x)]), s),
    )
    kept = []
    for subset in subsets:
        P = H.restrict_pattern(subset)
        if all(brute_isomorphism(P, R) is None for R in kept):
            kept.append(P)
    witness = {}
    for P in kept:
        realization = isominimal(P, H).realization
        if realization is not None:
            for x in realization.universe:
                if x not in witness:
                    witness[x] = realization
    members = tuple(sorted(witness))
    return members, tuple((m, witness[m]) for m in members)


def valid_relation_assignments(universe):
    """All (le1, le2) strict-pair assignments making the universe a valid
    pattern, in deterministic order."""
    elems = sorted(universe)
    strict = [(a, b) for i, a in enumerate(elems) for b in elems[i + 1 :]]
    out = []
    for mask1 in range(1 << len(strict)):
        le1 = [p for i, p in enumerate(strict) if mask1 >> i & 1]
        if not brute_validate(elems, le1, []):
            continue
        sub = [p for p in strict if p in set(le1)]
        for mask2 in range(1 << len(sub)):
            le2 = [p for i, p in enumerate(sub) if mask2 >> i & 1]
            if brute_validate(elems, le1, le2):
                out.append((tuple(le1), tuple(le2)))
    return out


def naive_game_round(carrier, rel1, rel2, snap1, snap2):
    """One game round with no inference: game_pass for every strict pair of
    both relations against the snapshots, in ascending (beta, alpha) order,
    discarding each pair that fails.  Returns the pruned counts."""
    pruned1 = pruned2 = 0
    elems = carrier.elements
    for b, beta in enumerate(elems):
        for alpha in elems[:b]:
            if (alpha, beta) in rel1 and not game_pass(1, alpha, beta, carrier, snap1, snap2):
                rel1.discard((alpha, beta))
                pruned1 += 1
            if (alpha, beta) in rel2 and not game_pass(2, alpha, beta, carrier, snap1, snap2):
                rel2.discard((alpha, beta))
                pruned2 += 1
    return pruned1, pruned2


def naive_structural_pass(elems, rel1, rel2):
    """The build's structural pass on term sets: drop every strict pair
    without indecomposable endpoints (the left one in le1, both in le2) and
    every pair a failed clause of naive_clause_failures blames, all at once,
    until nothing is dropped.  Returns the removed counts."""
    removed = [0, 0]
    while True:
        drop = [
            {(a, b) for a, b in rel if a != b and not (is_indecomposable(a) and (k == 1 or is_indecomposable(b)))}
            for k, rel in ((1, rel1), (2, rel2))
        ]
        for clause, k, w in naive_clause_failures(elems, rel1, rel2):
            if clause == "respect":
                drop[k - 1].add((w[0], w[2]))
            elif clause != "antisymmetric":
                drop[k - 1].add(w[:2])
        if not drop[0] and not drop[1]:
            return tuple(removed)
        for i, rel in enumerate((rel1, rel2)):
            rel -= drop[i]
            removed[i] += len(drop[i])


def naive_build(carrier, top):
    """build_hierarchy as a loop over sets of term pairs: from the full term
    order, rounds of naive_game_round (every game played) against frozenset
    snapshots, each followed by naive_structural_pass, until a round removes
    nothing.  top is taken as it is."""
    elems = carrier.elements
    rel1 = {(a, b) for i, a in enumerate(elems) for b in elems[i:]}
    rel2 = set(rel1)
    log = []
    while True:
        snap1, snap2 = frozenset(rel1), frozenset(rel2)
        games = naive_game_round(carrier, rel1, rel2, snap1, snap2)
        structural = naive_structural_pass(elems, rel1, rel2)
        log.append(RoundStats(*games, *structural))
        if not any(games + structural):
            return Hierarchy(carrier, top, frozenset(rel1), frozenset(rel2), tuple(log))


def naive_clause_failures(elems, le1, le2):
    """Every failed order or respect clause as (clause, k, witness), in the
    order patterns.order_clause_failures documents, each middle or third
    element tried against every element of the ascending elems."""
    sorted1, sorted2 = sorted(le1), sorted(le2)
    for k, rel, pairs in ((1, le1, sorted1), (2, le2, sorted2)):
        for a, b in pairs:
            if (b, a) in rel and a < b:
                yield "antisymmetric", k, (a, b)
        for a, b in pairs:
            for c in elems:
                if (b, c) in rel and (a, c) not in rel:
                    yield "transitive", k, (a, b, c)
    for a, b in sorted2:
        if (a, b) not in le1:
            yield "inclusion", 2, (a, b)
    for a, b in sorted1:
        if not a <= b:
            yield "term order", 1, (a, b)
    for a, c in sorted1:
        for b in elems:
            if a <= b <= c and (a, b) not in le1:
                yield "respect", 1, (a, b, c)
    for a, c in sorted2:
        for b in elems:
            if (a, b) in le1 and (b, c) in le1 and (a, b) not in le2:
                yield "respect", 2, (a, b, c)


def naive_isomorphism_type(elements, le1, le2):
    """patterns.isomorphism_type on terms, for an ascending closed elements:
    each element's exponents looked up among the indecomposables' exponents,
    and the strict pairs of the relations restricted to the elements, sorted
    as position pairs."""
    pos = {x: i for i, x in enumerate(elements)}
    indecs = {x.exponents[0]: i for i, x in enumerate(filter(is_indecomposable, elements))}
    shape = tuple(tuple(indecs[g] for g in x.exponents) for x in elements)
    pairs = tuple(
        tuple(sorted((pos[a], pos[b]) for a, b in rel if a in pos and b in pos and a != b))
        for rel in (le1, le2)
    )
    return shape, pairs


def term_closure_error(elements):
    """The message ClosedSet raises for elements, or None when it accepts
    them, by building every split part as a term: 0 first, then each
    element's remainder and last summand, elements ascending."""
    elems = sorted(set(elements))
    if ZERO not in elems:
        return "closed set must contain 0"
    for x, p in term_missing_parts(elems):
        return f"closed set is missing {format_term(p)}, a part of {format_term(x)}"
    return None


def term_missing_parts(elems):
    """(x, p) for each split part p of an element x of elems that elems
    lacks, found by building p with split_parts."""
    members = set(elems)
    return [(x, p) for x in elems for p in split_parts(x) if p not in members]


def term_carrier_index(elements):
    """(parts, summands, by_summands) of an ascending closed elements tuple as
    CarrierIndex defines them, each part and summand built as a term and
    looked up by term."""
    rank = {x: r for r, x in enumerate(elements)}
    parts = tuple(tuple(rank[p] for p in split_parts(x)) for x in elements)
    sums = tuple(tuple(rank[s] for s in summands(x)) for x in elements)
    return parts, sums, {s: r for r, s in enumerate(sums)}
