"""The embedding search against an exhaustive oracle, and the relation-row
memo against answers computed on fresh objects."""

import pytest
from hypothesis import given, settings, strategies as st

from patternforge import ZERO, ClosedSet, Hierarchy, closure, is_indecomposable, parse_term, search_coverings
from patternforge import embedding
from patternforge.cores import closed_subsets
from patternforge.embedding import SearchLimits, SourceSpec, TargetSpec, search_embeddings
from patternforge.hierarchy import game_pass
from conftest import OUTSIDE, built, element_pins, forged_relations, make_carrier
from oracles import brute_embeddings, game_all_challenges


def draw_limits(data, source, target):
    """Pins, floors, a ceiling and a moved floor for a search of source in
    target.  Element pins, decomposable or not, may name a key outside the
    source or an image outside the carrier, conflict with each other, agree
    with an embedding that exists, or fix the part below the ceiling the way
    the games do."""
    source_elems, carrier_elems = list(source.elements), list(target.carrier.elements)
    s_indecs = [x for x in source_elems if is_indecomposable(x)]
    terms = st.sampled_from(carrier_elems + [OUTSIDE])
    pinned = data.draw(element_pins(source_elems + carrier_elems, carrier_elems + [OUTSIDE]))
    found = brute_embeddings(source, target, SearchLimits())
    if found and data.draw(st.booleans()):
        agreed = data.draw(st.sampled_from(found))
        pinned.update(data.draw(st.sets(st.sampled_from(sorted(agreed.items())), max_size=3)))
    floors = data.draw(st.dictionaries(st.sampled_from(s_indecs), terms, max_size=2)) if s_indecs else {}
    ceiling = data.draw(st.none() | terms)
    if data.draw(st.booleans()):
        pinned.update((x, x) for x in s_indecs if x in carrier_elems and (ceiling is None or x < ceiling))
    moved_floor = data.draw(st.none() | terms)
    return SearchLimits(pinned=pinned, ceiling=ceiling, indec_floors=floors, moved_floor=moved_floor)


@settings(max_examples=150, deadline=None)
@given(case=forged_relations(), data=st.data())
def test_search_matches_oracle_on_shared_relations(case, data):
    # the games' case: a closed subset of the carrier searched with the
    # target's own relation objects
    universe, r1, r2 = case
    le1, le2 = frozenset(r1), frozenset(r2)
    elems = universe.elements
    chosen = data.draw(st.lists(st.sampled_from(elems), max_size=4))
    source = SourceSpec(closure(chosen).elements, le1, le2)
    target = TargetSpec(universe, le1, le2)
    limits = draw_limits(data, source, target)
    assert list(search_embeddings(source, target, limits)) == brute_embeddings(source, target, limits)


@settings(max_examples=150, deadline=None)
@given(host=forged_relations(), pattern=forged_relations(max_elements=5), data=st.data())
def test_search_matches_oracle_on_separate_patterns(host, pattern, data):
    # the coverings' case: a pattern with relations of its own, or one that
    # borrows the target's relation objects while lying partly outside it
    universe, r1, r2 = host
    le1, le2 = frozenset(r1), frozenset(r2)
    p_universe, p1, p2 = pattern
    if data.draw(st.booleans()):
        source = SourceSpec(p_universe.elements, frozenset(p1), frozenset(p2))
    else:
        source = SourceSpec(p_universe.elements, le1, le2)
    target = TargetSpec(universe, le1, le2)
    limits = draw_limits(data, source, target)
    assert list(search_embeddings(source, target, limits)) == brute_embeddings(source, target, limits)


def test_moved_floor_spares_summands_pinned_in_place():
    # w is rank 1 of the source and rank 2 of the target: an element is
    # fixed when its summands are pinned to the same terms, whatever ranks
    # those terms have on either side
    w = parse_term("w")
    universe = closure([w])
    source = SourceSpec(universe.elements, frozenset((x, x) for x in universe), frozenset())
    target = TargetSpec(closure([parse_term("1"), w]), frozenset(), frozenset())
    for pinned, found in (({w: w}, [{ZERO: ZERO, w: w}]), ({}, [])):
        limits = SearchLimits(pinned=pinned, moved_floor=w)
        assert list(search_embeddings(source, target, limits)) == found
        assert brute_embeddings(source, target, limits) == found


def test_relation_rows_are_never_stale():
    # two carrier objects and relation pairs that differ in le1 or in le2
    # only, visited alternately, then mutable relations changed between
    # calls; every answer must match the all-challenges oracle on fresh
    # objects
    carriers = {name: make_carrier(name) for name in ("big", "ladder")}
    elems = carriers["big"].elements  # ladder's elements are among these
    full = frozenset((a, b) for a in elems for b in elems if a <= b)
    strict = sorted((a, b) for a, b in full if a != b)
    odd = frozenset((x, x) for x in elems) | frozenset(strict[1::2])
    relations = {"full": (full, full), "le2 odd": (full, odd), "le1 odd": (odd, full)}

    def games(carrier):
        c = carrier.elements
        return [(k, a, b) for k in (1, 2) for i, a in enumerate(c) for b in c[i + 1 :]]

    expected = {}
    for cname, carrier in carriers.items():
        for rname, (r1, r2) in relations.items():
            fresh = ClosedSet(carrier.elements)
            H = Hierarchy(fresh, parse_term("w^(3)"), frozenset(r1), frozenset(r2))
            expected[cname, rname] = [game_all_challenges(k, a, b, H) for k, a, b in games(fresh)]
    for cname in carriers:
        assert expected[cname, "full"] != expected[cname, "le2 odd"]
        assert expected[cname, "full"] != expected[cname, "le1 odd"]

    order = ["full", "le2 odd", "full", "le1 odd", "le2 odd", "full"]
    for cname, rname in [(c, r) for r in order for c in carriers]:
        r1, r2 = relations[rname]
        carrier = carriers[cname]
        got = [game_pass(k, a, b, carrier, r1, r2) for k, a, b in games(carrier)]
        assert got == expected[cname, rname], (cname, rname)

    mutable1, mutable2 = set(), set()
    for rname in ["full", "le2 odd", "le1 odd", "full"]:
        for target, new in ((mutable1, relations[rname][0]), (mutable2, relations[rname][1])):
            target.clear()
            target.update(new)
        carrier = carriers["big"]
        got = [game_pass(k, a, b, carrier, mutable1, mutable2) for k, a, b in games(carrier)]
        assert got == expected["big", rname], f"mutable {rname}"

    # a pattern source: one universe object whose relation objects of its
    # own differ in le1 or in le2 only, searched into both odd targets
    # alternately, then as mutable relations changed between calls
    universe = closure([parse_term("1"), parse_term("w")])
    u = universe.elements
    sfull = frozenset((a, b) for a in u for b in u if a <= b)
    srefl = frozenset((x, x) for x in u)
    sources = {"full": (sfull, sfull), "le2 refl": (sfull, srefl), "le1 refl": (srefl, sfull)}
    targets = ("le2 odd", "le1 odd")

    def fresh_answers(s1, s2):
        out = []
        for tname in targets:
            t1, t2 = relations[tname]
            fresh = TargetSpec(ClosedSet(elems), frozenset(t1), frozenset(t2))
            out.append(brute_embeddings(SourceSpec(ClosedSet(u), frozenset(s1), frozenset(s2)), fresh, SearchLimits()))
        return out

    expected = {sname: fresh_answers(*rels) for sname, rels in sources.items()}
    assert len({repr(v) for v in expected.values()}) == len(sources)

    def answers(s1, s2, elements=universe):
        source = SourceSpec(elements, s1, s2)
        return [list(search_embeddings(source, TargetSpec(carriers["big"], *relations[t]))) for t in targets]

    for sname in ["full", "le2 refl", "full", "le1 refl", "le2 refl", "full"]:
        assert answers(*sources[sname]) == expected[sname], sname
        assert answers(*sources[sname], elements=u) == expected[sname], f"tuple {sname}"
    for sname in ["full", "le2 refl", "le1 refl", "full"]:
        for target, new in zip((mutable1, mutable2), sources[sname]):
            target.clear()
            target.update(new)
        assert answers(mutable1, mutable2) == expected[sname], f"mutable {sname}"


def test_host_rows_survive_a_stream_of_patterns(monkeypatch):
    # more distinct patterns than the memo has entries, each covered twice:
    # the host's rows are built once, each pattern's once
    H = built("wide20")
    patterns = [H.restrict_pattern(s) for s in closed_subsets(H.carrier, max_indecomposables=2)[:12]]
    assert len(patterns) > embedding._ROWS_MEMO_SIZE
    built_for = []
    rows = embedding._rows
    monkeypatch.setattr(embedding, "_rows_memo", {})
    monkeypatch.setattr(
        embedding, "_rows", lambda rank, size, le1, le2: built_for.append(le1) or rows(rank, size, le1, le2)
    )
    for P in patterns:
        for _ in range(2):
            assert list(search_coverings(P, H))  # every restriction covers itself
    assert sum(le1 is H.le1 for le1 in built_for) == 1
    assert [le1 for le1 in built_for if le1 is not H.le1] == [P.le1 for P in patterns]


def test_relation_rows_follow_the_carrier():
    # the same relation objects over two carriers whose ranks name different
    # terms (w is rank 2 of the first and rank 4 of the second)
    one, w = parse_term("1"), parse_term("w")
    first = make_carrier("big")
    second = closure([parse_term("3"), w])
    refl = frozenset((x, x) for x in set(first) | set(second))
    le1, le2 = refl | {(one, w)}, refl
    pattern = closure([one, w])
    source = SourceSpec(pattern.elements, frozenset((x, x) for x in pattern) | {(one, w)}, le2)
    for carrier in (first, second, first, second):
        target = TargetSpec(carrier, le1, le2)
        found = list(search_embeddings(source, target))
        assert found == brute_embeddings(source, target, SearchLimits())
        assert found == [{x: x for x in pattern}]


@pytest.mark.parametrize("name", ["big", "wide20"])
def test_carrier_index_matches_terms(name):
    carrier = make_carrier(name)
    index, elems = carrier.index, carrier.elements
    assert carrier.index is index  # built once
    for r, x in enumerate(elems):
        assert index.rank[x] == r
        summands = tuple(elems[s] for s in index.summands[r])
        assert tuple(s.exponents[0] for s in summands) == x.exponents
        assert index.by_summands[index.summands[r]] == r
        assert len(index.parts[r]) == (2 if len(x.exponents) > 1 else 0)
    assert tuple(elems[r] for r in index.indecomposables) == tuple(
        x for x in elems if is_indecomposable(x)
    )
    for x in elems + (parse_term("w^(w)"), parse_term("w+3")):
        assert index.below(x) == sum(1 for y in elems if y < x)
        assert index.at_most(x) == sum(1 for y in elems if y <= x)
