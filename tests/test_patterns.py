import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from patternforge import (
    InvalidPatternError,
    OMEGA,
    ONE,
    Pattern,
    ZERO,
    closure,
    covers,
    find_isomorphism,
    is_closed_substructure,
    isomorphism_type,
    parse_term,
    pointwise_le,
    trivial_pattern,
    validate_structure,
)
from patternforge.cores import closed_subsets
from patternforge.patterns import _memo_rows, _rank_key, order_clause_failures, restrict_relation
from conftest import built, clause_inputs, forged_relations, valid_hierarchies
from oracles import (
    brute_isomorphism,
    brute_validate,
    naive_clause_failures,
    naive_isomorphism_type,
    valid_relation_assignments,
)


def t(s):
    return parse_term(s)


# -- validation ---------------------------------------------------------------


def test_validate_singleton_ok():
    assert validate_structure([ZERO], [(ZERO, ZERO)], [(ZERO, ZERO)]) == []


def test_validate_inclusion_violation():
    # le2 pair without its le1 counterpart breaks the relation nesting
    out = validate_structure([ZERO, ONE], [], [(ZERO, ONE)])
    assert any(v.clause == "le2 not within le1" for v in out)


def test_validate_respect_violation_triple():
    out = validate_structure([ZERO, ONE, OMEGA], [(ZERO, OMEGA)], [])
    hits = [v for v in out if v.clause == "le1 does not respect le0"]
    assert hits and hits[0].witness == (ZERO, ONE, OMEGA)


def test_validate_open_universe():
    out = validate_structure([ZERO, t("w+1")], [], [])
    assert any("not closed" in v.clause for v in out)


def test_pattern_constructor_rejects():
    with pytest.raises(InvalidPatternError):
        Pattern([ZERO, ONE], le2=[(ZERO, ONE)])


def universes_upto_5():
    pools = [
        [ZERO],
        [ZERO, ONE],
        [ZERO, ONE, t("2")],
        [ZERO, ONE, OMEGA],
        [ZERO, ONE, OMEGA, t("w+1")],
        [ZERO, ONE, OMEGA, t("w+1"), t("w+2")],
        [ZERO, ONE, t("2"), OMEGA, t("w^(2)")],
    ]
    return pools


def test_validator_matches_bruteforce_quantifiers():
    # production validator and the dumb quantifier loops accept the same
    # structures on every universe of size <= 5 and random-ish relation picks
    for universe in universes_upto_5():
        strict = [
            (a, b) for a, b in itertools.combinations(universe, 2)
        ]
        samples = [
            [],
            strict[:1],
            strict[:2],
            strict,
            strict[::2],
            strict[1:],
        ]
        for le1 in samples:
            for le2 in (le1, le1[:1], []):
                ok_prod = validate_structure(universe, le1, le2) == []
                ok_brute = brute_validate(universe, le1, le2)
                assert ok_prod == ok_brute, (universe, le1, le2)


@given(clause_inputs())
@settings(max_examples=200, deadline=None)
def test_clause_engine_matches_naive_loops(case):
    # the engine walks successors and bisected slices instead of every
    # element; the witnesses and their order must not change
    elems, le1, le2 = case
    assert list(order_clause_failures(elems, le1, le2)) == list(naive_clause_failures(elems, le1, le2))


# -- substructures ------------------------------------------------------------


def test_closed_substructure_identity(hierarchy_big):
    P = hierarchy_big.restrict_pattern(hierarchy_big.carrier)
    assert is_closed_substructure(P, P)


def test_closed_substructure_restriction(hierarchy_big):
    P = hierarchy_big.restrict_pattern(hierarchy_big.carrier)
    Q = P.restrict([ZERO])
    assert is_closed_substructure(Q, P)


def test_closed_substructure_rejects_open_set():
    P = trivial_pattern([t("w+1")])
    with pytest.raises(ValueError):
        P.restrict([ZERO, t("w+1")])


def test_closed_substructure_rejects_relation_mismatch(hierarchy_big):
    P = hierarchy_big.restrict_pattern(hierarchy_big.carrier)
    enriched = Pattern(
        closure([ONE]), le1=[(ZERO, ONE)], le2=[]
    )
    assert not is_closed_substructure(enriched, P)


@functools.lru_cache(maxsize=None)
def _assignments_on(elements):
    return valid_relation_assignments(elements)


@st.composite
def substructure_candidates(draw):
    """(Q, P): P a pattern with the relations of a valid forged host, Q on a
    closed subset of P's universe (or of another host's) with P's
    restriction, another host's restriction, or any valid relations; these
    are drawn on a subset holding a strict pair of P where one exists, so
    that they often have fewer pairs than P's restriction, or as many but
    other ones."""
    H = draw(valid_hierarchies())
    P = Pattern(H.carrier, H.le1, H.le2)
    how = draw(st.sampled_from(["restriction", "assigned", "other host"]))
    if how == "other host":
        H = draw(valid_hierarchies())
    subsets = closed_subsets(H.carrier, max_elements=5)
    if how == "assigned":
        a, b = draw(st.sampled_from(H.strict(1)))
        subset = draw(st.sampled_from([s for s in subsets if a in s and b in s] or subsets))
        le1, le2 = draw(st.sampled_from(_assignments_on(subset)))
        return Pattern(subset, le1, le2), P
    return H.restrict_pattern(draw(st.sampled_from(subsets))), P


@given(substructure_candidates())
@settings(max_examples=200, deadline=None)
def test_closed_substructure_matches_restriction(case):
    # the check compares pair counts on P's rows; its definition restricts
    # P's relations to Q's universe and compares the frozensets
    Q, P = case
    keep = Q.universe.as_set()
    want = Q.universe <= P.universe and all(
        Q.rel(k) == restrict_relation(P.rel(k), keep) for k in (1, 2)
    )
    assert is_closed_substructure(Q, P) == want


# -- isomorphism --------------------------------------------------------------


def _keys_match_term_key(carrier, le1, le2):
    index, rows = carrier.index, _memo_rows(carrier, le1, le2)
    for subset in closed_subsets(carrier):
        want = naive_isomorphism_type(subset, le1, le2)
        assert isomorphism_type(subset, le1, le2) == want
        assert _rank_key(index, [index.rank[x] for x in subset], rows) == want


@given(forged_relations())
@settings(max_examples=150, deadline=None)
def test_isomorphism_keys_match_term_key_on_forged_hosts(case):
    universe, le1, le2 = case
    _keys_match_term_key(universe, frozenset(le1), frozenset(le2))


@pytest.mark.parametrize("name", ["omega2", "big", "ladder", "wide20"])
def test_isomorphism_keys_match_term_key_on_built_hosts(name):
    H = built(name)
    _keys_match_term_key(H.carrier, H.le1, H.le2)


def test_isomorphism_type_rejects_open_elements():
    # missing summands (w+1 without w), a missing 0, and a missing remainder
    # alone (w+w+1 without w+w, all its summands present)
    for gens in (["0", "w+1"], ["1"], ["0", "1", "w", "w+w+1"]):
        with pytest.raises(ValueError):
            isomorphism_type([t(g) for g in gens], frozenset(), frozenset())



def test_iso_identity():
    P = trivial_pattern([t("w+1")])
    iso = find_isomorphism(P, P)
    assert iso == {x: x for x in P.universe}


def test_iso_example():
    P = trivial_pattern([ONE, OMEGA])
    Q = trivial_pattern([ONE, t("w^(2)")])
    iso = find_isomorphism(P, Q)
    assert iso == {ZERO: ZERO, ONE: ONE, OMEGA: t("w^(2)")}


def test_iso_counts_mismatch():
    assert find_isomorphism(trivial_pattern([ONE]), trivial_pattern([ONE, OMEGA])) is None


def test_iso_relation_mismatch():
    P = Pattern(closure([ONE, OMEGA]), le1=[(ONE, OMEGA)])
    Q = trivial_pattern([ONE, OMEGA])
    assert find_isomorphism(P, Q) is None
    assert find_isomorphism(Q, P) is None


def test_iso_inverse_and_equivalence():
    pats = [
        trivial_pattern([ONE, OMEGA]),
        trivial_pattern([ONE, t("w^(2)")]),
        trivial_pattern([OMEGA, t("w^(2)")]),
        Pattern(closure([ONE, OMEGA]), le1=[(ONE, OMEGA)]),
    ]
    for P in pats:
        assert find_isomorphism(P, P) is not None  # reflexive
    for P, Q in itertools.permutations(pats, 2):
        f = find_isomorphism(P, Q)
        g = find_isomorphism(Q, P)
        assert (f is None) == (g is None)  # symmetric
        if f is not None:
            assert {v: k for k, v in f.items()} == g  # inverse
    for P, Q, R in itertools.permutations(pats, 3):
        if find_isomorphism(P, Q) and find_isomorphism(Q, R):
            assert find_isomorphism(P, R) is not None  # transitive


# universes of equal size, some of one arithmetic shape, some of another
ISO_UNIVERSES = {
    3: [["1", "w"], ["1", "w^(2)"], ["w", "w^(w)"], ["2"], ["w+w"]],
    4: [["w+1"], ["w^(2)+1"], ["w^(w)+w"], ["1", "w", "w^(2)"], ["3"], ["w+w", "1"]],
}


@functools.lru_cache(maxsize=None)
def _assigned(gens):
    universe = closure(t(g) for g in gens)
    return [Pattern(universe, le1, le2) for le1, le2 in valid_relation_assignments(universe)]


@functools.lru_cache(maxsize=None)
def _restricted(name):
    H = built(name)
    by_size = {}
    for subset in closed_subsets(H.carrier, max_elements=7):
        by_size.setdefault(len(subset), []).append(H.restrict_pattern(subset))
    return by_size


@st.composite
def pattern_pairs(draw):
    """Two patterns on universes of equal size: every valid relation
    assignment on small universes (often the same assignment on two
    universes of one shape), or closed substructures of built hierarchies."""
    if draw(st.booleans()):
        size = draw(st.sampled_from(sorted(ISO_UNIVERSES)))
        pa = _assigned(tuple(draw(st.sampled_from(ISO_UNIVERSES[size]))))
        pb = _assigned(tuple(draw(st.sampled_from(ISO_UNIVERSES[size]))))
        i = draw(st.integers(0, len(pa) - 1))
        j = i if draw(st.booleans()) else draw(st.integers(0, len(pb) - 1))
        return pa[i], pb[j % len(pb)]
    by_size = _restricted(draw(st.sampled_from(["big", "ladder", "wide20"])))
    bucket = by_size[draw(st.sampled_from(sorted(by_size)))]
    return draw(st.sampled_from(bucket)), draw(st.sampled_from(bucket))


def _agrees_with_brute(P, Q):
    want = brute_isomorphism(P, Q)
    assert find_isomorphism(P, Q) == want
    same_key = isomorphism_type(P.universe.elements, P.le1, P.le2) == isomorphism_type(
        Q.universe.elements, Q.le1, Q.le2
    )
    assert same_key == (want is not None)


@given(pattern_pairs())
@settings(max_examples=300, deadline=None)
def test_isomorphism_matches_brute_bijections(pair):
    _agrees_with_brute(*pair)


def test_isomorphism_matches_brute_bijections_on_every_assignment_pair():
    # random pairs rarely meet two assignments that share the endpoints of
    # their strict pairs on one side only; every pair of one shape does
    for P in _assigned(("w+1",)):
        for Q in _assigned(("w^(2)+1",)):
            _agrees_with_brute(P, Q)


# -- pointwise order ----------------------------------------------------------


def test_pointwise_examples():
    assert pointwise_le([ONE, OMEGA], [ONE, t("w^(2)")])
    assert pointwise_le([ONE, OMEGA], [ONE, OMEGA])
    assert not pointwise_le([OMEGA], [ONE])
    # unsorted input is compared in increasing order
    assert pointwise_le([OMEGA, ONE], [t("w^(2)"), ONE])
    assert not pointwise_le([OMEGA, ONE], [t("w^(2)"), ZERO])
    # so are unsorted tuples, and repeats count once
    assert pointwise_le((OMEGA, ONE), (t("w^(2)"), ONE))
    assert not pointwise_le((OMEGA, ONE), (ONE, ZERO))
    assert pointwise_le((ONE, ONE, OMEGA), (ONE, t("w^(2)")))
    assert pointwise_le([ONE, OMEGA, ONE], (OMEGA, OMEGA, t("w^(2)")))
    with pytest.raises(ValueError):
        pointwise_le([ONE], [ONE, OMEGA])
    with pytest.raises(ValueError):
        pointwise_le((ONE, ONE), (ONE, OMEGA))


def test_pointwise_takes_ascending_tuples_as_they_are(monkeypatch):
    # covering ranges arrive as strictly ascending tuples: nothing to sort
    import patternforge.patterns as patterns

    def refuse(xs):
        raise AssertionError(f"sorted {xs!r}")

    monkeypatch.setattr(patterns, "sorted", refuse, raising=False)
    assert pointwise_le((ZERO, ONE, OMEGA), (ZERO, OMEGA, t("w^(2)")))
    assert not pointwise_le((ZERO, OMEGA), (ZERO, ONE))
    with pytest.raises(AssertionError):
        pointwise_le((ONE, ZERO), (ZERO, ONE))


@st.composite
def equal_size_sets(draw):
    pool = [t(s) for s in ["0", "1", "2", "w", "w+1", "w+w", "w^(2)", "w^(2)+1"]]
    n = draw(st.integers(min_value=1, max_value=4))
    xs = draw(st.sets(st.sampled_from(pool), min_size=n, max_size=n))
    ys = draw(st.sets(st.sampled_from(pool), min_size=n, max_size=n))
    zs = draw(st.sets(st.sampled_from(pool), min_size=n, max_size=n))
    return xs, ys, zs


@given(equal_size_sets())
@settings(max_examples=150)
def test_pointwise_partial_order(sets):
    xs, ys, zs = sets
    assert pointwise_le(xs, xs)
    if pointwise_le(xs, ys) and pointwise_le(ys, xs):
        assert xs == ys
    if pointwise_le(xs, ys) and pointwise_le(ys, zs):
        assert pointwise_le(xs, zs)


# -- covers -------------------------------------------------------------------


def test_covers_examples():
    base = trivial_pattern([ONE, OMEGA])
    rich = Pattern(base.universe, le1=[(ONE, OMEGA)])
    assert covers(base, base)
    assert covers(rich, base)
    assert not covers(base, rich)
    with pytest.raises(ValueError):
        covers(base, trivial_pattern([ONE]))


def test_covers_partial_order_on_assignments():
    universe = sorted(closure([ONE, OMEGA]))
    pats = [
        Pattern(universe, le1, le2)
        for le1, le2 in valid_relation_assignments(universe)
    ]
    for P in pats:
        assert covers(P, P)
    for P, Q in itertools.permutations(pats, 2):
        if covers(P, Q) and covers(Q, P):
            assert P == Q
    for P, Q, R in itertools.permutations(pats, 3):
        if covers(P, Q) and covers(Q, R):
            assert covers(P, R)
