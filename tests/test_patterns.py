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
from conftest import built
from oracles import brute_isomorphism, brute_validate, valid_relation_assignments


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


# -- isomorphism --------------------------------------------------------------


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


def test_pointwise_witness_structure():
    from patternforge import pointwise_comparison

    witness = pointwise_comparison([OMEGA, ONE], [t("w^(2)"), ONE])
    assert witness.pairing == ((ONE, ONE), (OMEGA, t("w^(2)")))
    assert witness.comparisons == (True, True)
    assert witness.holds
    failing = pointwise_comparison([ONE, OMEGA], [ZERO, t("w^(2)")])
    assert failing.comparisons == (False, True)
    assert not failing.holds


def test_pointwise_examples():
    assert pointwise_le([ONE, OMEGA], [ONE, t("w^(2)")])
    assert pointwise_le([ONE, OMEGA], [ONE, OMEGA])
    assert not pointwise_le([OMEGA], [ONE])
    with pytest.raises(ValueError):
        pointwise_le([ONE], [ONE, OMEGA])


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
