import itertools
from bisect import bisect_left

import pytest
from hypothesis import assume, given, settings, strategies as st

from patternforge import (
    Budget,
    Covering,
    ONE,
    OMEGA,
    Pattern,
    RegressiveMap,
    ZERO,
    closure,
    extend_covering,
    extends_above,
    is_covering,
    parse_term,
    regressive_maps,
    search_coverings,
    trivial_pattern,
)
from patternforge.cores import closed_subsets
from patternforge.covering import test_cofinal_validity as cofinal_validity
from conftest import FORGE_CARRIERS, OUTSIDE, built, element_pins, valid_hierarchies
from oracles import (
    brute_cofinal_validity,
    brute_complete,
    brute_validate,
    covering_maps_bruteforce,
    covering_maps_by_shape,
    shape_buckets,
)


def t(s):
    return parse_term(s)


def assignments(P, H, **kw):
    return [cov.assignment for cov in search_coverings(P, H, **kw)]


# -- is_covering ---------------------------------------------------------------


def test_identity_on_closed_substructure(hierarchy_big):
    H = hierarchy_big
    P = H.restrict_pattern([ZERO, ONE, OMEGA, t("w+1")])
    ident = {x: x for x in P.universe}
    assert is_covering(ident, P, H)


def test_non_closed_range_rejected(hierarchy_big):
    # dropping w from the domain leaves {0, 1, w+1}, not a closed range
    H = hierarchy_big
    P = H.restrict_pattern([ZERO, ONE, OMEGA, t("w+1")])
    partial = {ZERO: ZERO, ONE: ONE, t("w+1"): t("w+1")}
    assert not is_covering(partial, P, H)


def test_forward_preservation_rejected(hierarchy_ladder):
    # ladder has (w, w^2) in le1; send them to an unrelated strict pair
    H = hierarchy_ladder
    P = Pattern(closure([ONE, OMEGA]), le1=[(ONE, OMEGA)])
    mapping = {ZERO: ZERO, ONE: ONE, OMEGA: OMEGA}
    assert not is_covering(mapping, P, H)


def test_non_arithmetic_map_rejected(hierarchy_big):
    H = hierarchy_big
    P = trivial_pattern([ONE, OMEGA])
    mapping = {ZERO: ZERO, ONE: ONE, OMEGA: t("w+1")}
    assert not is_covering(mapping, P, H)


# -- search_coverings ------------------------------------------------------------


def test_search_singleton(hierarchy_one):
    P = trivial_pattern([])
    out = assignments(P, hierarchy_one)
    assert out == [((ZERO, ZERO),)]


def test_search_strict_le2_on_decomposables_empty(hierarchy_big):
    # decomposable endpoints can never land on a strict le2 pair
    P = Pattern(closure([t("w+1"), t("w+w")]), le2=[(t("w+1"), t("w+w"))],
                le1=[(t("w+1"), t("w+w"))])
    assert assignments(P, hierarchy_big) == []


def test_search_count_golden(hierarchy_omega2):
    # pinned: the only indecomposable available is w itself
    P = trivial_pattern([OMEGA])
    out = assignments(P, hierarchy_omega2)
    assert out == [((ZERO, ZERO), (OMEGA, OMEGA))]


def test_search_lex_order(hierarchy_big):
    P = trivial_pattern([ONE])
    images = [dict(a)[ONE] for a in assignments(P, hierarchy_big)]
    assert images == sorted(images)
    assert [str(x) for x in images] == ["w^(0)", "w^(w^(0))", "w^(w^(0)+w^(0))"]


def test_search_fixed_prefix(hierarchy_big):
    P = trivial_pattern([ONE, OMEGA])
    pinned = assignments(P, hierarchy_big, fixed={ONE: OMEGA})
    assert pinned == [
        ((ZERO, ZERO), (ONE, OMEGA), (OMEGA, t("w^(2)"))),
    ]


def test_search_lower_bounds(hierarchy_big):
    P = trivial_pattern([ONE])
    out = assignments(P, hierarchy_big, lower_bounds={ONE: OMEGA})
    assert out == [((ZERO, ZERO), (ONE, t("w^(2)")))]


@pytest.mark.parametrize("name", ["omega2", "big", "ladder"])
def test_search_matches_bruteforce(name):
    # oracle equivalence: exhaustive increasing-injection enumeration filtered
    # by is_covering equals the backtracking search output
    H = built(name)
    universes = [
        [ZERO],
        [ONE],
        [OMEGA],
        [ONE, OMEGA],
        [t("w+1")],
        [t("w+w")],
        [ONE, t("w+w")],
    ]
    relations = [
        {},
        {"le1": [(ONE, OMEGA)]},
        {"le1": [(OMEGA, t("w+w"))]},
        {"le1": [(OMEGA, t("w+w"))], "le2": [(OMEGA, t("w+w"))]},
    ]
    for gens in universes:
        uni = closure(gens)
        for rel in relations:
            pairs_ok = all(
                a in uni.as_set() and b in uni.as_set()
                for ps in rel.values()
                for a, b in ps
            )
            if not pairs_ok:
                continue
            try:
                P = Pattern(uni, **rel)
            except ValueError:
                continue
            got = sorted(cov.assignment for cov in search_coverings(P, H))
            want = covering_maps_bruteforce(P, H)
            assert got == want, (name, [str(x) for x in uni], rel)


def strict_pairs_within(H, k, universe):
    return [(a, b) for a, b in H.strict(k) if a in universe and b in universe]


@st.composite
def forged_pattern(draw, H, universes):
    """A pattern on a closed subset of H's carrier drawn from universes, with
    strict pairs of its own: the least valid relations holding a few
    ascending pairs, drawn from H's strict pairs there (so that the pattern
    is often covered) or, now and then, from all of them."""
    universe = closure(draw(universes))
    ascending = [(a, b) for a in universe for b in universe if a < b]
    inside1 = strict_pairs_within(H, 1, universe)
    if inside1 and draw(st.integers(0, 3)):
        pool1, pool2 = inside1, strict_pairs_within(H, 2, universe)
    else:
        pool1 = pool2 = ascending
    seed1 = draw(st.sets(st.sampled_from(pool1), min_size=1, max_size=3))
    seed2 = draw(st.sets(st.sampled_from(pool2), max_size=1)) if pool2 else set()
    le1, le2 = brute_complete(universe.elements, seed1, seed2)
    assert brute_validate(universe.elements, le1, le2)
    return Pattern(universe, le1, le2)


@settings(max_examples=80, deadline=None)
@given(H=valid_hierarchies(), data=st.data())
def test_search_matches_bruteforce_on_forged_hosts(H, data):
    # hosts with at least two strict le1 pairs: a restriction of the host
    # carries the host's pairs, a forged pattern pairs of its own, and a
    # covering must carry either into the host; most closed subsets hold no
    # strict pair, so those that do are drawn half the time
    subsets = [s for s in closed_subsets(H.carrier, max_elements=6) if len(s) > 1]
    paired = [s for s in subsets if strict_pairs_within(H, 1, s)]
    universes = st.sampled_from(paired or subsets) | st.sampled_from(subsets)
    for P in (H.restrict_pattern(data.draw(universes)), data.draw(forged_pattern(H, universes))):
        got = [cov.assignment for cov in search_coverings(P, H)]
        assert sorted(got) == covering_maps_bruteforce(P, H)
        assert len(set(got)) == len(got)


@settings(max_examples=80, deadline=None)
@given(H=valid_hierarchies(), data=st.data())
def test_fixed_search_matches_filtered_bruteforce(H, data):
    # element pins, decomposable or not, that some covering agrees with, that
    # have another summand count, that lie outside the carrier, or that send
    # one summand to two places
    subsets = [s for s in closed_subsets(H.carrier, max_elements=6) if len(s) > 1]
    universe = data.draw(st.sampled_from(subsets))
    P = H.restrict_pattern(universe) if data.draw(st.booleans()) else data.draw(forged_pattern(H, st.just(universe)))
    want = covering_maps_bruteforce(P, H)
    fixed = data.draw(element_pins(P.universe.elements, H.carrier.elements + (OUTSIDE,)))
    if want and data.draw(st.booleans()):
        fixed.update(data.draw(st.sets(st.sampled_from(data.draw(st.sampled_from(want))), max_size=3)))
    got = assignments(P, H, fixed=fixed)
    assert sorted(got) == [cov for cov in want if all(dict(cov)[x] == y for x, y in fixed.items())]


def test_search_splits_element_pins(hierarchy_big):
    # a pin fixes each summand of its element on the summand of its image in
    # the same place; a pin with another summand count, one outside the
    # carrier, or two pins sending w to two places admit nothing
    P = trivial_pattern([ONE, t("w+w")])
    assert assignments(P, hierarchy_big, fixed={t("w+w"): t("w+w")}) == [
        ((ZERO, ZERO), (ONE, ONE), (OMEGA, OMEGA), (t("w+w"), t("w+w")))
    ]
    for fixed in (
        {t("w+w"): t("w^(2)")},
        {ONE: ZERO},
        {ONE: OUTSIDE},
        {OMEGA: t("w^(2)"), t("w+w"): t("w+w")},
    ):
        assert assignments(P, hierarchy_big, fixed=fixed) == [], fixed


def test_search_rejects_fixed_outside_universe(hierarchy_big):
    # w+1 is not in P: its summand 1 must not be pinned behind P's back
    P = trivial_pattern([ONE])
    with pytest.raises(ValueError, match="not in the pattern's universe"):
        assignments(P, hierarchy_big, fixed={t("w+1"): t("w+w")})


def test_shape_bucket_oracle_agrees(hierarchy_big):
    H = hierarchy_big
    for gens in ([ONE], [ONE, OMEGA], [t("w+1")], [t("w+w")]):
        P = trivial_pattern(gens)
        buckets = shape_buckets(H, len(P.universe))
        assert covering_maps_by_shape(P, H, buckets) == covering_maps_bruteforce(P, H)


# -- regressive maps and extends_above -------------------------------------------


def covering_of(P, H, **kw):
    return next(search_coverings(P, H, **kw))


def test_regressive_map_validation(hierarchy_big):
    with pytest.raises(ValueError):
        RegressiveMap({OMEGA: OMEGA})
    with pytest.raises(ValueError):
        RegressiveMap({t("w+1"): ONE})
    RegressiveMap({OMEGA: ONE})


def test_maximal_regressive_map(hierarchy_big):
    h = covering_of(trivial_pattern([ONE, OMEGA]), hierarchy_big)
    phi = RegressiveMap.maximal(h)
    assert phi.as_dict() == {ONE: ZERO, OMEGA: ONE}


@pytest.mark.parametrize("name", ["big", "ladder", "wide20"])
def test_maximal_bounds_by_rank_match_bisection(name):
    # every covering into the host of each of its closed substructures with
    # at most two indecomposables
    H = built(name)
    carrier = H.carrier.elements
    checked = 0
    for subset in closed_subsets(H.carrier, max_indecomposables=2):
        for h in search_coverings(H.restrict_pattern(subset), H):
            want = {xi: carrier[bisect_left(carrier, xi) - 1] for xi in h.range_indecomposables()}
            assert RegressiveMap.maximal(h).as_dict() == want
            checked += 1
    assert checked > len(carrier)


def test_regressive_enumeration_maximal_first(hierarchy_big):
    h = covering_of(trivial_pattern([OMEGA]), hierarchy_big, fixed={OMEGA: OMEGA})
    phis = list(regressive_maps(h))
    assert phis[0] == RegressiveMap.maximal(h)
    assert len(phis) == len(set(phis))
    # domain {w}: bounds range over the carrier elements below w
    assert len(phis) == 2


def test_extends_above_vacuous_for_all_phi():
    for name in ("omega2", "big", "ladder"):
        H = built(name)
        for P in (trivial_pattern([OMEGA]), trivial_pattern([ONE])):
            for h in search_coverings(P, H):
                for phi in regressive_maps(h):
                    assert extends_above(h, h, phi)


def test_extends_above_bound_violated(hierarchy_big):
    H = hierarchy_big
    P = trivial_pattern([OMEGA])
    Pplus = trivial_pattern([ONE, OMEGA])
    h = covering_of(P, H, fixed={OMEGA: OMEGA})
    hplus_low = Covering.from_map(Pplus, H, {ZERO: ZERO, ONE: ONE, OMEGA: OMEGA})
    phi = RegressiveMap({OMEGA: ONE})
    # fresh indecomposable 1 sits under w with image not above phi(w) = 1
    assert not extends_above(hplus_low, h, phi)
    assert extends_above(hplus_low, h, RegressiveMap({OMEGA: ZERO}))


def test_extends_above_new_elements_on_top(hierarchy_ladder):
    H = hierarchy_ladder
    P = trivial_pattern([ONE])
    Pplus = trivial_pattern([ONE, OMEGA])
    h = covering_of(P, H, fixed={ONE: ONE})
    hplus = Covering.from_map(Pplus, H, {ZERO: ZERO, ONE: ONE, OMEGA: t("w^(2)")})
    phi = RegressiveMap.maximal(h)
    assert extends_above(hplus, h, phi)


def test_extends_above_domain_mismatch(hierarchy_big):
    H = hierarchy_big
    h1 = covering_of(trivial_pattern([ONE]), H)
    h2 = covering_of(trivial_pattern([OMEGA]), H)
    with pytest.raises(ValueError):
        extends_above(h1, h2, RegressiveMap.empty())


# -- extend_covering --------------------------------------------------------------


def test_extend_identity(hierarchy_big):
    P = trivial_pattern([ONE])
    h = covering_of(P, hierarchy_big)
    ext = extend_covering(P, P, h, RegressiveMap.maximal(h))
    assert ext.assignment == h.assignment


def test_extend_zero_to_one(hierarchy_omega):
    # pinned: the fresh element lands on the least carrier indecomposable
    P = trivial_pattern([])
    Pplus = trivial_pattern([ONE])
    h = covering_of(P, hierarchy_omega)
    ext = extend_covering(P, Pplus, h, RegressiveMap.empty())
    assert ext.assignment == ((ZERO, ZERO), (ONE, OMEGA))
    assert is_covering(ext, Pplus, hierarchy_omega)
    assert extends_above(ext, h, RegressiveMap.empty())


def test_extend_unsatisfiable_bounds(hierarchy_big):
    P = trivial_pattern([t("w^(2)")])
    Pplus = trivial_pattern([OMEGA, t("w^(2)")])
    h = covering_of(P, hierarchy_big, fixed={t("w^(2)"): t("w^(2)")})
    # the fresh indecomposable under w^2 must exceed phi(w^2) = w+w; no
    # indecomposable of the carrier sits in that gap
    phi = RegressiveMap.maximal(h)
    assert extend_covering(P, Pplus, h, phi) is None


def test_extension_postconditions(hierarchy_ladder):
    H = hierarchy_ladder
    P = trivial_pattern([ONE])
    Pplus = trivial_pattern([ONE, OMEGA])
    for h in search_coverings(P, H):
        for phi in regressive_maps(h):
            ext = extend_covering(P, Pplus, h, phi)
            if ext is not None:
                assert is_covering(ext, Pplus, H)
                assert extends_above(ext, h, phi)


def test_maximal_phi_dominance(hierarchy_wide20):
    # if an extension exists above the pointwise-maximal map it exists above
    # every map: exhaustive sweep on coverings with <= 2 range indecomposables
    H = hierarchy_wide20
    cases = [
        (trivial_pattern([ONE]), trivial_pattern([t("2")])),
        (trivial_pattern([OMEGA]), trivial_pattern([ONE, OMEGA])),
        (trivial_pattern([ONE, OMEGA]), trivial_pattern([ONE, t("w+1")])),
    ]
    for P, Pplus in cases:
        for h in itertools.islice(search_coverings(P, H), 6):
            phis = list(regressive_maps(h))
            if extend_covering(P, Pplus, h, phis[0]) is not None:
                for phi in phis:
                    assert extend_covering(P, Pplus, h, phi) is not None


# -- cofinal validity --------------------------------------------------------------


def test_identity_rule_valid(hierarchy_big):
    P = hierarchy_big.restrict_pattern([ZERO, ONE, OMEGA, t("w+1")])
    verdict = cofinal_validity(P, P, hierarchy_big)
    assert verdict.valid
    assert verdict.coverings_checked >= 1


def test_impossible_conclusion_counterexample(hierarchy_big):
    # conclusion demands a strict le2 pair between decomposables
    P = trivial_pattern([t("w+1")])
    Pplus = Pattern(
        closure([t("w+1"), t("w+w")]),
        le1=[(t("w+1"), t("w+w"))],
        le2=[(t("w+1"), t("w+w"))],
    )
    verdict = cofinal_validity(P, Pplus, hierarchy_big)
    assert not verdict.valid
    h, phi = verdict.counterexample
    assert h.source == P and phi == RegressiveMap.maximal(h)


def test_budget_caps_coverings(hierarchy_big):
    # the counterexample is the third covering: a cap below it leaves the
    # rule undecided, never valid, and a cap at or above it finds it
    P = trivial_pattern([ONE])
    Pplus = trivial_pattern([ONE, t("w^(w^(w))")])
    unbudgeted = cofinal_validity(P, Pplus, hierarchy_big)
    assert (unbudgeted.valid, unbudgeted.exhaustive, unbudgeted.coverings_checked) == (False, True, 3)
    for cap in (1, 2):
        capped = cofinal_validity(P, Pplus, hierarchy_big, Budget(max_coverings=cap))
        assert not capped
        assert (capped.valid, capped.exhaustive, capped.coverings_checked) == (False, False, cap)
        assert capped.counterexample is None
    for cap in (3, 4):
        assert cofinal_validity(P, Pplus, hierarchy_big, Budget(max_coverings=cap)) == unbudgeted
    # a cap that the covering stream does not reach leaves a valid verdict
    # exhaustive
    ident = cofinal_validity(P, P, hierarchy_big, Budget(max_coverings=3))
    assert (ident.valid, ident.exhaustive, ident.coverings_checked) == (True, True, 3)
    # a budget that checks no covering samples nothing
    for cap in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            Budget(max_coverings=cap)


def test_maximal_bound_counterexample_has_no_budget_escape(hierarchy_big):
    # the extension needs a fresh indecomposable above the image of 1, so the
    # covering that sends 1 to the largest carrier indecomposable has none;
    # no budget may skip the extension check that finds this
    P = trivial_pattern([ONE])
    Pplus = trivial_pattern([ONE, t("w^(w^(w))")])
    verdict = cofinal_validity(P, Pplus, hierarchy_big)
    assert not verdict.valid
    h, phi = verdict.counterexample
    assert phi == RegressiveMap.maximal(h)
    assert extend_covering(P, Pplus, h, phi) is None
    with pytest.raises(TypeError):
        Budget(max_regressive_maps=0)


def test_requires_substructure(hierarchy_big):
    with pytest.raises(ValueError):
        cofinal_validity(
            trivial_pattern([ONE]), trivial_pattern([OMEGA]), hierarchy_big
        )


# -- randomized searcher properties ---------------------------------------------


@st.composite
def random_pattern_and_host(draw):
    pool = [t(s) for s in ["1", "2", "w", "w+1", "w+w", "w^(2)", "w^(2)+1", "w^(2)+w"]]
    gens = draw(st.sets(st.sampled_from(pool), min_size=0, max_size=2))
    host_gens = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=4))
    P = trivial_pattern(gens)
    H = built("wide20") if draw(st.booleans()) else built("big")
    return P, H, host_gens


@given(random_pattern_and_host())
@settings(max_examples=60, deadline=None)
def test_search_random_soundness_and_order(case):
    P, H, _ = case
    seen = []
    for cov in search_coverings(P, H):
        assert is_covering(cov, P, H)
        key = tuple(cov.as_dict()[i] for i in P.indecomposables)
        seen.append(key)
    assert seen == sorted(seen)
    assert len(seen) == len(set(seen))
    got = sorted(cov.assignment for cov in search_coverings(P, H))
    assert got == covering_maps_bruteforce(P, H)


@settings(max_examples=60, deadline=None)
@given(H=valid_hierarchies(), data=st.data())
def test_cofinal_validity_matches_brute_oracle(H, data):
    # conclusions on closed sets inside the host's carrier or reaching past
    # it, trivial or with strict pairs; premises are their restrictions to
    # closed subsets; every cap that can cut the probe short
    inside = [s for s in closed_subsets(H.carrier, max_elements=5) if len(s) > 1]
    beyond = [c.elements for c in FORGE_CARRIERS if 1 < len(c) <= 5]
    universe = data.draw(st.sampled_from(inside) | st.sampled_from(beyond))
    if data.draw(st.booleans()):
        Pplus = trivial_pattern(universe)
    else:
        Pplus = data.draw(forged_pattern(H, st.just(universe)))
    P = Pplus.restrict(data.draw(st.sampled_from(closed_subsets(Pplus.universe))))
    for cap in (None, 1, 2):
        got = cofinal_validity(P, Pplus, H, Budget(max_coverings=cap))
        h = got.counterexample[0] if got.counterexample else None
        assert (got.valid, got.exhaustive, got.coverings_checked, h) == brute_cofinal_validity(P, Pplus, H, cap), cap
