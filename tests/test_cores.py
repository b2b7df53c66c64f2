import pytest
from hypothesis import assume, given, settings, strategies as st

from patternforge import (
    Core,
    CoreMismatch,
    Hierarchy,
    InitialSegmentEmbedding,
    ONE,
    OMEGA,
    Pattern,
    ZERO,
    closure,
    compare_cores,
    compute_core,
    is_pattern,
    isominimal,
    longest_chain2,
    parse_term,
    pointwise_le,
    trivial_pattern,
)
from patternforge.cores import closed_subsets
from conftest import FORGE_POOL, built, valid_hierarchies
from oracles import (
    all_strict_chains2,
    brute_closed_subsets,
    brute_complete,
    brute_core,
    brute_realization,
    brute_validate,
    has_isomorphic_closed_substructure,
)


def t(s):
    return parse_term(s)


def names(terms):
    return [str(x) for x in terms]


# -- closed subset enumeration ---------------------------------------------------


def test_closed_subsets_small(hierarchy_big):
    subs = closed_subsets(hierarchy_big.carrier, max_elements=2)
    assert [names(s) for s in subs] == [
        ["0"],
        ["0", "w^(0)"],
        ["0", "w^(w^(0))"],
        ["0", "w^(w^(0)+w^(0))"],
    ]


def test_closed_subsets_respect_indec_bound(hierarchy_big):
    for s in closed_subsets(hierarchy_big.carrier, max_indecomposables=1):
        assert sum(1 for x in s if len(x.exponents) == 1) <= 1


def test_closed_subsets_empty_below_one_element(hierarchy_big):
    # {0} has one element and no indecomposable, so tighter bounds admit nothing
    assert closed_subsets(hierarchy_big.carrier, max_elements=0) == []
    assert closed_subsets(hierarchy_big.carrier, max_indecomposables=-1) == []
    assert closed_subsets(hierarchy_big.carrier, max_indecomposables=0) == [(ZERO,)]


@given(st.sets(st.sampled_from(FORGE_POOL), max_size=3), st.data())
@settings(max_examples=100, deadline=None)
def test_closed_subsets_match_brute_force(gens, data):
    carrier = closure(t(g) for g in gens)
    assume(len(carrier) <= 9)
    bounds = st.one_of(st.none(), st.integers(0, len(carrier)))
    max_indecomposables, max_elements = data.draw(bounds), data.draw(bounds)
    assert closed_subsets(carrier, max_indecomposables, max_elements) == brute_closed_subsets(
        carrier, max_indecomposables, max_elements
    )


# -- isominimal -------------------------------------------------------------------


def test_isominimal_zero_pattern(hierarchy_big):
    rep = isominimal(trivial_pattern([]), hierarchy_big)
    assert names(rep.realization.universe) == ["0"]
    assert rep.unique_minimum and rep.below_all_covers and rep.isomorphic


def test_isominimal_uncovered(hierarchy_big):
    P = Pattern(
        closure([t("w+1"), t("w+w")]),
        le1=[(t("w+1"), t("w+w"))],
        le2=[(t("w+1"), t("w+w"))],
    )
    rep = isominimal(P, hierarchy_big)
    assert rep.realization is None
    assert rep.covers_enumerated == 0


def test_isominimal_picks_pointwise_least(hierarchy_big):
    rep = isominimal(trivial_pattern([ONE, OMEGA]), hierarchy_big)
    assert names(rep.realization.universe) == ["0", "w^(0)", "w^(w^(0))"]
    assert rep.unique_minimum and rep.below_all_covers and rep.isomorphic
    assert rep.covers_enumerated == 3


def test_isominimal_without_unique_minimum():
    # the two coverings' ranges {0, 1, w^w, w^w+1} and {0, w, w^2, w^2+w}
    # are pointwise incomparable; the realization is the lexicographically
    # least of them
    from patternforge import build_hierarchy

    H = build_hierarchy(closure([t("w^(w)+1"), t("w^(2)+w")]), t("w^(w+1)"))
    P = trivial_pattern([t("w^(w)+1")])
    rep = isominimal(P, H)
    assert not rep.unique_minimum and not rep.below_all_covers
    assert rep.covers_enumerated == 2
    assert rep.realization.universe.elements == (ZERO, ONE, t("w^(w)"), t("w^(w)+1"))
    assert rep.isomorphic
    got = (rep.realization, rep.unique_minimum, rep.below_all_covers, rep.isomorphic, rep.covers_enumerated)
    assert got == brute_realization(P, H)


def test_isominimal_compares_each_range_once(hierarchy_big, monkeypatch):
    # the first covering's range is the least, so one pass decides both flags
    import patternforge.cores as cores

    calls = []
    monkeypatch.setattr(cores, "pointwise_le", lambda X, Y: calls.append(1) or pointwise_le(X, Y))
    rep = isominimal(trivial_pattern([ONE, OMEGA]), hierarchy_big)
    assert 0 < len(calls) <= rep.covers_enumerated == 3


@st.composite
def patterns_for(draw, H):
    """A pattern on a closed subset, of at most 5 elements, of H's carrier,
    whose relations are the least valid ones holding some of H's pairs
    there."""
    subset = draw(st.sampled_from(closed_subsets(H.carrier, max_elements=5)))
    Q = H.restrict_pattern(subset)
    seed1 = [p for p in Q.strict_le1() if draw(st.booleans())]
    seed2 = [p for p in Q.strict_le2() if p in seed1 and draw(st.booleans())]
    return Pattern(subset, *brute_complete(subset, seed1, seed2))


@given(valid_hierarchies(), valid_hierarchies(), st.data())
@settings(max_examples=100, deadline=None)
def test_isominimal_matches_brute_realization(H, other, data):
    # patterns drawn from the host are covered; from another host, maybe not
    P = data.draw(patterns_for(data.draw(st.sampled_from([H, other]))))
    rep = isominimal(P, H)
    got = (rep.realization, rep.unique_minimum, rep.below_all_covers, rep.isomorphic, rep.covers_enumerated)
    assert got == brute_realization(P, H)


def test_isominimal_enriched_cover_still_dominated(hierarchy_ladder):
    # one covering range picks up the strict (w, w^2) pair; the minimal
    # realization is still pointwise below it and relation-clean
    rep = isominimal(trivial_pattern([ONE, OMEGA]), hierarchy_ladder)
    assert names(rep.realization.universe) == ["0", "w^(0)", "w^(w^(0))"]
    assert rep.below_all_covers and rep.isomorphic


def test_isominimal_realization_carries_host_relations(hierarchy_big):
    # coverings preserve relations forward only: a pattern on a closed subset
    # of the host with fewer pairs than the host has there is realized by the
    # host's substructure, not by itself
    P = trivial_pattern([t("w+1")])
    rep = isominimal(P, hierarchy_big)
    assert rep.realization == hierarchy_big.restrict_pattern(P.universe)
    assert rep.realization != P and not rep.isomorphic


def test_isominimal_minimality_is_exhaustive(hierarchy_big):
    from patternforge import search_coverings

    P = trivial_pattern([ONE])
    rep = isominimal(P, hierarchy_big)
    chosen = rep.realization.universe.elements
    for cov in search_coverings(P, hierarchy_big):
        assert pointwise_le(chosen, cov.range_elements)


# -- compute_core -----------------------------------------------------------------


def test_core_singleton():
    from patternforge import build_hierarchy

    H = build_hierarchy(closure([]), ONE)
    core = compute_core(H, 1)
    assert names(core.members) == ["0"]


def test_core_zero_one(hierarchy_one):
    core = compute_core(hierarchy_one, 2)
    assert names(core.members) == ["0", "w^(0)"]


def test_core_omega2_golden(hierarchy_omega2):
    core = compute_core(hierarchy_omega2, 2)
    assert names(core.members) == ["0", "w^(w^(0))", "w^(w^(0))+w^(w^(0))"]
    assert names(core.witness_for(OMEGA).universe) == ["0", "w^(w^(0))"]


def test_core_big_golden(hierarchy_big):
    core = compute_core(hierarchy_big, 2)
    assert names(core.members) == [
        "0",
        "w^(0)",
        "w^(w^(0))",
        "w^(w^(0))+w^(0)",
        "w^(w^(0))+w^(w^(0))",
        "w^(w^(0)+w^(0))",
    ]
    # the w+1 member is witnessed by the pattern carrying the strict le1 pair
    witness = core.witness_for(t("w+1"))
    assert witness.strict_le1() == ((OMEGA, t("w+1")),)


def test_core_monotone_in_bound(hierarchy_big, hierarchy_ladder):
    for H in (hierarchy_big, hierarchy_ladder):
        members = [compute_core(H, bound).members for bound in (1, 2, 3)]
        assert set(members[0]) <= set(members[1]) <= set(members[2])


def test_core_rejects_bad_bound(hierarchy_one):
    with pytest.raises(ValueError):
        compute_core(hierarchy_one, 0)


@pytest.mark.parametrize("bound", [True, 2.0])
def test_core_rejects_bounds_the_loader_rejects(hierarchy_one, bound):
    # io.read_core accepts only an int of at least 1, so a core computed at
    # any other bound would be written but never read back
    with pytest.raises(ValueError):
        compute_core(hierarchy_one, bound)


@st.composite
def forged_hierarchies(draw):
    """A Hierarchy on a closed carrier of at most 8 elements whose relations
    are the least valid ones holding a few random ascending pairs, with at
    least one strict le1 pair."""
    gens = draw(st.sets(st.sampled_from(FORGE_POOL), min_size=1, max_size=3))
    carrier = closure(t(g) for g in gens)
    assume(len(carrier) <= 8)
    ascending = [(a, b) for a in carrier for b in carrier if a < b]
    seed1 = draw(st.sets(st.sampled_from(ascending), min_size=1, max_size=3))
    seed2 = draw(st.sets(st.sampled_from(sorted(seed1)), max_size=2))
    le1, le2 = brute_complete(carrier.elements, seed1, seed2)
    assert brute_validate(carrier.elements, le1, le2)
    return Hierarchy(carrier=carrier, top=t("w^(w^(w))"), le1=frozenset(le1), le2=frozenset(le2))


@given(forged_hierarchies() | valid_hierarchies(), st.integers(1, 3))
@settings(max_examples=120, deadline=None)
def test_core_matches_pairwise_brute_dedupe(H, bound):
    # forged hosts may have strict pairs with decomposable endpoints; valid
    # ones keep every strict pair's endpoints indecomposable
    core = compute_core(H, bound)
    assert (core.members, core.witness) == brute_core(H, bound)


# -- compare_cores ----------------------------------------------------------------


def test_compare_identity(hierarchy_big):
    core = compute_core(hierarchy_big, 2)
    res = compare_cores(core, core)
    assert isinstance(res, InitialSegmentEmbedding)
    assert res.initial_segment_flag
    assert all(a == b for a, b in res.mapping)


def test_compare_nested_desk_check(hierarchy_omega2, hierarchy_big):
    # pinned: the small core lands on the first three members of the big one
    c_small = compute_core(hierarchy_omega2, 2)
    c_big = compute_core(hierarchy_big, 2)
    res = compare_cores(c_small, c_big)
    assert isinstance(res, InitialSegmentEmbedding)
    assert res.initial_segment_flag
    assert [(str(a), str(b)) for a, b in res.mapping] == [
        ("0", "0"),
        ("w^(w^(0))", "w^(0)"),
        ("w^(w^(0))+w^(w^(0))", "w^(w^(0))"),
    ]


def test_compare_truncated_mismatch(hierarchy_omega2, hierarchy_one):
    c1 = compute_core(hierarchy_omega2, 2)
    c2 = compute_core(hierarchy_one, 2)
    truncated = Core(
        host=c2.host, members=c2.members[:1], witness=c2.witness[:1], size_bound=2
    )
    res = compare_cores(c1, truncated)
    assert isinstance(res, CoreMismatch)
    assert res.position == 1
    assert res.right_witness is None


def test_compare_bound_mismatch(hierarchy_one):
    c1 = compute_core(hierarchy_one, 1)
    c2 = compute_core(hierarchy_one, 2)
    with pytest.raises(ValueError):
        compare_cores(c1, c2)


# -- is_pattern -------------------------------------------------------------------


def test_is_pattern_zero(hierarchy_big):
    decision = is_pattern(trivial_pattern([]), hierarchy_big)
    assert decision.ok and decision.reason == "H-covered"


def test_is_pattern_invalid(hierarchy_big):
    decision = is_pattern(([ZERO, ONE, OMEGA], [(ZERO, OMEGA)], []), hierarchy_big)
    assert not decision.ok
    assert decision.reason == "invalid structure"
    assert "respect" in decision.detail


def test_is_pattern_indecomposability_reason(hierarchy_big):
    P = Pattern(
        closure([t("w+1"), t("w+w")]),
        le1=[(t("w+1"), t("w+w"))],
        le2=[(t("w+1"), t("w+w"))],
    )
    decision = is_pattern(P, hierarchy_big)
    assert not decision.ok
    assert decision.reason == "valid but not H-covered"
    assert "indecomposable" in decision.detail


@pytest.mark.parametrize("name", ["one", "omega2", "big"])
def test_is_pattern_matches_substructure_oracle(name):
    H = built(name)
    candidates = [
        trivial_pattern([]),
        trivial_pattern([ONE]),
        trivial_pattern([OMEGA]),
        trivial_pattern([t("w^(3)")]),
        trivial_pattern([ONE, OMEGA]),
        trivial_pattern([t("w+w")]),
        Pattern(closure([ONE, OMEGA]), le1=[(ONE, OMEGA)]),
        Pattern(closure([ONE, OMEGA]), le1=[(ONE, OMEGA)], le2=[(ONE, OMEGA)]),
    ]
    for S in candidates:
        got = bool(is_pattern(S, H))
        want = has_isomorphic_closed_substructure(S, H)
        assert got == want, (name, names(S.universe))


def test_is_pattern_oracle_divergence_on_tiny_carrier(hierarchy_ladder):
    # Recorded truncation artifact: coverability quantifies forward only, so a
    # le1-only pattern can land on the enriched (le1 and le2) substructure of
    # this four-element carrier while no substructure matches it exactly.
    # Larger carriers separate the relations and the two decisions agree; see
    # test_is_pattern_matches_substructure_oracle.
    P = Pattern(closure([ONE, OMEGA]), le1=[(ONE, OMEGA)])
    assert bool(is_pattern(P, hierarchy_ladder))
    assert not has_isomorphic_closed_substructure(P, hierarchy_ladder)


# -- longest_chain2 ---------------------------------------------------------------


def test_chain_empty_without_strict_pairs(hierarchy_big):
    from patternforge import build_hierarchy

    H0 = build_hierarchy(closure([]), ONE)
    assert longest_chain2(H0) == ()
    assert longest_chain2(hierarchy_big) == ()


def test_chain_ladder_golden(hierarchy_ladder):
    assert names(longest_chain2(hierarchy_ladder)) == ["w^(w^(0))", "w^(w^(0)+w^(0))"]


@pytest.mark.parametrize("name", ["one", "omega2", "big", "ladder"])
def test_chain_matches_bruteforce(name):
    H = built(name)
    got = longest_chain2(H)
    chains = all_strict_chains2(H)
    if not chains:
        assert got == ()
    else:
        longest = max(len(c) for c in chains)
        assert len(got) == longest
        assert got == min(c for c in chains if len(c) == longest)
        for a, b in zip(got, got[1:]):
            assert a != b and (a, b) in H.le2
