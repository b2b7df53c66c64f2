import re

import pytest

from patternforge import (
    Hierarchy,
    ONE,
    OMEGA,
    OrdinalTerm,
    ZERO,
    build_hierarchy,
    check_hierarchy_axioms,
    closure,
    format_term,
    is_indecomposable,
    le_inf,
    one_more_round,
    parse_term,
)
from patternforge import hierarchy as hierarchy_module
from patternforge.hierarchy import _game_round, _structural_pass, game_pass, reduced_challenge
from patternforge.patterns import _rows
from patternforge import io as pfio
from conftest import (
    EXTRA,
    FORGE_CARRIERS,
    SHIPPED,
    built,
    forged_relations,
    forged_snapshots,
    make_carrier,
    valid_hierarchies,
)
from hypothesis import assume, given, settings, strategies as st
from oracles import brute_game, brute_le_inf, brute_validate, game_all_challenges, naive_build, naive_game_round


def t(s):
    return parse_term(s)


def strict_pairs(H, k):
    return [(str(a), str(b)) for a, b in H.strict(k)]


def on_rows(fn, carrier, rel1, rel2, *rest):
    """Run fn, a round step of hierarchy that works on the build's rows, on
    two sets of term pairs: the sets become rows over the carrier's ranks,
    fn(carrier, rows, *rest) runs, and each set is then refilled with the
    pairs its rows hold.  Returns fn's result."""
    rank = carrier.index.rank
    rows = tuple(map(list, _rows(rank, len(carrier), rel1, rel2)))
    assert sum(map(int.bit_count, rows[0] + rows[2])) == len(rel1) + len(rel2)  # all inside
    result = fn(carrier, rows, *rest)
    elems = carrier.elements
    for rel, out in ((rel1, rows[0]), (rel2, rows[2])):
        rel.clear()
        rel.update((x, y) for x, row in zip(elems, out) for y in elems if row >> rank[y] & 1)
    return result


# -- build examples -----------------------------------------------------------


def test_singleton_carrier():
    H = build_hierarchy(closure([]), ONE)
    assert H.le1 == H.le2 == frozenset({(ZERO, ZERO)})


def test_zero_one_carrier(hierarchy_one):
    # {0} below 1 has nowhere to go below 0, so the pair is pruned
    assert (ZERO, ONE) not in hierarchy_one.le1
    assert hierarchy_one.strict(1) == ()


def test_omega2_carrier_matrices(hierarchy_omega2):
    # only indecomposable below w 2 is w itself; nothing reflects below it
    assert hierarchy_omega2.strict(1) == ()
    assert hierarchy_omega2.strict(2) == ()


def test_big_carrier_matrices(hierarchy_big):
    assert strict_pairs(hierarchy_big, 1) == [("w^(w^(0))", "w^(w^(0))+w^(0)")]
    assert strict_pairs(hierarchy_big, 2) == []


def test_ladder_carrier_matrices(hierarchy_ladder):
    # {0,1,w,w^2}: w can reflect challenges to 1, and the two-round game
    # passes as well, so (w, w^2) lands in both relations
    assert strict_pairs(hierarchy_ladder, 1) == [("w^(w^(0))", "w^(w^(0)+w^(0))")]
    assert strict_pairs(hierarchy_ladder, 2) == [("w^(w^(0))", "w^(w^(0)+w^(0))")]


def test_build_rejects_bad_top():
    with pytest.raises(ValueError):
        build_hierarchy(closure([OMEGA]), t("w+1"))
    with pytest.raises(ValueError):
        build_hierarchy(closure([OMEGA]), ONE)


# -- invariants ---------------------------------------------------------------


@pytest.mark.parametrize("name", ["one", "omega", "omega2", "big", "ladder", "wide20"])
def test_indecomposability_necessity(name):
    H = built(name)
    for a, b in H.strict(1):
        assert is_indecomposable(a)
    for a, b in H.strict(2):
        assert is_indecomposable(a) and is_indecomposable(b)


@pytest.mark.parametrize("name", ["one", "omega", "omega2", "big", "ladder"])
def test_fixed_point_extra_round_noop(name):
    H = built(name)
    r1, r2 = one_more_round(H)
    assert r1 == H.le1 and r2 == H.le2


@pytest.mark.parametrize("name", ["one", "omega", "omega2", "big", "ladder"])
def test_round_bound(name):
    H = built(name)
    assert len(H.build_log) <= len(H.carrier) ** 2


@pytest.mark.parametrize("name", ["omega2", "big", "ladder"])
def test_determinism_bit_exact(name):
    H1 = built(name)
    top = (SHIPPED.get(name) or EXTRA[name])[1]
    H2 = build_hierarchy(make_carrier(name), t(top))
    assert pfio.dumps_hierarchy(H1) == pfio.dumps_hierarchy(H2)
    assert H1.build_log == H2.build_log


def test_growth_only_shrinks():
    # matrices restricted to a subcarrier are pointwise at most the
    # subcarrier's own: nested shipped carriers plus a constructed shrink
    nested = [("one", "big"), ("omega", "omega2"), ("omega2", "big")]
    for small, large in nested:
        Hs, Hl = built(small), built(large)
        assert set(Hs.carrier.elements) <= set(Hl.carrier.elements)
        keep = Hs.carrier.as_set()
        for k in (1, 2):
            restricted = {
                (a, b) for a, b in Hl.rel(k) if a in keep and b in keep
            }
            assert restricted <= Hs.rel(k)


def test_growth_shrinks_strictly():
    # {0,1,w,w+w} holds (w, w+w); adding the finite block up to 5 kills it
    small = closure([ONE, t("w+w")])
    Hs = build_hierarchy(small, t("w^(2)"))
    assert (OMEGA, t("w+w")) in Hs.le1
    large = closure([t("5"), t("w+w")])
    Hl = build_hierarchy(large, t("w^(2)"))
    assert (OMEGA, t("w+w")) not in Hl.le1


# -- the build against a set-based loop that plays every game ----------------


def ladder_hosts():
    """The carriers {0, 1, w, ..., w^k}, k < 9, with top w^(k+1)."""
    return [(closure(parse_term(f"w^({i})") for i in range(k + 1)), parse_term(f"w^({k + 1})")) for k in range(9)]


def assert_build_matches_naive(carrier, top):
    H, N = build_hierarchy(carrier, top), naive_build(carrier, top)
    assert (H.le1, H.le2, H.build_log) == (N.le1, N.le2, N.build_log), [str(x) for x in carrier]


def test_build_matches_naive_build_on_forged_carriers_ladders_and_hosts():
    # rows, the inferred games and the rank-level clauses against a loop
    # over term sets that plays every game, on every carrier family the
    # suite names
    far = parse_term("w^(w^(w))")
    cases = [(c, far) for c in FORGE_CARRIERS] + ladder_hosts()
    cases += [(make_carrier(name), built(name).top) for name in {**SHIPPED, **EXTRA}]
    for carrier, top in cases:
        assert_build_matches_naive(carrier, top)


@st.composite
def dense_carriers(draw, max_elements=14):
    """The closure of a few sums of at most three summands with exponents
    0, 1, 2 and w: carriers with many decomposable elements."""
    exponents = [parse_term(e) for e in ("0", "1", "2", "w")]
    gens = draw(st.lists(st.lists(st.sampled_from(exponents), min_size=1, max_size=3), min_size=1, max_size=4))
    carrier = closure(OrdinalTerm(tuple(sorted(g, reverse=True))) for g in gens)
    assume(len(carrier) <= max_elements)
    return carrier


@given(dense_carriers())
@settings(max_examples=60, deadline=None)
def test_build_matches_naive_build_on_dense_carriers(carrier):
    assert_build_matches_naive(carrier, parse_term("w^(w+1)"))


def test_build_hands_its_snapshot_rows_to_the_memo(monkeypatch):
    # each round's snapshot rows go into the memo as a copy, so no game
    # rebuilds them and later pruning of the live rows leaves them alone;
    # the last snapshot is the hierarchy's own relations
    import patternforge.hierarchy as hierarchy
    import patternforge.patterns as patterns

    handed = []
    store = hierarchy._memo_store

    def record(elements, le1, le2, rows):
        handed.append((elements, le1, le2, rows, [list(r) for r in rows]))
        return store(elements, le1, le2, rows)

    rebuilt = []
    monkeypatch.setattr(hierarchy, "_memo_store", record)
    monkeypatch.setattr(patterns, "_rows", lambda *a: rebuilt.append(a) or _rows(*a))
    for name in ("big", "ladder", "wide20", "wide25"):
        handed.clear()
        H = build_hierarchy(make_carrier(name), built(name).top)
        assert len(handed) == len(H.build_log)
        for elements, le1, le2, rows, at_hand in handed:
            assert elements is H.carrier
            assert list(rows) == at_hand == list(_rows(elements.index.rank, len(elements), le1, le2))
        assert handed[-1][1] is H.le1 and handed[-1][2] is H.le2
        assert patterns._memo_rows(H.carrier, H.le1, H.le2) is handed[-1][3]
    assert rebuilt == []


def test_one_more_round_rejects_pairs_outside_the_carrier(hierarchy_big):
    # rows over carrier ranks cannot hold such a pair; it used to be dropped
    H = hierarchy_big
    outside = (OMEGA, t("w^(5)"))
    for k in (1, 2):
        rels = [H.le1, H.le2]
        rels[k - 1] = rels[k - 1] | {outside}
        forged = Hierarchy(H.carrier, H.top, *rels)
        message = f"le{k} pair ({format_term(outside[0])}, {format_term(outside[1])}) leaves the carrier"
        with pytest.raises(ValueError, match=re.escape(message)):
            one_more_round(forged)


# -- dominant-challenge reduction oracle --------------------------------------


@pytest.mark.parametrize("name", ["one", "omega2", "big", "ladder"])
def test_single_challenge_equals_all_challenges(name):
    # the build evaluates only the dominant reduced challenge; sweeping every
    # closed challenge must agree, pair by pair, on the built relations
    H = built(name)
    elems = H.carrier.elements
    for k in (1, 2):
        for i, a in enumerate(elems):
            for b in elems[i + 1 :]:
                fast = game_pass(k, a, b, H.carrier, H.le1, H.le2)
                slow = game_all_challenges(k, a, b, H)
                assert fast == slow, (k, str(a), str(b))


@pytest.mark.parametrize("name", ["big", "ladder"])
def test_single_challenge_equality_with_floors(name):
    # the threshold variant of the game reduces the same way
    H = built(name)
    elems = H.carrier.elements
    for k in (1, 2):
        for i, a in enumerate(elems):
            for b in elems[i + 1 :]:
                for tau in [c for c in elems if c < a][:2]:
                    fast = game_pass(
                        k, a, b, H.carrier, H.le1, H.le2, moved_floor=tau
                    )
                    slow = game_all_challenges(k, a, b, H, moved_floor=tau)
                    assert fast == slow, (k, str(a), str(b), str(tau))


def test_single_challenge_equality_on_initial_relations():
    # the reduction must also be faithful mid-build, when games run against
    # the full initial order rather than the final matrices
    carrier = make_carrier("big")
    elems = carrier.elements
    full = frozenset((a, b) for a in elems for b in elems if a <= b)
    for k in (1, 2):
        for i, a in enumerate(elems):
            for b in elems[i + 1 :]:
                fast = game_pass(k, a, b, carrier, full, full)
                H0 = Hierarchy(carrier, t("w^(3)"), full, full)
                slow = game_all_challenges(k, a, b, H0)
                assert fast == slow, (k, str(a), str(b))


# -- outcomes a round infers instead of playing -------------------------------


@given(forged_snapshots())
@settings(max_examples=150, deadline=None)
def test_game_round_matches_playing_every_game(case):
    # the round skips games whose outcome (i), (ii) or (iii) already decides,
    # and a one-round game once the pair's two-round game passes; on any
    # snapshot, valid or not, it must prune exactly what playing them all does
    carrier, snap1, snap2 = case
    fast = set(snap1), set(snap2)
    slow = set(snap1), set(snap2)
    counts = on_rows(_game_round, carrier, *fast, snap1, snap2)
    assert counts == naive_game_round(carrier, *slow, snap1, snap2)
    assert fast == slow


def _strict_outcomes(k, case, window):
    """game_pass for every strict pair, with no moved floor and with each
    carrier element as the floor."""
    carrier, snap1, snap2 = case
    elems = carrier.elements
    return {
        (floor, a, b): game_pass(k, a, b, carrier, snap1, snap2, window=window, moved_floor=floor)
        for floor in (None,) + elems
        for i, a in enumerate(elems)
        for b in elems[i + 1 :]
    }


def _assert_one_round_pass_carries_down(passes, elems):
    # (i): a witness for (a, b2) restricts to one for (a, b1), a < b1 < b2
    for (floor, a, b2), passed in passes.items():
        if passed:
            for b1 in elems:
                if a < b1 < b2:
                    assert passes[floor, a, b1], (str(floor), str(a), str(b1), str(b2))


@pytest.mark.parametrize("window", range(4))
@given(forged_snapshots(max_elements=8))
@settings(max_examples=20, deadline=None)
def test_one_round_pass_carries_down_in_beta(window, case):
    _assert_one_round_pass_carries_down(_strict_outcomes(1, case, window), case[0].elements)


def test_one_round_pass_carries_down_in_beta_on_full_orders():
    # a round's first snapshot on every forged carrier: random snapshots
    # rarely pass a game with an element between b1 and b2, these do 80 times
    for carrier in FORGE_CARRIERS:
        elems = carrier.elements
        full = frozenset((a, b) for a in elems for b in elems if a <= b)
        for window in range(4):
            passes = _strict_outcomes(1, (carrier, full, full), window)
            _assert_one_round_pass_carries_down(passes, elems)


@pytest.mark.parametrize("window", range(4))
@given(forged_snapshots(max_elements=8))
@settings(max_examples=20, deadline=None)
def test_two_round_pass_implies_one_round_pass(window, case):
    # (ii): the two-round game passes only through a one-round witness
    passes1 = _strict_outcomes(1, case, window)
    passes2 = _strict_outcomes(2, case, window)
    assert all(passes1[key] for key, passed in passes2.items() if passed)


@pytest.mark.parametrize("window", range(4))
@given(forged_snapshots())
@settings(max_examples=40, deadline=None)
def test_decomposable_alpha_loses_every_game(window, case):
    # (iii): the challenge keeps alpha and its summands, which lie below alpha
    # and are pinned to themselves, so alpha is sent to itself, not below
    # the ceiling alpha; 0 leaves no room below it
    carrier, snap1, snap2 = case
    elems = carrier.elements
    for i, a in enumerate(elems):
        if not is_indecomposable(a):
            for b in elems[i + 1 :]:
                for k in (1, 2):
                    assert not game_pass(k, a, b, carrier, snap1, snap2, window=window), (k, str(a), str(b))


@pytest.mark.parametrize("window", range(3))
@given(forged_snapshots(max_elements=8))
@settings(max_examples=20, deadline=None)
def test_game_pass_matches_brute_game(window, case):
    # each pair's two-round game right after its one-round game, as a round
    # plays them, so the two-round game starts from the one-round witness;
    # the search places the self-pinned part of a challenge without
    # branching; neither may change what the game, played by brute force,
    # decides
    carrier, snap1, snap2 = case
    elems = carrier.elements
    for floor in (None, elems[len(elems) // 2]):
        for i, a in enumerate(elems):
            for b in elems[i + 1 :]:
                for k in (1, 2):
                    fast = game_pass(k, a, b, carrier, snap1, snap2, window=window, moved_floor=floor)
                    slow = brute_game(k, a, b, carrier, snap1, snap2, window=window, moved_floor=floor)
                    assert fast == slow, (k, str(a), str(b), str(floor))


def test_game_pass_matches_brute_game_on_full_orders():
    # a round's first snapshot, where most games pass
    for carrier in FORGE_CARRIERS:
        elems = carrier.elements
        full = frozenset((a, b) for a in elems for b in elems if a <= b)
        for i, a in enumerate(elems):
            for b in elems[i + 1 :]:
                for k in (1, 2):
                    assert game_pass(k, a, b, carrier, full, full) == brute_game(k, a, b, carrier, full, full)


def test_two_round_game_starts_from_the_one_round_witness(monkeypatch):
    # on 0 < 1 < w < w^2 < w^3 both games of (w, w^2) pass; played right
    # after the one-round game, the two-round game takes its witness, the
    # first its own search would yield, and searches no further
    carrier = closure(t(f"w^({i})") for i in range(4))
    elems = carrier.elements
    full = frozenset((a, b) for a in elems for b in elems if a <= b)
    searched = []
    search = hierarchy_module.search_embeddings

    def recording(*args):
        for h in search(*args):
            searched.append(h)
            yield h

    monkeypatch.setattr(hierarchy_module, "search_embeddings", recording)
    pair = OMEGA, t("w^(2)")
    assert game_pass(1, *pair, carrier, full, full)
    assert game_pass(2, *pair, carrier, full, full)
    assert searched == []
    # another game in between: the two-round game searches for itself
    game_pass(1, t("w^(2)"), t("w^(3)"), carrier, full, full)
    assert game_pass(2, *pair, carrier, full, full)
    assert len(searched) == 1


def test_two_round_game_takes_no_witness_found_on_other_relations():
    # without (0, 1) the challenge {0, w} of (w, w^2) has nowhere to go; a
    # witness found before the pair left the relations must not be reused,
    # whether the relations are another frozenset or a set changed in place
    carrier = closure(t(f"w^({i})") for i in range(4))
    elems = carrier.elements
    full = {(a, b) for a in elems for b in elems if a <= b}
    pair = OMEGA, t("w^(2)")
    assert game_pass(1, *pair, carrier, frozenset(full), frozenset(full))
    less = frozenset(full - {(ZERO, ONE)})
    assert not game_pass(2, *pair, carrier, less, less)
    assert game_pass(1, *pair, carrier, full, full)
    full.discard((ZERO, ONE))
    assert not game_pass(2, *pair, carrier, full, full)
    assert not brute_game(2, *pair, carrier, full, full)


def test_two_round_game_goes_on_past_a_reused_witness():
    # window 2 on 0 < 1 < w < w^2 < w^3: the challenge {0, w^2} of (w^2, w^3)
    # goes to 1 first, which leaves w no image on the way back, and then to
    # w, which has a backward map
    carrier = closure(t(f"w^({i})") for i in range(4))
    elems = carrier.elements
    full = frozenset((a, b) for a in elems for b in elems if a <= b)
    pair = t("w^(2)"), t("w^(3)")
    assert game_pass(1, *pair, carrier, full, full, window=2)
    assert game_pass(2, *pair, carrier, full, full, window=2)
    assert brute_game(2, *pair, carrier, full, full, window=2)


def test_reduced_challenge_keeps_mandatory_parts():
    carrier = make_carrier("big")
    # for (w+1, w+w): w sits in the shed zone but stays, being a part of w+1
    ch = reduced_challenge(carrier, t("w+1"), t("w+w"))
    assert OMEGA in ch and t("w+1") in ch


def test_reduced_challenge_sheds_top_slice():
    carrier = closure([ONE, t("w+w")])
    ch = reduced_challenge(carrier, OMEGA, t("w+w"))
    assert ONE not in ch and set(ch) == {ZERO, OMEGA}


def assert_reduced_challenges_match_terms(carrier):
    # the rank computation against the definition on terms: everything below
    # beta, minus the top window of the carrier below alpha, closed again
    for beta in carrier:
        for alpha in carrier:
            for window in (0, 1, 2, 99):
                below_alpha = [c for c in carrier if c < beta and c < alpha]
                zone = set(below_alpha[-window:]) if window > 0 else set()
                kept = [c for c in carrier if c < beta and c not in zone]
                expected = tuple(sorted(closure(kept)))
                assert reduced_challenge(carrier, alpha, beta, window) == expected


@given(forged_relations(max_elements=9))
@settings(max_examples=100, deadline=None)
def test_reduced_challenge_matches_term_definition(case):
    assert_reduced_challenges_match_terms(case[0])


@pytest.mark.parametrize("gens", [["w+3"], ["w^(2)+w+2", "w+w+1"], ["w^(w)+w^(2)+w"]])
def test_reduced_challenge_closes_nested_parts(gens):
    # a kept element whose part, and that part's part, both sit in the zone
    assert_reduced_challenges_match_terms(closure(t(g) for g in gens))


@pytest.mark.parametrize("challenge", [["w+1"], ["0", "1", "w+1"], ["0", "w^(5)"]])
def test_explicit_challenge_must_be_closed_in_carrier(hierarchy_big, challenge):
    # an explicit challenge missing a part, or reaching outside the carrier,
    # is bad input rather than a game to win
    H = hierarchy_big
    for k in (1, 2):
        with pytest.raises(ValueError, match="closed subset of the carrier"):
            game_pass(k, OMEGA, t("w^(2)"), H.carrier, H.le1, H.le2,
                      challenge=[t(c) for c in challenge])


# -- le_inf ---------------------------------------------------------------------


def test_le_inf_reflexive(hierarchy_big):
    for x in hierarchy_big.carrier:
        assert le_inf(hierarchy_big, 1, x, x, 1)


def test_le_inf_no_witnesses(hierarchy_one):
    assert not le_inf(hierarchy_one, 1, ZERO, ONE, 1)


def test_le_inf_omega2_golden(hierarchy_omega2):
    # pinned from the first verified run: no room below w in this carrier
    assert le_inf(hierarchy_omega2, 1, OMEGA, t("w+w"), 1) is False


def test_le_inf_window_variants(hierarchy_ladder):
    w, w2 = t("w"), t("w^(2)")
    assert le_inf(hierarchy_ladder, 1, w, w, 0)
    assert le_inf(hierarchy_ladder, 1, w, w, 5)
    # window 0 exposes the truncation artifact: the top threshold below w
    # leaves no indecomposable above itself
    assert not le_inf(hierarchy_ladder, 1, w, w2, 0)
    assert le_inf(hierarchy_ladder, 1, w, w2, 5)


def test_le_inf_validates_inputs(hierarchy_big):
    with pytest.raises(ValueError):
        le_inf(hierarchy_big, 1, t("5"), OMEGA, 1)
    with pytest.raises(ValueError):
        le_inf(hierarchy_big, 1, OMEGA, ZERO, 1)


def test_le_inf_holds_on_ladder(hierarchy_ladder):
    assert le_inf(hierarchy_ladder, 1, OMEGA, t("w^(2)"), 1)
    assert le_inf(hierarchy_ladder, 2, OMEGA, t("w^(2)"), 1)


def test_le_inf_plays_one_game(hierarchy_big, monkeypatch):
    # a witness above the largest threshold is above every smaller one
    import patternforge.hierarchy as hierarchy

    calls = []
    monkeypatch.setattr(hierarchy, "game_pass", lambda *a, **kw: calls.append(kw) or game_pass(*a, **kw))
    le_inf(hierarchy_big, 1, t("w+w"), t("w^(2)"), 1)
    assert calls == [{"moved_floor": OMEGA}]


@pytest.mark.parametrize("name", ["big", "ladder", "omega2"])
def test_le_inf_matches_threshold_sweep_on_built_hosts(name):
    H = built(name)
    pairs = [(a, b) for a in H.carrier for b in H.carrier if a < b]
    for k in (1, 2):
        for a, b in pairs:
            for window in range(4):
                assert le_inf(H, k, a, b, window) == brute_le_inf(k, a, b, H, window), (k, str(a), str(b), window)


@given(valid_hierarchies(max_elements=7), st.data())
@settings(max_examples=100, deadline=None)
def test_le_inf_matches_threshold_sweep_on_forged_hosts(H, data):
    k = data.draw(st.sampled_from([1, 2]))
    pairs = [(a, b) for a, b in H.rel(k) if a != b] or [(a, b) for a in H.carrier for b in H.carrier if a < b]
    a, b = data.draw(st.sampled_from(sorted(pairs)))
    for window in range(4):
        assert le_inf(H, k, a, b, window) == brute_le_inf(k, a, b, H, window), (k, str(a), str(b), window)


# -- axiom checks ---------------------------------------------------------------


def test_axioms_singleton():
    H = build_hierarchy(closure([]), ONE)
    report = check_hierarchy_axioms(H)
    assert report.passed_exact
    assert report.elementarity_failures == ()
    assert report.limit_continuity_failures == ()


@pytest.mark.parametrize("name", ["one", "omega", "omega2", "big", "ladder"])
def test_axioms_pass_by_construction(name):
    report = check_hierarchy_axioms(built(name))
    assert report.order_violations == ()
    assert report.respect_violations == ()
    assert report.top_violations == ()


def test_axioms_forged_inclusion_breach(hierarchy_one):
    H = hierarchy_one
    forged = Hierarchy(
        carrier=H.carrier,
        top=H.top,
        le1=H.le1,
        le2=H.le2 | {(ZERO, ONE)},
        build_log=H.build_log,
    )
    report = check_hierarchy_axioms(forged)
    assert any("(b)" in v and "le2" in v for v in report.order_violations)
    assert not report.passed_exact


def test_axioms_forged_top():
    H = build_hierarchy(closure([]), ONE)
    forged = Hierarchy(H.carrier, t("w+1"), H.le1, H.le2, H.build_log)
    report = check_hierarchy_axioms(forged)
    assert any("(d)" in v for v in report.top_violations)


def test_limit_continuity_diagnostic_omega2(hierarchy_omega2):
    # pinned from the first verified run: truncation loses continuity at both
    # limit points of this carrier
    report = check_hierarchy_axioms(hierarchy_omega2)
    got = [(str(a), str(b)) for a, b in report.limit_continuity_failures]
    assert got == [
        ("0", "w^(w^(0))"),
        ("w^(w^(0))", "w^(w^(0))+w^(w^(0))"),
    ]


def test_elementarity_diagnostic_clean_on_shipped(shipped_hierarchies):
    for H in shipped_hierarchies.values():
        assert check_hierarchy_axioms(H).elementarity_failures == ()


# -- structural clauses on forged relations ------------------------------------


def refl(elems):
    return {(x, x) for x in elems}


def test_structural_restores_inclusion():
    carrier = closure([ONE])
    rel1 = set(refl(carrier))
    rel2 = set(refl(carrier)) | {(ZERO, ONE)}
    on_rows(_structural_pass, carrier, rel1, rel2)
    assert (ZERO, ONE) not in rel2


def test_structural_restores_respect_le1():
    carrier = closure([ONE, OMEGA])
    rel1 = set(refl(carrier)) | {(ONE, t("w"))} | {(ZERO, t("w"))}
    rel2 = set(refl(carrier))
    # (0, w) skips 1; the long arc goes, the short one stays
    on_rows(_structural_pass, carrier, rel1, rel2)
    assert (ZERO, OMEGA) not in rel1
    assert (ONE, OMEGA) in rel1


def test_structural_restores_respect_le2():
    carrier = closure([ONE, OMEGA, t("w^(2)")])
    w, w2 = OMEGA, t("w^(2)")
    rel1 = set(refl(carrier)) | {(ONE, w), (w, w2), (ONE, w2)}
    rel2 = set(refl(carrier)) | {(ONE, w2)}
    # 1 le1 w le1 w^2 with (1, w^2) in le2 but (1, w) not
    on_rows(_structural_pass, carrier, rel1, rel2)
    assert (ONE, w2) not in rel2
    assert rel1 == set(refl(carrier)) | {(ONE, w), (w, w2), (ONE, w2)}


def test_structural_restores_transitivity():
    carrier = closure([ONE, OMEGA, t("w^(2)")])
    w, w2 = OMEGA, t("w^(2)")
    rel1 = set(refl(carrier)) | {(ONE, w), (w, w2)}
    rel2 = set(refl(carrier))
    # the missing composite caps the left element's reach
    on_rows(_structural_pass, carrier, rel1, rel2)
    assert (ONE, w) not in rel1
    assert (w, w2) in rel1


def test_structural_strict_indecomposability_clause():
    carrier = closure([ONE, t("w+w")])
    w2 = t("w+w")
    rel1 = set(refl(carrier)) | {(OMEGA, w2)}
    rel2 = set(refl(carrier)) | {(OMEGA, w2)}
    # decomposable right endpoint survives in le1, never in le2
    on_rows(_structural_pass, carrier, rel1, rel2)
    assert (OMEGA, w2) in rel1
    assert (OMEGA, w2) not in rel2


@given(forged_relations())
@settings(max_examples=150, deadline=None)
def test_pruning_leaves_valid_indecomposable_relations(case):
    carrier, rel1, rel2 = case
    on_rows(_structural_pass, carrier, rel1, rel2)
    assert brute_validate(carrier.elements, rel1, rel2)
    for a, b in rel1:
        assert a == b or is_indecomposable(a)
    for a, b in rel2:
        assert a == b or (is_indecomposable(a) and is_indecomposable(b))


def test_top_may_equal_carrier_maximum():
    H = build_hierarchy(closure([OMEGA]), OMEGA)
    report = check_hierarchy_axioms(H)
    assert report.top_violations == ()
    assert H.strict(1) == ()


def test_elementarity_diagnostic_clean_on_ladder(hierarchy_ladder):
    report = check_hierarchy_axioms(hierarchy_ladder)
    assert report.passed_exact
    assert report.elementarity_failures == ()
