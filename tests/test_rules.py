import pytest

from patternforge import (
    ONE,
    OMEGA,
    Pattern,
    RuleInstance,
    closure,
    is_closed_substructure,
    make_arith_ext,
    make_generic,
    make_reflect1_down,
    parse_term,
    trivial_pattern,
    validate_structure,
)
from patternforge.covering import test_cofinal_validity as cofinal_validity
from conftest import built, forged_relations
from hypothesis import given, settings
from oracles import brute_complete


def t(s):
    return parse_term(s)


def names(terms):
    return [str(x) for x in terms]


# -- construction invariants ------------------------------------------------------


def instance_is_wellformed(inst: RuleInstance):
    assert validate_structure(inst.premise.universe, inst.premise.le1, inst.premise.le2) == []
    assert (
        validate_structure(
            inst.conclusion.universe, inst.conclusion.le1, inst.conclusion.le2
        )
        == []
    )
    assert is_closed_substructure(inst.premise, inst.conclusion)


def test_generic_identity(hierarchy_big):
    P = hierarchy_big.restrict_pattern([parse_term("0"), ONE])
    inst = make_generic(P, P)
    assert inst.premise == inst.conclusion
    instance_is_wellformed(inst)


def test_generic_pair(hierarchy_big):
    P = trivial_pattern([ONE])
    Q = trivial_pattern([ONE, OMEGA])
    inst = make_generic(P, Q)
    instance_is_wellformed(inst)


def test_generic_rejects_non_substructure():
    with pytest.raises(ValueError):
        make_generic(trivial_pattern([ONE]), trivial_pattern([OMEGA]))


def test_generic_rejects_relation_mismatch():
    base = trivial_pattern([ONE, OMEGA])
    rich = Pattern(base.universe, le1=[(ONE, OMEGA)])
    with pytest.raises(ValueError):
        make_generic(base, rich)


def test_rule_kind_validated(hierarchy_big):
    P = trivial_pattern([ONE])
    with pytest.raises(ValueError):
        RuleInstance(P, P, "mystery")


# -- arithmetic extension ----------------------------------------------------------


def test_arith_ext_empty_is_identity():
    P = trivial_pattern([ONE, OMEGA])
    inst = make_arith_ext(P, [])
    assert inst.conclusion == P
    assert inst.kind == "arith_ext"


def test_arith_ext_example():
    P = trivial_pattern([ONE, OMEGA])
    inst = make_arith_ext(P, [t("w+1")])
    assert names(inst.conclusion.universe) == [
        "0",
        "w^(0)",
        "w^(w^(0))",
        "w^(w^(0))+w^(0)",
    ]
    instance_is_wellformed(inst)


def test_arith_ext_forces_respect_closure():
    P = Pattern(closure([ONE, t("w+w")]), le1=[(ONE, OMEGA), (ONE, t("w+w"))])
    inst = make_arith_ext(P, [t("w+1")])
    # the fresh w+1 sits inside the le1 interval (1, w 2), so respect adds it
    assert (ONE, t("w+1")) in inst.conclusion.le1
    instance_is_wellformed(inst)


def test_arith_ext_rejects_fresh_indecomposable():
    P = trivial_pattern([ONE, OMEGA])
    with pytest.raises(ValueError):
        make_arith_ext(P, [t("w^(2)")])
    # w+1 over a 1-less universe also smuggles in the indecomposable 1
    with pytest.raises(ValueError):
        make_arith_ext(trivial_pattern([OMEGA]), [t("w+1")])


# -- downward 1-reflection -----------------------------------------------------------


def reflect_fixture():
    P = Pattern(closure([ONE, t("w^(2)")]), le1=[(ONE, t("w^(2)"))])
    return P, make_reflect1_down(P, ONE, t("w^(2)"), [t("w^(2)")])


def test_reflect_empty_slice_is_identity():
    P = Pattern(closure([ONE, OMEGA]), le1=[(ONE, OMEGA)])
    inst = make_reflect1_down(P, ONE, OMEGA, [])
    assert inst.conclusion == P


def test_reflect_golden_instance():
    # pinned from the first verified run: the copy of w^2 lands on w, and the
    # respect completion adds (1, w) alongside the copied relations
    P, inst = reflect_fixture()
    assert names(inst.conclusion.universe) == ["0", "w^(0)", "w^(w^(0))", "w^(w^(0)+w^(0))"]
    got1 = [(str(a), str(b)) for a, b in inst.conclusion.strict_le1()]
    assert got1 == [("w^(0)", "w^(w^(0))"), ("w^(0)", "w^(w^(0)+w^(0))")]
    assert inst.conclusion.strict_le2() == ()
    instance_is_wellformed(inst)


def test_reflect_no_room_in_gap():
    # with 1 already in the universe, no unused indecomposable fits below w 2
    P = Pattern(closure([ONE, t("w+w")]), le1=[(OMEGA, t("w+w"))])
    with pytest.raises(ValueError):
        make_reflect1_down(P, OMEGA, t("w+w"), [t("w+w")])


def test_reflect_copy_may_straddle_a():
    # without 1 in the way the copy of {w, w 2} lands on {1, 2}, below a;
    # straddling the reflection point is an allowed interpolation
    P = Pattern(closure([t("w+w")]), le1=[(OMEGA, t("w+w"))])
    inst = make_reflect1_down(P, OMEGA, t("w+w"), [t("w+w")])
    assert names(inst.conclusion.universe) == [
        "0",
        "w^(0)",
        "w^(0)+w^(0)",
        "w^(w^(0))",
        "w^(w^(0))+w^(w^(0))",
    ]
    assert (ONE, t("2")) in inst.conclusion.le1
    instance_is_wellformed(inst)


def test_reflect_validates_preconditions():
    P, _ = reflect_fixture()
    with pytest.raises(ValueError):
        make_reflect1_down(P, ONE, OMEGA, [])  # (1, w) not a le1 pair; w absent
    with pytest.raises(ValueError):
        make_reflect1_down(P, ONE, t("w^(2)"), [t("5")])  # not in the universe


# -- cofinal validity of instances ----------------------------------------------------


@pytest.mark.parametrize("name", ["omega2", "big", "ladder"])
def test_identity_instances_cofinally_valid(name):
    H = built(name)
    for gens in ([], [ONE], [OMEGA]):
        P = trivial_pattern(gens)
        inst = make_generic(P, P)
        assert cofinal_validity(inst.premise, inst.conclusion, H).valid


def test_reflect_instance_verdict_golden(hierarchy_ladder):
    # pinned: the only covering realizes (1, w^2) on (w, w^2); the conclusion
    # demands a fresh indecomposable strictly between their images, and the
    # carrier has none, so the maximal bound yields a counterexample
    P, inst = reflect_fixture()
    verdict = cofinal_validity(inst.premise, inst.conclusion, hierarchy_ladder)
    assert not verdict.valid
    assert verdict.coverings_checked == 1
    h, phi = verdict.counterexample
    assert [(str(a), str(b)) for a, b in h.assignment] == [
        ("0", "0"),
        ("w^(0)", "w^(w^(0))"),
        ("w^(w^(0)+w^(0))", "w^(w^(0)+w^(0))"),
    ]
    assert [(str(a), str(b)) for a, b in phi.bounds] == [
        ("w^(w^(0))", "w^(0)"),
        ("w^(w^(0)+w^(0))", "w^(w^(0))"),
    ]


def test_reflect_instance_vacuous_on_small_hierarchy(hierarchy_omega2):
    # no covering of the premise exists here, so the rule holds vacuously
    P, inst = reflect_fixture()
    verdict = cofinal_validity(inst.premise, inst.conclusion, hierarchy_omega2)
    assert verdict.valid
    assert verdict.coverings_checked == 0


# -- completion against an independent fixed point ------------------------------


@given(forged_relations())
@settings(max_examples=120, deadline=None)
def test_completion_matches_brute_fixed_point(case):
    from patternforge.rules import _respect_transitive_completion

    universe, le1, le2 = case
    got = _respect_transitive_completion(universe.elements, set(le1), set(le2))
    assert got == brute_complete(universe.elements, le1, le2)
