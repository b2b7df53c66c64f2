import json
from pathlib import Path

import pytest
from hypothesis import assume, strategies as st

from patternforge import ClosedSet, Hierarchy, build_hierarchy, closure, parse_term
from patternforge.hierarchy import indecomposable_endpoints
from oracles import brute_complete, brute_validate

GOLDEN = Path(__file__).parent / "golden"

# the shipped carrier family: closures of {1}, {w}, {w 2}, {w^2, w 2, w+1}
SHIPPED = {
    "one": (["1"], "w"),
    "omega": (["w"], "w^(2)"),
    "omega2": (["w+w"], "w^(2)"),
    "big": (["w^(2)", "w+w", "w+1"], "w^(3)"),
}

EXTRA = {
    # carrier with a nontrivial le2 pair (w, w^2)
    "ladder": (["1", "w", "w^(2)"], "w^(3)"),
    # 25-element carrier for the covering oracle criterion
    "wide25": (
        [
            "3",
            "w+2",
            "w+w+1",
            "w+w+w+1",
            "w^(2)+1",
            "w^(2)+w+1",
            "w^(2)+w+w",
            "w^(2)+w^(2)+1",
            "w^(3)+1",
            "w^(3)+w+1",
            "w^(3)+w^(2)+w",
            "w^(3)+w^(3)",
        ],
        "w^(4)",
    ),
    # 20-element carrier for the rule-validity criterion
    "wide20": (
        [
            "3",
            "w+2",
            "w+w+1",
            "w+w+w+1",
            "w^(2)+1",
            "w^(2)+w+1",
            "w^(2)+w^(2)",
            "w^(3)+1",
            "w^(3)+w",
            "w^(3)+w^(3)",
        ],
        "w^(4)",
    ),
}


def make_carrier(name) -> ClosedSet:
    gens, _ = {**SHIPPED, **EXTRA}[name]
    return closure(parse_term(g) for g in gens)


_cache = {}


def built(name):
    if name not in _cache:
        gens, top = {**SHIPPED, **EXTRA}[name]
        _cache[name] = build_hierarchy(
            closure(parse_term(g) for g in gens), parse_term(top)
        )
    return _cache[name]


@pytest.fixture(scope="session")
def shipped_hierarchies():
    return {name: built(name) for name in SHIPPED}


@pytest.fixture(scope="session")
def hierarchy_one():
    return built("one")


@pytest.fixture(scope="session")
def hierarchy_omega():
    return built("omega")


@pytest.fixture(scope="session")
def hierarchy_omega2():
    return built("omega2")


@pytest.fixture(scope="session")
def hierarchy_big():
    return built("big")


@pytest.fixture(scope="session")
def hierarchy_ladder():
    return built("ladder")


@pytest.fixture(scope="session")
def hierarchy_wide25():
    return built("wide25")


@pytest.fixture(scope="session")
def hierarchy_wide20():
    return built("wide20")


def load_golden(name):
    return json.loads((GOLDEN / name).read_text())


FORGE_POOL = ["1", "2", "w", "w+1", "w+w", "w^(2)", "w^(2)+1", "w^(w)", "w^(w)+w"]


@st.composite
def forged_relations(draw, max_elements=7):
    """A closed universe of at most max_elements terms with two random
    relations inside the term order, each holding every reflexive pair."""
    gens = draw(st.sets(st.sampled_from(FORGE_POOL), max_size=3))
    universe = closure(parse_term(g) for g in gens)
    assume(len(universe) <= max_elements)
    refl = {(x, x) for x in universe}
    strict = [(a, b) for a in universe for b in universe if a < b]
    rels = []
    for _ in range(2):
        keep = draw(st.lists(st.booleans(), min_size=len(strict), max_size=len(strict)))
        rels.append(refl | {p for p, k in zip(strict, keep) if k})
    return universe, rels[0], rels[1]


@st.composite
def valid_hierarchies(draw, max_elements=8):
    """A forged Hierarchy on a closed carrier of at most max_elements terms
    whose relations pass brute_validate and strict-pair indecomposability,
    holding at least two strict le1 pairs: the least valid relations holding
    random seed pairs with indecomposable endpoints.

    Completion keeps the endpoints indecomposable: every pair it adds has the
    left element of a pair already there, and a le2 pair (a, b) it adds for
    respect has (b, c) in le1 for some c, so b = c or b is indecomposable."""
    gens = draw(st.sets(st.sampled_from(FORGE_POOL), min_size=1, max_size=3))
    carrier = closure(parse_term(g) for g in gens)
    assume(len(carrier) <= max_elements)
    ascending = [(a, b) for a in carrier for b in carrier if a < b]
    seeds1 = [p for p in ascending if indecomposable_endpoints(1, *p)]
    assume(len(seeds1) >= 2)
    seed1 = draw(st.sets(st.sampled_from(seeds1), min_size=2, max_size=4))
    seeds2 = sorted(p for p in seed1 if indecomposable_endpoints(2, *p))
    seed2 = draw(st.sets(st.sampled_from(seeds2), max_size=2)) if seeds2 else set()
    le1, le2 = brute_complete(carrier.elements, seed1, seed2)
    assert brute_validate(carrier.elements, le1, le2)
    assert all(indecomposable_endpoints(k, a, b) for k, rel in ((1, le1), (2, le2)) for a, b in rel if a != b)
    return Hierarchy(carrier=carrier, top=parse_term("w^(w^(w))"), le1=frozenset(le1), le2=frozenset(le2))
