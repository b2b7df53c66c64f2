import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from patternforge import (
    ClosedSet,
    NonCanonicalTermError,
    OMEGA,
    ONE,
    OrdinalTerm,
    TermSyntaxError,
    ZERO,
    add,
    closure,
    compare,
    format_term,
    induced_embedding,
    is_indecomposable,
    parse_term,
)
from patternforge import ordinals
from patternforge.ordinals import missing_parts, omega_power, split_parts, summands
from conftest import FORGE_CARRIERS
from oracles import brute_compare, term_carrier_index, term_closure_error, term_missing_parts


def t(s):
    return parse_term(s)


# -- strategies ---------------------------------------------------------------


def term_strategy(depth=2, max_summands=3):
    if depth == 0:
        return st.just(ZERO)
    inner = term_strategy(depth - 1, max_summands)
    return st.lists(inner, min_size=0, max_size=max_summands).map(
        lambda exps: OrdinalTerm(tuple(sorted(exps, reverse=True)))
    )


small_terms = term_strategy()
term_sets = st.lists(small_terms, min_size=0, max_size=6).map(set)

descending = functools.cmp_to_key(lambda a, b: brute_compare(b, a))


def reference_terms(depth):
    """Canonical terms nested up to `depth`, put in order by the reference
    comparator alone."""
    if depth == 0:
        return st.just(ZERO)
    return st.lists(reference_terms(depth - 1), max_size=3).map(
        lambda exps: OrdinalTerm(tuple(sorted(exps, key=descending)))
    )


deep_terms = reference_terms(4)


# -- parsing and printing -----------------------------------------------------


def test_parse_zero():
    assert t("0") == ZERO
    assert ZERO.exponents == ()


def test_parse_omega_plus_one():
    assert t("w^(1)+1").exponents == (ONE, ZERO)
    assert t("w+1") == t("w^(1)+1")


def test_parse_rejects_noncanonical():
    with pytest.raises(NonCanonicalTermError):
        t("1+w")


@pytest.mark.parametrize(
    "bad", ["", "w^(", "0+1", "x", "w^()", "+1", "w^(1", "05", "w^(2+05)", "w^(05)", "1+05"]
)
def test_parse_syntax_errors(bad):
    with pytest.raises((TermSyntaxError, NonCanonicalTermError)):
        t(bad)


@pytest.mark.parametrize("bad", [5, None, ["w"], b"w"])
def test_parse_rejects_non_string(bad):
    # a JSON value of the wrong type is bad input, not a crash
    with pytest.raises(TermSyntaxError, match="must be a string"):
        t(bad)


def test_parse_bounds_integer_literals():
    bound = ordinals.MAX_INTEGER
    assert len(t(str(bound)).exponents) == bound
    for text in (str(bound + 1), f"w+{bound + 1}", f"w^({bound + 1})"):
        with pytest.raises(TermSyntaxError, match="exceeds"):
            t(text)


def test_parse_bounds_summands_of_the_whole_term():
    # the bound is on all summands one parse builds, at every depth
    bound = ordinals.MAX_INTEGER
    assert len(t(f"w+{bound - 1}").exponents) == bound
    half = bound // 2
    for text in (f"{bound}+{bound}+{bound}", f"w+{bound}", f"w^({bound})", f"w^(w^({half}))+w^({half})"):
        with pytest.raises(TermSyntaxError, match="exceeds"):
            t(text)


def test_parse_rejects_noncanonical_exponent():
    with pytest.raises(NonCanonicalTermError):
        t("w^(1+w)")


def test_integer_sugar():
    assert t("3") == OrdinalTerm((ZERO, ZERO, ZERO))
    assert t("w^(2)") == omega_power(t("2"))


def test_format_sugar_modes():
    assert format_term(t("w+1")) == "w^(w^(0))+w^(0)"
    assert format_term(t("w+1"), sugar=True) == "w+1"
    assert format_term(ZERO) == "0"
    assert format_term(ZERO, sugar=True) == "0"


@given(small_terms)
@settings(max_examples=150)
def test_roundtrip(a):
    assert parse_term(format_term(a)) == a
    assert parse_term(format_term(a, sugar=True)) == a


# -- comparison and addition --------------------------------------------------


def test_compare_examples():
    assert compare(ZERO, ONE) < 0
    assert compare(OMEGA, OMEGA) == 0
    assert compare(t("w+1"), t("w+w")) < 0


def test_compare_total_order():
    sample = [t(s) for s in ["0", "1", "2", "w", "w+1", "w+w", "w^(2)", "w^(2)+w", "w^(w)"]]
    for i, a in enumerate(sample):
        for j, b in enumerate(sample):
            assert compare(a, b) == (i > j) - (i < j)


@given(deep_terms, deep_terms, st.integers(min_value=0, max_value=3))
@settings(max_examples=300)
def test_order_agrees_with_reference(a, b, cut):
    # a fresh equal term and a prefix of a's summands, besides the random b
    for other in (b, OrdinalTerm(a.exponents), OrdinalTerm(a.exponents[:cut])):
        c = brute_compare(a, other)
        assert compare(a, other) == c
        assert (a < other, a <= other, a == other, a != other, a >= other, a > other) == (
            c < 0, c <= 0, c == 0, c != 0, c >= 0, c > 0,
        )
    assert a.key == tuple(e.key for e in a.exponents)
    assert hash(a) == hash(a.exponents)


@given(st.lists(deep_terms, max_size=4), st.booleans())
@settings(max_examples=300)
def test_constructor_rejects_exactly_ascending_pairs(exps, sort):
    if sort:
        exps.sort(key=descending)
    if any(brute_compare(hi, lo) < 0 for hi, lo in zip(exps, exps[1:])):
        with pytest.raises(NonCanonicalTermError):
            OrdinalTerm(tuple(exps))
    else:
        assert OrdinalTerm(tuple(exps)).exponents == tuple(exps)


def test_add_examples():
    assert add(ZERO, OMEGA) == OMEGA
    assert add(ONE, OMEGA) == OMEGA  # absorption
    assert add(OMEGA, ONE) == t("w+1")


@given(small_terms, small_terms, small_terms)
@settings(max_examples=150)
def test_add_associative_with_identity(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))
    assert add(ZERO, a) == a
    assert add(a, ZERO) == a


@given(small_terms, small_terms, small_terms)
@settings(max_examples=150)
def test_add_right_monotone(a, b, c):
    if compare(b, c) < 0:
        assert compare(add(a, b), add(a, c)) < 0


# -- indecomposables and closure ----------------------------------------------


def test_is_indecomposable():
    assert is_indecomposable(OMEGA)
    assert not is_indecomposable(t("w+1"))
    assert not is_indecomposable(ZERO)
    assert is_indecomposable(ONE)


def test_closure_examples():
    assert set(closure([])) == {ZERO}
    assert set(closure([t("w+1")])) == {ZERO, ONE, OMEGA, t("w+1")}
    assert set(closure([t("w+w")])) == {ZERO, OMEGA, t("w+w")}


def test_closed_set_rejects_open():
    with pytest.raises(ValueError):
        ClosedSet([ZERO, t("w+1")])
    with pytest.raises(ValueError):
        ClosedSet([ONE])


@given(term_sets, st.data())
@settings(max_examples=300)
def test_closed_set_checks_parts_by_key_as_terms_do(xs, data):
    # parts are read as cuts of the key; accepting, rejecting and the message
    # must be those of the check that builds every part as a term
    elems = closure(xs).elements
    keep = data.draw(st.lists(st.booleans(), min_size=len(elems), max_size=len(elems)))
    candidate = [x for x, k in zip(elems, keep) if k]
    want = term_closure_error(candidate)
    try:
        got = ClosedSet(candidate)
    except ValueError as e:
        assert str(e) == want
    else:
        assert want is None and got.elements == tuple(sorted(candidate))
    assert list(missing_parts(candidate)) == term_missing_parts(candidate)


def test_carrier_index_parts_match_term_reference():
    for carrier in FORGE_CARRIERS:
        index = ClosedSet(carrier.elements).index
        parts, sums, by_summands = term_carrier_index(carrier.elements)
        assert (index.parts, index.summands, index.by_summands) == (parts, sums, by_summands)


@given(term_sets)
@settings(max_examples=100)
def test_closure_is_closure_operator(xs):
    c = set(closure(xs))
    assert xs <= c  # extensive
    assert set(closure(c)) == c  # idempotent


@given(term_sets, term_sets)
@settings(max_examples=100)
def test_closure_monotone(xs, ys):
    assert set(closure(xs)) <= set(closure(xs | ys))


# -- induced embeddings -------------------------------------------------------


def test_induced_identity():
    X = closure([t("w+1")])
    m = induced_embedding({ONE: ONE, OMEGA: OMEGA}, X)
    assert all(m[x] == x for x in X)


def test_induced_example():
    X = closure([t("w+1")])
    m = induced_embedding({ONE: ONE, OMEGA: t("w^(2)")}, X)
    assert m == {
        ZERO: ZERO,
        ONE: ONE,
        OMEGA: t("w^(2)"),
        t("w+1"): t("w^(2)+1"),
    }


def test_induced_rejects_order_flip():
    X = closure([t("w+1")])
    with pytest.raises(ValueError):
        induced_embedding({ONE: OMEGA, OMEGA: ONE}, X)


def test_induced_rejects_decomposable_image():
    X = closure([OMEGA])
    with pytest.raises(ValueError):
        induced_embedding({OMEGA: t("w+1")}, X)


def test_induced_rejects_missing():
    with pytest.raises(ValueError):
        induced_embedding({}, closure([OMEGA]))


def test_induced_restriction_and_uniqueness():
    # restricted to indecomposables the embedding is the given map, and any
    # strictly order-preserving summand-wise map agreeing there is identical:
    # perturb single images and watch a property break
    X = closure([t("w^(2)+w"), t("w+1")])
    f = {ONE: t("w^(2)")}
    f[OMEGA] = t("w^(3)")
    f[t("w^(2)")] = t("w^(4)")
    m = induced_embedding(f, X)
    for i in X.indecomposables:
        assert m[i] == f[i]
    pool = [t(s) for s in ["1", "w", "w^(2)", "w^(3)", "w^(4)", "w^(5)"]]
    for x in X:
        if x == ZERO or is_indecomposable(x):
            continue
        for wrong in pool:
            if wrong == m[x]:
                continue
            # a map sending x to `wrong` cannot commute with decomposition
            rem, last = split_parts(x)
            assert add(m[rem], m[last]) == m[x] != wrong


@given(term_sets)
@settings(max_examples=60)
def test_induced_order_preserving(xs):
    X = closure(xs)
    shift = {i: omega_power(add(i.exponents[0], ONE)) for i in X.indecomposables}
    m = induced_embedding(shift, X)
    elems = list(X)
    for a, b in itertools.combinations(elems, 2):
        assert (a < b) == (m[a] < m[b])
    for x in X:
        assert len(summands(m[x])) == len(summands(x))
