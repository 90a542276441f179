"""Scalars, linear combinations, product, coproduct, pairing, antipode."""

import importlib
import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ideals_by_subsets, restrict_by_labels
from dposet import algebra
from dposet.algebra import (
    GaussRat,
    LinComb,
    Tensor,
    antipode,
    apply_slot,
    as_lincomb,
    coproduct,
    format_lincomb,
    format_scalar,
    gram_matrix,
    lc_product,
    normalize_scalar,
    pairing,
    pairing_basis,
    parse_lincomb,
    parse_scalar,
    reduced_coproduct,
    require_augmented,
    tensor_of,
)
from dposet.fqsym import Permutation
from dposet.poset_core import (
    DoublePoset,
    SpecialPoset,
    empty_poset,
    enumerate_family,
    parse_poset,
    plane_version,
)


def sp(n, *pairs):
    return SpecialPoset(n, pairs)


def lc(text):
    return parse_lincomb(text)


# -- scalars ------------------------------------------------------------------------


def test_gaussian_rational_field_ops():
    a = GaussRat(1, 2)
    b = GaussRat(3, -1)
    assert a * b == GaussRat(5, 5)
    assert a + b == GaussRat(4, 1)
    assert a - b == GaussRat(-2, 3)
    assert (a / b) * b == a
    assert a.conjugate() == GaussRat(1, -2)
    assert GaussRat(Fraction(1, 2), Fraction(1, 3)) * 6 == GaussRat(3, 2)


def test_gaussian_rational_cross_type_equality():
    assert GaussRat(2, 0) == 2
    assert GaussRat(Fraction(1, 2), 0) == Fraction(1, 2)
    assert hash(GaussRat(2, 0)) == hash(2)
    assert GaussRat(2, 1) != 2


def test_scalar_literals_round_trip():
    for text in ("3", "-1/2", "1/2+3/4*I", "-2*I", "1-1*I", "0"):
        value = parse_scalar(text)
        assert parse_scalar(format_scalar(value)) == value


@pytest.mark.parametrize("text", ["1/0", "0/0", "1/0I", "2 + 3/0*I", "(1/0)"])
def test_zero_denominator_is_a_bad_scalar_literal(text):
    with pytest.raises(ValueError, match=f"^bad scalar literal: {re.escape(repr(text))}$"):
        parse_scalar(text)


@pytest.mark.parametrize("text", ["7", "007", " 7 ", "(7)"])
def test_plain_integer_scalars_parse_as_the_general_route_does(text):
    """A plain ASCII integer skips the term grammar; writing it as ``n/1``
    sends the same digits through the grammar."""
    general = parse_scalar(text.replace("7", "7/1"))
    value = parse_scalar(text)
    assert type(value) is type(general) is Fraction
    assert value == general == 7


@pytest.mark.parametrize("text", ["\u00b2", "\u00bd", "3\u00b2"])
def test_non_ascii_number_signs_stay_bad_scalar_literals(text):
    with pytest.raises(ValueError, match=f"^bad scalar literal: {re.escape(repr(text))}$"):
        parse_scalar(text)


def test_non_ascii_decimal_digits_still_parse():
    # ARABIC-INDIC DIGIT THREE is a decimal digit to the term grammar
    assert parse_scalar("\u0663") == Fraction(3)
    assert type(parse_scalar("\u0663")) is Fraction


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GaussRat(1, 1) / GaussRat(0, 0)


# -- combinations -------------------------------------------------------------------


def test_lincomb_arithmetic_and_zero_dropping():
    x = lc("SP(2;) - SP(2; 1<2)")
    y = lc("SP(2; 1<2)")
    assert x + y == lc("SP(2;)")
    assert x - x == LinComb.zero()
    assert 2 * y == lc("2*SP(2; 1<2)")
    assert y * Fraction(1, 2) == lc("1/2*SP(2; 1<2)")
    assert not (y - y)
    assert (x + y).coeff(sp(2)) == 1
    assert (x + y).coeff(sp(2, (2, 1))) == 0


def test_lincomb_grading_helpers():
    x = lc("SP(1;) + SP(2; 1<2) - SP(2;)")
    assert x.degrees() == [1, 2]
    assert x.homogeneous_part(2) == lc("SP(2; 1<2) - SP(2;)")
    assert not x.homogeneous_part(3)


def test_format_lincomb_round_trip_and_style():
    x = lc("SP(2;) - SP(2; 1<2)")
    assert format_lincomb(x) == "SP(2;) - SP(2; 1<2)"
    gauss = lc("(1/2+1/2*I)*SP(1;) - 1*I*SP(2;)")
    assert parse_lincomb(format_lincomb(gauss)) == gauss
    assert format_lincomb(LinComb.zero()) == "0"
    mixed = lc("21 + 2*12")
    assert parse_lincomb(format_lincomb(mixed)) == mixed


def test_tensor_of_flattens_nested_tensors():
    t = tensor_of(LinComb.basis(sp(1)), tensor_of(LinComb.basis(sp(1)), LinComb.basis(sp(2))))
    ((key, coeff),) = list(t.terms())
    assert isinstance(key, Tensor) and len(key.factors) == 3
    assert coeff == 1


def test_apply_slot_applies_in_place():
    t = tensor_of(LinComb.basis(sp(1)), LinComb.basis(sp(2, (1, 2))))
    doubled = apply_slot(t, 1, lambda k: 2 * LinComb.basis(k))
    ((key, coeff),) = list(doubled.terms())
    assert coeff == 2 and key.factors[1] == sp(2, (1, 2))


def test_require_augmented():
    with pytest.raises(ValueError):
        require_augmented(lc("SP(1;)") + LinComb.basis(empty_poset()))
    assert require_augmented(lc("SP(1;)")) == lc("SP(1;)")


# -- product and coproduct ------------------------------------------------------------


def test_product_is_composition_on_posets():
    assert lc_product(lc("SP(1;)"), lc("SP(2; 2<1)")) == lc("SP(3; 3<2)")
    assert lc_product(lc("SP(1;) - SP(1;)"), lc("SP(1;)")) == LinComb.zero()


def test_coproduct_of_the_two_chain():
    chain = lc("SP(2; 1<2)")
    full = coproduct(chain)
    assert full.coeff(Tensor(sp(1), sp(1))) == 1
    assert full.coeff(Tensor(sp(2, (1, 2)), empty_poset())) == 1
    assert full.coeff(Tensor(empty_poset(), sp(2, (1, 2)))) == 1
    assert len(list(full.terms())) == 3
    assert reduced_coproduct(chain) == tensor_of(lc("SP(1;)"), lc("SP(1;)"))


def _pp(text):
    return LinComb.basis(parse_poset(text))


def test_reduced_coproduct_of_the_diamond():
    # diamond: one minimum, two incomparable middles, one maximum
    diamond = _pp("PP(4; h: 1<2, 1<3, 2<4, 3<4; r: 2<3)")
    vee = _pp("PP(3; h: 1<2, 1<3; r: 2<3)")
    wedge = _pp("PP(3; h: 1<3, 2<3; r: 1<2)")
    point = _pp("SP(1;)")  # the plane point and the special point coincide
    chain2 = _pp("PP(2; h: 1<2; r:)")
    expected = (
        tensor_of(vee, point)
        + 2 * tensor_of(chain2, chain2)
        + tensor_of(point, wedge)
    )
    assert reduced_coproduct(diamond) == expected


def test_reduced_coproduct_of_a_four_vertex_tree():
    # root with a two-vertex chain on the left and a leaf on the right
    tree = _pp("PP(4; h: 1<2, 2<3, 1<4; r: 2<4, 3<4)")
    expected = (
        tensor_of(_pp("PP(3; h: 1<2, 2<3; r:)"), _pp("SP(1;)"))
        + tensor_of(_pp("PP(3; h: 1<2, 1<3; r: 2<3)"), _pp("SP(1;)"))
        + tensor_of(_pp("PP(2; h: 1<2; r:)"), _pp("PP(2; h: 1<2; r:)"))
        + tensor_of(_pp("PP(2; h: 1<2; r:)"), _pp("SP(2;)"))
        + tensor_of(_pp("SP(1;)"), _pp("PP(3; h: 1<2; r: 1<3, 2<3)"))
    )
    assert reduced_coproduct(tree) == expected


def _all_elements(max_degree):
    out = []
    for n in range(1, max_degree + 1):
        out.extend(enumerate_family("sp", n))
    return out


def test_coproduct_is_coassociative_through_degree_three():
    for P in _all_elements(3):
        x = LinComb.basis(P)
        left = apply_slot(coproduct(x), 0, lambda k: coproduct(LinComb.basis(k)))
        right = apply_slot(coproduct(x), 1, lambda k: coproduct(LinComb.basis(k)))
        assert left == right, P


def test_coproduct_is_an_algebra_morphism_in_low_degree():
    elems = _all_elements(2)
    for P in elems:
        for Q in elems:
            lhs = coproduct(lc_product(LinComb.basis(P), LinComb.basis(Q)))
            # slotwise product of the two coproducts
            rhs = LinComb.zero()
            for Ta, ca in coproduct(LinComb.basis(P)).terms():
                for Tb, cb in coproduct(LinComb.basis(Q)).terms():
                    rhs = rhs + ca * cb * tensor_of(
                        lc_product(LinComb.basis(Ta.factors[0]), LinComb.basis(Tb.factors[0])),
                        lc_product(LinComb.basis(Ta.factors[1]), LinComb.basis(Tb.factors[1])),
                    )
            assert lhs == rhs, (P, Q)


def test_key_coproduct_matches_the_ideal_construction():
    for family in ("sp", "spp"):
        for n in range(6):
            for P in enumerate_family(family, n):
                labels = frozenset(range(1, n + 1))
                want = {
                    (
                        sum(1 << (a - 1) for a in ideal),
                        Tensor(restrict_by_labels(P, labels - ideal), restrict_by_labels(P, ideal)),
                    )
                    for ideal in ideals_by_subsets(P)
                }
                cuts = algebra._key_coproduct(P)
                assert len(cuts) == len(want) and set(cuts) == want, P


# -- pairing ---------------------------------------------------------------------------


def test_gram_matrix_of_degree_two_special_posets():
    assert gram_matrix("sp", 2) == [[2, 1, 1], [1, 1, 0], [1, 0, 1]]


def picture_pairing(P, Q):
    """The definitional route: count the pictures of P against Q."""
    return algebra._picture_pairing(P, Q)


def test_extension_route_matches_pictures_on_special_pairs():
    for n in range(5):
        basis = enumerate_family("sp", n)
        for P in basis:
            for Q in basis:
                assert pairing_basis(P, Q) == picture_pairing(P, Q), (P, Q)


@pytest.mark.parametrize("family", ["spp", "hof"])
def test_extension_gram_matches_pictures_at_degree_five(family):
    basis = enumerate_family(family, 5)
    assert gram_matrix(family, 5) == [[picture_pairing(P, Q) for Q in basis] for P in basis]


def test_pairing_routes_are_chosen_by_the_special_test(monkeypatch):
    # a special pair never reaches the picture count, and a plane pair does
    calls = []
    count = algebra._picture_count
    monkeypatch.setattr(algebra, "_picture_count", lambda P, Q: calls.append(P) or count(P, Q))
    assert pairing_basis(sp(3, (1, 2)), sp(3, (2, 3))) == 2
    assert calls == []
    chain, antichain = parse_poset("PP(2; h: 1<2; r:)"), parse_poset("PP(2; h:; r: 1<2)")
    assert pairing_basis(chain, antichain) == 1
    assert len(calls) == 1


def pictures_by_search(P, Q):
    """Reference picture count: the backtracking search alone, placing the
    vertices of P in label order with four order tests per placed vertex."""
    n = P.n
    img = [0] * n
    count = 0

    def rec(v, used):
        nonlocal count
        if v == n:
            count += 1
            return
        for w in range(n):
            bit = 1 << w
            if used & bit:
                continue
            ok = True
            for u in range(v):
                x = img[u]
                if (P.up1[u] >> v) & 1 and not ((Q.up2[x] >> w) & 1):
                    ok = False
                    break
                if (P.up1[v] >> u) & 1 and not ((Q.up2[w] >> x) & 1):
                    ok = False
                    break
                if (Q.up1[x] >> w) & 1 and not ((P.up2[u] >> v) & 1):
                    ok = False
                    break
                if (Q.up1[w] >> x) & 1 and not ((P.up2[v] >> u) & 1):
                    ok = False
                    break
            if ok:
                img[v] = w
                rec(v + 1, used | bit)

    rec(0, 0)
    return count


PICTURE_BASES = [(family, n) for family in ("pp", "pf", "wnp") for n in range(5)] + [("dp", 3), ("pp", 5)]


@pytest.mark.parametrize("family, n", PICTURE_BASES)
def test_picture_count_matches_the_search_alone(family, n):
    basis = enumerate_family(family, n)
    proved = zeros = 0
    for i, P in enumerate(basis):
        for Q in basis[i:]:
            want = pictures_by_search(P, Q)
            admitted = algebra._sizes_admit_picture(P, Q)
            # the set-size test rejects only pairs that have no picture
            assert admitted or want == 0, (P, Q)
            assert algebra._picture_count(P, Q) == want, (P, Q)
            zeros += want == 0
            proved += not admitted
    if (family, n) == ("pp", 5):
        assert (proved, zeros) == (5163, 5465)


def pairing_by_pictures(x, y):
    """Reference pairing: every same-size pair of terms by its picture count."""
    return normalize_scalar(
        sum(
            cx * cy * picture_pairing(P, Q)
            for P, cx in x.items()
            for Q, cy in y.items()
            if P.n == Q.n
        )
    )


@pytest.mark.parametrize("seed", range(3))
def test_image_pairing_matches_the_term_pairs(monkeypatch, seed):
    rng = random.Random(seed)
    sp4, sp5 = enumerate_family("sp", 4), enumerate_family("sp", 5)

    def combination(basis, size):
        picks = rng.sample(basis, size)
        return LinComb((P, Fraction(rng.randint(-9, 9), rng.randint(1, 3))) for P in picks)

    x, y = combination(sp5, 60), combination(sp5, 60)
    mixed = combination(sp4, 20) + combination(sp5, 20) + GaussRat(1, 2) * combination(sp4, 5)
    plane = mixed + LinComb.basis(plane_version(enumerate_family("spp", 4)[rng.randrange(24)]))
    one, other = LinComb.basis(rng.choice(sp5)), LinComb.basis(rng.choice(sp5))
    cases = [
        (x, y),
        (x, mixed),
        (mixed, mixed),
        (plane, mixed),
        (mixed, plane),
        (one, other),
        (one, one),
        (LinComb.zero(), x),
        (mixed, LinComb.zero()),
    ]
    want = [pairing_by_pictures(a, b) for a, b in cases]
    calls = []
    by_basis = algebra.pairing_basis
    monkeypatch.setattr(algebra, "pairing_basis", lambda P, Q: calls.append(P) or by_basis(P, Q))
    for (a, b), value in zip(cases, want):
        calls.clear()
        assert pairing(a, b) == value and type(pairing(a, b)) is type(value)
        # only a combination with a non-special term pairs term by term
        assert bool(calls) == (plane in (a, b))


def test_pairing_examples():
    assert pairing(lc("SP(1;)"), lc("SP(1;)")) == 1
    assert pairing(lc("SP(2; 1<2)"), lc("SP(2; 2<1)")) == 0
    assert pairing(lc("SP(2;)"), lc("SP(2;)")) == 2
    assert pairing(lc("SP(1;)"), lc("SP(2;)")) == 0


@given(
    st.sampled_from(enumerate_family("sp", 2)),
    st.sampled_from(enumerate_family("sp", 2)),
)
def test_pairing_is_symmetric(P, Q):
    assert pairing(LinComb.basis(P), LinComb.basis(Q)) == pairing(
        LinComb.basis(Q), LinComb.basis(P)
    )


@given(
    st.sampled_from(enumerate_family("sp", 1) + enumerate_family("sp", 2)),
    st.sampled_from(enumerate_family("sp", 1) + enumerate_family("sp", 2)),
    st.sampled_from(enumerate_family("sp", 3)),
)
def test_pairing_is_hopf(P, Q, R):
    if P.n + Q.n != R.n:
        return
    x, y, z = (LinComb.basis(k) for k in (P, Q, R))
    lhs = pairing(lc_product(x, y), z)
    rhs = Fraction(0)
    for T, c in coproduct(z).terms():
        rhs += c * pairing(x, LinComb.basis(T.factors[0])) * pairing(
            y, LinComb.basis(T.factors[1])
        )
    assert lhs == rhs


# -- antipode --------------------------------------------------------------------------


def test_antipode_defining_property_through_degree_three():
    for P in _all_elements(3):
        x = LinComb.basis(P)
        convolved = LinComb.zero()
        for T, c in coproduct(x).terms():
            convolved = convolved + c * lc_product(
                antipode(LinComb.basis(T.factors[0])), LinComb.basis(T.factors[1])
            )
        assert convolved == LinComb.zero(), P


def test_antipode_on_points_and_chains():
    assert antipode(lc("SP(1;)")) == lc("-SP(1;)")
    assert antipode(lc("SP(2;)")) == lc("SP(2;)")


# -- literals ---------------------------------------------------------------------------


def test_parse_lincomb_rejects_garbage():
    with pytest.raises(ValueError):
        parse_lincomb("XX(2;)")


def _split_signed_terms_by_characters(s):
    terms = []
    depth = 0
    sign = 1
    cur = ""
    for ch in s:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if depth == 0 and ch in "+-":
            if cur.strip():
                terms.append((sign, cur))
                cur = ""
                sign = 1
            if ch == "-":
                sign = -sign
            continue
        cur += ch
    if depth != 0:
        raise ValueError(f"unbalanced brackets: {s!r}")
    if not cur.strip():
        raise ValueError(f"bad lincomb literal: {s!r}")
    terms.append((sign, cur))
    return terms


def parse_lincomb_in_two_walks(text):
    """Reference parser: split the signed terms a character at a time, then
    walk each term again for its last top-level ``*``."""
    s = text.strip()
    if s == "0":
        return LinComb.zero()
    out = []
    for sign, term in _split_signed_terms_by_characters(s):
        depth = 0
        split_at = None
        for idx, ch in enumerate(term):
            if ch in "([":
                depth += 1
            elif ch in ")]":
                depth -= 1
            elif ch == "*" and depth == 0:
                split_at = idx
        if split_at is None:
            coeff = 1
            body = term
        else:
            coeff = parse_scalar(term[:split_at])
            body = term[split_at + 1 :]
        out.append((algebra._parse_basis_key(body), sign * coeff))
    return LinComb(out)


def _outcome(parse, text):
    """The parsed combination, or the error's type and message."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


LINCOMB_EDGE_CASES = (
    "0",
    " 0 ",
    "0*SP(1;)",
    "0*SP(1;) + 0",
    "SP(0;)",
    "3/2*SP(2; 1<2) - SP(2;) + 2*21",
    "007 * SP(1;) - 2*SP(2;) + 0*12",
    "(7)*SP(1;) + \u0663*SP(1;)",
    "(1+2I)*SP(3; 1<3, 2<3) - (1/2-3/4I)*SP(2;)",
    "(1 + 2*I) * SP(2; 2<1)",
    "I*12 - 2*I*21 + -I*[1,2]",
    " 3 / 2 * SP(1;)",
    "-SP(1;) - -SP(1;)",
    "SP(1;) - - 1/0*SP(1;)",
    "SP(1;) + + SP(2;)",
    "SP(1;)+-SP(2;)",
    "--SP(1;)",
    "+SP(1;)",
    "3*-SP(1;)",
    "*SP(1;)",
    "SP(2; 1<2)*",
    "2*3*SP(1;)",
    "[3,1,2] - 2*[1,2,3] + 312",
    "2*∅ - ∅",
    "PP(2; h: 1<2; r:) + SP(2;)",
    "DP(2; o1: 1<2; o2: 2<1) - 2*DP(2; o1:; o2:)",
    "1/0*SP(1;)",
    "1/0I*SP(1;)",
    "(1+2I*SP(1;)",
    "SP(1;",
    "SP(1;))",
    "SP(1;)) + (",
    ")(",
    "[1,2",
    "12]",
    "",
    "   ",
    "+",
    "-",
    "- -",
    "*",
    "x",
    "SP(1;) x",
    "SP(1;) (x) SP(1;)",
    "2 SP(1;)",
    "XX(2;)",
)


@pytest.mark.parametrize("text", LINCOMB_EDGE_CASES)
def test_parse_lincomb_matches_the_two_walk_parser_on_the_grammar(text):
    assert _outcome(parse_lincomb, text) == _outcome(parse_lincomb_in_two_walks, text)


def test_parse_lincomb_matches_the_two_walk_parser_on_the_benchmark_operands(monkeypatch):
    """Every combination operand of the 16 seeded ``special`` operand sets."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    operands = {
        text
        for seed in range(workloads.SEED_POOL)
        for inv in workloads.invocations("special", seed)
        if inv.argv[0] in ("op", "theta", "pair", "upsilon")
        for text in inv.argv[1:]
        if "(" in text
    }
    assert len(operands) == 5 * workloads.SEED_POOL
    for text in sorted(operands):
        assert parse_lincomb(text) == parse_lincomb_in_two_walks(text)


@given(st.sampled_from(_all_elements(3)))
def test_lincomb_literal_round_trip(P):
    x = LinComb.basis(P) - 3 * LinComb.basis(sp(1))
    assert parse_lincomb(format_lincomb(x)) == x
    assert as_lincomb(P) == LinComb.basis(P)


# -- the combination core against a definitional reference ------------------------------


def _fresh_key(key):
    """The canonical order recomputed from scratch, as the lists it compares."""
    if isinstance(key, Tensor):
        return tuple(_fresh_key(f) for f in key.factors)
    if isinstance(key, Permutation):
        return (len(key.word), key.word)
    return (key.n, key.pairs(1), key.pairs(2))


def _key_pools():
    posets = [
        *(P for n in range(4) for P in enumerate_family("sp", n)),
        *(P for n in range(1, 4) for P in enumerate_family("spp", n)),
        *(P for n in range(1, 4) for P in enumerate_family("pp", n)),
    ]
    perms = [Permutation(w) for n in range(4) for w in itertools.permutations(range(1, n + 1))]
    small = enumerate_family("sp", 2)
    return {
        "posets": posets,
        "permutations": perms,
        "tensors2": [Tensor(a, b) for a in small for b in posets[:12]],
        "tensors3": [Tensor(a, p, b) for a in small for p in perms[:6] for b in small],
    }


_POOLS = _key_pools()

_coefficients = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
    st.builds(GaussRat, st.integers(-2, 2), st.integers(-2, 2)),
)


@st.composite
def _raw_terms(draw, kind=None):
    pool = _POOLS[kind or draw(st.sampled_from(sorted(_POOLS)))]
    keys = st.sampled_from(pool)
    return draw(st.lists(st.tuples(keys, _coefficients), max_size=12))


def test_double_poset_sort_key_orders_like_the_pair_lists():
    posets = [P for n in range(4) for P in enumerate_family("dp", n)]
    assert sorted(posets, key=DoublePoset.sort_key) == sorted(posets, key=_fresh_key)
    # Past 255 labels the pairs no longer fit in bytes.
    wide = [
        DoublePoset(n, pairs, [(1, 2)])
        for n in (255, 256, 300)
        for pairs in ([], [(1, 2)], [(1, 3)], [(2, 300)][: n // 300])
    ]
    assert sorted(wide, key=DoublePoset.sort_key) == sorted(wide, key=_fresh_key)


@given(_raw_terms(), st.randoms(use_true_random=False))
def test_lincomb_core_matches_reference(raw, rng):
    reference = {}
    for key, coeff in raw:
        reference[key] = reference.get(key, 0) + coeff
    expected = sorted(
        ((k, normalize_scalar(c)) for k, c in reference.items() if c),
        key=lambda kv: _fresh_key(kv[0]),
    )
    x = LinComb(raw)
    assert x.terms() == expected
    assert x.support() == [k for k, _ in expected]

    shuffled = rng.sample(raw, len(raw))
    singles = [LinComb.basis(k, c) for k, c in shuffled]
    chained = LinComb.zero()
    for single in singles:
        chained += single
    builds = (LinComb(shuffled), LinComb.sum(singles), LinComb.sum(reversed(shuffled)), chained)
    for y in builds:
        assert y == x
        assert hash(y) == hash(x)
        assert format_lincomb(y) == format_lincomb(x)
        assert y.terms() == expected


@given(
    st.sampled_from(sorted(_POOLS)).flatmap(
        lambda a: st.tuples(
            st.just(a), st.sampled_from([b for b in sorted(_POOLS) if b != a])
        )
    ),
    st.data(),
)
def test_mixed_kinds_are_rejected_on_every_path(kinds, data):
    a, b = (
        data.draw(_raw_terms(kind).filter(lambda t: LinComb(t)), label=kind) for kind in kinds
    )
    x, y = LinComb(a), LinComb(b)
    for build in (
        lambda: x + y,
        lambda: x - y,
        lambda: LinComb.sum([x, y]),
        lambda: LinComb.sum([*x.items(), *y.items()]),
        lambda: LinComb(a + b),
    ):
        with pytest.raises(ValueError, match="mixed basis kinds"):
            build()


# -- coefficient forms ------------------------------------------------------------------


def _forms(value):
    """Every form a scalar can be passed in: int, Fraction or GaussRat."""
    value = normalize_scalar(value)
    if isinstance(value, GaussRat):
        return [value]
    forms = [value, GaussRat(value)]
    if value.denominator == 1:
        forms.append(int(value))
    return forms


def _stored_type(value):
    value = normalize_scalar(value)
    if isinstance(value, GaussRat):
        return GaussRat
    return int if value.denominator == 1 else Fraction


@given(_raw_terms(), st.data())
def test_coefficient_forms_give_the_same_combination(raw, data):
    mixed = [(k, data.draw(st.sampled_from(_forms(c)))) for k, c in raw]
    canonical = [(k, normalize_scalar(c)) for k, c in raw]
    x, y = LinComb(mixed), LinComb(canonical)
    assert x == y
    assert hash(x) == hash(y)
    assert format_lincomb(x) == format_lincomb(y)
    for key, c in x.items():
        assert type(c) is _stored_type(c)
        assert type(x.coeff(key)) is (GaussRat if type(c) is GaussRat else Fraction)
    for z in (x + y, x - y, -x, x * Fraction(2, 3), 3 * x, x / 2):
        assert all(type(c) is _stored_type(c) for _, c in z.items())


def test_integral_sums_are_stored_as_int():
    P = SpecialPoset(1)
    x = LinComb([(P, Fraction(1, 2)), (P, Fraction(3, 2)), (P, GaussRat(1, 1)), (P, GaussRat(0, -1))])
    assert x.terms() == [(P, 3)] and type(x.terms()[0][1]) is int
    assert type(x.coeff(P)) is Fraction and x.coeff(P) == 3
    assert type(x.coeff(SpecialPoset(2))) is Fraction


def test_division_goes_through_fraction():
    P = SpecialPoset(1)
    half = LinComb.basis(P, 3) / 2
    assert half.terms() == [(P, Fraction(3, 2))] and type(half.terms()[0][1]) is Fraction
    assert (LinComb.basis(P, 4) / 2).terms() == [(P, 2)]
    assert (LinComb.basis(P, 2) / GaussRat(0, 1)).coeff(P) == GaussRat(0, -2)
    with pytest.raises(ZeroDivisionError):
        LinComb.basis(P) / 0
    with pytest.raises(TypeError, match="unsupported scalar"):
        LinComb.basis(P) / 2.0


def test_pairing_returns_canonical_scalars():
    x = lc("SP(2;) + 2*SP(2; 1<2)")
    assert pairing(x, x) == 10 and type(pairing(x, x)) is Fraction
    assert type(pairing(x, lc("SP(1;)"))) is Fraction
    assert type(pairing(x, x / 3)) is Fraction
    z = pairing(x, GaussRat(0, 1) * x)
    assert type(z) is GaussRat and z == GaussRat(0, pairing(x, x))
    assert type(pairing(x, GaussRat(1, 1) * x - GaussRat(0, 1) * x)) is Fraction
