"""Tests for the linear-extension morphism, the permutation/plane-poset
bijections, the heap-ordered-forest projection, and the pairing radical."""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from dposet import morphisms
from dposet.algebra import GaussRat, LinComb, format_lincomb, pairing, parse_lincomb
from dposet.fqsym import Permutation, parse_permutation, weak_interval_down
from dposet.linalg import mat_inverse
from dposet.morphisms import (
    bruhat_interval_check,
    linear_extensions,
    pairing_kernel_basis,
    phi,
    psi,
    rewrite_step,
    theta,
    theta_hof_inverse,
    upsilon,
    upsilon_by_rewriting,
)
from dposet.poset_core import (
    canonical_form,
    enumerate_family,
    extension_words,
    format_poset,
    iota,
    parse_poset,
    reverse_rel2,
)


def lc(text):
    return parse_lincomb(text)


def pm(text):
    return parse_permutation(text)


def value_complement(sigma):
    n = sigma.n
    return Permutation(tuple(n + 1 - a for a in sigma.word))


# -- linear extensions ------------------------------------------------------------


def test_linear_extensions_lexicographic():
    P = parse_poset("SP(4; 1<3, 2<3)")
    words = [str(sigma) for sigma in linear_extensions(P)]
    assert words == [
        "1234",
        "1243",
        "1423",
        "2134",
        "2143",
        "2413",
        "4123",
        "4213",
    ]


def test_linear_extensions_chain_and_antichain():
    assert [str(s) for s in linear_extensions(parse_poset("SP(3; 1<2, 2<3)"))] == [
        "123"
    ]
    assert len(linear_extensions(parse_poset("SP(3;)"))) == 6


def test_linear_extensions_rejects_non_special():
    with pytest.raises(ValueError, match="not a special poset"):
        linear_extensions(parse_poset("PP(2; h: 1<2; r:)"))


# -- theta ------------------------------------------------------------------------


def test_theta_frozen_values():
    assert format_lincomb(theta(lc("SP(3; 1<3, 2<3)"))) == "123 + 213"
    assert format_lincomb(theta(lc("SP(2; 2<1)"))) == "21"
    assert theta(lc("SP(2;)")) == LinComb(((pm("12"), 1), (pm("21"), 1)))


def test_theta_is_linear():
    x = lc("2*SP(2; 1<2) - SP(2; 2<1)")
    assert theta(x) == LinComb(((pm("12"), 2), (pm("21"), -1)))


def test_theta_rejects_non_special():
    with pytest.raises(ValueError, match="not a special poset"):
        theta(lc("PP(2; h: 1<2; r:)"))


def test_theta_isometric_on_degree_two():
    basis = [LinComb(((P, 1),)) for P in enumerate_family("sp", 2)]
    for x in basis:
        for y in basis:
            assert pairing(theta(x), theta(y)) == pairing(x, y)


# -- phi and psi ------------------------------------------------------------------


def test_phi_frozen_values():
    assert format_poset(phi(pm("132"))) == "PP(3; h: 1<2, 1<3; r: 2<3)"
    assert format_poset(phi(pm("213"))) == "PP(3; h: 1<3, 2<3; r: 1<2)"
    assert format_poset(phi(pm("12"))) == "PP(2; h: 1<2; r:)"
    assert format_poset(phi(pm("21"))) == "SP(2;)"


def test_psi_inverts_phi_small_degrees():
    for n in range(1, 5):
        seen = set()
        for P in enumerate_family("pp", n):
            sigma = psi(P)
            assert phi(sigma) == P
            seen.add(sigma)
        assert len(seen) == len(enumerate_family("pp", n))


def test_psi_accepts_special_plane_posets_directly():
    P = parse_poset("SP(3; 1<3, 2<3)")
    assert str(psi(P)) == "213"


def test_psi_rejects_non_plane():
    with pytest.raises(ValueError, match="not plane"):
        psi(parse_poset("SP(3; 1<3, 3<2)"))


def test_psi_composed_with_involutions():
    # Reversing the second order corresponds to complementing values;
    # exchanging the two orders corresponds to inverting the permutation.
    for n in range(1, 5):
        for P in enumerate_family("pp", n):
            assert psi(iota(P)) == value_complement(psi(P))
            assert psi(canonical_form(reverse_rel2(P))) == psi(P).inverse()


# -- inversion over heap-ordered forests and upsilon -------------------------------


def test_theta_hof_inverse_frozen_values():
    assert format_lincomb(theta_hof_inverse(lc("123 + 132"))) == "SP(3; 1<2, 1<3)"
    assert format_lincomb(theta_hof_inverse(lc("21"))) == "SP(2;) - SP(2; 1<2)"


def test_theta_hof_inverse_sections_theta():
    for n in range(1, 5):
        for F in enumerate_family("hof", n):
            x = LinComb(((F, 1),))
            assert theta_hof_inverse(theta(x)) == x


@functools.lru_cache(maxsize=None)
def dense_theta_inverse_matrix(n):
    """The definitional route at degree ``n``: the inverse of the square 0/1
    matrix of theta over the heap-ordered forests."""
    basis = enumerate_family("hof", n)
    perms = sorted({s for F in basis for s in linear_extensions(F)}, key=Permutation.sort_key)
    index = {p: i for i, p in enumerate(perms)}
    matrix = [[0] * len(basis) for _ in perms]
    for j, F in enumerate(basis):
        for sigma in linear_extensions(F):
            matrix[index[sigma]][j] = 1
    return basis, index, mat_inverse(matrix)


def dense_theta_hof_inverse(y, n):
    basis, index, inverse = dense_theta_inverse_matrix(n)
    return LinComb(
        (F, row[index[sigma]] * coeff)
        for F, row in zip(basis, inverse)
        for sigma, coeff in y.items()
    )


def random_permutation_combination(rng, n, size):
    words = rng.sample(list(itertools.permutations(range(1, n + 1))), size)
    coeffs = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)), GaussRat(rng.randint(-3, 3), 1))
    return LinComb((Permutation(w), rng.choice(coeffs)) for w in words)


def test_back_substitution_matches_the_dense_inverse():
    rng = random.Random(20240901)
    for n in range(1, 6):
        basis = list(itertools.permutations(range(1, n + 1)))
        cases = [LinComb.basis(Permutation(w)) for w in basis]
        cases += [random_permutation_combination(rng, n, min(len(basis), 7)) for _ in range(5)]
        for y in cases:
            expected = format_lincomb(dense_theta_hof_inverse(y, n))
            assert format_lincomb(theta_hof_inverse(y)) == expected


def test_theta_hof_inverse_sections_theta_at_degree_six():
    rng = random.Random(6)
    forests = enumerate_family("hof", 6)
    for _ in range(8):
        y = random_permutation_combination(rng, 6, 12)
        assert theta(theta_hof_inverse(y)) == y
        x = LinComb((F, rng.randint(-5, 5)) for F in rng.sample(forests, 4))
        assert theta_hof_inverse(theta(x)) == x


def test_theta_hof_inverse_raises_when_keys_collide(monkeypatch):
    forests = enumerate_family("hof", 3)
    monkeypatch.setattr(morphisms, "enumerate_family", lambda family, n: forests + forests[:1])
    morphisms._hof_theta_inverse.cache_clear()
    try:
        with pytest.raises(ValueError, match="theta is not invertible"):
            theta_hof_inverse(lc("123"))
    finally:
        morphisms._hof_theta_inverse.cache_clear()


def test_linear_extensions_wrap_the_extension_words():
    for n in range(5):
        for P in enumerate_family("sp", n):
            assert [s.word for s in linear_extensions(P)] == list(extension_words(P))


def test_theta_hof_inverse_rejects_poset_keys():
    with pytest.raises(ValueError, match="not a permutation basis element"):
        theta_hof_inverse(lc("SP(2;)"))


def test_upsilon_frozen_values():
    assert format_lincomb(upsilon(lc("SP(2; 2<1)"))) == "SP(2;) - SP(2; 1<2)"
    assert (
        format_lincomb(upsilon(lc("SP(3; 1<3, 2<3)")))
        == "-SP(3; 1<2, 1<3) + SP(3; 1<2, 2<3) + SP(3; 1<3)"
    )


def test_upsilon_fixes_heap_ordered_forests():
    for n in range(1, 5):
        for F in enumerate_family("hof", n):
            x = LinComb(((F, 1),))
            assert upsilon(x) == x


def test_upsilon_preserves_theta_image():
    for P in enumerate_family("sp", 3):
        x = LinComb(((P, 1),))
        assert theta(upsilon(x)) == theta(x)


# -- rewriting -------------------------------------------------------------------


def test_rewrite_step_inverted_edge():
    out = rewrite_step(parse_poset("SP(2; 2<1)"))
    assert format_lincomb(out) == "SP(2;) - SP(2; 1<2)"


def test_rewrite_step_shared_cover():
    out = rewrite_step(parse_poset("SP(3; 1<3, 2<3)"))
    assert (
        format_lincomb(out)
        == "-SP(3; 1<2, 1<3) + SP(3; 1<2, 2<3) + SP(3; 1<3)"
    )


def test_rewrite_step_preserves_theta():
    for literal in ("SP(3; 2<1, 3<1)", "SP(4; 1<4, 2<4, 3<4)", "SP(3; 3<1, 3<2)"):
        P = parse_poset(literal)
        assert theta(rewrite_step(P)) == theta(LinComb(((P, 1),)))


def test_rewrite_step_refuses_heap_ordered_forests():
    with pytest.raises(ValueError, match="already a heap-ordered forest"):
        rewrite_step(parse_poset("SP(3; 1<2, 1<3)"))


def test_upsilon_by_rewriting_matches_upsilon():
    for n in range(1, 5):
        for P in enumerate_family("sp", n):
            x = LinComb(((P, 1),))
            assert upsilon_by_rewriting(x) == upsilon(x)


def test_upsilon_by_rewriting_fuel_exhaustion():
    with pytest.raises(ValueError, match="rewrite fuel exhausted"):
        upsilon_by_rewriting(lc("SP(2; 2<1)"), fuel=0)


# -- pairing radical --------------------------------------------------------------


def test_pairing_kernel_degree_two():
    (v,) = pairing_kernel_basis("sp", 2)
    assert format_lincomb(v) == "-SP(2;) + SP(2; 1<2) + SP(2; 2<1)"


def test_pairing_kernel_dimension_degree_three():
    assert len(pairing_kernel_basis("sp", 3)) == 13


def test_pairing_kernel_elements_pair_to_zero():
    kernel = pairing_kernel_basis("sp", 3)
    for v in kernel:
        for P in enumerate_family("sp", 3):
            assert pairing(v, LinComb(((P, 1),))) == 0


# -- weak-order down intervals ----------------------------------------------------


def test_bruhat_interval_check_frozen_cases():
    assert bruhat_interval_check(parse_poset("SP(3; 1<3, 2<3)")) is True
    assert bruhat_interval_check(parse_poset("SP(3; 1<3, 3<2)")) is False


def test_bruhat_interval_check_matches_special_plane_membership():
    for n in range(1, 5):
        plane = set(enumerate_family("spp", n))
        for P in enumerate_family("sp", n):
            assert bruhat_interval_check(P) == (P in plane)


def test_bruhat_interval_top_is_inverse_of_psi():
    for P in enumerate_family("spp", 3):
        top = psi(P).inverse()
        assert set(weak_interval_down(top)) == set(linear_extensions(P))


def test_bruhat_interval_check_rejects_non_special():
    with pytest.raises(ValueError, match="not a special poset"):
        bruhat_interval_check(parse_poset("PP(2; h: 1<2; r:)"))
