"""Tests for the linear-extension morphism, the permutation/plane-poset
bijections, the heap-ordered-forest projection, and the pairing radical."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from dposet import morphisms
from dposet.algebra import GaussRat, LinComb, format_lincomb, gram_matrix, pairing, parse_lincomb
from dposet.fqsym import Permutation, inversions, parse_permutation, weak_interval_down
from dposet.linalg import mat_inverse, rank_kernel
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
    _relabel,
    canonical_form,
    enumerate_family,
    extension_words,
    format_poset,
    iota,
    is_heap_forest,
    is_plane,
    is_special,
    kappa,
    parse_poset,
    plane_version,
    restrict,
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


def _psi_by_peeling(P):
    """Reference: peel off the distinguished maximal vertex (``kappa``) of the
    plane incarnation repeatedly; the k-th vertex peeled from the top takes
    the value n + 1 - k."""
    if not is_plane(P):
        P = plane_version(P)
    alive = list(range(1, P.n + 1))
    inverse_word = [0] * P.n
    for k in range(P.n, 0, -1):
        c = kappa(P)
        inverse_word[k - 1] = alive.pop(c - 1)
        P = restrict(P, [v for v in range(1, P.n + 1) if v != c])
    return Permutation(inverse_word).inverse()


def test_psi_matches_the_peeling_route_through_degree_six():
    rng = random.Random(11)
    checked = 0
    for n in range(7):
        for P in enumerate_family("pp", n):
            relabeled = _relabel(P, rng.sample(range(n), n))
            for Q in (P, relabeled):
                assert psi(Q) == _psi_by_peeling(Q), format_poset(Q)
                checked += 1
        for P in enumerate_family("spp", n):
            assert psi(P) == _psi_by_peeling(P), format_poset(P)
            checked += 1
    assert checked == 3 * sum(map(math.factorial, range(7)))  # pp and spp: n! each


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


def test_the_bijection_matches_the_enumeration_keyed_table():
    for n in range(1, 7):
        table = {extension_words(F)[-1]: F for F in enumerate_family("hof", n)}
        words = list(itertools.permutations(range(1, n + 1)))
        assert sorted(table) == words
        for sigma in words:
            F = morphisms._hof_of_word(sigma)
            assert F == table[sigma]
            assert is_heap_forest(F)
            assert extension_words(F)[-1] == sigma


def test_theta_hof_inverse_on_degree_zero_and_mixed_degrees():
    assert (
        format_lincomb(theta_hof_inverse(lc("2*[] + 21 - 3*123 + 321")))
        == "2*SP(0;) + SP(2;) - SP(2; 1<2) + SP(3;) - SP(3; 1<2)"
        " - 2*SP(3; 1<2, 2<3) - SP(3; 2<3)"
    )


def test_upsilon_past_the_default_degree_cap(monkeypatch):
    monkeypatch.setenv("DPOSET_MAX_DEGREE", "8")
    x = lc("SP(8; 2<1, 4<3, 6<5, 8<7)")
    result = upsilon(x)
    assert len(result.support()) == 16
    assert all(is_heap_forest(F) for F in result.support())
    assert theta(result) == theta(x)


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


def _upsilon_by_rescanning(x, fuel=100000):
    """The reference rewriting loop: each step sorts the whole state, rewrites
    its first term that is not a heap-ordered forest and rebuilds the sum."""
    pending = x
    while True:
        target = None
        for P, _ in pending.terms():
            if not is_special(P):
                raise ValueError("not a special poset")
            if not is_heap_forest(P):
                target = P
                break
        if target is None:
            return pending
        if fuel <= 0:
            raise ValueError("rewrite fuel exhausted")
        fuel -= 1
        coeff = pending.coeff(target)
        pending = pending - LinComb(((target, coeff),)) + morphisms.rewrite_step(target) * coeff


def _rewriting_inputs():
    """Seeded sp 4-6 combinations with integer, rational and Gaussian
    coefficients, some holding a term next to its own rewriting negated, so
    that pending terms cancel to zero on the way."""
    rng = random.Random(1109)
    scalars = (3, -2, Fraction(1, 3), GaussRat(1, 2), GaussRat(Fraction(-1, 2), -1))
    for n in (4, 5, 6):
        for cancel in (False, True):
            terms = [(P, rng.choice(scalars)) for P in rng.sample(enumerate_family("sp", n), 6)]
            if cancel:
                P, c = next((P, c) for P, c in terms if not is_heap_forest(P))
                terms += [(Q, -c * d) for Q, d in rewrite_step(P).items()]
            yield LinComb(terms)


def _rewritten(monkeypatch, rewrite, x):
    """``rewrite(x)`` and the posets handed to ``rewrite_step``, in order."""
    targets = []

    def spy(P):
        targets.append(P)
        return rewrite_step(P)

    with monkeypatch.context() as patch:
        patch.setattr(morphisms, "rewrite_step", spy)
        return rewrite(x), targets


def test_upsilon_by_rewriting_follows_the_rescanning_loop(monkeypatch):
    for x in _rewriting_inputs():
        result, targets = _rewritten(monkeypatch, upsilon_by_rewriting, x)
        assert (result, targets) == _rewritten(monkeypatch, _upsilon_by_rescanning, x)
        assert result == upsilon(x)
        steps = len(targets)
        assert upsilon_by_rewriting(x, fuel=steps) == result
        for rewrite in (upsilon_by_rewriting, _upsilon_by_rescanning):
            with pytest.raises(ValueError, match="rewrite fuel exhausted"):
                rewrite(x, fuel=steps - 1)


@pytest.mark.parametrize("x", ["21", "SP(3; 2<1) + PP(2; h: 1<2; r:)"])
def test_upsilon_by_rewriting_refuses_a_term_that_is_not_special(x):
    for rewrite in (upsilon_by_rewriting, _upsilon_by_rescanning):
        with pytest.raises(ValueError, match="not a special poset"):
            rewrite(lc(x))


def test_upsilon_by_rewriting_never_sorts_its_state(monkeypatch):
    rng = random.Random(5)
    x = LinComb((P, rng.randint(-9, 9) or 1) for P in rng.sample(enumerate_family("sp", 5), 20))
    expected = upsilon(x)

    def no_sort(self):
        raise AssertionError("the state was sorted")

    monkeypatch.setattr(LinComb, "terms", no_sort)
    assert upsilon_by_rewriting(x) == expected


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


def gram_kernel(family, n):
    """Reference radical: the kernel of the full Gram matrix."""
    basis = enumerate_family(family, n)
    _, kernel = rank_kernel(gram_matrix(family, n))
    return [LinComb(zip(basis, vec)) for vec in kernel]


SPECIAL_FAMILIES = ("sp", "hop", "of", "spp", "hof", "spf", "swnp")


@pytest.mark.parametrize(
    "family, n",
    [(f, n) for f in SPECIAL_FAMILIES for n in range(1, 5)]
    + [(f, 5) for f in ("spp", "hof", "spf", "swnp")],
)
def test_theta_kernel_is_the_gram_kernel(family, n):
    got, want = pairing_kernel_basis(family, n), gram_kernel(family, n)
    assert [format_lincomb(v) for v in got] == [format_lincomb(v) for v in want]


def theta_incidence(basis, n):
    words = itertools.permutations(range(1, n + 1))
    return [[int(w in extension_words(P)) for P in basis] for w in words]


def test_theta_kernel_needs_full_rank():
    assert morphisms._theta_kernel(enumerate_family("sp", 4), 4) is not None
    # swnp 4 has 22 < 24 elements; there the kernel of theta's incidence
    # matrix is not the radical of the pairing
    swnp = enumerate_family("swnp", 4)
    assert morphisms._theta_kernel(swnp, 4) is None
    rank, kernel = rank_kernel(theta_incidence(swnp, 4))
    assert rank == 22 and kernel == [] and len(gram_kernel("swnp", 4)) == 1
    # six posets with 1 below 2 have 3! elements, but no extension puts 2 first
    below = [P for P in enumerate_family("sp", 3) if P.less(1, 2)]
    assert len(below) == 6 and rank_kernel(theta_incidence(below, 3))[0] == 3
    assert morphisms._theta_kernel(below, 3) is None


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


def _interval_by_weak_order(P):
    """Reference: the extension with the most inversions must be the only
    one with that many, and its weak-order down interval the extensions."""
    extensions = set(linear_extensions(P))
    tops = sorted((len(inversions(sigma)), sigma.word) for sigma in extensions)
    top_count, top_word = tops[-1]
    if len(tops) > 1 and tops[-2][0] == top_count:
        return False
    return set(weak_interval_down(Permutation(top_word))) == extensions


def test_bruhat_interval_check_matches_the_weak_order_route_through_degree_five():
    answers = [
        (bruhat_interval_check(P), _interval_by_weak_order(P))
        for n in range(6)
        for P in enumerate_family("sp", n)
    ]
    assert len(answers) == 4474
    assert all(new == old for new, old in answers)
    assert sum(new for new, _ in answers) == sum(map(math.factorial, range(6)))  # spp


def test_bruhat_interval_check_rejects_non_special():
    with pytest.raises(ValueError, match="not a special poset"):
        bruhat_interval_check(parse_poset("PP(2; h: 1<2; r:)"))
