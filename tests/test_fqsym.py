"""Permutations, shifted shuffles, cuts, the duality pairing, weak order."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dposet.algebra import LinComb, Tensor, apply_slot, coproduct, lc_product, pairing
from dposet.fqsym import (
    Permutation,
    fq_coproduct,
    fq_dendriform_coproducts,
    fq_nwarrow,
    fq_pairing,
    fq_reduced_coproduct,
    inversions,
    parse_permutation,
    shuffle_product,
    standardize,
    weak_interval_down,
    weak_order_leq,
)


def pm(text):
    return parse_permutation(text)


def words(n):
    return [Permutation(w) for w in itertools.permutations(range(1, n + 1))]


small_perms = st.sampled_from(words(1) + words(2) + words(3))


def test_permutation_literals_and_validation():
    assert pm("312").word == (3, 1, 2)
    assert pm("[10,2,3,4,5,6,7,8,9,1]").n == 10
    assert pm("[]").n == 0
    with pytest.raises(ValueError):
        pm("122")
    assert pm("312").literal() == "312"


def test_public_constructor_validates_and_trusted_words_agree():
    for word in ((1, 1), (0, 1), (2, 3), (1, 2, 4)):
        with pytest.raises(ValueError, match="not a permutation"):
            Permutation(word)
    for n in range(4):
        for word in itertools.permutations(range(1, n + 1)):
            checked, trusted = Permutation(word), Permutation._trusted(word)
            assert checked == trusted and hash(checked) == hash(trusted)
            assert checked.sort_key() == trusted.sort_key()
    with pytest.raises(ValueError, match="not a permutation"):
        pm("21").compose(pm("123"))


def test_inverse_and_compose():
    p = pm("312")
    assert p.inverse() == pm("231")
    assert p.compose(p.inverse()) == pm("123")
    # compose is "self after other"
    assert pm("21").compose(pm("12")) == pm("21")


def test_standardize():
    assert standardize((4, 9, 2)) == pm("231")
    with pytest.raises(ValueError):
        standardize((1, 1))


def test_shuffle_product_of_12_and_1():
    assert shuffle_product(pm("12"), pm("1")) == LinComb(
        [(pm("123"), 1), (pm("132"), 1), (pm("312"), 1)]
    )


def test_shuffle_product_counts():
    total = shuffle_product(pm("21"), pm("12"))
    assert sum(c for _, c in total.terms()) == 6
    assert all(c == 1 for _, c in total.terms())


def test_fq_coproduct_of_132():
    assert fq_coproduct(pm("132")) == LinComb(
        [
            (Tensor(pm("[]"), pm("132")), 1),
            (Tensor(pm("1"), pm("21")), 1),
            (Tensor(pm("12"), pm("1")), 1),
            (Tensor(pm("132"), pm("[]")), 1),
        ]
    )
    assert fq_reduced_coproduct(pm("132")) == LinComb(
        [(Tensor(pm("1"), pm("21")), 1), (Tensor(pm("12"), pm("1")), 1)]
    )


def test_fq_pairing_detects_inverses():
    assert fq_pairing(pm("312"), pm("231")) == 1
    assert fq_pairing(pm("312"), pm("312")) == 0
    assert fq_pairing(pm("12"), pm("12")) == 1


def test_inversions_and_weak_order():
    assert inversions(pm("321")) == {(1, 2), (1, 3), (2, 3)}
    assert inversions(pm("123")) == set()
    assert weak_order_leq(pm("213"), pm("231"))
    assert not weak_order_leq(pm("213"), pm("132"))
    with pytest.raises(ValueError):
        weak_order_leq(pm("12"), pm("123"))


def test_weak_interval_down():
    assert set(weak_interval_down(pm("21"))) == {pm("12"), pm("21")}
    assert len(weak_interval_down(pm("321"))) == 6
    assert set(weak_interval_down(pm("231"))) == {pm("123"), pm("213"), pm("231")}


def test_fq_nwarrow_examples():
    assert fq_nwarrow(pm("21"), pm("1")) == LinComb([(pm("213"), 1), (pm("231"), 1)])
    six = fq_nwarrow(pm("312"), pm("12"))
    assert six == LinComb(
        [
            (pm("31245"), 1),
            (pm("31425"), 1),
            (pm("31452"), 1),
            (pm("34125"), 1),
            (pm("34152"), 1),
            (pm("34512"), 1),
        ]
    )
    with pytest.raises(ValueError):
        fq_nwarrow(pm("[]"), pm("1"))


def test_fq_dendriform_coproducts_of_132():
    prec, succ = fq_dendriform_coproducts(pm("132"))
    assert prec == LinComb([(Tensor(pm("12"), pm("1")), 1)])
    assert succ == LinComb([(Tensor(pm("1"), pm("21")), 1)])
    with pytest.raises(ValueError):
        fq_dendriform_coproducts(pm("[]"))


def test_dendriform_coproducts_sum_to_reduced_coproduct():
    for p in words(4):
        prec, succ = fq_dendriform_coproducts(p)
        assert prec + succ == fq_reduced_coproduct(p)


@given(small_perms, small_perms)
def test_shuffle_degree_and_multiplicity(p, q):
    prod = shuffle_product(p, q)
    assert all(key.n == p.n + q.n for key in prod.support())
    from math import comb

    assert sum(c for _, c in prod.terms()) == comb(p.n + q.n, p.n)


@given(small_perms)
def test_fq_coproduct_is_coassociative(p):
    x = fq_coproduct(p)
    left = apply_slot(x, 0, lambda k: fq_coproduct(k))
    right = apply_slot(x, 1, lambda k: fq_coproduct(k))
    assert left == right


@given(small_perms, small_perms)
def test_pairing_is_a_hopf_pairing_on_permutations(p, q):
    # <p . q, r> = <p (x) q, coproduct(r)> for every r of matching degree
    if p.n + q.n > 4:
        return
    x = lc_product(LinComb.basis(p), LinComb.basis(q))
    for r in words(p.n + q.n):
        lhs = pairing(x, LinComb.basis(r))
        rhs = 0
        for T, c in coproduct(LinComb.basis(r)).terms():
            rhs += c * fq_pairing(p, T.factors[0]) * fq_pairing(q, T.factors[1])
        assert lhs == rhs


@given(small_perms)
def test_interval_down_is_inversion_closed(q):
    down = weak_interval_down(q)
    assert Permutation(range(1, q.n + 1)) in down
    for p in down:
        assert weak_order_leq(p, q)
