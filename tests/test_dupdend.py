"""Tests for the northwest-graft product, the split coproducts, the
half-products on special plane forests, and the axiom suites."""

import pytest

from dposet.algebra import (
    LinComb,
    format_lincomb,
    lc_product,
    parse_lincomb,
    reduced_coproduct,
)
from dposet.dupdend import (
    AXIOM_SUITES,
    check_axioms,
    prim_tot_basis,
    sp_dendriform_coproducts,
    sp_nwarrow,
    spf_prec,
    spf_succ,
    spp_dendriform_coproducts,
)
from dposet.algebra import Tensor, coproduct
from dposet.poset_core import enumerate_family, ideals, restrict


def lc(text):
    return parse_lincomb(text)


# -- northwest graft ---------------------------------------------------------------


def test_sp_nwarrow_frozen_values():
    assert (
        format_lincomb(sp_nwarrow(lc("SP(2;)"), lc("SP(2; 2<1)")))
        == "SP(4; 2<4, 4<3)"
    )
    assert (
        format_lincomb(sp_nwarrow(lc("SP(2; 1<2)"), lc("SP(2;)")))
        == "SP(4; 1<2, 2<3, 2<4)"
    )
    assert (
        format_lincomb(sp_nwarrow(lc("SP(2; 2<1)"), lc("SP(2;)")))
        == "SP(4; 2<1, 2<3, 2<4)"
    )


def test_sp_nwarrow_is_bilinear():
    x = lc("SP(1;) - 2*SP(2; 1<2)")
    y = lc("SP(1;)")
    expected = sp_nwarrow(lc("SP(1;)"), y) - sp_nwarrow(lc("SP(2; 1<2)"), y) * 2
    assert sp_nwarrow(x, y) == expected


def test_sp_nwarrow_rejects_degree_zero_terms():
    with pytest.raises(ValueError, match="degree-0 term present"):
        sp_nwarrow(lc("SP(0;)"), lc("SP(1;)"))
    with pytest.raises(ValueError, match="degree-0 term present"):
        sp_nwarrow(lc("SP(1;)"), lc("SP(1;) + SP(0;)"))


# -- split coproducts --------------------------------------------------------------


def test_sp_split_anchors_at_greatest_label():
    prec, succ = sp_dendriform_coproducts(lc("SP(2; 1<2)"))
    assert prec == LinComb()
    assert format_lincomb(succ) == "SP(1;) (x) SP(1;)"
    prec, succ = sp_dendriform_coproducts(lc("SP(3; 1<3, 2<3)"))
    assert prec == LinComb()
    assert format_lincomb(succ) == "2*SP(1;) (x) SP(2; 1<2) + SP(2;) (x) SP(1;)"


def test_spp_split_anchors_at_least_label():
    prec, succ = spp_dendriform_coproducts(lc("SP(2; 1<2)"))
    assert format_lincomb(prec) == "SP(1;) (x) SP(1;)"
    assert succ == LinComb()
    prec, succ = spp_dendriform_coproducts(lc("SP(3; 1<2, 1<3)"))
    assert format_lincomb(prec) == "SP(1;) (x) SP(2;) + 2*SP(2; 1<2) (x) SP(1;)"
    assert succ == LinComb()


def test_splits_sum_to_reduced_coproduct():
    for n in range(1, 5):
        for P in enumerate_family("sp", n):
            x = LinComb(((P, 1),))
            prec, succ = sp_dendriform_coproducts(x)
            assert prec + succ == reduced_coproduct(x)
        for P in enumerate_family("spp", n):
            x = LinComb(((P, 1),))
            prec, succ = spp_dendriform_coproducts(x)
            assert prec + succ == reduced_coproduct(x)


def _split_by_ideals(P, pivot):
    """Reference: the full coproduct and the split one, by up-sets of P."""
    labels = frozenset(range(1, P.n + 1))
    full, halves = [], ([], [])
    for ideal in ideals(P):
        T = Tensor(restrict(P, labels - ideal), restrict(P, ideal))
        full.append((T, 1))
        if 0 < len(ideal) < P.n:
            halves[pivot in ideal].append((T, 1))
    return LinComb(full), LinComb(halves[0]), LinComb(halves[1])


def test_splits_match_the_ideal_loop():
    cases = [("sp", n, sp_dendriform_coproducts, n) for n in range(1, 5)]
    cases += [("spp", n, spp_dendriform_coproducts, 1) for n in range(1, 6)]
    for family, n, split, pivot in cases:
        for P in enumerate_family(family, n):
            full, prec, succ = _split_by_ideals(P, pivot)
            assert coproduct(P) == full, P
            assert split(LinComb.basis(P)) == (prec, succ), (family, P)


def test_sp_split_rejects_non_special():
    with pytest.raises(ValueError, match="not a special poset"):
        sp_dendriform_coproducts(lc("PP(2; h: 1<2; r:)"))


def test_spp_split_rejects_plain_special():
    with pytest.raises(ValueError, match="not a special plane poset"):
        spp_dendriform_coproducts(lc("SP(3; 1<3, 3<2)"))


@pytest.mark.parametrize("degree", [0, -2])
def test_check_axioms_rejects_a_degree_below_one(degree):
    with pytest.raises(ValueError, match="max_degree must be positive"):
        check_axioms("duplicial", degree)


def test_split_rejects_degree_zero_terms():
    with pytest.raises(ValueError, match="degree-0 term present"):
        sp_dendriform_coproducts(lc("SP(0;)"))


# -- half-products on special plane forests ----------------------------------------


def test_spf_prec_frozen_value():
    out = spf_prec(lc("SP(2;)"), lc("SP(1;)"))
    assert (
        format_lincomb(out) == "SP(3; 1<2, 1<3) - SP(3; 1<2, 2<3) + SP(3; 2<3)"
    )


def test_spf_succ_complements_prec():
    for n in range(1, 4):
        for m in range(1, 5 - n):
            for F in enumerate_family("spf", n):
                for G in enumerate_family("spf", m):
                    x = LinComb(((F, 1),))
                    y = LinComb(((G, 1),))
                    assert spf_prec(x, y) + spf_succ(x, y) == lc_product(x, y)


def test_spf_prec_single_tree_grafts_under_the_root():
    # B+(F) prec G = B+(F G): the right factor moves under the root.
    out = spf_prec(lc("SP(2; 1<2)"), lc("SP(1;)"))
    assert format_lincomb(out) == "SP(3; 1<2, 1<3)"


def test_spf_half_products_reject_non_forests():
    with pytest.raises(ValueError, match="not a special plane forest"):
        spf_prec(lc("SP(3; 1<3, 2<3)"), lc("SP(1;)"))
    with pytest.raises(ValueError, match="not a special plane forest"):
        spf_succ(lc("SP(1;)"), lc("SP(3; 1<3, 2<3)"))


def test_spf_half_products_reject_degree_zero_terms():
    with pytest.raises(ValueError, match="degree-0 term present"):
        spf_prec(lc("SP(0;)"), lc("SP(1;)"))


# -- totally primitive elements ----------------------------------------------------


def test_prim_tot_dimensions():
    assert [len(prim_tot_basis(n)) for n in range(1, 5)] == [1, 0, 0, 0]


def test_prim_tot_degree_one_is_the_point():
    (v,) = prim_tot_basis(1)
    assert format_lincomb(v) == "SP(1;)"


# -- axiom suites ------------------------------------------------------------------


def test_suite_names_are_stable():
    assert AXIOM_SUITES == (
        "duplicial",
        "dendriform-coalgebra",
        "dupdend-compat",
        "codendriform",
        "dendriform-hopf",
        "bidendriform",
        "lemma36-adjunction",
        "theta-dupdend",
    )


@pytest.mark.parametrize("suite", AXIOM_SUITES)
def test_suites_pass_through_degree_three(suite):
    report = check_axioms(suite, max_degree=3)
    assert report["suite"] == suite
    assert report["degree"] == 3
    assert report["tuples_checked"] > 0
    assert report["violations"] == []


def test_check_axioms_rejects_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite id"):
        check_axioms("nope")


def test_report_shape():
    report = check_axioms("duplicial", max_degree=2)
    assert set(report) == {"suite", "degree", "tuples_checked", "violations"}


@pytest.mark.parametrize(
    "suite, tuples",
    [("duplicial", 282), ("codendriform", 186), ("dendriform-hopf", 134)],
)
def test_suites_pass_at_degree_five(suite, tuples):
    report = check_axioms(suite, max_degree=5)
    assert report["tuples_checked"] == tuples
    assert report["violations"] == []
