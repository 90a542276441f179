"""Construction, literals, families, and structural maps of double posets."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dposet import poset_core
from dposet.poset_core import (
    DoublePoset,
    Family,
    SpecialPoset,
    b_plus,
    canonical_form,
    classify,
    compose,
    empty_poset,
    enumerate_family,
    format_poset,
    ideals,
    iota,
    is_heap_forest,
    is_heap_ordered,
    is_ordered_forest,
    is_plane,
    is_special,
    is_special_plane,
    kappa,
    nwarrow,
    parse_poset,
    plane_version,
    restrict,
    reverse_rel2,
)

# Family sizes computed by a brute-force oracle (all relation sets filtered by
# the defining predicates) before the enumerator existed, then frozen here.
FROZEN_COUNTS = {
    ("sp", 1): 1,
    ("sp", 2): 3,
    ("sp", 3): 19,
    ("sp", 4): 219,
    ("spp", 3): 6,
    ("spp", 4): 24,
    ("hop", 3): 7,
    ("hof", 3): 6,
    ("hof", 4): 24,
    ("of", 3): 16,
    ("swnp", 4): 22,
    ("pp", 3): 6,
    ("pp", 4): 24,
    ("spf", 3): 5,
    ("spf", 4): 14,
    ("pf", 4): 14,
    ("wnp", 4): 22,
    ("dp", 2): 9,
}


def sp(n, *pairs):
    return SpecialPoset(n, pairs)


def test_transitive_closure_is_recomputed_on_construction():
    P = sp(3, (1, 2), (2, 3))
    assert P.less(1, 3)
    assert set(P.pairs()) == {(1, 2), (1, 3), (2, 3)}
    assert set(P.covers()) == {(1, 2), (2, 3)}


def test_cycle_is_rejected():
    with pytest.raises(ValueError):
        sp(2, (1, 2), (2, 1))


def test_literals_print_cover_pairs_only():
    assert format_poset(sp(3, (1, 2), (2, 3))) == "SP(3; 1<2, 2<3)"
    assert format_poset(sp(2)) == "SP(2;)"
    assert format_poset(empty_poset()) == "SP(0;)"


def test_parse_rejects_bad_labels_and_unbalanced_text():
    with pytest.raises(ValueError):
        parse_poset("SP(2; 1<3)")
    with pytest.raises(ValueError):
        parse_poset("SP(2; 1<2")


def test_special_format_takes_priority_over_plane():
    # the plane antichain and the special antichain are the same double poset
    both = DoublePoset(2, (), ((1, 2),))
    assert format_poset(both) == "SP(2;)"
    assert parse_poset("SP(2;)") == both


def test_plane_literal_round_trip():
    lit = "PP(3; h: 1<2, 1<3; r: 2<3)"
    assert format_poset(parse_poset(lit)) == lit


def test_equality_ignores_pair_presentation():
    assert sp(3, (1, 2), (2, 3)) == sp(3, (1, 2), (2, 3), (1, 3))


def test_family_predicates_on_small_posets():
    chain = sp(3, (1, 2), (2, 3))
    assert is_special(chain) and is_heap_ordered(chain)
    assert is_special_plane(chain) and is_heap_forest(chain)
    bad = sp(2, (2, 1))
    assert is_special(bad) and not is_heap_ordered(bad)
    # the N-pattern poset is plane but not without-N
    vee_plus = sp(4, (1, 3), (2, 3), (2, 4))
    assert is_special_plane(vee_plus)
    assert Family.SWNP not in classify(vee_plus)


def test_enumerate_family_counts():
    for (family, n), count in FROZEN_COUNTS.items():
        assert len(enumerate_family(family, n)) == count, (family, n)


def test_enumerate_family_is_sorted_and_canonical():
    for family in ("sp", "spp", "pp", "hof"):
        elems = enumerate_family(family, 3)
        assert elems == sorted(elems, key=DoublePoset.sort_key)
        assert len(set(elems)) == len(elems)


def test_order_masks_sort_like_their_pair_lists():
    for n in range(6):
        masks = poset_core._sp_masks(n)
        pairs = [[(v + 1, w + 1) for v in range(n) for w in range(n) if up[v] >> w & 1] for up in masks]
        assert pairs == sorted(pairs)


def test_enumerate_degree_cap():
    with pytest.raises(ValueError):
        enumerate_family("dp", 5)


def test_compose_shifts_second_factor():
    P = compose(sp(1), sp(2, (1, 2)))
    assert P == sp(3, (2, 3))
    # composition puts the first factor below the second in the total order
    assert P.less(1, 2, order=2) and P.less(1, 3, order=2)


def test_ideals_are_up_sets_of_first_order():
    P = sp(3, (1, 2), (1, 3))
    assert ideals(P) == [
        frozenset(),
        frozenset({2}),
        frozenset({3}),
        frozenset({2, 3}),
        frozenset({1, 2, 3}),
    ]


def test_restrict_relabels_increasingly():
    P = sp(4, (1, 3), (2, 3), (3, 4))
    assert restrict(P, {2, 3, 4}) == sp(3, (1, 2), (2, 3))
    with pytest.raises(ValueError):
        restrict(P, {5})


def test_iota_swaps_orders_and_reverse_rel2_is_involutive():
    P = parse_poset("PP(2; h: 1<2; r:)")
    assert iota(P) == parse_poset("PP(2; h:; r: 1<2)")
    assert reverse_rel2(reverse_rel2(P)) == P


def test_plane_version_and_canonical_form():
    chain = sp(3, (1, 2), (2, 3))
    Q = plane_version(chain)
    assert is_plane(Q) and Q.pairs(order=1) == chain.pairs(order=1)
    with pytest.raises(ValueError):
        plane_version(sp(2, (2, 1)))
    # canonical_form relabels a plane poset along its induced total order
    scrambled = DoublePoset(2, ((2, 1),), ())
    assert canonical_form(scrambled) == DoublePoset(2, ((1, 2),), ())


def test_kappa_names_the_peelable_vertex():
    with pytest.raises(ValueError):
        kappa(empty_poset())
    with pytest.raises(ValueError):
        kappa(sp(2, (2, 1)))
    # peelable = largest induced-order vertex all of whose induced lower
    # bounds are first-order lower bounds; in the grafted tree with r: 2<3
    # vertex 3 is blocked by 2, so 2 is peeled
    assert kappa(plane_version(sp(3, (1, 2), (1, 3)))) == 2
    assert kappa(plane_version(sp(3, (1, 2), (2, 3)))) == 3
    assert kappa(plane_version(sp(1))) == 1


def test_nwarrow_grafts_onto_last_vertex():
    assert nwarrow(sp(2), sp(1)) == sp(3, (2, 3))
    with pytest.raises(ValueError):
        nwarrow(sp(1), empty_poset())
    with pytest.raises(ValueError):
        nwarrow(parse_poset("PP(1;)"), sp(1))


def test_b_plus_adds_a_root_below_a_plane_forest():
    point = sp(1)
    tree = b_plus(point)
    assert tree == sp(2, (1, 2))
    assert b_plus(compose(point, point)) == sp(3, (1, 2), (1, 3))
    with pytest.raises(ValueError):
        b_plus(sp(3, (1, 3), (2, 3)))


def test_classify_nests_families():
    tags = classify(sp(3, (1, 2), (1, 3)))
    assert {Family.SP, Family.HOP, Family.OF, Family.HOF, Family.SPP, Family.SPF} <= tags
    assert Family.PP not in tags


@given(st.sampled_from(enumerate_family("sp", 3) + enumerate_family("pp", 3)))
def test_literal_round_trip(P):
    assert parse_poset(format_poset(P)) == P


@given(st.sampled_from(enumerate_family("sp", 4)))
def test_ideals_are_closed_upward(P):
    for ideal in ideals(P):
        for x in ideal:
            for y in range(1, 5):
                if P.less(x, y):
                    assert y in ideal


@given(st.sampled_from(enumerate_family("spp", 4)))
def test_plane_and_special_versions_are_inverse(P):
    Q = plane_version(P)
    assert is_plane(Q)
    tags = classify(Q)
    assert Family.PP in tags


def _special_plane_by_pattern(P):
    """Forbidden-configuration route: heap-ordered with no labels i<j<k where
    i is below k in the first order while both (i,j) and (j,k) are
    incomparable."""
    if not is_heap_ordered(P):
        return False
    comp = [P.up1[v] | P.down1[v] for v in range(P.n)]
    for i in range(P.n):
        for k in range(i + 1, P.n):
            if (P.up1[i] >> k) & 1 and any(
                not ((comp[i] >> j) & 1) and not ((comp[j] >> k) & 1)
                for j in range(i + 1, k)
            ):
                return False
    return True


def test_special_plane_routes_agree_through_degree_five():
    for n in range(6):
        for P in enumerate_family("sp", n):
            assert is_special_plane(P) == _special_plane_by_pattern(P), P
