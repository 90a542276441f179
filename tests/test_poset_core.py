"""Construction, literals, families, and structural maps of double posets."""

import itertools
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ideals_by_subsets, restrict_by_labels
from dposet import cli, poset_core
from dposet.algebra import LinComb
from dposet.fqsym import Permutation
from dposet.morphisms import phi
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
    is_plane_wn,
    is_special,
    is_special_plane,
    is_special_wn,
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


def _closure_masks(n, pairs):
    """Up masks of the transitive closure of ``pairs``, or None on a cycle."""
    less = [[False] * n for _ in range(n)]
    for a, b in pairs:
        less[a][b] = True
    for k in range(n):
        for i in range(n):
            if less[i][k]:
                for j in range(n):
                    less[i][j] |= less[k][j]
    if any(less[v][v] for v in range(n)):
        return None
    return tuple(sum(1 << w for w in range(n) if less[v][w]) for v in range(n))


def test_order_masks_are_the_closures_of_every_acyclic_relation():
    for n in range(5):
        arcs = [(a, b) for a in range(n) for b in range(n) if a != b]
        closures, increasing = set(), set()
        for k in range(len(arcs) + 1):
            for pairs in itertools.combinations(arcs, k):
                up = _closure_masks(n, pairs)
                if up is not None:
                    closures.add(up)
                    if all(a < b for a, b in pairs):
                        increasing.add(up)
        for heap, want in ((False, closures), (True, increasing)):
            masks = poset_core._sp_masks(n, heap)
            assert len(set(masks)) == len(masks) and set(masks) == want, (n, heap)


def _reference_pairs(P, order):
    """Every ``(a, b)`` with ``a < b`` in the order, by label tests."""
    labels = range(1, P.n + 1)
    return sorted((a, b) for a in labels for b in labels if P.less(a, b, order))


def _reference_covers(P, order):
    """The pairs with nothing strictly between them."""
    return [
        (a, b)
        for a, b in _reference_pairs(P, order)
        if not any(P.less(a, c, order) and P.less(c, b, order) for c in range(1, P.n + 1))
    ]


def _posets_for_the_mask_walks():
    for family in ("sp", "spp", "pp", "pf", "wnp"):
        for n in range(5):
            yield from enumerate_family(family, n)
    yield from enumerate_family("sp", 5)
    yield from enumerate_family("dp", 3)


def test_cover_and_pair_walks_match_the_label_tests():
    """``covers``, ``pairs`` and ``sort_key`` read the masks in order; each
    is checked against its definition on every poset of sp/spp/pp/pf/wnp
    through degree 4, of sp 5 and of dp 3."""
    posets = set(_posets_for_the_mask_walks())
    assert len(posets) == 4_840
    for P in posets:
        pairs1, pairs2 = _reference_pairs(P, 1), _reference_pairs(P, 2)
        assert P.pairs(1) == pairs1 and P.pairs(2) == pairs2, P
        assert P.covers(1) == _reference_covers(P, 1), P
        assert P.covers(2) == _reference_covers(P, 2), P
        code = [x for pair in pairs1 for x in pair] + [0] + [x for pair in pairs2 for x in pair] + [0]
        assert P.sort_key() == (P.n, bytes(code)), P
    by_key = sorted(posets, key=DoublePoset.sort_key)
    assert by_key == sorted(posets, key=lambda P: (P.n, _reference_pairs(P, 1), _reference_pairs(P, 2)))


# Degree-6 sizes of the heap-ordered families: heap orders (OEIS A006455),
# n! heap-ordered forests and special plane posets, large Schroeder numbers
# without N, Catalan numbers of plane forests.
DEGREE_SIX_COUNTS = {
    "hop": 4824,
    "hof": 720,
    "spp": 720,
    "pp": 720,
    "swnp": 394,
    "wnp": 394,
    "spf": 132,
    "pf": 132,
}


def test_heap_family_counts_at_degree_six():
    for family, count in DEGREE_SIX_COUNTS.items():
        assert len(enumerate_family(family, 6)) == count, family


def test_heap_masks_are_the_heap_filter_of_all_masks():
    for n in range(6):
        heap = [
            up
            for up in poset_core._sp_masks(n)
            if all(up[v] & ((1 << (v + 1)) - 1) == 0 for v in range(n))
        ]
        assert list(poset_core._sp_masks(n, True)) == heap, n


PLANE_FAMILIES = {Family.PP: Family.SPP, Family.WNP: Family.SWNP, Family.PF: Family.SPF}


def test_families_are_classify_filters_of_special_posets():
    for n in range(6):
        special = enumerate_family("sp", n)
        tags = [classify(P) for P in special]
        for family in (Family.HOP, Family.OF, Family.HOF, Family.SPP, Family.SWNP, Family.SPF):
            members = [P for P, t in zip(special, tags) if family in t]
            assert enumerate_family(family, n) == members, (family, n)
        for family, incarnation in PLANE_FAMILIES.items():
            members = [plane_version(P) for P, t in zip(special, tags) if incarnation in t]
            assert enumerate_family(family, n) == members, (family, n)
            assert all(family in classify(Q) for Q in members), (family, n)


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


def _small_posets():
    return enumerate_family("dp", 3) + enumerate_family("sp", 5)


def _large_posets():
    """Degree-7 and degree-8 double posets past the default degree cap: a
    chain under the natural order, an antichain, and two seeded random ones."""
    rng = random.Random(7)
    posets = [DoublePoset(8, [(v, v + 1) for v in range(1, 8)], [(v, v + 1) for v in range(1, 8)])]
    posets.append(DoublePoset(7))
    for n in (7, 8):
        below = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        perm = rng.sample(range(1, n + 1), n)
        pairs1 = [(perm[a - 1], perm[b - 1]) for a, b in below if rng.random() < 0.3]
        pairs2 = [(a, b) for a, b in below if rng.random() < 0.3]
        posets.append(DoublePoset(n, pairs1, pairs2))
    return posets


def test_mask_restrict_matches_the_label_dict_restrict():
    for P in _small_posets() + _large_posets():
        for keep in range(1 << P.n):
            labels = [v + 1 for v in range(P.n) if (keep >> v) & 1]
            got, want = restrict(P, labels), restrict_by_labels(P, labels)
            assert got == want and type(got) is type(want), (P, labels)


def test_mask_restrict_of_special_posets_matches_both_projected_orders():
    # a special poset packs only its first order; the reference packs both
    posets = [P for fam in ("sp", "spp", "pp") for n in range(5) for P in enumerate_family(fam, n)]
    for P in posets + enumerate_family("dp", 3):
        for keep in range(1 << P.n):
            got = poset_core._restrict(P, keep)
            want = restrict_by_labels(P, [v + 1 for v in range(P.n) if (keep >> v) & 1])
            assert got == want, (P, keep)
            natural = got.up2 == SpecialPoset(got.n).up2
            assert (type(got) is SpecialPoset) == natural, (P, keep)


def test_restrict_to_high_labels_costs_no_more_than_the_kept_vertices():
    # Labels past the degree cap are legal; a per-label table would need 2^64 slots here.
    n = 64
    chain = DoublePoset(n, [(a, a + 1) for a in range(1, n)], [(a, a + 1) for a in range(1, n)])
    four = DoublePoset(4, [(1, 2), (2, 3), (3, 4)], [(1, 2), (2, 3), (3, 4)])
    assert restrict(chain, range(n - 3, n + 1)) == four
    assert restrict(chain, [1, n]) == DoublePoset(2, [(1, 2)], [(1, 2)])


def test_the_cuts_of_a_long_chain_cost_what_they_output(capsys):
    # n + 1 top segments; a table over all label subsets would need 2^64 slots
    n = 64
    chain = SpecialPoset(n, [(a, a + 1) for a in range(1, n)])
    full = (1 << n) - 1
    assert poset_core._up_sets(chain) == [full ^ ((1 << k) - 1) for k in range(n, -1, -1)]
    assert ideals(chain) == [frozenset(range(k, n + 1)) for k in range(n + 1, 0, -1)]
    literal = chain.literal()
    assert cli.run(["op", "coproduct", literal]) == 0
    assert capsys.readouterr().out.count(" (x) ") == n + 1
    assert cli.run(["op", "delta-prec", literal]) == 0
    assert capsys.readouterr().out == "0\n"


def test_mask_ideals_match_the_subset_filter():
    for P in _small_posets() + _large_posets():
        assert ideals(P) == ideals_by_subsets(P), P


def test_up_sets_sort_like_the_label_list_key():
    # the antichain has every mask as an up-set; the key is the old label-list one
    def label_key(S):
        return S.bit_count(), [v for v in range(S.bit_length()) if (S >> v) & 1]

    for n in range(8):
        antichain = SpecialPoset(n, ())
        assert poset_core._up_sets(antichain) == sorted(range(1 << n), key=label_key), n


def test_down_masks_are_made_on_first_use():
    for P in _small_posets():
        assert P._down1 is None and P._down2 is None
        assert P.down1 == poset_core._downs(P.n, P.up1)
        assert P.down2 == poset_core._downs(P.n, P.up2)
        for v in range(P.n):
            assert P.down1[v] == sum(1 << u for u in range(P.n) if P.less(u + 1, v + 1))
            assert P.down2[v] == sum(1 << u for u in range(P.n) if P.less(u + 1, v + 1, 2))


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


# -- the table of derived special posets ----------------------------------------


def test_equal_derived_posets_are_one_object():
    P = sp(4, (1, 3), (2, 3), (3, 4))
    assert restrict(P, {2, 3, 4}) is poset_core._restrict(P, 0b1110)
    assert compose(sp(1), sp(2, (1, 2))) is compose(sp(1), sp(2, (1, 2)))
    # the kernels share one table: the graft and the product meet in SP(3; 2<3)
    assert nwarrow(sp(2), sp(1)) is compose(sp(1), sp(2, (1, 2)))
    assert b_plus(sp(1)) is restrict(sp(3, (1, 2), (1, 3)), {1, 2})


def test_a_rebuilt_poset_equals_the_evicted_one():
    P = sp(5, (1, 3), (2, 3), (3, 5), (4, 5))
    cuts = poset_core._up_sets(P)
    old = [poset_core._restrict(P, S) for S in cuts]
    poset_core._special_poset.cache_clear()
    new = [poset_core._restrict(P, S) for S in cuts]
    assert old == new and [hash(Q) for Q in old] == [hash(Q) for Q in new]
    assert all(a is not b for a, b in zip(old, new))
    weights = [(Q, i) for i, Q in enumerate(old)]
    assert LinComb(weights) == LinComb((Q, i) for i, Q in enumerate(new))
    assert LinComb(weights) == LinComb((SpecialPoset(Q.n, Q.pairs()), i) for Q, i in weights)


def _compose_by_pairs(P, Q):
    n = P.n
    return SpecialPoset(n + Q.n, P.pairs() + [(a + n, b + n) for a, b in Q.pairs()])


def _nwarrow_by_pairs(P, Q):
    n = P.n
    grafted = [(a, n + b) for a in range(1, n + 1) if a == n or P.less(a, n) for b in range(1, Q.n + 1)]
    return SpecialPoset(n + Q.n, _compose_by_pairs(P, Q).pairs() + grafted)


def _b_plus_by_pairs(F):
    return SpecialPoset(F.n + 1, [(1, v) for v in range(2, F.n + 2)] + [(a + 1, b + 1) for a, b in F.pairs()])


def _assert_live(P, want):
    assert P == want and type(P) is SpecialPoset, (P, want)
    assert P is poset_core._special_poset(want.up1)


def test_table_kernels_match_the_pair_list_constructions():
    # sp posets through degree 4 whose product stays within the degree cap,
    # spf forests through degree 5 in total
    specials = [P for n in range(5) for P in enumerate_family("sp", n)]
    forests = {n: enumerate_family("spf", n) for n in range(6)}
    pairs = [(P, Q) for P in specials for Q in specials if P.n + Q.n <= 6]
    pairs += [(F, G) for a in range(6) for b in range(6 - a) for F in forests[a] for G in forests[b]]
    for P, Q in pairs:
        _assert_live(compose(P, Q), _compose_by_pairs(P, Q))
        if P.n and Q.n:
            _assert_live(nwarrow(P, Q), _nwarrow_by_pairs(P, Q))
    for n in range(6):
        for F in forests[n]:
            _assert_live(b_plus(F), _b_plus_by_pairs(F))


# The two N-shaped plane posets, relabelled along their induced total order.
N_PATTERNS = [
    DoublePoset(4, [(1, 2), (1, 4), (3, 4)], [(1, 3), (2, 3), (2, 4)]),
    DoublePoset(4, [(1, 3), (2, 3), (2, 4)], [(1, 2), (1, 4), (3, 4)]),
]


def definitional_plane_wn(P):
    """Plane, and no four labels, restricted and relabelled along their
    induced total order, give either N pattern."""
    if not is_plane(P):
        return False
    for sub in itertools.combinations(range(1, P.n + 1), 4):
        Q = restrict(P, sub)
        if poset_core._relabel(Q, poset_core.induced_order_ranks(Q)) in N_PATTERNS:
            return False
    return True


def test_wn_predicates_match_the_four_subset_walk():
    rng = random.Random(22)
    for n in range(7):
        for P in enumerate_family("pp", n):
            order = list(range(n))
            rng.shuffle(order)
            Q = poset_core._relabel(P, order)
            assert is_plane_wn(Q) == definitional_plane_wn(Q), Q
        for P in enumerate_family("spp", n):
            assert is_special_wn(P) == definitional_plane_wn(plane_version(P)), P
    for P in enumerate_family("dp", 3):
        assert is_plane_wn(P) == definitional_plane_wn(P), P
    for P in enumerate_family("sp", 4):
        if not is_special_plane(P):
            assert not is_special_wn(P), P


def test_classify_restricts_and_relabels_nothing(monkeypatch, capsys):
    def walked(*args):
        raise AssertionError("classify walked the 4-subsets")

    monkeypatch.setattr(poset_core, "restrict", walked)
    monkeypatch.setattr(poset_core, "_relabel", walked)
    proper = set(Family) - {Family.DP}
    assert classify(SpecialPoset(60)) == proper
    assert classify(phi(Permutation([2, 4, 1, 3, *range(5, 61)]))) == {Family.PP}
    assert classify(phi(Permutation(range(1, 61)))) == {Family.PP, Family.PF, Family.WNP}
    assert cli.run(["classify", "SP(300;)", "--format", "json"]) == 0
    assert set(json.loads(capsys.readouterr().out)["families"]) == {f.value for f in proper}


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
