"""Tests for the northwest-graft product, the split coproducts, the
half-products on special plane forests, and the axiom suites."""

import hashlib
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest

from dposet import dupdend
from dposet.cli import run
from dposet.algebra import (
    LinComb,
    _half_coproducts,
    format_lincomb,
    lc_product,
    pairing,
    parse_lincomb,
    reduced_coproduct,
    tensor_of,
)
from dposet.dupdend import (
    AXIOM_SUITES,
    _span,
    _times,
    check_axioms,
    prim_tot_basis,
    sp_dendriform_coproducts,
    sp_nwarrow,
    spf_prec,
    spf_succ,
    spp_dendriform_coproducts,
)
from dposet.algebra import Tensor, coproduct
from dposet.fqsym import fq_nwarrow
from dposet.morphisms import theta
from dposet.poset_core import (
    SpecialPoset,
    b_plus,
    compose,
    enumerate_family,
    ideals,
    nwarrow,
    parse_poset,
    restrict,
)


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


def _first_tree_by_search(F):
    """Reference: the labels reachable from label 1 along the first order,
    up and down, as a bitmask."""
    reach = 1
    while True:
        grown = reach
        for v in range(F.n):
            if (reach >> v) & 1:
                grown |= F.up1[v] | F.down1[v]
        if grown == reach:
            return reach
        reach = grown


def test_first_tree_is_label_one_and_its_descendants_through_degree_six():
    forests = [F for n in range(1, 7) for F in enumerate_family("spf", n)]
    assert len(forests) == 196
    for F in forests:
        k = (F.up1[0] | 1).bit_length()
        assert _first_tree_by_search(F) == (1 << k) - 1, F.literal()


def _prec_by_search(F, G):
    """Reference ``F prec G``: split off the first tree found by search;
    ``B+(F) prec G = B+(F G)`` and ``(t F) prec G = t prec (F G) + t succ
    (F prec G)``, with ``t succ Z = t Z - t prec Z``."""
    k = _first_tree_by_search(F).bit_length()
    if k == F.n:
        return LinComb.basis(b_plus(compose(restrict(F, range(2, F.n + 1)), G)))
    first = restrict(F, range(1, k + 1))
    rest = restrict(F, range(k + 1, F.n + 1))
    parts = [_prec_by_search(first, compose(rest, G))]
    for Z, c in _prec_by_search(rest, G).items():
        parts.append(LinComb.basis(compose(first, Z), c))
        parts.append(_prec_by_search(first, Z) * -c)
    return LinComb.sum(parts)


def test_spf_prec_matches_the_search_split_through_degree_six():
    forests = {n: enumerate_family("spf", n) for n in range(1, 6)}
    for a in range(1, 6):
        for b in range(1, 7 - a):
            for F in forests[a]:
                for G in forests[b]:
                    assert spf_prec(F, G) == _prec_by_search(F, G), (F.literal(), G.literal())


def test_spf_half_products_reject_non_forests():
    with pytest.raises(ValueError, match="not a special plane forest"):
        spf_prec(lc("SP(3; 1<3, 2<3)"), lc("SP(1;)"))
    with pytest.raises(ValueError, match="not a special plane forest"):
        spf_succ(lc("SP(1;)"), lc("SP(3; 1<3, 2<3)"))


def test_spf_half_products_reject_degree_zero_terms():
    with pytest.raises(ValueError, match="degree-0 term present"):
        spf_prec(lc("SP(0;)"), lc("SP(1;)"))
    # the augmentation ideal is checked before any term is tested as a forest
    for mixed in ("SP(0;) + SP(3; 1<3, 2<3)", "SP(3; 1<3, 2<3) + SP(0;)"):
        for half in (spf_prec, spf_succ):
            with pytest.raises(ValueError, match="^degree-0 term present$"):
                half(lc(mixed), lc("SP(1;)"))
            with pytest.raises(ValueError, match="^degree-0 term present$"):
                half(lc("SP(1;)"), lc(mixed))


def test_spf_half_products_check_each_basis_key_once(monkeypatch):
    checked = []
    test = dupdend.is_special_plane_forest
    monkeypatch.setattr(dupdend, "is_special_plane_forest", lambda P: checked.append(P) or test(P))
    dupdend._forest_key.cache_clear()
    keys = [F for n in range(1, 4) for F in enumerate_family("spf", n)]
    products = [(spf_prec(F, G), spf_succ(F, G)) for _ in range(2) for F in keys for G in keys]
    assert sorted(checked, key=lambda P: P.sort_key()) == sorted(keys, key=lambda P: P.sort_key())
    # a bare key gives what its one-term combination gives
    expected = [
        (spf_prec(LinComb.basis(F), LinComb.basis(G)), spf_succ(LinComb.basis(F), LinComb.basis(G)))
        for F in keys
        for G in keys
    ]
    assert products == expected * 2


@pytest.mark.parametrize("half", [spf_prec, spf_succ])
def test_spf_half_products_reject_bare_keys_as_combinations(half):
    tree, point, empty = parse_poset("SP(3; 1<3, 2<3)"), parse_poset("SP(1;)"), parse_poset("SP(0;)")
    for _ in range(2):
        with pytest.raises(ValueError, match="^not a special plane forest$"):
            half(point, tree)
        with pytest.raises(ValueError, match="^not a special plane forest$"):
            half(tree, point)
        with pytest.raises(ValueError, match="^degree-0 term present$"):
            half(empty, point)
        with pytest.raises(ValueError, match="^degree-0 term present$"):
            half(point, empty)


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
    [
        ("duplicial", 282),
        ("codendriform", 186),
        ("dendriform-hopf", 134),
        ("dupdend-compat", 2424),
        ("lemma36-adjunction", 4468),
        ("bidendriform", 268),
    ],
)
def test_suites_pass_at_degree_five(suite, tuples):
    report = check_axioms(suite, max_degree=5)
    assert report["tuples_checked"] == tuples
    assert report["violations"] == []


@pytest.mark.parametrize(
    "suite, tuples", [("dendriform-coalgebra", 825), ("theta-dupdend", 538)]
)
def test_suites_pass_at_degree_four(suite, tuples):
    report = check_axioms(suite, max_degree=4)
    assert report["tuples_checked"] == tuples
    assert report["violations"] == []


# -- planted faults: a wrong operation under test must show as violations ----------


def _swapped_nwarrow(x, y):
    return sp_nwarrow(y, x)


def _swapped_prec(x, y):
    return spf_prec(y, x)


def _split_losing_two_vertex_cuts(x, least=False):
    """The split with every prec cut whose left factor has two vertices dropped."""
    prec, succ = _half_coproducts(x, least)
    return LinComb((T, c) for T, c in prec.items() if T.factors[0].n != 2), succ


def _prec_leaving_spf(x, y):
    """``prec`` with the first order of every term reversed: each term but an
    antichain leaves the special plane forests."""
    return LinComb(
        (SpecialPoset(T.n, [(b, a) for a, b in T.pairs()]), c) for T, c in spf_prec(x, y).items()
    )


FAULTS = {
    "swapped-nwarrow": ("sp_nwarrow", _swapped_nwarrow),
    "swapped-prec": ("spf_prec", _swapped_prec),
    "lossy-split": ("_half_coproducts", _split_losing_two_vertex_cuts),
    "prec-leaving-spf": ("spf_prec", _prec_leaving_spf),
}


# (suite, fault) -> axioms that must report violations at degree 3
PLANTED = {
    ("dupdend-compat", "swapped-nwarrow"): {"nwarrow-succ"},
    ("dupdend-compat", "lossy-split"): {"product-prec", "nwarrow-prec"},
    ("codendriform", "lossy-split"): {"coproduct-prec-of-product"},
    ("dendriform-coalgebra", "lossy-split"): {
        "sp:coassociativity-prec",
        "sp:coassociativity-mixed",
        "spp:coassociativity-prec",
    },
    ("lemma36-adjunction", "swapped-prec"): {"prec-adjunction", "succ-adjunction"},
    ("lemma36-adjunction", "lossy-split"): {"prec-adjunction"},
    ("dendriform-hopf", "swapped-prec"): {"reduced-coproduct-of-prec"},
    ("bidendriform", "swapped-prec"): {"prec-of-prec", "succ-of-succ"},
    ("bidendriform", "lossy-split"): {"prec-of-prec", "prec-of-succ"},
    ("lemma36-adjunction", "prec-leaving-spf"): {"prec-adjunction", "succ-adjunction"},
    ("theta-dupdend", "swapped-nwarrow"): {"theta-nwarrow"},
    ("theta-dupdend", "lossy-split"): {"theta-coproduct-prec"},
    ("dendriform-hopf", "prec-leaving-spf"): {
        "reduced-coproduct-of-prec",
        "reduced-coproduct-of-succ",
    },
}


@pytest.mark.parametrize("suite, fault", list(PLANTED))
def test_a_planted_fault_is_reported(monkeypatch, suite, fault):
    monkeypatch.setattr(dupdend, *FAULTS[fault])
    report = check_axioms(suite, max_degree=3)
    assert PLANTED[suite, fault] <= {v["axiom"] for v in report["violations"]}


# (suite, fault) -> sha256 of `verify --suite SUITE --max-degree 3` in text,
# json and csv: a violation report shows tensor sides, three-slot sides and
# the zero combination, and scalar sides with the messages of terms outside spf
VIOLATION_REPORTS = {
    ("dupdend-compat", "swapped-nwarrow"): (
        "f08dd6f309571108b50d9f456c38cfe3a6a213cdb57e8db97eb44b910734b02e",
        "3a963a22ced27d1f122f9d12219dbe3b1463a961078a098076b2ce59ae81b9b3",
        "23091d20ba9f151210890b91aa3a4439a196ce43f128b24c345ebcc700a698b4",
    ),
    ("dendriform-coalgebra", "lossy-split"): (
        "4cc7fec7ca5343c5e827959ad1d8f829c454630e94d28d3902af683cfedba18a",
        "21d87d5a9c1c3b6ff47ec303f9c2c71a46fe418c95736385ba3c02cf2305041b",
        "7bc7ebc1bea3c908605f5b5055f8d1969f91ac19ca86537e3514d4e715fd418c",
    ),
    ("lemma36-adjunction", "prec-leaving-spf"): (
        "68b0814e1e212cd474df4ddf39a93a4e931d598e96daaeead604e8e7c8998f4a",
        "0b918eec26f77dceaf341d39aa97ff961788996508a6bcad9b4f03b38352adc5",
        "944e6a2451ddedacce544205068801dcaa52b8d9de25a1965c297367d28794ec",
    ),
}


@pytest.mark.parametrize("suite, fault", list(VIOLATION_REPORTS))
def test_a_planted_fault_prints_the_pinned_report(monkeypatch, capsys, suite, fault):
    monkeypatch.setattr(dupdend, *FAULTS[fault])
    for fmt, digest in zip(("text", "json", "csv"), VIOLATION_REPORTS[suite, fault]):
        assert run(["verify", "--suite", suite, "--max-degree", "3", "--format", fmt]) == 2
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


# suite, degree, the maps its run memos front
MEMOIZED = [
    ("theta-dupdend", 4, ("theta",)),
    ("dendriform-coalgebra", 4, ("sp_dendriform_coproducts", "spp_dendriform_coproducts")),
    ("dendriform-hopf", 5, ("spf_succ",)),
]


@pytest.mark.parametrize("suite, degree, names", MEMOIZED)
def test_a_run_applies_each_slot_map_once_per_key(monkeypatch, suite, degree, names):
    # the outputs are the same with or without the memos; only a count of the
    # calls on bare keys shows them, and their degrees that none is top-grade
    counts = {}
    for name in names:
        calls = counts[name] = Counter()

        def counted(*args, _map=getattr(dupdend, name), _calls=calls):
            if all(isinstance(a, SpecialPoset) for a in args):
                _calls[args] += 1
            return _map(*args)

        monkeypatch.setattr(dupdend, name, counted)
    assert check_axioms(suite, degree)["violations"] == []
    for name, calls in counts.items():
        assert calls, name
        assert set(calls.values()) == {1}, (name, sum(calls.values()), len(calls))
        assert max(sum(P.n for P in args) for args in calls) < degree, name


def test_a_term_outside_spf_is_reported_by_name(monkeypatch):
    # the lemma 3.6 table holds spf keys only; a term it lacks is a violation
    monkeypatch.setattr(dupdend, *FAULTS["prec-leaving-spf"])
    report = check_axioms("lemma36-adjunction", max_degree=3)
    assert "outside spf: SP(2; 2<1)" in {v["got"] for v in report["violations"]}


def test_lemma36_table_matches_pairing_through_degree_four():
    tuples = 0
    for (P, Q, R), cases in dupdend._check_lemma36(4):
        x, y, z = LinComb.basis(P), LinComb.basis(Q), LinComb.basis(R)
        pz, sz = spp_dendriform_coproducts(z)
        xy = tensor_of(P, Q)
        want = [
            ("prec-adjunction", pairing(spf_prec(x, y), z), pairing(xy, pz)),
            ("succ-adjunction", pairing(spf_succ(x, y), z), pairing(xy, sz)),
        ]
        assert list(cases) == want, (P, Q, R)
        tuples += 1
    assert tuples == check_axioms("lemma36-adjunction", 4)["tuples_checked"] // 2


def test_a_violation_reports_the_side_under_test_as_got(monkeypatch):
    monkeypatch.setattr(dupdend, *FAULTS["swapped-nwarrow"])
    report = check_axioms("theta-dupdend", max_degree=3)
    first = report["violations"][0]
    x, y = (parse_lincomb(e) for e in first["elements"])
    assert first == {
        "axiom": "theta-nwarrow",
        "elements": first["elements"],
        "expected": format_lincomb(fq_nwarrow(theta(x), theta(y))),
        "got": format_lincomb(theta(sp_nwarrow(y, x))),
    }


# -- tensor assembly ---------------------------------------------------------------


def _span_by_tensor_of(tens, left, right):
    """Reference: each term's tensor built by ``tensor_of``."""
    return LinComb(
        (K, c * d)
        for T, c in tens.items()
        for K, d in tensor_of(left(T.factors[0]), right(T.factors[1])).items()
    )


def _mix_by_tensor_of(tx, ty, left, right):
    """Reference: each pair of terms' tensor built by ``tensor_of``."""
    return LinComb(
        (K, c * d * e)
        for Tx, c in tx.items()
        for Ty, d in ty.items()
        for K, e in tensor_of(
            left(Tx.factors[0], Ty.factors[0]), right(Tx.factors[1], Ty.factors[1])
        ).items()
    )


def test_span_and_mix_match_the_tensor_of_route():
    Q = enumerate_family("sp", 2)[1]
    unary = [
        lambda a: a,
        lambda a: compose(Q, a),
        lambda a: nwarrow(a, Q),
        lambda a: sp_nwarrow(a, Q),
        lambda a: LinComb.basis(a, 2) - LinComb.basis(compose(a, a), Fraction(1, 3)),
        lambda a: LinComb.basis(a) - LinComb.basis(a),
    ]
    binary = [
        lambda a, u: compose(a, u),
        lambda a, u: sp_nwarrow(a, u) - LinComb.basis(compose(u, a), 3),
    ]
    basis = enumerate_family("sp", 3) + enumerate_family("sp", 4)[::5]
    x = LinComb((P, k - 2) for k, P in enumerate(basis))
    tx = reduced_coproduct(x)
    ty = sp_dendriform_coproducts(x)[1]
    assert tx and ty
    for left in unary:
        for right in unary:
            assert _span(tx, left, right) == _span_by_tensor_of(tx, left, right)
    for left in binary:
        for right in binary:
            assert LinComb(_times(tx, ty, left, right)) == _mix_by_tensor_of(tx, ty, left, right)


# -- the compatibility identities against their term-by-term expansions ----------
#
# The reference builds each right side from its expansion, one term stream
# per kind of term, with its own copies of the stream builders.


def _tensor_terms(c, left, right):
    """The terms of ``c * left (x) right``; a bare key is one term."""
    left, right = (v.items() if isinstance(v, LinComb) else ((v, 1),) for v in (left, right))
    return ((Tensor(K, L), c * d * e) for K, d in left for L, e in right)


def _span_terms(tens, left, right):
    """The terms of left(a) (x) right(b) over the terms a (x) b of ``tens``."""
    return (
        term
        for T, c in tens.items()
        for term in _tensor_terms(c, left(T.factors[0]), right(T.factors[1]))
    )


def _mix_terms(tx, ty, left, right):
    """The terms of left(a, u) (x) right(b, v) over the terms a (x) b of
    ``tx`` and u (x) v of ``ty``."""
    return (
        term
        for Tx, c in tx.items()
        for Ty, d in ty.items()
        for term in _tensor_terms(
            c * d, left(Tx.factors[0], Ty.factors[0]), right(Tx.factors[1], Ty.factors[1])
        )
    )


def _expanded_dupdend_compat(P, Q):
    dx = reduced_coproduct(P)
    px, sx = dupdend.sp_dendriform_coproducts(P)
    py, sy = dupdend.sp_dendriform_coproducts(Q)
    return {
        "product-prec": LinComb(chain(
            _tensor_terms(1, Q, P),
            _span_terms(py, lambda a: a, lambda b: compose(P, b)),
            _span_terms(py, lambda a: compose(P, a), lambda b: b),
            _span_terms(dx, lambda a: compose(a, Q), lambda b: b),
            _mix_terms(dx, py, lambda a, u: compose(a, u), lambda b, v: compose(b, v)),
        )),
        "product-succ": LinComb(chain(
            _tensor_terms(1, P, Q),
            _span_terms(sy, lambda a: compose(P, a), lambda b: b),
            _span_terms(sy, lambda a: a, lambda b: compose(P, b)),
            _span_terms(dx, lambda a: a, lambda b: compose(b, Q)),
            _mix_terms(dx, sy, lambda a, u: compose(a, u), lambda b, v: compose(b, v)),
        )),
        "nwarrow-prec": LinComb(chain(
            _span_terms(py, lambda a: nwarrow(P, a), lambda b: b),
            _span_terms(px, lambda a: nwarrow(a, Q), lambda b: b),
            _mix_terms(px, py, lambda a, u: nwarrow(a, u), lambda b, v: compose(b, v)),
        )),
        "nwarrow-succ": LinComb(chain(
            _tensor_terms(1, P, Q),
            _span_terms(sy, lambda a: nwarrow(P, a), lambda b: b),
            _span_terms(sx, lambda a: a, lambda b: nwarrow(b, Q)),
            _span_terms(px, lambda a: a, lambda b: compose(b, Q)),
            _mix_terms(px, sy, lambda a, u: nwarrow(a, u), lambda b, v: compose(b, v)),
        )),
    }


def _expanded_codendriform(P, Q):
    px, sx = dupdend.spp_dendriform_coproducts(P)
    dy = reduced_coproduct(Q)
    return {
        "coproduct-prec-of-product": LinComb(chain(
            _tensor_terms(1, P, Q),
            _span_terms(px, lambda a: compose(a, Q), lambda b: b),
            _span_terms(px, lambda a: a, lambda b: compose(b, Q)),
            _span_terms(dy, lambda a: compose(P, a), lambda b: b),
            _mix_terms(px, dy, lambda a, u: compose(a, u), lambda b, v: compose(b, v)),
        )),
        "coproduct-succ-of-product": LinComb(chain(
            _tensor_terms(1, Q, P),
            _span_terms(sx, lambda a: compose(a, Q), lambda b: b),
            _span_terms(sx, lambda a: a, lambda b: compose(b, Q)),
            _span_terms(dy, lambda a: a, lambda b: compose(P, b)),
            _mix_terms(sx, dy, lambda a, u: compose(a, u), lambda b, v: compose(b, v)),
        )),
    }


def _expanded_dendriform_hopf(P, Q):
    dx, dy = reduced_coproduct(P), reduced_coproduct(Q)
    spf_prec, spf_succ = dupdend.spf_prec, dupdend.spf_succ
    return {
        "reduced-coproduct-of-prec": LinComb(chain(
            _tensor_terms(1, P, Q),
            _span_terms(dy, lambda a: spf_prec(P, a), lambda b: b),
            _span_terms(dx, lambda a: a, lambda b: compose(b, Q)),
            _span_terms(dx, lambda a: spf_prec(a, Q), lambda b: b),
            _mix_terms(dx, dy, lambda a, u: spf_prec(a, u), lambda b, v: compose(b, v)),
        )),
        "reduced-coproduct-of-succ": LinComb(chain(
            _tensor_terms(1, Q, P),
            _span_terms(dy, lambda a: spf_succ(P, a), lambda b: b),
            _span_terms(dy, lambda a: a, lambda b: compose(P, b)),
            _span_terms(dx, lambda a: spf_succ(a, Q), lambda b: b),
            _mix_terms(dx, dy, lambda a, u: spf_succ(a, u), lambda b, v: compose(b, v)),
        )),
    }


def _expanded_bidendriform(P, Q):
    px, sx = dupdend.spp_dendriform_coproducts(P)
    dy = reduced_coproduct(Q)
    spf_prec, spf_succ = dupdend.spf_prec, dupdend.spf_succ
    return {
        "prec-of-prec": LinComb(chain(
            _tensor_terms(1, P, Q),
            _span_terms(dy, lambda a: spf_prec(P, a), lambda b: b),
            _span_terms(px, lambda a: a, lambda b: compose(b, Q)),
            _span_terms(px, lambda a: spf_prec(a, Q), lambda b: b),
            _mix_terms(px, dy, lambda a, u: spf_prec(a, u), lambda b, v: compose(b, v)),
        )),
        "succ-of-prec": LinComb(chain(
            _span_terms(sx, lambda a: a, lambda b: compose(b, Q)),
            _span_terms(sx, lambda a: spf_prec(a, Q), lambda b: b),
            _mix_terms(sx, dy, lambda a, u: spf_prec(a, u), lambda b, v: compose(b, v)),
        )),
        "prec-of-succ": LinComb(chain(
            _span_terms(px, lambda a: spf_succ(a, Q), lambda b: b),
            _span_terms(dy, lambda a: spf_succ(P, a), lambda b: b),
            _mix_terms(px, dy, lambda a, u: spf_succ(a, u), lambda b, v: compose(b, v)),
        )),
        "succ-of-succ": LinComb(chain(
            _tensor_terms(1, Q, P),
            _span_terms(dy, lambda a: a, lambda b: compose(P, b)),
            _span_terms(sx, lambda a: spf_succ(a, Q), lambda b: b),
            _mix_terms(sx, dy, lambda a, u: spf_succ(a, u), lambda b, v: compose(b, v)),
        )),
    }


# suite -> (P, Q) -> {axiom: its right side, each identity's terms written out}
EXPANDED = {
    "dupdend-compat": _expanded_dupdend_compat,
    "codendriform": _expanded_codendriform,
    "dendriform-hopf": _expanded_dendriform_hopf,
    "bidendriform": _expanded_bidendriform,
}


def _assert_sides_match_the_expansions(suite, max_degree):
    checked = 0
    for (P, Q), cases in dupdend._SUITE_RUNNERS[suite](max_degree):
        assert {axiom: rhs for axiom, _, rhs in cases} == EXPANDED[suite](P, Q), (P, Q)
        checked += len(cases)
    return checked


@pytest.mark.parametrize("suite", list(EXPANDED))
def test_identities_match_their_term_by_term_expansions_through_degree_five(suite):
    assert _assert_sides_match_the_expansions(suite, 5) > 0


@pytest.mark.parametrize("fault", ["lossy-split", "swapped-nwarrow", "swapped-prec"])
@pytest.mark.parametrize("suite", list(EXPANDED))
def test_identities_match_their_expansions_under_a_planted_fault(monkeypatch, suite, fault):
    # the right sides read the faulty operation as the expansions do, so the
    # violation reports stay those of the expansions
    monkeypatch.setattr(dupdend, *FAULTS[fault])
    assert _assert_sides_match_the_expansions(suite, 4) > 0


def test_half_product_caches_keep_every_entry_of_the_degree_five_suites():
    caches = (dupdend._prec_basis, dupdend._forest_key)
    for cache in caches:
        cache.cache_clear()
    for suite in ("dendriform-hopf", "bidendriform", "lemma36-adjunction"):
        check_axioms(suite, max_degree=5)
    for cache in caches:
        info = cache.cache_info()
        assert info.currsize == info.misses < info.maxsize, info
