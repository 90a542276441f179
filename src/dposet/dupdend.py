"""Duplicial and dendriform structures on poset spaces.

- ``sp_nwarrow``: the northwest graft, bilinear on the augmentation ideal of
  special posets; together with composition it is a duplicial algebra.
- ``sp_dendriform_coproducts``: the reduced coproduct split by whether the
  vertex with the greatest label lands in the ideal; a dendriform coalgebra
  compatible with the duplicial products.  Theta carries it onto the split
  of permutations by their greatest letter (``fq_dendriform_coproducts``).
- ``spp_dendriform_coproducts``: the analogous split on special plane posets
  by the vertex with the least label; a codendriform structure.  Every split
  filters the cut list that ``algebra`` caches per basis key.
- ``spf_prec`` / ``spf_succ``: dendriform half-products on special plane
  forests, defined recursively from grafting onto a new root; adjoint to the
  split coproducts under the picture pairing.
- ``prim_tot_basis``: totally primitive elements (both split coproducts
  vanish) of the forest space, dimension 1 in degree 1 and 0 beyond.
- ``check_axioms``: exhaustive verification of the axiom systems on basis
  tuples up to a degree bound, read from one enumeration per family
  (``algebra._graded``, ``_pairs``, ``_triples``) and reported as
  exact-equality violation lists by ``algebra._collect``; the graded-isometry
  check of ``linalg`` reads its pairs and reports through the same helpers.
  A suite memoizes the maps it applies to cut factors for one run: a memo
  holds only keys below the run's top grade, is freed when the run ends,
  and states its size at degree 6 (at most 11 MB; a run's peak rises by at
  most 19 MB).

The four compatibility suites state each right side as slotwise products
in the tensor square (``_times``) of unit-augmented cut lists, each product
less its trivial term, the one term with an empty factor, where it has one.
The empty poset ``E`` is the unit of each slot: of composition and the
northwest graft on both sides, of ``prec`` on the right (``x prec E = x``)
and of ``succ`` on the left (``E succ x = x``); no product puts ``E`` on the
other side of a half-product.  For a basis key ``x``, let ``D(x)`` be all
its cuts, the unit cuts ``x (x) E`` and ``E (x) x`` included,
``L(x) = D(x) - E (x) x``, ``p(x)`` and ``s(x)`` the halves of the suite's
split, ``p1(x) = p(x) + x (x) E`` and ``s1(x) = s(x) + E (x) x``.  With
``f*g`` the product that applies ``f`` in the left slot and ``g`` in the
right, ``.`` composition, ``nw`` the graft, ``<`` and ``>`` the
half-products and ``R`` the reduced coproduct::

    dupdend-compat   p(x.y)    = D(x) .*. p1(y)       s(x.y) = D(x) .*. s1(y)
                     p(x nw y) = p1(x) nw*. p1(y)
                     s(x nw y) = p1(x) nw*. s1(y) + s1(x) .*nw (E (x) y)
    codendriform     p(x.y)    = p1(x) .*. D(y)       s(x.y) = s1(x) .*. D(y)
    dendriform-hopf  R(x<y)    = L(x) <*. D(y)        R(x>y) = D(x) >*. L(y)
    bidendriform     p(x<y)    = p1(x) <*. D(y)       s(x<y) = s(x) <*. D(y)
                     p(x>y)    = p1(x) >*. L(y)       s(x>y) = s1(x) >*. L(y)
"""

from functools import cache, lru_cache, partial
from itertools import chain

from .algebra import (
    LinComb,
    Tensor,
    _collect,
    _gram_of,
    _graded,
    _half_coproducts,
    _pairs,
    _positive_degree,
    _span,
    _tensor_terms,
    _triples,
    apply_slot,
    coproduct,
    lc_product,
    reduced_coproduct,
    require_augmented,
)
from .fqsym import fq_dendriform_coproducts, fq_nwarrow
from .linalg import rank_kernel
from .morphisms import theta
from .poset_core import (
    DoublePoset,
    compose,
    empty_poset,
    enumerate_family,
    is_special,
    is_special_plane,
    is_special_plane_forest,
    max_degree as degree_cap,
    nwarrow,
    restrict,
    b_plus,
)

__all__ = [
    "AXIOM_SUITES",
    "check_axioms",
    "prim_tot_basis",
    "sp_dendriform_coproducts",
    "sp_nwarrow",
    "spf_prec",
    "spf_succ",
    "spp_dendriform_coproducts",
]


# -- duplicial product ------------------------------------------------------------


def sp_nwarrow(x, y):
    """Bilinear extension of the northwest graft to special posets."""
    x = require_augmented(x)
    y = require_augmented(y)
    return LinComb((nwarrow(P, Q), a * b) for P, a in x.items() for Q, b in y.items())


# -- split coproducts -------------------------------------------------------------


def _split_coproducts(x, check, failure, least=False):
    x = require_augmented(x)
    if not all(check(P) for P, _ in x.items()):
        raise ValueError(failure)
    return _half_coproducts(x, least)


def sp_dendriform_coproducts(x):
    """Reduced coproduct of special posets split by the position of the
    vertex with the greatest label: ``(prec, succ)`` with ``prec`` the ideals
    avoiding it and ``succ`` the ideals containing it."""
    return _split_coproducts(x, is_special, "not a special poset")


def spp_dendriform_coproducts(x):
    """Reduced coproduct of special plane posets split by the position of
    the vertex with the least label: ``(prec, succ)`` with ``prec`` the
    ideals avoiding it and ``succ`` the ideals containing it."""
    return _split_coproducts(x, is_special_plane, "not a special plane poset", least=True)


# -- dendriform half-products on special plane forests ----------------------------


@lru_cache(maxsize=1024)
def _prec_basis(F, G):
    """``F prec G`` for forests ``F`` and ``G``.  An entry, with its keys,
    takes at most 8.8 KB at degree 5 and 18 KB at degree 6; the suites
    leave 67 entries (0.16 MB) and 232 (0.66 MB) there."""
    k = (F.up1[0] | 1).bit_length()  # label 1 is a root, its tree the labels 1..k
    if k == F.n:
        under_root = restrict(F, range(2, F.n + 1))
        return LinComb.basis(b_plus(compose(under_root, G)))
    first = restrict(F, range(1, k + 1))
    rest = restrict(F, range(k + 1, F.n + 1))
    parts = [_prec_basis(first, compose(rest, G))]
    for Z, c in _prec_basis(rest, G).items():
        parts.append((compose(first, Z), c))
        parts.extend((K, -c * d) for K, d in _prec_basis(first, Z).items())
    return LinComb.sum(parts)


@lru_cache(maxsize=1024)
def _forest_key(P):
    """``P``, a basis key checked once to be a special plane forest of
    positive degree.  An entry takes about 0.14 KB and keeps its key alive;
    spf has 196 keys in degrees 1 to 6 (28 KB), all of which the forest
    suites pass at degree 6."""
    if not is_special_plane_forest(P):
        raise ValueError("not a special plane forest")
    if P.n == 0:
        raise ValueError("degree-0 term present")
    return P


def _forest_terms(x):
    """The terms of ``x``, checked to lie in the augmentation ideal of
    special plane forests; a bare basis key is one term, and every key is
    checked once by :func:`_forest_key`."""
    if isinstance(x, DoublePoset):
        return ((_forest_key(x), 1),)
    return [(_forest_key(P), c) for P, c in require_augmented(x).items()]


def spf_prec(x, y):
    """Left half-product on special plane forests.

    For a single tree ``B+(F)``, ``B+(F) prec G = B+(F G)``; a multi-tree
    forest splits off its first tree ``t``: ``(t F) prec G =
    t prec (F G) + t succ (F prec G)``.
    """
    xs = _forest_terms(x)
    ys = _forest_terms(y)
    return LinComb(
        (K, a * b * c)
        for F, a in xs
        for G, b in ys
        for K, c in _prec_basis(F, G).items()
    )


def spf_succ(x, y):
    """Right half-product on special plane forests: composition minus the
    left half-product, termwise."""
    prec = spf_prec(x, y)  # validates both operands
    return lc_product(x, y) - prec


# -- totally primitive elements ---------------------------------------------------


def prim_tot_basis(n):
    """Basis of the intersection of the kernels of the two split coproducts
    on the degree-``n`` span of special plane forests."""
    n = int(n)
    basis = enumerate_family("spf", n)
    if n == 0:
        return []
    columns = []
    keys = {}
    for F in basis:
        prec, succ = spp_dendriform_coproducts(LinComb.basis(F))
        entries = {}
        for tag, half in (("prec", prec), ("succ", succ)):
            for T, c in half.terms():
                keys.setdefault((tag, T), len(keys))
                entries[(tag, T)] = c
        columns.append(entries)
    matrix = [
        [col.get(key, 0) for col in columns]
        for key, _ in sorted(keys.items(), key=lambda item: item[1])
    ]
    if not matrix:
        matrix = [[0] * len(basis)]
    _, kernel = rank_kernel(matrix)
    return [LinComb(zip(basis, vec)) for vec in kernel]


# -- axiom suites -----------------------------------------------------------------

_E = empty_poset()


def _times(tx, ty, left, right):
    """The terms of the slotwise product of two two-slot tensors, those of
    left(a, u) (x) right(b, v) over the terms a (x) b of ``tx`` and u (x) v
    of ``ty``.  The empty poset ``E`` is the unit of each slot: an operand
    ``E`` gives the other operand without a call.  A pair with ``E`` on both
    sides of one slot would give the trivial term, whose empty factor no
    reduced coproduct has; it is skipped."""
    ty = [(*T.factors, d) for T, d in ty.items()]
    for Tx, c in tx.items():
        a, b = Tx.factors
        for u, v, d in ty:
            if (a.n or u.n) and (b.n or v.n):
                yield from _tensor_terms(
                    c * d,
                    (left(a, u) if u.n else a) if a.n else u,
                    (right(b, v) if v.n else b) if b.n else v,
                )


def _cuts_with_units(P):
    """``(dx, lx)``: ``Delta(P)``, every cut of ``P`` with the unit cuts
    ``P (x) E`` and ``E (x) P``, and ``Delta(P) - E (x) P``."""
    dx = coproduct(P)
    return dx, LinComb.sum((dx, (Tensor(_E, P), -1)))


def _halves_with_units(P, split):
    """``(px, sx, sx0)``: the halves of ``P``'s ``split`` with their unit
    cuts, ``prec + P (x) E`` and ``succ + E (x) P``, and ``succ`` alone."""
    prec, succ = split(LinComb.basis(P))
    return LinComb.sum((prec, (Tensor(P, _E), 1))), LinComb.sum((succ, (Tensor(_E, P), 1))), succ


# Each ``_check_*`` suite yields ``(elements, cases)`` per basis tuple, every
# case an ``(axiom, lhs, rhs)`` whose sides must be equal.  A right side made
# of several term streams is accumulated in one build.  A suite calls
# ``_graded`` once per family, for the grades it reads, and passes ``_pairs``
# this module's globals, or run memos over them, so a planted fault applies.


def _check_duplicial(max_degree):
    for P, Q, R in _triples(_graded("sp", max_degree - 2), max_degree):
        x, y, z = LinComb.basis(P), LinComb.basis(Q), LinComb.basis(R)
        yield (P, Q, R), (
            ("associativity", (x * y) * z, x * (y * z)),
            ("nwarrow-associativity", sp_nwarrow(sp_nwarrow(x, y), z), sp_nwarrow(x, sp_nwarrow(y, z))),
            ("product-nwarrow", sp_nwarrow(x * y, z), x * sp_nwarrow(y, z)),
        )


def _coalgebra_cases(P, delta_pair, split, reduced):
    prec, succ = delta_pair(LinComb.basis(P))
    d_prec = lambda a: split(a)[0]
    d_succ = lambda a: split(a)[1]
    return (
        ("coassociativity-prec", apply_slot(prec, 0, d_prec), apply_slot(prec, 1, reduced)),
        ("coassociativity-mixed", apply_slot(prec, 0, d_succ), apply_slot(succ, 1, d_prec)),
        ("coassociativity-succ", apply_slot(succ, 0, reduced), apply_slot(succ, 1, d_succ)),
    )


def _check_dendriform_coalgebra(max_degree):
    homes = (
        ("sp", sp_dendriform_coproducts),
        ("spp", spp_dendriform_coproducts),
    )
    reduced = cache(reduced_coproduct)  # 4,473 keys, 8.3 MB at degree 6
    for family, delta_pair in homes:
        split = cache(delta_pair)  # sp 9.4 MB, spp 0.3 MB at degree 6
        for P in chain.from_iterable(_graded(family, max_degree).values()):
            cases = _coalgebra_cases(P, delta_pair, split, reduced)
            yield (P,), ((f"{family}:{name}", lhs, rhs) for name, lhs, rhs in cases)


def _check_dupdend_compat(max_degree):
    right = partial(_halves_with_units, split=sp_dendriform_coproducts)
    left = lambda P: (coproduct(P), *right(P))  # (dx, px, sx, sx0)
    for P, Q, (dx, px, sx, _), (py, sy, _) in _pairs(_graded("sp", max_degree - 1), max_degree, left, right):
        x, y = LinComb.basis(P), LinComb.basis(Q)
        product_prec, product_succ = sp_dendriform_coproducts(x * y)
        nwarrow_prec, nwarrow_succ = sp_dendriform_coproducts(sp_nwarrow(x, y))
        ey = LinComb.basis(Tensor(_E, Q))
        yield (P, Q), (
            ("product-prec", product_prec, LinComb(_times(dx, py, compose, compose))),
            ("product-succ", product_succ, LinComb(_times(dx, sy, compose, compose))),
            ("nwarrow-prec", nwarrow_prec, LinComb(_times(px, py, nwarrow, compose))),
            (
                "nwarrow-succ",
                nwarrow_succ,
                LinComb(chain(_times(px, sy, nwarrow, compose), _times(sx, ey, compose, nwarrow))),
            ),
        )


def _check_codendriform(max_degree):
    lists = partial(_halves_with_units, split=spp_dendriform_coproducts)
    for P, Q, (px, sx, _), dy in _pairs(_graded("spp", max_degree - 1), max_degree, lists, coproduct):
        x, y = LinComb.basis(P), LinComb.basis(Q)
        product_prec, product_succ = spp_dendriform_coproducts(x * y)
        yield (P, Q), (
            ("coproduct-prec-of-product", product_prec, LinComb(_times(px, dy, compose, compose))),
            ("coproduct-succ-of-product", product_succ, LinComb(_times(sx, dy, compose, compose))),
        )


def _check_dendriform_hopf(max_degree):
    prec, succ = cache(spf_prec), cache(spf_succ)  # 67 pairs each, 0.05 MB at degree 6
    for P, Q, (dx, lx), (dy, ly) in _pairs(
        _graded("spf", max_degree - 1), max_degree, _cuts_with_units, _cuts_with_units
    ):
        x, y = LinComb.basis(P), LinComb.basis(Q)
        yield (P, Q), (
            (
                "reduced-coproduct-of-prec",
                reduced_coproduct(spf_prec(x, y)),
                LinComb(_times(lx, dy, prec, compose)),
            ),
            (
                "reduced-coproduct-of-succ",
                reduced_coproduct(spf_succ(x, y)),
                LinComb(_times(dx, ly, succ, compose)),
            ),
        )


def _check_bidendriform(max_degree):
    prec, succ = cache(spf_prec), cache(spf_succ)  # 67 pairs each, 0.05 MB at degree 6
    lists = partial(_halves_with_units, split=spp_dendriform_coproducts)
    for P, Q, (px, sx, sx0), (dy, ly) in _pairs(
        _graded("spf", max_degree - 1), max_degree, lists, _cuts_with_units
    ):
        x, y = LinComb.basis(P), LinComb.basis(Q)
        lhs_pp, lhs_sp = spp_dendriform_coproducts(spf_prec(x, y))
        lhs_ps, lhs_ss = spp_dendriform_coproducts(spf_succ(x, y))
        yield (P, Q), (
            ("prec-of-prec", lhs_pp, LinComb(_times(px, dy, prec, compose))),
            ("succ-of-prec", lhs_sp, LinComb(_times(sx0, dy, prec, compose))),
            ("prec-of-succ", lhs_ps, LinComb(_times(px, ly, succ, compose))),
            ("succ-of-succ", lhs_ss, LinComb(_times(sx, ly, succ, compose))),
        )


def _check_lemma36(max_degree):
    """Both sides are read off the spf Gram rows (``_gram_of``), as
    :func:`pairing` counts them: <T, R> is an entry, and <P (x) Q, A (x) B>
    the product <P, A> <Q, B> of two.  A term outside spf has no entry, so a
    side it enters takes a message naming it, which is a violation."""
    grades = _graded("spf", max_degree)
    position = {P: i for basis in grades.values() for i, P in enumerate(basis)}
    gram = {n: _gram_of(basis) for n, basis in grades.items()}

    def outside(keys):
        return next((f"outside spf: {S.literal()}" for S in keys if S not in position), None)

    def row(x, n):
        """<x, R> for each R of grade n, in grade order."""
        terms = [(T, c) for T, c in x.items() if T.n == n]
        message = outside(T for T, _ in terms)
        if message:
            return [message] * len(grades[n])
        rows = [(c, gram[n][position[T]]) for T, c in terms]
        return [sum(c * r[j] for c, r in rows) for j in range(len(grades[n]))]

    def entries(half):
        """A split's terms c * A (x) B as (degree of A, position of A,
        position of B, c), or the message of a factor outside spf."""
        message = outside(S for T in half.support() for S in T.factors)
        if message:
            return message
        out = []
        for T, c in half.items():
            A, B = T.factors
            out.append((A.n, position[A], position[B], c))
        return out

    def pair(P, Q, half):
        """<P (x) Q, half>; a factor pairs to 0 with a key of another degree."""
        if isinstance(half, str):
            return half
        left, right = gram[P.n][position[P]], gram[Q.n][position[Q]]
        return sum(c * left[i] * right[j] for a, i, j, c in half if a == P.n)

    halves = {
        R: tuple(map(entries, spp_dendriform_coproducts(R))) for n in grades if n > 1 for R in grades[n]
    }
    for P, Q, x, y in _pairs(grades, max_degree, LinComb.basis, LinComb.basis):
        n = P.n + Q.n
        prec, succ = row(spf_prec(x, y), n), row(spf_succ(x, y), n)
        for j, R in enumerate(grades[n]):
            pz, sz = halves[R]
            yield (P, Q, R), (
                ("prec-adjunction", prec[j], pair(P, Q, pz)),
                ("succ-adjunction", succ[j], pair(P, Q, sz)),
            )


def _check_theta_dupdend(max_degree):
    """The operands of :func:`_pairs` and the cut factors of each ``P`` go
    through one run memo of theta; ``P``'s own image does not."""
    image = cache(theta)  # 4,473 keys, 11 MB at degree 6
    grades = _graded("sp", max_degree)
    for P, Q, tx, ty in _pairs(grades, max_degree, image, image):
        x, y = LinComb.basis(P), LinComb.basis(Q)
        yield (P, Q), (("theta-nwarrow", theta(sp_nwarrow(x, y)), fq_nwarrow(tx, ty)),)
    for P in chain.from_iterable(grades.values()):
        x = LinComb.basis(P)
        prec, succ = sp_dendriform_coproducts(x)
        fq_prec, fq_succ = fq_dendriform_coproducts(theta(x))
        yield (P,), (
            ("theta-coproduct-prec", _span(prec, image, image), fq_prec),
            ("theta-coproduct-succ", _span(succ, image, image), fq_succ),
        )


_SUITE_RUNNERS = {
    "duplicial": _check_duplicial,
    "dendriform-coalgebra": _check_dendriform_coalgebra,
    "dupdend-compat": _check_dupdend_compat,
    "codendriform": _check_codendriform,
    "dendriform-hopf": _check_dendriform_hopf,
    "bidendriform": _check_bidendriform,
    "lemma36-adjunction": _check_lemma36,
    "theta-dupdend": _check_theta_dupdend,
}

AXIOM_SUITES = tuple(_SUITE_RUNNERS)


def check_axioms(suite, max_degree=4):
    """Evaluate both sides of every axiom of a suite on all basis tuples up
    to total degree ``max_degree``; the report lists exact-equality
    violations."""
    if suite not in _SUITE_RUNNERS:
        raise ValueError(f"unknown suite id: {suite}")
    max_degree = _positive_degree(max_degree)
    # the pair and triple suites build the top grade from lower ones, so they
    # would pass the cap unless it is checked before the first tuple
    if max_degree > degree_cap():
        raise ValueError("degree too large")
    checked, violations = _collect(
        ({"axiom": axiom}, elements, lhs, rhs)
        for elements, cases in _SUITE_RUNNERS[suite](max_degree)
        for axiom, lhs, rhs in cases
    )
    return {
        "suite": suite,
        "degree": max_degree,
        "tuples_checked": checked,
        "violations": violations,
    }
