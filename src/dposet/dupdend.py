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
  tuples up to a degree bound, reported as exact-equality violation lists.
"""

from functools import cache, lru_cache
from itertools import chain

from .algebra import (
    LinComb,
    _gram_cached,
    _half_coproducts,
    _span,
    _span_terms,
    _tensor_terms,
    apply_slot,
    format_lincomb,
    lc_product,
    reduced_coproduct,
    require_augmented,
)
from .fqsym import fq_dendriform_coproducts, fq_nwarrow
from .linalg import rank_kernel
from .morphisms import theta
from .poset_core import (
    compose,
    enumerate_family,
    is_special,
    is_special_plane,
    is_special_plane_forest,
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


def _forest_ideal(x):
    x = require_augmented(x)
    for P, _ in x.items():
        if not is_special_plane_forest(P):
            raise ValueError("not a special plane forest")
    return x


def spf_prec(x, y):
    """Left half-product on special plane forests.

    For a single tree ``B+(F)``, ``B+(F) prec G = B+(F G)``; a multi-tree
    forest splits off its first tree ``t``: ``(t F) prec G =
    t prec (F G) + t succ (F prec G)``.
    """
    x = _forest_ideal(x)
    y = _forest_ideal(y)
    return LinComb(
        (K, a * b * c)
        for F, a in x.items()
        for G, b in y.items()
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

AXIOM_SUITES = (
    "duplicial",
    "dendriform-coalgebra",
    "dupdend-compat",
    "codendriform",
    "dendriform-hopf",
    "bidendriform",
    "lemma36-adjunction",
    "theta-dupdend",
)


def _graded(family, max_degree):
    return {n: enumerate_family(family, n) for n in range(1, max_degree + 1)}


def _pairs(family, max_degree, left, right):
    """The basis pairs ``(P, Q)`` of total degree at most ``max_degree``, as
    ``(P, Q, left(P), right(Q))``, so each factor's own work is done once.

    The pairs come in one block per degree pair ``(a, b)``: ``P`` runs over
    grade ``a`` outside, ``Q`` over grade ``b`` inside.  ``left(P)`` is
    computed once per block; ``right`` goes through a cache that lives for
    one block, so it holds at most one grade's results.  The suites pass
    this module's globals as ``left`` and ``right``, so a replacement
    planted by a test applies.  Only grades ``1..max_degree - 1`` are read.
    """
    grades = _graded(family, max_degree - 1)
    for a in range(1, max_degree):
        for b in range(1, max_degree - a + 1):
            right_of = cache(right)
            for P in grades[a]:
                left_of_P = left(P)
                for Q in grades[b]:
                    yield P, Q, left_of_P, right_of(Q)


def _triples(family, max_degree):
    """The basis triples of total degree at most ``max_degree``; only grades
    ``1..max_degree - 2`` are read."""
    grades = _graded(family, max_degree - 2)
    for a in range(1, max_degree - 1):
        for b in range(1, max_degree - a):
            for c in range(1, max_degree - a - b + 1):
                for P in grades[a]:
                    for Q in grades[b]:
                        for R in grades[c]:
                            yield P, Q, R


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


# Each ``_check_*`` suite yields ``(elements, cases)`` per basis tuple, every
# case an ``(axiom, lhs, rhs)`` whose sides must be equal.  A right side made
# of several term streams is accumulated in one build.


def _check_duplicial(max_degree):
    for P, Q, R in _triples("sp", max_degree):
        x, y, z = LinComb.basis(P), LinComb.basis(Q), LinComb.basis(R)
        yield (P, Q, R), (
            ("associativity", (x * y) * z, x * (y * z)),
            ("nwarrow-associativity", sp_nwarrow(sp_nwarrow(x, y), z), sp_nwarrow(x, sp_nwarrow(y, z))),
            ("product-nwarrow", sp_nwarrow(x * y, z), x * sp_nwarrow(y, z)),
        )


def _coalgebra_cases(P, delta_pair):
    prec, succ = delta_pair(LinComb.basis(P))
    split = cache(delta_pair)
    d_prec = lambda a: split(a)[0]
    d_succ = lambda a: split(a)[1]
    return (
        ("coassociativity-prec", apply_slot(prec, 0, d_prec), apply_slot(prec, 1, reduced_coproduct)),
        ("coassociativity-mixed", apply_slot(prec, 0, d_succ), apply_slot(succ, 1, d_prec)),
        ("coassociativity-succ", apply_slot(succ, 0, reduced_coproduct), apply_slot(succ, 1, d_succ)),
    )


def _check_dendriform_coalgebra(max_degree):
    homes = (
        ("sp", sp_dendriform_coproducts),
        ("spp", spp_dendriform_coproducts),
    )
    for family, delta_pair in homes:
        for n in range(1, max_degree + 1):
            for P in enumerate_family(family, n):
                cases = _coalgebra_cases(P, delta_pair)
                yield (P,), ((f"{family}:{name}", lhs, rhs) for name, lhs, rhs in cases)


def _coproduct_and_split(P):
    return reduced_coproduct(P), *sp_dendriform_coproducts(P)


def _check_dupdend_compat(max_degree):
    """``P``'s reduced coproduct and split are computed once per block of
    :func:`_pairs`, and ``Q``'s split once per block in a cache that holds at
    most one grade's splits."""
    pairs = _pairs("sp", max_degree, _coproduct_and_split, sp_dendriform_coproducts)
    for P, Q, (dx, px, sx), (py, sy) in pairs:
        x, y = LinComb.basis(P), LinComb.basis(Q)
        product_prec, product_succ = sp_dendriform_coproducts(x * y)
        nwarrow_prec, nwarrow_succ = sp_dendriform_coproducts(sp_nwarrow(x, y))
        yield (P, Q), (
            (
                "product-prec",
                product_prec,
                LinComb(chain(
                    _tensor_terms(1, Q, P),
                    _span_terms(py, lambda a: a, lambda b: compose(P, b)),
                    _span_terms(py, lambda a: compose(P, a), lambda b: b),
                    _span_terms(dx, lambda a: compose(a, Q), lambda b: b),
                    _mix_terms(dx, py, lambda a, u: compose(a, u), lambda b, v: compose(b, v)),
                )),
            ),
            (
                "product-succ",
                product_succ,
                LinComb(chain(
                    _tensor_terms(1, P, Q),
                    _span_terms(sy, lambda a: compose(P, a), lambda b: b),
                    _span_terms(sy, lambda a: a, lambda b: compose(P, b)),
                    _span_terms(dx, lambda a: a, lambda b: compose(b, Q)),
                    _mix_terms(dx, sy, lambda a, u: compose(a, u), lambda b, v: compose(b, v)),
                )),
            ),
            (
                "nwarrow-prec",
                nwarrow_prec,
                LinComb(chain(
                    _span_terms(py, lambda a: nwarrow(P, a), lambda b: b),
                    _span_terms(px, lambda a: nwarrow(a, Q), lambda b: b),
                    _mix_terms(px, py, lambda a, u: nwarrow(a, u), lambda b, v: compose(b, v)),
                )),
            ),
            (
                "nwarrow-succ",
                nwarrow_succ,
                LinComb(chain(
                    _tensor_terms(1, P, Q),
                    _span_terms(sy, lambda a: nwarrow(P, a), lambda b: b),
                    _span_terms(sx, lambda a: a, lambda b: nwarrow(b, Q)),
                    _span_terms(px, lambda a: a, lambda b: compose(b, Q)),
                    _mix_terms(px, sy, lambda a, u: nwarrow(a, u), lambda b, v: compose(b, v)),
                )),
            ),
        )


def _check_codendriform(max_degree):
    """``P``'s split is computed once per block of :func:`_pairs`, and
    ``Q``'s reduced coproduct once per block in a cache that holds at most
    one grade's coproducts."""
    for P, Q, (px, sx), dy in _pairs("spp", max_degree, spp_dendriform_coproducts, reduced_coproduct):
        x, y = LinComb.basis(P), LinComb.basis(Q)
        product_prec, product_succ = spp_dendriform_coproducts(x * y)
        yield (P, Q), (
            (
                "coproduct-prec-of-product",
                product_prec,
                LinComb(chain(
                    _tensor_terms(1, P, Q),
                    _span_terms(px, lambda a: compose(a, Q), lambda b: b),
                    _span_terms(px, lambda a: a, lambda b: compose(b, Q)),
                    _span_terms(dy, lambda a: compose(P, a), lambda b: b),
                    _mix_terms(px, dy, lambda a, u: compose(a, u), lambda b, v: compose(b, v)),
                )),
            ),
            (
                "coproduct-succ-of-product",
                product_succ,
                LinComb(chain(
                    _tensor_terms(1, Q, P),
                    _span_terms(sx, lambda a: compose(a, Q), lambda b: b),
                    _span_terms(sx, lambda a: a, lambda b: compose(b, Q)),
                    _span_terms(dy, lambda a: a, lambda b: compose(P, b)),
                    _mix_terms(sx, dy, lambda a, u: compose(a, u), lambda b, v: compose(b, v)),
                )),
            ),
        )


def _check_dendriform_hopf(max_degree):
    """``P``'s reduced coproduct is computed once per block of
    :func:`_pairs`, and ``Q``'s once per block in a cache that holds at most
    one grade's coproducts."""
    for P, Q, dx, dy in _pairs("spf", max_degree, reduced_coproduct, reduced_coproduct):
        x, y = LinComb.basis(P), LinComb.basis(Q)
        yield (P, Q), (
            (
                "reduced-coproduct-of-prec",
                reduced_coproduct(spf_prec(x, y)),
                LinComb(chain(
                    _tensor_terms(1, P, Q),
                    _span_terms(dy, lambda a: spf_prec(P, a), lambda b: b),
                    _span_terms(dx, lambda a: a, lambda b: compose(b, Q)),
                    _span_terms(dx, lambda a: spf_prec(a, Q), lambda b: b),
                    _mix_terms(dx, dy, lambda a, u: spf_prec(a, u), lambda b, v: compose(b, v)),
                )),
            ),
            (
                "reduced-coproduct-of-succ",
                reduced_coproduct(spf_succ(x, y)),
                LinComb(chain(
                    _tensor_terms(1, Q, P),
                    _span_terms(dy, lambda a: spf_succ(P, a), lambda b: b),
                    _span_terms(dy, lambda a: a, lambda b: compose(P, b)),
                    _span_terms(dx, lambda a: spf_succ(a, Q), lambda b: b),
                    _mix_terms(dx, dy, lambda a, u: spf_succ(a, u), lambda b, v: compose(b, v)),
                )),
            ),
        )


def _check_bidendriform(max_degree):
    """``P``'s split is computed once per block of :func:`_pairs`, and
    ``Q``'s reduced coproduct once per block in a cache that holds at most
    one grade's coproducts."""
    for P, Q, (px, sx), dy in _pairs("spf", max_degree, spp_dendriform_coproducts, reduced_coproduct):
        x, y = LinComb.basis(P), LinComb.basis(Q)
        lhs_pp, lhs_sp = spp_dendriform_coproducts(spf_prec(x, y))
        lhs_ps, lhs_ss = spp_dendriform_coproducts(spf_succ(x, y))
        yield (P, Q), (
            (
                "prec-of-prec",
                lhs_pp,
                LinComb(chain(
                    _tensor_terms(1, P, Q),
                    _span_terms(dy, lambda a: spf_prec(P, a), lambda b: b),
                    _span_terms(px, lambda a: a, lambda b: compose(b, Q)),
                    _span_terms(px, lambda a: spf_prec(a, Q), lambda b: b),
                    _mix_terms(px, dy, lambda a, u: spf_prec(a, u), lambda b, v: compose(b, v)),
                )),
            ),
            (
                "succ-of-prec",
                lhs_sp,
                LinComb(chain(
                    _span_terms(sx, lambda a: a, lambda b: compose(b, Q)),
                    _span_terms(sx, lambda a: spf_prec(a, Q), lambda b: b),
                    _mix_terms(sx, dy, lambda a, u: spf_prec(a, u), lambda b, v: compose(b, v)),
                )),
            ),
            (
                "prec-of-succ",
                lhs_ps,
                LinComb(chain(
                    _span_terms(px, lambda a: spf_succ(a, Q), lambda b: b),
                    _span_terms(dy, lambda a: spf_succ(P, a), lambda b: b),
                    _mix_terms(px, dy, lambda a, u: spf_succ(a, u), lambda b, v: compose(b, v)),
                )),
            ),
            (
                "succ-of-succ",
                lhs_ss,
                LinComb(chain(
                    _tensor_terms(1, Q, P),
                    _span_terms(dy, lambda a: a, lambda b: compose(P, b)),
                    _span_terms(sx, lambda a: spf_succ(a, Q), lambda b: b),
                    _mix_terms(sx, dy, lambda a, u: spf_succ(a, u), lambda b, v: compose(b, v)),
                )),
            ),
        )


def _check_lemma36(max_degree):
    """Both sides are read off the spf Gram rows of :func:`_gram_cached`, as
    :func:`pairing` counts them: <T, R> is an entry, and <P (x) Q, A (x) B>
    the product <P, A> <Q, B> of two.  A term outside spf has no entry, so a
    side it enters takes a message naming it, which is a violation."""
    grades = _graded("spf", max_degree)
    position = {P: i for basis in grades.values() for i, P in enumerate(basis)}
    gram = {n: _gram_cached("spf", n) for n in grades}

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
    for P, Q, x, y in _pairs("spf", max_degree, LinComb.basis, LinComb.basis):
        n = P.n + Q.n
        prec, succ = row(spf_prec(x, y), n), row(spf_succ(x, y), n)
        for j, R in enumerate(grades[n]):
            pz, sz = halves[R]
            yield (P, Q, R), (
                ("prec-adjunction", prec[j], pair(P, Q, pz)),
                ("succ-adjunction", succ[j], pair(P, Q, sz)),
            )


def _check_theta_dupdend(max_degree):
    """theta of ``P`` is computed once per block of :func:`_pairs`, and
    theta of ``Q`` once per block in a cache that holds at most one grade's
    images."""
    for P, Q, tx, ty in _pairs("sp", max_degree, theta, theta):
        x, y = LinComb.basis(P), LinComb.basis(Q)
        yield (P, Q), (("theta-nwarrow", theta(sp_nwarrow(x, y)), fq_nwarrow(tx, ty)),)
    for n in range(1, max_degree + 1):
        for P in enumerate_family("sp", n):
            x = LinComb.basis(P)
            prec, succ = sp_dendriform_coproducts(x)
            fq_prec, fq_succ = fq_dendriform_coproducts(theta(x))
            yield (P,), (
                ("theta-coproduct-prec", _span(prec, theta, theta), fq_prec),
                ("theta-coproduct-succ", _span(succ, theta, theta), fq_succ),
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


def check_axioms(suite, max_degree=4):
    """Evaluate both sides of every axiom of a suite on all basis tuples up
    to total degree ``max_degree``; the report lists exact-equality
    violations."""
    if suite not in _SUITE_RUNNERS:
        raise ValueError(f"unknown suite id: {suite}")
    max_degree = int(max_degree)
    if max_degree < 1:
        raise ValueError("max_degree must be positive")
    def show(value):
        return format_lincomb(value) if isinstance(value, LinComb) else str(value)

    violations = []
    checked = 0
    for elements, cases in _SUITE_RUNNERS[suite](max_degree):
        for axiom, lhs, rhs in cases:
            checked += 1
            if lhs != rhs:
                violations.append(
                    {
                        "axiom": axiom,
                        "elements": [e.literal() for e in elements],
                        "expected": show(rhs),
                        "got": show(lhs),
                    }
                )
    return {
        "suite": suite,
        "degree": max_degree,
        "tuples_checked": checked,
        "violations": violations,
    }
