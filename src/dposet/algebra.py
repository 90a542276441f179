"""Exact linear algebra over canonical combinatorial bases.

Scalars are exact throughout: plain rationals are :class:`fractions.Fraction`
and quantities with a nonzero imaginary part are :class:`GaussRat` values in
the field Q(I) with ``I**2 == -1``.  :class:`LinComb` is a finitely supported
map from basis keys (double posets, permutations, or tensors of either) to
nonzero scalars; all products, coproducts, pairings, antipodes and Gram
matrices extend the basis-level operations bilinearly.

Basis keys inside one combination must be of a single kind — posets never mix
with permutations, and tensors never mix with plain keys — so that two
different bases cannot be confused silently.

Sums are built in one place: the :class:`LinComb` constructor accumulates any
iterable of ``(key, coeff)`` pairs, and :meth:`LinComb.sum` feeds it
combinations and pairs alike, so a loop collects its terms and builds once.
A combination keeps its terms unordered; only :meth:`LinComb.terms`,
:meth:`LinComb.support` and :func:`format_lincomb` produce the canonical
order, by the keys' ``sort_key()``.  Every key kind stores its hash when it is
made and its sort key when first asked.

The linear-combination literal grammar is
``3/2*SP(2; 1<2) - SP(2;) + (1+2I)*SP(2; 2<1)``: terms are joined by
top-level ``+``/``-``, an optional exact scalar coefficient precedes ``*``,
and a term body is a poset literal or a permutation word.  Tensor terms
render as ``a (x) b``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from operator import le

from .poset_core import (
    DoublePoset,
    SpecialPoset,
    _restrict,
    _up_sets,
    _within_budget,
    _word_budget,
    compose,
    enumerate_family,
    extension_words,
    inverse_word,
    is_special,
    parse_poset,
)

__all__ = [
    "GaussRat",
    "I",
    "LinComb",
    "Tensor",
    "antipode",
    "apply_slot",
    "as_lincomb",
    "coproduct",
    "format_lincomb",
    "format_scalar",
    "gram_matrix",
    "key_degree",
    "lc_product",
    "normalize_scalar",
    "pairing",
    "pairing_basis",
    "parse_lincomb",
    "parse_scalar",
    "reduced_coproduct",
    "require_augmented",
    "tensor_of",
]


# -- scalars -------------------------------------------------------------------


class GaussRat:
    """Gaussian rational ``re + im*I`` with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, real=0, imag=0):
        self.re = Fraction(real)
        self.im = Fraction(imag)

    @staticmethod
    def _coerce(value):
        if isinstance(value, GaussRat):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussRat(value, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("scalar division by zero")
        return GaussRat(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self):
        return GaussRat(self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, GaussRat):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # A real GaussRat hashes like the plain rational it equals.
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re or self.im)

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


I = GaussRat(0, 1)


def _coefficient(value):
    """The stored form of a coefficient: ``int`` when integral, ``Fraction``
    for a real denominator, ``GaussRat`` only for a nonzero imaginary part."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, GaussRat):
        return _coefficient(value.re) if value.im == 0 else value
    raise TypeError(f"unsupported scalar: {value!r}")


def normalize_scalar(value):
    """Return the canonical form: Fraction when real, GaussRat otherwise."""
    if isinstance(value, GaussRat):
        return value.re if value.im == 0 else value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"unsupported scalar: {value!r}")


def format_scalar(value):
    """Serialize a scalar; Gaussian rationals print as ``a/b+c/d*I``."""
    if type(value) is int:
        return str(value)
    value = normalize_scalar(value)
    if isinstance(value, Fraction):
        return str(value)
    out = ""
    if value.re:
        out = str(value.re)
    if value.im > 0:
        out += ("+" if out else "") + f"{value.im}*I"
    elif value.im < 0:
        out += f"-{-value.im}*I"
    return out or "0"


_SCALAR_TERM = re.compile(
    r"\s*(?P<sign>[+-])?\s*"
    r"(?:(?P<num>\d+(?:\s*/\s*\d+)?)\s*(?:\*\s*)?(?P<iunit>I)?|(?P<ibare>I))\s*"
)


def parse_scalar(text):
    """Parse ``3/2``, ``1+2*I``, ``1/2-3/4I``, ``I``, ``(1+2I)`` and the like."""
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1].strip()
    pos = 0
    first = True
    re_part = Fraction(0)
    im_part = Fraction(0)
    while pos < len(s):
        m = _SCALAR_TERM.match(s, pos)
        if not m or m.end() == pos or (not first and m.group("sign") is None):
            raise ValueError(f"bad scalar literal: {text!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("ibare") is not None:
            im_part += sign
        else:
            try:
                num = Fraction(m.group("num").replace(" ", ""))
            except ZeroDivisionError:
                raise ValueError(f"bad scalar literal: {text!r}") from None
            if m.group("iunit"):
                im_part += sign * num
            else:
                re_part += sign * num
        pos = m.end()
        first = False
    if first:
        raise ValueError(f"bad scalar literal: {text!r}")
    return normalize_scalar(GaussRat(re_part, im_part))


# -- basis keys ------------------------------------------------------------------


class Tensor:
    """Ordered tuple of basis keys; the key type of coproduct outputs.

    Coproducts produce two slots; iterated coproducts in the axiom checkers
    produce more.  Factors are never nested tensors.  The hash is stored at
    construction and the sort key on first use.
    """

    __slots__ = ("factors", "_hash", "_key")

    def __init__(self, *factors):
        self.factors = factors
        self._hash = hash(factors)
        self._key = None

    def degree(self):
        return sum(key_degree(f) for f in self.factors)

    def sort_key(self):
        key = self._key
        if key is None:
            key = self._key = tuple(f.sort_key() for f in self.factors)
        return key

    def literal(self):
        return " (x) ".join(f.literal() for f in self.factors)

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self.literal()


def key_degree(key):
    """Graded degree of a basis key."""
    if isinstance(key, Tensor):
        return key.degree()
    return key.n


def _check_kinds(keys):
    """Raise unless all keys are of one kind: double posets (special or
    not), permutations, or tensors with one number of slots."""
    kinds = {type(k) for k in keys}
    if kinds == {Tensor}:
        kinds = {len(k.factors) for k in keys}
    elif kinds == {DoublePoset, SpecialPoset}:
        return
    if len(kinds) > 1:
        raise ValueError("mixed basis kinds")


# -- linear combinations -----------------------------------------------------------


class LinComb:
    """Finitely supported map from basis keys to nonzero exact scalars.

    Every combination is built by the constructor, which sums the
    coefficients of repeated keys, drops zeros and checks the basis kind
    once.  The terms are kept unordered: :meth:`terms`, :meth:`support` and
    :func:`format_lincomb` sort them into canonical key order on first use.

    A coefficient is stored as an ``int`` when integral, a ``Fraction`` only
    with a denominator and a ``GaussRat`` only with a nonzero imaginary part;
    equality, hashing, printing and :meth:`coeff` do not depend on the form.
    """

    __slots__ = ("_terms", "_sorted")

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        acc = {}
        get = acc.get
        for key, coeff in items:
            if type(coeff) is not int:
                coeff = _coefficient(coeff)
            old = get(key)
            if old is not None:
                coeff = old + coeff
                if type(coeff) is not int:
                    coeff = _coefficient(coeff)
            acc[key] = coeff
        if not all(acc.values()):
            acc = {k: c for k, c in acc.items() if c}
        if len(acc) > 1:
            _check_kinds(acc)
        self._terms = acc
        self._sorted = len(acc) < 2

    @classmethod
    def basis(cls, key, coeff=1):
        return cls(((key, coeff),))

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def sum(cls, parts):
        """Sum of an iterable of combinations and ``(key, coeff)`` pairs,
        accumulated in one build."""

        def pairs():
            for part in parts:
                if isinstance(part, LinComb):
                    yield from part._terms.items()
                else:
                    yield part

        return cls(pairs())

    def _canonical(self):
        if not self._sorted:
            self._terms = dict(sorted(self._terms.items(), key=lambda kv: kv[0].sort_key()))
            self._sorted = True
        return self._terms

    def terms(self):
        """(key, coefficient) pairs in canonical key order."""
        return list(self._canonical().items())

    def items(self):
        """(key, coefficient) pairs in no particular order."""
        return self._terms.items()

    def support(self):
        return list(self._canonical())

    def coeff(self, key):
        return normalize_scalar(self._terms.get(key, 0))

    def degrees(self):
        return sorted({key_degree(k) for k in self._terms})

    def homogeneous_part(self, n):
        return LinComb((k, c) for k, c in self._terms.items() if key_degree(k) == n)

    def apply(self, fn):
        """Linear extension of a basis-key map ``fn: key -> key | LinComb``."""
        return LinComb(
            (k, coeff * c)
            for key, coeff in self._terms.items()
            for k, c in as_lincomb(fn(key)).items()
        )

    def __add__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return LinComb.sum((self, other))

    def __sub__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return LinComb.sum((self, *((k, -c) for k, c in other._terms.items())))

    def __neg__(self):
        return LinComb((k, -c) for k, c in self._terms.items())

    def __mul__(self, other):
        if isinstance(other, LinComb):
            return lc_product(self, other)
        return LinComb((k, c * other) for k, c in self._terms.items())

    def __rmul__(self, other):
        return LinComb((k, other * c) for k, c in self._terms.items())

    def __truediv__(self, scalar):
        return self * (Fraction(1) / scalar)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        return format_lincomb(self)


def as_lincomb(x):
    """Wrap a bare basis key as a combination; pass combinations through."""
    if isinstance(x, LinComb):
        return x
    if hasattr(x, "sort_key"):
        return LinComb.basis(x)
    raise TypeError(f"not a basis key or linear combination: {x!r}")


def tensor_of(*factors):
    """Tensor product of combinations; tensor keys in factors are flattened."""
    result = [((), 1)]
    for factor in factors:
        factor = as_lincomb(factor)
        step = []
        for prefix, c in result:
            for key, d in factor.items():
                parts = key.factors if isinstance(key, Tensor) else (key,)
                step.append((prefix + parts, c * d))
        result = step
    return LinComb((Tensor(*parts), c) for parts, c in result)


def apply_slot(x, slot, op):
    """Apply ``op`` (key -> key | LinComb) inside one tensor slot, flattening."""
    out = []
    for T, c in as_lincomb(x).items():
        head, tail = T.factors[:slot], T.factors[slot + 1 :]
        for key, d in as_lincomb(op(T.factors[slot])).items():
            parts = key.factors if isinstance(key, Tensor) else (key,)
            out.append((Tensor(*head, *parts, *tail), c * d))
    return LinComb(out)


def _tensor_terms(c, left, right):
    """The terms of ``c * left (x) right``; each side is a combination or a
    bare basis key, which counts as one term of coefficient 1."""
    left, right = (v.items() if isinstance(v, LinComb) else ((v, 1),) for v in (left, right))
    return ((Tensor(K, L), c * d * e) for K, d in left for L, e in right)


def _span(tens, left, right):
    """The two-slot map ``left (x) right``: the sum of left(a) (x) right(b)
    over the terms a (x) b of ``tens``."""
    return LinComb(
        term
        for T, c in tens.items()
        for term in _tensor_terms(c, left(T.factors[0]), right(T.factors[1]))
    )


def require_augmented(x):
    """Reject combinations outside the augmentation ideal."""
    x = as_lincomb(x)
    if any(key_degree(k) == 0 for k in x._terms):
        raise ValueError("degree-0 term present")
    return x


# -- product, coproduct, pairing -----------------------------------------------------


def _key_product(a, b):
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        if len(a.factors) != len(b.factors):
            raise ValueError("mixed basis kinds")
        return tensor_of(*(_key_product(fa, fb) for fa, fb in zip(a.factors, b.factors)))
    if isinstance(a, DoublePoset) and isinstance(b, DoublePoset):
        return LinComb.basis(compose(a, b))
    from .fqsym import Permutation, shuffle_product

    if isinstance(a, Permutation) and isinstance(b, Permutation):
        return shuffle_product(a, b)
    raise ValueError("mixed basis kinds")


def lc_product(x, y):
    """Bilinear extension of the basis product (composition or shuffle)."""
    x = as_lincomb(x)
    y = as_lincomb(y)
    return LinComb(
        (key, cx * cy * c)
        for kx, cx in x.items()
        for ky, cy in y.items()
        for key, c in _key_product(kx, ky).items()
    )


@lru_cache(maxsize=1024)
def _key_coproduct(key):
    """Every cut of a basis key, once, as ``(right, Tensor(left, right))``:
    ``right`` is the bitmask of the labels (poset) or values (permutation)
    that the cut sends to the right factor.

    A poset is cut along each up-set of its first order, a permutation's word
    between two positions.  The full, reduced and split coproducts are
    filters over this list.  The factors of a special poset's cuts are the
    live objects of ``poset_core._special_poset``, so an entry's own tuples
    and tensors take at most 5.7 KB at degree 5 and 11 KB at degree 6 (the
    antichain's 32 and 64 cuts), 7.5 KB and 15 KB once their sort keys are
    made.  With 1,024 keys an axiom suite at degree 5 cuts each factor about
    once (``theta-dupdend``: 4,735 cuts of 4,626 keys;
    ``dendriform-coalgebra``: 4,755 of 4,473); the keys used last hold
    about 3 MB of their own there, and under 16 MB at any degree through 6.
    """
    if isinstance(key, DoublePoset):
        full = (1 << key.n) - 1
        return tuple(
            (right, Tensor(_restrict(key, full ^ right), _restrict(key, right)))
            for right in _up_sets(key)
        )
    from .fqsym import Permutation, _cuts

    if isinstance(key, Permutation):
        return _cuts(key)
    raise TypeError(f"no coproduct on keys of this kind: {key!r}")


def coproduct(x):
    """Full coproduct: every cut of each key, the two trivial ones included;
    for a poset P, the sum over up-sets I of (P restricted away from I) (x)
    (P restricted to I)."""
    return LinComb((T, c) for key, c in as_lincomb(x).items() for _, T in _key_coproduct(key))


def reduced_coproduct(x):
    """Coproduct without the two trivial terms (both factors nonempty)."""
    return LinComb(
        (T, c)
        for key, c in as_lincomb(x).items()
        for right, T in _key_coproduct(key)
        if 0 < right < (1 << key.n) - 1
    )


def _half_coproducts(x, least=False):
    """The reduced coproduct split by a pivot, the greatest label or value of
    each key (the least with ``least``): ``(prec, succ)``, where ``prec``
    keeps the cuts whose right factor lacks the pivot and ``succ`` those
    whose right factor holds it."""
    halves = ([], [])
    for key, c in as_lincomb(x).items():
        full = (1 << key.n) - 1
        pivot = 1 if least else (full + 1) >> 1
        for right, T in _key_coproduct(key):
            if 0 < right < full:
                halves[bool(right & pivot)].append((T, c))
    return LinComb(halves[0]), LinComb(halves[1])


@lru_cache(maxsize=8192)
def _set_sizes(P):
    """The sorted sizes of the vertices' strict up-sets and down-sets in the
    first order of P, then in its second: four tuples of ``n`` small ints.

    The bound holds every element of the largest basis a Gram matrix takes.
    An entry takes about 0.75 KB at degree 6, the down masks it stores on
    the poset included, and besides keeps its poset alive: pp 6 fills 720
    entries (0.53 MB), and a full table takes about 6 MB.
    """
    return tuple(
        tuple(sorted(m.bit_count() for m in masks)) for masks in (P.up1, P.down1, P.up2, P.down2)
    )


def _sizes_admit_picture(P, Q):
    """False when no picture from P to Q can exist, by their set sizes.

    A picture maps the strict up-set (down-set) of each vertex in P's first
    order injectively into that of its image in Q's second order, and its
    inverse does the same from Q's first order into P's second.  By a
    matching argument, each sorted size sequence of a first order then lies
    entry by entry below the other poset's sequence of the second order.
    """
    up1, down1, up2, down2 = _set_sizes(P)
    q_up1, q_down1, q_up2, q_down2 = _set_sizes(Q)
    return (
        all(map(le, up1, q_up2))
        and all(map(le, down1, q_down2))
        and all(map(le, q_up1, up2))
        and all(map(le, q_down1, down2))
    )


@lru_cache(maxsize=8192)
def _picture_count(P, Q):
    """Pictures between two same-size double posets.  A Gram build counts
    each pair once, so the bound costs it no hit.  An entry takes 0.16 KB,
    and up to 2.5 KB with two degree-6 keys that nothing else holds.  A pair
    whose set sizes admit no picture skips the search."""
    if not _sizes_admit_picture(P, Q):
        return 0
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


def _picture_pairing(P, Q):
    """Picture count of two same-size double posets, cached up to order."""
    return _picture_count(*sorted((P, Q), key=DoublePoset.sort_key))


@lru_cache(maxsize=8192)
def _extensions(P):
    """The linear extensions of a special poset as words, in lexicographic
    order: the one table of them, read by theta, the special pairing, the
    Gram matrix and the pairing radical.

    An entry takes at most 10 KB at degree 5 and 68 KB at degree 6 (the
    antichain's ``n!`` words).  All 4,231 special posets of degree 5 fit in
    the bound and take 3.9 MB together.  An entry outlives the cap it was made
    under, so a reader of a poset that no enumeration bounds checks it again
    (``poset_core._within_budget``).
    """
    return extension_words(P)


def _image_pairing(x, y):
    """The unnormalized pairing of two lists of ``(special poset,
    coefficient)`` terms through theta's image, an isometry onto the
    permutations, where a permutation pairs to 1 with its inverse only:
    theta(x) is accumulated once as word -> coefficient, and each term
    ``d*Q`` of y adds ``d`` times the coefficients of the inverses of Q's
    extension words."""
    image = {}
    budget = _word_budget()
    for P, c in x:
        for word in _within_budget(_extensions(P), budget):
            image[word] = image.get(word, 0) + c
    get = image.get
    total = 0
    for Q, d in y:
        v = sum(get(inverse_word(word), 0) for word in _within_budget(_extensions(Q), budget))
        if v:
            total += d * v
    return total


def pairing_basis(P, Q):
    """Number of bijections sending the first order of P into the second
    order of Q whose inverse sends the first order of Q into the second order
    of P (zero when sizes differ).

    Two routes give this count.  When both posets are special it is the
    number of linear extensions of P whose inverse is a linear extension of
    Q, the one-term case of :func:`_image_pairing`.  Otherwise the
    bijections (pictures) are counted directly.
    """
    if P.n != Q.n:
        return 0
    if is_special(P) and is_special(Q):
        return _image_pairing(((P, 1),), ((Q, 1),))
    return _picture_pairing(P, Q)


def _key_pairing(a, b):
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        if len(a.factors) != len(b.factors):
            raise ValueError("mixed basis kinds")
        value = 1
        for fa, fb in zip(a.factors, b.factors):
            value *= _key_pairing(fa, fb)
            if not value:
                break
        return value
    if isinstance(a, DoublePoset) and isinstance(b, DoublePoset):
        return pairing_basis(a, b)
    from .fqsym import Permutation, fq_pairing

    if isinstance(a, Permutation) and isinstance(b, Permutation):
        return fq_pairing(a, b)
    raise ValueError("mixed basis kinds")


def pairing(x, y):
    """Bilinear extension of the basis pairing; exact scalar result.

    Two all-special combinations pair through theta's image
    (:func:`_image_pairing`); any other pair of terms goes through
    :func:`pairing_basis`.
    """
    x = as_lincomb(x)
    y = as_lincomb(y)
    if all(map(is_special, (*x._terms, *y._terms))):
        return normalize_scalar(_image_pairing(x.items(), y.items()))
    total = 0
    for kx, cx in x.items():
        for ky, cy in y.items():
            v = _key_pairing(kx, ky)
            if v:
                total += cx * cy * v
    return normalize_scalar(total)


def _theta_incidence(basis):
    """theta's incidence on a basis of special posets: each extension word
    -> the indices of the elements that have it, in increasing order."""
    holders = {}
    for j, P in enumerate(basis):
        for word in _extensions(P):
            holders.setdefault(word, []).append(j)
    return holders


def _gram_by_extensions(basis):
    """Gram matrix of special posets, ``Θᵀ J Θ``: entry ``(i, j)`` counts the
    extension words of the ``i``-th poset whose inverse is an extension word
    of the ``j``-th, read off theta's incidence."""
    holders = _theta_incidence(basis)
    rows = []
    for P in basis:
        row = [0] * len(basis)
        for word in _extensions(P):
            for j in holders.get(inverse_word(word), ()):
                row[j] += 1
        rows.append(row)
    return rows


# The largest basis whose Gram matrix is built: hop 6 (4,824 elements) fits,
# while of 6 (16,807) would take tens of GB as a dense n^2 matrix.
_GRAM_MAX_BASIS = 8192


def _gram_basis(family, n):
    """``enumerate_family(family, n)``, refused when too large for a Gram
    matrix."""
    basis = enumerate_family(family, n)
    if len(basis) > _GRAM_MAX_BASIS:
        raise ValueError(f"basis too large for a Gram matrix: {len(basis)} elements")
    return basis


def _gram_of(basis):
    """The Gram matrix of a basis as row lists: by extension words when
    every element is special, by pictures otherwise."""
    if all(is_special(P) for P in basis):
        return _gram_by_extensions(basis)
    size = len(basis)
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            v = _picture_pairing(basis[i], basis[j])
            rows[i][j] = v
            rows[j][i] = v
    return rows


def gram_matrix(family, n):
    """Pairing matrix of ``enumerate_family(family, n)`` in canonical order,
    built anew on each call: a caller reads one Gram matrix once, and one
    takes 8 bytes a cell or more (0.12 MB for pp 5, 186 MB for hop 6)."""
    return _gram_of(_gram_basis(family, n))


# -- identity checks --------------------------------------------------------------


def _positive_degree(max_degree):
    """A check's degree bound as an int, refused unless positive."""
    max_degree = int(max_degree)
    if max_degree < 1:
        raise ValueError("max_degree must be positive")
    return max_degree


def _graded(family, max_degree):
    """The bases of ``family`` in degrees 1 to ``max_degree``, by degree."""
    return {n: enumerate_family(family, n) for n in range(1, max_degree + 1)}


def _collect(cases):
    """``(count, violations)`` of ``(fields, elements, lhs, rhs)`` cases, each
    an identity ``lhs == rhs`` on basis ``elements``; the one driver of the
    axiom suites and the graded-isometry check.  A failing case reports its
    ``fields``, its elements' literals, ``rhs`` as ``expected`` and ``lhs`` as
    ``got``: a combination as its literal, any other value by ``str``."""

    def show(value):
        return format_lincomb(value) if isinstance(value, LinComb) else str(value)

    count = 0
    violations = []
    for fields, elements, lhs, rhs in cases:
        count += 1
        if lhs != rhs:
            literals = [e.literal() for e in elements]
            violations.append({**fields, "elements": literals, "expected": show(rhs), "got": show(lhs)})
    return count, violations


# -- antipode --------------------------------------------------------------------


@lru_cache(maxsize=128)
def _key_antipode(key):
    """The antipode of one basis key, by the recursion over its reduced
    coproduct, which reaches at most ``2**n`` keys below degree ``n``.  An
    entry takes at most 9.6 KB at degree 5 and 28 KB at degree 6 for a poset,
    17 KB and 103 KB for a permutation, so the 128 keys used last stay under
    13 MB through degree 6.
    """
    if key_degree(key) == 0:
        return LinComb.basis(key)
    return LinComb(
        [(key, -1)]
        + [
            (k, -c * d)
            for T, c in reduced_coproduct(key).items()
            for k, d in lc_product(_key_antipode(T.factors[0]), T.factors[1]).items()
        ]
    )


def antipode(x):
    """Antipode of the graded connected bialgebra, by the standard recursion."""
    return as_lincomb(x).apply(_key_antipode)


# -- linear-combination literals ---------------------------------------------------


# The characters that shape a combination literal: brackets, signs and ``*``.
_LINCOMB_MARK = re.compile(r"[][()+*-]")


def _cut(s, start, star, end, pad):
    """The coefficient text (None without a ``*``) and the key text of the
    term ``s[start:end]`` whose last top-level ``*`` is at ``star``."""
    if star < 0:
        return None, s[start:end]
    return pad + s[start:star], s[star + 1 : end]


_POSET_TERM = re.compile(r"^(SP|PP|DP)\s*\(")


def _parse_basis_key(s):
    s = s.strip()
    if _POSET_TERM.match(s):
        return parse_poset(s)
    if s.startswith("[") or s == "∅" or s.isdigit():
        from .fqsym import parse_permutation

        return parse_permutation(s)
    raise ValueError(f"bad lincomb term: {s!r}")


def parse_lincomb(text):
    """Parse a combination literal like ``3/2*SP(2; 1<2) - SP(2;) + 2*21``.

    One scan over the brackets, signs and ``*`` splits the literal.  Outside
    brackets a ``+`` or ``-`` ends a nonblank term (signs in a row multiply),
    and a term's last ``*`` splits its coefficient from its basis key.  The
    terms are parsed after the scan, so a bracket error is reported first.
    """
    s = text.strip()
    if s == "0":
        return LinComb.zero()
    terms = []  # (sign, coefficient text or None, key text)
    depth = 0
    sign = 1
    start = 0  # where the current term's text starts
    star = -1  # the current term's last '*' outside brackets
    pad = ""  # blank text before signs that ended no term; it leads the term
    for m in _LINCOMB_MARK.finditer(s):
        ch = m.group()
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif depth == 0:
            at = m.start()
            if ch == "*":
                star = at
                continue
            if s[start:at].strip():
                terms.append((sign, *_cut(s, start, star, at, pad)))
                sign, pad = 1, ""
            else:
                pad += s[start:at]
            if ch == "-":
                sign = -sign
            start, star = at + 1, -1
    if depth != 0:
        raise ValueError(f"unbalanced brackets: {s!r}")
    if not s[start:].strip():
        raise ValueError(f"bad lincomb literal: {s!r}")
    terms.append((sign, *_cut(s, start, star, len(s), pad)))
    out = []
    for sign, coeff, key in terms:
        if coeff is None:
            coeff = 1
        elif (digits := coeff.strip()).isdigit() and digits.isascii():
            # the common plain integer stays an int, as LinComb stores it
            coeff = int(digits)
        else:
            coeff = parse_scalar(coeff)
        out.append((_parse_basis_key(key), sign * coeff))
    return LinComb(out)


def format_lincomb(x):
    """Canonical literal of a combination; inverse of :func:`parse_lincomb`."""
    x = as_lincomb(x)
    return _join_terms((key.literal(), coeff) for key, coeff in x.terms())


def _join_terms(terms):
    """The combination literal of ``(key literal, coefficient)`` pairs in
    canonical order."""
    pieces = []
    for lit, coeff in terms:
        if coeff == 1:
            pieces.append(("+", lit))
            continue
        if coeff == -1:
            pieces.append(("-", lit))
            continue
        s = format_scalar(coeff)
        if s.startswith("-") and "+" not in s[1:] and "-" not in s[1:]:
            pieces.append(("-", f"{s[1:]}*{lit}"))
        elif "+" in s or "-" in s:
            pieces.append(("+", f"({s})*{lit}"))
        else:
            pieces.append(("+", f"{s}*{lit}"))
    if not pieces:
        return "0"
    sign, body = pieces[0]
    out = body if sign == "+" else "-" + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out
