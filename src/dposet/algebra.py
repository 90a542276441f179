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

from .poset_core import (
    DoublePoset,
    SpecialPoset,
    compose,
    enumerate_family,
    extension_words,
    ideals,
    inverse_word,
    is_special,
    parse_poset,
    restrict,
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
            num = Fraction(m.group("num").replace(" ", ""))
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
    """

    __slots__ = ("_terms", "_sorted")

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        acc = {}
        get = acc.get
        for key, coeff in items:
            if type(coeff) is not Fraction:
                coeff = normalize_scalar(coeff)
            old = get(key)
            if old is not None:
                coeff = old + coeff
                if type(coeff) is not Fraction:
                    coeff = normalize_scalar(coeff)
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
        return self._terms.get(key, Fraction(0))

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
        return LinComb((k, c / scalar) for k, c in self._terms.items())

    def __bool__(self):
        return bool(self._terms)

    def is_zero(self):
        return not self._terms

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
    result = [((), Fraction(1))]
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


def require_augmented(x):
    """Reject combinations outside the augmentation ideal."""
    x = as_lincomb(x)
    if any(key_degree(k) == 0 for k in x.support()):
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


@lru_cache(maxsize=None)
def _key_coproduct(key):
    if isinstance(key, DoublePoset):
        labels = frozenset(range(1, key.n + 1))
        return LinComb(
            (Tensor(restrict(key, labels - ideal), restrict(key, ideal)), 1)
            for ideal in ideals(key)
        )
    from .fqsym import Permutation, fq_coproduct

    if isinstance(key, Permutation):
        return fq_coproduct(key)
    raise TypeError(f"no coproduct on keys of this kind: {key!r}")


def coproduct(x):
    """Full coproduct: sum over up-sets I of (P restricted away from I) (x) (P
    restricted to I), including the two trivial ideals."""
    return as_lincomb(x).apply(_key_coproduct)


def reduced_coproduct(x):
    """Coproduct without the two trivial terms (both factors nonempty)."""
    def reduced(key):
        return LinComb(
            (T, c)
            for T, c in _key_coproduct(key).items()
            if all(key_degree(f) > 0 for f in T.factors)
        )

    return as_lincomb(x).apply(reduced)


@lru_cache(maxsize=None)
def _picture_count(P, Q):
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
def _extension_sets(P):
    """The linear extensions of a special poset and their inverses, as two
    frozensets of words.

    An entry takes at most 19 KB at degree 5 and 161 KB at degree 6 (the
    antichain's ``2 * n!`` words).  All 4,231 special posets of degree 5 fit
    in the bound and take 14 MB together.
    """
    words = extension_words(P)
    return frozenset(words), frozenset(map(inverse_word, words))


def pairing_basis(P, Q):
    """Number of bijections sending the first order of P into the second
    order of Q whose inverse sends the first order of Q into the second order
    of P (zero when sizes differ).

    Two routes give this count.  When both posets are special it is the
    number of linear extensions of P whose inverse is a linear extension of
    Q, since theta is an isometry onto the permutations, where a permutation
    pairs to 1 with its inverse only.  Otherwise the bijections (pictures)
    are counted directly.
    """
    if P.n != Q.n:
        return 0
    if is_special(P) and is_special(Q):
        return len(_extension_sets(P)[0] & _extension_sets(Q)[1])
    return _picture_pairing(P, Q)


def _key_pairing(a, b):
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        if len(a.factors) != len(b.factors):
            raise ValueError("mixed basis kinds")
        value = Fraction(1)
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
    """Bilinear extension of the basis pairing; exact scalar result."""
    total = Fraction(0)
    x = as_lincomb(x)
    y = as_lincomb(y)
    for kx, cx in x.items():
        for ky, cy in y.items():
            v = _key_pairing(kx, ky)
            if v:
                total = normalize_scalar(total + cx * cy * v)
    return normalize_scalar(total)


def _gram_by_extensions(basis):
    """Gram matrix of special posets: entry ``(i, j)`` counts the extension
    words of the ``i``-th poset whose inverse is an extension word of the
    ``j``-th, found by bucketing every poset under each of its words."""
    words = [extension_words(P) for P in basis]
    holders = {}
    for j, ws in enumerate(words):
        for word in ws:
            holders.setdefault(word, []).append(j)
    rows = []
    for ws in words:
        row = [0] * len(basis)
        for word in ws:
            for j in holders.get(inverse_word(word), ()):
                row[j] += 1
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None)
def _gram_cached(family, n):
    basis = enumerate_family(family, n)
    if all(is_special(P) for P in basis):
        return _gram_by_extensions(basis)
    size = len(basis)
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            v = _picture_pairing(basis[i], basis[j])
            rows[i][j] = v
            rows[j][i] = v
    return tuple(tuple(row) for row in rows)


def gram_matrix(family, n):
    """Pairing matrix of ``enumerate_family(family, n)`` in canonical order."""
    return [list(row) for row in _gram_cached(family, n)]


# -- antipode --------------------------------------------------------------------

_ANTIPODE_CACHE = {}


def _key_antipode(key):
    cached = _ANTIPODE_CACHE.get(key)
    if cached is not None:
        return cached
    if key_degree(key) == 0:
        result = LinComb.basis(key)
    else:
        result = LinComb(
            [(key, -1)]
            + [
                (k, -c * d)
                for T, c in reduced_coproduct(key).items()
                for k, d in lc_product(_key_antipode(T.factors[0]), T.factors[1]).items()
            ]
        )
    _ANTIPODE_CACHE[key] = result
    return result


def antipode(x):
    """Antipode of the graded connected bialgebra, by the standard recursion."""
    return as_lincomb(x).apply(_key_antipode)


# -- linear-combination literals ---------------------------------------------------


def _split_signed_terms(s):
    terms = []
    depth = 0
    sign = 1
    cur = ""
    for ch in s:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if depth == 0 and ch in "+-":
            if cur.strip():
                terms.append((sign, cur))
                cur = ""
                sign = 1
            if ch == "-":
                sign = -sign
            continue
        cur += ch
    if depth != 0:
        raise ValueError(f"unbalanced brackets: {s!r}")
    if not cur.strip():
        raise ValueError(f"bad lincomb literal: {s!r}")
    terms.append((sign, cur))
    return terms


def _parse_basis_key(s):
    s = s.strip()
    if re.match(r"^(SP|PP|DP)\s*\(", s):
        return parse_poset(s)
    if s.startswith("[") or s == "∅" or s.isdigit():
        from .fqsym import parse_permutation

        return parse_permutation(s)
    raise ValueError(f"bad lincomb term: {s!r}")


def parse_lincomb(text):
    """Parse a combination literal like ``3/2*SP(2; 1<2) - SP(2;) + 2*21``."""
    s = text.strip()
    if s == "0":
        return LinComb.zero()
    out = []
    for sign, term in _split_signed_terms(s):
        depth = 0
        split_at = None
        for idx, ch in enumerate(term):
            if ch in "([":
                depth += 1
            elif ch in ")]":
                depth -= 1
            elif ch == "*" and depth == 0:
                split_at = idx
        if split_at is None:
            coeff = Fraction(1)
            body = term
        else:
            coeff = parse_scalar(term[:split_at])
            body = term[split_at + 1 :]
        out.append((_parse_basis_key(body), sign * coeff))
    return LinComb(out)


def format_lincomb(x):
    """Canonical literal of a combination; inverse of :func:`parse_lincomb`."""
    x = as_lincomb(x)
    if not x:
        return "0"
    pieces = []
    for key, coeff in x.terms():
        lit = key.literal()
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
    sign, body = pieces[0]
    out = body if sign == "+" else "-" + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out
