"""Permutations, shuffles, cuts: the Hopf algebra of standardized words.

The basis is indexed by permutations written in one-line notation.  The
product shuffles two words (second one shifted), the coproduct cuts a word
and standardizes both halves, and the pairing makes a permutation dual to
its inverse.  Half-coproducts split the cuts of a word according to which
side its maximal letter lands on.  ``algebra`` keeps one cached cut list per
key; the full, reduced and half coproducts here are its filters, and the
half-coproduct split is the one theta carries the special-poset split to.
"""

from __future__ import annotations

import itertools
import re
from math import comb

from .algebra import LinComb, Tensor, _half_coproducts, as_lincomb, coproduct, reduced_coproduct
from .poset_core import _word_budget, inverse_word

__all__ = [
    "Permutation",
    "fq_coproduct",
    "fq_dendriform_coproducts",
    "fq_nwarrow",
    "fq_pairing",
    "fq_reduced_coproduct",
    "format_permutation",
    "inversions",
    "parse_permutation",
    "shuffle_product",
    "standardize",
    "weak_interval_down",
    "weak_order_leq",
]


class Permutation:
    """Permutation of {1..n} in one-line notation.

    The constructor checks its word; the words this package builds itself
    are valid by construction and go through :meth:`_trusted` instead.  The
    hash is stored at construction and the sort key on first use.
    """

    __slots__ = ("word", "_hash", "_key")

    def __init__(self, word):
        w = tuple(int(a) for a in word)
        if sorted(w) != list(range(1, len(w) + 1)):
            raise ValueError("not a permutation")
        self._set(w)

    def _set(self, word):
        self.word = word
        self._hash = hash(("perm", word))
        self._key = None

    @classmethod
    def _trusted(cls, word):
        """A permutation of a tuple of ints already known to list 1..n."""
        self = object.__new__(cls)
        self._set(word)
        return self

    @property
    def n(self):
        return len(self.word)

    def __call__(self, i):
        return self.word[i - 1]

    def inverse(self):
        return Permutation._trusted(inverse_word(self.word))

    def compose(self, other):
        """self after other: ``(self.compose(other))(i) == self(other(i))``."""
        if self.n != other.n:
            raise ValueError("not a permutation")
        return Permutation._trusted(tuple(self.word[v - 1] for v in other.word))

    def sort_key(self):
        key = self._key
        if key is None:
            key = self._key = (len(self.word), self.word)
        return key

    def literal(self):
        return format_permutation(self)

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.word == other.word

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return format_permutation(self)


def format_permutation(p):
    """One-line word: digit string up to n = 9, bracketed list beyond."""
    if p.n == 0:
        return "[]"
    if p.n <= 9:
        return "".join(str(a) for a in p.word)
    return "[" + ",".join(str(a) for a in p.word) + "]"


def parse_permutation(text):
    """Parse ``312``, ``[3,1,2]``, ``[]`` or ``∅``."""
    s = text.strip()
    if s in ("[]", "∅"):
        return Permutation(())
    if s.startswith("[") and s.endswith("]"):
        body = s[1:-1].strip()
        if not body:
            return Permutation(())
        return Permutation(int(part) for part in body.split(","))
    if s.isdigit():
        return Permutation(int(ch) for ch in s)
    raise ValueError(f"bad permutation literal: {text!r}")


def standardize(letters):
    """Standardization: replace distinct integers by their ranks 1..n."""
    values = tuple(int(a) for a in letters)
    if len(set(values)) != len(values):
        raise ValueError("repeated letters")
    rank = {v: i + 1 for i, v in enumerate(sorted(values))}
    return Permutation._trusted(tuple(rank[v] for v in values))


def _shuffle_words(a, b, budget):
    """Each interleaving of the words ``a`` and ``b`` as ``(positions of a,
    word)``, refused before the first when there are more than ``budget``,
    which a caller takes from ``poset_core._word_budget`` once per call."""
    n, m = len(a), len(b)
    if comb(n + m, n) > budget:
        raise ValueError("too many shuffles")
    for positions in itertools.combinations(range(n + m), n):
        word = [0] * (n + m)
        taken = set(positions)
        for idx, pos in enumerate(positions):
            word[pos] = a[idx]
        rest = iter(b)
        for pos in range(n + m):
            if pos not in taken:
                word[pos] = next(rest)
        yield positions, word


def shuffle_product(p, q):
    """Shifted shuffle: all interleavings of p with q raised above it."""
    shifted = tuple(v + p.n for v in q.word)
    return LinComb(
        (Permutation._trusted(tuple(word)), 1)
        for _, word in _shuffle_words(p.word, shifted, _word_budget())
    )


def _cuts(p):
    """Each cut of the word, as ``(right, Tensor(left, right))`` with both
    halves standardized and ``right`` the bitmask of the values in the right
    half; the cut list that ``algebra`` caches per key."""
    out = []
    right = (1 << p.n) - 1
    for k in range(p.n + 1):
        out.append((right, Tensor(standardize(p.word[:k]), standardize(p.word[k:]))))
        if k < p.n:
            right ^= 1 << (p.word[k] - 1)
    return tuple(out)


def fq_coproduct(p):
    """All cuts of the word, both halves standardized."""
    return coproduct(p)


def fq_reduced_coproduct(p):
    """Cuts with both halves nonempty."""
    return reduced_coproduct(p)


def fq_pairing(p, q):
    """1 when q is the inverse of p, else 0."""
    return 1 if p.word == q.inverse().word else 0


def inversions(p):
    """Pairs of values (a, b) with a < b and a appearing after b in the word."""
    out = set()
    for i, b in enumerate(p.word):
        for a in p.word[i + 1 :]:
            if a < b:
                out.add((a, b))
    return frozenset(out)


def weak_order_leq(p, q):
    """Right weak order by inversion-set containment."""
    if p.n != q.n:
        raise ValueError("degree mismatch")
    return inversions(p) <= inversions(q)


def weak_interval_down(q):
    """All permutations below q in right weak order, in word order."""
    target = inversions(q)
    return [
        p
        for word in itertools.permutations(range(1, q.n + 1))
        if inversions(p := Permutation._trusted(word)) <= target
    ]


def _nwarrow_words(p, q, budget):
    if not (isinstance(p, Permutation) and isinstance(q, Permutation)):
        raise ValueError("mixed basis kinds")
    if p.n == 0 or q.n == 0:
        raise ValueError("nwarrow needs nonempty operands")
    shifted = tuple(v + p.n for v in q.word)
    top = p.word.index(p.n)
    for positions, word in _shuffle_words(p.word, shifted, budget):
        # No letter of q before the maximal letter of p.
        if positions[top] == top:
            yield Permutation._trusted(tuple(word))


def fq_nwarrow(x, y):
    """Bilinear in permutations (or combinations of them): the shuffles of p
    with shifted q in which every letter of q lands after the maximal letter
    of p."""
    x = as_lincomb(x)
    y = as_lincomb(y)
    budget = _word_budget()
    return LinComb(
        (word, a * b)
        for p, a in x.items()
        for q, b in y.items()
        for word in _nwarrow_words(p, q, budget)
    )


def fq_dendriform_coproducts(x):
    """Half-coproduct pair (prec, succ) of a permutation or a combination of
    them: cuts keeping the maximal letter in the left, resp. right, half.
    Trivial cuts are excluded."""
    x = as_lincomb(x)
    if any(p.n == 0 for p, _ in x.items()):
        raise ValueError("empty permutation")
    return _half_coproducts(x)
