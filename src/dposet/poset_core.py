"""Double posets: representation, parsing, classification, and enumeration.

A *double poset* is a finite set carrying two strict partial orders.  Values
here are immutable, live on the labels ``1..n``, and store each order
transitively closed as per-vertex bitmasks of strict upper bounds, so
equality and hashing are structural.  A *special* poset is a double poset
whose second order is the natural total order on the labels; the empty poset
(``n = 0``) is the unit of the composition product.

The literal grammar is whitespace-insensitive:

* ``SP(n; a<b, c<d, ...)`` — special poset; the pairs generate the first
  order, the second order is the natural order on ``1..n``;
* ``PP(n; h: a<b, ...; r: a<b, ...)`` — plane double poset with its two
  orders named ``h`` and ``r``;
* ``DP(n; o1: a<b, ...; o2: a<b, ...)`` — general double poset.

Pairs may be covering pairs or any generating set; the stored relation is
the transitive closure, and printing always uses covering pairs.
"""

from __future__ import annotations

import itertools
import os
import re
from enum import Enum
from functools import lru_cache
from math import factorial

__all__ = [
    "DP_ENUMERATION_CAP",
    "DoublePoset",
    "Family",
    "SpecialPoset",
    "b_plus",
    "canonical_form",
    "classify",
    "compose",
    "empty_poset",
    "enumerate_family",
    "extension_words",
    "format_poset",
    "has_forest_hasse",
    "ideals",
    "induced_order_ranks",
    "inverse_word",
    "iota",
    "is_heap_forest",
    "is_heap_ordered",
    "is_ordered_forest",
    "is_plane",
    "is_plane_forest",
    "is_plane_wn",
    "is_special",
    "is_special_plane",
    "is_special_plane_forest",
    "is_special_wn",
    "kappa",
    "max_degree",
    "nwarrow",
    "parse_poset",
    "plane_version",
    "restrict",
    "reverse_rel2",
]


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _close(n, pairs):
    """Closed upper-bound masks of the relation generated by ``pairs``."""
    up = [0] * n
    for a, b in pairs:
        a = int(a)
        b = int(b)
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError("bad label")
        if a == b:
            raise ValueError("not antisymmetric")
        up[a - 1] |= 1 << (b - 1)
    for k in range(n):
        kbit = 1 << k
        for i in range(n):
            if up[i] & kbit:
                up[i] |= up[k]
    for i in range(n):
        if (up[i] >> i) & 1:
            raise ValueError("not antisymmetric")
    return tuple(up)


def _downs(n, up):
    down = [0] * n
    for v in range(n):
        for w in _bits(up[v]):
            down[w] |= 1 << v
    return tuple(down)


@lru_cache(maxsize=None)
def _natural_up(n):
    full = (1 << n) - 1
    return tuple(full ^ ((1 << (v + 1)) - 1) for v in range(n))


def _pair_code(n, *ups):
    """The closure pairs of each order, flattened, each order closed by a 0.

    Labels are at least 1, so the code of two orders compares like
    ``(pairs(1), pairs(2))``, and that of one order like its pair list.
    """
    flat = []
    for up in ups:
        for v in range(n):
            m = up[v]
            while m:
                low = m & -m
                flat += (v + 1, low.bit_length())
                m ^= low
        flat.append(0)
    return bytes(flat) if n < 256 else tuple(flat)


class DoublePoset:
    """Two strict partial orders on the labels 1..n, stored closed.

    The hash is stored at construction, the sort key and down masks on first use.
    """

    __slots__ = ("n", "up1", "up2", "_down1", "_down2", "_hash", "_key")

    def __init__(self, n, pairs1=(), pairs2=()):
        n = int(n)
        if n < 0:
            raise ValueError("bad label")
        self._set(n, _close(n, pairs1), _close(n, pairs2))

    def _set(self, n, up1, up2):
        self.n = n
        self.up1 = up1
        self.up2 = up2
        self._down1 = self._down2 = None
        self._hash = hash((n, up1, up2))
        self._key = None

    @property
    def down1(self):
        """Closed lower-bound masks of the first order; most posets never read them."""
        if self._down1 is None:
            self._down1 = _downs(self.n, self.up1)
        return self._down1

    @property
    def down2(self):
        """Closed lower-bound masks of the second order."""
        if self._down2 is None:
            self._down2 = _downs(self.n, self.up2)
        return self._down2

    @classmethod
    def _from_masks(cls, n, up1, up2):
        """Fast path for masks that are already closed and antisymmetric."""
        up2 = tuple(up2)
        target = SpecialPoset if up2 == _natural_up(n) else DoublePoset
        self = object.__new__(target)
        self._set(n, tuple(up1), up2)
        return self

    # -- structural accessors -------------------------------------------

    def less(self, a, b, order=1):
        """True iff ``a < b`` in the chosen order (arguments are labels)."""
        up = self.up1 if order == 1 else self.up2
        return bool((up[a - 1] >> (b - 1)) & 1)

    def pairs(self, order=1):
        """Sorted transitive-closure pairs ``(a, b)`` with ``a < b`` in the order.

        The walk runs by lower label and then by upper label, so it is sorted.
        """
        up = self.up1 if order == 1 else self.up2
        return [(v + 1, w + 1) for v in range(self.n) for w in _bits(up[v])]

    def covers(self, order=1):
        """Sorted covering pairs (Hasse edges) of the chosen order.

        The upper covers of ``v`` are its upper bounds minus everything above
        one of them; reading each cover mask from its low bit gives the pairs
        in order.
        """
        up = self.up1 if order == 1 else self.up2
        out = []
        for v in range(self.n):
            above = up[v]
            beyond = 0
            m = above
            while m:
                low = m & -m
                beyond |= up[low.bit_length() - 1]
                m ^= low
            m = above & ~beyond
            while m:
                low = m & -m
                out.append((v + 1, low.bit_length()))
                m ^= low
        return out

    def sort_key(self):
        """Orders like ``(n, pairs(1), pairs(2))``, in a compact form."""
        key = self._key
        if key is None:
            key = self._key = (self.n, _pair_code(self.n, self.up1, self.up2))
        return key

    def literal(self):
        return format_poset(self)

    # -- value semantics --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, DoublePoset):
            return NotImplemented
        return self.n == other.n and self.up1 == other.up1 and self.up2 == other.up2

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return format_poset(self)


class SpecialPoset(DoublePoset):
    """Double poset whose second order is the natural total order on 1..n."""

    __slots__ = ()

    def __init__(self, n, pairs1=()):
        n = int(n)
        if n < 0:
            raise ValueError("bad label")
        self._set(n, _close(n, pairs1), _natural_up(n))


@lru_cache(maxsize=8192)
def _special_poset(up1):
    """The live special poset whose first order has the closed masks ``up1``.

    The kernels that derive special posets from others (restriction,
    composition, the northwest graft and B+) build them here, so equal
    results are one object: dictionary lookups among them stop at identity,
    and each object makes its sort key and down masks once.  Equality and
    hashing stay by value, so a poset built elsewhere, or rebuilt after an
    eviction, still equals the live one.  Enumeration and parsing stay off
    the table.  By a ``sys.getsizeof`` walk, with the cache's link and key, an
    entry takes at most 0.30 KB at degree 5 and 0.31 KB at degree 6, and
    0.52 KB and 0.55 KB once its sort key and down masks are made, so the
    8,192 entries stay under 4.5 MB.
    """
    n = len(up1)
    return DoublePoset._from_masks(n, up1, _natural_up(n))


def empty_poset():
    """The empty special poset, the unit of the composition product."""
    return SpecialPoset(0)


# -- literals ----------------------------------------------------------------

_POSET_HEAD = re.compile(r"^\s*(SP|PP|DP)\s*\(\s*(\d+)\s*;(.*)\)\s*$", re.S)
_PAIR = re.compile(r"^\s*(\d+)\s*<\s*(\d+)\s*$")


def _parse_pairs(body):
    body = body.strip()
    if body in ("", "∅", "-"):
        return []
    pairs = []
    for piece in body.split(","):
        m = _PAIR.match(piece)
        if not m:
            raise ValueError(f"bad pair: {piece.strip()!r}")
        pairs.append((int(m.group(1)), int(m.group(2))))
    return pairs


def parse_poset(text):
    """Parse an ``SP``/``PP``/``DP`` literal."""
    m = _POSET_HEAD.match(text)
    if not m:
        raise ValueError(f"bad poset literal: {text!r}")
    kind, n, body = m.group(1), int(m.group(2)), m.group(3)
    if kind == "SP":
        return SpecialPoset(n, _parse_pairs(body))
    parts = body.split(";")
    tags = ("h", "r") if kind == "PP" else ("o1", "o2")
    if len(parts) != 2:
        raise ValueError(f"bad poset literal: {text!r}")
    rels = []
    for part, tag in zip(parts, tags):
        part = part.strip()
        if not part.startswith(tag + ":"):
            raise ValueError(f"bad poset literal: {text!r}")
        rels.append(_parse_pairs(part[len(tag) + 1 :]))
    return DoublePoset(n, rels[0], rels[1])


def _format_pairs(pairs):
    if not pairs:
        return ""
    return " " + ", ".join(f"{a}<{b}" for a, b in pairs)


def format_poset(P):
    """Canonical literal: SP form when special, PP form when plane, else DP."""
    if is_special(P):
        return f"SP({P.n};{_format_pairs(P.covers(1))})"
    if is_plane(P):
        return f"PP({P.n}; h:{_format_pairs(P.covers(1))}; r:{_format_pairs(P.covers(2))})"
    return f"DP({P.n}; o1:{_format_pairs(P.covers(1))}; o2:{_format_pairs(P.covers(2))})"


# -- membership predicates ---------------------------------------------------


def is_special(P):
    """True iff the second order is the natural total order on labels.

    Keys that are not double posets, such as permutations, belong to no
    family of this module.
    """
    return isinstance(P, DoublePoset) and P.up2 == _natural_up(P.n)


def is_plane(P):
    """True iff every two distinct labels are comparable in exactly one order."""
    if not isinstance(P, DoublePoset):
        return False
    for v in range(P.n):
        for w in range(v + 1, P.n):
            c1 = ((P.up1[v] >> w) | (P.up1[w] >> v)) & 1
            c2 = ((P.up2[v] >> w) | (P.up2[w] >> v)) & 1
            if c1 == c2:
                return False
    return True


def is_heap_ordered(P):
    """Special, and the first order only increases labels."""
    if not is_special(P):
        return False
    nat = _natural_up(P.n)
    return all((P.up1[v] & ~nat[v]) == 0 for v in range(P.n))


def _forest(up, down):
    """Every vertex has at most one lower cover, on closed up- and down-masks."""
    for below in down:
        found = 0
        for u in _bits(below):
            if not (up[u] & below):
                found += 1
                if found > 1:
                    return False
    return True


def has_forest_hasse(P):
    """Every vertex has at most one lower cover in the first order."""
    return _forest(P.up1, P.down1)


def is_ordered_forest(P):
    return is_special(P) and has_forest_hasse(P)


def is_heap_forest(P):
    return is_heap_ordered(P) and has_forest_hasse(P)


def is_special_plane(P):
    """Definitional route: heap-ordered, and the complementary relation is an
    order.

    The complementary relation keeps the label pairs that are incomparable in
    the first order; it must be transitive for (first order, complement) to
    form a plane poset whose induced total order is the label order.
    """
    if not is_heap_ordered(P):
        return False
    r = _complement(P)
    return not any(r[w] & ~r[v] for v in range(P.n) for w in _bits(r[v]))


def _complement(P):
    """The second order kept only on the pairs incomparable in the first."""
    return [P.up2[v] & ~(P.up1[v] | P.down1[v]) for v in range(P.n)]


def _n_free(up, down):
    """No four labels induce an N (``a < b``, ``c < b``, ``c < d``, every
    other pair incomparable), on closed up- and down-masks.  An ``a`` below
    ``b`` and not below ``d`` is incomparable to ``d`` and below no ``c``
    below ``d``, so it need only not be above ``c``."""
    full = (1 << len(up)) - 1
    for b, below in enumerate(down):
        for d in _bits(full & ~below):  # d >= b leaves no candidates
            lone = below & ~down[d]  # the candidates for a
            if lone:
                for c in _bits(below & down[d]):
                    if lone & ~up[c]:
                        return False
    return True


def is_plane_wn(P):
    """Plane, and no four labels induce either N-shaped plane poset.

    Those two are the plane posets on four labels whose first order is an N,
    and a restriction of a plane poset is plane with the induced suborder as
    its first order, so this is a test of the first order alone."""
    return is_plane(P) and _n_free(P.up1, P.down1)


def is_special_wn(P):
    return is_special_plane(P) and _n_free(P.up1, P.down1)


def is_special_plane_forest(P):
    return is_special_plane(P) and has_forest_hasse(P)


def is_plane_forest(P):
    return is_plane(P) and has_forest_hasse(P)


def extension_words(P):
    """The linear extensions of the first order of ``P``: every word listing
    the labels so that lower comes before higher, as tuples in lexicographic
    order.

    This is the one enumerator of linear extensions, and
    ``algebra._extensions`` the one table that keeps them.  It refuses a
    poset with more words than :func:`_word_budget` allows.  It walks on a
    stack of its own, not Python's, so any number of labels fits.
    """
    down1 = P.down1
    budget = _word_budget()
    alive = (1 << P.n) - 1  # the labels not yet in the word
    if not alive:
        return ((),)
    words, word, stack = [], [], []  # stack: the labels left to try at each earlier position
    left = alive  # the labels left to try at the word's next position
    while True:
        while left:
            low = left & -left
            left ^= low
            idx = low.bit_length() - 1
            if down1[idx] & alive:
                continue
            if alive == low:
                if len(words) == budget:
                    raise ValueError("too many linear extensions")
                words.append((*word, idx + 1))
                continue
            word.append(idx + 1)
            alive ^= low
            stack.append(left)
            left = alive
        if not stack:
            return tuple(words)
        left = stack.pop()
        alive |= 1 << (word.pop() - 1)


def inverse_word(word):
    """The one-line word of the inverse permutation of ``word``."""
    inv = [0] * len(word)
    for pos, value in enumerate(word, 1):
        inv[value - 1] = pos
    return tuple(inv)


# -- constructions -----------------------------------------------------------


def compose(P, Q):
    """Composition product: disjoint union, all of P below all of Q in order 2."""
    n, m = P.n, Q.n
    up1 = P.up1 + tuple(u << n for u in Q.up1)
    if isinstance(P, SpecialPoset) and isinstance(Q, SpecialPoset):
        return _special_poset(up1)
    cross = ((1 << m) - 1) << n
    up2 = [u | cross for u in P.up2] + [u << n for u in Q.up2]
    return DoublePoset._from_masks(n + m, up1, up2)


def _closed_sets(up, rest):
    """The subsets of the mask ``rest`` closed upward within it (with ``v``,
    each label of ``up[v] & rest``), in the order of their label lists.

    Each step decides the least undecided label: in, with its up-mask,
    unless that mask meets a label already put out; or out.  A decision
    never contradicts an earlier one, so every branch ends in a set and the
    walk costs O(n) mask steps per set.  The in branch goes first, so a set
    precedes another when the least label of their difference lies in it.
    """
    out = []
    stack = [(0, 0)]  # the out branches left: (labels put in, labels put out)
    while stack:
        inside, outside = stack.pop()
        while True:
            free = rest & ~(inside | outside)
            if not free:
                out.append(inside)
                break
            low = free & -free
            add = up[low.bit_length() - 1] & rest
            if add & outside:
                outside |= low
            else:
                stack.append((inside, outside | low))
                inside |= add | low
    return out


def _up_sets(P):
    """The up-sets of the first order as bitmasks, sorted by (size, labels)."""
    return sorted(_closed_sets(P.up1, (1 << P.n) - 1), key=int.bit_count)


def ideals(P):
    """All up-sets of the first order, as label sets sorted by (size, labels)."""
    return [frozenset(v + 1 for v in _bits(S)) for S in _up_sets(P)]


def restrict(P, labels):
    """Both orders restricted to ``labels``, relabeled 1..k by increasing label."""
    labels = set(labels)
    if not all(1 <= a <= P.n for a in labels):
        raise ValueError("bad label")
    return _restrict(P, sum(1 << (a - 1) for a in labels))


def _restrict(P, keep):
    """:func:`restrict` to the labels of the bitmask ``keep``: each kept
    vertex's masks, cut to ``keep``, are packed down to the kept bits.

    The natural order restricts to the natural order, so a special poset
    packs only its first order and takes its result from the table.
    """
    packed = [0] * P.n  # the bit each kept vertex takes after packing
    kept = []
    bit = 1
    rest = keep
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        packed[v] = bit
        kept.append(v)
        bit <<= 1
        rest ^= low
    special = isinstance(P, SpecialPoset)
    rows = []
    for up in (P.up1,) if special else (P.up1, P.up2):
        for v in kept:
            m = up[v] & keep
            row = 0
            while m:
                low = m & -m
                row |= packed[low.bit_length() - 1]
                m ^= low
            rows.append(row)
    if special:
        return _special_poset(tuple(rows))
    k = len(kept)
    return DoublePoset._from_masks(k, rows[:k], rows[k:])


def iota(P):
    """Exchange the two orders."""
    return DoublePoset._from_masks(P.n, P.up2, P.up1)


def reverse_rel2(P):
    """Reverse the second order, keeping the first."""
    return DoublePoset._from_masks(P.n, P.up1, P.down2)


def _relabel(P, new_of_old):
    n = P.n
    up1 = [0] * n
    up2 = [0] * n
    for v in range(n):
        nv = new_of_old[v]
        for w in _bits(P.up1[v]):
            up1[nv] |= 1 << new_of_old[w]
        for w in _bits(P.up2[v]):
            up2[nv] |= 1 << new_of_old[w]
    return DoublePoset._from_masks(n, up1, up2)


def induced_order_ranks(P):
    """0-based rank of each vertex in the total order generated by both orders.

    Raises ValueError("induced order not total") when the union of the two
    orders is not a total order.
    """
    n = P.n
    closed = [P.up1[v] | P.up2[v] for v in range(n)]
    for k in range(n):
        kbit = 1 << k
        for i in range(n):
            if closed[i] & kbit:
                closed[i] |= closed[k]
    for v in range(n):
        if (closed[v] >> v) & 1:
            raise ValueError("induced order not total")
    for v in range(n):
        for w in range(v + 1, n):
            if not (((closed[v] >> w) | (closed[w] >> v)) & 1):
                raise ValueError("induced order not total")
    return [n - 1 - bin(m).count("1") for m in closed]


def plane_version(P):
    """The plane incarnation of a special plane poset.

    The first order is kept; the second becomes the natural order restricted
    to pairs that are incomparable in the first order.  Together the two
    orders form a plane poset whose induced total order is the label order.
    """
    if not is_special_plane(P):
        raise ValueError("not a special plane poset")
    return DoublePoset._from_masks(P.n, P.up1, _complement(P))


def canonical_form(P):
    """Canonical representative of the isomorphism class of a double poset.

    Special posets are already canonical; plane posets are relabeled along
    their induced total order; other double posets (supported up to 8
    vertices) take the lexicographically least relabeling.
    """
    if is_special(P):
        return DoublePoset._from_masks(P.n, P.up1, P.up2)
    if is_plane(P):
        return _relabel(P, induced_order_ranks(P))
    if P.n > 8:
        raise ValueError("canonical form of general double posets supported only up to 8 vertices")
    best = None
    best_key = None
    for perm in itertools.permutations(range(P.n)):
        Q = _relabel(P, perm)
        key = (Q.up1, Q.up2)
        if best_key is None or key < best_key:
            best, best_key = Q, key
    return best


def kappa(P):
    """Label of the largest element (induced order) of a plane poset whose
    induced lower bounds are all lower bounds in the first order."""
    if P.n == 0:
        raise ValueError("empty poset")
    if not is_plane(P):
        raise ValueError("not plane")
    ranks = induced_order_ranks(P)
    return _kappa_vertex(P, (1 << P.n) - 1, ranks) + 1


def _kappa_vertex(P, alive, ranks):
    best = -1
    best_rank = -1
    for v in _bits(alive):
        if P.down2[v] & alive & ~P.down1[v]:
            continue
        if ranks[v] > best_rank:
            best, best_rank = v, ranks[v]
    return best


def nwarrow(P, Q):
    """Northwest graft of special posets: disjoint union, Q stacked above P in
    the second order, and everything weakly below the maximum label of P put
    below every vertex of Q in the first order."""
    if P.n == 0 or Q.n == 0:
        raise ValueError("nwarrow needs nonempty operands")
    if not (is_special(P) and is_special(Q)):
        raise ValueError("nwarrow needs special posets")
    n, m = P.n, Q.n
    below_top = P.down1[n - 1] | (1 << (n - 1))
    qmask = ((1 << m) - 1) << n
    up1 = [P.up1[v] | (qmask if (below_top >> v) & 1 else 0) for v in range(n)]
    up1 += [u << n for u in Q.up1]
    return _special_poset(tuple(up1))


def b_plus(F):
    """Graft a special plane forest onto a new common root, labeled 1."""
    if not is_special_plane_forest(F):
        raise ValueError("B+ requires plane forest")
    n = F.n
    return _special_poset(((1 << (n + 1)) - 2, *(u << 1 for u in F.up1)))


# -- families and enumeration --------------------------------------------------

DP_ENUMERATION_CAP = 4


class Family(str, Enum):
    """Named families of double posets.

    The first eight tags are the special-poset lattice; the last three are
    the plane incarnations of the plane families (same posets, both orders
    partial), which carry a different pairing.
    """

    DP = "dp"      # all double posets
    SP = "sp"      # special: second order is the natural order
    HOP = "hop"    # heap-ordered: first order increases labels
    OF = "of"      # ordered forests: special with forest diagram
    HOF = "hof"    # heap-ordered forests
    SPP = "spp"    # special plane posets
    SWNP = "swnp"  # special plane posets without N configurations
    SPF = "spf"    # special plane forests
    PP = "pp"      # plane posets
    WNP = "wnp"    # plane posets without N configurations
    PF = "pf"      # plane forests


def max_degree():
    """Enumeration degree bound, configurable via DPOSET_MAX_DEGREE."""
    value = os.environ.get("DPOSET_MAX_DEGREE", "6")
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"DPOSET_MAX_DEGREE must be an integer, not {value!r}") from None


def _word_budget():
    """The most words a list of linear extensions or of shuffles may hold:
    as many as the antichain at the degree cap has (one below a cap of 1)."""
    return factorial(max(max_degree(), 0))


# The membership test of every proper family, read by both ``classify`` and
# ``enumerate_family``.  Every special family but SP and OF is heap-ordered.
_FAMILY_TESTS = {
    Family.SP: is_special,
    Family.HOP: is_heap_ordered,
    Family.OF: is_ordered_forest,
    Family.HOF: is_heap_forest,
    Family.SPP: is_special_plane,
    Family.SWNP: is_special_wn,
    Family.SPF: is_special_plane_forest,
    Family.PP: is_plane,
    Family.WNP: is_plane_wn,
    Family.PF: is_plane_forest,
}

# The special plane family whose plane versions each plane family enumerates.
_PLANE_OF = {Family.PP: Family.SPP, Family.WNP: Family.SWNP, Family.PF: Family.SPF}


def classify(P):
    """The set of proper families containing ``P`` (ambient DP excluded)."""
    return {family for family, test in _FAMILY_TESTS.items() if test(P)}


@lru_cache(maxsize=None)
def _sp_masks(n, heap=False):
    """All transitively closed strict orders on 1..n, as up-mask tuples
    sorted by pair code; with ``heap``, only the heap-ordered ones, whose
    relations all increase labels (4,824 of the 130,023 orders at n = 6).

    Incremental: a closed order on 1..n restricts to one on 1..n-1, plus a
    down-closed set D below the new top label and an up-closed set U above
    it, outside D and inside every up-set of D.  :func:`_closed_sets` finds
    both (D on the reversed order) at O(n) mask steps a set.  In a
    heap-ordered order nothing lies above the top label, so U is empty.
    Callers pass ``heap`` positionally, so that each order set has one cache
    entry.
    """
    if n == 0:
        return ((),)
    m = n - 1
    full = (1 << m) - 1
    out = []
    for up in _sp_masks(m, heap):
        for D in _closed_sets(_downs(m, up), full):
            common = full
            for d in _bits(D):
                common &= up[d]
            rows = [up[v] | (1 << m) if (D >> v) & 1 else up[v] for v in range(m)]
            for U in (0,) if heap else _closed_sets(up, common & ~D):
                out.append((*rows, U))
    # compact keys: pair lists would peak at 117 MB at degree 6, these at 39 MB
    out.sort(key=lambda up: _pair_code(len(up), up))
    return tuple(out)


def _special(n, up):
    return DoublePoset._from_masks(n, up, _natural_up(n))


def enumerate_family(family, n):
    """All degree-``n`` members of the family, sorted by canonical key.

    Special families come out in their special-poset incarnation; the PP,
    WNP, and PF tags yield the plane incarnations instead.  SP and OF walk
    every order, the other special families only the heap-ordered ones.
    """
    family = Family(family)
    n = int(n)
    cap = DP_ENUMERATION_CAP if family is Family.DP else max_degree()
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n > cap:
        raise ValueError("degree too large")
    if family is Family.DP:
        masks = _sp_masks(n, False)
        return [
            DoublePoset._from_masks(n, up1, up2)
            for up1, up2 in itertools.product(masks, repeat=2)
        ]
    if family in _PLANE_OF:
        return [plane_version(P) for P in enumerate_family(_PLANE_OF[family], n)]
    if family is Family.SP:
        return [_special(n, up) for up in _sp_masks(n, False)]
    if family is Family.OF:
        # the one filter over all orders: test the masks before building posets
        return [_special(n, up) for up in _sp_masks(n, False) if _forest(up, _downs(n, up))]
    test = _FAMILY_TESTS[family]
    return [P for P in (_special(n, up) for up in _sp_masks(n, True)) if test(P)]
