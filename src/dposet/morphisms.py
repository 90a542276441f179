"""Maps between poset spaces and the permutation space.

- ``linear_extensions`` / ``theta``: the linear-extension statistic on special
  posets, extended linearly to a Hopf morphism onto the permutation space.
- ``phi`` / ``psi``: the mutually inverse bijections between permutations and
  special plane posets (realized on the plane side); ``psi`` counts each
  label's bounds in the two orders instead of peeling off vertices.
- ``theta_hof_inverse`` / ``upsilon``: theta is an isomorphism in restriction
  to heap-ordered forests; upsilon is the induced projection of special
  posets onto heap-ordered forests, a Hopf-algebra morphism and an isometry.
  A permutation is the largest linear extension of the one forest in which
  each letter hangs under the nearest earlier smaller letter, so the inverse
  enumerates no forests.
- ``rewrite_step`` / ``upsilon_by_rewriting``: local rewriting of a special
  poset into a combination with the same theta image; exhaustive rewriting
  recomputes upsilon without linear algebra.
- ``pairing_kernel_basis``: radical of the pairing on a family span.
- ``bruhat_interval_check``: whether the linear extensions form a down
  interval of the right weak order (characterizes special plane posets),
  tested by adjacent swaps inside the set of extension words.

Linear extensions are read from ``algebra._extensions``, the one table that
the special pairing and the Gram matrix read too; a reader whose poset no
enumeration bounds checks the entry against the current degree cap.
"""

import heapq
import itertools
from math import factorial

from .algebra import LinComb, _extensions, _gram_basis, _gram_of, _theta_incidence, as_lincomb
from .fqsym import Permutation
from .linalg import _sparse_kernel
from .poset_core import (
    DoublePoset,
    SpecialPoset,
    _special,
    _within_budget,
    _word_budget,
    is_heap_forest,
    is_plane,
    is_special,
    is_special_plane,
    max_degree,
    plane_version,
)

__all__ = [
    "bruhat_interval_check",
    "linear_extensions",
    "pairing_kernel_basis",
    "phi",
    "psi",
    "rewrite_step",
    "theta",
    "theta_hof_inverse",
    "upsilon",
    "upsilon_by_rewriting",
]


# -- linear extensions and theta -------------------------------------------------


def linear_extensions(P):
    """All words listing the labels of ``P`` so that lower comes before
    higher in the first order, as permutations, in lexicographic order."""
    if not is_special(P):
        raise ValueError("not a special poset")
    return [Permutation._trusted(word) for word in _within_budget(_extensions(P), _word_budget())]


def theta(x):
    """Sum of linear extensions, extended linearly.

    A surjective Hopf-algebra morphism from special posets onto the
    permutation space, isometric for the two pairings.
    """
    x = as_lincomb(x)
    if not all(is_special(P) for P, _ in x.items()):
        raise ValueError("not a special poset")
    budget = _word_budget()
    return LinComb(
        (Permutation._trusted(w), c)
        for P, c in x.items()
        for w in _within_budget(_extensions(P), budget)
    )


# -- the permutation <-> plane poset bijections ----------------------------------


def phi(sigma):
    """The plane poset of a permutation.

    Positions i < j are h-comparable when the values increase and
    r-comparable when they decrease; the induced total order is the
    position order.
    """
    word = sigma.word
    n = len(word)
    h = []
    r = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if word[i - 1] < word[j - 1]:
                h.append((i, j))
            else:
                r.append((i, j))
    return DoublePoset(n, h, r)


def psi(P):
    """The permutation of a plane poset, inverse bijection of :func:`phi`:
    label ``v`` goes to one more than the number of vertices below it in the
    first order or above it in the second.

    Special plane posets are accepted through their plane incarnation.
    """
    if not is_plane(P):
        if is_special_plane(P):
            P = plane_version(P)
        else:
            raise ValueError("not plane")
    return Permutation([1 + P.down1[v].bit_count() + P.up2[v].bit_count() for v in range(P.n)])


# -- inverting theta on heap-ordered forests -------------------------------------


def _hof_of_word(word):
    """The heap-ordered forest whose largest linear extension is ``word``:
    each letter hangs under the nearest earlier smaller letter.  Once the
    larger letters are popped, the stack holds exactly the new one's ancestors.
    """
    up = [0] * len(word)
    stack = []
    for letter in word:
        while stack and stack[-1] > letter:
            stack.pop()
        for a in stack:
            up[a - 1] |= 1 << (letter - 1)
        stack.append(letter)
    return _special(len(word), up)


def theta_hof_inverse(y):
    """Solve ``theta(result) == y`` with the result supported on heap-ordered
    forests, degree by degree, by back-substitution.

    Each permutation is the largest linear extension of exactly one
    heap-ordered forest, in which each letter hangs under the nearest earlier
    smaller letter.  Walking the permutations in decreasing order, each one
    left in the residual fixes its forest's coefficient; subtracting that
    forest's theta image only touches smaller permutations.  This route
    enumerates no forests.
    """
    out = []
    by_degree = {}
    for sigma, coeff in as_lincomb(y).items():
        if not isinstance(sigma, Permutation):
            raise ValueError("not a permutation basis element")
        by_degree.setdefault(sigma.n, {})[sigma.word] = coeff
    for n, residual in sorted(by_degree.items()):
        if n and n > max_degree():  # the walk may visit all n! permutations
            raise ValueError("degree too large")
        for word in itertools.permutations(range(n, 0, -1)):
            if not residual:
                break
            coeff = residual.pop(word, 0)
            if not coeff:
                continue
            F = _hof_of_word(word)
            out.append((F, coeff))
            for other in _extensions(F)[:-1]:
                residual[other] = residual.get(other, 0) - coeff
    return LinComb(out)


def upsilon(x):
    """Projection of special posets onto heap-ordered forests along the
    kernel of theta: the composite of theta with its inverse over
    heap-ordered forests.  Fixes heap-ordered forests pointwise; a Hopf
    morphism and an isometry."""
    x = as_lincomb(x)
    if not all(is_special(P) for P, _ in x.items()):
        raise ValueError("not a special poset")
    top = max((P.n for P, _ in x.items()), default=0)
    if top and top > max_degree():  # before theta, whose image grows as n!
        raise ValueError("degree too large")
    return theta_hof_inverse(theta(x))


# -- rewriting toward heap-ordered forests ---------------------------------------


def rewrite_step(P):
    """One local rewriting of a special poset, preserving the theta image.

    Sites are searched on the Hasse edges of the first order, writing
    ``(x, y)`` for ``x`` covered by ``y``:

    - rule 1, an edge ``(j, i)`` with ``i < j``: replace ``P`` by
      ``P1 - P2`` where ``P1`` drops the edge and ``P2`` reverses it;
    - rule 2, edges ``(i, k)`` and ``(j, k)`` with ``i < j``: replace ``P``
      by ``P3 - P4 + P5`` where ``P3`` drops ``(j, k)``, ``P4`` moreover
      chains ``i`` below ``j``, and ``P5`` rewires both edges into the chain
      ``i, j, k``.

    Rule 1 is preferred, at the lexicographically smallest site; covers are
    recomputed after each modification.  A poset admitting no site is
    already a heap-ordered forest.
    """
    if not is_special(P):
        raise ValueError("not a special poset")
    n = P.n
    edges = set(P.covers())

    site = min(((i, j) for j, i in edges if i < j), default=None)
    if site:
        i, j = site
        base = edges - {(j, i)}
        p1 = SpecialPoset(n, base)
        p2 = SpecialPoset(n, base | {(i, j)})
        return LinComb(((p1, 1), (p2, -1)))

    site = min(((i, j, k) for i, k in edges for j, kk in edges if kk == k and i < j), default=None)
    if site:
        i, j, k = site
        p3 = SpecialPoset(n, edges - {(j, k)})
        p4 = SpecialPoset(n, (edges - {(j, k)}) | {(i, j)})
        p5 = SpecialPoset(n, (edges - {(i, k), (j, k)}) | {(i, j), (j, k)})
        return LinComb(((p3, 1), (p4, -1), (p5, 1)))

    raise ValueError("already a heap-ordered forest")


def upsilon_by_rewriting(x, fuel=100000):
    """Exhaustive rewriting of every basis poset into heap-ordered forests.

    Each step rewrites the least pending poset in canonical key order that
    is not a heap-ordered forest.  Agrees with :func:`upsilon`; termination
    is enforced by ``fuel``, one unit a step.
    """
    pending = dict(as_lincomb(x).items())
    if not all(map(is_special, pending)):
        raise ValueError("not a special poset")
    heap = [(P.sort_key(), P) for P in pending if not is_heap_forest(P)]
    heapq.heapify(heap)
    while heap:
        target = heapq.heappop(heap)[1]
        coeff = pending.pop(target)
        if not coeff:
            continue
        if fuel <= 0:
            raise ValueError("rewrite fuel exhausted")
        fuel -= 1
        for P, c in rewrite_step(target).items():
            if P not in pending and not is_heap_forest(P):
                heapq.heappush(heap, (P.sort_key(), P))
            pending[P] = pending.get(P, 0) + coeff * c
    return LinComb(pending)


# -- pairing radical and weak-order intervals ------------------------------------


def pairing_kernel_basis(family, n):
    """Rational basis of the radical of the pairing on the degree-``n`` span
    of a family, read off a reduced row echelon form.

    theta is an isometry onto the permutations, so the Gram matrix is
    ``G = Θᵀ J Θ``, where ``Θ`` is the ``n! × |basis|`` 0/1 incidence of
    extension words and ``J`` pairs each permutation with its inverse.
    ``_theta_incidence`` builds ``Θ`` for this kernel and for the Gram
    matrix alike.  When every basis element is special and ``Θ`` has rank
    ``n!``, the radical is the kernel of ``Θ``, which is eliminated instead
    of ``G``; a reduced echelon kernel basis depends only on the subspace,
    so both routes give the same vectors.  Otherwise ``G`` is eliminated:
    for the non-special families, and for special ones where ``Θ`` has rank
    below ``n!`` (swnp 4 has 22 < 24 elements, and its ``Θ`` kernel is not
    the radical).  A basis too large for a Gram matrix is refused before
    either route.
    """
    basis = _gram_basis(family, n)
    kernel = _theta_kernel(basis, n)
    if kernel is None:
        _, kernel = _sparse_kernel(_gram_of(basis))
    return [LinComb((basis[j], c) for j, c in entries) for entries in kernel]


def _theta_kernel(basis, n):
    """The kernel of ``Θ`` on a degree-``n`` basis, as :func:`_sparse_kernel`
    vectors, or None unless every element is special and ``Θ`` has rank
    ``n!``.  Θ's rows are laid in decreasing word order, which eliminates
    faster than the order in which the words first appear."""
    if len(basis) < factorial(n) or not all(map(is_special, basis)):
        return None
    incidence = _theta_incidence(basis)
    rows = []
    for word in sorted(incidence, reverse=True):
        row = [0] * len(basis)
        for j in incidence[word]:
            row[j] = 1
        rows.append(row)
    rank, kernel = _sparse_kernel(rows)
    return kernel if rank == factorial(n) else None


def bruhat_interval_check(P):
    """Whether the linear extensions of ``P`` form a down interval of the
    right weak order.  True exactly on special plane posets.

    A set of words is such an interval when undoing any descent (swapping
    two adjacent letters that decrease) stays inside it, and exactly one of
    its words, the top, has no ascent whose swap is inside it.
    """
    if not is_special(P):
        raise ValueError("not a special poset")
    words = set(_within_budget(_extensions(P), _word_budget()))
    tops = 0
    for w in words:
        swaps = [(w[i] > w[i + 1], w[:i] + (w[i + 1], w[i]) + w[i + 2 :]) for i in range(len(w) - 1)]
        if any(descent and s not in words for descent, s in swaps):
            return False
        tops += not any(s in words for descent, s in swaps if not descent)
    return tops == 1
