"""Maps between poset spaces and the permutation space.

- ``linear_extensions`` / ``theta``: the linear-extension statistic on special
  posets, extended linearly to a Hopf morphism onto the permutation space.
- ``phi`` / ``psi``: the mutually inverse bijections between permutations and
  special plane posets (realized on the plane side).
- ``theta_hof_inverse`` / ``upsilon``: theta is an isomorphism in restriction
  to heap-ordered forests; upsilon is the induced projection of special
  posets onto heap-ordered forests, a Hopf-algebra morphism and an isometry.
- ``rewrite_step`` / ``upsilon_by_rewriting``: local rewriting of a special
  poset into a combination with the same theta image; exhaustive rewriting
  recomputes upsilon without linear algebra.
- ``pairing_kernel_basis``: radical of the pairing on a family span.
- ``bruhat_interval_check``: whether the linear extensions form a down
  interval of the right weak order (characterizes special plane posets).
"""

from functools import lru_cache

from .algebra import LinComb, as_lincomb, gram_matrix
from .fqsym import Permutation, inversions, weak_interval_down
from .linalg import rank_kernel
from .poset_core import (
    DoublePoset,
    SpecialPoset,
    empty_poset,
    enumerate_family,
    extension_words,
    is_heap_forest,
    is_plane,
    is_special,
    is_special_plane,
    kappa,
    plane_version,
    restrict,
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


@lru_cache(maxsize=None)
def _extensions(P):
    """The linear extensions of ``P`` as permutations, in lexicographic order.

    Cached per poset, without bound: an entry takes at most 13 KB at degree
    5 and 141 KB at degree 6 (the antichain's ``n!`` permutations); all
    4,231 special posets of degree 5 take 7.9 MB together.
    """
    return tuple(Permutation._trusted(word) for word in extension_words(P))


def linear_extensions(P):
    """All words listing the labels of ``P`` so that lower comes before
    higher in the first order, as permutations, in lexicographic order."""
    if not is_special(P):
        raise ValueError("not a special poset")
    return list(_extensions(P))


def theta(x):
    """Sum of linear extensions, extended linearly.

    A surjective Hopf-algebra morphism from special posets onto the
    permutation space, isometric for the two pairings.
    """
    x = as_lincomb(x)
    if not all(is_special(P) for P, _ in x.items()):
        raise ValueError("not a special poset")
    return LinComb((sigma, coeff) for P, coeff in x.items() for sigma in _extensions(P))


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
    """The permutation of a plane poset: peel off the distinguished maximal
    vertex (``kappa``) repeatedly; inverse bijection of :func:`phi`.

    Special plane posets are accepted through their plane incarnation.
    """
    if not is_plane(P):
        if is_special_plane(P):
            P = plane_version(P)
        else:
            raise ValueError("not plane")
    n = P.n
    alive = list(range(1, n + 1))
    current = P
    inverse_word = [0] * n
    for k in range(n, 0, -1):
        c = kappa(current)
        inverse_word[k - 1] = alive[c - 1]
        del alive[c - 1]
        current = restrict(current, [v for v in range(1, current.n + 1) if v != c])
    return Permutation(inverse_word).inverse()


# -- inverting theta on heap-ordered forests -------------------------------------


@lru_cache(maxsize=None)
def _hof_theta_inverse(n):
    """The heap-ordered forests of degree ``n`` keyed by their largest linear
    extension, as ``(key, (forest, its other extensions))`` pairs in
    decreasing key order.

    Every other extension of a forest precedes its key, so in this order
    theta is unitriangular on these forests.  The keys are distinct at every
    degree checked (through 6); a collision raises.
    """
    table = {}
    for F in enumerate_family("hof", n):
        *rest, key = extension_words(F)
        if key in table:
            raise ValueError("theta is not invertible at this degree")
        table[key] = (F, rest)
    return sorted(table.items(), reverse=True)


def theta_hof_inverse(y):
    """Solve ``theta(result) == y`` with the result supported on heap-ordered
    forests, degree by degree, by back-substitution.

    The largest permutation left in ``y`` is the largest linear extension of
    exactly one heap-ordered forest, whose coefficient it fixes; subtracting
    that forest's theta image only touches smaller permutations.
    """
    out = []
    by_degree = {}
    for sigma, coeff in as_lincomb(y).items():
        if not isinstance(sigma, Permutation):
            raise ValueError("not a permutation basis element")
        by_degree.setdefault(sigma.n, {})[sigma.word] = coeff
    for n, residual in sorted(by_degree.items()):
        if n == 0:
            out += ((empty_poset(), coeff) for coeff in residual.values())
            continue
        for key, (F, rest) in _hof_theta_inverse(n):
            coeff = residual.pop(key, 0)
            if not coeff:
                continue
            out.append((F, coeff))
            for word in rest:
                residual[word] = residual.get(word, 0) - coeff
        if any(residual.values()):
            raise ValueError("not in the image of theta on heap-ordered forests")
    return LinComb(out)


def upsilon(x):
    """Projection of special posets onto heap-ordered forests along the
    kernel of theta: the composite of theta with its inverse over
    heap-ordered forests.  Fixes heap-ordered forests pointwise; a Hopf
    morphism and an isometry."""
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

    rule1 = sorted((i, j) for (j, i) in edges if i < j)
    if rule1:
        i, j = rule1[0]
        base = edges - {(j, i)}
        p1 = SpecialPoset(n, base)
        p2 = SpecialPoset(n, base | {(i, j)})
        return LinComb(((p1, 1), (p2, -1)))

    rule2 = sorted(
        (i, j, k)
        for (i, k) in edges
        for (j, kk) in edges
        if kk == k and i < j
    )
    if rule2:
        i, j, k = rule2[0]
        p3 = SpecialPoset(n, edges - {(j, k)})
        p4 = SpecialPoset(n, (edges - {(j, k)}) | {(i, j)})
        p5 = SpecialPoset(n, (edges - {(i, k), (j, k)}) | {(i, j), (j, k)})
        return LinComb(((p3, 1), (p4, -1), (p5, 1)))

    raise ValueError("already a heap-ordered forest")


def upsilon_by_rewriting(x, fuel=100000):
    """Exhaustive rewriting of every basis poset into heap-ordered forests.

    Agrees with :func:`upsilon`; termination is enforced by ``fuel``.
    """
    pending = as_lincomb(x)
    while True:
        target = None
        for P, _ in pending.terms():
            if not is_special(P):
                raise ValueError("not a special poset")
            if not is_heap_forest(P):
                target = P
                break
        if target is None:
            return pending
        if fuel <= 0:
            raise ValueError("rewrite fuel exhausted")
        fuel -= 1
        coeff = pending.coeff(target)
        pending = pending - LinComb(((target, coeff),)) + rewrite_step(target) * coeff


# -- pairing radical and weak-order intervals ------------------------------------


def pairing_kernel_basis(family, n):
    """Rational basis of the radical of the pairing on the degree-``n`` span
    of a family (equivalently the kernel of theta intersected with the span,
    for the families containing all heap-ordered forests)."""
    basis = enumerate_family(family, n)
    _, kernel = rank_kernel(gram_matrix(family, n))
    return [LinComb(zip(basis, vec)) for vec in kernel]


def bruhat_interval_check(P):
    """Whether the linear extensions of ``P`` form a down interval of the
    right weak order.  True exactly on special plane posets."""
    if not is_special(P):
        raise ValueError("not a special poset")
    extensions = set(_extensions(P))
    tops = sorted(
        (len(inversions(sigma)), sigma.word) for sigma in extensions
    )
    top_count, top_word = tops[-1]
    if len(tops) > 1 and tops[-2][0] == top_count:
        return False
    interval = weak_interval_down(Permutation(top_word))
    return len(interval) == len(extensions) and set(interval) == extensions
