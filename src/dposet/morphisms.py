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

from .algebra import LinComb, as_lincomb, gram_matrix, normalize_scalar
from .fqsym import Permutation, inversions, weak_interval_down
from .linalg import mat_inverse, rank_kernel
from .poset_core import (
    DoublePoset,
    SpecialPoset,
    empty_poset,
    enumerate_family,
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
    n = P.n
    down1 = P.down1
    words = []
    word = []

    def extend(alive):
        if not alive:
            words.append(Permutation(word))
            return
        v = alive
        while v:
            low = v & -v
            v &= v - 1
            idx = low.bit_length() - 1
            if down1[idx] & alive:
                continue
            word.append(idx + 1)
            extend(alive & ~low)
            word.pop()

    extend((1 << n) - 1)
    return tuple(words)


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
    basis = enumerate_family("hof", n)
    perms = sorted(
        {sigma for F in basis for sigma in _extensions(F)}, key=lambda p: p.sort_key()
    )
    if len(perms) != len(basis):
        raise ValueError("theta is not invertible at this degree")
    index = {p: i for i, p in enumerate(perms)}
    matrix = [[0] * len(basis) for _ in perms]
    for j, F in enumerate(basis):
        for sigma in _extensions(F):
            matrix[index[sigma]][j] = 1
    return tuple(basis), index, mat_inverse(matrix)


def theta_hof_inverse(y):
    """Solve ``theta(result) == y`` with the result supported on heap-ordered
    forests; defined degree by degree by inverting the square matrix of
    ``theta`` over the heap-ordered forests of that degree."""
    out = []
    by_degree = {}
    for sigma, coeff in as_lincomb(y).items():
        if not isinstance(sigma, Permutation):
            raise ValueError("not a permutation basis element")
        by_degree.setdefault(sigma.n, []).append((sigma, coeff))
    for n, terms in sorted(by_degree.items()):
        if n == 0:
            out += ((empty_poset(), coeff) for _, coeff in terms)
            continue
        basis, index, inverse = _hof_theta_inverse(n)
        vec = [normalize_scalar(0)] * len(basis)
        for sigma, coeff in terms:
            pos = index.get(sigma)
            if pos is None:
                raise ValueError("not in the image of theta on heap-ordered forests")
            vec[pos] = coeff
        coords = [
            sum((c * v for c, v in zip(row, vec)), normalize_scalar(0))
            for row in inverse
        ]
        out += zip(basis, coords)
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
