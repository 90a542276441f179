"""Exact linear algebra and isometry tooling.

Matrices are plain lists of rows with integer, rational, or Gaussian-rational
entries; every computation here is exact.  The module provides three layers:

* generic kernels, determinants, inverses, and products over the scalar
  field (:func:`rank_kernel`, :func:`det`, :func:`mat_inverse`, ...);
  :func:`mat_mul` scales every row and column to integers over a common
  denominator and multiplies with :func:`_products`, the one integer
  product, which sums over pairs of nonzero entries alone.  There is one
  elimination, :func:`_eliminate`: it scales every row the same way and
  runs fraction-free Gauss-Jordan (Bareiss); the kernel, the determinant
  and the inverse are read off its result with one division each;
* integer congruence: a symmetric unimodular matrix is block-diagonalized by
  a certified unimodular change of basis into blocks ``(1)``, ``(-1)``, and
  the hyperbolic plane ``[[0, 1], [1, 0]]`` (:func:`congruence_diagonalize`;
  a determinant only names a failure, or refuses a form before the slow part
  of the search).  Each pivot block ``(+-1)`` or ``[[0, +-1], [+-1, c]]``
  clears the trailing block by one Schur-complement pass per pivot row, read
  off its integral inverse; the steps at block ``k`` touch only indices
  ``>= k``, and the certificate ``T @ A @ T.T`` is checked entry by entry
  with every sum taken over nonzero entries only;
* graded isometries between the plane and special-plane Hopf algebras: over
  the Gaussian rationals every certified block becomes the identity, so any
  two same-size symmetric unimodular matrices are isometric
  (:func:`build_isometry`, which inverts nothing: ``V.T @ A @ V == I`` gives
  ``V^-1 == V.T @ A``, and it checks ``S.T @ A @ S == B`` itself), and
  graded linear maps, given by the image of each source basis element
  (:class:`GradedMapSpec`), can be checked for multiplicativity, coproduct
  compatibility, and pairing preservation (:func:`verify_graded_isometry`,
  which enumerates the source once by ``algebra._graded``, reads its product
  pairs from ``algebra._pairs`` and reports through ``algebra._collect``: the
  tuple source and the collector of the axiom suites of ``dupdend``).

:func:`plane_to_special_isometry` records the known isometric Hopf morphism
from plane posets to special plane posets up to degree 3, as the images of
the plane basis, in a corrected ``derived`` variant (which verifies), its
complex conjugate ``derived-alt``, and the uncorrected ``printed`` variant
kept so its failure can be reported explicitly.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod
from operator import floordiv, truediv

from .algebra import (
    GaussRat,
    LinComb,
    _collect,
    _graded,
    _pairs,
    _positive_degree,
    _span,
    as_lincomb,
    key_degree,
    lc_product,
    normalize_scalar,
    pairing,
    parse_lincomb,
    reduced_coproduct,
)
from .poset_core import SpecialPoset, compose, parse_poset

__all__ = [
    "CongruenceCertificate",
    "GradedMapSpec",
    "ISOMETRY_VARIANTS",
    "build_isometry",
    "congruence_diagonalize",
    "det",
    "identity_matrix",
    "mat_inverse",
    "mat_mul",
    "mat_transpose",
    "plane_to_special_isometry",
    "rank_kernel",
    "verify_graded_isometry",
]


# -- generic exact matrix helpers ----------------------------------------------


def _matrix(A):
    """Copy ``A`` into lists of normalized scalars, checking rectangularity."""
    rows = [[normalize_scalar(x) for x in row] for row in A]
    if rows and any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged matrix")
    return rows


def _square(A):
    rows = _matrix(A)
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix not square")
    return rows


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_transpose(A):
    return [list(col) for col in zip(*A)] if A else []


def _integer_vectors(vectors):
    """Each vector of scalars as ``(d, re, im)`` over one common denominator.

    ``re`` and ``im`` are integer lists with ``vector[k] == (re[k] +
    im[k]*I) / d``; ``im`` is None when the vector is real.
    """
    out = []
    for v in vectors:
        re, im = [], []
        for x in v:
            if isinstance(x, GaussRat):
                re.append(x.re)
                im.append(x.im)
            elif isinstance(x, (int, Fraction)):
                re.append(x)
                im.append(0)
            else:
                raise TypeError(f"unsupported scalar: {x!r}")
        d = lcm(*(x.denominator for x in re), *(x.denominator for x in im))
        re = [x.numerator * (d // x.denominator) for x in re]
        im = [x.numerator * (d // x.denominator) for x in im] if any(im) else None
        out.append((d, re, im))
    return out


def _products(rows, cols):
    """The int matrix of each row's dot product with each column, summed over
    pairs of nonzero entries alone: a row's nonzero ``x`` at ``i`` adds
    ``x * y`` to the cell of each column with a nonzero ``y`` at ``i``."""
    cols = list(cols)
    at = {}
    for j, col in enumerate(cols):
        for i, y in enumerate(col):
            if y:
                at.setdefault(i, []).append((j, y))
    out = []
    for row in rows:
        cells = [0] * len(cols)
        for i, x in enumerate(row):
            if x:
                for j, y in at.get(i, ()):
                    cells[j] += x * y
        out.append(cells)
    return out


def mat_mul(A, B):
    """Exact matrix product; scalar types mix freely.

    Every row of ``A`` and column of ``B`` is scaled to integers first, so
    each cell is an integer dot product over pairs of nonzero entries
    (:func:`_products`) and one normalized scalar.  A Gaussian row ``re + im*I``
    is the real row ``re | im``, dotted with ``re | -im`` and ``im | re`` of
    each column for the two parts.
    """
    if A and len(A[0]) != len(B):
        raise ValueError("matrix size mismatch")
    rows = _integer_vectors(A)
    cols = _integer_vectors(zip(*B))
    if any(im is not None for _, _, im in rows + cols):
        zero = [0] * len(B)
        left = [re + (im or zero) for _, re, im in rows]
        real = _products(left, [re + ([-x for x in im] if im else zero) for _, re, im in cols])
        imag = _products(left, [(im or zero) + re for _, re, im in cols])
    else:
        real = _products([re for _, re, _ in rows], [re for _, re, _ in cols])
        imag = [[0] * len(cols)] * len(rows)
    out = []
    for (da, _, _), re_row, im_row in zip(rows, real, imag):
        row = []
        for (db, _, _), re, im in zip(cols, re_row, im_row):
            d = da * db
            row.append(GaussRat(Fraction(re, d), Fraction(im, d)) if im else Fraction(re, d))
        out.append(row)
    return out


def _eliminate(A, columns):
    """Fraction-free Gauss-Jordan elimination on the first ``columns`` columns.

    Each row is scaled to integral (or Gaussian-integral) entries; the update
    ``(p*x - f*y) / prev`` by the previous pivot is an exact ring division
    (Bareiss), and it leaves every pivot entry equal to the last pivot ``d``,
    a minor of the scaled, row-swapped matrix.  Returns ``(M, pivots, d,
    sign, scale)``: the eliminated rows, their pivot columns, ``d`` as a
    ``Fraction`` or ``GaussRat``, the sign of the row swaps, and the product
    of the row denominators.
    """
    vectors = _integer_vectors(A)
    real = all(im is None for _, _, im in vectors)
    if real:
        M = [re for _, re, _ in vectors]
    else:
        M = [
            [GaussRat(a, b) for a, b in zip(re, im or [0] * len(re))]
            for _, re, im in vectors
        ]
    divide = floordiv if real else truediv
    m = len(M)
    pivots = []
    prev = 1
    sign = 1
    for c in range(columns):
        r = len(pivots)
        if r == m:
            break
        p = next((i for i in range(r, m) if M[i][c]), None)
        if p is None:
            continue
        if p != r:
            M[r], M[p] = M[p], M[r]
            sign = -sign
        top = M[r]
        piv = top[c]
        for i, row in enumerate(M):
            f = row[c]
            # a row with no entry in column c only rescales by piv / prev
            if i == r or not (f or piv != prev):
                continue
            # rows below the pivot row, and the pivot row, are zero left of c
            start = 0 if i < r else c
            if f:
                new = [divide(piv * x - f * y, prev) for x, y in zip(row[start:], top[start:])]
            else:
                new = [divide(piv * x, prev) for x in row[start:]]
            M[i] = row[:start] + new
        pivots.append(c)
        prev = piv
    scale = prod(d for d, _, _ in vectors)
    return M, pivots, Fraction(prev) if real else prev, sign, scale


def rank_kernel(A):
    """Exact rank and kernel basis of a matrix.

    Returns ``(rank, kernel)`` where each kernel vector carries a leading 1
    in its free coordinate; vectors are listed by increasing free column, and
    read off the reduced row echelon form: the result of :func:`_eliminate`
    divided by its last pivot, done once per kernel entry.
    """
    rank, sparse = _sparse_kernel(A)
    width = len(A[0]) if A else 0
    zero = normalize_scalar(0)
    kernel = []
    for entries in sparse:
        v = [zero] * width
        for column, x in entries:
            v[column] = x
        kernel.append(v)
    return rank, kernel


def _sparse_kernel(A):
    """:func:`rank_kernel` with each kernel vector given by its nonzero
    entries only, as ``(column, entry)`` pairs: the free column's 1, then the
    pivot columns in order.  Every other entry of such a vector is zero."""
    width = len(A[0]) if A else 0
    if any(len(row) != width for row in A):
        raise ValueError("ragged matrix")
    M, pivots, d, _, _ = _eliminate(A, width)
    pivot_set = set(pivots)
    one = normalize_scalar(1)
    kernel = []
    for free in range(width):
        if free in pivot_set:
            continue
        entries = [(free, one)]
        entries += ((pc, normalize_scalar(-row[free] / d)) for pc, row in zip(pivots, M) if row[free])
        kernel.append(entries)
    return len(pivots), kernel


def _is_integral(x):
    if isinstance(x, Fraction):
        return x.denominator == 1
    return isinstance(x, int)


def det(A):
    """Exact determinant, the last pivot of :func:`_eliminate` over the row
    scaling; an ``int`` for an integer matrix."""
    rows = _square(A)
    _, pivots, d, sign, scale = _eliminate(rows, len(rows))
    value = sign * d / scale if len(pivots) == len(rows) else 0
    if all(_is_integral(x) for row in rows for x in row):
        return int(value)
    return normalize_scalar(value)


def mat_inverse(A):
    """Exact inverse: :func:`_eliminate` takes ``[A | I]`` to ``[d*I | d*A^-1]``
    for its last pivot ``d``."""
    rows = _square(A)
    n = len(rows)
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    M, pivots, d, _, _ = _eliminate(aug, n)
    if len(pivots) < n:
        raise ValueError("matrix not invertible")
    return [[normalize_scalar(x / d) for x in row[n:]] for row in M]


# -- integer congruence diagonalization ----------------------------------------

BLOCK_SHAPES = {
    "plus_one": ((1,),),
    "minus_one": ((-1,),),
    "hyperbolic": ((0, 1), (1, 0)),
}


class CongruenceCertificate(
    namedtuple("CongruenceCertificate", ("matrix", "transform", "blocks", "block_matrix"))
):
    """Certificate ``transform @ matrix @ transform.T == block_matrix``.

    ``blocks`` names the diagonal blocks of ``block_matrix`` in order, each
    one of ``plus_one``, ``minus_one``, or ``hyperbolic``; ``transform`` is
    unimodular.  Immutable, like every tuple.
    """

    __slots__ = ()

    def as_dict(self):
        return {
            "matrix": [list(r) for r in self.matrix],
            "transform": [list(r) for r in self.transform],
            "blocks": list(self.blocks),
            "block_matrix": [list(r) for r in self.block_matrix],
        }


def _block_diagonal(blocks, shapes):
    """The block-diagonal matrix of ``shapes[b]`` for each ``b`` in ``blocks``."""
    size = sum(len(shapes[b]) for b in blocks)
    out = [[0] * size for _ in range(size)]
    k = 0
    for b in blocks:
        for i, row in enumerate(shapes[b]):
            out[k + i][k : k + len(row)] = row
        k += len(shapes[b])
    return out


def _int_symmetric(A):
    """``A`` as lists of ints, checked to be a symmetric integer matrix; a
    square matrix of ints is copied as it is, any other goes through
    :func:`_matrix`, which refuses a ragged one."""
    rows = [list(row) for row in A]
    n = len(rows)
    if not all(len(row) == n and all(type(x) is int for x in row) for row in rows):
        rows = _matrix(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix not symmetric")
        if not all(_is_integral(x) for row in rows for x in row):
            raise ValueError("matrix not unimodular")
        rows = [[int(x) for x in row] for row in rows]
    if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix not symmetric")
    return rows


def _congruent(T, A):
    """``T @ A @ T.T`` over the ints by :func:`_products`, which sums over
    nonzero entries alone: ``X = T @ A``, then ``X @ T.T``."""
    return _products(_products(T, zip(*A)), T)


def _complete_unimodular(v):
    """A unimodular integer matrix whose first row is the primitive vector ``v``.

    Integer row operations ``W`` reduce ``col = W @ v`` to ``e1``, so ``v`` is
    the first row of ``R = (W^-1).T``.  ``R`` is carried in step: an
    operation ``E`` on the rows of ``W`` acts on ``R`` as ``E^-T``, which
    for ``R_i += t R_j`` is ``R_j -= t R_i`` and fixes swaps and sign flips.
    """
    m = len(v)
    R = identity_matrix(m)
    col = list(v)

    def add(i, j, t):
        col[i] += t * col[j]
        R[j] = [a - t * b for a, b in zip(R[j], R[i])]

    def swap(i, j):
        col[i], col[j] = col[j], col[i]
        R[i], R[j] = R[j], R[i]

    for i in range(1, m):
        while col[i]:
            if col[0] == 0:
                swap(0, i)
                continue
            q = col[i] // col[0]
            if q:
                add(i, 0, -q)
            if col[i]:
                swap(0, i)
    if col[0] < 0:
        col[0] = -col[0]
        R[0] = [-a for a in R[0]]
    if col[0] != 1:
        raise ValueError("vector not primitive")
    return R


def _short_unit_vector(M, k, fuel):
    """A primitive vector of the trailing block with self-product 0 or +-1.

    Consumes one unit of fuel per candidate and returns ``(vector or None,
    remaining fuel)``; ``None`` means the bounded hunt found nothing.
    """
    n = len(M)
    m = n - k
    for radius in (1, 2, 3):
        for v in itertools.product(range(-radius, radius + 1), repeat=m):
            fuel -= 1
            if fuel <= 0:
                return None, 0
            if max(abs(c) for c in v) != radius:
                continue
            first = next((c for c in v if c), None)
            if first is None or first < 0:
                continue
            g = 0
            for c in v:
                g = gcd(g, c)
            if g != 1:
                continue
            total = 0
            for i, a in enumerate(v):
                if not a:
                    continue
                for j, b in enumerate(v):
                    if b:
                        total += a * b * M[k + i][k + j]
            if total in (0, 1, -1):
                return list(v), fuel
    return None, fuel


# bound on the congruence search's steps and candidate vectors
CONGRUENCE_FUEL = 100_000


def congruence_diagonalize(A):
    """Certified block diagonalization of a symmetric unimodular matrix.

    Returns a :class:`CongruenceCertificate` with blocks drawn from ``(1)``,
    ``(-1)``, and the hyperbolic plane.  Raises ValueError("matrix not
    symmetric"), ValueError("matrix not unimodular"), or ValueError("no
    unimodular block diagonalization found") when the search gives out (for
    instance on even definite forms, which admit no such blocks).

    Each step picks a pivot block ``(s)``, ``s = +-1``, or else ``P = [[0,
    e], [e, c]]``, ``e = +-1``, from a zero diagonal entry whose subcolumn
    Euclid's algorithm reduces to a unit.  The rows below become ``R_a -=
    (C P^-1)_a`` for ``C`` the block's columns below it, with ``(s)^-1 =
    (s)`` and ``P^-1 = [[-c, e], [e, 0]]``: one rank-one pass per pivot row
    over nonzero entries.  One block operation then takes ``P`` to ``H``
    (``c`` even) or ``(1) + (-1)`` (``c`` odd).  Every step at block ``k``
    touches indices ``>= k`` only, and the rows and columns below ``k`` are
    final, so ``M`` is updated on its trailing block alone (``T`` keeps full
    rows).  A success takes no determinant:
    ``T`` is a product of unimodular steps and every entry of ``T @ A @ T.T``
    is checked to be the blocks' (:func:`_congruent`, which sums over nonzero
    entries only), so ``|det A| == 1``.
    ``det`` names a failure, and is also taken before the first
    shrink-and-hunt step: those O(m^4) steps would otherwise spend the whole
    fuel budget on a form that is not unimodular.
    """
    A0 = _int_symmetric(A)
    n = len(A0)
    M = [row[:] for row in A0]
    T = identity_matrix(n)
    fuel = CONGRUENCE_FUEL
    unimodular = cache(lambda: det(A0) in (1, -1))

    def fail():
        if unimodular():
            raise ValueError("no unimodular block diagonalization found")
        raise ValueError("matrix not unimodular")

    def spend():
        nonlocal fuel
        fuel -= 1
        if fuel <= 0:
            fail()

    # M is updated on its trailing block M[k:][k:] alone (see above)
    def radd(i, j, t):
        # symmetric row-and-column operation R_i += t R_j
        M[i][k:] = [a + t * b for a, b in zip(M[i][k:], M[j][k:])]
        for row in M[k:]:
            row[i] += t * row[j]
        T[i] = [a + t * b for a, b in zip(T[i], T[j])]

    def rswap(i, j):
        M[i], M[j] = M[j], M[i]
        for row in M[k:]:
            row[i], row[j] = row[j], row[i]
        T[i], T[j] = T[j], T[i]

    def apply_block(U):
        # rows and columns k .. k+len(U)-1 become U times themselves
        end = k + len(U)
        rows = _products(U, zip(*(row[k:] for row in M[k:end])))
        for row, new in zip(M[k:end], rows):
            row[k:] = new
        cols = _products((row[k:end] for row in M[k:]), U)
        for row, new in zip(M[k:], cols):
            row[k:end] = new
        T[k:end] = _products(U, zip(*T[k:end]))

    def clear(p, end, coefficients):
        # R_a -= g R_p for each (a, g), a >= end: one rank-one Schur pass
        # over the nonzero M[p][b], b >= end, and T[p][c], zeroing M[a][p]
        mp = [(b, y) for b, y in enumerate(M[p][end:], end) if y]
        tp = [(c, y) for c, y in enumerate(T[p]) if y]
        for a, g in coefficients:
            row, ta = M[a], T[a]
            row[p] = M[p][a] = 0
            if g:
                for b, y in mp:
                    row[b] -= g * y
                for c, y in tp:
                    ta[c] -= g * y

    blocks = []
    k = 0
    while k < n:
        spend()
        unit = next((i for i in range(k, n) if abs(M[i][i]) == 1), None)
        if unit is not None:
            if unit != k:
                rswap(k, unit)
            # the pivot (s) is its own inverse: R_a -= s*M[a][k] R_k
            s = M[k][k]
            clear(k, k + 1, [(a, s * M[a][k]) for a in range(k + 1, n) if M[a][k]])
            blocks.append("plus_one" if s == 1 else "minus_one")
            k += 1
            continue
        zero = next((i for i in range(k, n) if M[i][i] == 0), None)
        if zero is not None:
            if zero != k:
                rswap(k, zero)
            # reduce the subcolumn below the zero diagonal entry to a unit
            while True:
                spend()
                nz = [j for j in range(k + 1, n) if M[j][k]]
                if not nz:
                    fail()
                jmin = min(nz, key=lambda j: abs(M[j][k]))
                if abs(M[jmin][k]) == 1:
                    break
                progress = False
                for j in nz:
                    if j == jmin:
                        continue
                    q = round(Fraction(M[j][k], M[jmin][k]))
                    if q:
                        radd(j, jmin, -q)
                        progress = True
                if not progress:
                    fail()
            if jmin != k + 1:
                rswap(k + 1, jmin)
            # the pivot P = [[0, e], [e, c]] has P^-1 = [[-c, e], [e, 0]]:
            # R_a -= (e*y - c*x) R_k + e*x R_(k+1) for (x, y) = M[a][k:k+2]
            e, c = M[k + 1][k], M[k + 1][k + 1]
            below = [(a, M[a][k], M[a][k + 1]) for a in range(k + 2, n) if M[a][k] or M[a][k + 1]]
            clear(k, k + 2, [(a, e * y - c * x) for a, x, y in below])
            clear(k + 1, k + 2, [(a, e * x) for a, x, _ in below])
            lam = c // 2
            if c % 2:
                apply_block(((lam, -e), (-1 - lam, e)))
                blocks += ["plus_one", "minus_one"]
            else:
                apply_block(((1, 0), (-lam, e)))
                blocks.append("hyperbolic")
            k += 2
            continue
        # every trailing diagonal entry has absolute value >= 2: shrink the
        # block, then hunt for a short primitive vector of unit or zero
        # self-product
        if not unimodular():
            fail()

        def active_size():
            return sum(M[i][j] * M[i][j] for i in range(k, n) for j in range(k, n))

        reduced = False
        while True:
            spend()
            best = None
            size = active_size()
            for i in range(k, n):
                for j in range(k, n):
                    if i == j:
                        continue
                    candidates = {-3, -2, -1, 1, 2, 3}
                    if M[j][j]:
                        q = round(Fraction(M[i][j], M[j][j]))
                        candidates.update((-q, -q - 1, -q + 1))
                    if M[i][j]:
                        q = round(Fraction(M[i][i], 2 * M[i][j]))
                        candidates.update((-q, -q - 1, -q + 1))
                    row_dot = sum(M[i][r] * M[j][r] for r in range(k, n))
                    row_sq = sum(M[j][r] * M[j][r] for r in range(k, n))
                    if row_sq:
                        q = round(Fraction(row_dot, row_sq))
                        candidates.update((-q, -q - 1, -q + 1))
                    for t in candidates:
                        if not t:
                            continue
                        radd(i, j, t)
                        trial = active_size()
                        radd(i, j, -t)
                        if trial < size and (best is None or trial < best[0]):
                            best = (trial, i, j, t)
            if best is None:
                break
            _, i, j, t = best
            radd(i, j, t)
            reduced = True
            if any(abs(M[i][i]) <= 1 for i in range(k, n)):
                break
        if reduced and any(abs(M[i][i]) <= 1 for i in range(k, n)):
            continue
        v, fuel = _short_unit_vector(M, k, fuel)
        if v is None:
            fail()
        apply_block(_complete_unimodular(v))
    B = _block_diagonal(blocks, BLOCK_SHAPES)
    if _congruent(T, A0) != B or M != B:
        raise AssertionError("congruence bookkeeping failed")
    return CongruenceCertificate(
        matrix=tuple(tuple(row) for row in A0),
        transform=tuple(tuple(row) for row in T),
        blocks=tuple(blocks),
        block_matrix=tuple(tuple(row) for row in B),
    )


# -- isometries over the Gaussian rationals -------------------------------------

_HYPERBOLIC_TO_IDENTITY = (
    (GaussRat(0, Fraction(1, 2)), Fraction(1, 2)),
    (GaussRat(0, -1), Fraction(1)),
)

# per block, W with W.T @ block @ W == identity
_BLOCK_UNITS = {
    "plus_one": ((Fraction(1),),),
    "minus_one": ((GaussRat(0, 1),),),
    "hyperbolic": _HYPERBOLIC_TO_IDENTITY,
}


def build_isometry(A, B):
    """A matrix S over the Gaussian rationals with S.T @ A @ S == B.

    Both arguments must be symmetric unimodular of the same size.  With the
    certificate ``T @ A @ T.T == D`` and the block transform ``W.T @ D @ W ==
    I``, ``V = T.T @ W`` satisfies ``V.T @ A @ V == I``.  Hence
    ``V_b^-1 == V_b.T @ B`` and ``S = V_a @ V_b.T @ B`` needs no generic
    inverse; it is the unique ``V_a @ V_b^-1``.  ``S.T @ A @ S == B`` is
    checked before S is returned, and a failure raises AssertionError.
    """
    if len(A) != len(B):
        raise ValueError("matrix size mismatch")
    ca = congruence_diagonalize(A)
    cb = congruence_diagonalize(B)
    B0 = [list(r) for r in cb.matrix]
    va = mat_mul(mat_transpose(ca.transform), _block_diagonal(ca.blocks, _BLOCK_UNITS))
    vb = mat_mul(mat_transpose(cb.transform), _block_diagonal(cb.blocks, _BLOCK_UNITS))
    S = mat_mul(va, mat_mul(mat_transpose(vb), B0))
    if mat_mul(mat_mul(mat_transpose(S), ca.matrix), S) != B0:
        raise AssertionError("isometry certificate failed")
    return S


class GradedMapSpec(namedtuple("GradedMapSpec", ("source", "target", "images", "degree"))):
    """A graded linear map between poset families, given on basis elements.

    ``images`` maps every source basis element of degrees 1 to ``degree`` to
    its image, a combination of target basis elements.  The empty poset maps
    to the empty poset.  Two specs are equal when all four fields are.
    """

    __slots__ = ()

    def image(self, key):
        """Image of a single source basis element, as a target LinComb."""
        n = key.n
        if n == 0:
            return LinComb.basis(SpecialPoset(0))
        if n > self.degree:
            raise ValueError(f"missing degree block: {n}")
        if key not in self.images:
            raise ValueError(f"not a {self.source} basis element: {key.literal()}")
        return self.images[key]

    def __call__(self, x):
        """Linear extension of :meth:`image` to combinations."""
        return as_lincomb(x).apply(self.image)


def verify_graded_isometry(spec, max_degree):
    """Check a graded map for Hopf-isometry behaviour through a degree bound.

    Verifies multiplicativity on all pairs of basis elements with total
    degree at most ``max_degree``, reduced-coproduct compatibility and
    pairing preservation on every degree up to the bound, and returns a
    report dict with the check count and a list of violations (empty when the
    map is an isometric morphism that far), as ``algebra._collect`` makes it.
    """
    max_degree = _positive_degree(max_degree)
    if max_degree > spec.degree:
        raise ValueError(f"missing degree block: {spec.degree + 1}")
    source = _graded(spec.source, max_degree)
    image = spec.image

    def cases():
        for P, Q, a, b in _pairs(source, max_degree, key_degree, key_degree):
            fields = {"check": "product", "degree": [a, b]}
            yield fields, (P, Q), image(compose(P, Q)), lc_product(image(P), image(Q))
        for n in range(1, max_degree + 1):
            fields = {"check": "coproduct", "degree": n}
            for P in source[n]:
                left = reduced_coproduct(image(P))
                yield fields, (P,), left, _span(reduced_coproduct(LinComb.basis(P)), image, image)
        for n in range(1, max_degree + 1):
            fields = {"check": "pairing", "degree": n}
            for P, Q in itertools.combinations_with_replacement(source[n], 2):
                left = pairing(image(P), image(Q))
                yield fields, (P, Q), left, pairing(LinComb.basis(P), LinComb.basis(Q))

    checks, violations = _collect(cases())
    return {
        "source": spec.source,
        "target": spec.target,
        "max_degree": max_degree,
        "checks": checks,
        "violations": violations,
        "ok": not violations,
    }


# -- the plane-to-special isometry tables ---------------------------------------

ISOMETRY_VARIANTS = ("derived", "derived-alt", "printed")

# degree-2 image of the plane chain: alpha * chain + beta * antichain
_ISOMETRY_DEG2 = {
    "derived": (GaussRat(0, -1), GaussRat(Fraction(1, 2), Fraction(1, 2))),
    "derived-alt": (GaussRat(0, 1), GaussRat(Fraction(1, 2), Fraction(-1, 2))),
    "printed": (GaussRat(0, 1), GaussRat(Fraction(1, 2), Fraction(1, 2))),
}

# degree-3 images of the three indecomposable plane posets.  The "derived"
# table solves the full constraint system (coproduct compatibility plus
# pairing preservation) over the Gaussian rationals; the "printed" table is
# the recorded one-parameter family taken at parameter 0, which fails the
# degree-3 checks and is kept for discrepancy reporting.  The derived-alt
# variant is the entrywise complex conjugate of the derived table.
_ISOMETRY_DEG3 = {
    "derived": (
        (
            "PP(3; h: 1<2, 1<3, 2<3; r:)",
            "(1/2+1/2*I)*SP(3;) + (-1-1*I)*SP(3; 1<2) + SP(3; 1<2, 2<3)",
        ),
        (
            "PP(3; h: 1<2, 1<3; r: 2<3)",
            "SP(3;) + (-2+2*I)*SP(3; 1<2) - 2*I*SP(3; 1<2, 1<3)"
            " + 2*SP(3; 1<2, 2<3) - 1*I*SP(3; 1<3, 2<3)",
        ),
        (
            "PP(3; h: 1<3, 2<3; r: 1<2)",
            "1*I*SP(3;) + (1-2*I)*SP(3; 1<2) + 1*I*SP(3; 1<2, 1<3)"
            " + (-1+1*I)*SP(3; 1<2, 2<3) - 1*I*SP(3; 2<3)",
        ),
    ),
    "printed": (
        (
            "PP(3; h: 1<2, 1<3, 2<3; r:)",
            "SP(3; 1<2, 1<3, 2<3) - I*SP(3; 1<2) - SP(3; 2<3) + (1/2+1/2*I)*SP(3;)",
        ),
        (
            "PP(3; h: 1<2, 1<3; r: 2<3)",
            "-(1+I)*SP(3; 1<2, 1<3, 2<3) - I*SP(3; 1<2, 1<3) + (1+1/2*I)*SP(3; 2<3)",
        ),
        (
            "PP(3; h: 1<3, 2<3; r: 1<2)",
            "(2+2*I)*SP(3; 1<2, 1<3, 2<3) - I*SP(3; 1<3, 2<3) - (2+I)*SP(3; 2<3) + (1+I)*SP(3;)",
        ),
    ),
}


def plane_to_special_isometry(max_degree=3, variant="derived"):
    """The graded isometry candidate from plane to special plane posets.

    The ``derived`` variant passes :func:`verify_graded_isometry` through
    degree 3; ``derived-alt`` is its complex conjugate and also passes;
    ``printed`` keeps the uncorrected degree-2 coefficients ``(I, 1/2+1/2*I)``
    whose verification reports the known discrepancies.
    """
    if variant not in ISOMETRY_VARIANTS:
        raise ValueError(f"unknown isometry variant: {variant!r}")
    max_degree = _positive_degree(max_degree)
    if max_degree > 3:
        raise ValueError("isometry tables stop at degree 3")
    alpha, beta = _ISOMETRY_DEG2[variant]
    point = SpecialPoset(1)
    chain2 = parse_poset("PP(2; h: 1<2; r:)")
    antichain2 = parse_poset("PP(2; h:; r: 1<2)")
    images = {point: LinComb.basis(SpecialPoset(1))}
    if max_degree >= 2:
        images[antichain2] = LinComb.basis(SpecialPoset(2))
        images[chain2] = LinComb(
            ((SpecialPoset(2, ((1, 2),)), alpha), (SpecialPoset(2), beta))
        )
    if max_degree >= 3:
        table = _ISOMETRY_DEG3["printed" if variant == "printed" else "derived"]
        for src_literal, img_literal in table:
            img = parse_lincomb(img_literal)
            if variant == "derived-alt":
                img = LinComb((key, coeff.conjugate()) for key, coeff in img.terms())
            images[parse_poset(src_literal)] = img
        for left, right in ((point, antichain2), (point, chain2), (chain2, point)):
            images[compose(left, right)] = lc_product(images[left], images[right])
    return GradedMapSpec(source="pp", target="spp", images=images, degree=max_degree)
