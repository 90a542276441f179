"""Exact linear algebra and isometry tooling.

Matrices are plain lists of rows with integer, rational, or Gaussian-rational
entries; every computation here is exact.  The module provides three layers:

* generic kernels, determinants, inverses, and products over the scalar
  field (:func:`rank_kernel`, :func:`det`, :func:`mat_inverse`, ...);
  :func:`mat_mul` scales every row and column to integers over a common
  denominator and multiplies with integer dot products.  There is one
  elimination, :func:`_eliminate`: it scales every row the same way and
  runs fraction-free Gauss-Jordan (Bareiss); the kernel, the determinant
  and the inverse are read off its result with one division each;
* integer congruence: a symmetric unimodular matrix is block-diagonalized by
  a certified unimodular change of basis into blocks ``(1)``, ``(-1)``, and
  the hyperbolic plane ``[[0, 1], [1, 0]]`` (:func:`congruence_diagonalize`,
  which inverts nothing; a determinant only names a failure, or refuses a
  form before the slow part of the search);
* graded isometries between the plane and special-plane Hopf algebras: over
  the Gaussian rationals every certified block becomes the identity, so any
  two same-size symmetric unimodular matrices are isometric
  (:func:`build_isometry`, which inverts nothing: ``V.T @ A @ V == I`` gives
  ``V^-1 == V.T @ A``, and it checks ``S.T @ A @ S == B`` itself), and
  graded linear maps, given by the image of each source basis element
  (:class:`GradedMapSpec`), can be checked for multiplicativity, coproduct
  compatibility, and pairing preservation (:func:`verify_graded_isometry`).

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
from operator import floordiv, mul, truediv

from .algebra import (
    GaussRat,
    LinComb,
    _span,
    as_lincomb,
    format_lincomb,
    format_scalar,
    lc_product,
    normalize_scalar,
    pairing,
    parse_lincomb,
    reduced_coproduct,
)
from .poset_core import SpecialPoset, compose, enumerate_family, parse_poset

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


def mat_mul(A, B):
    """Exact matrix product; scalar types mix freely.

    Every row of ``A`` and column of ``B`` is scaled to integers first, so
    each cell is a few integer dot products and one normalized scalar.
    """
    if A and len(A[0]) != len(B):
        raise ValueError("matrix size mismatch")
    cols = _integer_vectors(zip(*B))
    out = []
    for da, ar, ai in _integer_vectors(A):
        row = []
        for db, br, bi in cols:
            re = sum(map(mul, ar, br))
            im = 0
            if ai is not None:
                im = sum(map(mul, ai, br))
                if bi is not None:
                    re -= sum(map(mul, ai, bi))
            if bi is not None:
                im += sum(map(mul, ar, bi))
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
    rows = _matrix(A)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix not symmetric")
    out = []
    for row in rows:
        ints = []
        for x in row:
            if not _is_integral(x):
                raise ValueError("matrix not unimodular")
            ints.append(int(x))
        out.append(ints)
    for i in range(n):
        for j in range(n):
            if out[i][j] != out[j][i]:
                raise ValueError("matrix not symmetric")
    return out


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

    A success takes no determinant: ``T`` is a product of unimodular steps
    and ``T @ A @ T.T`` is checked to be the blocks, so ``|det A| == 1``.
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

    def radd(i, j, t):
        # symmetric row-and-column operation R_i += t R_j
        M[i] = [a + t * b for a, b in zip(M[i], M[j])]
        for row in M:
            row[i] += t * row[j]
        T[i] = [a + t * b for a, b in zip(T[i], T[j])]

    def rswap(i, j):
        M[i], M[j] = M[j], M[i]
        for row in M:
            row[i], row[j] = row[j], row[i]
        T[i], T[j] = T[j], T[i]

    def rneg(i):
        M[i] = [-a for a in M[i]]
        for row in M:
            row[i] = -row[i]
        T[i] = [-a for a in T[i]]

    def apply_block(k0, U):
        u = len(U)
        segment = [M[k0 + i][:] for i in range(u)]
        for i in range(u):
            M[k0 + i] = [
                sum(U[i][j] * segment[j][c] for j in range(u)) for c in range(n)
            ]
        for row in M:
            seg = [row[k0 + j] for j in range(u)]
            for i in range(u):
                row[k0 + i] = sum(U[i][j] * seg[j] for j in range(u))
        tseg = [T[k0 + i][:] for i in range(u)]
        for i in range(u):
            T[k0 + i] = [
                sum(U[i][j] * tseg[j][c] for j in range(u)) for c in range(n)
            ]

    blocks = []
    k = 0
    while k < n:
        spend()
        unit = next((i for i in range(k, n) if abs(M[i][i]) == 1), None)
        if unit is not None:
            if unit != k:
                rswap(k, unit)
            s = M[k][k]
            for j in range(k + 1, n):
                if M[j][k]:
                    radd(j, k, -M[j][k] * s)
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
            if M[k + 1][k] == -1:
                rneg(k + 1)
            for j in range(k + 2, n):
                if M[j][k]:
                    radd(j, k + 1, -M[j][k])
            for j in range(k + 2, n):
                if M[j][k + 1]:
                    radd(j, k, -M[j][k + 1])
            lam = M[k + 1][k + 1] // 2
            if lam:
                radd(k + 1, k, -lam)
            if M[k + 1][k + 1] == 0:
                blocks.append("hyperbolic")
            else:
                apply_block(k, ((0, -1), (-1, 1)))
                blocks.append("plus_one")
                blocks.append("minus_one")
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
        apply_block(k, _complete_unimodular(v))
    B = _block_diagonal(blocks, BLOCK_SHAPES)
    if mat_mul(mat_mul(T, A0), mat_transpose(T)) != B or M != B:
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


class GradedMapSpec:
    """A graded linear map between poset families, given on basis elements.

    ``images`` maps every source basis element of degrees 1 to ``degree`` to
    its image, a combination of target basis elements.  The empty poset maps
    to the empty poset.  Two specs are equal when all four fields are.
    """

    __hash__ = None

    def __init__(self, source, target, images, degree):
        self.source = source
        self.target = target
        self.images = images
        self.degree = degree

    def _fields(self):
        return (self.source, self.target, self.images, self.degree)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return "GradedMapSpec(source={!r}, target={!r}, images={!r}, degree={!r})".format(
            *self._fields()
        )

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
    map is an isometric morphism that far).
    """
    max_degree = int(max_degree)
    if max_degree < 1:
        raise ValueError("max_degree must be positive")
    if max_degree > spec.degree:
        raise ValueError(f"missing degree block: {spec.degree + 1}")
    source = {n: enumerate_family(spec.source, n) for n in range(1, max_degree + 1)}
    violations = []
    checks = 0

    def check(kind, degree, elements, got, expected, show=format_lincomb):
        nonlocal checks
        checks += 1
        if got != expected:
            violations.append(
                {
                    "check": kind,
                    "degree": degree,
                    "elements": [e.literal() for e in elements],
                    "expected": show(expected),
                    "got": show(got),
                }
            )

    for a in range(1, max_degree):
        for b in range(1, max_degree - a + 1):
            for P in source[a]:
                for Q in source[b]:
                    left = spec.image(compose(P, Q))
                    right = lc_product(spec.image(P), spec.image(Q))
                    check("product", [a, b], (P, Q), left, right)
    for n in range(1, max_degree + 1):
        for P in source[n]:
            left = reduced_coproduct(spec.image(P))
            right = _span(reduced_coproduct(LinComb.basis(P)), spec.image, spec.image)
            check("coproduct", n, (P,), left, right)
    for n in range(1, max_degree + 1):
        for i, P in enumerate(source[n]):
            for Q in source[n][i:]:
                lhs = pairing(spec.image(P), spec.image(Q))
                rhs = pairing(LinComb.basis(P), LinComb.basis(Q))
                check("pairing", n, (P, Q), lhs, rhs, format_scalar)
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


def _conjugate_lincomb(x):
    return LinComb(
        (key, coeff.conjugate() if isinstance(coeff, GaussRat) else coeff)
        for key, coeff in x.terms()
    )


def plane_to_special_isometry(max_degree=3, variant="derived"):
    """The graded isometry candidate from plane to special plane posets.

    The ``derived`` variant passes :func:`verify_graded_isometry` through
    degree 3; ``derived-alt`` is its complex conjugate and also passes;
    ``printed`` keeps the uncorrected degree-2 coefficients ``(I, 1/2+1/2*I)``
    whose verification reports the known discrepancies.
    """
    if variant not in ISOMETRY_VARIANTS:
        raise ValueError(f"unknown isometry variant: {variant!r}")
    max_degree = int(max_degree)
    if max_degree < 1:
        raise ValueError("max_degree must be positive")
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
                img = _conjugate_lincomb(img)
            images[parse_poset(src_literal)] = img
        for left, right in ((point, antichain2), (point, chain2), (chain2, point)):
            images[compose(left, right)] = lc_product(images[left], images[right])
    return GradedMapSpec(source="pp", target="spp", images=images, degree=max_degree)
