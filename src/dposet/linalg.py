"""Exact linear algebra and isometry tooling.

Matrices are plain lists of rows with integer, rational, or Gaussian-rational
entries; every computation here is exact.  The module provides three layers:

* generic kernels, determinants, inverses, and products over the scalar
  field (:func:`rank_kernel`, :func:`det`, :func:`mat_inverse`, ...);
  :func:`mat_mul` scales every row and column to integers over a common
  denominator and multiplies with integer dot products, and
  :func:`rank_kernel` scales every row the same way and eliminates
  fraction-free (Bareiss), dividing only once at the end;
* integer congruence: a symmetric unimodular matrix is block-diagonalized by
  a certified unimodular change of basis into blocks ``(1)``, ``(-1)``, and
  the hyperbolic plane ``[[0, 1], [1, 0]]`` (:func:`congruence_diagonalize`);
* graded isometries between the plane and special-plane Hopf algebras: over
  the Gaussian rationals every certified block becomes the identity, so any
  two same-size symmetric unimodular matrices are isometric
  (:func:`build_isometry`, which inverts nothing: ``V.T @ A @ V == I`` gives
  ``V^-1 == V.T @ A``, and it checks ``S.T @ A @ S == B`` itself), and
  degree-wise linear maps can be checked for multiplicativity, coproduct
  compatibility, and pairing preservation (:class:`GradedMapSpec`,
  :func:`verify_graded_isometry`).

:func:`plane_to_special_isometry` records the known degree-by-degree
isometric Hopf morphism from plane posets to special plane posets up to
degree 3, in a corrected ``derived`` variant (which verifies), its complex
conjugate ``derived-alt``, and the uncorrected ``printed`` variant kept so
its failure can be reported explicitly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import floordiv, mul, truediv

from .algebra import (
    GaussRat,
    LinComb,
    apply_slot,
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


def mat_inverse(A):
    """Exact inverse by Gauss-Jordan elimination."""
    rows = _square(A)
    n = len(rows)
    aug = [row + [normalize_scalar(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for c in range(n):
        p = next((i for i in range(c, n) if aug[i][c]), None)
        if p is None:
            raise ValueError("matrix not invertible")
        aug[c], aug[p] = aug[p], aug[c]
        inv = aug[c][c]
        aug[c] = [x / inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [[normalize_scalar(x) for x in row[n:]] for row in aug]


def rank_kernel(A):
    """Exact rank and kernel basis of a matrix.

    Returns ``(rank, kernel)`` where each kernel vector carries a leading 1
    in its free coordinate; vectors are listed by increasing free column, and
    read off the reduced row echelon form.

    Each row is scaled to integral (or Gaussian-integral) entries and
    eliminated fraction-free, Gauss-Jordan style: the update ``(p*x - f*y) /
    prev`` by the previous pivot is an exact ring division (Bareiss), and it
    leaves every pivot entry equal to the last pivot ``d``.  The reduced row
    echelon form is the result divided by ``d``, done once per kernel entry.
    """
    width = len(A[0]) if A else 0
    if any(len(row) != width for row in A):
        raise ValueError("ragged matrix")
    if not width:
        return 0, []
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
    m, n = len(M), len(M[0])
    pivots = []
    prev = 1
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        p = next((i for i in range(r, m) if M[i][c]), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
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
    d = Fraction(prev) if real else prev
    pivot_set = set(pivots)
    kernel = []
    zero, one = normalize_scalar(0), normalize_scalar(1)
    for free in range(n):
        if free in pivot_set:
            continue
        v = [zero] * n
        v[free] = one
        for idx, pc in enumerate(pivots):
            v[pc] = normalize_scalar(-M[idx][free] / d)
        kernel.append(v)
    return len(pivots), kernel


def _is_integral(x):
    if isinstance(x, Fraction):
        return x.denominator == 1
    return isinstance(x, int)


def det(A):
    """Exact determinant: fraction-free Bareiss for integer matrices, plain
    Gaussian elimination otherwise."""
    rows = _square(A)
    n = len(rows)
    if n == 0:
        return 1
    if all(_is_integral(x) for row in rows for x in row):
        M = [[int(x) for x in row] for row in rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if M[k][k] == 0:
                p = next((i for i in range(k + 1, n) if M[i][k]), None)
                if p is None:
                    return 0
                M[k], M[p] = M[p], M[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
                M[i][k] = 0
            prev = M[k][k]
        return sign * M[n - 1][n - 1]
    value = normalize_scalar(1)
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c]), None)
        if p is None:
            return normalize_scalar(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            value = -value
        value = normalize_scalar(value * rows[c][c])
        inv = rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] / inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return value


# -- integer congruence diagonalization ----------------------------------------

BLOCK_SHAPES = {
    "plus_one": ((1,),),
    "minus_one": ((-1,),),
    "hyperbolic": ((0, 1), (1, 0)),
}


@dataclass(frozen=True)
class CongruenceCertificate:
    """Certificate ``transform @ matrix @ transform.T == block_matrix``.

    ``blocks`` names the diagonal blocks of ``block_matrix`` in order, each
    one of ``plus_one``, ``minus_one``, or ``hyperbolic``; ``transform`` is
    unimodular.
    """

    matrix: tuple
    transform: tuple
    blocks: tuple
    block_matrix: tuple

    def as_dict(self):
        return {
            "matrix": [list(r) for r in self.matrix],
            "transform": [list(r) for r in self.transform],
            "blocks": list(self.blocks),
            "block_matrix": [list(r) for r in self.block_matrix],
        }


def _block_matrix_of(blocks):
    size = sum(len(BLOCK_SHAPES[b]) for b in blocks)
    out = [[0] * size for _ in range(size)]
    k = 0
    for b in blocks:
        shape = BLOCK_SHAPES[b]
        for i, row in enumerate(shape):
            for j, x in enumerate(row):
                out[k + i][k + j] = x
        k += len(shape)
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
    """A unimodular integer matrix whose first row is the primitive vector ``v``."""
    m = len(v)
    W = identity_matrix(m)
    col = list(v)

    def add(i, j, t):
        col[i] += t * col[j]
        W[i] = [a + t * b for a, b in zip(W[i], W[j])]

    def swap(i, j):
        col[i], col[j] = col[j], col[i]
        W[i], W[j] = W[j], W[i]

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
        W[0] = [-a for a in W[0]]
    if col[0] != 1:
        raise ValueError("vector not primitive")
    # W @ v == e1, so v is the first column of W^-1 and the first row of its
    # transpose; the inverse of a unimodular matrix is integer.
    inv = mat_inverse(W)
    return [[int(x) for x in row] for row in mat_transpose(inv)]


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
    """
    A0 = _int_symmetric(A)
    n = len(A0)
    if det(A0) not in (1, -1):
        raise ValueError("matrix not unimodular")
    M = [row[:] for row in A0]
    T = identity_matrix(n)
    fuel = CONGRUENCE_FUEL

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
        fuel -= 1
        if fuel <= 0:
            raise ValueError("no unimodular block diagonalization found")
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
                fuel -= 1
                if fuel <= 0:
                    raise ValueError("no unimodular block diagonalization found")
                nz = [j for j in range(k + 1, n) if M[j][k]]
                if not nz:
                    raise ValueError("no unimodular block diagonalization found")
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
                    raise ValueError("no unimodular block diagonalization found")
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
        def active_size():
            return sum(M[i][j] * M[i][j] for i in range(k, n) for j in range(k, n))

        reduced = False
        while True:
            fuel -= 1
            if fuel <= 0:
                raise ValueError("no unimodular block diagonalization found")
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
            raise ValueError("no unimodular block diagonalization found")
        apply_block(k, _complete_unimodular(v))
    B = _block_matrix_of(blocks)
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

_BLOCK_UNITS = {
    "plus_one": ((Fraction(1),),),
    "minus_one": ((GaussRat(0, 1),),),
    "hyperbolic": _HYPERBOLIC_TO_IDENTITY,
}


def _block_unit_transform(blocks):
    """Block diagonal W with W.T @ block_matrix @ W == identity."""
    size = sum(len(_BLOCK_UNITS[b]) for b in blocks)
    out = [[normalize_scalar(0)] * size for _ in range(size)]
    k = 0
    for b in blocks:
        shape = _BLOCK_UNITS[b]
        for i, row in enumerate(shape):
            for j, x in enumerate(row):
                out[k + i][k + j] = normalize_scalar(x)
        k += len(shape)
    return out


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
    va = mat_mul(mat_transpose(ca.transform), _block_unit_transform(ca.blocks))
    vb = mat_mul(mat_transpose(cb.transform), _block_unit_transform(cb.blocks))
    S = mat_mul(va, mat_mul(mat_transpose(vb), B0))
    if mat_mul(mat_mul(mat_transpose(S), ca.matrix), S) != B0:
        raise AssertionError("isometry certificate failed")
    return S


@lru_cache(maxsize=None)
def _family_basis(family, n):
    basis = enumerate_family(family, n)
    return tuple(basis), {key: i for i, key in enumerate(basis)}


@dataclass
class GradedMapSpec:
    """Degree-wise matrices of a graded linear map between poset families.

    ``blocks[n]`` is the matrix of the degree-``n`` component: column ``j``
    holds the coordinates, in the canonical order of the target family, of
    the image of the ``j``-th canonical basis element of the source family.
    The empty poset maps to the empty poset.
    """

    source: str
    target: str
    blocks: dict

    def image(self, key):
        """Image of a single source basis element, as a target LinComb."""
        n = key.n
        if n == 0:
            return LinComb.basis(SpecialPoset(0))
        if n not in self.blocks:
            raise ValueError(f"missing degree block: {n}")
        _, src_index = _family_basis(self.source, n)
        if key not in src_index:
            raise ValueError(f"not a {self.source} basis element: {key.literal()}")
        j = src_index[key]
        tgt, _ = _family_basis(self.target, n)
        matrix = self.blocks[n]
        return LinComb((tgt[i], matrix[i][j]) for i in range(len(tgt)))

    def __call__(self, x):
        """Linear extension of :meth:`image` to combinations."""
        return LinComb(
            (k, coeff * c)
            for key, coeff in as_lincomb(x).items()
            for k, c in self.image(key).items()
        )


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
    for n in range(1, max_degree + 1):
        if n not in spec.blocks:
            raise ValueError(f"missing degree block: {n}")
    violations = []
    checks = 0
    for a in range(1, max_degree):
        for b in range(1, max_degree - a + 1):
            src_a, _ = _family_basis(spec.source, a)
            src_b, _ = _family_basis(spec.source, b)
            for P in src_a:
                for Q in src_b:
                    left = spec.image(compose(P, Q))
                    right = lc_product(spec.image(P), spec.image(Q))
                    checks += 1
                    if left != right:
                        violations.append(
                            {
                                "check": "product",
                                "degree": [a, b],
                                "elements": [P.literal(), Q.literal()],
                                "expected": format_lincomb(right),
                                "got": format_lincomb(left),
                            }
                        )
    for n in range(1, max_degree + 1):
        src, _ = _family_basis(spec.source, n)
        for P in src:
            left = reduced_coproduct(spec.image(P))
            right = apply_slot(
                apply_slot(reduced_coproduct(LinComb.basis(P)), 0, spec.image), 1, spec.image
            )
            checks += 1
            if left != right:
                violations.append(
                    {
                        "check": "coproduct",
                        "degree": n,
                        "elements": [P.literal()],
                        "expected": format_lincomb(right),
                        "got": format_lincomb(left),
                    }
                )
    for n in range(1, max_degree + 1):
        src, _ = _family_basis(spec.source, n)
        for i, P in enumerate(src):
            for Q in src[i:]:
                lhs = pairing(spec.image(P), spec.image(Q))
                rhs = pairing(LinComb.basis(P), LinComb.basis(Q))
                checks += 1
                if lhs != rhs:
                    violations.append(
                        {
                            "check": "pairing",
                            "degree": n,
                            "elements": [P.literal(), Q.literal()],
                            "expected": format_scalar(rhs),
                            "got": format_scalar(lhs),
                        }
                    )
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
    if not 1 <= max_degree <= 3:
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
    blocks = {}
    for n in range(1, max_degree + 1):
        src, _ = _family_basis("pp", n)
        tgt, tgt_index = _family_basis("spp", n)
        matrix = [[normalize_scalar(0)] * len(src) for _ in range(len(tgt))]
        for j, P in enumerate(src):
            for key, coeff in images[P].terms():
                matrix[tgt_index[key]][j] = coeff
        blocks[n] = matrix
    return GradedMapSpec(source="pp", target="spp", blocks=blocks)
