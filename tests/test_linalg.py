"""Exact linear algebra: rank/kernel, determinants, congruence, isometries."""

import itertools
import math
import random
import time
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dposet import linalg
from dposet.algebra import GaussRat, LinComb, gram_matrix, normalize_scalar, parse_lincomb
from dposet.linalg import (
    BLOCK_SHAPES,
    CONGRUENCE_FUEL,
    ISOMETRY_VARIANTS,
    CongruenceCertificate,
    GradedMapSpec,
    build_isometry,
    congruence_diagonalize,
    det,
    identity_matrix,
    mat_inverse,
    mat_mul,
    mat_transpose,
    plane_to_special_isometry,
    rank_kernel,
    verify_graded_isometry,
)
from dposet.linalg import _block_diagonal, _complete_unimodular, _is_integral, _matrix, _short_unit_vector
from dposet.poset_core import SpecialPoset, enumerate_family, parse_poset

from conftest import random_unimodular_symmetric

E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


def e8_matrix():
    M = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
    for a, b in E8_EDGES:
        M[a - 1][b - 1] = M[b - 1][a - 1] = -1
    return M


# -- elementary exact routines ---------------------------------------------------------


def test_det_examples():
    assert det([[2, 1], [1, 1]]) == 1
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[Fraction(1, 2), 0], [0, 4]]) == 2
    assert det(e8_matrix()) == 1


def test_rank_kernel():
    rank, kernel = rank_kernel([[1, 2], [2, 4]])
    assert rank == 1 and len(kernel) == 1
    v = kernel[0]
    assert v[0] * 1 + v[1] * 2 == 0
    full_rank, no_kernel = rank_kernel([[1, 0], [0, 1]])
    assert full_rank == 2 and no_kernel == []


def test_mat_inverse_and_error():
    A = [[2, 1], [1, 1]]
    assert mat_mul(A, mat_inverse(A)) == identity_matrix(2)
    with pytest.raises(ValueError, match="matrix not invertible"):
        mat_inverse([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="matrix not square"):
        mat_inverse([[1, 2]])
    assert mat_inverse([]) == []


def test_mat_helpers_normalize_entries():
    A = mat_mul([[GaussRat(0, 1)]], [[GaussRat(0, -1)]])
    assert A == [[1]]
    assert mat_transpose([[1, 2], [3, 4]]) == [[1, 3], [2, 4]]


def test_mat_mul_checks_inner_dimensions():
    with pytest.raises(ValueError, match="matrix size mismatch"):
        mat_mul([[1, 2]], [])
    with pytest.raises(ValueError, match="matrix size mismatch"):
        mat_mul([[1, 2]], [[1]])
    assert mat_mul([], []) == []
    assert mat_mul([[], []], []) == [[], []]


def reference_mat_mul(A, B):
    """The per-cell product: one normalized sum of scalar products per cell."""
    return [[normalize_scalar(sum(a * b for a, b in zip(row, col))) for col in zip(*B)] for row in A]


_RATIONALS = st.fractions(min_value=-40, max_value=40, max_denominator=12)
_SCALAR_KINDS = (
    st.integers(-40, 40),
    _RATIONALS,
    st.builds(GaussRat, _RATIONALS),
    st.one_of(
        st.integers(-40, 40),
        _RATIONALS,
        st.builds(GaussRat, _RATIONALS),
        st.builds(GaussRat, _RATIONALS, _RATIONALS),
    ),
)


@st.composite
def matrix_pairs(draw):
    m, k, n = (draw(st.integers(0, 4)) for _ in range(3))
    a_scalars = draw(st.sampled_from(_SCALAR_KINDS))
    b_scalars = draw(st.sampled_from(_SCALAR_KINDS))
    A = [[draw(a_scalars) for _ in range(k)] for _ in range(m)]
    B = [[draw(b_scalars) for _ in range(n)] for _ in range(k)]
    return A, B


@given(matrix_pairs())
def test_mat_mul_matches_the_per_cell_product(pair):
    A, B = pair
    # repr tells Fraction from a real GaussRat, so types must agree too
    assert repr(mat_mul(A, B)) == repr(reference_mat_mul(A, B))


def reference_rank_kernel(A):
    """Fraction Gauss-Jordan elimination to the reduced row echelon form."""
    rows = [[normalize_scalar(x) for x in row] for row in A]
    if not rows or not rows[0]:
        return 0, []
    m, n = len(rows), len(rows[0])
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        p = next((i for i in range(r, m) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    kernel = []
    for free in range(n):
        if free in pivots:
            continue
        v = [normalize_scalar(0)] * n
        v[free] = normalize_scalar(1)
        for idx, pc in enumerate(pivots):
            v[pc] = normalize_scalar(-rows[idx][free])
        kernel.append(v)
    return len(pivots), kernel


@st.composite
def kernel_matrices(draw, square=False):
    """Matrices of one scalar kind, with rows that often repeat the span of
    earlier ones, so the rank is often deficient."""
    m = draw(st.integers(0, 5))
    n = m if square else draw(st.integers(0, 5))
    scalars = draw(st.sampled_from(_SCALAR_KINDS))
    if square:
        # zero entries make the elimination swap rows
        scalars = st.one_of(st.just(0), scalars)
    rows = []
    for i in range(m):
        if i >= 1 and draw(st.booleans()):
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            rows.append([a * x + b * y for x, y in zip(rows[j], rows[k])])
        else:
            rows.append([draw(scalars) for _ in range(n)])
    return rows


@given(kernel_matrices())
def test_rank_kernel_matches_fraction_gauss_jordan(A):
    assert repr(rank_kernel(A)) == repr(reference_rank_kernel(A))


def leibniz_det(A):
    """The permutation expansion; an ``int`` for an integer matrix."""
    rows = [[normalize_scalar(x) for x in row] for row in A]
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total += term
    if all(isinstance(x, Fraction) and x.denominator == 1 for row in rows for x in row):
        return int(total)
    return normalize_scalar(total)


@given(kernel_matrices(square=True))
def test_det_matches_the_leibniz_expansion(A):
    # repr tells an int from a Fraction, so an integer matrix must give an int
    assert repr(det(A)) == repr(leibniz_det(A))


@given(kernel_matrices(square=True))
def test_mat_inverse_is_a_two_sided_inverse(A):
    if det(A) == 0:
        with pytest.raises(ValueError, match="matrix not invertible"):
            mat_inverse(A)
    else:
        inverse = mat_inverse(A)
        assert mat_mul(A, inverse) == mat_mul(inverse, A) == identity_matrix(len(A))


def test_rank_kernel_matches_fraction_gauss_jordan_on_gram_matrices():
    for family, n in (("sp", 3), ("hof", 4), ("pp", 4), ("of", 4)):
        G = gram_matrix(family, n)
        assert repr(rank_kernel(G)) == repr(reference_rank_kernel(G))


def test_rank_kernel_edge_shapes():
    zero = normalize_scalar(0)
    one = normalize_scalar(1)
    assert rank_kernel([[0, 0], [0, 0]]) == (0, [[one, zero], [zero, one]])
    assert rank_kernel([]) == (0, []) and rank_kernel([[], []]) == (0, [])
    with pytest.raises(ValueError, match="ragged matrix"):
        rank_kernel([[1, 2], [3]])


# -- congruence certificates -----------------------------------------------------------


def check_certificate(cert):
    assert mat_mul(mat_mul(cert.transform, cert.matrix), mat_transpose(cert.transform)) == [
        list(row) for row in cert.block_matrix
    ]
    assert det(cert.transform) in (1, -1)
    assert all(b in ("plus_one", "minus_one", "hyperbolic") for b in cert.blocks)


def test_congruence_diagonalize_hyperbolic_plane():
    cert = congruence_diagonalize([[0, 1], [1, 0]])
    assert cert.blocks == ("hyperbolic",)
    check_certificate(cert)
    assert cert == CongruenceCertificate(
        matrix=cert.matrix, transform=cert.transform, blocks=("hyperbolic",), block_matrix=cert.block_matrix
    )
    with pytest.raises(AttributeError):
        cert.blocks = ()


def test_congruence_diagonalize_gram_matrices():
    for family, n in (("pp", 2), ("pp", 3), ("spf", 3), ("spp", 3)):
        G = [[int(x) for x in row] for row in gram_matrix(family, n)]
        cert = congruence_diagonalize(G)
        check_certificate(cert)


def test_congruence_diagonalize_rejections():
    with pytest.raises(ValueError, match="not symmetric"):
        congruence_diagonalize([[0, 1], [2, 0]])
    # every diagonal entry >= 2, a zero diagonal, a unit block, a fraction
    for M in ([[2, 1], [1, 2]], [[0, 2], [2, 0]], [[2, 0], [0, 1]], [[Fraction(1, 2)]]):
        with pytest.raises(ValueError, match="^matrix not unimodular$"):
            congruence_diagonalize(M)


def test_congruence_refuses_a_large_non_unimodular_form_before_the_search():
    # the shrink-and-hunt search would take minutes on 60 x 60; det decides first
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^matrix not unimodular$"):
        congruence_diagonalize([[2 * (i == j) for j in range(60)] for i in range(60)])
    assert time.perf_counter() - start < 1


def test_congruence_diagonalize_honest_failure_on_even_definite_forms():
    # the rank-8 even positive-definite unimodular form has no diagonal
    # entry of norm 1, so no certificate with these blocks exists
    with pytest.raises(ValueError, match="^no unimodular block diagonalization found$"):
        congruence_diagonalize(e8_matrix())


def test_congruence_takes_no_determinant_on_success(monkeypatch):
    # the certificate proves unimodularity, and these forms never reach the
    # shrink-and-hunt branch
    def no_det(A):
        raise AssertionError("det on the success path")

    monkeypatch.setattr(linalg, "det", no_det)
    for family in ("pp", "spp", "pf"):
        check_certificate(congruence_diagonalize(gram_matrix(family, 4)))


def test_complete_unimodular_starts_with_its_vector():
    rng = random.Random(20240814)
    for size in range(1, 9):
        for case in range(10):
            v = [0] * size
            while math.gcd(*v) != 1:
                v = [rng.randint(-9, 9) for _ in range(size)]
            W = linalg._complete_unimodular(v)
            assert W[0] == v and det(W) in (1, -1)
    with pytest.raises(ValueError, match="vector not primitive"):
        linalg._complete_unimodular([2, 4])


def test_congruence_diagonalize_random_matrices(monkeypatch):
    # det is taken at most once, and only before the shrink-and-hunt branch
    calls = []
    monkeypatch.setattr(linalg, "det", lambda A: calls.append(A) or det(A))
    rng = random.Random(20240814)
    hunted = 0
    for case in range(40):
        size = rng.randint(1, 8)
        M = random_unimodular_symmetric(rng, size)
        calls.clear()
        cert = congruence_diagonalize(M)
        check_certificate(cert)
        assert [list(r) for r in cert.matrix] == M
        assert calls in ([], [M])
        hunted += bool(calls)
    assert 0 < hunted < 40


# The search as it was before M was updated on its trailing block alone and
# before the certificate was summed over nonzero entries, kept verbatim but
# for its two names: every step updates M's full rows and columns, a unit
# pivot clears its column one radd at a time, and T A T.T goes through mat_mul.


def reference_int_symmetric(A):
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


def reference_congruence_diagonalize(A):
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
    A0 = reference_int_symmetric(A)
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


def _reference_outcome(diagonalize, M):
    try:
        cert = diagonalize(M)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return cert.transform, cert.blocks, cert.block_matrix, cert.matrix


# the Gram forms of the families whose degree-5 certificates take seconds or
# less by the reference search
REFERENCE_GRAMS = [(f, n) for f in ("pp", "spp", "pf", "spf", "hof", "wnp", "swnp") for n in range(1, 6)]
REFERENCE_GRAMS += [("pf", 6), ("spf", 6)]


@pytest.mark.parametrize("family, n", REFERENCE_GRAMS)
def test_congruence_matches_the_reference_on_gram_forms(family, n):
    G = gram_matrix(family, n)
    assert _reference_outcome(congruence_diagonalize, G) == _reference_outcome(
        reference_congruence_diagonalize, G
    )


def test_congruence_matches_the_reference_on_random_forms():
    rng = random.Random(20261019)
    for size in range(1, 13):
        for case in range(4):
            M = random_unimodular_symmetric(rng, size)
            assert _reference_outcome(congruence_diagonalize, M) == _reference_outcome(
                reference_congruence_diagonalize, M
            )


@pytest.mark.parametrize(
    "M",
    [
        pytest.param([[0, 1], [2, 0]], id="not-symmetric"),
        pytest.param([[1, 0], [0]], id="ragged"),
        pytest.param([[1, 2, 3]], id="not-square"),
        pytest.param([[2, 1], [1, 2]], id="diagonal-two"),
        pytest.param([[0, 2], [2, 0]], id="zero-diagonal"),
        pytest.param([[2, 0], [0, 1]], id="unit-block"),
        pytest.param([[Fraction(1, 2)]], id="fraction"),
        pytest.param([[Fraction(1), 0], [0, -1]], id="integral-fraction"),
        pytest.param([[True]], id="bool"),
        pytest.param(e8_matrix(), id="E8"),
        pytest.param([[2 * (i == j) for j in range(60)] for i in range(60)], id="2I-60"),
        pytest.param([], id="empty"),
        # a first pivot block [[0, e], [e, c]] with e == -1, with c odd, with
        # c even and nonzero, found through a subcolumn with no unit, and with
        # trailing rows zero in one pivot column only
        pytest.param([[0, -1, 2, 0], [-1, 4, 3, -1], [2, 3, 4, 3], [0, -1, 3, 0]], id="e-minus-one"),
        pytest.param([[0, -1, 0, 0], [-1, 3, 3, 2], [0, 3, 0, -1], [0, 2, -1, -2]], id="c-odd"),
        pytest.param([[0, 1, 0, 0], [1, 4, 3, 1], [0, 3, -2, -1], [0, 1, -1, 0]], id="c-even"),
        pytest.param([[0, 2, 0, 3], [2, 0, -1, 1], [0, -1, 0, -2], [3, 1, -2, 3]], id="euclid"),
        pytest.param([[0, -1, -2, 0], [-1, 2, 0, 2], [-2, 0, 0, -1], [0, 2, -1, 3]], id="one-zero"),
    ],
)
def test_congruence_rejects_and_accepts_as_the_reference_does(M):
    assert _reference_outcome(congruence_diagonalize, M) == _reference_outcome(
        reference_congruence_diagonalize, M
    )


@pytest.mark.parametrize(
    "T, A",
    [
        ([[1, 0, 0], [0, 0, 2], [3, -1, 0]], [[1, 2, 0], [2, 0, -1], [0, -1, 5]]),
        ([[0, 0, 7], [1, 1, 1], [0, 0, 0]], [[0, 1, 0], [1, 0, 0], [0, 0, -1]]),
        ([[5]], [[-3]]),
        ([[0, 4], [-2, 0]], [[1, 2], [3, 4]]),
        ([], []),
    ],
)
def test_congruent_sums_over_nonzeros_to_the_full_product(T, A):
    assert linalg._congruent(T, A) == mat_mul(mat_mul(T, A), mat_transpose(T))


def test_congruent_matches_the_full_product_on_certificates():
    for family in ("pp", "spf"):
        cert = congruence_diagonalize(gram_matrix(family, 4))
        T, A = [list(r) for r in cert.transform], [list(r) for r in cert.matrix]
        assert linalg._congruent(T, A) == mat_mul(mat_mul(T, A), mat_transpose(T))


def test_congruence_catches_one_changed_transform_entry(monkeypatch):
    G = gram_matrix("pp", 4)
    T = congruence_diagonalize(G).transform
    zero = next((i, j) for i, row in enumerate(T) for j, x in enumerate(row) if not x)
    nonzero = next((i, j) for i, row in enumerate(T) for j, x in enumerate(row) if x and i != j)
    congruent = linalg._congruent
    for i, j in (zero, nonzero, (0, 0), (len(T) - 1, len(T) - 1)):

        def flipped(T, A, i=i, j=j):
            T[i][j] = 1 - T[i][j] if T[i][j] in (0, 1) else -T[i][j]
            return congruent(T, A)

        monkeypatch.setattr(linalg, "_congruent", flipped)
        with pytest.raises(AssertionError, match="^congruence bookkeeping failed$"):
            congruence_diagonalize(G)


# -- isometries between pairing matrices ------------------------------------------------


def test_build_isometry_between_plane_grams():
    A = [[int(x) for x in row] for row in gram_matrix("pp", 2)]
    B = [[int(x) for x in row] for row in gram_matrix("spp", 2)]
    S = build_isometry(A, B)
    assert mat_mul(mat_mul(mat_transpose(S), A), S) == B


def test_build_isometry_identity_case():
    I2 = identity_matrix(2)
    S = build_isometry(I2, I2)
    assert mat_mul(mat_mul(mat_transpose(S), I2), S) == I2


def inverse_route_isometry(A, B):
    """``V_a @ V_b^-1`` with a generic Gaussian-rational inverse."""
    va, vb = (
        mat_mul(mat_transpose(c.transform), linalg._block_diagonal(c.blocks, linalg._BLOCK_UNITS))
        for c in (congruence_diagonalize(A), congruence_diagonalize(B))
    )
    return mat_mul(va, mat_inverse(vb))


def test_build_isometry_matches_the_inverse_route():
    rng = random.Random(20240814)
    for case in range(40):
        size = rng.randint(1, 8)
        A = random_unimodular_symmetric(rng, size)
        B = random_unimodular_symmetric(rng, size)
        assert repr(build_isometry(A, B)) == repr(inverse_route_isometry(A, B))


def test_build_isometry_checks_its_certificate(monkeypatch):
    doubled = {
        b: tuple(tuple(2 * x for x in row) for row in shape) for b, shape in linalg._BLOCK_UNITS.items()
    }
    monkeypatch.setattr(linalg, "_BLOCK_UNITS", doubled)
    with pytest.raises(AssertionError, match="isometry certificate failed"):
        build_isometry([[0, 1], [1, 0]], [[1, 0], [0, -1]])


def test_degree_five_plane_certificates():
    check_certificate(congruence_diagonalize(gram_matrix("pp", 5)))
    A, B = gram_matrix("pf", 5), gram_matrix("spf", 5)
    S = build_isometry(A, B)
    assert mat_mul(mat_mul(mat_transpose(S), A), S) == B


# -- the graded plane-to-special map -----------------------------------------------------


def test_isometry_variants_are_exposed():
    assert set(ISOMETRY_VARIANTS) == {"derived", "derived-alt", "printed"}


def test_derived_isometry_passes_through_degree_three():
    for variant in ("derived", "derived-alt"):
        spec = plane_to_special_isometry(max_degree=3, variant=variant)
        report = verify_graded_isometry(spec, 3)
        assert report["ok"], report["violations"][:1]
        assert report["checks"] == 39


def test_printed_coefficients_fail_verification():
    spec = plane_to_special_isometry(max_degree=2, variant="printed")
    report = verify_graded_isometry(spec, 2)
    assert not report["ok"]
    first = report["violations"][0]
    assert first["check"] == "coproduct"
    assert first["degree"] == 2
    assert first["expected"] == "SP(1;) (x) SP(1;)"
    assert first["got"] == "(1+2*I)*SP(1;) (x) SP(1;)"


def test_plane_to_special_isometry_rejections():
    with pytest.raises(ValueError, match="unknown isometry variant"):
        plane_to_special_isometry(variant="made-up")
    with pytest.raises(ValueError, match="stop at degree 3"):
        plane_to_special_isometry(max_degree=4)


def test_graded_map_spec_image():
    spec = plane_to_special_isometry(max_degree=2)
    point = parse_poset("SP(1;)")
    assert spec.image(point) == parse_lincomb("SP(1;)")
    assert spec.image(SpecialPoset(0)) == parse_lincomb("SP(0;)")
    chain, antichain = parse_poset("PP(2; h: 1<2; r:)"), parse_poset("PP(2; h:; r: 1<2)")
    assert spec(chain) == spec.image(chain)
    both = spec.image(chain) + spec.image(chain) + spec.image(antichain)
    assert spec(parse_lincomb("2*PP(2; h: 1<2; r:) + PP(2; h:; r: 1<2)")) == both
    with pytest.raises(ValueError, match="missing degree block"):
        spec.image(parse_poset("PP(3; h: 1<2, 2<3; r:)"))
    with pytest.raises(ValueError, match="basis element"):
        spec.image(parse_poset("SP(2; 2<1)"))


def test_graded_map_spec_is_an_immutable_record():
    images = {SpecialPoset(1): LinComb.basis(SpecialPoset(1))}
    spec = GradedMapSpec("spp", "spp", images, 1)
    assert repr(spec) == f"GradedMapSpec(source='spp', target='spp', images={images!r}, degree=1)"
    with pytest.raises(AttributeError):
        spec.degree = 2


def test_graded_map_spec_holds_the_image_of_each_source_basis_element():
    spec = plane_to_special_isometry(max_degree=3)
    assert spec.degree == 3
    assert set(spec.images) == {P for n in (1, 2, 3) for P in enumerate_family("pp", n)}
    with pytest.raises(ValueError, match="^missing degree block: 4$"):
        verify_graded_isometry(spec, 4)
    images = {P: LinComb.basis(P) for n in (1, 2, 3) for P in enumerate_family("spp", n)}
    identity = GradedMapSpec(source="spp", target="spp", images=images, degree=3)
    assert identity == GradedMapSpec("spp", "spp", dict(images), 3) != spec
    report = verify_graded_isometry(identity, 3)
    assert (report["ok"], report["checks"]) == (True, 39)
    P = parse_poset("SP(3; 1<2)")
    images[P] = LinComb.basis(P, 2)
    coproduct = [v for v in verify_graded_isometry(identity, 3)["violations"] if v["check"] == "coproduct"]
    assert coproduct == [
        {
            "check": "coproduct",
            "degree": 3,
            "elements": ["SP(3; 1<2)"],
            "expected": "SP(1;) (x) SP(2;) + SP(1;) (x) SP(2; 1<2)"
            " + SP(2;) (x) SP(1;) + SP(2; 1<2) (x) SP(1;)",
            "got": "2*SP(1;) (x) SP(2;) + 2*SP(1;) (x) SP(2; 1<2)"
            " + 2*SP(2;) (x) SP(1;) + 2*SP(2; 1<2) (x) SP(1;)",
        }
    ]


@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=6))
def test_random_certificates_verify(seed, size):
    rng = random.Random(seed)
    M = random_unimodular_symmetric(rng, size)
    check_certificate(congruence_diagonalize(M))
