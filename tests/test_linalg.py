"""Exact linear algebra: rank/kernel, determinants, congruence, isometries."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dposet import linalg
from dposet.algebra import GaussRat, LinComb, gram_matrix, normalize_scalar, parse_lincomb
from dposet.linalg import (
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
