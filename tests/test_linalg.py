"""Exact linear algebra: rank/kernel, determinants, congruence, isometries."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dposet import linalg
from dposet.algebra import GaussRat, gram_matrix, normalize_scalar, parse_lincomb
from dposet.linalg import (
    ISOMETRY_VARIANTS,
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
from dposet.poset_core import SpecialPoset, parse_poset

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
    with pytest.raises(ValueError):
        mat_inverse([[1, 2], [2, 4]])


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


def test_congruence_diagonalize_gram_matrices():
    for family, n in (("pp", 2), ("pp", 3), ("spf", 3), ("spp", 3)):
        G = [[int(x) for x in row] for row in gram_matrix(family, n)]
        cert = congruence_diagonalize(G)
        check_certificate(cert)


def test_congruence_diagonalize_rejections():
    with pytest.raises(ValueError, match="not symmetric"):
        congruence_diagonalize([[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="not unimodular"):
        congruence_diagonalize([[2, 0], [0, 1]])
    with pytest.raises(ValueError, match="not unimodular"):
        congruence_diagonalize([[Fraction(1, 2)]])


def test_congruence_diagonalize_honest_failure_on_even_definite_forms():
    # the rank-8 even positive-definite unimodular form has no diagonal
    # entry of norm 1, so no certificate with these blocks exists
    with pytest.raises(ValueError, match="no unimodular block diagonalization"):
        congruence_diagonalize(e8_matrix())


def test_congruence_diagonalize_random_matrices():
    rng = random.Random(20240814)
    for case in range(40):
        size = rng.randint(1, 8)
        M = random_unimodular_symmetric(rng, size)
        cert = congruence_diagonalize(M)
        check_certificate(cert)
        assert [list(r) for r in cert.matrix] == M


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
        mat_mul(mat_transpose(c.transform), linalg._block_unit_transform(c.blocks))
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
    unit = linalg._block_unit_transform
    monkeypatch.setattr(
        linalg, "_block_unit_transform", lambda blocks: [[2 * x for x in row] for row in unit(blocks)]
    )
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
    with pytest.raises(ValueError, match="missing degree block"):
        spec.image(parse_poset("PP(3; h: 1<2, 2<3; r:)"))
    with pytest.raises(ValueError, match="basis element"):
        spec.image(parse_poset("SP(2; 2<1)"))


@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=6))
def test_random_certificates_verify(seed, size):
    rng = random.Random(seed)
    M = random_unimodular_symmetric(rng, size)
    check_certificate(congruence_diagonalize(M))
