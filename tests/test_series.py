"""Tests for truncated rational series and the family counting series."""

from fractions import Fraction

import pytest

import dposet.series as series_mod
from dposet.series import RatSeries, decoration_counts, poincare_series


def rs(*coeffs):
    return RatSeries.from_coefficients(coeffs)


# -- RatSeries arithmetic ----------------------------------------------------------


def test_construction_checks_length():
    with pytest.raises(ValueError, match="coefficient count must be order"):
        RatSeries((1, 2), 2)


def test_series_are_immutable_values():
    s = RatSeries((1, "1/2"), 1)
    assert s == RatSeries((Fraction(1), Fraction(1, 2)), 1)
    assert hash(s) == hash(RatSeries((1, Fraction(1, 2)), 1))
    assert s != RatSeries((1, "1/2", 0), 2)
    assert s != (s.coefficients, s.order)
    assert repr(s) == "RatSeries(coefficients=(Fraction(1, 1), Fraction(1, 2)), order=1)"
    with pytest.raises(AttributeError):
        s.order = 2
    with pytest.raises(AttributeError):
        del s.coefficients


def test_from_coefficients_pads_and_truncates():
    assert RatSeries.from_coefficients([1], 2) == RatSeries((1, 0, 0), 2)
    assert RatSeries.from_coefficients([1, 2, 3, 4], 2) == RatSeries((1, 2, 3), 2)


def test_coefficients_are_fractions():
    s = RatSeries(("1/2", 3), 1)
    assert s[0] == Fraction(1, 2)
    assert isinstance(s[1], Fraction)


def test_getitem_beyond_truncation():
    s = rs(1, 2, 3)
    assert s[2] == 3
    with pytest.raises(IndexError, match="beyond truncation order"):
        s[3]


def test_add_sub_mul():
    a = rs(1, 2, 0)
    b = rs(0, 1, 1)
    assert a + b == rs(1, 3, 1)
    assert a - b == rs(1, 1, -1)
    assert a * b == rs(0, 1, 3)
    assert a * 2 == rs(2, 4, 0)
    assert 2 * a == rs(2, 4, 0)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError, match="truncation order mismatch"):
        rs(1, 2) + rs(1, 2, 3)
    with pytest.raises(ValueError, match="truncation order mismatch"):
        rs(1) * rs(1, 0)


def test_inverse():
    s = rs(1, 1, 0, 0)
    inv = s.inverse()
    assert inv == rs(1, -1, 1, -1)
    assert s * inv == rs(1, 0, 0, 0)
    half = rs(2, 1)
    assert half.inverse() == RatSeries((Fraction(1, 2), Fraction(-1, 4)), 1)


def test_inverse_requires_nonzero_constant():
    with pytest.raises(ValueError, match="zero constant term"):
        rs(0, 1).inverse()


def test_str_format():
    assert str(RatSeries((1, 0, 2), 2)) == "1 + 2*x^2"
    assert str(RatSeries((0, 3), 1)) == "0 + 3*x"
    assert str(RatSeries.from_coefficients([Fraction(1, 2)], 1)) == "1/2"


# -- counting series ---------------------------------------------------------------


def test_poincare_rows():
    assert poincare_series("sp", 5).coefficients == (1, 1, 3, 19, 219, 4231)
    assert poincare_series("spp", 4).coefficients == (1, 1, 2, 6, 24)
    assert poincare_series("hof", 4).coefficients == (1, 1, 2, 6, 24)
    assert poincare_series("swnp", 4).coefficients == (1, 1, 2, 6, 22)
    assert poincare_series("of", 3).coefficients == (1, 1, 3, 16)


def test_decoration_rows():
    rows = {
        "sp": (0, 1, 1, 10, 148, 3336),
        "of": (0, 1, 1, 7, 66, 786),
        "hof": (0, 1, 0, 1, 6, 39),
        "swnp": (0, 1, 0, 1, 4, 17),
    }
    for family, expected in rows.items():
        assert decoration_counts(family, 5).coefficients == expected
    assert decoration_counts("spf", 4).coefficients == (0, 1, 0, 0, 0)


def test_decoration_counts_free_gate(monkeypatch):
    # A family counted by 1, 1, 1 is not free over forests: its second
    # decoration count would be negative.
    def fake(family, order):
        return RatSeries.from_coefficients([1, 1, 1], order)

    monkeypatch.setattr(series_mod, "poincare_series", fake)
    with pytest.raises(ValueError, match="not free-over-forests"):
        decoration_counts("sp", 2)


def test_decoration_identity():
    # D was solved from T = D*F and F = 1/(1 - T): check F*(1 - D*F) == 1.
    order = 4
    one = RatSeries.from_coefficients([1], order)
    for family in ("sp", "hof", "spf", "swnp"):
        F = poincare_series(family, order)
        D = decoration_counts(family, order)
        assert F * (one - D * F) == one
