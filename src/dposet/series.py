"""Truncated rational power series and counting series of poset families.

``RatSeries`` provides exact arithmetic (sum, product, inverse) on series
truncated at a fixed order.  ``poincare_series`` counts a family by degree;
``decoration_counts`` extracts the generator counts of the family seen as
plane forests with decorated vertices: if ``F`` is the Poincare series and
``D`` the decoration series, then ``T = D*F`` (a decorated tree is a
decoration with a forest hanging below) and ``F = 1/(1-T)`` (a forest is a
word of trees), which solves to ``D = (F-1)/F**2``.
"""

from fractions import Fraction

from .poset_core import enumerate_family

__all__ = ["RatSeries", "decoration_counts", "poincare_series"]


class RatSeries:
    """Power series with rational coefficients, exact through ``order``.

    Immutable; equal to another ``RatSeries`` with the same coefficients and
    order, and hashed by them."""

    __slots__ = ("coefficients", "order")

    def __init__(self, coefficients, order):
        coeffs = tuple(Fraction(c) for c in coefficients)
        if len(coeffs) != order + 1:
            raise ValueError("coefficient count must be order + 1")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.coefficients, self.order) == (other.coefficients, other.order)

    def __hash__(self):
        return hash((self.coefficients, self.order))

    def __repr__(self):
        return f"RatSeries(coefficients={self.coefficients!r}, order={self.order!r})"

    @classmethod
    def from_coefficients(cls, coefficients, order=None):
        coefficients = list(coefficients)
        if order is None:
            order = len(coefficients) - 1
        coefficients += [0] * (order + 1 - len(coefficients))
        return cls(tuple(coefficients[: order + 1]), order)

    def __getitem__(self, n):
        if not 0 <= n <= self.order:
            raise IndexError("coefficient beyond truncation order")
        return self.coefficients[n]

    def _common_order(self, other):
        if self.order != other.order:
            raise ValueError("truncation order mismatch")
        return self.order

    def __add__(self, other):
        order = self._common_order(other)
        return RatSeries(
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients)), order
        )

    def __sub__(self, other):
        order = self._common_order(other)
        return RatSeries(
            tuple(a - b for a, b in zip(self.coefficients, other.coefficients)), order
        )

    def __mul__(self, other):
        if isinstance(other, RatSeries):
            order = self._common_order(other)
            out = [Fraction(0)] * (order + 1)
            for i, a in enumerate(self.coefficients):
                if not a:
                    continue
                for j in range(order + 1 - i):
                    out[i + j] += a * other.coefficients[j]
            return RatSeries(tuple(out), order)
        return RatSeries(
            tuple(a * Fraction(other) for a in self.coefficients), self.order
        )

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse through the truncation order."""
        c0 = self.coefficients[0]
        if c0 == 0:
            raise ValueError("zero constant term")
        out = [Fraction(1) / c0]
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                acc += self.coefficients[k] * out[n - k]
            out.append(-acc / c0)
        return RatSeries(tuple(out), self.order)

    def __str__(self):
        parts = []
        for n, c in enumerate(self.coefficients):
            if c == 0 and n != 0:
                continue
            if n == 0:
                parts.append(str(c))
            elif n == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{n}")
        return " + ".join(parts) if parts else "0"


def poincare_series(family, order):
    """Series whose degree-``n`` coefficient counts the family in degree n."""
    order = int(order)
    if order < 0:
        raise ValueError("order must be nonnegative")
    return RatSeries(
        tuple(len(enumerate_family(family, n)) for n in range(order + 1)), order
    )


def decoration_counts(family, order):
    """Generator counts of the family modeled as decorated plane forests:
    the series ``D = (F - 1)/F**2`` for ``F`` the Poincare series.  The
    coefficients must come out as nonnegative integers."""
    return _decoration_series(poincare_series(family, order))


def _decoration_series(F):
    """The decoration series ``D = (F - 1)/F**2`` of a Poincare series
    ``F``, refused unless its coefficients are nonnegative integers."""
    D = (F - RatSeries.from_coefficients([1], F.order)) * (F * F).inverse()
    for c in D.coefficients:
        if c.denominator != 1 or c < 0:
            raise ValueError("family not free-over-forests at this order")
    return D
