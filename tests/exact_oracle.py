"""Exact complex rationals for the tests' term-by-term oracles.

``ScalarCoeff`` keeps Gaussian-integer numerators over one denominator and
exchanges each complex rational as a pair ``(re, im)``.  ``ComplexRational``
is such a pair of Fractions with its own arithmetic, done part by part, so
an oracle built from it compares equal to ``ScalarCoeff.terms`` and can be
passed to the ``ScalarCoeff`` constructor as it is.  As a tuple it replaces
concatenation and repetition by complex addition and multiplication.
"""

from fractions import Fraction
from typing import NamedTuple


class ComplexRational(NamedTuple):
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re=0, im=0) -> "ComplexRational":
        return ComplexRational(Fraction(re), Fraction(im))

    def __add__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "ComplexRational":
        return ComplexRational(-self.re, -self.im)

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __pow__(self, n: int) -> "ComplexRational":
        if n < 0:
            raise ValueError("negative powers are not supported")
        out = CR_ONE
        for _ in range(n):
            out = out * self
        return out

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)


CR_ZERO = ComplexRational.of(0)
CR_ONE = ComplexRational.of(1)
CR_I = ComplexRational.of(0, 1)
