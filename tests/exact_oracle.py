"""Exact complex rationals for the tests' term-by-term oracles.

``ScalarCoeff`` keeps Gaussian-integer numerators over one denominator and
exchanges each complex rational as a pair ``(re, im)``.  ``ComplexRational``
is such a pair of Fractions with its own arithmetic, done part by part, so
an oracle built from it compares equal to ``ScalarCoeff.terms`` and can be
passed to the ``ScalarCoeff`` constructor as it is.  As a tuple it replaces
concatenation and repetition by complex addition and multiplication.

``oracle_mul`` and ``oracle_adjoint`` are the all-pairs product of the
three-factor algebra, with every coefficient product taken in these
Fractions.
"""

from fractions import Fraction
from typing import NamedTuple

from qclab.ncpoly import TensorPoly, ordered_product
from qclab.scalars import ScalarCoeff


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


# -- the all-pairs product of the three-factor algebra ---------------------
#
# Every term pair is reordered by ordered_product on both factors, contracting
# or not, and every coefficient product is taken term by term in Fraction
# arithmetic, units included.  TensorPoly's product skips the reordering of
# pairs that do not contract and the multiplication by a unit; this is the
# path it must agree with.

Coeff = dict  # (hbar power, lam power) -> ComplexRational, no zero entries


def _coeff(c: ScalarCoeff) -> Coeff:
    return {k: ComplexRational(*v) for k, v in c.terms.items()}


def _coeff_mul(a: Coeff, b: Coeff) -> Coeff:
    out: Coeff = {}
    for (a1, b1), v1 in a.items():
        for (a2, b2), v2 in b.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out[key] + v1 * v2 if key in out else v1 * v2
    return {k: v for k, v in out.items() if not v.is_zero()}


def _sum_products(products) -> TensorPoly:
    """Sum ``c * (qpart (x) ppart (x) E_ij)`` over ``(c, qpart, ppart, i, j)``."""
    out: dict = {}
    for c, qpart, ppart, i, j in products:
        for (mq, nq), sq in qpart.items():
            cq = _coeff_mul(c, _coeff(sq))
            for (mp, np_), sp in ppart.items():
                key = (mq, nq, mp, np_, i, j)
                add = _coeff_mul(cq, _coeff(sp))
                for k, v in add.items():
                    term = out.setdefault(key, {})
                    term[k] = term[k] + v if k in term else v
    return TensorPoly({key: ScalarCoeff(c) for key, c in out.items()})


def oracle_mul(a: TensorPoly, b: TensorPoly) -> TensorPoly:
    """``a * b`` for two TensorPolys, by the all-pairs path."""
    return _sum_products(
        (
            _coeff_mul(_coeff(c1), _coeff(c2)),
            ordered_product(mq1, nq1, mq2, nq2),
            ordered_product(mp1, np1, mp2, np2),
            i1,
            j2,
        )
        for (mq1, nq1, mp1, np1, i1, j1), c1 in a.terms.items()
        for (mq2, nq2, mp2, np2, i2, j2), c2 in b.terms.items()
        if j1 == i2
    )


def oracle_adjoint(a: TensorPoly) -> TensorPoly:
    """``a.adjoint()``: (Q^m P^n)^dagger = P^n Q^m and E_ij^dagger = E_ji."""
    return _sum_products(
        (
            {k: v.conjugate() for k, v in _coeff(c).items()},
            ordered_product(0, nq, mq, 0),
            ordered_product(0, np_, mp, 0),
            j,
            i,
        )
        for (mq, nq, mp, np_, i, j), c in a.terms.items()
    )
