"""Exact scalar arithmetic: Gaussian rationals and two-symbol coefficients."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qclab.scalars import (
    CR_I,
    CR_ONE,
    CR_ZERO,
    ComplexRational,
    ScalarCoeff,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
gaussians = st.builds(ComplexRational.of, rationals, rationals)


def from_complex_rational(c: ComplexRational) -> ScalarCoeff:
    """The constant coefficient ``c``."""
    return ScalarCoeff({(0, 0): c})


def scalar_sum(values) -> ScalarCoeff:
    total = ScalarCoeff.zero()
    for v in values:
        total = total + v
    return total


def test_complex_rational_construction():
    z = ComplexRational.of(Fraction(3, 2), Fraction(-1, 4))
    assert z.re == Fraction(3, 2)
    assert z.im == Fraction(-1, 4)
    assert ComplexRational.of(2) == ComplexRational.of(Fraction(2), Fraction(0))


def test_complex_rational_arithmetic():
    a = ComplexRational.of(1, 2)
    b = ComplexRational.of(3, -1)
    assert a + b == ComplexRational.of(4, 1)
    assert a - b == ComplexRational.of(-2, 3)
    # (1+2i)(3-i) = 3 - i + 6i - 2i^2 = 5 + 5i
    assert a * b == ComplexRational.of(5, 5)
    assert -a == ComplexRational.of(-1, -2)


def test_complex_rational_i_squares_to_minus_one():
    assert CR_I * CR_I == -CR_ONE


def test_complex_rational_conjugate():
    z = ComplexRational.of(Fraction(1, 3), Fraction(5, 7))
    assert z.conjugate() == ComplexRational.of(Fraction(1, 3), Fraction(-5, 7))
    assert (z * z.conjugate()).im == 0


def test_complex_rational_zero_detection():
    assert CR_ZERO.is_zero()
    assert not CR_I.is_zero()
    assert (CR_I - CR_I).is_zero()


def test_complex_rational_pow():
    z = ComplexRational.of(0, 1)
    assert z ** 4 == CR_ONE
    assert z ** 0 == CR_ONE


def test_complex_rational_to_complex():
    z = ComplexRational.of(Fraction(1, 2), Fraction(-3, 4))
    assert z.to_complex() == 0.5 - 0.75j


@given(gaussians, gaussians, gaussians)
def test_complex_rational_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@given(gaussians, gaussians)
def test_conjugate_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_scalar_coeff_constructors():
    assert ScalarCoeff.zero().is_zero()
    assert not ScalarCoeff.one().is_zero()
    assert ScalarCoeff.from_rational(Fraction(0)).is_zero()
    h = ScalarCoeff.hbar(2)
    assert h.terms == {(2, 0): CR_ONE}
    lam = ScalarCoeff.lam()
    assert lam.terms == {(0, 1): CR_ONE}
    assert lam.has_lambda
    assert not h.has_lambda


def test_scalar_coeff_arithmetic():
    a = ScalarCoeff.one() + ScalarCoeff.hbar()
    b = ScalarCoeff.lam()
    prod = a * b
    assert prod.terms == {(0, 1): CR_ONE, (1, 1): CR_ONE}
    assert (a - a).is_zero()


def test_scalar_coeff_i_squares():
    i = ScalarCoeff.i()
    minus_one = from_complex_rational(-CR_ONE)
    assert i * i == minus_one


def test_scalar_coeff_substitute_lambda():
    s = ScalarCoeff.one() + ScalarCoeff.lam(2) * ScalarCoeff.from_rational(Fraction(4))
    out = s.substitute_lambda(Fraction(1, 2))
    assert out == ScalarCoeff.from_rational(Fraction(2))
    assert not out.has_lambda


def test_scalar_coeff_substitute_leaves_hbar_alone():
    s = ScalarCoeff.hbar() * ScalarCoeff.lam()
    out = s.substitute_lambda(Fraction(1, 3))
    assert out.terms == {(1, 0): ComplexRational.of(Fraction(1, 3))}


def test_scalar_coeff_evaluate():
    s = ScalarCoeff.hbar(2) * from_complex_rational(CR_I)
    assert s.evaluate(2.0) == 4j


def test_scalar_coeff_evaluate_rejects_free_lambda():
    with pytest.raises(ValueError):
        ScalarCoeff.lam().evaluate(1.0)


def test_scalar_coeff_conjugate_fixes_symbols():
    s = ScalarCoeff.hbar() * ScalarCoeff.lam() * ScalarCoeff.i()
    conj = s.conjugate()
    assert conj == -s
    plain = ScalarCoeff.hbar() + ScalarCoeff.lam()
    assert plain.conjugate() == plain


def test_scalar_sum():
    parts = [ScalarCoeff.one(), ScalarCoeff.hbar(), -ScalarCoeff.one()]
    assert scalar_sum(parts) == ScalarCoeff.hbar()
    assert scalar_sum([]).is_zero()


def test_scalar_coeff_str_is_stable():
    s = ScalarCoeff.hbar() * ScalarCoeff.lam() + ScalarCoeff.one()
    assert str(s) == str(s)


coeffs = st.builds(
    lambda pairs: ScalarCoeff(
        {
            (hp, lp): ComplexRational.of(re, im)
            for (hp, lp, re, im) in pairs
        }
    ),
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.integers(0, 3),
            rationals,
            rationals,
        ),
        max_size=4,
    ),
)


@given(coeffs, coeffs, coeffs)
def test_scalar_coeff_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + b == b + a


@given(coeffs)
def test_scalar_coeff_conjugate_involution(a):
    assert a.conjugate().conjugate() == a
