"""Exact scalar arithmetic: two-symbol coefficients, against an oracle of
Gaussian rationals (``exact_oracle``)."""

from fractions import Fraction
from math import gcd, inf

import pytest
from hypothesis import given, settings, strategies as st

from exact_oracle import CR_I, CR_ONE, CR_ZERO, ComplexRational
from qclab.scalars import ScalarCoeff, _product

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
@settings(max_examples=100, derandomize=True)
def test_complex_rational_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@given(gaussians, gaussians)
@settings(max_examples=100, derandomize=True)
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


def test_scalar_coeff_evaluate_overflowing_power_is_inf():
    # a float power past the float range raises in Python; evaluate gives inf
    assert ScalarCoeff.hbar(2).evaluate(1e200).real == inf
    assert ScalarCoeff.hbar(3).evaluate(-1e200).real == -inf


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


@pytest.mark.parametrize(
    "pairs, text",
    [
        ({(0, 0): (0, 0)}, "0"),
        ({(0, 0): (Fraction(3, 2), 0)}, "3/2"),
        ({(0, 0): (-2, 0)}, "-2"),
        ({(0, 0): (0, 1)}, "1i"),
        ({(0, 0): (0, Fraction(-1, 3))}, "-1/3i"),
        ({(0, 0): (1, Fraction(1, 2))}, "(1+1/2i)"),
        ({(0, 0): (Fraction(-3, 4), -2)}, "(-3/4-2i)"),
        ({(1, 0): (0, -1)}, "-1i*hbar"),
        ({(2, 0): (5, 0), (0, 1): (1, -1)}, "(1-1i)*lam + 5*hbar^2"),
        # a power of hbar and a power of lam are joined by *
        ({(1, 3): (Fraction(1, 6), 0), (0, 0): (1, 0)}, "1 + 1/6*hbar*lam^3"),
        ({(2, 1): (0, Fraction(7, 5)), (3, 2): (-1, 2)}, "7/5i*hbar^2*lam + (-1+2i)*hbar^3*lam^2"),
    ],
)
def test_scalar_coeff_str_renders_each_part(pairs, text):
    # the witnesses of the verify report carry these strings
    assert str(ScalarCoeff(pairs)) == text


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
@settings(max_examples=100, derandomize=True)
def test_scalar_coeff_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + b == b + a


@given(coeffs)
@settings(max_examples=100, derandomize=True)
def test_scalar_coeff_conjugate_involution(a):
    assert a.conjugate().conjugate() == a


# -- the integer-numerator form against a dict-of-ComplexRational oracle ----
#
# The oracle keeps one ComplexRational per (hbar power, lam power), with no
# zero entries, and does every operation term by term in Fraction
# arithmetic.  The coefficients below mix denominators, so sums and
# products have to bring them onto one common denominator and reduce.

Oracle = dict


def _oracle_add(a: Oracle, b: Oracle) -> Oracle:
    out = dict(a)
    for k, v in b.items():
        out[k] = out[k] + v if k in out else v
    return {k: v for k, v in out.items() if not v.is_zero()}


def _oracle_mul(a: Oracle, b: Oracle) -> Oracle:
    out: Oracle = {}
    for (a1, b1), v1 in a.items():
        for (a2, b2), v2 in b.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out[key] + v1 * v2 if key in out else v1 * v2
    return {k: v for k, v in out.items() if not v.is_zero()}


def _oracle_substitute(a: Oracle, value: Fraction) -> Oracle:
    out: Oracle = {}
    for (hp, lp), v in a.items():
        scaled = v * ComplexRational.of(value**lp)
        out[(hp, 0)] = out[(hp, 0)] + scaled if (hp, 0) in out else scaled
    return {k: v for k, v in out.items() if not v.is_zero()}


mixed_terms = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 3),
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
    ),
    max_size=5,
)


def _pair(pairs) -> tuple[ScalarCoeff, Oracle]:
    """The same value as a ScalarCoeff and as an oracle dict."""
    oracle: Oracle = {}
    for hp, lp, re, im in pairs:
        oracle = _oracle_add(oracle, {(hp, lp): ComplexRational.of(re, im)})
    return ScalarCoeff(oracle), oracle


def _assert_canonical(c: ScalarCoeff) -> None:
    num, den = c._num, c._den
    assert den > 0
    assert all(re or im for re, im in num.values())
    assert gcd(den, *(x for v in num.values() for x in v)) == 1
    if not num:
        assert den == 1


@given(mixed_terms, mixed_terms)
@settings(max_examples=100, derandomize=True)
def test_arithmetic_matches_the_oracle(xs, ys):
    a, oa = _pair(xs)
    b, ob = _pair(ys)
    neg_b = {k: -v for k, v in ob.items()}
    cases = [
        (a + b, _oracle_add(oa, ob)),
        (a - b, _oracle_add(oa, neg_b)),
        (-b, neg_b),
        (a * b, _oracle_mul(oa, ob)),
        (a.conjugate(), {k: v.conjugate() for k, v in oa.items()}),
    ]
    for got, want in cases:
        _assert_canonical(got)
        assert got.terms == want


@given(
    mixed_terms,
    st.fractions(min_value=-3, max_value=3, max_denominator=9),
)
@settings(max_examples=100, derandomize=True)
def test_substitute_lambda_matches_the_oracle(xs, value):
    a, oa = _pair(xs)
    got = a.substitute_lambda(value)
    _assert_canonical(got)
    assert got.terms == _oracle_substitute(oa, value)
    assert not got.has_lambda


@given(mixed_terms, st.floats(min_value=-4, max_value=4))
@settings(max_examples=100, derandomize=True)
def test_evaluate_is_the_sum_of_rounded_terms(xs, hbar):
    # each rational part is rounded once (n/d correctly rounded) and the
    # terms are summed in the order of .terms
    a = _pair(xs)[0].substitute_lambda(Fraction(1, 3))
    want = 0j
    for (hp, _), v in a.terms.items():
        want += ComplexRational(*v).to_complex() * hbar**hp
    got = a.evaluate(hbar)
    assert (repr(got.real), repr(got.imag)) == (repr(want.real), repr(want.imag))


def test_evaluate_rounds_each_part_once():
    # float(n) / float(d) rounds three times and misses n / d here
    n, d = 10**25 + 1, 3**33
    assert float(n) / float(d) != n / d
    c = ScalarCoeff.from_rational(Fraction(n, d), Fraction(-n, d)) * ScalarCoeff.hbar()
    assert c.evaluate(1.0) == complex(n / d, -n / d)
    assert c.evaluate(1.0) == ComplexRational(*c.terms[(1, 0)]).to_complex()


@given(mixed_terms, mixed_terms)
@settings(max_examples=100, derandomize=True)
def test_equal_values_built_apart_are_equal_and_hash_equal(xs, ys):
    a, b = _pair(xs)[0], _pair(ys)[0]
    for left, right in [((a + b) - b, a), (a * b, b * a), (a - a, ScalarCoeff.zero())]:
        assert left == right
        assert hash(left) == hash(right)


def test_reduced_products_are_canonical():
    half, two = ScalarCoeff.from_rational(Fraction(1, 2)), ScalarCoeff.from_rational(2)
    one = half * two
    assert one == ScalarCoeff.one()
    assert hash(one) == hash(ScalarCoeff.one())
    _assert_canonical(one)
    sixth = ScalarCoeff.from_rational(Fraction(1, 6))
    third = ScalarCoeff.from_rational(Fraction(1, 3))
    assert sixth + third == half
    assert hash(sixth + third) == hash(half)
    assert (half - half)._den == 1
    # the hbar terms of a product and of a sum cancel and are dropped
    plus, minus = ScalarCoeff.one() + half * ScalarCoeff.hbar(), ScalarCoeff.one() - half * ScalarCoeff.hbar()
    assert (plus * minus).terms == {(0, 0): CR_ONE, (2, 0): ComplexRational.of(Fraction(-1, 4))}
    assert (plus + minus).terms == {(0, 0): ComplexRational.of(2)}
    assert half.scale_int(-4) == ScalarCoeff.from_rational(-2)


single_terms = st.builds(
    lambda hp, lp, re, im: ScalarCoeff({(hp, lp): (re, im)}),
    st.integers(0, 3),
    st.integers(0, 3),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


units = st.sampled_from([ScalarCoeff.one(), ScalarCoeff.from_rational(1)])


@given(single_terms | units, single_terms)
@settings(max_examples=200, derandomize=True)
def test_single_term_products_match_the_general_loop(a, b):
    # the general loop over numerator pairs, reduced once
    want = ScalarCoeff._reduced(_product(a._num, b._num), a._den * b._den)
    for got in (a * b, b * a):
        _assert_canonical(got)
        assert got == want
        assert hash(got) == hash(want)


def test_constructor_rejects_negative_powers_only_on_nonzero_terms():
    assert ScalarCoeff({(-1, 0): CR_ZERO, (0, -2): CR_ZERO}).is_zero()
    with pytest.raises(ValueError, match="nonnegative"):
        ScalarCoeff({(-1, 0): CR_ONE})
    with pytest.raises(ValueError, match="nonnegative"):
        ScalarCoeff({(0, -1): CR_I})
