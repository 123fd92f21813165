"""Exact scalar coefficients for the operator algebra.

A coefficient is a polynomial in two commuting real symbols, the Planck
scale ``hbar`` and the interpolation weight ``lam`` (ranging over [0, 1]),
with complex rational coefficients.  Exactness is the point: equality of
operators is decided by comparing canonical term maps, so no floats enter
until a matrix realization asks for them.

A coefficient keeps Gaussian-integer numerators over one positive common
denominator, the layout of FLINT's ``fmpq_poly`` (Hart, "FLINT: Fast Library
for Number Theory", ICMS 2010), so its arithmetic is integer arithmetic plus
one gcd pass.  The constructor and ``ScalarCoeff.terms`` exchange each
complex rational as a pair ``(re, im)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import copysign, gcd, inf, lcm
from numbers import Rational
from typing import Mapping


RationalLike = Rational | int


# Numerators of a coefficient: (hbar power, lam power) -> (re, im).
Numerators = dict[tuple[int, int], tuple[int, int]]


class ScalarCoeff:
    """Sparse polynomial ``sum c_{ab} hbar^a lam^b`` with complex rational c.

    Stored as integer numerators ``(a, b) -> (re, im)`` over one positive
    integer denominator, in canonical form: keys are unique pairs of
    nonnegative integers, no numerator is ``(0, 0)``, the denominator and
    every numerator part have gcd 1, and zero has denominator 1.  Equal
    values therefore have equal numerators and denominators.  Instances are
    immutable and hashable; all arithmetic returns new values.
    """

    __slots__ = ("_num", "_den", "_hash")

    def __init__(self, terms: Mapping[tuple[int, int], tuple[RationalLike, RationalLike]] = ()):
        pruned = {
            k: (Fraction(re), Fraction(im)) for k, (re, im) in dict(terms).items() if re or im
        }
        for a, b in pruned:
            if a < 0 or b < 0:
                raise ValueError("powers of hbar and lam must be nonnegative")
        # over the lcm of reduced denominators the gcd is already 1
        den = lcm(*(x.denominator for v in pruned.values() for x in v))
        self._num = {
            k: (re.numerator * (den // re.denominator), im.numerator * (den // im.denominator))
            for k, (re, im) in pruned.items()
        }
        self._den = den
        self._hash = None

    @staticmethod
    def _raw(num: Numerators, den: int) -> "ScalarCoeff":
        """Wrap numerators and a denominator that are already canonical."""
        out = object.__new__(ScalarCoeff)
        out._num = num
        out._den = den
        out._hash = None
        return out

    @staticmethod
    def _reduced(num: Numerators, den: int) -> "ScalarCoeff":
        """Canonical ``num / den`` from zero-free numerators."""
        if den != 1:
            g = den
            for re, im in num.values():
                g = gcd(g, re, im)
                if g == 1:
                    break
            else:
                den //= g
                num = {k: (re // g, im // g) for k, (re, im) in num.items()}
        return ScalarCoeff._raw(num, den)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "ScalarCoeff":
        return _ZERO

    @staticmethod
    def one() -> "ScalarCoeff":
        return _ONE

    @staticmethod
    def from_rational(re: RationalLike, im: RationalLike = 0) -> "ScalarCoeff":
        return ScalarCoeff({(0, 0): (re, im)})

    @staticmethod
    def i() -> "ScalarCoeff":
        return ScalarCoeff({(0, 0): (0, 1)})

    @staticmethod
    def hbar(power: int = 1) -> "ScalarCoeff":
        return ScalarCoeff({(power, 0): (1, 0)})

    @staticmethod
    def lam(power: int = 1) -> "ScalarCoeff":
        return ScalarCoeff({(0, power): (1, 0)})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, int], tuple[Fraction, Fraction]]:
        d = self._den
        return {k: (Fraction(re, d), Fraction(im, d)) for k, (re, im) in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    @property
    def has_lambda(self) -> bool:
        return any(b > 0 for _, b in self._num)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "ScalarCoeff") -> "ScalarCoeff":
        if not other._num:
            return self
        if not self._num:
            return other
        den, d2 = self._den, other._den
        if den == d2:
            merged = dict(self._num)
            s2 = 1
        else:
            g = gcd(den, d2)
            s1, s2 = d2 // g, den // g
            merged = {k: (re * s1, im * s1) for k, (re, im) in self._num.items()}
            den *= s1
        cancelled = False
        for k, (re, im) in other._num.items():
            if s2 != 1:
                re, im = re * s2, im * s2
            if k in merged:
                r0, i0 = merged[k]
                re, im = r0 + re, i0 + im
                cancelled = cancelled or not (re or im)
            merged[k] = (re, im)
        if cancelled:
            merged = {k: v for k, v in merged.items() if v[0] or v[1]}
        return ScalarCoeff._reduced(merged, den)

    def __sub__(self, other: "ScalarCoeff") -> "ScalarCoeff":
        return self + (-other)

    def __neg__(self) -> "ScalarCoeff":
        return ScalarCoeff._raw(
            {k: (-re, -im) for k, (re, im) in self._num.items()}, self._den
        )

    def __mul__(self, other: "ScalarCoeff") -> "ScalarCoeff":
        n1, n2 = self._num, other._num
        # a unit costs nothing; checked by value, since from_rational(1) is
        # a unit that is not _ONE
        if n1 == _UNIT and self._den == 1:
            return other
        if n2 == _UNIT and other._den == 1:
            return self
        den = self._den * other._den
        if len(n1) == 1 and len(n2) == 1:
            # Gaussian integers have no zero divisors: one nonzero term
            ((a1, b1), (r1, i1)), = n1.items()
            ((a2, b2), (r2, i2)), = n2.items()
            return ScalarCoeff._reduced(
                {(a1 + a2, b1 + b2): (r1 * r2 - i1 * i2, r1 * i2 + i1 * r2)}, den
            )
        return ScalarCoeff._reduced(_product(n1, n2), den)

    def scale_int(self, n: int) -> "ScalarCoeff":
        """``n`` times this coefficient, for a nonzero integer ``n``."""
        return ScalarCoeff._reduced(
            {k: (re * n, im * n) for k, (re, im) in self._num.items()}, self._den
        )

    def conjugate(self) -> "ScalarCoeff":
        # hbar and lam are real symbols, only the coefficients conjugate
        return ScalarCoeff._raw(
            {k: (re, -im) for k, (re, im) in self._num.items()}, self._den
        )

    # -- substitution and evaluation ---------------------------------------

    def substitute_lambda(self, value: RationalLike | float) -> "ScalarCoeff":
        """Replace ``lam`` by an exact rational; the result has no lam powers.

        With ``value = n/d`` and top lam power ``t``, the lam^b numerators are
        scaled by ``n^b d^(t-b)`` over the denominator times ``d^t``.
        """
        n, d = (
            (value.numerator, value.denominator)
            if isinstance(value, Rational)
            else value.as_integer_ratio()
        )
        top = max((b for _, b in self._num), default=0)
        n_pow, d_pow = [1], [1]
        for _ in range(top):
            n_pow.append(n_pow[-1] * n)
            d_pow.append(d_pow[-1] * d)
        out: Numerators = {}
        for (a, b), (re, im) in self._num.items():
            w = n_pow[b] * d_pow[top - b]
            key = (a, 0)
            re, im = re * w, im * w
            if key in out:
                r0, i0 = out[key]
                re, im = r0 + re, i0 + im
            out[key] = (re, im)
        out = {k: v for k, v in out.items() if v[0] or v[1]}
        return ScalarCoeff._reduced(out, self._den * d_pow[top])

    def evaluate(self, hbar: float) -> complex:
        """Numeric value at the given hbar.  Any remaining lam power is an error."""
        if self.has_lambda:
            raise ValueError(
                "coefficient still depends on lam; substitute a value first"
            )
        d = self._den
        total = 0j
        for (a, _), (re, im) in self._num.items():
            try:
                power = hbar**a
            except OverflowError:  # past the float range: inf, for the caller to refuse
                power = copysign(inf, hbar) if a % 2 else inf
            # int / int is correctly rounded, as float(Fraction) is
            total += (complex(re / d) + 1j * complex(im / d)) * power
        return total

    # -- canonical identity ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScalarCoeff):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self._den, tuple(sorted(self._num.items()))))
            self._hash = h
        return h

    def __repr__(self) -> str:
        if self.is_zero():
            return "ScalarCoeff(0)"
        return f"ScalarCoeff({self})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for (a, b), (re, im) in sorted(self.terms.items()):
            v = (
                str(re) if not im else f"{im}i" if not re
                else f"({re}{'+' if im > 0 else '-'}{abs(im)}i)"
            )
            syms = "*".join(filter(None, [
                f"hbar^{a}" if a > 1 else "hbar" * min(a, 1),
                f"lam^{b}" if b > 1 else "lam" * min(b, 1),
            ]))
            parts.append(f"{v}{'*' if syms else ''}{syms}")
        return " + ".join(parts)


def _product(n1: Numerators, n2: Numerators) -> Numerators:
    """Zero-free numerators of the product of two numerator maps."""
    out: Numerators = {}
    for (a1, b1), (r1, i1) in n1.items():
        for (a2, b2), (r2, i2) in n2.items():
            key = (a1 + a2, b1 + b2)
            re, im = r1 * r2 - i1 * i2, r1 * i2 + i1 * r2
            if key in out:
                r0, i0 = out[key]
                re, im = r0 + re, i0 + im
            out[key] = (re, im)
    if len(out) < len(n1) * len(n2):
        # keys collided, so a sum may have cancelled to zero
        out = {k: v for k, v in out.items() if v[0] or v[1]}
    return out


_ZERO = ScalarCoeff({})
_ONE = ScalarCoeff({(0, 0): (1, 0)})
_UNIT = _ONE._num
