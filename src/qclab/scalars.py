"""Exact scalar coefficients for the operator algebra.

A coefficient is a polynomial in two commuting real symbols, the Planck
scale ``hbar`` and the interpolation weight ``lam`` (ranging over [0, 1]),
with complex rational coefficients.  Exactness is the point: equality of
operators is decided by comparing canonical term maps, so no floats enter
until a matrix realization asks for them.

A coefficient keeps Gaussian-integer numerators over one positive common
denominator, the layout of FLINT's ``fmpq_poly`` (Hart, "FLINT: Fast Library
for Number Theory", ICMS 2010), so its arithmetic is integer arithmetic plus
one gcd pass.  The layout is one base class, :class:`CommonDenominator`,
which holds its canonical form, sums, negation, product with a coefficient,
equality and hash; :class:`ScalarCoeff` and ``ncpoly.TensorPoly``, which
keeps the same layout for a whole element, add only what differs.  The
constructor and ``ScalarCoeff.terms`` exchange each complex rational as a
pair ``(re, im)``.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import copysign, gcd, inf, lcm
from numbers import Rational
from typing import Mapping


RationalLike = Rational | int


# Numerators of a coefficient: (hbar power, lam power) -> (re, im).
Numerators = dict[tuple[int, int], tuple[int, int]]


class CommonDenominator:
    """Gaussian-integer numerators over one positive common denominator.

    ``_num`` maps keys ending in (hbar power, lam power) to numerators
    ``(re, im)``; ``_den`` is the denominator.  The canonical form has no
    numerator ``(0, 0)``, gcd 1 between the denominator and every numerator
    part, and denominator 1 for zero, so equal values have equal maps.
    :class:`ScalarCoeff` keys by the two powers alone, ``ncpoly.TensorPoly``
    by a term key followed by them; both are immutable and hashable, and
    all arithmetic returns new values.
    """

    __slots__ = ("_num", "_den")

    @classmethod
    def _raw(cls, num: dict, den: int):
        """Wrap numerators and a denominator that are already canonical."""
        out = object.__new__(cls)
        out._num = num
        out._den = den
        return out

    def is_zero(self) -> bool:
        return not self._num

    def __add__(self, other):
        return self._raw(*combine(self._num, self._den, other._num, other._den))

    def __sub__(self, other):
        return self._raw(*combine(self._num, self._den, other._num, other._den, -1))

    def __neg__(self):
        return self._raw({k: (-re, -im) for k, (re, im) in self._num.items()}, self._den)

    def scale(self, c: "ScalarCoeff"):
        """The product with the coefficient ``c``."""
        return self._raw(*reduced(_product(self._num, c._num), self._den * c._den))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._num.items())))


class ScalarCoeff(CommonDenominator):
    """Sparse polynomial ``sum c_{ab} hbar^a lam^b`` with complex rational c.

    Stored as integer numerators ``(a, b) -> (re, im)`` over one positive
    integer denominator, in the canonical form of
    :class:`CommonDenominator`, keys unique pairs of nonnegative integers.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[tuple[int, int], tuple[RationalLike, RationalLike]] = ()):
        pruned = {
            read_indices(k): (Fraction(re), Fraction(im))
            for k, (re, im) in dict(terms).items()
            if re or im
        }
        if any(a < 0 or b < 0 for a, b in pruned):
            raise ValueError("powers of hbar and lam must be nonnegative")
        # over the lcm of reduced denominators the gcd is already 1
        den = lcm(*(x.denominator for v in pruned.values() for x in v))
        # int(), since the Fraction of an np.int64 keeps an np.int64 numerator
        self._num = {
            k: (int(re.numerator) * (den // re.denominator), int(im.numerator) * (den // im.denominator))
            for k, (re, im) in pruned.items()
        }
        self._den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "ScalarCoeff":
        return _ZERO

    @staticmethod
    def one() -> "ScalarCoeff":
        return _ONE

    @staticmethod
    def from_rational(re: RationalLike, im: RationalLike = 0) -> "ScalarCoeff":
        """The constant ``re + i*im``, its canonical numerators read off the
        two reduced fractions directly (see ``__init__``)."""
        # int(), since an np.int64's numerator is an np.int64, which would
        # overflow silently past 2^63
        (nr, dr), (ni, di) = ((int(x.numerator), int(x.denominator)) for x in (re, im))
        if not (nr or ni):
            return _ZERO
        den = lcm(dr, di)
        return ScalarCoeff._raw({(0, 0): (nr * (den // dr), ni * (den // di))}, den)

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

    @property
    def has_lambda(self) -> bool:
        return any(b > 0 for _, b in self._num)

    # -- arithmetic --------------------------------------------------------

    # bound here too: perfbench counts the calls of what a class binds itself
    __add__ = CommonDenominator.__add__
    __mul__ = CommonDenominator.scale

    def conjugate(self) -> "ScalarCoeff":
        # hbar and lam are real symbols, only the coefficients conjugate
        return ScalarCoeff._raw(
            {k: (re, -im) for k, (re, im) in self._num.items()}, self._den
        )

    # -- evaluation --------------------------------------------------------

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
            total += (complex(ratio(re, d)) + 1j * complex(ratio(im, d))) * power
        return total

    def __repr__(self) -> str:
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


# -- numerator maps --------------------------------------------------------
#
# The helpers below serve every CommonDenominator and ncpoly's products: a
# map's keys end in (hbar power, lam power), whatever precedes them, and
# each value is a Gaussian-integer numerator (re, im) over a denominator
# kept beside the map.  ``reduced`` is the one step that drops zeros and
# divides out the gcd.


def ratio(n: int, d: int) -> float:
    """``n / d`` for ``d > 0``, correctly rounded as ``float(Fraction(n, d))``
    is, and past the float range ``+-inf``, for the caller to refuse."""
    try:
        return n / d
    except OverflowError:
        return inf if n > 0 else -inf


def read_indices(key) -> tuple[int, ...]:
    """A key of powers or indices read as Python ints; a non-integer is a
    ValueError."""
    try:
        return tuple(map(operator.index, key))
    except TypeError:
        raise ValueError(f"powers and indices must be integers, got {key!r}") from None


def reduced(num: dict, den: int) -> tuple[dict, int]:
    """Canonical ``num / den`` from numerators that may hold zeros: the zeros
    dropped, and the gcd of ``den`` and every numerator part divided out."""
    num = {k: v for k, v in num.items() if v[0] or v[1]}
    if den != 1:
        g = den
        for re, im in num.values():
            g = gcd(g, re, im)
            if g == 1:
                return num, den
        den //= g
        num = {k: (re // g, im // g) for k, (re, im) in num.items()}
    return num, den


def combine(n1: dict, d1: int, n2: dict, d2: int, sign: int = 1) -> tuple[dict, int]:
    """Canonical ``n1 / d1 + sign * n2 / d2`` for canonical inputs."""
    den = d1
    if d1 == d2:
        merged = dict(n1)
        s2 = sign
    else:
        g = gcd(d1, d2)
        s1, s2 = d2 // g, sign * (d1 // g)
        merged = {k: (re * s1, im * s1) for k, (re, im) in n1.items()}
        den *= s1
    for k, (re, im) in n2.items():
        if s2 != 1:
            re, im = re * s2, im * s2
        if k in merged:
            r0, i0 = merged[k]
            re, im = r0 + re, i0 + im
        merged[k] = (re, im)
    return reduced(merged, den)


def _product(n1: dict, n2: Numerators) -> dict:
    """Numerators of the product of ``n1`` and the coefficient numerators
    ``n2``, zeros not yet dropped; the powers add, the rest of ``n1``'s keys
    is kept."""
    out: dict = {}
    for k1, (r1, i1) in n1.items():
        head, a1, b1 = k1[:-2], k1[-2], k1[-1]
        for (a2, b2), (r2, i2) in n2.items():
            key = head + (a1 + a2, b1 + b2)
            re, im = r1 * r2 - i1 * i2, r1 * i2 + i1 * r2
            if key in out:
                r0, i0 = out[key]
                re, im = r0 + re, i0 + im
            out[key] = (re, im)
    return out


def substitute_last(num: dict, den: int, n: int, d: int) -> tuple[dict, int]:
    """Canonical ``num / den`` with ``lam = n/d`` substituted.

    With top lam power ``t``, the lam^b numerators are scaled by
    ``n^b d^(t-b)`` over the denominator times ``d^t``.
    """
    top = max((k[-1] for k in num), default=0)
    n_pow, d_pow = [1], [1]
    for _ in range(top):
        n_pow.append(n_pow[-1] * n)
        d_pow.append(d_pow[-1] * d)
    out: dict = {}
    for k, (re, im) in num.items():
        w = n_pow[k[-1]] * d_pow[top - k[-1]]
        key = k[:-1] + (0,)
        re, im = re * w, im * w
        if key in out:
            r0, i0 = out[key]
            re, im = r0 + re, i0 + im
        out[key] = (re, im)
    return reduced(out, den * d_pow[top])


_ZERO = ScalarCoeff({})
_ONE = ScalarCoeff({(0, 0): (1, 0)})
