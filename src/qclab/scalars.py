"""Exact scalar coefficients for the operator algebra.

A coefficient is a polynomial in two commuting real symbols, the Planck
scale ``hbar`` and the interpolation weight ``lam`` (ranging over [0, 1]),
with complex rational coefficients.  Exactness is the point: equality of
operators is decided by comparing canonical term maps, so no floats enter
until a matrix realization asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Mapping


RationalLike = Rational | int


@dataclass(frozen=True)
class ComplexRational:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re: RationalLike = 0, im: RationalLike = 0) -> "ComplexRational":
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

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"


CR_ZERO = ComplexRational.of(0)
CR_ONE = ComplexRational.of(1)
CR_I = ComplexRational.of(0, 1)


class ScalarCoeff:
    """Sparse polynomial ``sum c_{ab} hbar^a lam^b`` with ComplexRational c.

    Canonical sparse form: keys are unique ``(a, b)`` pairs of nonnegative
    integers and no stored value is zero.  Instances are immutable and
    hashable; all arithmetic returns new values.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[tuple[int, int], ComplexRational] = ()):
        pruned = {k: v for k, v in dict(terms).items() if not v.is_zero()}
        for a, b in pruned:
            if a < 0 or b < 0:
                raise ValueError("powers of hbar and lam must be nonnegative")
        object.__setattr__(self, "_terms", pruned)
        object.__setattr__(self, "_hash", None)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "ScalarCoeff":
        return _ZERO

    @staticmethod
    def one() -> "ScalarCoeff":
        return _ONE

    @staticmethod
    def from_rational(re: RationalLike, im: RationalLike = 0) -> "ScalarCoeff":
        return ScalarCoeff({(0, 0): ComplexRational.of(re, im)})

    @staticmethod
    def i() -> "ScalarCoeff":
        return ScalarCoeff({(0, 0): CR_I})

    @staticmethod
    def hbar(power: int = 1) -> "ScalarCoeff":
        return ScalarCoeff({(power, 0): CR_ONE})

    @staticmethod
    def lam(power: int = 1) -> "ScalarCoeff":
        return ScalarCoeff({(0, power): CR_ONE})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, int], ComplexRational]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def has_lambda(self) -> bool:
        return any(b > 0 for _, b in self._terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "ScalarCoeff") -> "ScalarCoeff":
        merged = dict(self._terms)
        for k, v in other._terms.items():
            merged[k] = merged[k] + v if k in merged else v
        return ScalarCoeff(merged)

    def __sub__(self, other: "ScalarCoeff") -> "ScalarCoeff":
        return self + (-other)

    def __neg__(self) -> "ScalarCoeff":
        return ScalarCoeff({k: -v for k, v in self._terms.items()})

    def __mul__(self, other: "ScalarCoeff") -> "ScalarCoeff":
        out: dict[tuple[int, int], ComplexRational] = {}
        for (a1, b1), v1 in self._terms.items():
            for (a2, b2), v2 in other._terms.items():
                key = (a1 + a2, b1 + b2)
                prod = v1 * v2
                out[key] = out[key] + prod if key in out else prod
        return ScalarCoeff(out)

    def conjugate(self) -> "ScalarCoeff":
        # hbar and lam are real symbols, only the coefficients conjugate
        return ScalarCoeff({k: v.conjugate() for k, v in self._terms.items()})

    # -- substitution and evaluation ---------------------------------------

    def substitute_lambda(self, value: RationalLike) -> "ScalarCoeff":
        """Replace ``lam`` by an exact rational; the result has no lam powers."""
        val = Fraction(value)
        out: dict[tuple[int, int], ComplexRational] = {}
        for (a, b), v in self._terms.items():
            scaled = v * ComplexRational.of(val**b)
            key = (a, 0)
            out[key] = out[key] + scaled if key in out else scaled
        return ScalarCoeff(out)

    def evaluate(self, hbar: float) -> complex:
        """Numeric value at the given hbar.  Any remaining lam power is an error."""
        if self.has_lambda:
            raise ValueError(
                "coefficient still depends on lam; substitute a value first"
            )
        total = 0j
        for (a, _), v in self._terms.items():
            total += v.to_complex() * hbar**a
        return total

    # -- canonical identity ------------------------------------------------

    def _key(self) -> tuple:
        return tuple(sorted((k, (v.re, v.im)) for k, v in self._terms.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScalarCoeff):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        if self.is_zero():
            return "ScalarCoeff(0)"
        return f"ScalarCoeff({self})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for (a, b), v in sorted(self._terms.items()):
            syms = "".join(
                [f"hbar^{a}" if a > 1 else "hbar" * min(a, 1),
                 f"lam^{b}" if b > 1 else "lam" * min(b, 1)]
            )
            parts.append(f"{v}{'*' if syms else ''}{syms}")
        return " + ".join(parts)


_ZERO = ScalarCoeff({})
_ONE = ScalarCoeff({(0, 0): CR_ONE})
