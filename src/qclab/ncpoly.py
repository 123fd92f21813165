"""Exact noncommutative polynomial algebra on three tensor factors.

The algebra lives on a product of two single-particle spaces (factor ``q``
and factor ``p``, each carrying a coordinate operator Q and a momentum
operator P with ``[Q, P] = i*hbar``) and a two-dimensional third factor
spanned by the projector pair ``R_q = diag(1, 0)`` and ``R_p = diag(0, 1)``.

Every element is kept in a canonical normal form:

* per factor, monomials are normally ordered (all Q powers to the left of
  all P powers); products reorder ``P^b Q^c`` by its closed form in the swap
  constant ``s`` of ``P Q = Q P + s`` (``s = -i*hbar``), where a term pair
  has both ``b, c > 0`` on some factor, and the word rewriter
  ``P Q -> Q P + s`` stays as the independent confluence oracle;
* the third factor enters through its matrix units ``E_ij``, so one term
  ``(m_q, n_q, m_p, n_p, i, j)`` is ``Q^m_q P^n_q (x) Q^m_p P^n_p (x) E_ij``;
* term maps are sparse, with zero coefficients pruned.

:class:`TensorPoly` is the only element type.  A single-factor normal form
is a plain map ``(m, n) -> coefficient`` of ``Q^m P^n``.

Two elements are equal as operators exactly when their canonical term maps
coincide, which makes equality a decision procedure rather than a
tolerance test.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import repeat
from typing import Iterable, Iterator, Mapping, Sequence

from .expr import fold
from .scalars import ScalarCoeff

# Letters of the single-factor word alphabet.
Q = "Q"
P = "P"

# Term keys: (q-factor Q power, q-factor P power,
#             p-factor Q power, p-factor P power, r-row, r-col)
TensorKey = tuple[int, int, int, int, int, int]

# Single-factor normal form: (Q power, P power) -> coefficient.
FactorTerms = dict[tuple[int, int], ScalarCoeff]

_MINUS_I_HBAR = ScalarCoeff({(1, 0): (0, -1)})

# Swap constant s of P Q = Q P + s, read by ordered_product and by the word
# rewriter alike.  Mutable only through the fault-injection hook below;
# everything else treats it as a constant.
_swap_term = _MINUS_I_HBAR


@contextmanager
def rewrite_fault(term: ScalarCoeff) -> Iterator[None]:
    """Test hook: replace the swap constant, corrupting the algebra.

    Intended for fault-injection checks only (a corrupted engine must make
    the identity suite fail).  Not thread safe.
    """
    global _swap_term
    saved = _swap_term
    _swap_term = term
    try:
        yield
    finally:
        _swap_term = saved


def factor_normalize(word: Sequence[str], strategy: str = "leftmost") -> FactorTerms:
    """Normal-order a word over the alphabet {Q, P}.

    ``strategy`` picks which misordered adjacent pair (a P immediately left
    of a Q) gets rewritten first; the rewrite system is confluent, so every
    strategy ends at the same polynomial.  The empty word normalizes to 1.
    This rewriter is the independent oracle for :func:`ordered_product`.
    """
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    letters = tuple(word)
    for ch in letters:
        if ch not in (Q, P):
            raise ValueError(f"word letters must be {Q!r} or {P!r}, got {ch!r}")
    # Worklist of words with accumulated coefficients; each rewrite of
    # P Q at position i branches into the swapped word and the contracted
    # word carrying the swap term.
    pending: dict[tuple[str, ...], ScalarCoeff] = {letters: ScalarCoeff.one()}
    done: FactorTerms = {}
    while pending:
        word, coeff = pending.popitem()
        pos = _misordered_position(word, strategy)
        if pos is None:
            key = (word.count(Q), word.count(P))
            done[key] = done[key] + coeff if key in done else coeff
            continue
        swapped = word[:pos] + (Q, P) + word[pos + 2:]
        contracted = word[:pos] + word[pos + 2:]
        pending[swapped] = pending[swapped] + coeff if swapped in pending else coeff
        extra = coeff * _swap_term
        pending[contracted] = (
            pending[contracted] + extra if contracted in pending else extra
        )
    return {k: v for k, v in done.items() if not v.is_zero()}


def _misordered_position(word: tuple[str, ...], strategy: str) -> int | None:
    positions = range(len(word) - 1)
    if strategy == "rightmost":
        positions = reversed(positions)
    for i in positions:
        if word[i] == P and word[i + 1] == Q:
            return i
    return None


def ordered_product(m1: int, n1: int, m2: int, n2: int) -> FactorTerms:
    """Normal form of the concatenated monomial word Q^m1 P^n1 Q^m2 P^n2.

    With ``P Q = Q P + s`` the middle pair reorders in closed form,
    ``P^b Q^c = sum_k k! C(b, k) C(c, k) s^k Q^(c-k) P^(b-k)`` (Wilcox 1967).
    """
    # s itself serves k = 1 and a unit weight is not applied, so the common
    # single contraction P Q costs no scalar arithmetic
    terms = {(m1 + m2, n1 + n2): ScalarCoeff.one()}
    if _swap_term.is_zero():  # a fault may zero s; keep the map pruned
        return terms
    power, weight = _swap_term, 1
    for k in range(1, min(n1, m2) + 1):
        if k > 1:
            power = power * _swap_term
        # weight = k! C(n1, k) C(m2, k), an integer at every step
        weight = weight * (n1 - k + 1) * (m2 - k + 1) // k
        key = (m1 + m2 - k, n1 + n2 - k)
        terms[key] = power if weight == 1 else power.scale_int(weight)
    return terms


class TensorPoly:
    """Canonical element of the full three-factor operator algebra.

    Terms map ``(m_q, n_q, m_p, n_p, i, j)`` to a scalar coefficient, where
    the first two pairs are the normal monomials on the q and p factors and
    ``(i, j)`` is the matrix slot on the third factor.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[TensorKey, ScalarCoeff] = ()):
        pruned = {k: v for k, v in dict(terms).items() if not v.is_zero()}
        for key in pruned:
            mq, nq, mp, np_, i, j = key
            if min(mq, nq, mp, np_) < 0:
                raise ValueError("monomial powers must be nonnegative")
            if i not in (0, 1) or j not in (0, 1):
                raise ValueError("r-factor indices must be 0 or 1")
        self._terms = pruned

    @staticmethod
    def _raw(terms: dict[TensorKey, ScalarCoeff]) -> "TensorPoly":
        """Wrap terms whose keys the engine built itself; prunes zeros only."""
        out = object.__new__(TensorPoly)
        out._terms = {k: v for k, v in terms.items() if not v.is_zero()}
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "TensorPoly":
        return TensorPoly()

    @staticmethod
    def identity() -> "TensorPoly":
        one = ScalarCoeff.one()
        return TensorPoly({(0, 0, 0, 0, 0, 0): one, (0, 0, 0, 0, 1, 1): one})

    @staticmethod
    def scalar(c: ScalarCoeff) -> "TensorPoly":
        return TensorPoly.identity().scale(c)

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[TensorKey, ScalarCoeff]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "TensorPoly") -> "TensorPoly":
        merged = dict(self._terms)
        for k, v in other._terms.items():
            merged[k] = merged[k] + v if k in merged else v
        return TensorPoly._raw(merged)

    def __neg__(self) -> "TensorPoly":
        return TensorPoly._raw({k: -v for k, v in self._terms.items()})

    def __sub__(self, other: "TensorPoly") -> "TensorPoly":
        return self + (-other)

    def scale(self, c: ScalarCoeff) -> "TensorPoly":
        return TensorPoly._raw({k: c * v for k, v in self._terms.items()})

    def __mul__(self, other: "TensorPoly") -> "TensorPoly":
        # each pair is the word pair Q^mq1 P^nq1 . Q^mq2 P^nq2 on factor q,
        # the same on factor p, and E_i1j1 E_i2j2 = E_i1j2 when j1 == i2
        return _sum_products(
            (c1 * c2, mq1, nq1, mq2, nq2, mp1, np1, mp2, np2, i1, j2)
            for (mq1, nq1, mp1, np1, i1, j1), c1 in self._terms.items()
            for (mq2, nq2, mp2, np2, i2, j2), c2 in other._terms.items()
            if j1 == i2
        )

    def adjoint(self) -> "TensorPoly":
        # (Q^m P^n)^dagger = P^n Q^m, the word pair 1 . P^n Q^m, and
        # E_ij^dagger = E_ji
        return _sum_products(
            (c.conjugate(), 0, nq, mq, 0, 0, np_, mp, 0, j, i)
            for (mq, nq, mp, np_, i, j), c in self._terms.items()
        )

    def substitute_lambda(self, value) -> "TensorPoly":
        val = Fraction(value)
        if not 0 <= val <= 1:
            raise ValueError(f"lam must lie in [0, 1], got {val}")
        return TensorPoly._raw(
            {k: v.substitute_lambda(val) for k, v in self._terms.items()}
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted((k, hash(v)) for k, v in self._terms.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return "TensorPoly(0)"
        bits = []
        for key, c in sorted(self._terms.items()):
            mq, nq, mp, np_, i, j = key
            def mono(m: int, n: int) -> str:
                s = ("Q^%d" % m if m else "") + ("P^%d" % n if n else "")
                return s or "1"
            rlab = "qp"[i] + "qp"[j]
            bits.append(f"({c})*[{mono(mq, nq)}|{mono(mp, np_)}|E_{rlab}]")
        return "TensorPoly(" + " + ".join(bits) + ")"


def _sum_products(
    products: Iterable[tuple[ScalarCoeff, int, int, int, int, int, int, int, int, int, int]],
) -> TensorPoly:
    """Sum ``c * (Q^mq1 P^nq1 Q^mq2 P^nq2 (x) Q^mp1 P^np1 Q^mp2 P^np2 (x) E_ij)``
    over ``(c, mq1, nq1, mq2, nq2, mp1, np1, mp2, np2, i, j)``.

    A word pair with ``n1 == 0`` or ``m2 == 0`` on both factors is already
    normally ordered, so it adds ``c`` at the summed powers; only a pair that
    contracts on some factor is reordered by :func:`ordered_product`.
    """
    out: dict[TensorKey, ScalarCoeff] = {}
    for c, mq1, nq1, mq2, nq2, mp1, np1, mp2, np2, i, j in products:
        if (nq1 and mq2) or (np1 and mp2):
            ppart = ordered_product(mp1, np1, mp2, np2)
            for (mq, nq), sq in ordered_product(mq1, nq1, mq2, nq2).items():
                cq = c * sq
                for (mp, np_), sp in ppart.items():
                    key = (mq, nq, mp, np_, i, j)
                    add = cq * sp
                    out[key] = out[key] + add if key in out else add
        else:
            key = (mq1 + mq2, nq1 + nq2, mp1 + mp2, np1 + np2, i, j)
            out[key] = out[key] + c if key in out else c
    return TensorPoly._raw(out)


# -- module-level operation names ------------------------------------------


def tp_commutator(a: TensorPoly, b: TensorPoly) -> TensorPoly:
    return a * b - b * a


def tp_adjoint(a: TensorPoly) -> TensorPoly:
    return a.adjoint()


def substitute_lambda(a: TensorPoly, value) -> TensorPoly:
    """Evaluate the interpolation weight at an exact rational in [0, 1]."""
    return a.substitute_lambda(value)


def canonical_eq(a: TensorPoly, b: TensorPoly) -> bool:
    """Decision procedure for operator equality (canonical term maps)."""
    return a == b


@dataclass(frozen=True)
class GeneratorSet:
    """The named elements of the algebra, with lam symbolic in the tilde pair."""

    q_tilde: TensorPoly
    p_tilde: TensorPoly
    q_qm: TensorPoly
    p_qm: TensorPoly
    q_cm: TensorPoly
    p_cm: TensorPoly
    identity: TensorPoly
    r_q: TensorPoly
    r_p: TensorPoly


def make_generators() -> GeneratorSet:
    one, lam = ScalarCoeff.one(), ScalarCoeff.lam()
    # a term key is a two-factor word followed by an r-slot
    q1, q2 = (1, 0, 0, 0), (0, 0, 1, 0)  # Q (x) 1, 1 (x) Q
    p1, p2 = (0, 1, 0, 0), (0, 0, 0, 1)  # P (x) 1, 1 (x) P
    unit, e_qq, e_pp = (0, 0, 0, 0), (0, 0), (1, 1)  # 1 (x) 1, E_qq, E_pp
    return GeneratorSet(
        # Q (x) 1 (x) (E_qq + lam E_pp) + 1 (x) Q (x) E_pp
        q_tilde=TensorPoly({q1 + e_qq: one, q1 + e_pp: lam, q2 + e_pp: one}),
        # P (x) 1 (x) E_qq + 1 (x) P (x) (lam E_qq + E_pp)
        p_tilde=TensorPoly({p1 + e_qq: one, p2 + e_qq: lam, p2 + e_pp: one}),
        q_qm=TensorPoly({q1 + e_qq: one, q2 + e_pp: one}),
        p_qm=TensorPoly({p1 + e_qq: one, p2 + e_pp: one}),
        q_cm=TensorPoly({q1 + e_qq: one, q1 + e_pp: one}),
        p_cm=TensorPoly({p2 + e_qq: one, p2 + e_pp: one}),
        identity=TensorPoly.identity(),
        r_q=TensorPoly({unit + e_qq: one}),
        r_p=TensorPoly({unit + e_pp: one}),
    )


def qm_embedding(corner: TensorPoly) -> TensorPoly:
    """Two-sector diagonal lift of a q-sector corner ``f(Q, P) (x) 1 (x) E_qq``.

    Adds the same ``f`` on factor p against ``E_pp``.  Applying a polynomial
    expression to the qm generator pair lands exactly here.  Raises
    ValueError on a term outside the corner.
    """
    lifted = corner.terms
    for key, c in corner.terms.items():
        m, n, *rest = key
        if rest != [0, 0, 0, 0]:
            raise ValueError(f"term {key} is outside the q-sector corner")
        lifted[(0, 0, m, n, 1, 1)] = c
    return TensorPoly(lifted)


def eval_ncpoly(expr, x: TensorPoly, y: TensorPoly) -> TensorPoly:
    """Evaluate a polynomial expression tree at two algebra elements.

    The tree is read through :func:`qclab.expr.fold`; products respect the
    written order since x and y need not commute.
    """
    return fold(
        expr,
        lambda value: TensorPoly.scalar(ScalarCoeff.from_rational(value)),
        lambda name: x if name == "Q" else y,
        power=lambda base, exponent: (
            reduce(operator.mul, repeat(base, exponent - 1), base)
            if exponent
            else TensorPoly.identity()
        ),
    )
