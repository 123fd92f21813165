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
* an element is one positive denominator over Gaussian-integer numerators
  ``(re, im)``, keyed by the term key followed by the powers of ``hbar``
  and ``lam``, sparse and reduced: ``scalars``' one layout type,
  ``CommonDenominator``, lifted from the coefficient to the whole element
  (as FLINT's ``fmpq_poly``; Hart, ICMS 2010), whose sums, negation,
  scaling, equality and hash :class:`TensorPoly` inherits.  Products and
  adjoints sum every term pair into one numerator map over
  ``d^top`` (``d`` the denominator of ``s``; a pair that reorders nothing
  takes ``s^0 d^top``), and ``scalars.reduced`` makes it canonical in one
  pass; a reordering contributes only the integer weight
  ``k! C(b, k) C(c, k)`` (:func:`reorder_weights`) times ``s^k``;
* a commutator is one pass over the term pairs (:func:`tp_commutator`): in
  a diagonal r-sector both products of a pair reorder onto the same words
  and their ``k = 0`` terms cancel, so only the reorderings ``k >= 1`` are
  summed, with the weight of ``ab`` less that of ``ba``.

:class:`TensorPoly` is the only element type; its ``terms`` read it back as
``term key -> ScalarCoeff``.  A single-factor normal form is a plain map
``(m, n) -> coefficient`` of ``Q^m P^n``.

Two elements are equal as operators exactly when their canonical forms
coincide, which makes equality a decision procedure rather than a
tolerance test.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, repeat, zip_longest
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence

from .expr import fold
from .scalars import CommonDenominator, ScalarCoeff, _product, read_indices, reduced, substitute_last

# Letters of the single-factor word alphabet.
Q = "Q"
P = "P"

# Term keys: (q-factor Q power, q-factor P power,
#             p-factor Q power, p-factor P power, r-row, r-col)
TensorKey = tuple[int, int, int, int, int, int]

# Single-factor normal form: (Q power, P power) -> coefficient.
FactorTerms = dict[tuple[int, int], ScalarCoeff]

_MINUS_I_HBAR = ScalarCoeff({(1, 0): (0, -1)})

# Swap constant s of P Q = Q P + s, read by TensorPoly's products (through
# _swap_powers) and by the word rewriter alike.  Mutable only through the
# fault-injection hook below; everything else treats it as a constant.
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


# Where each strategy finds the misordered pair P Q it rewrites first.
_REDEX = {"leftmost": str.find, "rightmost": str.rfind}


def factor_normalize(word: Sequence[str], strategy: str = "leftmost") -> FactorTerms:
    """Normal-order a word over the alphabet {Q, P}, given as a ``str`` or a
    sequence of letters.

    ``strategy`` picks which misordered adjacent pair (a P immediately left
    of a Q) gets rewritten first; the rewrite system is confluent, so every
    strategy ends at the same polynomial.  The empty word normalizes to 1.
    This rewriter is the independent oracle for the closed-form reordering
    of :class:`TensorPoly` products (:func:`reorder_weights`).
    """
    if strategy not in _REDEX:
        raise ValueError(f"unknown strategy {strategy!r}")
    find = _REDEX[strategy]
    inversions = letters_p = 0  # P-before-Q pairs, Ps so far
    for ch in word:
        if ch == P:
            letters_p += 1
        elif ch == Q:
            inversions += letters_p
        else:
            raise ValueError(f"word letters must be {Q!r} or {P!r}, got {ch!r}")
    letters = "".join(word)
    # Words with integer weights, by their count of P-before-Q pairs.  A
    # rewrite of P Q at position i branches into the swapped word, one pair
    # fewer, and the contracted word, which carries one more factor of s and
    # loses the pairs of both removed letters.  Taking the counts downwards,
    # every path into a word has arrived before it is rewritten, so each
    # word is rewritten once with its summed weight.  Every path to a word
    # contracts (len(letters) - len(word)) / 2 times, so a weight counts
    # paths and s enters once per normal word.
    pending: list[dict[str, int]] = [{} for _ in range(inversions)] + [{letters: 1}]
    for count in range(inversions, 0, -1):
        for word, weight in pending[count].items():
            pos = find(word, P + Q)
            swapped = word[:pos] + Q + P + word[pos + 2:]
            contracted = word[:pos] + word[pos + 2:]
            lost = 1 + word.count(P, 0, pos) + word.count(Q, pos + 2)
            for rewritten, below in ((swapped, 1), (contracted, lost)):
                level = pending[count - below]
                level[rewritten] = level.get(rewritten, 0) + weight
    powers = [ScalarCoeff.one()]  # s^k, k = 0, 1, ...
    out: FactorTerms = {}
    for normal, weight in pending[0].items():
        m = normal.count(Q)
        k = (len(letters) - len(normal)) // 2
        while len(powers) <= k:
            powers.append(powers[-1] * _swap_term)
        if not powers[k].is_zero():  # a fault may zero s
            out[(m, len(normal) - m)] = ScalarCoeff.from_rational(weight) * powers[k]
    return out


def reorder_weights(n: int, m: int) -> list[int]:
    """The integer weights ``k! C(n, k) C(m, k)``, k = 0 .. min(n, m), of
    ``s^k Q^(m-k) P^(n-k)`` in the normal form of ``P^n Q^m`` (Wilcox 1967)."""
    weights = [1]
    for k in range(1, min(n, m) + 1):
        # an integer at every step
        weights.append(weights[-1] * (n - k + 1) * (m - k + 1) // k)
    return weights


class _SwapPowers(dict):
    """The powers of the swap constant ``s`` for one product: item ``k``
    maps ``(hbar power, lam power)`` to the numerator of ``s^k d^(top-k)``,
    ``d`` the denominator of ``s``, and ``unit`` is ``d^top``.  Items past
    0 are made on first use."""

    __slots__ = ("s", "unit")

    def __missing__(self, k: int) -> dict:
        # s^k d^(top-k) = s^(k-1) d^(top-k+1) * num(s) / d, exactly
        s, d = self.s, self.s._den
        self[k] = power = {
            key: (re // d, im // d) for key, (re, im) in _product(self[k - 1], s._num).items()
        }
        return power


def _swap_powers(keys: Iterable[tuple]) -> _SwapPowers:
    """The powers of ``_swap_term``, read now, for one product.

    ``top`` must bound the factors of ``s`` that one term pair contracts;
    the largest ``m_q + m_p`` over ``keys``, the term keys of the right-hand
    words (of both operands, for a commutator), does.  With ``d = 1``, as
    for the unfaulted ``s = -i*hbar``, any ``top`` does, and 0 is taken.
    """
    s = _swap_term
    unit = s._den ** max((k[0] + k[2] for k in keys), default=0) if s._den != 1 else 1
    powers = _SwapPowers({0: {(0, 0): (unit, 0)}})
    powers.s, powers.unit = s, unit
    return powers


# the weights of a word pair that does not reorder
_NO_REORDER = (1,)


def _add_reordered(
    out: dict, powers: _SwapPowers, re: int, im: int,
    mq1: int, nq1: int, mq2: int, nq2: int,
    mp1: int, np1: int, mp2: int, np2: int,
    i: int, j: int, a: int, b: int,
) -> None:
    """Add the normal form of ``(re + i*im) hbar^a lam^b`` times the word
    pairs ``Q^mq1 P^nq1 Q^mq2 P^nq2 (x) Q^mp1 P^np1 Q^mp2 P^np2 (x) E_ij`` to
    the numerators ``out``: each reordering adds its integer weight times
    ``s^k`` (``powers``)."""
    wp = reorder_weights(np1, mp2) if np1 and mp2 else _NO_REORDER
    for kq, w1 in enumerate(reorder_weights(nq1, mq2) if nq1 and mq2 else _NO_REORDER):
        for kp, w2 in enumerate(wp):
            w = w1 * w2
            cr, ci = re * w, im * w
            head = (mq1 + mq2 - kq, nq1 + nq2 - kq, mp1 + mp2 - kp, np1 + np2 - kp, i, j)
            for (da, db), (sr, si) in powers[kq + kp].items():
                key = head + (a + da, b + db)
                vr, vi = cr * sr - ci * si, cr * si + ci * sr
                if key in out:
                    r0, i0 = out[key]
                    vr, vi = r0 + vr, i0 + vi
                out[key] = (vr, vi)


def _add_products(out: dict, powers: _SwapPowers, left: dict, right: dict) -> None:
    """Add the numerators of ``left . right``, over ``powers.unit``, to
    ``out``, for numerator maps ``left`` and ``right``.

    Each pair is the word pair ``Q^mq1 P^nq1 . Q^mq2 P^nq2`` on factor q,
    the same on factor p, and ``E_i1j1 E_i2j2 = E_i1j2`` when ``j1 == i2``.
    A pair that reorders nothing takes ``s^0 d^top = unit``.
    """
    unit = powers.unit
    by_row: tuple[list, list] = ([], [])
    for (mq, nq, mp, np_, i, j, a, b), (re, im) in right.items():
        by_row[i].append((mq, nq, mp, np_, j, a, b, re, im))
    for (mq1, nq1, mp1, np1, i1, j1, a1, b1), (r1, x1) in left.items():
        for mq2, nq2, mp2, np2, j2, a2, b2, r2, x2 in by_row[j1]:
            re, im = r1 * r2 - x1 * x2, r1 * x2 + x1 * r2
            if (nq1 and mq2) or (np1 and mp2):
                _add_reordered(
                    out, powers, re, im, mq1, nq1, mq2, nq2, mp1, np1, mp2, np2,
                    i1, j2, a1 + a2, b1 + b2,
                )
                continue
            key = (mq1 + mq2, nq1 + nq2, mp1 + mp2, np1 + np2, i1, j2, a1 + a2, b1 + b2)
            re, im = re * unit, im * unit
            if key in out:
                r0, i0 = out[key]
                re, im = r0 + re, i0 + im
            out[key] = (re, im)


def _add_commuted(
    out: dict, powers: _SwapPowers, re: int, im: int,
    mq1: int, nq1: int, mq2: int, nq2: int,
    mp1: int, np1: int, mp2: int, np2: int,
    r: int, a: int, b: int,
) -> None:
    """Add the normal form of ``(re + i*im) hbar^a lam^b`` times the
    commutator of ``Q^mq1 P^nq1 (x) Q^mp1 P^np1 (x) E_rr`` and ``Q^mq2 P^nq2
    (x) Q^mp2 P^np2 (x) E_rr`` to the numerators ``out``.

    Both orders reorder onto the same words, ``kq`` and ``kp`` letters
    contracted on each factor, so each word takes the weight of the first
    order less that of the second, times ``s^(kq+kp)``.  The ``k = 0``
    weights are 1 in both orders and cancel.
    """
    # (W_ab(k), W_ba(k)) on each factor, zero past either order's reach
    wq = zip_longest(
        reorder_weights(nq1, mq2) if nq1 and mq2 else _NO_REORDER,
        reorder_weights(nq2, mq1) if nq2 and mq1 else _NO_REORDER,
        fillvalue=0,
    )
    wp = list(zip_longest(
        reorder_weights(np1, mp2) if np1 and mp2 else _NO_REORDER,
        reorder_weights(np2, mp1) if np2 and mp1 else _NO_REORDER,
        fillvalue=0,
    ))
    mq, nq, mp, np_ = mq1 + mq2, nq1 + nq2, mp1 + mp2, np1 + np2
    for kq, (u, v) in enumerate(wq):
        for kp, (x, y) in enumerate(wp):
            w = u * x - v * y
            if not w:
                continue
            cr, ci = re * w, im * w
            head = (mq - kq, nq - kq, mp - kp, np_ - kp, r, r)
            for (da, db), (sr, si) in powers[kq + kp].items():
                key = head + (a + da, b + db)
                vr, vi = cr * sr - ci * si, cr * si + ci * sr
                if key in out:
                    r0, i0 = out[key]
                    vr, vi = r0 + vr, i0 + vi
                out[key] = (vr, vi)


# the unit term key of each r-sector
_UNITS = ((0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1))


class TensorPoly(CommonDenominator):
    """Canonical element of the full three-factor operator algebra.

    An element is ``sum c Q^m_q P^n_q (x) Q^m_p P^n_p (x) E_ij``, each ``c``
    a coefficient in ``hbar`` and ``lam`` (:class:`ScalarCoeff`).  It is
    stored in ``scalars``' layout (:class:`CommonDenominator`, which holds
    the sums, negation, :meth:`scale`, equality and hash): Gaussian-integer
    numerators ``(re, im)``, keyed by the term key ``(m_q, n_q, m_p, n_p, i,
    j)`` followed by the powers of ``hbar`` and ``lam``, over one positive
    denominator for the whole element.  :attr:`terms` reads the element
    back as ``{term key: ScalarCoeff}``.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[TensorKey, ScalarCoeff] = ()):
        coeffs = []
        for key, c in dict(terms).items():
            mq, nq, mp, np_, i, j = key = read_indices(key)
            if min(mq, nq, mp, np_) < 0:
                raise ValueError("monomial powers must be nonnegative")
            if i not in (0, 1) or j not in (0, 1):
                raise ValueError("r-factor indices must be 0 or 1")
            coeffs.append((key, c))
        # over the lcm of canonical denominators the gcd is already 1
        den = lcm(*(c._den for _, c in coeffs))
        self._num = {
            key + k: (re * (den // c._den), im * (den // c._den))
            for key, c in coeffs
            for k, (re, im) in c._num.items()
        }
        self._den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "TensorPoly":
        return TensorPoly._raw({}, 1)

    @staticmethod
    def identity() -> "TensorPoly":
        return TensorPoly.scalar(ScalarCoeff.one())

    @staticmethod
    def scalar(c: ScalarCoeff) -> "TensorPoly":
        """``c`` times the identity: ``c`` on the unit term of each r-sector."""
        return TensorPoly._raw(
            {unit + k: v for unit in _UNITS for k, v in c._num.items()}, c._den
        )

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[TensorKey, ScalarCoeff]:
        grouped: dict[TensorKey, dict] = {}
        for key, v in self._num.items():
            head = key[:6]
            if head in grouped:
                grouped[head][key[6:]] = v
            else:
                grouped[head] = {key[6:]: v}
        den = self._den
        return {key: ScalarCoeff._raw(*reduced(num, den)) for key, num in grouped.items()}

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "TensorPoly") -> "TensorPoly":
        powers = _swap_powers(other._num)
        out: dict = {}
        _add_products(out, powers, self._num, other._num)
        return TensorPoly._raw(*reduced(out, self._den * other._den * powers.unit))

    def adjoint(self) -> "TensorPoly":
        # (Q^m P^n)^dagger = P^n Q^m, the word pair 1 . P^n Q^m, and
        # E_ij^dagger = E_ji
        powers = _swap_powers(self._num)
        unit = powers.unit
        out: dict = {}
        for (mq, nq, mp, np_, i, j, a, b), (re, im) in self._num.items():
            im = -im  # hbar and lam are real, only the numbers conjugate
            if (nq and mq) or (np_ and mp):
                _add_reordered(out, powers, re, im, 0, nq, mq, 0, 0, np_, mp, 0, j, i, a, b)
                continue
            key = (mq, nq, mp, np_, j, i, a, b)
            re, im = re * unit, im * unit
            if key in out:
                r0, i0 = out[key]
                re, im = r0 + re, i0 + im
            out[key] = (re, im)
        return TensorPoly._raw(*reduced(out, self._den * unit))

    def substitute_lambda(self, value) -> "TensorPoly":
        val = Fraction(value)
        if not 0 <= val <= 1:
            raise ValueError(f"lam must lie in [0, 1], got {val}")
        return TensorPoly._raw(
            *substitute_last(self._num, self._den, val.numerator, val.denominator)
        )

    def __repr__(self) -> str:
        if self.is_zero():
            return "TensorPoly(0)"
        bits = []
        for key, c in sorted(self.terms.items()):
            mq, nq, mp, np_, i, j = key
            def mono(m: int, n: int) -> str:
                s = ("Q^%d" % m if m else "") + ("P^%d" % n if n else "")
                return s or "1"
            rlab = "qp"[i] + "qp"[j]
            bits.append(f"({c})*[{mono(mq, nq)}|{mono(mp, np_)}|E_{rlab}]")
        return "TensorPoly(" + " + ".join(bits) + ")"


# -- module-level operation names ------------------------------------------


def tp_commutator(a: TensorPoly, b: TensorPoly) -> TensorPoly:
    """``a * b - b * a`` in one pass over the term pairs.

    A pair of terms in one diagonal r-sector ``E_rr`` gives both products
    in that sector, on the same words: their ``k = 0`` terms cancel, so
    only the reorderings ``k >= 1`` are summed, each with the weight
    ``W_ab(k) - W_ba(k)`` (:func:`_add_commuted`), and a pair that reorders
    in neither order adds nothing.  A pair with an off-diagonal term adds
    its two signed products as ``__mul__`` does.
    """
    # s^k for k up to the contractions of either order
    powers = _swap_powers(chain(a._num, b._num))
    out: dict = {}
    a_off, b_off = ({k: v for k, v in x._num.items() if k[4] != k[5]} for x in (a, b))
    a_diag = {k: v for k, v in a._num.items() if k not in a_off} if b_off else {}
    # the pairs with an off-diagonal term: [a_off, b] + [a_diag, b_off]
    for x, y in ((a_off, b._num), (a_diag, b_off)):
        if x and y:
            _add_products(out, powers, x, y)
            _add_products(out, powers, {k: (-re, -im) for k, (re, im) in y.items()}, x)
    by_sector: tuple[list, list] = ([], [])
    for (mq, nq, mp, np_, r, c, ha, la), (re, im) in b._num.items():
        if r == c:
            by_sector[r].append((mq, nq, mp, np_, ha, la, re, im))
    for (mq1, nq1, mp1, np1, r, c, a1, b1), (r1, x1) in a._num.items():
        if r != c:
            continue
        for mq2, nq2, mp2, np2, a2, b2, r2, x2 in by_sector[r]:
            if (nq1 and mq2) or (np1 and mp2) or (nq2 and mq1) or (np2 and mp1):
                _add_commuted(
                    out, powers, r1 * r2 - x1 * x2, r1 * x2 + x1 * r2,
                    mq1, nq1, mq2, nq2, mp1, np1, mp2, np2, r, a1 + a2, b1 + b2,
                )
    return TensorPoly._raw(*reduced(out, a._den * b._den * powers.unit))


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
    lifted = dict(corner._num)
    for key, v in corner._num.items():
        if key[2:6] != (0, 0, 0, 0):
            raise ValueError(f"term {key[:6]} is outside the q-sector corner")
        lifted[(0, 0) + key[:2] + (1, 1) + key[6:]] = v
    # the same numerators over the same denominator stay canonical
    return TensorPoly._raw(lifted, corner._den)


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
