"""Exact noncommutative polynomial algebra on three tensor factors.

The algebra lives on a product of two single-particle spaces (factor ``q``
and factor ``p``, each carrying a coordinate operator Q and a momentum
operator P with ``[Q, P] = i*hbar``) and a two-dimensional third factor
spanned by the projector pair ``R_q = diag(1, 0)`` and ``R_p = diag(0, 1)``.

Every element is kept in a canonical normal form:

* per factor, monomials are normally ordered (all Q powers to the left of
  all P powers); products reorder ``P^b Q^c`` by its closed form in the swap
  constant ``s`` of ``P Q = Q P + s`` (``s = -i*hbar``), and the word
  rewriter ``P Q -> Q P + s`` stays as the independent confluence oracle;
* the third factor is a dense 2x2 matrix of scalar coefficients;
* term maps are sparse, with zero coefficients pruned.

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
from typing import Iterator, Mapping, Sequence

from .expr import fold
from .scalars import ComplexRational, ScalarCoeff

# Letters of the single-factor word alphabet.
Q = "Q"
P = "P"

# Term keys: (q-factor Q power, q-factor P power,
#             p-factor Q power, p-factor P power, r-row, r-col)
TensorKey = tuple[int, int, int, int, int, int]

# r-factor index values, in the ordered basis (|r_q>, |r_p>).
R_INDEX = {"q": 0, "p": 1}

_MINUS_I_HBAR = ScalarCoeff({(1, 0): ComplexRational.of(0, -1)})

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


class FactorPoly:
    """Normal-ordered polynomial in Q, P on a single factor.

    Terms map ``(m, n)`` to the coefficient of ``Q^m P^n``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], ScalarCoeff] = ()):
        pruned = {k: v for k, v in dict(terms).items() if not v.is_zero()}
        for m, n in pruned:
            if m < 0 or n < 0:
                raise ValueError("monomial powers must be nonnegative")
        self._terms = pruned

    @staticmethod
    def zero() -> "FactorPoly":
        return FactorPoly()

    @staticmethod
    def one() -> "FactorPoly":
        return FactorPoly({(0, 0): ScalarCoeff.one()})

    @staticmethod
    def monomial(m: int, n: int, coeff: ScalarCoeff | None = None) -> "FactorPoly":
        return FactorPoly({(m, n): coeff if coeff is not None else ScalarCoeff.one()})

    @property
    def terms(self) -> dict[tuple[int, int], ScalarCoeff]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "FactorPoly") -> "FactorPoly":
        merged = dict(self._terms)
        for k, v in other._terms.items():
            merged[k] = merged[k] + v if k in merged else v
        return FactorPoly(merged)

    def __neg__(self) -> "FactorPoly":
        return FactorPoly({k: -v for k, v in self._terms.items()})

    def __sub__(self, other: "FactorPoly") -> "FactorPoly":
        return self + (-other)

    def scale(self, c: ScalarCoeff) -> "FactorPoly":
        return FactorPoly({k: c * v for k, v in self._terms.items()})

    def __mul__(self, other: "FactorPoly") -> "FactorPoly":
        out: dict[tuple[int, int], ScalarCoeff] = {}
        for (m1, n1), c1 in self._terms.items():
            for (m2, n2), c2 in other._terms.items():
                c = c1 * c2
                for (m, n), s in ordered_product(m1, n1, m2, n2)._terms.items():
                    key = (m, n)
                    add = c * s
                    out[key] = out[key] + add if key in out else add
        return FactorPoly(out)

    def adjoint(self) -> "FactorPoly":
        """Conjugate coefficients and reverse each monomial word, renormalizing."""
        out = FactorPoly.zero()
        for (m, n), c in self._terms.items():
            # (Q^m P^n)^dagger = P^n Q^m, which is ordered_product(0, n, m, 0)
            out = out + ordered_product(0, n, m, 0).scale(c.conjugate())
        return out

    def substitute_lambda(self, value) -> "FactorPoly":
        return FactorPoly(
            {k: v.substitute_lambda(value) for k, v in self._terms.items()}
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FactorPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted((k, hash(v)) for k, v in self._terms.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return "FactorPoly(0)"
        bits = []
        for (m, n), c in sorted(self._terms.items()):
            mono = "".join(["Q^%d" % m if m else "", "P^%d" % n if n else ""]) or "1"
            bits.append(f"({c})*{mono}")
        return "FactorPoly(" + " + ".join(bits) + ")"


def factor_normalize(word: Sequence[str], strategy: str = "leftmost") -> FactorPoly:
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
    done: dict[tuple[int, int], ScalarCoeff] = {}
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
    return FactorPoly(done)


def _misordered_position(word: tuple[str, ...], strategy: str) -> int | None:
    positions = range(len(word) - 1)
    if strategy == "rightmost":
        positions = reversed(positions)
    for i in positions:
        if word[i] == P and word[i + 1] == Q:
            return i
    return None


def ordered_product(m1: int, n1: int, m2: int, n2: int) -> FactorPoly:
    """Normal form of the concatenated monomial word Q^m1 P^n1 Q^m2 P^n2.

    With ``P Q = Q P + s`` the middle pair reorders in closed form,
    ``P^b Q^c = sum_k k! C(b, k) C(c, k) s^k Q^(c-k) P^(b-k)`` (Wilcox 1967).
    """
    # s itself serves k = 1 and a unit weight is not applied, so the common
    # single contraction P Q costs no scalar arithmetic
    terms = {(m1 + m2, n1 + n2): ScalarCoeff.one()}
    power, weight = _swap_term, 1
    for k in range(1, min(n1, m2) + 1):
        if k > 1:
            power = power * _swap_term
        # weight = k! C(n1, k) C(m2, k), an integer at every step
        weight = weight * (n1 - k + 1) * (m2 - k + 1) // k
        key = (m1 + m2 - k, n1 + n2 - k)
        terms[key] = power if weight == 1 else power.scale_int(weight)
    return FactorPoly(terms)


class ROperator:
    """Element of the 2x2 third-factor algebra, rows and columns over (q, p)."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Sequence[Sequence[ScalarCoeff]]):
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("entries must form a 2x2 array")
        self._entries = rows

    @staticmethod
    def zero() -> "ROperator":
        z = ScalarCoeff.zero()
        return ROperator([[z, z], [z, z]])

    @staticmethod
    def identity() -> "ROperator":
        o, z = ScalarCoeff.one(), ScalarCoeff.zero()
        return ROperator([[o, z], [z, o]])

    @staticmethod
    def r_q() -> "ROperator":
        o, z = ScalarCoeff.one(), ScalarCoeff.zero()
        return ROperator([[o, z], [z, z]])

    @staticmethod
    def r_p() -> "ROperator":
        o, z = ScalarCoeff.one(), ScalarCoeff.zero()
        return ROperator([[z, z], [z, o]])

    @staticmethod
    def unit(i: int, j: int) -> "ROperator":
        z = ScalarCoeff.zero()
        rows = [[z, z], [z, z]]
        rows[i][j] = ScalarCoeff.one()
        return ROperator(rows)

    def entry(self, i: int, j: int) -> ScalarCoeff:
        return self._entries[i][j]

    def __add__(self, other: "ROperator") -> "ROperator":
        return ROperator(
            [
                [self._entries[i][j] + other._entries[i][j] for j in range(2)]
                for i in range(2)
            ]
        )

    def __sub__(self, other: "ROperator") -> "ROperator":
        return ROperator(
            [
                [self._entries[i][j] - other._entries[i][j] for j in range(2)]
                for i in range(2)
            ]
        )

    def __mul__(self, other: "ROperator") -> "ROperator":
        out = []
        for i in range(2):
            row = []
            for j in range(2):
                acc = ScalarCoeff.zero()
                for k in range(2):
                    acc = acc + self._entries[i][k] * other._entries[k][j]
                row.append(acc)
            out.append(row)
        return ROperator(out)

    def scale(self, c: ScalarCoeff) -> "ROperator":
        return ROperator([[c * e for e in row] for row in self._entries])

    def adjoint(self) -> "ROperator":
        return ROperator(
            [[self._entries[j][i].conjugate() for j in range(2)] for i in range(2)]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ROperator):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        e = self._entries
        return f"ROperator([[{e[0][0]}, {e[0][1]}], [{e[1][0]}, {e[1][1]}]])"


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

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "TensorPoly":
        return TensorPoly()

    @staticmethod
    def identity() -> "TensorPoly":
        one = ScalarCoeff.one()
        return TensorPoly({(0, 0, 0, 0, 0, 0): one, (0, 0, 0, 0, 1, 1): one})

    @staticmethod
    def from_parts(fq: FactorPoly, fp: FactorPoly, r: ROperator) -> "TensorPoly":
        """Tensor product of single-factor polynomials with an r-factor element."""
        out: dict[TensorKey, ScalarCoeff] = {}
        for (mq, nq), cq in fq.terms.items():
            for (mp, np_), cp in fp.terms.items():
                base = cq * cp
                for i in range(2):
                    for j in range(2):
                        c = base * r.entry(i, j)
                        if c.is_zero():
                            continue
                        key = (mq, nq, mp, np_, i, j)
                        out[key] = out[key] + c if key in out else c
        return TensorPoly(out)

    @staticmethod
    def scalar(c: ScalarCoeff) -> "TensorPoly":
        return TensorPoly.identity().scale(c)

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[TensorKey, ScalarCoeff]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def has_lambda(self) -> bool:
        return any(c.has_lambda for c in self._terms.values())

    def max_degree(self) -> int:
        return max((mq + nq + mp + np_ for mq, nq, mp, np_, _, _ in self._terms), default=0)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "TensorPoly") -> "TensorPoly":
        merged = dict(self._terms)
        for k, v in other._terms.items():
            merged[k] = merged[k] + v if k in merged else v
        return TensorPoly(merged)

    def __neg__(self) -> "TensorPoly":
        return TensorPoly({k: -v for k, v in self._terms.items()})

    def __sub__(self, other: "TensorPoly") -> "TensorPoly":
        return self + (-other)

    def scale(self, c: ScalarCoeff) -> "TensorPoly":
        return TensorPoly({k: c * v for k, v in self._terms.items()})

    def __mul__(self, other: "TensorPoly") -> "TensorPoly":
        out: dict[TensorKey, ScalarCoeff] = {}
        for (mq1, nq1, mp1, np1, i1, j1), c1 in self._terms.items():
            for (mq2, nq2, mp2, np2, i2, j2), c2 in other._terms.items():
                if j1 != i2:
                    continue
                c = c1 * c2
                qpart = ordered_product(mq1, nq1, mq2, nq2)
                ppart = ordered_product(mp1, np1, mp2, np2)
                for (mq, nq), sq in qpart.terms.items():
                    cq = c * sq
                    for (mp, np_), sp in ppart.terms.items():
                        key = (mq, nq, mp, np_, i1, j2)
                        add = cq * sp
                        out[key] = out[key] + add if key in out else add
        return TensorPoly(out)

    def adjoint(self) -> "TensorPoly":
        out = TensorPoly.zero()
        for (mq, nq, mp, np_, i, j), c in self._terms.items():
            qpart = ordered_product(0, nq, mq, 0)
            ppart = ordered_product(0, np_, mp, 0)
            piece: dict[TensorKey, ScalarCoeff] = {}
            cc = c.conjugate()
            for (m1, n1), sq in qpart.terms.items():
                for (m2, n2), sp in ppart.terms.items():
                    key = (m1, n1, m2, n2, j, i)
                    add = cc * sq * sp
                    piece[key] = piece[key] + add if key in piece else add
            out = out + TensorPoly(piece)
        return out

    def substitute_lambda(self, value) -> "TensorPoly":
        val = Fraction(value)
        if not 0 <= val <= 1:
            raise ValueError(f"lam must lie in [0, 1], got {val}")
        return TensorPoly(
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


# -- module-level operation names ------------------------------------------


def tp_mul(a: TensorPoly, b: TensorPoly) -> TensorPoly:
    """Product in the algebra: factorwise normal-ordered, r-factor as 2x2."""
    return a * b


def tp_commutator(a: TensorPoly, b: TensorPoly) -> TensorPoly:
    return a * b - b * a


def tp_adjoint(a: TensorPoly) -> TensorPoly:
    return a.adjoint()


def substitute_lambda(a: TensorPoly, value) -> TensorPoly:
    """Evaluate the interpolation weight at an exact rational in [0, 1]."""
    return a.substitute_lambda(value)


def lambda_coefficients(a: TensorPoly) -> list[TensorPoly]:
    """Split ``a`` by powers of the interpolation weight.

    Entry k is the lam^k part of ``a`` with lam removed and the hbar powers
    kept, so ``substitute_lambda(a, v)`` equals ``sum(v**k * c_k)`` exactly.
    The list has one entry per power up to the highest; a lam-free element
    gives a one-entry list.
    """
    parts: list[dict[TensorKey, ScalarCoeff]] = []
    for key, coeff in a.terms.items():
        for l_pow, c in coeff.lambda_parts().items():
            while len(parts) <= l_pow:
                parts.append({})
            parts[l_pow][key] = c
    return [TensorPoly(part) for part in parts or [{}]]


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
    one = FactorPoly.one()
    q = FactorPoly.monomial(1, 0)
    p = FactorPoly.monomial(0, 1)
    rq, rp, rid = ROperator.r_q(), ROperator.r_p(), ROperator.identity()
    lam = ScalarCoeff.lam()

    q_tilde = TensorPoly.from_parts(q, one, rq + rp.scale(lam)) + TensorPoly.from_parts(
        one, q, rp
    )
    p_tilde = TensorPoly.from_parts(p, one, rq) + TensorPoly.from_parts(
        one, p, rq.scale(lam) + rp
    )
    q_qm = TensorPoly.from_parts(q, one, rq) + TensorPoly.from_parts(one, q, rp)
    p_qm = TensorPoly.from_parts(p, one, rq) + TensorPoly.from_parts(one, p, rp)
    q_cm = TensorPoly.from_parts(q, one, rid)
    p_cm = TensorPoly.from_parts(one, p, rid)
    return GeneratorSet(
        q_tilde=q_tilde,
        p_tilde=p_tilde,
        q_qm=q_qm,
        p_qm=p_qm,
        q_cm=q_cm,
        p_cm=p_cm,
        identity=TensorPoly.identity(),
        r_q=TensorPoly.from_parts(one, one, rq),
        r_p=TensorPoly.from_parts(one, one, rp),
    )


def qm_embedding(f: FactorPoly) -> TensorPoly:
    """Two-sector diagonal lift: f on factor q against R_q plus f on factor p
    against R_p.  Applying a polynomial expression to the qm generator pair
    lands exactly here."""
    one = FactorPoly.one()
    return TensorPoly.from_parts(f, one, ROperator.r_q()) + TensorPoly.from_parts(
        one, f, ROperator.r_p()
    )


def _power(unit):
    """The power reading: ``exponent`` factors of the base multiplied onto ``unit``."""
    return lambda base, exponent: reduce(operator.mul, repeat(base, exponent), unit)


def eval_factor_poly(expr) -> FactorPoly:
    """Evaluate a polynomial expression at the single-factor pair (Q, P).

    Gives the plain one-factor normal form f(Q, P), the ingredient of the
    two-sector diagonal lift in :func:`qm_embedding`.
    """
    return fold(
        expr,
        lambda value: FactorPoly.one().scale(ScalarCoeff.from_rational(value)),
        lambda name: (
            FactorPoly.monomial(1, 0) if name == "Q" else FactorPoly.monomial(0, 1)
        ),
        power=_power(FactorPoly.one()),
    )


def eval_ncpoly(expr, x: TensorPoly, y: TensorPoly) -> TensorPoly:
    """Evaluate a polynomial expression tree at two algebra elements.

    The tree is read through :func:`qclab.expr.fold`; products respect the
    written order since x and y need not commute.
    """
    return fold(
        expr,
        lambda value: TensorPoly.scalar(ScalarCoeff.from_rational(value)),
        lambda name: x if name == "Q" else y,
        power=_power(TensorPoly.identity()),
    )
