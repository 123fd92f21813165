"""Tiny expression language for polynomial observables in Q and P.

Grammar (lowest to highest precedence):

    sum     := product (('+' | '-') product)*
    product := unary ('*' unary)*
    unary   := '-' unary | power
    power   := atom ('^' INTEGER)?
    atom    := 'Q' | 'P' | RATIONAL | '(' sum ')'

``RATIONAL`` is an integer or a ratio like ``3/2`` written as one literal
(no spaces around the slash).  Parentheses, unary minus signs and powers
nest at most ``MAX_DEPTH`` levels deep, and the polynomial degree, read
off the tree before any cancellation, is at most ``MAX_DEGREE``.  A general
``/`` operator is rejected: the variables do not commute and quotients are
not part of the algebra.
Multiplication is noncommutative, so ``Q*P`` and ``P*Q`` are different
expressions.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

Node = Union["Const", "Var", "Add", "Sub", "Mul", "Neg", "Pow"]


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str  # "Q" or "P"


@dataclass(frozen=True)
class Add:
    left: Node
    right: Node


@dataclass(frozen=True)
class Sub:
    left: Node
    right: Node


@dataclass(frozen=True)
class Mul:
    left: Node
    right: Node


@dataclass(frozen=True)
class Neg:
    operand: Node


@dataclass(frozen=True)
class Pow:
    base: Node
    exponent: int


class ExprError(ValueError):
    """Parse failure, carrying the 0-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<rat>\d+/\d+)|(?P<int>\d+)|(?P<var>[QP])|(?P<op>[-+*^()])|(?P<bad>\S))"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            break
        if m.lastgroup == "bad":
            ch = m.group("bad")
            at = m.start("bad")
            if ch == "/":
                raise ExprError(
                    "division is not supported; write rationals as a single"
                    " literal like 3/2",
                    at,
                )
            raise ExprError(f"unexpected character {ch!r}", at)
        kind = m.lastgroup or "bad"
        tokens.append(_Token(kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


# deepest nesting parse_expr accepts: the operand of each open parenthesis
# or unary minus sign is one level down, and a power adds one level where it
# stands; each level costs the recursive-descent parser a few stack frames
MAX_DEPTH = 100

# highest polynomial degree parse_expr accepts; normal-ordering (Q+P)^n at
# the interpolating pair costs about n^4 (2.6 s at n = 32 on one core)
MAX_DEGREE = 32


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.index = 0
        self.depth = 0

    def check_depth(self, tok: _Token) -> None:
        """Refuse a level opened at ``tok`` below ``MAX_DEPTH`` others."""
        if self.depth >= MAX_DEPTH:
            raise ExprError(f"expression nests deeper than {MAX_DEPTH} levels", tok.pos)

    def nest(self, tok: _Token, inner):
        """Parse ``inner()`` one nesting level below ``tok``."""
        self.check_depth(tok)
        self.depth += 1
        node = inner()
        self.depth -= 1
        return node

    def peek(self) -> _Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> _Token | None:
        tok = self.peek()
        if tok is not None:
            self.index += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ExprError(f"expected {text!r} but input ended", len(self.src))
        if tok.kind != "op" or tok.text != text:
            raise ExprError(f"expected {text!r}, got {tok.text!r}", tok.pos)
        self.index += 1
        return tok

    def parse(self) -> Node:
        node = self.sum()
        tok = self.peek()
        if tok is not None:
            raise ExprError(f"unexpected trailing token {tok.text!r}", tok.pos)
        return node

    def sum(self) -> Node:
        node = self.product()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.text not in "+-":
                return node
            self.index += 1
            rhs = self.product()
            node = Add(node, rhs) if tok.text == "+" else Sub(node, rhs)

    def product(self) -> Node:
        node = self.unary()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.text != "*":
                return node
            self.index += 1
            node = Mul(node, self.unary())

    def unary(self) -> Node:
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "-":
            self.index += 1
            return Neg(self.nest(tok, self.unary))
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        tok = self.peek()
        if tok is None or tok.kind != "op" or tok.text != "^":
            return base
        self.index += 1
        self.check_depth(tok)
        exp_tok = self.peek()
        if exp_tok is None:
            raise ExprError("expected an integer exponent after '^'", len(self.src))
        if exp_tok.kind != "int":
            raise ExprError(
                f"exponent must be a nonnegative integer, got {exp_tok.text!r}",
                exp_tok.pos,
            )
        self.index += 1
        return Pow(base, int(exp_tok.text))

    def atom(self) -> Node:
        tok = self.next()
        if tok is None:
            raise ExprError("expected an operand but input ended", len(self.src))
        if tok.kind == "var":
            return Var(tok.text)
        if tok.kind == "int":
            return Const(Fraction(int(tok.text)))
        if tok.kind == "rat":
            num, den = tok.text.split("/")
            if int(den) == 0:
                raise ExprError("rational literal has zero denominator", tok.pos)
            return Const(Fraction(int(num), int(den)))
        if tok.kind == "op" and tok.text == "(":
            node = self.nest(tok, self.sum)
            self.expect_op(")")
            return node
        raise ExprError(f"unexpected token {tok.text!r}", tok.pos)


def parse_expr(src: str) -> Node:
    """Parse a polynomial expression in Q and P into an AST.

    Raises :class:`ExprError` with the offending character position on any
    malformed input, including the unsupported ``/`` operator, and at
    position 0 on a tree of degree above ``MAX_DEGREE``.
    """
    if not src.strip():
        raise ExprError("empty expression", 0)
    node = _Parser(src).parse()
    degree = fold(
        node, lambda _: 0, lambda _: 1, neg=lambda d: d, add=max, sub=max,
        mul=operator.add, power=operator.mul,
    )
    if degree > MAX_DEGREE:
        raise ExprError(f"expression has degree {degree}, above {MAX_DEGREE}", 0)
    return node


def fold(node: Node, const, var, *, neg=operator.neg, add=operator.add,
         sub=operator.sub, mul=operator.mul, power=operator.pow):
    """Read the tree bottom-up as a choice of leaf and operator functions.

    ``const`` gets each rational leaf's ``Fraction`` and ``var`` each
    variable's name; every operator node applies its function to the
    readings of its children, left before right, and ``power`` gets the
    base's reading with the integer exponent.  This is the only code in the
    package that dispatches on the node classes.
    """

    binary = {Add: add, Sub: sub, Mul: mul}
    # post-order walk on an explicit stack, so depth costs no recursion: a
    # node is pushed once to visit its children (left popped first) and once
    # more, marked, to combine their readings
    readings = []
    stack = [(node, False)]
    while stack:
        n, children_read = stack.pop()
        if isinstance(n, Const):
            readings.append(const(n.value))
        elif isinstance(n, Var):
            readings.append(var(n.name))
        elif isinstance(n, (Add, Sub, Mul)):
            if children_read:
                right = readings.pop()
                readings.append(binary[type(n)](readings.pop(), right))
            else:
                stack += [(n, True), (n.right, False), (n.left, False)]
        elif isinstance(n, Neg):
            if children_read:
                readings.append(neg(readings.pop()))
            else:
                stack += [(n, True), (n.operand, False)]
        elif isinstance(n, Pow):
            if children_read:
                readings.append(power(readings.pop(), n.exponent))
            else:
                stack += [(n, True), (n.base, False)]
        else:
            raise TypeError(f"unsupported expression node {type(n).__name__}")
    return readings.pop()


def evaluate_numeric(node: Node, q, p):
    """Evaluate the tree with numpy semantics.

    ``q`` and ``p`` may be scalars or arrays; products use elementwise ``*``
    so this is the commutative (phase-space) reading of the expression.
    """
    return fold(node, float, lambda name: q if name == "Q" else p)


def differentiate(node: Node, var: str) -> Node:
    """Formal partial derivative treating Q and P as commuting symbols."""
    zero = Const(Fraction(0))

    # each subtree reads as the pair (subtree, its derivative)
    def mul(a, b):
        (f, df), (g, dg) = a, b
        return Mul(f, g), Add(Mul(df, g), Mul(f, dg))

    def power(a, exponent):
        f, df = a
        if exponent == 0:
            return Pow(f, 0), zero
        return Pow(f, exponent), Mul(
            Mul(Const(Fraction(exponent)), Pow(f, exponent - 1)), df
        )

    return fold(
        node,
        lambda value: (Const(value), zero),
        lambda name: (Var(name), Const(Fraction(1 if name == var else 0))),
        neg=lambda a: (Neg(a[0]), Neg(a[1])),
        add=lambda a, b: (Add(a[0], b[0]), Add(a[1], b[1])),
        sub=lambda a, b: (Sub(a[0], b[0]), Sub(a[1], b[1])),
        mul=mul,
        power=power,
    )[1]


def random_expr(rng: np.random.Generator, max_degree: int = 3, max_terms: int = 4) -> Node:
    """Draw a random polynomial as a sum of noncommutative monomial words.

    Each term is a rational coefficient times a word over {Q, P} of length
    at most ``max_degree``, so the draw exercises arbitrary letter orders.
    """
    n_terms = int(rng.integers(1, max_terms + 1))
    node: Node | None = None
    for _ in range(n_terms):
        num = int(rng.integers(-6, 7))
        den = int(rng.integers(1, 5))
        term: Node = Const(Fraction(num, den))
        length = int(rng.integers(0, max_degree + 1))
        for _ in range(length):
            letter = Var("Q" if rng.integers(0, 2) == 0 else "P")
            term = Mul(term, letter)
        node = term if node is None else Add(node, term)
    assert node is not None
    return node
