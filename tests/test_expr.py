"""Infix grammar for noncommutative polynomial expressions."""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qclab.expr import (
    MAX_DEGREE,
    MAX_DEPTH,
    Add,
    Const,
    ExprError,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    differentiate,
    evaluate_numeric,
    fold,
    parse_expr,
    random_expr,
)
from qclab.ncpoly import eval_ncpoly, make_generators
from matrix_oracle import evaluate_matrix

GENS = make_generators()


def format_expr(node) -> str:
    """Render a tree back to source, fully parenthesized inside products."""
    return fold(
        node,
        lambda v: (
            str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        ),
        lambda name: name,
        neg=lambda a: f"-({a})",
        add=lambda a, b: f"{a} + {b}",
        sub=lambda a, b: f"{a} - ({b})",
        mul=lambda a, b: f"({a})*({b})",
        power=lambda a, exponent: f"({a})^{exponent}",
    )


def test_parse_atoms():
    assert parse_expr("Q") == Var("Q")
    assert parse_expr("P") == Var("P")
    assert parse_expr("3") == Const(Fraction(3))
    assert parse_expr("3/2") == Const(Fraction(3, 2))


def test_rational_literal_is_single_token():
    node = parse_expr("1/2*Q")
    assert node == Mul(Const(Fraction(1, 2)), Var("Q"))


def test_bare_division_is_rejected_with_position():
    with pytest.raises(ExprError) as err:
        parse_expr("Q / P")
    assert "single literal" in str(err.value)
    assert err.value.position == 2


def test_zero_denominator_rejected():
    with pytest.raises(ExprError):
        parse_expr("1/0")


def test_precedence_power_over_product():
    assert parse_expr("2*Q^3") == Mul(Const(Fraction(2)), Pow(Var("Q"), 3))


def test_precedence_product_over_sum():
    node = parse_expr("1 + 2*P")
    assert node == Add(Const(Fraction(1)), Mul(Const(Fraction(2)), Var("P")))


def test_product_is_left_associative_and_ordered():
    node = parse_expr("Q*P*Q")
    assert node == Mul(Mul(Var("Q"), Var("P")), Var("Q"))


def test_unary_minus():
    q, p = 2.0, 3.0
    assert evaluate_numeric(parse_expr("-Q + P"), q, p) == 1.0
    assert evaluate_numeric(parse_expr("-(Q + P)"), q, p) == -5.0
    assert evaluate_numeric(parse_expr("- -Q"), q, p) == 2.0


def test_parens_override_precedence():
    assert evaluate_numeric(parse_expr("(1 + 2)*Q"), 5.0, 0.0) == 15.0


def test_power_requires_integer_exponent():
    with pytest.raises(ExprError):
        parse_expr("Q^P")
    with pytest.raises(ExprError):
        parse_expr("Q^")
    with pytest.raises(ExprError):
        parse_expr("Q^(2)")


def test_power_zero_is_one():
    assert evaluate_numeric(parse_expr("Q^0"), 7.0, 0.0) == 1.0


def test_unknown_character_reports_position():
    with pytest.raises(ExprError) as err:
        parse_expr("Q + x")
    assert err.value.position == 4


def test_empty_expression_rejected():
    with pytest.raises(ExprError):
        parse_expr("")
    with pytest.raises(ExprError):
        parse_expr("   ")


def test_trailing_tokens_rejected():
    with pytest.raises(ExprError):
        parse_expr("Q P")
    with pytest.raises(ExprError):
        parse_expr("(Q")


def test_evaluate_numeric_elementwise():
    node = parse_expr("Q^2 + P^2")
    q = np.array([1.0, 2.0])
    p = np.array([3.0, 4.0])
    np.testing.assert_allclose(evaluate_numeric(node, q, p), [10.0, 20.0])


def test_evaluate_matrix_is_noncommutative():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, 0.0]])
    qp = evaluate_matrix(parse_expr("Q*P"), a, b)
    pq = evaluate_matrix(parse_expr("P*Q"), a, b)
    assert not np.allclose(qp, pq)
    np.testing.assert_allclose(qp, a @ b)


def test_evaluate_matrix_constant_is_scaled_identity():
    out = evaluate_matrix(parse_expr("3/2"), np.eye(3), np.eye(3))
    np.testing.assert_allclose(out, 1.5 * np.eye(3))


def test_differentiate_polynomial():
    node = parse_expr("Q^3 + 2*Q*P")
    dq = differentiate(node, "Q")
    # at (q, p) = (2, 5): d/dq = 3 q^2 + 2 p = 22
    assert evaluate_numeric(dq, 2.0, 5.0) == 22.0
    dp = differentiate(node, "P")
    assert evaluate_numeric(dp, 2.0, 5.0) == 4.0


def test_differentiate_constant_is_zero():
    node = parse_expr("7/3")
    assert evaluate_numeric(differentiate(node, "Q"), 1.0, 1.0) == 0.0


def test_differentiate_matches_finite_difference():
    node = parse_expr("(Q + P)^4 - 1/3*Q^2*P")
    dq = differentiate(node, "Q")
    q0, p0, eps = 0.7, -0.4, 1e-6
    fd = (
        evaluate_numeric(node, q0 + eps, p0) - evaluate_numeric(node, q0 - eps, p0)
    ) / (2 * eps)
    assert abs(evaluate_numeric(dq, q0, p0) - fd) < 1e-7


# Strings of the recursive differentiate this one replaced: the tree shape
# fixes the float evaluation order of the Liouville partials.
@pytest.mark.parametrize(
    "src, var, shape",
    [
        (
            "Q^3 + 2*Q*P", "Q",
            "((3)*((Q)^2))*(1) + ((0)*(Q) + (2)*(1))*(P) + ((2)*(Q))*(0)",
        ),
        (
            "(1/2)*(P^2 + Q^2) + (1/10)*Q^4", "Q",
            "(0)*((P)^2 + (Q)^2) + (1/2)*(((2)*((P)^1))*(0) + ((2)*((Q)^1))*(1))"
            " + (0)*((Q)^4) + (1/10)*(((4)*((Q)^3))*(1))",
        ),
        (
            "(1/2)*(P^2 + Q^2) + (1/10)*Q^4", "P",
            "(0)*((P)^2 + (Q)^2) + (1/2)*(((2)*((P)^1))*(1) + ((2)*((Q)^1))*(0))"
            " + (0)*((Q)^4) + (1/10)*(((4)*((Q)^3))*(0))",
        ),
        ("(Q*P)^0 - P^0*Q", "Q", "0 - ((0)*(Q) + ((P)^0)*(1))"),
        ("-Q", "Q", "-(1)"),
    ],
    ids=["cubic", "quartic-Q", "quartic-P", "power-zero", "neg"],
)
def test_differentiate_keeps_the_tree_shape(src, var, shape):
    assert format_expr(differentiate(parse_expr(src), var)) == shape


@dataclass(frozen=True)
class Unknown:
    pass


@pytest.mark.parametrize(
    "read",
    [
        lambda node: evaluate_numeric(node, 1.0, 2.0),
        lambda node: evaluate_matrix(node, np.eye(2), np.eye(2)),
        lambda node: differentiate(node, "Q"),
        format_expr,
        lambda node: eval_ncpoly(node, GENS.q_tilde, GENS.p_tilde),
    ],
    ids=["numeric", "matrix", "differentiate", "format", "ncpoly"],
)
def test_unknown_node_is_a_type_error_in_every_reading(read):
    with pytest.raises(TypeError, match="unsupported expression node Unknown"):
        read(Add(Var("Q"), Mul(Const(Fraction(2)), Unknown())))


def test_format_parse_round_trip_fixed():
    for src in ("Q^2 + P^2", "-1/2*Q", "(Q + P)*(Q - P)", "3/2*Q*P^3"):
        node = parse_expr(src)
        again = parse_expr(format_expr(node))
        assert evaluate_numeric(again, 1.3, -0.7) == pytest.approx(
            evaluate_numeric(node, 1.3, -0.7)
        )


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_expr_round_trips(seed):
    rng = np.random.default_rng(seed)
    node = random_expr(rng, max_degree=4, max_terms=4)
    text = format_expr(node)
    again = parse_expr(text)
    v1 = evaluate_numeric(node, 0.9, -1.1)
    v2 = evaluate_numeric(again, 0.9, -1.1)
    assert v1 == pytest.approx(v2, rel=1e-12, abs=1e-12)


def test_random_expr_is_deterministic():
    n1 = random_expr(np.random.default_rng(42))
    n2 = random_expr(np.random.default_rng(42))
    assert format_expr(n1) == format_expr(n2)


def test_whitespace_is_insensitive():
    a = parse_expr(" ( 1/2 ) * ( P ^ 2+Q^2 ) ")
    b = parse_expr("(1/2)*(P^2+Q^2)")
    assert a == b


def test_fold_calls_left_before_right_in_post_order():
    calls = []

    def note(label):
        def call(*args):
            calls.append((label, *args))
            return label
        return call

    node = Sub(Mul(Neg(Var("Q")), Const(Fraction(2))), Pow(Add(Var("P"), Var("Q")), 3))
    fold(
        node, note("const"), note("var"), neg=note("neg"), add=note("add"),
        sub=note("sub"), mul=note("mul"), power=note("power"),
    )
    assert calls == [
        ("var", "Q"),
        ("neg", "var"),
        ("const", Fraction(2)),
        ("mul", "neg", "const"),
        ("var", "P"),
        ("var", "Q"),
        ("add", "var", "var"),
        ("power", "add", 3),
        ("sub", "mul", "power"),
    ]


def test_fold_reads_trees_deeper_than_the_recursion_limit():
    long_sum = parse_expr("+".join(["Q"] * 1500))
    assert evaluate_numeric(long_sum, 2.0, 0.0) == 3000.0
    assert format_expr(long_sum) == " + ".join(["Q"] * 1500)
    chain = Var("P")
    for _ in range(5000):
        chain = Neg(chain)
    assert evaluate_numeric(chain, 0.0, 3.0) == 3.0
    assert differentiate(long_sum, "Q") is not None


@pytest.mark.parametrize(
    "nested",
    [
        lambda n: "(" * n + "Q" + ")" * n,
        lambda n: "-" * n + "Q",
        lambda n: "-" * (n - 1) + "Q^2",
    ],
    ids=["parentheses", "unary-minus", "power"],
)
def test_parse_depth_is_bounded(nested):
    assert abs(evaluate_numeric(parse_expr(nested(MAX_DEPTH)), 1.0, 0.0)) == 1.0
    with pytest.raises(ExprError, match=f"nests deeper than {MAX_DEPTH} levels"):
        parse_expr(nested(MAX_DEPTH + 1))


@pytest.mark.parametrize(
    "accepted, refused, degree",
    [
        ("Q^32", "Q^33", 33),
        ("(Q*P)^16", "(Q*P)^17", 34),
        ("(Q^2)^16 + 3", "3 + (Q^2)^17", 34),
        ("-(P - Q)^32*1/7", "-(P - Q)^33*1/7", 33),
        ("Q^31*P", "Q^32*P", 33),
    ],
)
def test_parse_degree_is_bounded(accepted, refused, degree):
    assert MAX_DEGREE == 32
    parse_expr(accepted)
    with pytest.raises(ExprError, match=f"degree {degree}, above {MAX_DEGREE}"):
        parse_expr(refused)


def test_parse_degree_bound_reads_exponents_without_expanding():
    # a power is refused by its exponent alone, and nested powers multiply
    with pytest.raises(ExprError, match=f"degree 1000000, above {MAX_DEGREE}"):
        parse_expr("Q^1000000")
    with pytest.raises(ExprError, match=f"degree {40 ** 50}, above"):
        parse_expr("(" * 49 + "Q^40" + ")^40" * 49)
