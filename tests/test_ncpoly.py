"""Normal ordering, the three-factor algebra, and the generator family.

The closed-form reordering identity

    P^m Q^n = sum_k (-i*hbar)^k k! C(m,k) C(n,k) Q^(n-k) P^(m-k)

pins both normal-ordering algorithms, the closed-form product and the word
rewriter, and truncated oscillator matrices cross-check the symbolic normal
forms numerically.
"""

from contextlib import nullcontext
from fractions import Fraction
from itertools import product
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exact_oracle import CR_ONE, ComplexRational, oracle_adjoint, oracle_mul
from qclab.expr import parse_expr, random_expr
from qclab.matrep import build_backend
from qclab.ncpoly import (
    P,
    Q,
    TensorPoly,
    canonical_eq,
    eval_ncpoly,
    factor_normalize,
    make_generators,
    ordered_product,
    qm_embedding,
    rewrite_fault,
    substitute_lambda,
    tp_adjoint,
    tp_commutator,
)
from qclab.scalars import ScalarCoeff

ONE = ScalarCoeff.one()
I_HBAR = ScalarCoeff.i() * ScalarCoeff.hbar()


def from_complex_rational(c: ComplexRational) -> ScalarCoeff:
    """The constant coefficient ``c``."""
    return ScalarCoeff({(0, 0): c})


def corner(f: dict) -> TensorPoly:
    """A one-factor normal form on factor q in the q-sector: f (x) 1 (x) E_qq."""
    return TensorPoly({(m, n, 0, 0, 0, 0): c for (m, n), c in f.items()})


def e_unit(i: int, j: int) -> TensorPoly:
    """The matrix unit 1 (x) 1 (x) E_ij of the third factor."""
    return TensorPoly({(0, 0, 0, 0, i, j): ONE})


def reorder_oracle(m: int, n: int) -> dict:
    """Closed form for the normal ordering of P^m Q^n."""
    total = {}
    for k in range(min(m, n) + 1):
        z = (-ComplexRational.of(0, 1)) ** k * ComplexRational.of(
            factorial(k) * comb(m, k) * comb(n, k)
        )
        total[(n - k, m - k)] = ScalarCoeff.hbar(k) * from_complex_rational(z)
    return total


def test_single_swap():
    out = factor_normalize([P, Q])
    assert out == {(1, 1): ScalarCoeff.one(), (0, 0): -I_HBAR}


def test_frozen_word_ppqq():
    out = factor_normalize([P, P, Q, Q])
    minus_4i = from_complex_rational(ComplexRational.of(0, -4))
    minus_2 = from_complex_rational(ComplexRational.of(-2))
    assert out == {
        (2, 2): ScalarCoeff.one(),
        (1, 1): ScalarCoeff.hbar() * minus_4i,
        (0, 0): ScalarCoeff.hbar(2) * minus_2,
    }


def test_already_ordered_word_is_untouched():
    out = factor_normalize([Q, Q, P])
    assert out == {(2, 1): ScalarCoeff.one()}


def test_empty_word_is_one():
    assert factor_normalize([]) == {(0, 0): ONE}


def test_reorder_matches_closed_form():
    for m in range(5):
        for n in range(5):
            word = [P] * m + [Q] * n
            assert factor_normalize(word) == reorder_oracle(m, n), (m, n)
    # sizes out of the rewriter's reach
    for m in range(9):
        for n in range(9):
            assert ordered_product(0, m, n, 0) == reorder_oracle(m, n), (m, n)


def test_factor_normalize_rejects_bad_letters():
    with pytest.raises(ValueError):
        factor_normalize(["Q", "X"])
    with pytest.raises(ValueError):
        factor_normalize([Q, P], strategy="middle")


words = st.lists(st.sampled_from([Q, P]), max_size=8)


@given(words)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_rewrite_confluence(word):
    left = factor_normalize(word, strategy="leftmost")
    right = factor_normalize(word, strategy="rightmost")
    assert left == right


@given(words, words)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_normalization_is_multiplicative(u, v):
    whole = corner(factor_normalize(list(u) + list(v)))
    parts = corner(factor_normalize(u)) * corner(factor_normalize(v))
    assert whole == parts


def test_word_normal_forms_match_fock_matrices():
    """Random words: normal form and direct matrix product agree on the bulk."""
    n = 24
    keep = 16
    backend = build_backend("fock", n, 1.0)
    mats = {Q: np.asarray(backend.qmat), P: np.asarray(backend.pmat)}
    powers_q = [np.linalg.matrix_power(mats[Q], k) for k in range(5)]
    powers_p = [np.linalg.matrix_power(mats[P], k) for k in range(5)]
    rng = np.random.default_rng(7)
    for _ in range(20):
        word = [Q if rng.integers(2) else P for _ in range(int(rng.integers(1, 5)))]
        direct = np.eye(n, dtype=complex)
        for letter in word:
            direct = direct @ mats[letter]
        normal = np.zeros((n, n), dtype=complex)
        for (m, k), coeff in factor_normalize(word).items():
            normal += coeff.evaluate(1.0) * (powers_q[m] @ powers_p[k])
        np.testing.assert_allclose(
            direct[:keep, :keep], normal[:keep, :keep], atol=1e-10
        )


def test_ordered_product_examples():
    assert ordered_product(0, 1, 1, 0) == factor_normalize([P, Q])
    assert ordered_product(1, 0, 0, 1) == {(1, 1): ONE}
    assert ordered_product(0, 0, 2, 3) == {(2, 3): ONE}

    def agrees_with_rewriter():
        for a, b, c, d in product(range(5), repeat=4):
            word = [Q] * a + [P] * b + [Q] * c + [P] * d
            assert ordered_product(a, b, c, d) == factor_normalize(word), (a, b, c, d)

    agrees_with_rewriter()
    # a fault corrupts the closed form exactly as it corrupts the rewriter
    bad = ScalarCoeff.from_rational(Fraction(3, 2)) * ScalarCoeff.hbar() + ScalarCoeff.lam()
    with rewrite_fault(bad):
        assert ordered_product(0, 1, 1, 0)[(0, 0)] == bad
        agrees_with_rewriter()
    # a zero s keeps only the reordered word, with no zero entries left over
    with rewrite_fault(ScalarCoeff.zero()):
        assert ordered_product(2, 3, 4, 1) == {(6, 4): ONE}
        agrees_with_rewriter()


def test_factor_adjoint_reverses_products():
    f = corner(factor_normalize([P, Q, Q]))
    g = corner(factor_normalize([Q, P]))
    assert (f * g).adjoint() == g.adjoint() * f.adjoint()
    assert f.adjoint().adjoint() == f


def test_factor_adjoint_monomial():
    # (Q P)^dagger = P Q = Q P - i hbar
    f = corner({(1, 1): ONE})
    assert f.adjoint() == corner(factor_normalize([P, Q]))


def test_factor_scale_by_i_flips_under_adjoint():
    f = corner({(2, 0): ScalarCoeff.i()})
    assert f.adjoint() == corner({(2, 0): -ScalarCoeff.i()})


def test_r_operator_unit_table():
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    prod = e_unit(i, j) * e_unit(k, l)
                    if j == k:
                        assert prod == e_unit(i, l)
                    else:
                        assert prod == TensorPoly.zero()


def test_r_projectors():
    g = make_generators()
    rq, rp = g.r_q, g.r_p
    assert rq * rq == rq
    assert rp * rp == rp
    assert rq * rp == TensorPoly.zero()
    assert rp * rq == TensorPoly.zero()
    assert rq + rp == g.identity
    assert rq.adjoint() == rq


def test_tensor_identity_is_unit():
    g = make_generators()
    one = TensorPoly.identity()
    for a in (g.q_tilde, g.p_tilde, g.q_qm, g.p_cm):
        assert one * a == a
        assert a * one == a


def test_tensor_product_r_chain():
    # E_qp * E_pq = E_qq on the selector factor; Q and P multiply factorwise
    a = TensorPoly({(1, 0, 0, 0, 0, 1): ONE})  # Q (x) 1 (x) E_qp
    b = TensorPoly({(0, 0, 0, 1, 1, 0): ONE})  # 1 (x) P (x) E_pq
    out = a * b
    expected = TensorPoly({(1, 0, 0, 1, 0, 0): ONE})  # Q (x) P (x) E_qq
    assert out == expected
    # mismatched chain annihilates
    c = e_unit(0, 1)
    assert (c * c).is_zero()


def test_tensor_product_reorders_within_factors():
    a = TensorPoly({(0, 1, 0, 0, i, i): ONE for i in (0, 1)})  # P (x) 1 (x) 1
    b = TensorPoly({(1, 0, 0, 0, i, i): ONE for i in (0, 1)})  # Q (x) 1 (x) 1
    # P*Q on the first factor picks up the -i hbar contraction in both sectors
    out = a * b
    pq = factor_normalize([P, Q]).items()
    expected = TensorPoly({(m, n, 0, 0, i, i): c for (m, n), c in pq for i in (0, 1)})
    assert out == expected


def test_tensor_adjoint_antihomomorphism():
    g = make_generators()
    a = g.q_tilde * g.p_tilde
    assert tp_adjoint(a) == tp_adjoint(g.p_tilde) * tp_adjoint(g.q_tilde)
    assert tp_adjoint(tp_adjoint(a)) == a


def test_tensor_adjoint_transports_to_matrix_dagger():
    """Symbolic adjoint agrees with the numeric dagger away from truncation."""
    from qclab.matrep import realize

    g = make_generators()
    backend = build_backend("fock", 12, 1.0)
    a = g.q_tilde * g.p_tilde
    lhs = realize(tp_adjoint(a).substitute_lambda(Fraction(1, 3)), backend, backend)
    rhs = realize(a.substitute_lambda(Fraction(1, 3)), backend, backend).conj().T
    keep = np.array(
        [(iq * 12 + ip) * 2 + ir
         for iq in range(8) for ip in range(8) for ir in range(2)]
    )
    sub = np.ix_(keep, keep)
    assert np.max(np.abs(lhs[sub] - rhs[sub])) < 1e-12


def test_generators_are_adjoint_fixed():
    g = make_generators()
    for name in ("q_tilde", "p_tilde", "q_qm", "p_qm", "q_cm", "p_cm"):
        a = getattr(g, name)
        assert tp_adjoint(a) == a, name


def test_qm_ccr_is_exact():
    g = make_generators()
    assert canonical_eq(
        tp_commutator(g.q_qm, g.p_qm), TensorPoly.identity().scale(I_HBAR)
    )


def test_interpolating_ccr_holds_at_every_weight():
    g = make_generators()
    comm = tp_commutator(g.q_tilde, g.p_tilde)
    assert canonical_eq(comm, TensorPoly.identity().scale(I_HBAR))


def test_cm_pair_commutes():
    g = make_generators()
    assert tp_commutator(g.q_cm, g.p_cm).is_zero()


def test_weight_zero_endpoint_is_qm_pair():
    g = make_generators()
    assert substitute_lambda(g.q_tilde, 0) == g.q_qm
    assert substitute_lambda(g.p_tilde, 0) == g.p_qm


def test_interpolating_offsets_from_qm_pair():
    g = make_generators()
    lam = ScalarCoeff.lam()
    q_off = TensorPoly({(1, 0, 0, 0, 1, 1): lam})  # lam Q (x) 1 (x) E_pp
    p_off = TensorPoly({(0, 0, 0, 1, 0, 0): lam})  # lam 1 (x) P (x) E_qq
    assert g.q_tilde - g.q_qm == q_off
    assert g.p_tilde - g.p_qm == p_off


def test_weight_one_endpoint_differs_from_cm_pair():
    """The h -> 0 limit of the family is not the commuting pair itself."""
    g = make_generators()
    q_gap = substitute_lambda(g.q_tilde, 1) - g.q_cm
    p_gap = substitute_lambda(g.p_tilde, 1) - g.p_cm
    assert q_gap == TensorPoly({(0, 0, 1, 0, 1, 1): ONE})  # 1 (x) Q (x) E_pp
    assert p_gap == TensorPoly({(0, 1, 0, 0, 0, 0): ONE})  # P (x) 1 (x) E_qq


def test_substitute_lambda_examples():
    g = make_generators()
    half = substitute_lambda(g.q_tilde, Fraction(1, 2))
    assert not any(c.has_lambda for c in half.terms.values())
    assert substitute_lambda(half, Fraction(1, 3)) == half


def test_substitute_lambda_rejects_outside_unit_interval():
    g = make_generators()
    with pytest.raises(ValueError):
        substitute_lambda(g.q_tilde, Fraction(3, 2))
    with pytest.raises(ValueError):
        substitute_lambda(g.q_tilde, -1)


def test_qm_embedding_of_square():
    out = qm_embedding(corner({(2, 0): ONE}))
    # Q^2 (x) 1 (x) E_qq + 1 (x) Q^2 (x) E_pp
    expected = TensorPoly({(2, 0, 0, 0, 0, 0): ONE, (0, 0, 2, 0, 1, 1): ONE})
    assert out == expected


@pytest.mark.parametrize(
    "key", [(0, 0, 0, 0, 1, 1), (1, 0, 0, 0, 0, 1), (1, 0, 1, 0, 0, 0)]
)
def test_qm_embedding_rejects_terms_outside_the_corner(key):
    with pytest.raises(ValueError, match="outside the q-sector corner"):
        qm_embedding(corner({(1, 0): ONE}) + TensorPoly({key: ONE}))


def test_translation_identity_for_products():
    """Evaluating a word at the qm pair equals embedding its one-factor form."""
    from qclab.expr import parse_expr

    g = make_generators()
    q_corner, p_corner = g.q_qm * g.r_q, g.p_qm * g.r_q
    for src in ("Q*P", "P*Q*Q + 2*P", "(Q + P)^3", "Q^2*P^2 - 1/2"):
        node = parse_expr(src)
        direct = eval_ncpoly(node, g.q_qm, g.p_qm)
        embedded = qm_embedding(g.r_q * eval_ncpoly(node, q_corner, p_corner))
        assert canonical_eq(direct, embedded), src


def commutative_oracle(node) -> dict[tuple[int, int], ComplexRational]:
    """Expand an expression tree as a commutative polynomial in two variables."""
    from qclab import expr as e

    def mul(a, b):
        out: dict[tuple[int, int], ComplexRational] = {}
        for (m1, n1), c1 in a.items():
            for (m2, n2), c2 in b.items():
                key = (m1 + m2, n1 + n2)
                acc = out.get(key, ComplexRational.of(0)) + c1 * c2
                out[key] = acc
        return {k: v for k, v in out.items() if not v.is_zero()}

    def add(a, b):
        out = dict(a)
        for k, v in b.items():
            acc = out.get(k, ComplexRational.of(0)) + v
            out[k] = acc
        return {k: v for k, v in out.items() if not v.is_zero()}

    def walk(n):
        if isinstance(n, e.Const):
            return {(0, 0): ComplexRational.of(n.value)} if n.value else {}
        if isinstance(n, e.Var):
            return {(1, 0) if n.name == "Q" else (0, 1): CR_ONE}
        if isinstance(n, e.Add):
            return add(walk(n.left), walk(n.right))
        if isinstance(n, e.Sub):
            return add(walk(n.left), mul({(0, 0): -CR_ONE}, walk(n.right)))
        if isinstance(n, e.Mul):
            return mul(walk(n.left), walk(n.right))
        if isinstance(n, e.Neg):
            return mul({(0, 0): -CR_ONE}, walk(n.operand))
        if isinstance(n, e.Pow):
            out = {(0, 0): CR_ONE}
            for _ in range(n.exponent):
                out = mul(out, walk(n.base))
            return out
        raise TypeError(n)

    return walk(node)


def test_cm_evaluation_matches_commutative_expansion():
    from qclab.expr import parse_expr, random_expr

    g = make_generators()
    rng = np.random.default_rng(11)
    sources = ["Q*P - P*Q", "(Q + 2*P)^3", "Q^4 - 1/3*P^2"]
    nodes = [parse_expr(s) for s in sources]
    nodes += [random_expr(rng, max_degree=4, max_terms=4) for _ in range(20)]
    for node in nodes:
        out = eval_ncpoly(node, g.q_cm, g.p_cm)
        oracle = commutative_oracle(node)
        expected = TensorPoly.zero()
        for (m, n), z in oracle.items():
            # z Q^m (x) P^n (x) 1
            c = from_complex_rational(z)
            expected = expected + TensorPoly({(m, 0, 0, n, i, i): c for i in (0, 1)})
        assert canonical_eq(out, expected)


def test_eval_ncpoly_respects_noncommutativity():
    g = make_generators()
    from qclab.expr import parse_expr

    comm = eval_ncpoly(parse_expr("Q*P - P*Q"), g.q_qm, g.p_qm)
    assert canonical_eq(comm, TensorPoly.identity().scale(I_HBAR))


def test_max_degree():
    def degree(a: TensorPoly) -> int:
        return max((sum(key[:4]) for key in a.terms), default=0)

    g = make_generators()
    assert degree(g.q_tilde) == 1
    assert degree(g.q_qm * g.q_qm) == 2
    assert degree(TensorPoly.identity()) == 0


def test_rewrite_fault_changes_contraction_and_restores():
    bad = ScalarCoeff.from_rational(Fraction(1, 2)) * (-I_HBAR)
    with rewrite_fault(bad):
        out = factor_normalize([P, Q])
        assert out[(0, 0)] == bad
    out = factor_normalize([P, Q])
    assert out[(0, 0)] == -I_HBAR


def test_rewrite_fault_breaks_ccr():
    bad = ScalarCoeff.from_rational(Fraction(1, 2)) * (-I_HBAR)
    with rewrite_fault(bad):
        g = make_generators()
        comm = tp_commutator(g.q_qm, g.p_qm)
        assert not canonical_eq(comm, TensorPoly.identity().scale(I_HBAR))
        diff = comm - TensorPoly.identity().scale(I_HBAR)
        assert not diff.is_zero()


# -- products and adjoints against the all-pairs oracle ---------------------

# one-term coefficients: the unit built both ways (from_rational(1) is not
# the ScalarCoeff.one() instance), and values a unit check must not skip
_ONE_TERMS = [
    ScalarCoeff.one(),
    ScalarCoeff.from_rational(1),
    ScalarCoeff.from_rational(Fraction(1, 3)),
    ScalarCoeff.from_rational(-1),
    ScalarCoeff.i(),
    ScalarCoeff.hbar(),
    ScalarCoeff.lam(),
]
# a coefficient is one of those or a sum of up to three hbar^a lam^b terms
_parts = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_coeffs = st.sampled_from(_ONE_TERMS) | st.builds(
    ScalarCoeff,
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.tuples(_parts, _parts),
        min_size=1,
        max_size=3,
    ),
)
_keys = st.tuples(*[st.integers(0, 3)] * 4, st.integers(0, 1), st.integers(0, 1))
_polys = st.dictionaries(_keys, _coeffs, max_size=3).map(TensorPoly)

# the swap constant as it is, zeroed, and as verify's fault_injection -1.0 sets it
_SWAP_FAULTS = {
    "none": None,
    "zero": ScalarCoeff.zero(),
    "verify-minus-one": ScalarCoeff.from_rational(0, 1) * ScalarCoeff.hbar(),
}


@pytest.mark.parametrize("fault", list(_SWAP_FAULTS))
@given(_polys, _polys)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_products_and_adjoints_match_the_all_pairs_oracle(fault, a, b):
    term = _SWAP_FAULTS[fault]
    with nullcontext() if term is None else rewrite_fault(term):
        assert a * b == oracle_mul(a, b)
        assert a.adjoint() == oracle_adjoint(a)


def test_unit_skip_keeps_non_unit_coefficients():
    # built by the constructor, so no product of the engine made the inputs
    shapes = [
        [(1, 0, 0, 0, 0, 0)],
        [(0, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 1)],
        [(0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1)],
    ]
    for c in _ONE_TERMS:
        for keys in shapes:
            plain = TensorPoly({k: ScalarCoeff.one() for k in keys})
            scaled = TensorPoly({k: c for k in keys})
            for a, b in ((scaled, plain), (plain, scaled), (scaled, scaled)):
                assert a * b == oracle_mul(a, b)
            assert scaled.adjoint() == oracle_adjoint(scaled)


def test_cancelled_terms_are_pruned():
    one, minus = ScalarCoeff.one(), ScalarCoeff.from_rational(-1)
    # (Q E_qq + E_qp)(E_qq - Q E_pq): Q E_qq - Q E_qq, the key built twice
    a = TensorPoly({(1, 0, 0, 0, 0, 0): one, (0, 0, 0, 0, 0, 1): one})
    b = TensorPoly({(0, 0, 0, 0, 0, 0): one, (1, 0, 0, 0, 1, 0): minus})
    assert (a * b).terms == {}
    assert (a - a).terms == {}
    g = make_generators()
    assert g.q_tilde.substitute_lambda(0).terms == g.q_qm.terms


def test_eval_ncpoly_powers_zero_and_one():
    g = make_generators()
    for x in (g.q_tilde, g.p_tilde, g.q_qm + g.p_cm):
        assert eval_ncpoly(parse_expr("Q^0"), x, g.p_tilde) == TensorPoly.identity()
        assert eval_ncpoly(parse_expr("Q^1"), x, g.p_tilde) == x
        assert eval_ncpoly(parse_expr("Q^3"), x, g.p_tilde) == x * x * x


def test_tensor_poly_validates_keys():
    with pytest.raises(ValueError):
        TensorPoly({(0, 0, 0, 0, 2, 0): ScalarCoeff.one()})
    with pytest.raises(ValueError):
        TensorPoly({(-1, 0, 0, 0, 0, 0): ScalarCoeff.one()})


def test_repr_round_trip_stability():
    g = make_generators()
    assert repr(g.q_tilde) == repr(make_generators().q_tilde)
