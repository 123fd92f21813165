"""Finite-dimensional backends and the realization of algebra elements."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qclab import matrep
from qclab.cli import BackendSpec, RunConfig, cmd_kernels
from qclab.matrep import (
    MAX_DENSE_BYTES,
    ORDERING,
    apply,
    build_backend,
    commutator_defect,
    defect_terms,
    export_kernel_csv,
    export_matrix,
    format_float,
    has_hermitian_image,
    hermitian_defect,
    max_entry,
    qm_product_sectors,
    qm_spectrum,
    quadratic_form,
    r_block,
    realize,
    slots,
    spectrum,
    term_values,
    within,
    write_csv,
)
from qclab.ncpoly import TensorPoly, eval_ncpoly, make_generators, substitute_lambda
from qclab.expr import parse_expr, random_expr
from qclab.scalars import ScalarCoeff
from qclab.states import WeightSpec, cm_point_state, lift_qm_eigenstate, mean_value

from matrix_oracle import (
    dense_commutator_defect,
    dense_product_defect,
    dense_spectrum,
    flatten,
    vector_mean,
)


def test_fock_commutator_anomaly():
    b = build_backend("fock", 4, 1.0)
    comm = b.qmat @ b.pmat - b.pmat @ b.qmat
    np.testing.assert_allclose(comm, 1j * np.diag([1.0, 1.0, 1.0, -3.0]), atol=1e-14)


def test_fock_commutator_scales_with_hbar():
    b = build_backend("fock", 6, 0.5)
    comm = b.qmat @ b.pmat - b.pmat @ b.qmat
    np.testing.assert_allclose(
        comm, 0.5j * np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -5.0]), atol=1e-14
    )


def test_fock_matrices_are_hermitian():
    b = build_backend("fock", 8, 1.0)
    assert hermitian_defect(b.qmat) == 0.0
    assert hermitian_defect(b.pmat) < 1e-14


def test_grid_position_diagonal():
    b = build_backend("grid-position", 8, 1.0, 8.0)
    np.testing.assert_allclose(np.diag(b.qmat), np.arange(-4.0, 4.0), atol=0)
    assert abs(np.trace(b.qmat)) == 4.0  # asymmetric sample set sums to -4
    np.testing.assert_allclose(b.basis_labels, np.arange(-4.0, 4.0))


def test_grid_momentum_mirrors_position():
    bp = build_backend("grid-momentum", 8, 1.0, 8.0)
    np.testing.assert_allclose(np.diag(bp.pmat), np.arange(-4.0, 4.0), atol=1e-14)
    assert hermitian_defect(bp.qmat) < 1e-14


def test_grid_conjugate_operator_is_hermitian():
    b = build_backend("grid-position", 16, 1.0, 12.0)
    assert hermitian_defect(b.pmat) < 1e-13
    # even sample count: the dual set carries the lone Nyquist value, so the
    # trace is -pi*hbar/spacing rather than zero
    spacing = 12.0 / 16.0
    assert np.trace(b.pmat) == pytest.approx(-np.pi / spacing, abs=1e-12)


def test_grid_pair_spectra_match():
    """The conjugate operator carries the dual sample values as spectrum."""
    b = build_backend("grid-position", 8, 1.0, 8.0)
    eigs = np.sort(np.linalg.eigvalsh(np.asarray(b.pmat)))
    expected = np.sort(2.0 * np.pi * np.fft.fftfreq(8, 8.0 / 8.0))
    np.testing.assert_allclose(eigs, expected, atol=1e-12)


def test_backend_kind_aliases():
    assert build_backend("Fock", 4, 1.0).kind == "fock"
    assert build_backend("GRID-POSITION", 4, 1.0, 4.0).kind == "grid-position"
    assert build_backend("grid_momentum", 4, 1.0, 4.0).kind == "grid-momentum"


def test_backend_validation():
    with pytest.raises(ValueError):
        build_backend("fock", 1, 1.0)
    with pytest.raises(ValueError):
        build_backend("fock", 4, 0.0)
    with pytest.raises(ValueError):
        build_backend("grid-position", 4, 1.0)
    with pytest.raises(ValueError):
        build_backend("grid-position", 4, 1.0, -2.0)
    with pytest.raises(ValueError):
        build_backend("lattice", 4, 1.0)


def test_backend_matrices_are_frozen():
    b = build_backend("fock", 4, 1.0)
    with pytest.raises(ValueError):
        b.qmat[0, 0] = 5.0


def test_flat_index_round_trip():
    flat = np.arange(30)
    labels = flat[:, None] * 30 + flat  # entry (a, b) names its row a and column b
    psi = slots(flat, 3, 5)
    assert psi.shape == (2, 3, 5)
    for iq in range(3):
        for ip in range(5):
            for ir in range(2):
                want = (iq * 5 + ip) * 2 + ir
                assert psi[ir, iq, ip] == want
                for j in range(2):
                    assert (r_block(labels, ir, j)[iq * 5 + ip] // 30 == want).all()
                    assert (r_block(labels, j, ir)[:, iq * 5 + ip] % 30 == want).all()


def test_flat_index_range_checks():
    # a vector on the 3 x 5 pair has 30 entries in two r-slots, and each
    # r-block of a matrix there is 15 x 15
    with pytest.raises(ValueError):
        slots(np.arange(31), 3, 5)
    with pytest.raises(IndexError):
        slots(np.arange(30), 3, 5)[2]
    with pytest.raises(IndexError):
        slots(np.arange(30), 3, 5)[0, 3]
    m = np.zeros((30, 30))
    assert all(r_block(m, i, j).shape == (15, 15) for i, j in np.ndindex(2, 2))


def test_slots_and_r_blocks_are_views_on_a_non_square_pair():
    # N_q = 3, N_p = 5 tells the two factor axes apart
    bq, bp = build_backend("fock", 3, 1.0), build_backend("fock", 5, 1.0)
    stack = np.zeros((4, 30), dtype=complex)
    view = slots(stack, 3, 5)
    assert view.shape == (2, 4, 3, 5)
    for n, iq, ip, ir in np.ndindex(4, 3, 5, 2):
        view[ir, n, iq, ip] = complex(n, flatten(iq, ip, ir, 3, 5))
    want = np.array([[complex(n, f) for f in range(30)] for n in range(4)])
    np.testing.assert_array_equal(stack, want)
    # one term on each r-block: r_block(m, i, j) is the block of E_ij
    one = ScalarCoeff.one()
    a = TensorPoly({(1, 0, 0, 0, 0, 0): one, (0, 0, 1, 1, 0, 1): one, (2, 0, 0, 0, 1, 0): ScalarCoeff.i()})
    m = realize(a, bq, bp)
    q, qp = np.asarray(bq.qmat), np.asarray(bp.qmat @ bp.pmat)
    blocks = {
        (0, 0): np.kron(q, np.eye(5)),
        (0, 1): np.kron(np.eye(3), qp),
        (1, 0): 1j * np.kron(q @ q, np.eye(5)),
        (1, 1): np.zeros((15, 15)),
    }
    # kron(block, E_ij) puts a block at (i, j) by the formula, without r_block
    e = np.eye(2)
    want = sum(np.kron(block, np.outer(e[i], e[j])) for (i, j), block in blocks.items())
    np.testing.assert_allclose(m, want, rtol=0, atol=1e-15)
    for (i, j), block in blocks.items():
        assert np.shares_memory(r_block(m, i, j), m)
        np.testing.assert_allclose(r_block(m, i, j), block, rtol=0, atol=1e-15)


def test_realize_identity():
    b = build_backend("fock", 3, 1.0)
    m = realize(TensorPoly.identity(), b, b)
    # a plain array, read-only: callers share it and may not write to it
    assert type(m) is np.ndarray and not m.flags.writeable
    np.testing.assert_allclose(m, np.eye(18), atol=0)


def test_realize_commuting_pair_is_diagonal_on_grids():
    g = make_generators()
    bq = build_backend("grid-position", 4, 1.0, 4.0)
    bp = build_backend("grid-momentum", 4, 1.0, 4.0)
    mq = realize(g.q_cm, bq, bp)
    mp = realize(g.p_cm, bq, bp)
    assert np.max(np.abs(mq - np.diag(np.diag(mq)))) == 0.0
    assert np.max(np.abs(mp - np.diag(np.diag(mp)))) == 0.0
    # entry for (i_q, i_p, i_r) holds q_{i_q} and p_{i_p} respectively
    for iq in range(4):
        for ip in range(4):
            for ir in range(2):
                flat = flatten(iq, ip, ir, 4, 4)
                assert mq[flat, flat] == bq.basis_labels[iq]
                assert mp[flat, flat] == bp.basis_labels[ip]


def test_realize_respects_kron_order():
    # A = Q (x) 1 (x) E_qq must equal np.kron(Qmat, np.kron(I, E_qq))
    b = build_backend("fock", 3, 1.0)
    a = TensorPoly({(1, 0, 0, 0, 0, 0): ScalarCoeff.one()})
    m = realize(a, b, b)
    e_qq = np.array([[1.0, 0.0], [0.0, 0.0]])
    expected = np.kron(np.asarray(b.qmat), np.kron(np.eye(3), e_qq))
    np.testing.assert_allclose(m, expected, atol=0)


def test_realize_interpolating_pair_needs_weight():
    g = make_generators()
    b = build_backend("fock", 4, 1.0)
    with pytest.raises(ValueError):
        realize(g.q_tilde, b, b)
    m0 = realize(g.q_tilde.substitute_lambda(0), b, b)
    m_qm = realize(g.q_qm, b, b)
    np.testing.assert_allclose(m0, m_qm, atol=0)


def test_realize_rejects_mismatched_hbar():
    g = make_generators()
    b1 = build_backend("fock", 4, 1.0)
    b2 = build_backend("fock", 4, 2.0)
    with pytest.raises(ValueError):
        realize(g.q_qm, b1, b2)


def test_realize_is_linear():
    g = make_generators()
    b = build_backend("fock", 5, 1.0)
    a1 = g.q_qm * g.q_qm
    a2 = g.p_qm
    lhs = realize(a1 + a2.scale(ScalarCoeff.from_rational(Fraction(3))), b, b)
    rhs = realize(a1, b, b) + 3 * realize(a2, b, b)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def _pair(kind, hbar=1.0):
    if kind == "fock":
        return build_backend("fock", 5, hbar), build_backend("fock", 7, hbar)
    if kind == "fock-2":  # the bulk is one level of each factor: 1 x 1
        return build_backend("fock", 2, hbar), build_backend("fock", 2, hbar)
    if kind == "fock-grid":
        return build_backend("fock", 5, hbar), build_backend("grid-momentum", 7, hbar, 7.0)
    return (
        build_backend("grid-position", 5, hbar, 6.0),
        build_backend("grid-momentum", 7, hbar, 7.0),
    )


def test_commutator_defect_qm_bulk_small():
    g = make_generators()
    b = build_backend("fock", 8, 1.0)
    d = commutator_defect(b, b, g.q_qm, g.p_qm)
    assert d["bulk_defect_norm"] < 1e-12
    assert d["defect_norm"] > 1.0  # truncation edge is genuinely large


def test_commutator_defect_cm_exactly_zero():
    g = make_generators()
    pairs = [
        (build_backend("grid-position", 8, 1.0, 8.0), build_backend("grid-momentum", 8, 1.0, 8.0)),
        _pair("grid", 0.7),
    ]
    for bq, bp in pairs:
        d = commutator_defect(bq, bp, g.q_cm, g.p_cm)
        assert d["defect_norm"] == 0.0
        assert d["bulk_defect_norm"] == 0.0


def _product_cases():
    g = make_generators()
    one = ScalarCoeff.one()
    half_i = ScalarCoeff({(0, 0): (Fraction(1, 2), Fraction(-3, 4))})
    qpq = eval_ncpoly(parse_expr("Q*P*Q"), g.q_qm, g.p_qm)
    # Q P^2 (x) P (x) E_qp and 1 (x) Q^2 (x) E_pq couple the r-sectors
    coupling = TensorPoly({(1, 2, 0, 1, 0, 1): half_i, (0, 0, 2, 0, 1, 0): one})
    # Q (x) 1 + 1 (x) Q and P (x) 1 + 1 (x) P, both in E_qq: the defect block
    # is Xs (x) 1 + 1 (x) Ys, and on Fock factors the bulk diagonal sums
    # Xs_aa + Ys_bb cancel where each summand alone has modulus hbar
    q_sum = TensorPoly({(1, 0, 0, 0, 0, 0): one, (0, 0, 1, 0, 0, 0): one})
    p_sum = TensorPoly({(0, 1, 0, 0, 0, 0): one, (0, 0, 0, 1, 0, 0): one})
    return {
        "one-factor-sum": (q_sum, p_sum, None),
        "qm-pair": (g.q_qm, g.p_qm, None),
        "mixed-word": (qpq, g.p_qm + g.q_qm, None),
        "r-coupling": (coupling, g.q_tilde * g.p_tilde, Fraction(2, 5)),
        "coupling-squared": (coupling, coupling.adjoint(), None),
        "tilde-lam": (g.q_tilde, g.p_tilde, Fraction(1, 3)),
        "tilde-cm-end": (g.p_tilde * g.p_tilde, g.q_tilde, Fraction(1)),
    }


def _assert_defects_match(bq, bp, a, b, lam=None):
    if lam is not None:
        a, b = (x.substitute_lambda(lam) for x in (a, b))
    got = commutator_defect(bq, bp, a, b)
    want = dense_commutator_defect(bq, bp, a, b)
    for key in ("defect_norm", "bulk_defect_norm"):
        assert abs(got[key] - want[key]) <= 1e-12 * max(1.0, want[key]), (key, got, want)


@pytest.mark.parametrize("hbar", [1.0, 0.7])
@pytest.mark.parametrize("kind", ["fock", "grid", "fock-grid", "fock-2"])
@pytest.mark.parametrize("case", sorted(_product_cases()))
def test_commutator_defect_matches_the_dense_oracle(kind, hbar, case):
    a, b, lam = _product_cases()[case]
    _assert_defects_match(*_pair(kind, hbar), a, b, lam)


_KINDS = ("fock", "grid-position", "grid-momentum")


@st.composite
def _elements(draw):
    """Up to 3 terms of degree at most 2 per factor, random r-slots and
    complex rational coefficients.  A term acts on the q factor, the p
    factor or both, so one-factor r-blocks are common."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        support = draw(st.sampled_from(["q", "p", "qp"]))
        word = []
        for f in "qp":
            m = draw(st.integers(0, 2)) if f in support else 0
            word += [m, draw(st.integers(0, 2 - m)) if f in support else 0]
        key = (*word, draw(st.integers(0, 1)), draw(st.integers(0, 1)))
        re, im = (Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4))) for _ in "ri")
        terms[key] = ScalarCoeff({(0, 0): (re, im)})
    return TensorPoly(terms)


@st.composite
def _backend_pairs(draw):
    hbar = draw(st.sampled_from([1.0, 0.7]))
    n_q = draw(st.integers(2, 6))
    n_p = draw(st.integers(2, 6).filter(lambda n: n != n_q))
    return tuple(
        build_backend(draw(st.sampled_from(_KINDS)), n, hbar, float(n)) for n in (n_q, n_p)
    )


@given(_backend_pairs(), _elements(), _elements())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_commutator_defect_of_random_elements_matches_the_dense_oracle(pair, a, b):
    _assert_defects_match(*pair, a, b)


@st.composite
def _polynomials(draw):
    """An element of degree at most 4 from ``random_expr`` in the tilde pair
    at a rational lam, the qm pair or the cm pair, or an element of random
    terms (``_elements``): the pairs' elements are r-diagonal, so only these
    reach ``E_qp`` and ``E_pq``."""
    pair = draw(st.sampled_from(["tilde", "qm", "cm", "terms"]))
    if pair == "terms":
        return draw(_elements())
    g = make_generators()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    node = random_expr(rng, max_degree=4, max_terms=3)
    if pair == "tilde":
        lam = draw(st.fractions(0, 1, max_denominator=6))
        return eval_ncpoly(node, g.q_tilde, g.p_tilde).substitute_lambda(lam)
    return eval_ncpoly(node, getattr(g, f"q_{pair}"), getattr(g, f"p_{pair}"))


def _form(a, bq, bp, v):
    """``<v|A|v>``, the sweep's way: the term values of v, weighed."""
    (values,) = term_values(bq, bp, v, a)
    return quadratic_form(a, values, bq.hbar)


@st.composite
def _observables(draw):
    """A ``_polynomials`` draw, taken raw or as ``a + a^dagger``."""
    a = draw(_polynomials())
    return a + a.adjoint() if draw(st.booleans()) else a


@given(_backend_pairs(), _observables(), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_an_element_the_rule_accepts_realizes_hermitian(pair, a, seed):
    bq, bp = pair
    if not has_hermitian_image(a):
        return
    m = realize(a, bq, bp)
    assert within(hermitian_defect(m), np.max(np.abs(m)), 1e-10)
    # the sweep's reading of a mean against the dense one
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(len(m)) + 1j * rng.standard_normal(len(m))
    got = _form(a, bq, bp, v) / np.vdot(v, v)
    want = vector_mean(v, m)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)


@given(_backend_pairs(), _polynomials(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_apply_of_random_elements_matches_the_realized_product(pair, a, seed):
    bq, bp = pair
    m = realize(a, bq, bp)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(len(m)) + 1j * rng.standard_normal(len(m))
    v /= np.linalg.norm(v)
    tol = 1e-12 * max(1.0, np.abs(m).max())
    av = apply(a, bq, bp, v)
    assert np.max(np.abs(av - m @ v)) <= tol
    # the sweep's weighed term values against the product, image by image the same
    assert abs(_form(a, bq, bp, v) - np.vdot(v, av)) <= tol


@given(_backend_pairs(), _polynomials(), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_apply_to_a_stack_of_vectors_is_apply_to_each(pair, a, seed):
    bq, bp = pair
    rng = np.random.default_rng(seed)
    shape = (2, 3, 2 * bq.dim * bp.dim)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    av = apply(a, bq, bp, v)
    assert av.shape == shape
    assert np.array_equal(av, [[apply(a, bq, bp, x) for x in row] for row in v])


def test_the_rule_decides_from_the_words():
    g = make_generators()
    one = ScalarCoeff.one()
    i = ScalarCoeff({(0, 0): (0, 1)})
    qpq = eval_ncpoly(parse_expr("Q*P*Q"), g.q_qm, g.p_qm)
    coupling = TensorPoly({(1, 0, 0, 1, 0, 1): i})  # i Q (x) P (x) E_qp
    assert has_hermitian_image(eval_ncpoly(parse_expr("Q^8 + P^2*Q^2"), g.q_cm, g.p_cm))
    assert has_hermitian_image(coupling + coupling.adjoint())
    assert not has_hermitian_image(coupling)
    assert not has_hermitian_image(g.q_qm.scale(i))
    # self-adjoint, but the image of a mixed word is not Hermitian on a finite pair
    assert qpq == qpq.adjoint() and not has_hermitian_image(qpq)
    assert not has_hermitian_image(TensorPoly({(1, 1, 0, 0, 0, 0): one}))


@given(st.integers(0, 2**32 - 1), st.booleans(), st.fractions(0, 1, max_denominator=12))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_the_rule_admits_at_every_lam_what_it_admits_with_lam_symbolic(seed, symmetrize, lam):
    # a real lam commutes with conjugation, so the sweep decides the rule
    # once per element, with lam symbolic
    g = make_generators()
    node = random_expr(np.random.default_rng(seed), max_degree=4, max_terms=4)
    a = eval_ncpoly(node, g.q_tilde, g.p_tilde)
    if symmetrize:
        a = a + a.adjoint()
    if has_hermitian_image(a):
        assert has_hermitian_image(substitute_lambda(a, lam))


def test_write_csv_renders_each_column_by_its_values(tmp_path):
    path = tmp_path / "t.csv"
    rows = [
        (0, 0.1, None, "plain", True),
        (12, -0.0, 2.5, 'a, "b"', np.float64(1e-300)),
        (3, 1e20, 7, "x\ny", -1),
    ]
    write_csv(str(path), ["i", "f", "mixed", "text", "any"], rows)
    assert path.read_text(encoding="utf-8") == (
        "i,f,mixed,text,any\n"
        "0,0.1,,plain,True\n"
        '12,-0.0,2.5,"a, ""b""",1e-300\n'
        '3,1e+20,7,"x\ny",-1\n'
    )
    write_csv(str(path), ["only", "header"], [])
    assert path.read_text(encoding="utf-8") == "only,header\n"


def test_defect_terms_keep_p_before_q_unreduced():
    g = make_generators()
    one, i_hbar = ScalarCoeff.one(), ScalarCoeff({(1, 0): (0, 1)})
    # BA - AB + [a, b] of the quantum pair: PQ - QP + i hbar on each sector's
    # factor, with P Q kept as the unreduced word (0, 1, 1, 0)
    assert defect_terms(g.q_qm, g.p_qm) == {
        (0, 0, (0, 1, 1, 0), (0, 0)): one,
        (0, 0, (1, 1), (0, 0)): -one,
        (0, 0, (0, 0), (0, 0)): i_hbar,
        (1, 1, (0, 0), (0, 1, 1, 0)): one,
        (1, 1, (0, 0), (1, 1)): -one,
        (1, 1, (0, 0), (0, 0)): i_hbar,
    }
    # the lam Q (x) P terms of the tilde pair cancel exactly
    assert not any(c.has_lambda for c in defect_terms(g.q_tilde, g.p_tilde).values())
    # letters on different factors commute exactly
    assert defect_terms(g.q_cm, g.p_cm) == {}


def test_commutator_defect_needs_the_weight_only_where_it_stays():
    g = make_generators()
    bq, bp = _pair("fock")
    free = commutator_defect(bq, bp, g.q_tilde, g.p_tilde)
    pair = (x.substitute_lambda(Fraction(1, 3)) for x in (g.q_tilde, g.p_tilde))
    assert free == commutator_defect(bq, bp, *pair)
    with pytest.raises(ValueError, match="symbolic interpolation weight"):
        commutator_defect(bq, bp, g.q_tilde * g.q_tilde, g.p_tilde)


@pytest.mark.parametrize("kind", ["fock", "grid", "fock-grid", "fock-2"])
def test_max_entry_matches_the_realized_matrix(kind):
    g = make_generators()
    bq, bp = _pair(kind)
    half_i = ScalarCoeff({(0, 0): (Fraction(1, 2), Fraction(-3, 4))})
    coupling = TensorPoly({(1, 2, 0, 1, 0, 1): half_i, (0, 0, 2, 0, 1, 0): half_i})
    lam = Fraction(2, 5)
    for a in (
        g.q_tilde.substitute_lambda(lam) - g.q_qm,
        g.p_tilde.substitute_lambda(lam) - g.p_cm,
        g.q_qm + g.p_qm,
        coupling,
        TensorPoly.zero(),
    ):
        assert max_entry(a, bq, bp) == float(np.max(np.abs(realize(a, bq, bp))))


def test_dense_matrices_are_bounded_before_allocation(monkeypatch):
    assert MAX_DENSE_BYTES == 1 << 30  # 1 GiB of complex entries
    g = make_generators()
    b = build_backend("fock", 5, 1.0)  # realizations of dimension 50, blocks of 25
    # the bound counts the 50 x 50 matrix and its 25 x 25 term temporary:
    # exactly their bytes admit the realization, one byte less refuses it
    monkeypatch.setattr(matrep, "MAX_DENSE_BYTES", 16 * (50**2 + 25**2))
    assert realize(g.q_qm, b, b).shape == (50, 50)
    big = build_backend("fock", 6, 1.0)
    with pytest.raises(ValueError, match="a dense 72 x 72 matrix and its 36 x 36 term need"):
        realize(g.q_qm, big, big)
    monkeypatch.setattr(matrep, "MAX_DENSE_BYTES", 16 * (50**2 + 25**2) - 1)
    with pytest.raises(ValueError, match="a dense 50 x 50 matrix and its 25 x 25 term need"):
        realize(g.q_qm, b, b)
    # a defect block with a term on both factors is (N_q N_p) x (N_q N_p),
    # and so is its term temporary
    coupled = TensorPoly({(1, 0, 0, 1, 0, 0): ScalarCoeff.one()})
    monkeypatch.setattr(matrep, "MAX_DENSE_BYTES", 16 * 2 * 25**2)
    commutator_defect(b, b, coupled, g.p_qm)
    with pytest.raises(ValueError, match="a dense 36 x 36 matrix and its 36 x 36 term need"):
        commutator_defect(big, big, coupled, g.p_qm)
    monkeypatch.setattr(matrep, "MAX_DENSE_BYTES", 16 * 2 * 25**2 - 1)
    with pytest.raises(ValueError, match="a dense 25 x 25 matrix and its 25 x 25 term need"):
        commutator_defect(b, b, coupled, g.p_qm)
    # one-factor blocks stay N x N, whatever the bound
    monkeypatch.setattr(matrep, "MAX_DENSE_BYTES", 0)
    commutator_defect(big, big, g.q_tilde, g.p_tilde)


def test_realize_product_needs_the_weight():
    g = make_generators()
    bq, bp = _pair("grid")
    with pytest.raises(ValueError, match="symbolic interpolation weight"):
        realize(g.q_qm * g.p_tilde, bq, bp)


def _unit(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _mean_states(bq, bp, seed):
    """Two lifted states with random weights, and a point state on grid pairs."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(2):
        c_q, c_p = _unit(rng, 2)
        w = WeightSpec(c_q, c_p, a_vec=_unit(rng, bp.dim), b_vec=_unit(rng, bq.dim))
        states.append(lift_qm_eigenstate(_unit(rng, bq.dim), w, psi_p=_unit(rng, bp.dim)))
    if bq.kind == "grid-position" and bp.kind == "grid-momentum":
        c_q, c_p = _unit(rng, 2)
        states.append(cm_point_state(bq, bp, 3, 2, c_q, c_p))
    return states


def _mean_elements():
    """Self-adjoint elements, the tilde pair and two observables with lam
    symbolic, and an element whose terms couple the r-sectors."""
    g = make_generators()
    out = {"q~": g.q_tilde, "p~": g.p_tilde}
    for text in ("(1/2)*(P^2 + Q^2) + (1/10)*Q^4", "Q^8"):
        out[text] = eval_ncpoly(parse_expr(text), g.q_tilde, g.p_tilde)
    # Q^2 (x) P (x) E_qp and P^3 (x) Q^3 (x) E_pq couple the r-sectors
    c = ScalarCoeff({(0, 0): (Fraction(1, 2), Fraction(-3, 4))})
    t = TensorPoly({(2, 0, 0, 1, 0, 1): c, (0, 3, 3, 0, 1, 0): ScalarCoeff.one()})
    out["coupling"] = t + t.adjoint()
    return out


@pytest.mark.parametrize("hbar", [1.0, 0.7])
@pytest.mark.parametrize("kind", ["fock", "grid", "fock-grid"])
def test_quadratic_form_mean_matches_the_realized_mean(kind, hbar):
    bq, bp = _pair(kind, hbar)
    elements = _mean_elements()
    g = make_generators()
    qp = eval_ncpoly(parse_expr("Q*P"), g.q_qm, g.p_qm)
    for v in _mean_states(bq, bp, seed=round(10 * hbar)):
        # one reading, with lam symbolic, serves every lam
        values = dict(zip(elements, term_values(bq, bp, v, *elements.values())))
        for lam in (Fraction(0), Fraction(1, 3), Fraction(1)):
            for name, element in elements.items():
                a = element.substitute_lambda(lam)
                assert a == a.adjoint(), name
                got = quadratic_form(a, values[name], bq.hbar) / np.vdot(v, v)
                want = vector_mean(v, realize(a, bq, bp))
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (name, lam, got, want)
        # the reading is <v|A|v> for any element, mixed words included
        want = np.vdot(v, realize(qp, bq, bp) @ v)
        assert abs(_form(qp, bq, bp, v) - want) <= 1e-12 * max(1.0, abs(want))


def test_a_weighed_element_must_be_free_of_lam():
    bq, bp = _pair("fock")
    g = make_generators()
    v = _mean_states(bq, bp, seed=3)[0]
    (values,) = term_values(bq, bp, v, g.q_tilde)
    with pytest.raises(ValueError, match="lam"):
        quadratic_form(g.q_tilde, values, bq.hbar)


def test_kernel_block_selects_r_entries(tmp_path, capsys):
    # the kernel CSV of E_ij holds the entries with r-row i and r-column j
    config = RunConfig(
        h_values=(0.5,),
        backend_q=BackendSpec(kind="fock", n=3, length=None),
        backend_p=BackendSpec(kind="fock", n=2, length=None),
        observable="Q + 2*P^2 - Q*P*Q",
    )
    assert cmd_kernels(config, str(tmp_path)) == 0
    capsys.readouterr()
    g = make_generators()
    q, p = (a.substitute_lambda(Fraction(1, 2)) for a in (g.q_tilde, g.p_tilde))
    bq, bp = build_backend("fock", 3, 1.0), build_backend("fock", 2, 1.0)
    m = realize(eval_ncpoly(parse_expr(config.observable), q, p), bq, bp)
    blocks = {}
    for i, row in enumerate("qp"):
        for j, col in enumerate("qp"):
            lines = (tmp_path / f"kernel_{row}{col}.csv").read_text().splitlines()
            assert lines[0] == "row,col,re,im" and len(lines) == 1 + 6 * 6
            block = np.zeros((6, 6), dtype=complex)
            for line in lines[1:]:
                r, c, re, im = line.split(",")
                block[int(r), int(c)] = complex(float(re), float(im))
            want = np.array([
                [m[flatten(*divmod(a, 2), i, 3, 2), flatten(*divmod(b, 2), j, 3, 2)] for b in range(6)]
                for a in range(6)
            ])
            np.testing.assert_array_equal(block, want)
            blocks[row + col] = block
    # the tilde pair keeps each r-sector, and lam = 1/2 tells the two apart
    assert not blocks["qp"].any() and not blocks["pq"].any()
    assert np.abs(blocks["qq"] - blocks["pp"]).max() > 0.1


def test_hermitian_defect_values():
    assert hermitian_defect(np.eye(3)) == 0.0
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert hermitian_defect(skew) == pytest.approx(2.0)


def test_spectrum_identity():
    b = build_backend("fock", 4, 1.0)
    m = realize(TensorPoly.identity(), b, b)
    assert spectrum(m) == [(pytest.approx(1.0), 32)]


def test_spectrum_rejects_non_hermitian():
    b = build_backend("fock", 3, 1.0)
    a = TensorPoly({(1, 0, 0, 0, 0, 1): ScalarCoeff.one()})  # Q (x) 1 (x) E_qp
    with pytest.raises(ValueError):
        spectrum(realize(a, b, b))


def test_hermitian_refusals_print_the_bound_applied():
    # entries of 1e7 scale the bound to 1e-10 * 1e7 = 1e-3
    mat = np.diag([1e7] * 4).astype(complex)
    mat[0, 1] = 1e-2
    rho = np.eye(4, dtype=complex)
    for refuse in (lambda: spectrum(mat), lambda: mean_value(rho, mat)):
        with pytest.raises(ValueError, match=r"defect 1\.000e-02 > 1\.000e-03"):
            refuse()
    # Hermitian, and rho_10 A_01 makes the mean 1e7 + 1e-2 i
    mat[1, 0] = 1e-2
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[1, 0] = 1.0, 1j
    with pytest.raises(ValueError, match=r"imaginary part 1\.000e-02 \(> 1\.000e-03\)"):
        mean_value(rho, mat)


def test_oscillator_spectrum_ladder():
    """Realized oscillator energy: lowest levels at hbar*(n + 1/2), each with
    one copy per spectator basis state and selector sector."""
    n = 32
    g = make_generators()
    b = build_backend("fock", n, 1.0)
    node = parse_expr("(1/2)*(P^2 + Q^2)")
    m = realize(eval_ncpoly(node, g.q_qm, g.p_qm), b, b)
    groups = spectrum(m, group_tol=1e-6)
    for level in range(10):
        value, count = groups[level]
        assert value == pytest.approx(level + 0.5, abs=1e-8)
        assert count == 2 * n


def test_oscillator_spectrum_tracks_hbar():
    g = make_generators()
    b = build_backend("fock", 16, 0.5)
    node = parse_expr("(1/2)*(P^2 + Q^2)")
    m = realize(eval_ncpoly(node, g.q_qm, g.p_qm), b, b)
    groups = spectrum(m, group_tol=1e-6)
    assert groups[0][0] == pytest.approx(0.25, abs=1e-10)
    assert groups[1][0] == pytest.approx(0.75, abs=1e-10)


@pytest.mark.parametrize("n", [8, 16])
def test_qm_product_defect_matches_the_dense_product(n):
    """The bulk product defect read from the factors is the masked defect of
    the dense product, on 20 random pairs of degree at most 3."""
    g = make_generators()
    b = build_backend("fock", n, 1.0)
    rng = np.random.default_rng([22, n])
    for _ in range(20):
        a, c = (
            eval_ncpoly(random_expr(rng, max_degree=3, max_terms=3), g.q_qm, g.p_qm)
            for _ in range(2)
        )
        sectors = qm_product_sectors(a, c, b, b, n - 4)
        assert [e for _, _, e in sectors] == [0, 0]  # no factor entry near 2^500
        assert max(d for d, _, _ in sectors) == pytest.approx(
            dense_product_defect(a, c, b, b, n - 4), rel=0, abs=1e-12
        )


@pytest.mark.parametrize("nan_sector", [0, 1])
def test_qm_product_defect_keeps_a_nan_from_either_sector(monkeypatch, nan_sector):
    factors = [np.eye(4), np.eye(4)]
    factors[nan_sector] = np.full((4, 4), np.nan)
    monkeypatch.setattr(matrep, "qm_factors", lambda x, bq, bp: factors)
    b = build_backend("fock", 4, 1.0)
    g = make_generators()
    (d0, s0, _), (d1, s1, _) = qm_product_sectors(g.q_qm, g.p_qm, b, b, 4)
    assert np.isnan([d0, d1][nan_sector]) and np.isnan([s0, s1][nan_sector])
    assert [d0, d1][1 - nan_sector] == 0.0


_FACTOR_PAIRS = {
    "fock": (("fock", 12, None), ("fock", 12, None)),
    "grid": (("grid-position", 7, 6.0), ("grid-momentum", 5, 6.0)),
}


@pytest.mark.parametrize("pair", sorted(_FACTOR_PAIRS))
@pytest.mark.parametrize(
    "text", ["(1/2)*(P^2 + Q^2)", "(1/2)*(P^2 + Q^2) + (1/10)*Q^4"]
)
def test_qm_spectrum_matches_the_dense_spectrum(pair, text):
    g = make_generators()
    bq, bp = (build_backend(kind, n, 0.7, length) for kind, n, length in _FACTOR_PAIRS[pair])
    h = eval_ncpoly(parse_expr(text), g.q_qm, g.p_qm)
    groups, oracle = qm_spectrum(h, bq, bp), dense_spectrum(h, bq, bp)
    assert [m for _, m in groups] == [m for _, m in oracle]
    assert sum(m for _, m in groups) == 2 * bq.dim * bp.dim
    np.testing.assert_allclose(
        [v for v, _ in groups], [v for v, _ in oracle], rtol=0, atol=1e-12
    )


def test_qm_spectrum_refuses_a_non_hermitian_factor():
    b = build_backend("fock", 3, 1.0)
    a = TensorPoly({(1, 1, 0, 0, 0, 0): ScalarCoeff.one()})  # QP (x) 1 (x) E_qq
    with pytest.raises(ValueError, match="not Hermitian"):
        qm_spectrum(a, b, b)


def test_the_hermitian_rule_refuses_a_nan_and_has_no_floor():
    with pytest.raises(ValueError, match=r"defect nan > nan"):
        spectrum(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    # a defect as large as the entries: a bound floored at 1e-10 admitted it
    tiny = 1e-12 * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    rho = np.eye(2, dtype=complex)
    for refuse in (lambda: spectrum(tiny), lambda: mean_value(rho, tiny)):
        with pytest.raises(ValueError, match=r"defect 1\.000e-12 > 1\.000e-22"):
            refuse()


def test_qm_spectrum_refuses_a_non_hermitian_factor_at_small_hbar():
    # Q P on Fock 8 has a Hermitian defect of 7 hbar, below 1e-10 at hbar
    # 1e-14, where a floored bound returned a 128-fold eigenvalue of 3.2e-30
    gens = make_generators()
    b = build_backend("fock", 8, 1e-14)
    with pytest.raises(ValueError, match="not Hermitian"):
        qm_spectrum(eval_ncpoly(parse_expr("Q*P"), gens.q_qm, gens.p_qm), b, b)


@pytest.mark.parametrize(
    "defect, scale",
    [(np.inf, 1.0), (1.0, np.inf), (np.inf, np.inf), (np.nan, 1.0), (0.0, np.nan)],
)
def test_within_fails_a_non_finite_number(defect, scale):
    assert within(defect, scale, 1.0) is False


def test_within_admits_up_to_rtol_times_the_scale_and_at_zero_scale_only_zero():
    assert within(0.5, 2.0, 0.25) is True
    assert within(np.nextafter(0.5, 1.0), 2.0, 0.25) is False
    assert within(0.0, 0.0, 1e-10) is True
    assert within(5e-324, 0.0, 1e-10) is False


def _import_matrix(path):
    """Read ``matrix.bin`` back by its documented layout: column-major
    entries, each two little-endian float64 (real, imaginary), with dims
    from the JSON sidecar.  Returns the matrix and the sidecar."""
    with open(path + ".json", "r", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    dim_q, dim_p, _ = sidecar["dims"]
    n = dim_q * dim_p * 2
    raw = np.fromfile(path, dtype="<f8")
    assert raw.size == 2 * n * n
    return (raw[0::2] + 1j * raw[1::2]).reshape((n, n), order="F"), sidecar


def test_export_import_round_trip(tmp_path):
    g = make_generators()
    b = build_backend("fock", 4, 1.0)
    m = realize(g.q_qm * g.p_qm, b, b)
    path = str(tmp_path / "matrix.bin")
    export_matrix(m, path, {"q": "fock", "p": "fock"}, (4, 4), 1.0)
    again, sidecar = _import_matrix(path)
    np.testing.assert_allclose(again, m, atol=0)
    assert sidecar["ordering"] == ORDERING
    assert sidecar["hbar"] == 1.0
    assert sidecar["dims"] == [4, 4, 2]


def test_export_kernel_csv_layout(tmp_path):
    b = build_backend("fock", 2, 1.0)
    a = TensorPoly({(0, 1, 0, 0, 1, 0): ScalarCoeff.one()})  # P (x) 1 (x) E_pq
    m = realize(a, b, b)
    block = m[1::2, 0::2]  # the (p, q) r-block
    path = str(tmp_path / "block.csv")
    export_kernel_csv(block, path)
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0] == "row,col,re,im"
    assert len(lines) == 1 + block.shape[0] * block.shape[1]
    # block = kron(Pmat, I): entry P[0,1] = -i/sqrt(2) sits at (row 0, col 2)
    entry = lines[1 + 0 * block.shape[1] + 2].split(",")
    assert entry[:2] == ["0", "2"]
    assert float(entry[3]) == pytest.approx(-1.0 / np.sqrt(2.0))
    assert float(entry[2]) == 0.0


def test_format_float_is_repr():
    assert format_float(0.1) == "0.1"
    assert format_float(1.0) == "1.0"
    assert format_float(np.float64(2.5)) == "2.5"


def test_realized_matrix_is_frozen():
    b = build_backend("fock", 3, 1.0)
    m = realize(TensorPoly.identity(), b, b)
    with pytest.raises(ValueError):
        m[0, 0] = 2.0
