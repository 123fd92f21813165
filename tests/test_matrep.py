"""Finite-dimensional backends and the realization of algebra elements."""

import json
from fractions import Fraction

import numpy as np
import pytest

from qclab.matrep import (
    ORDERING,
    build_backend,
    commutator_defect,
    export_kernel_csv,
    export_matrix,
    flatten,
    format_float,
    hermitian_defect,
    import_matrix,
    kernel_block,
    realize,
    realize_product,
    spectrum,
    unflatten,
)
from qclab.ncpoly import TensorPoly, eval_ncpoly, make_generators
from qclab.expr import parse_expr
from qclab.scalars import ComplexRational, ScalarCoeff


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
    for iq in range(3):
        for ip in range(5):
            for ir in range(2):
                flat = flatten(iq, ip, ir, 3, 5)
                assert flat == (iq * 5 + ip) * 2 + ir
                assert unflatten(flat, 3, 5) == (iq, ip, ir)


def test_flat_index_range_checks():
    with pytest.raises(ValueError):
        flatten(3, 0, 0, 3, 5)
    with pytest.raises(ValueError):
        flatten(0, 0, 2, 3, 5)
    with pytest.raises(ValueError):
        unflatten(30, 3, 5)


def test_realize_identity():
    b = build_backend("fock", 3, 1.0)
    m = realize(TensorPoly.identity(), b, b)
    np.testing.assert_allclose(m.data, np.eye(18), atol=0)
    assert m.dim == 18
    assert m.ordering == ORDERING


def test_realize_commuting_pair_is_diagonal_on_grids():
    g = make_generators()
    bq = build_backend("grid-position", 4, 1.0, 4.0)
    bp = build_backend("grid-momentum", 4, 1.0, 4.0)
    mq = realize(g.q_cm, bq, bp)
    mp = realize(g.p_cm, bq, bp)
    assert np.max(np.abs(mq.data - np.diag(np.diag(mq.data)))) == 0.0
    assert np.max(np.abs(mp.data - np.diag(np.diag(mp.data)))) == 0.0
    # entry for (i_q, i_p, i_r) holds q_{i_q} and p_{i_p} respectively
    for iq in range(4):
        for ip in range(4):
            for ir in range(2):
                flat = flatten(iq, ip, ir, 4, 4)
                assert mq.data[flat, flat] == bq.basis_labels[iq]
                assert mp.data[flat, flat] == bp.basis_labels[ip]


def test_realize_respects_kron_order():
    # A = Q (x) 1 (x) E_qq must equal np.kron(Qmat, np.kron(I, E_qq))
    b = build_backend("fock", 3, 1.0)
    a = TensorPoly({(1, 0, 0, 0, 0, 0): ScalarCoeff.one()})
    m = realize(a, b, b)
    e_qq = np.array([[1.0, 0.0], [0.0, 0.0]])
    expected = np.kron(np.asarray(b.qmat), np.kron(np.eye(3), e_qq))
    np.testing.assert_allclose(m.data, expected, atol=0)


def test_realize_interpolating_pair_needs_weight():
    g = make_generators()
    b = build_backend("fock", 4, 1.0)
    with pytest.raises(ValueError):
        realize(g.q_tilde, b, b)
    m0 = realize(g.q_tilde, b, b, lam=0)
    m_qm = realize(g.q_qm, b, b)
    np.testing.assert_allclose(m0.data, m_qm.data, atol=0)


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
    rhs = realize(a1, b, b).data + 3 * realize(a2, b, b).data
    np.testing.assert_allclose(lhs.data, rhs, atol=1e-13)


def _pair(kind, hbar=1.0):
    if kind == "fock":
        return build_backend("fock", 5, hbar), build_backend("fock", 7, hbar)
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
    half_i = ScalarCoeff({(0, 0): ComplexRational.of(Fraction(1, 2), Fraction(-3, 4))})
    qpq = eval_ncpoly(parse_expr("Q*P*Q"), g.q_qm, g.p_qm)
    # Q P^2 (x) P (x) E_qp and 1 (x) Q^2 (x) E_pq couple the r-sectors
    coupling = TensorPoly({(1, 2, 0, 1, 0, 1): half_i, (0, 0, 2, 0, 1, 0): one})
    return {
        "qm-pair": (g.q_qm, g.p_qm, None),
        "mixed-word": (qpq, g.p_qm + g.q_qm, None),
        "r-coupling": (coupling, g.q_tilde * g.p_tilde, Fraction(2, 5)),
        "coupling-squared": (coupling, coupling.adjoint(), None),
        "tilde-lam": (g.q_tilde, g.p_tilde, Fraction(1, 3)),
        "tilde-cm-end": (g.p_tilde * g.p_tilde, g.q_tilde, Fraction(1)),
    }


@pytest.mark.parametrize("hbar", [1.0, 0.7])
@pytest.mark.parametrize("kind", ["fock", "grid"])
@pytest.mark.parametrize("case", sorted(_product_cases()))
def test_realize_product_matches_the_dense_product(kind, hbar, case):
    a, b, lam = _product_cases()[case]
    bq, bp = _pair(kind, hbar)
    want = realize(a, bq, bp, lam=lam).data @ realize(b, bq, bp, lam=lam).data
    got = realize_product(a, b, bq, bp, lam=lam)
    assert got.shape == (70, 70)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_realize_product_adds_into_out():
    g = make_generators()
    bq, bp = _pair("fock")
    base = realize(g.identity, bq, bp).data
    out = np.array(base)
    assert realize_product(g.q_qm, g.p_qm, bq, bp, out=out) is out
    want = base + realize(g.q_qm, bq, bp).data @ realize(g.p_qm, bq, bp).data
    assert np.max(np.abs(out - want)) <= 1e-12


def test_realize_product_needs_the_weight():
    g = make_generators()
    bq, bp = _pair("grid")
    with pytest.raises(ValueError, match="symbolic interpolation weight"):
        realize_product(g.q_qm, g.p_tilde, bq, bp)


def test_kernel_block_selects_r_entries():
    b = build_backend("fock", 3, 1.0)
    a = TensorPoly({(1, 0, 0, 0, 0, 1): ScalarCoeff.one()})  # Q (x) 1 (x) E_qp
    m = realize(a, b, b)
    qp = kernel_block(m, "q", "p")
    np.testing.assert_allclose(qp, np.kron(np.asarray(b.qmat), np.eye(3)), atol=0)
    assert np.max(np.abs(kernel_block(m, "q", "q"))) == 0.0
    assert np.max(np.abs(kernel_block(m, "p", "q"))) == 0.0
    assert np.max(np.abs(kernel_block(m, "p", "p"))) == 0.0


def test_kernel_block_accepts_integer_indices():
    b = build_backend("fock", 2, 1.0)
    m = realize(TensorPoly.identity(), b, b)
    np.testing.assert_allclose(kernel_block(m, 0, 0), np.eye(4), atol=0)
    with pytest.raises(ValueError):
        kernel_block(m, "x", "q")


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


def test_export_import_round_trip(tmp_path):
    g = make_generators()
    b = build_backend("fock", 4, 1.0)
    m = realize(g.q_qm * g.p_qm, b, b)
    path = str(tmp_path / "matrix.bin")
    export_matrix(m, path, {"q": "fock", "p": "fock"}, 1.0)
    again = import_matrix(path)
    np.testing.assert_allclose(again.data, m.data, atol=0)
    assert again.dim_q == 4 and again.dim_p == 4
    assert again.ordering == ORDERING
    with open(path + ".json", "r", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    assert sidecar["hbar"] == 1.0
    assert sidecar["dims"] == [4, 4, 2]


def test_export_kernel_csv_layout(tmp_path):
    b = build_backend("fock", 2, 1.0)
    a = TensorPoly({(0, 1, 0, 0, 1, 0): ScalarCoeff.one()})  # P (x) 1 (x) E_pq
    m = realize(a, b, b)
    block = kernel_block(m, "p", "q")
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
        m.data[0, 0] = 2.0
