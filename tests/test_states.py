"""Lifted eigenstates, classical point and mixed states, and mean values."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from qclab.dynamics import PhaseSpaceDensity
from qclab.expr import parse_expr
from qclab.matrep import build_backend, realize
from qclab.ncpoly import eval_ncpoly, make_generators
from qclab.states import (
    StateReport,
    WeightSpec,
    cm_mixed_density,
    cm_point_state,
    coherent_state,
    factor_packet,
    gaussian_grid_state,
    lift_qm_eigenstate,
    mean_value,
    validate_state,
)

from matrix_oracle import flatten

GENS = make_generators()
OSC = parse_expr("(1/2)*(P^2 + Q^2)")


def fock_level(n: int, level: int) -> np.ndarray:
    vec = np.zeros(n, dtype=complex)
    vec[level] = 1.0
    return vec


def outer(vec: np.ndarray) -> np.ndarray:
    """The pure density of a vector state."""
    return np.outer(vec, vec.conj())


def test_weight_spec_default_is_valid():
    w = WeightSpec.default(4, 6)
    w.validate()
    assert w.a_vec.shape == (6,)
    assert w.b_vec.shape == (4,)
    assert abs(w.c_q) ** 2 + abs(w.c_p) ** 2 == pytest.approx(1.0)


def test_weight_spec_rejects_bad_weights():
    w = WeightSpec(
        c_q=1.0, c_p=1.0,
        a_vec=np.array([1.0 + 0j]), b_vec=np.array([1.0 + 0j]),
    )
    with pytest.raises(ValueError):
        w.validate()


def test_weight_spec_rejects_unnormalized_padding():
    w = WeightSpec(
        c_q=1.0, c_p=0.0,
        a_vec=np.array([2.0 + 0j]), b_vec=np.array([1.0 + 0j]),
    )
    with pytest.raises(ValueError):
        w.validate()


def test_lift_produces_unit_vector():
    psi = fock_level(8, 2)
    state = lift_qm_eigenstate(psi, WeightSpec.default(8, 8))
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)
    assert state.shape == (8 * 8 * 2,)


def test_lift_is_hamiltonian_eigenvector():
    n = 16
    b = build_backend("fock", n, 1.0)
    h_mat = realize(eval_ncpoly(OSC, GENS.q_qm, GENS.p_qm), b, b)
    for level in (0, 1, 4):
        state = lift_qm_eigenstate(fock_level(n, level), WeightSpec.default(n, n))
        resid = h_mat @ state - (level + 0.5) * state
        assert np.max(np.abs(resid)) < 1e-12, level
        assert mean_value(outer(state), h_mat) == pytest.approx(level + 0.5, abs=1e-12)


def test_lift_pure_q_branch():
    # c_q = 1 puts the whole state in the first selector sector
    n = 4
    w = WeightSpec(
        c_q=1.0, c_p=0.0,
        a_vec=np.eye(n, dtype=complex)[0], b_vec=np.eye(n, dtype=complex)[0],
    )
    state = lift_qm_eigenstate(fock_level(n, 1), w)
    for iq in range(n):
        for ip in range(n):
            assert state[flatten(iq, ip, 1, n, n)] == 0.0
    assert state[flatten(1, 0, 0, n, n)] == 1.0


def test_lift_respects_mixed_representations():
    bq = build_backend("grid-position", 16, 1.0, 12.0)
    bp = build_backend("grid-momentum", 16, 1.0, 12.0)
    psi_q = gaussian_grid_state(bq, 0.5, -0.25)
    psi_p = gaussian_grid_state(bp, 0.5, -0.25)
    state = lift_qm_eigenstate(psi_q, WeightSpec.default(16, 16), psi_p=psi_p)
    q_mat = realize(GENS.q_qm, bq, bp)
    p_mat = realize(GENS.p_qm, bq, bp)
    assert mean_value(outer(state), q_mat) == pytest.approx(0.5, abs=1e-3)
    assert mean_value(outer(state), p_mat) == pytest.approx(-0.25, abs=1e-3)


def test_lift_rejects_unnormalized_input():
    with pytest.raises(ValueError):
        lift_qm_eigenstate(2.0 * fock_level(4, 0), WeightSpec.default(4, 4))


def test_lift_rejects_wrong_padding_shape():
    with pytest.raises(ValueError):
        lift_qm_eigenstate(fock_level(4, 0), WeightSpec.default(6, 6))


def test_cm_point_state_is_joint_eigenvector():
    bq = build_backend("grid-position", 8, 1.0, 8.0)
    bp = build_backend("grid-momentum", 8, 1.0, 8.0)
    state = cm_point_state(bq, bp, 2, 5, 0.6, 0.8)
    f = parse_expr("Q^2 + P^2")
    m = realize(eval_ncpoly(f, GENS.q_cm, GENS.p_cm), bq, bp)
    expected = bq.basis_labels[2] ** 2 + bp.basis_labels[5] ** 2
    resid = m @ state - expected * state
    assert np.max(np.abs(resid)) == 0.0
    assert mean_value(outer(state), m) == pytest.approx(expected, abs=1e-12)


def test_cm_point_state_requires_grid_backends():
    bf = build_backend("fock", 8, 1.0)
    bp = build_backend("grid-momentum", 8, 1.0, 8.0)
    with pytest.raises(ValueError):
        cm_point_state(bf, bp, 0, 0, 1.0, 0.0)
    bq = build_backend("grid-position", 8, 1.0, 8.0)
    with pytest.raises(ValueError):
        cm_point_state(bq, bq, 0, 0, 1.0, 0.0)


def test_cm_point_state_index_bounds():
    bq = build_backend("grid-position", 8, 1.0, 8.0)
    bp = build_backend("grid-momentum", 8, 1.0, 8.0)
    with pytest.raises(ValueError):
        cm_point_state(bq, bp, 8, 0, 1.0, 0.0)
    with pytest.raises(ValueError):
        cm_point_state(bq, bp, 0, -1, 1.0, 0.0)


def test_cm_point_state_rejects_bad_weights():
    bq = build_backend("grid-position", 8, 1.0, 8.0)
    bp = build_backend("grid-momentum", 8, 1.0, 8.0)
    with pytest.raises(ValueError):
        cm_point_state(bq, bp, 0, 0, 1.0, 1.0)


def uniform_density(n: int, length: float) -> PhaseSpaceDensity:
    d = length / n
    grid = np.full((n, n), 1.0 / length**2)
    return PhaseSpaceDensity(
        grid=grid, dq=d, dp=d, extent=(-length / 2, length / 2, -length / 2, length / 2)
    )


def test_cm_mixed_density_uniform_mean():
    bq = build_backend("grid-position", 8, 1.0, 8.0)
    bp = build_backend("grid-momentum", 8, 1.0, 8.0)
    rho = cm_mixed_density(uniform_density(8, 8.0), 0.6, 0.8)
    # uniform distribution: <Q> is the plain average of the sample values
    q_mat = realize(GENS.q_cm, bq, bp)
    assert mean_value(rho, q_mat) == pytest.approx(float(np.mean(bq.basis_labels)))


def test_cm_mixed_density_point_mass_matches_pure_state():
    n, length = 8, 8.0
    bq = build_backend("grid-position", n, 1.0, length)
    bp = build_backend("grid-momentum", n, 1.0, length)
    d = length / n
    grid = np.zeros((n, n))
    grid[2, 5] = 1.0 / (d * d)
    rho_cl = PhaseSpaceDensity(
        grid=grid, dq=d, dp=d, extent=(-4.0, 4.0, -4.0, 4.0)
    )
    mixed = cm_mixed_density(rho_cl, 0.6, 0.8)
    pure = outer(cm_point_state(bq, bp, 2, 5, 0.6, 0.8))
    assert np.max(np.abs(mixed - pure)) < 1e-15
    f = parse_expr("Q*P")
    m = realize(eval_ncpoly(f, GENS.q_cm, GENS.p_cm), bq, bp)
    assert mean_value(mixed, m) == pytest.approx(
        bq.basis_labels[2] * bp.basis_labels[5], abs=1e-12
    )


def test_cm_mixed_density_gaussian_mean():
    n, length = 32, 16.0
    bq = build_backend("grid-position", n, 1.0, length)
    bp = build_backend("grid-momentum", n, 1.0, length)
    rho_cl = PhaseSpaceDensity.gaussian(
        n, n, length, length, 1.0, -0.5, 0.9, 1.1
    )
    rho = cm_mixed_density(rho_cl, 1.0 / np.sqrt(2), 1.0 / np.sqrt(2))
    q_mat = realize(GENS.q_cm, bq, bp)
    p_mat = realize(GENS.p_cm, bq, bp)
    assert mean_value(rho, q_mat) == pytest.approx(1.0, abs=1e-10)
    assert mean_value(rho, p_mat) == pytest.approx(-0.5, abs=1e-10)


def test_cm_mixed_density_rejects_bad_input():
    with pytest.raises(ValueError):
        cm_mixed_density(uniform_density(8, 8.0), 1.0, 1.0)
    bad = uniform_density(8, 8.0)
    bad.grid[0, 0] = -0.5
    with pytest.raises(ValueError):
        cm_mixed_density(bad, 1.0, 0.0)


def test_mean_value_scale_invariance():
    n, length = 8, 8.0
    bq = build_backend("grid-position", n, 1.0, length)
    bp = build_backend("grid-momentum", n, 1.0, length)
    rho_cl = PhaseSpaceDensity.gaussian(n, n, length, length, 0.5, 0.0, 1.0, 1.0)
    rho = cm_mixed_density(rho_cl, 1.0, 0.0)
    m = realize(eval_ncpoly(OSC, GENS.q_cm, GENS.p_cm), bq, bp)
    base = mean_value(rho, m)
    for c in (1e-6, 7.0, 1e6):
        assert mean_value(c * rho, m) == pytest.approx(base, rel=1e-12)


def test_mean_value_identity_is_one():
    b = build_backend("fock", 6, 1.0)
    from qclab.ncpoly import TensorPoly

    ident = realize(TensorPoly.identity(), b, b)
    state = lift_qm_eigenstate(fock_level(6, 2), WeightSpec.default(6, 6))
    assert mean_value(outer(state), ident) == pytest.approx(1.0, abs=1e-14)


def test_mean_value_rejects_non_hermitian_observable():
    b = build_backend("fock", 4, 1.0)
    m = realize(GENS.q_qm * GENS.p_qm, b, b)
    state = lift_qm_eigenstate(fock_level(4, 0), WeightSpec.default(4, 4))
    with pytest.raises(ValueError, match="not Hermitian"):
        mean_value(outer(state), m)


def test_mean_value_rejects_zero_state():
    b = build_backend("fock", 4, 1.0)
    from qclab.ncpoly import TensorPoly

    ident = realize(TensorPoly.identity(), b, b)
    zero = np.zeros((32, 32), dtype=complex)
    with pytest.raises(ValueError, match="zero trace"):
        mean_value(zero, ident)


def test_validate_state_accepts_physical_density():
    state = lift_qm_eigenstate(fock_level(6, 1), WeightSpec.default(6, 6))
    report = validate_state(outer(state))
    assert report.passed
    assert report.hermitian_defect < 1e-14
    assert report.trace == pytest.approx(1.0)


def test_validate_state_flags_negative_eigenvalue():
    state = lift_qm_eigenstate(fock_level(4, 0), WeightSpec.default(4, 4))
    rho = outer(state)
    report = validate_state(rho - 1e-4 * np.eye(rho.shape[0]))
    assert not report.passed
    assert report.min_eigenvalue < -1e-5


@pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
def test_validate_state_passes_any_multiple_of_a_density(c):
    # the thresholds scale with the trace: at c = 1e12 the smallest
    # eigenvalue's roundoff is -9.5e-7, which a fixed -1e-10 refused
    rho = PhaseSpaceDensity.gaussian(8, 8, 8.0, 8.0, 0.0, 0.0, 1.2, 1.2)
    assert validate_state(c * cm_mixed_density(rho, 0.6, 0.8j)).passed


def test_coherent_state_statistics():
    alpha = 0.5 - 0.25j
    vec = coherent_state(48, alpha)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)
    n_op = np.arange(48)
    assert float(np.sum(n_op * np.abs(vec) ** 2)) == pytest.approx(
        abs(alpha) ** 2, abs=1e-12
    )


def test_coherent_state_position_mean():
    hbar = 1.0
    b = build_backend("fock", 32, hbar)
    q0, p0 = 1.0, -0.5
    alpha = (q0 + 1j * p0) / np.sqrt(2 * hbar)
    vec = coherent_state(32, alpha)
    q_mean = float(np.real(vec.conj() @ np.asarray(b.qmat) @ vec))
    p_mean = float(np.real(vec.conj() @ np.asarray(b.pmat) @ vec))
    assert q_mean == pytest.approx(q0, abs=1e-10)
    assert p_mean == pytest.approx(p0, abs=1e-10)


def test_gaussian_grid_state_moments():
    b = build_backend("grid-position", 64, 1.0, 16.0)
    psi = gaussian_grid_state(b, 1.0, 0.5)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    q_mean = float(np.real(psi.conj() @ np.asarray(b.qmat) @ psi))
    p_mean = float(np.real(psi.conj() @ np.asarray(b.pmat) @ psi))
    assert q_mean == pytest.approx(1.0, abs=1e-8)
    assert p_mean == pytest.approx(0.5, abs=1e-8)


def test_gaussian_momentum_grid_state_moments():
    b = build_backend("grid-momentum", 64, 1.0, 16.0)
    phi = gaussian_grid_state(b, 1.0, 0.5)
    q_mean = float(np.real(phi.conj() @ np.asarray(b.qmat) @ phi))
    p_mean = float(np.real(phi.conj() @ np.asarray(b.pmat) @ phi))
    assert p_mean == pytest.approx(0.5, abs=1e-8)
    assert q_mean == pytest.approx(1.0, abs=1e-8)


def test_grid_and_fock_coherent_states_agree_on_energy():
    hbar = 1.0
    bg = build_backend("grid-position", 64, hbar, 16.0)
    bf = build_backend("fock", 32, hbar)
    node = OSC
    from matrix_oracle import evaluate_matrix

    psi = gaussian_grid_state(bg, 1.0, 0.0)
    vec = coherent_state(32, 1.0 / np.sqrt(2))
    e_grid = float(
        np.real(
            psi.conj()
            @ evaluate_matrix(node, np.asarray(bg.qmat), np.asarray(bg.pmat))
            @ psi
        )
    )
    e_fock = float(
        np.real(
            vec.conj()
            @ evaluate_matrix(node, np.asarray(bf.qmat), np.asarray(bf.pmat))
            @ vec
        )
    )
    assert e_grid == pytest.approx(e_fock, abs=1e-6)
    assert e_fock == pytest.approx(1.0, abs=1e-12)


NAN = float("nan")


@pytest.mark.parametrize(
    "refuse",
    [
        lambda: WeightSpec(NAN, 0.0, np.ones(1), np.ones(1)).validate(),
        lambda: WeightSpec(1.0, 0.0, np.array([NAN]), np.ones(1)).validate(),
        lambda: WeightSpec(1.0, 0.0, np.ones(1), np.array([NAN])).validate(),
        lambda: lift_qm_eigenstate(np.full(4, NAN), WeightSpec.default(4, 4)),
        lambda: lift_qm_eigenstate(
            fock_level(4, 0), WeightSpec.default(4, 4), psi_p=np.full(4, NAN)
        ),
        lambda: cm_point_state(
            build_backend("grid-position", 4, 1.0, 4.0),
            build_backend("grid-momentum", 4, 1.0, 4.0), 0, 0, NAN, 1.0,
        ),
    ],
    ids=["c_q", "a_vec", "b_vec", "psi", "psi_p", "point-weights"],
)
def test_a_nan_fails_every_normalization_check(refuse):
    with pytest.raises(ValueError, match="nan"):
        refuse()


@pytest.mark.parametrize(
    "entry, dq, message",
    [(NAN, 1.0, "negative or NaN entries"), (1.0 / 64, NAN, "unit mass")],
    ids=["nan-entry", "nan-spacing"],
)
def test_a_nan_grid_fails_both_density_checks(entry, dq, message):
    grid = np.full((8, 8), 1.0 / 64)
    grid[0, 0] = entry
    with pytest.raises(ValueError, match=message):
        PhaseSpaceDensity(grid, dq, 1.0, (8.0, 8.0))
    with pytest.raises(ValueError, match=message):
        cm_mixed_density(SimpleNamespace(grid=grid, dq=dq, dp=1.0), 1.0, 0.0)


def test_a_nan_mean_is_refused():
    b = build_backend("fock", 4, 1.0)
    ident = realize(GENS.identity, b, b)
    rho = outer(lift_qm_eigenstate(fock_level(4, 0), WeightSpec.default(4, 4)))
    rho[0, 0] = NAN
    with pytest.raises(ValueError, match="mean value is not finite"):
        mean_value(rho, ident)
    nan_obs = np.array(ident)
    nan_obs[0, 0] = NAN
    with pytest.raises(ValueError, match="not Hermitian"):
        mean_value(outer(lift_qm_eigenstate(fock_level(4, 0), WeightSpec.default(4, 4))), nan_obs)


@pytest.mark.parametrize(
    "report",
    [StateReport(NAN, 0.0, 1.0), StateReport(0.0, NAN, 1.0), StateReport(0.0, 0.0, NAN)],
    ids=["defect", "min-eigenvalue", "trace"],
)
def test_a_nan_in_the_state_report_fails_it(report):
    assert not report.passed


@pytest.mark.parametrize(
    "kind, sigma",
    [
        *((kind, sigma) for kind in ("grid-position", "grid-momentum") for sigma in (1e-170, 1e-300, 1e200)),
        # finite, but a packet this narrow (sigma on the position grid,
        # 1/(2 sigma) on the momentum grid) underflows to zero off the
        # grid points; the spacing is 0.5
        ("grid-position", 1e-3),
        ("grid-momentum", 1e3),
    ],
)
def test_a_packet_that_samples_to_nothing_finite_is_refused(kind, sigma):
    b = build_backend(kind, 8, 1.0, 4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="is not finite or has zero norm"):
            gaussian_grid_state(b, 0.2, 0.2, sigma)


def test_an_overflowing_coherent_state_is_refused():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="on 8 levels is not finite"):
            coherent_state(8, 1e300)
    assert np.linalg.norm(coherent_state(8, 2.0 - 1.0j)) == pytest.approx(1.0, abs=1e-14)


def test_the_fock_packet_is_the_coherent_state_whatever_sigma():
    b = build_backend("fock", 12, 0.5)
    alpha = (0.4 + 0.3j) / np.sqrt(2.0 * 0.5)
    packet = factor_packet(b, 0.4, 0.3)
    assert np.array_equal(packet, coherent_state(12, alpha))
    assert np.array_equal(factor_packet(b, 0.4, 0.3, 0.3), packet)


def test_the_grid_packet_takes_sigma_and_the_coherent_width_by_default():
    b = build_backend("grid-position", 16, 0.5, 8.0)
    assert np.array_equal(factor_packet(b, 0.4, 0.3), gaussian_grid_state(b, 0.4, 0.3, 0.5))
    assert not np.allclose(factor_packet(b, 0.4, 0.3, 0.3), factor_packet(b, 0.4, 0.3))
