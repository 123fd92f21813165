"""Endpoint dynamics: bracket transport, unitary evolution, and the
oscillator comparison harness."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qclab import dynamics as dyn
from qclab.expr import differentiate, parse_expr
from qclab.matrep import build_backend, qm_factors, realize
from qclab.ncpoly import TensorPoly, eval_ncpoly, make_generators
from qclab.scalars import ScalarCoeff
from qclab.states import WeightSpec, coherent_state, lift_qm_eigenstate

GENS = make_generators()
OSC = "(1/2)*(P^2 + Q^2)"


def centered_gaussian(n=64, length=16.0, q0=1.0, p0=0.0):
    s = np.sqrt(0.5)
    return dyn.PhaseSpaceDensity.gaussian(n, n, length, length, q0, p0, s, s)


def test_phase_space_density_mass():
    rho = centered_gaussian()
    assert rho.mass() == pytest.approx(1.0, abs=1e-12)
    assert rho.n_q == 64 and rho.n_p == 64
    assert rho.q_values[0] == -8.0


def test_phase_space_density_validation():
    with pytest.raises(ValueError):
        dyn.PhaseSpaceDensity(
            grid=np.ones((4, 3)), dq=1.0, dp=1.0, extent=(0, 4, 0, 4)
        )


def test_spectral_derivative_of_sine():
    n, length = 64, 2.0 * np.pi
    x = np.linspace(0, length, n, endpoint=False)
    d = dyn.spectral_derivative(np.sin(x), length / n, axis=0)
    np.testing.assert_allclose(d, np.cos(x), atol=1e-12)


def test_spectral_derivative_kills_nyquist():
    n = 8
    alternating = np.array([1.0, -1.0] * (n // 2))
    d = dyn.spectral_derivative(alternating, 0.5, axis=0)
    np.testing.assert_allclose(d, 0.0, atol=1e-13)


def poisson_bracket(hgrid, rho, dh_dq=None, dh_dp=None):
    """Bracket {h, rho} on the periodic grid, as ``liouville_evolve`` applies it.

    By default both partials of h are spectral, like the density's.
    """
    hgrid = np.asarray(hgrid, dtype=float)
    if hgrid.shape != rho.grid.shape:
        raise ValueError(f"grid mismatch: h {hgrid.shape} vs rho {rho.grid.shape}")
    d_q, d_p_t = dyn._differentiation_matrices(rho)
    if dh_dq is None:
        dh_dq = d_q @ hgrid
    if dh_dp is None:
        dh_dp = hgrid @ d_p_t
    return dyn._bracket(
        np.broadcast_to(dh_dq, hgrid.shape),
        np.broadcast_to(dh_dp, hgrid.shape),
        rho.grid,
        d_q,
        d_p_t,
    )


def test_poisson_bracket_constant_h_vanishes():
    rho = centered_gaussian(n=32)
    out = poisson_bracket(np.ones_like(rho.grid), rho)
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_poisson_bracket_h_equals_q():
    # {q, rho} = -d rho / dp; compare against the analytic partial
    n, length = 64, 16.0
    rho = centered_gaussian(n=n, length=length, q0=0.0, p0=0.0)
    qm, pm = np.meshgrid(rho.q_values, rho.p_values, indexing="ij")
    out = poisson_bracket(qm, rho, dh_dq=np.ones_like(qm), dh_dp=np.zeros_like(qm))
    sigma2 = 0.5
    analytic = -rho.grid * (-pm / sigma2)
    np.testing.assert_allclose(out, -analytic, atol=1e-8)


def fft_bracket(dh_dq, dh_dp, rho):
    """The bracket from the defining DFT derivative, one FFT pair per axis."""
    drho_dq = dyn.spectral_derivative(rho.grid, rho.dq, axis=0)
    drho_dp = dyn.spectral_derivative(rho.grid, rho.dp, axis=1)
    return dh_dq * drho_dp - dh_dp * drho_dq


@pytest.mark.parametrize(
    "shape",
    [(16, 16), (15, 15), (12, 17), (17, 12)],
    ids=["even", "odd", "nq-lt-np", "nq-gt-np"],
)
def test_matrix_bracket_matches_fft_bracket(shape):
    rng = np.random.default_rng(sum(shape))
    n_q, n_p = shape
    length_q, length_p = 7.0, 9.0
    dq, dp = length_q / n_q, length_p / n_p
    grid = rng.uniform(0.0, 1.0, shape)
    grid /= grid.sum() * dq * dp
    rho = dyn.PhaseSpaceDensity(grid, dq, dp, (length_q, length_p))
    dh_dq, dh_dp = rng.normal(size=shape), rng.normal(size=shape)
    expected = fft_bracket(dh_dq, dh_dp, rho)
    out = poisson_bracket(np.zeros(shape), rho, dh_dq=dh_dq, dh_dp=dh_dp)
    assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()
    # default partials of h are the same spectral derivative
    hgrid = rng.normal(size=shape)
    expected = fft_bracket(
        dyn.spectral_derivative(hgrid, rho.dq, axis=0),
        dyn.spectral_derivative(hgrid, rho.dp, axis=1),
        rho,
    )
    out = poisson_bracket(hgrid, rho)
    assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()


def test_poisson_bracket_shape_mismatch():
    rho = centered_gaussian(n=16)
    with pytest.raises(ValueError):
        poisson_bracket(np.ones((8, 8)), rho)


def test_liouville_oscillator_rotates_means():
    # mean coordinate follows cos(t) under the quadratic flow
    t_final = np.pi / 2.0
    steps = 1571
    rho0 = centered_gaussian()
    traj = dyn.liouville_evolve(
        rho0, OSC, t_final / steps, steps, record_stride=steps
    )
    assert traj.times[-1] == pytest.approx(t_final)
    assert traj.mean_q[-1] == pytest.approx(np.cos(t_final), abs=1e-6)
    assert traj.mean_p[-1] == pytest.approx(-np.sin(t_final), abs=1e-6)
    assert traj.mean_q[0] == pytest.approx(1.0, abs=1e-10)


def test_liouville_conserves_mass_and_energy():
    rho0 = centered_gaussian()
    traj = dyn.liouville_evolve(rho0, OSC, 1e-3, 400, record_stride=100)
    assert traj.drift() < 1e-10
    energies = traj.mean_energy
    assert max(abs(e - energies[0]) for e in energies) < 1e-8


def test_liouville_density_stays_nonnegative():
    rho0 = centered_gaussian()
    traj = dyn.liouville_evolve(rho0, OSC, 1e-3, 400, record_stride=100)
    assert min(traj.extras["min_entry"]) > -1e-6


def test_liouville_free_particle_moves_at_momentum():
    rho0 = centered_gaussian(q0=0.0, p0=1.0)
    traj = dyn.liouville_evolve(rho0, "(1/2)*P^2", 1e-3, 500, record_stride=100)
    assert max(abs(p - traj.mean_p[0]) for p in traj.mean_p) < 1e-10
    assert traj.mean_q[-1] - traj.mean_q[0] == pytest.approx(0.5, abs=1e-6)


def test_liouville_rejects_bad_steps():
    rho0 = centered_gaussian(n=16)
    with pytest.raises(ValueError):
        dyn.liouville_evolve(rho0, OSC, 1e-3, 0)
    with pytest.raises(ValueError):
        dyn.liouville_evolve(rho0, OSC, -1e-3, 10)
    with pytest.raises(ValueError):
        dyn.liouville_evolve(rho0, OSC, 1e-3, 10, record_stride=0)


def test_liouville_warns_when_flow_reaches_boundary():
    # a quartic term flings the far tail across the momentum boundary
    rho0 = centered_gaussian()
    with pytest.warns(RuntimeWarning, match="boundary ring"):
        dyn.liouville_evolve(
            rho0, OSC + " + (1/10)*Q^4", 1e-3, 600, record_stride=600
        )


def four_stage_liouville(rho0, h_text, dt, steps, record_stride):
    """The classic four-stage RK4 loop with its own recording, the oracle
    for the Taylor action of exp(tau L) when run at a refined step."""
    node = parse_expr(h_text)
    qm, pm = np.meshgrid(rho0.q_values, rho0.p_values, indexing="ij")
    hvals = dyn._mesh_eval(node, qm, pm)
    dh_dq = dyn._mesh_eval(differentiate(node, "Q"), qm, pm)
    dh_dp = dyn._mesh_eval(differentiate(node, "P"), qm, pm)
    d_q, d_p_t = dyn._differentiation_matrices(rho0)
    cell = rho0.dq * rho0.dp
    grid = rho0.grid.copy()
    traj = dyn.Trajectory(extras={"min_entry": [], "boundary_mass": []})

    def bracket(g):
        return dh_dq * (g @ d_p_t) - dh_dp * (d_q @ g)

    def record(step):
        mass = float(grid.sum() * cell)
        traj.append(
            step * dt,
            float((qm * grid).sum() * cell / mass),
            float((pm * grid).sum() * cell / mass),
            float((hvals * grid).sum() * cell / mass),
            mass,
        )
        traj.extras["min_entry"].append(float(grid.min()))
        traj.extras["boundary_mass"].append(
            dyn._boundary_mass(grid, rho0.dq, rho0.dp)
        )

    record(0)
    for step in range(1, steps + 1):
        k1 = bracket(grid)
        k2 = bracket(grid + 0.5 * dt * k1)
        k3 = bracket(grid + 0.5 * dt * k2)
        k4 = bracket(grid + dt * k3)
        grid += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % record_stride == 0 or step == steps:
            record(step)
    return traj


@pytest.mark.filterwarnings("ignore:boundary ring:RuntimeWarning")
@pytest.mark.parametrize(
    "rho0, h_text, dt, steps, stride",
    [
        (centered_gaussian(), OSC, 1e-3, 400, 100),
        (
            dyn.PhaseSpaceDensity.gaussian(12, 17, 9.0, 11.0, 0.4, -0.3, 0.8, 0.9),
            OSC + " + (1/10)*Q^4",
            2e-3,
            300,
            60,
        ),
        (centered_gaussian(n=32), OSC, 1e-2, 333, 40),
    ],
    ids=["oscillator-64", "quartic-12x17", "partial-stride"],
)
def test_taylor_action_matches_the_refined_four_stage_loop(rho0, h_text, dt, steps, stride):
    got = dyn.liouville_evolve(rho0, h_text, dt, steps, record_stride=stride)
    # RK4 at dt/8 records at the same times, exactly: 8k * (dt/8) == k * dt
    want = four_stage_liouville(rho0, h_text, dt / 8, 8 * steps, 8 * stride)
    assert got.times == want.times
    columns = ("mean_q", "mean_p", "mean_energy", "norm_or_trace")
    for name in columns:
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=0, atol=1e-12)
    assert sorted(got.extras) == sorted(want.extras)
    for name, values in want.extras.items():
        np.testing.assert_allclose(got.extras[name], values, rtol=0, atol=1e-12)


def test_taylor_action_rotates_the_oscillator_in_closed_form():
    q0, p0 = 1.0, 0.5
    steps = 628
    traj = dyn.liouville_evolve(
        centered_gaussian(q0=q0, p0=p0), OSC, 2.0 * np.pi / steps, steps, record_stride=20
    )
    t = np.array(traj.times)
    np.testing.assert_allclose(traj.mean_q, q0 * np.cos(t) + p0 * np.sin(t), rtol=0, atol=1e-13)
    np.testing.assert_allclose(traj.mean_p, p0 * np.cos(t) - q0 * np.sin(t), rtol=0, atol=1e-13)
    assert traj.drift() < 1e-14


_COEFFICIENTS = st.sampled_from(["-1", "-1/2", "0", "0", "1/3", "1"])


@st.composite
def _separable_flows(draw):
    """A Gaussian on a grid with N_q != N_p, and h = T(P) + V(Q) of degree
    at most 4, as its source text."""
    n_q = draw(st.integers(6, 16))
    n_p = draw(st.integers(6, 16).filter(lambda n: n != n_q))
    h_text = " + ".join(
        f"({draw(_COEFFICIENTS)})*{x}^{k}" for x in "PQ" for k in range(1, 5)
    )
    length_q, length_p = (draw(st.sampled_from([6.0, 8.0])) for _ in range(2))
    q0, p0 = (draw(st.sampled_from([-0.5, 0.0, 0.5])) for _ in range(2))
    rho0 = dyn.PhaseSpaceDensity.gaussian(
        n_q, n_p, length_q, length_p, q0, p0, 0.15 * length_q, 0.15 * length_p
    )
    return rho0, h_text


@pytest.mark.filterwarnings("ignore:boundary ring:RuntimeWarning")
@given(
    _separable_flows(),
    st.sampled_from([8, 40, 176]),
    st.integers(1, 352),
)
@example((centered_gaussian(n=8, length=6.0), "0"), 8, 20)  # B = 0: one bracket per interval
@settings(max_examples=60, deadline=None, derandomize=True)
def test_taylor_action_of_random_separable_flows_matches_the_refined_loop(
    flow, stride, steps
):
    rho0, h_text = flow
    node = parse_expr(h_text)
    qm, pm = np.meshgrid(rho0.q_values, rho0.p_values, indexing="ij")
    h_max, dh_dq_max, dh_dp_max = (
        np.abs(dyn._mesh_eval(n, qm, pm)).max()
        for n in (node, differentiate(node, "Q"), differentiate(node, "P"))
    )
    # a time scale from pi / spacing, the wavenumber no grid exceeds: RK4 at
    # dt/8 then meets the tolerance, and a 176-step record interval takes
    # up to 3 substeps
    rate = dh_dq_max * np.pi / rho0.dp + dh_dp_max * np.pi / rho0.dq
    dt = 1.0 / (8.0 * rate) if rate > 0 else 0.1
    got = dyn.liouville_evolve(rho0, h_text, dt, steps, record_stride=stride)
    want = four_stage_liouville(rho0, h_text, dt / 8, 8 * steps, 8 * stride)
    assert got.times == want.times
    # 1e-12 of each column's largest possible magnitude on the grid
    scales = {
        "mean_q": rho0.extent[0] / 2, "mean_p": rho0.extent[1] / 2,
        "mean_energy": max(1.0, h_max), "norm_or_trace": 1.0,
    }
    for name, scale in scales.items():
        np.testing.assert_allclose(
            getattr(got, name), getattr(want, name), rtol=0, atol=1e-12 * scale
        )


def test_a_non_finite_bracket_costs_the_degree_cap_per_substep(monkeypatch):
    # a NaN term never meets the stopping test, so every substep runs to the
    # cap; the mass test then aborts at the record
    limit = 5 * dyn._DEGREE_CAP
    calls = []

    def nan_bracket(*args, out, work):
        calls.append(1)
        if len(calls) > limit:
            raise AssertionError("a substep ran past the degree cap")
        out.fill(np.nan)
        return out

    monkeypatch.setattr(dyn, "_bracket", nan_bracket)
    # on 16 points of spacing 1, B = 2 * 8 * (2 pi * 7/16) = 43.98, so a
    # record interval of tau = 1 takes ceil(tau B / 9.9) = 5 substeps
    with pytest.raises(dyn.LiouvilleUnstable, match="mass nan at step 100"):
        dyn.liouville_evolve(centered_gaussian(n=16), OSC, 0.01, 100, record_stride=100)
    assert len(calls) == limit


@pytest.mark.parametrize(
    "params",
    [dyn.OscillatorParams(n_grid=256), dyn.OscillatorParams(n_grid=128, record_stride=1)],
    ids=["default-256", "128-stride-1"],
)
def test_the_work_budget_admits_runs_the_four_stage_loop_finished(monkeypatch, params):
    # RK4 ran both in 25,132 brackets; a bracket that returns zero ends each
    # substep after two terms, so the run costs little more than its records
    def zero_bracket(*args, out, work):
        out.fill(0.0)
        return out

    monkeypatch.setattr(dyn, "_bracket", zero_bracket)
    table = dyn.oscillator_compare(params)
    assert table.times[-1] == pytest.approx(2.0 * np.pi, rel=1e-15)
    assert table.classical_mass_drift() == 0.0


def quantum_setup(n_fock=24, q0=1.0, p0=0.0, expr=OSC):
    hbar = 1.0
    b = build_backend("fock", n_fock, hbar)
    h_poly = eval_ncpoly(parse_expr(expr), GENS.q_qm, GENS.p_qm)
    alpha = (q0 + 1j * p0) / np.sqrt(2 * hbar)
    state = lift_qm_eigenstate(
        coherent_state(n_fock, alpha), WeightSpec.default(n_fock, n_fock)
    )
    return state, h_poly, b


def test_von_neumann_oscillator_period_return():
    state, h_poly, b = quantum_setup()
    period = 2.0 * np.pi
    steps = 628
    traj = dyn.von_neumann_evolve(
        state, h_poly, b, b, period / steps, steps, record_stride=157
    )
    assert traj.mean_q[0] == pytest.approx(1.0, abs=1e-10)
    assert traj.mean_q[-1] == pytest.approx(1.0, abs=1e-6)
    assert traj.mean_p[-1] == pytest.approx(0.0, abs=1e-6)
    assert traj.drift() < 1e-10


def test_von_neumann_energy_is_constant():
    state, h_poly, b = quantum_setup()
    traj = dyn.von_neumann_evolve(state, h_poly, b, b, 1e-2, 100, record_stride=25)
    es = traj.mean_energy
    assert max(abs(e - es[0]) for e in es) < 1e-10


def test_von_neumann_constant_hamiltonian_freezes_means():
    b = build_backend("fock", 8, 1.0)
    state = lift_qm_eigenstate(
        coherent_state(8, 0.4), WeightSpec.default(8, 8)
    )
    traj = dyn.von_neumann_evolve(
        state, TensorPoly.identity(), b, b, 1e-2, 50, record_stride=10
    )
    assert max(traj.mean_q) - min(traj.mean_q) < 1e-12
    assert max(traj.mean_p) - min(traj.mean_p) < 1e-12


def test_von_neumann_evolves_densities_too():
    state, h_poly, b = quantum_setup(n_fock=16)
    rho = np.outer(state, state.conj())
    traj_v = dyn.von_neumann_evolve(state, h_poly, b, b, 1e-2, 60, record_stride=20)
    traj_d = dyn.von_neumann_evolve(rho, h_poly, b, b, 1e-2, 60, record_stride=20)
    np.testing.assert_allclose(traj_v.mean_q, traj_d.mean_q, atol=1e-11)
    np.testing.assert_allclose(traj_v.mean_p, traj_d.mean_p, atol=1e-11)


def test_von_neumann_rejects_non_hermitian_hamiltonian():
    b = build_backend("fock", 6, 1.0)
    state = lift_qm_eigenstate(coherent_state(6, 0.1), WeightSpec.default(6, 6))
    with pytest.raises(ValueError, match="Hamiltonian is not Hermitian"):
        dyn.von_neumann_evolve(state, GENS.q_qm * GENS.p_qm, b, b, 1e-2, 5)


def dense_stepping_oracle(state0, h_mat, dt, steps, hbar, q_mat, p_mat, record_stride):
    """One eigendecomposition of the whole H; the state steps by U(dt*stride)."""
    hmat = np.asarray(h_mat)
    energies, vectors = np.linalg.eigh((hmat + hmat.conj().T) / 2.0)

    def propagator(tau):
        return (vectors * np.exp(-1j * energies * tau / hbar)) @ vectors.conj().T

    def expect(state, mat):
        if state.ndim == 1:
            denom = np.vdot(state, state).real
            return np.vdot(state, mat @ state).real / denom, denom
        denom = np.trace(state).real
        return np.einsum("ij,ji->", state, mat).real / denom, denom

    def advance(state, u):
        return u @ state if state.ndim == 1 else u @ state @ u.conj().T

    state = state0.astype(complex)
    traj = dyn.Trajectory()

    def record(step):
        mq, _ = expect(state, q_mat)
        mp, _ = expect(state, p_mat)
        me, norm = expect(state, hmat)
        traj.append(step * dt, mq, mp, me, norm)

    record(0)
    step = 0
    u_stride = propagator(dt * record_stride)
    while step + record_stride <= steps:
        state = advance(state, u_stride)
        step += record_stride
        record(step)
    if step < steps:
        state = advance(state, propagator(dt * (steps - step)))
        record(steps)
    return traj


def random_states(n_q, n_p, seed):
    """A random vector and a rank-3 density, with cross-sector coherences."""
    dim = 2 * n_q * n_p
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    weights = np.array([0.5, 0.3, 0.2])
    rho = np.einsum("k,ki,kj->ij", weights, vecs, vecs.conj())
    return vecs[0], rho


# 1 (x) 1 (x) (E_qp + E_pq)
R_COUPLING = TensorPoly(
    {(0, 0, 0, 0, 0, 1): ScalarCoeff.one(), (0, 0, 0, 0, 1, 0): ScalarCoeff.one()}
)
QUARTIC = eval_ncpoly(parse_expr(OSC + " + (1/10)*Q^4"), GENS.q_qm, GENS.p_qm)


@pytest.mark.parametrize(
    "coupled", [False, True], ids=["r-block-diagonal", "r-coupled"]
)
def test_von_neumann_matches_dense_stepping_oracle(coupled):
    if coupled:
        # no polynomial in q_qm, p_qm couples the r-sectors; such an H is refused
        b = build_backend("fock", 6, 1.0)
        q_ident = TensorPoly(  # Q (x) 1 (x) 1
            {(1, 0, 0, 0, 0, 0): ScalarCoeff.one(), (1, 0, 0, 0, 1, 1): ScalarCoeff.one()}
        )
        h_poly = QUARTIC + R_COUPLING * q_ident
        assert np.abs(realize(h_poly, b, b)[0::2, 1::2]).max() > 0
        state, _ = random_states(6, 6, seed=7)
        with pytest.raises(ValueError, match="couples the two r-sectors"):
            dyn.von_neumann_evolve(state, h_poly, b, b, 1e-2, 333, record_stride=40)
        return
    pairs = [
        (build_backend("fock", 6, 1.0), build_backend("fock", 6, 1.0)),
        (
            build_backend("grid-position", 9, 0.7, 6.0),
            build_backend("grid-momentum", 7, 0.7, 5.0),
        ),
    ]
    for bq, bp in pairs:
        h_mat = realize(QUARTIC, bq, bp)
        q_mat = realize(GENS.q_qm, bq, bp)
        p_mat = realize(GENS.p_qm, bq, bp)
        for state in random_states(bq.dim, bp.dim, seed=7):
            traj = dyn.von_neumann_evolve(
                state, QUARTIC, bq, bp, 1e-2, 333, record_stride=40
            )
            oracle = dense_stepping_oracle(
                state, h_mat, 1e-2, 333, bq.hbar, q_mat, p_mat, record_stride=40
            )
            assert traj.times == oracle.times
            for name in ("mean_q", "mean_p", "mean_energy", "norm_or_trace"):
                np.testing.assert_allclose(
                    getattr(traj, name), getattr(oracle, name), rtol=0, atol=1e-12
                )


def test_qm_factors_rebuild_the_dense_realization():
    """A (x) 1 (x) E_qq + 1 (x) B (x) E_pp is realize's matrix, entry for entry."""
    bq = build_backend("grid-position", 5, 0.7, 6.0)
    bp = build_backend("fock", 4, 0.7)
    a, b = qm_factors(QUARTIC, bq, bp)
    dense = realize(QUARTIC, bq, bp)
    rebuilt = np.kron(np.kron(a, np.eye(4)), np.diag([1, 0])) + np.kron(
        np.kron(np.eye(5), b), np.diag([0, 1])
    )
    assert np.array_equal(dense, rebuilt)
    with pytest.raises(ValueError, match="acts on the other factor"):
        # Q (x) Q (x) E_qq
        qm_factors(TensorPoly({(1, 0, 1, 0, 0, 0): ScalarCoeff.one()}), bq, bp)


def test_record_times_keep_the_trailing_partial_stride():
    dt, steps, stride = 1e-2, 333, 40
    expected = [s * dt for s in (0, 40, 80, 120, 160, 200, 240, 280, 320, 333)]
    state, h_poly, b = quantum_setup(n_fock=6)
    for st in (state, np.outer(state, state.conj())):
        traj = dyn.von_neumann_evolve(st, h_poly, b, b, dt, steps, record_stride=stride)
        assert traj.times == expected
    traj = dyn.liouville_evolve(
        centered_gaussian(), OSC, dt, steps, record_stride=stride
    )
    assert traj.times == expected


def test_coherent_state_beyond_any_dense_size():
    """Fock N=256: the product space has dimension 131072, a 256 GiB dense H."""
    q0, p0 = 1.0, 0.5
    state, h_poly, b = quantum_setup(n_fock=256, q0=q0, p0=p0)
    steps = 628
    traj = dyn.von_neumann_evolve(
        state, h_poly, b, b, 2.0 * np.pi / steps, steps, record_stride=20
    )
    t = np.array(traj.times)
    assert t[-1] == pytest.approx(2.0 * np.pi, abs=1e-12)
    np.testing.assert_allclose(traj.mean_q, q0 * np.cos(t) + p0 * np.sin(t), rtol=0, atol=1e-10)
    np.testing.assert_allclose(traj.mean_p, p0 * np.cos(t) - q0 * np.sin(t), rtol=0, atol=1e-10)
    assert traj.drift() < 1e-10


def test_trajectory_csv_layout(tmp_path):
    state, h_poly, b = quantum_setup(n_fock=8, q0=0.2)
    traj = dyn.von_neumann_evolve(state, h_poly, b, b, 1e-2, 10, record_stride=5)
    path = str(tmp_path / "traj.csv")
    traj.to_csv(path)
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0] == "t,mean_q,mean_p,mean_energy,norm_or_trace"
    assert len(lines) == 1 + len(traj.times)


def test_quadratic_flow_matches_across_engines_beyond_means():
    """One shared harness run: classical and quantum means agree to 1e-5."""
    params = dyn.OscillatorParams(
        q0=0.8, p0=-0.3, n_grid=64, n_fock=32, dt=2e-3,
        period_count=1, record_stride=200,
    )
    table = dyn.oscillator_compare(params)
    assert table.max_dq_abs() < 1e-5
    assert table.max_dp_abs() < 1e-5
    assert table.classical_mass_drift() < 1e-8
    assert table.quantum_trace_drift() < 1e-10


def test_quartic_term_separates_the_engines():
    """Anharmonic flows genuinely differ: mean trajectories must split."""
    expr = OSC + " + (1/10)*Q^4"
    rho0 = centered_gaussian()
    with pytest.warns(RuntimeWarning, match="boundary ring"):
        tc = dyn.liouville_evolve(rho0, expr, 1e-3, 2000, record_stride=500)
    state, h_poly, b = quantum_setup(expr=expr)
    tq = dyn.von_neumann_evolve(state, h_poly, b, b, 1e-3, 2000, record_stride=500)
    gap = max(abs(a - b) for a, b in zip(tc.mean_q, tq.mean_q))
    assert gap > 5e-3
    assert gap < 0.5  # still the same physical problem, not runaway


def test_comparison_table_csv(tmp_path):
    params = dyn.OscillatorParams(
        n_grid=32, n_fock=16, dt=5e-3, period_count=1, record_stride=400,
    )
    with pytest.warns(RuntimeWarning):
        table = dyn.oscillator_compare(params)
    path = str(tmp_path / "cmp.csv")
    table.to_csv(path)
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0] == (
        "t,mean_q_cl,mean_q_qm,mean_p_cl,mean_p_qm,dq_abs,dp_abs,"
        "energy_cl,energy_qm"
    )
    assert len(lines) == 1 + len(table.times)


def test_oscillator_params_width_default():
    assert dyn.OscillatorParams().width() == pytest.approx(np.sqrt(0.5))
    assert dyn.OscillatorParams(sigma=0.3).width() == 0.3
