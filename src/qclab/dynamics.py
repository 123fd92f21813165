"""Endpoint dynamics: classical Liouville flow and quantum unitary evolution.

The classical side evolves a phase-space density on a periodic N_q x N_p
grid by the bracket transport equation

    d rho / dt = dh/dq * drho/dp - dh/dp * drho/dq

with classic fourth-order Runge-Kutta stepping.  Density derivatives are
spectral and periodic: ``spectral_derivative`` defines them through the
DFT, and the stepper applies them as the equivalent Fourier differentiation
matrices (Trefethen, Spectral Methods in MATLAB, ch. 3), built once per run,
so each bracket costs two small matrix products.  The Hamiltonian partials
are evaluated from the exact formal derivative of the polynomial expression
on the mesh, since a polynomial is not periodic and differentiating it
spectrally would poison the bracket with wrap-around artifacts.

The quantum side applies the exact propagator exp(-i H t / hbar).  H is
diagonalized once per invariant r-sector (the two sectors decouple whenever
the off-diagonal r-blocks of H vanish, as for every qm-family Hamiltonian),
and each record time is evaluated directly in that eigenbasis, so unitarity
holds to roundoff and the time step only controls the recording cadence.

No dynamics is defined between the two endpoints, deliberately; callers
enforce that rule.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import expr as expr_mod
from .matrep import TensorMatrix, build_backend, hermitian_defect, realize
from .ncpoly import eval_ncpoly, make_generators
from .states import HybridDensity, HybridVector, WeightSpec, coherent_state, lift_qm_eigenstate

_MASS_TOL = 1e-10
_ABORT_DRIFT = 1e-4
_BOUNDARY_WARN = 1e-8
# record times propagated per batched product; bounds the vector path's memory
_RECORD_CHUNK = 64


class LiouvilleUnstable(RuntimeError):
    """The Liouville run's total mass drifted beyond the abort threshold."""


@dataclass(frozen=True)
class PhaseSpaceDensity:
    """Nonnegative, unit-mass distribution on a centered periodic grid."""

    grid: np.ndarray
    dq: float
    dp: float
    extent: tuple[float, float]

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        object.__setattr__(self, "grid", grid)
        if grid.ndim != 2:
            raise ValueError(f"grid must be 2-dimensional, got shape {grid.shape}")
        if self.dq <= 0 or self.dp <= 0:
            raise ValueError("grid spacings must be positive")
        if grid.min() < -1e-12:
            raise ValueError(f"density has negative entries (min {grid.min()!r})")
        mass = float(grid.sum() * self.dq * self.dp)
        if abs(mass - 1.0) > _MASS_TOL:
            raise ValueError(f"density must have unit mass, got {mass!r}")

    @property
    def n_q(self) -> int:
        return self.grid.shape[0]

    @property
    def n_p(self) -> int:
        return self.grid.shape[1]

    @property
    def q_values(self) -> np.ndarray:
        return -self.extent[0] / 2.0 + self.dq * np.arange(self.n_q)

    @property
    def p_values(self) -> np.ndarray:
        return -self.extent[1] / 2.0 + self.dp * np.arange(self.n_p)

    def mass(self) -> float:
        return float(self.grid.sum() * self.dq * self.dp)

    @staticmethod
    def gaussian(
        n_q: int,
        n_p: int,
        length_q: float,
        length_p: float,
        q0: float,
        p0: float,
        sigma_q: float,
        sigma_p: float,
    ) -> "PhaseSpaceDensity":
        dq = length_q / n_q
        dp = length_p / n_p
        q = -length_q / 2.0 + dq * np.arange(n_q)
        p = -length_p / 2.0 + dp * np.arange(n_p)
        qm, pm = np.meshgrid(q, p, indexing="ij")
        grid = np.exp(
            -((qm - q0) ** 2) / (2.0 * sigma_q**2)
            - ((pm - p0) ** 2) / (2.0 * sigma_p**2)
        )
        grid /= grid.sum() * dq * dp
        return PhaseSpaceDensity(grid, dq, dp, (length_q, length_p))


@dataclass
class Trajectory:
    """Recorded observable history of one evolution run."""

    times: list[float] = field(default_factory=list)
    mean_q: list[float] = field(default_factory=list)
    mean_p: list[float] = field(default_factory=list)
    mean_energy: list[float] = field(default_factory=list)
    norm_or_trace: list[float] = field(default_factory=list)
    extras: dict[str, list[float]] = field(default_factory=dict)

    def append(self, t: float, mq: float, mp: float, me: float, norm: float) -> None:
        if self.times and t <= self.times[-1]:
            raise ValueError("record times must be strictly increasing")
        self.times.append(t)
        self.mean_q.append(mq)
        self.mean_p.append(mp)
        self.mean_energy.append(me)
        self.norm_or_trace.append(norm)

    def drift(self) -> float:
        """Largest excursion of the conserved norm/trace/mass column."""
        if not self.norm_or_trace:
            return 0.0
        base = self.norm_or_trace[0]
        return max(abs(v - base) for v in self.norm_or_trace)

    def to_csv(self, path: str) -> None:
        from .matrep import format_float

        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("t,mean_q,mean_p,mean_energy,norm_or_trace\n")
            for row in zip(
                self.times, self.mean_q, self.mean_p, self.mean_energy, self.norm_or_trace
            ):
                fh.write(",".join(format_float(v) for v in row) + "\n")


def spectral_derivative(arr: np.ndarray, spacing: float, axis: int) -> np.ndarray:
    """Periodic derivative along one axis via the DFT.

    The unpaired Nyquist mode (even lengths) is dropped from the derivative:
    it carries no sign information and would otherwise leak an imaginary
    component.
    """
    n = arr.shape[axis]
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=spacing)
    if n % 2 == 0:
        k[n // 2] = 0.0
    shape = [1] * arr.ndim
    shape[axis] = n
    transformed = np.fft.fft(arr, axis=axis)
    return np.real(np.fft.ifft(1j * k.reshape(shape) * transformed, axis=axis))


def _differentiation_matrices(rho: PhaseSpaceDensity) -> tuple[np.ndarray, np.ndarray]:
    """``(D_q, D_p^T)``, the periodic spectral differentiation matrices.

    ``D_q @ g`` differentiates g along q and ``g @ D_p^T`` along p.  Both are
    ``spectral_derivative`` applied to the identity, so its Nyquist rule is
    the one in force; the contiguous copies keep the products on BLAS's
    fast path.
    """
    d_q = spectral_derivative(np.eye(rho.n_q), rho.dq, axis=0)
    d_p_t = spectral_derivative(np.eye(rho.n_p), rho.dp, axis=1)
    return np.ascontiguousarray(d_q), np.ascontiguousarray(d_p_t)


def _bracket(
    dh_dq: np.ndarray,
    dh_dp: np.ndarray,
    grid: np.ndarray,
    d_q: np.ndarray,
    d_p_t: np.ndarray,
) -> np.ndarray:
    return dh_dq * (grid @ d_p_t) - dh_dp * (d_q @ grid)


def poisson_bracket(
    hgrid: np.ndarray,
    rho: PhaseSpaceDensity,
    dh_dq: np.ndarray | None = None,
    dh_dp: np.ndarray | None = None,
) -> np.ndarray:
    """Bracket {h, rho} on the periodic grid.

    By default both partials of h are spectral, like the density's.  Callers
    holding a closed form for h can pass its exact partials instead, which
    sidesteps the periodicity mismatch of polynomial Hamiltonians.
    """
    hgrid = np.asarray(hgrid, dtype=float)
    if hgrid.shape != rho.grid.shape:
        raise ValueError(
            f"grid mismatch: h {hgrid.shape} vs rho {rho.grid.shape}"
        )
    d_q, d_p_t = _differentiation_matrices(rho)
    if dh_dq is None:
        dh_dq = d_q @ hgrid
    if dh_dp is None:
        dh_dp = hgrid @ d_p_t
    return _bracket(
        np.broadcast_to(dh_dq, hgrid.shape),
        np.broadcast_to(dh_dp, hgrid.shape),
        rho.grid,
        d_q,
        d_p_t,
    )


def _mesh_eval(node, qm: np.ndarray, pm: np.ndarray) -> np.ndarray:
    values = expr_mod.evaluate_numeric(node, qm, pm)
    return np.broadcast_to(np.asarray(values, dtype=float), qm.shape).copy()


def _boundary_mass(grid: np.ndarray, dq: float, dp: float) -> float:
    ring = grid[0, :].sum() + grid[-1, :].sum() + grid[:, 0].sum() + grid[:, -1].sum()
    ring -= grid[0, 0] + grid[0, -1] + grid[-1, 0] + grid[-1, -1]
    return float(ring * dq * dp)


def liouville_evolve(
    rho0: PhaseSpaceDensity,
    h_expr,
    dt: float,
    steps: int,
    record_stride: int = 1,
) -> Trajectory:
    """Integrate the bracket transport equation with RK4.

    ``h_expr`` is a polynomial expression tree (or its source text) in Q, P.
    Records are taken every ``record_stride`` steps plus the final step.
    Aborts with a diagnostic if the total mass drifts beyond 1e-4; warns
    once if the boundary ring ever carries mass above 1e-8 (the periodic
    box is then too small for the flow).
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if record_stride < 1:
        raise ValueError(f"record_stride must be at least 1, got {record_stride}")
    node = expr_mod.parse_expr(h_expr) if isinstance(h_expr, str) else h_expr
    qm, pm = np.meshgrid(rho0.q_values, rho0.p_values, indexing="ij")
    hvals = _mesh_eval(node, qm, pm)
    dh_dq = _mesh_eval(expr_mod.differentiate(node, "Q"), qm, pm)
    dh_dp = _mesh_eval(expr_mod.differentiate(node, "P"), qm, pm)
    dq, dp = rho0.dq, rho0.dp
    cell = dq * dp
    d_q, d_p_t = _differentiation_matrices(rho0)

    grid = rho0.grid.astype(float).copy()
    traj = Trajectory()
    traj.extras["min_entry"] = []
    traj.extras["boundary_mass"] = []
    warned = False

    def record(step: int) -> None:
        nonlocal warned
        mass = float(grid.sum() * cell)
        if abs(mass - 1.0) > _ABORT_DRIFT:
            raise LiouvilleUnstable(
                f"Liouville integration unstable: mass {mass!r} at step {step}"
                f" (t={step * dt!r}) drifted beyond {_ABORT_DRIFT}"
            )
        boundary = _boundary_mass(grid, dq, dp)
        if boundary > _BOUNDARY_WARN and not warned:
            warnings.warn(
                f"boundary ring carries mass {boundary:.3e} at t={step * dt:.6g};"
                " the periodic box is too small for this flow",
                RuntimeWarning,
                stacklevel=3,
            )
            warned = True
        traj.append(
            step * dt,
            float((qm * grid).sum() * cell / mass),
            float((pm * grid).sum() * cell / mass),
            float((hvals * grid).sum() * cell / mass),
            mass,
        )
        traj.extras["min_entry"].append(float(grid.min()))
        traj.extras["boundary_mass"].append(boundary)

    record(0)
    for step in range(1, steps + 1):
        k1 = _bracket(dh_dq, dh_dp, grid, d_q, d_p_t)
        k2 = _bracket(dh_dq, dh_dp, grid + 0.5 * dt * k1, d_q, d_p_t)
        k3 = _bracket(dh_dq, dh_dp, grid + 0.5 * dt * k2, d_q, d_p_t)
        k4 = _bracket(dh_dq, dh_dp, grid + dt * k3, d_q, d_p_t)
        grid += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % record_stride == 0 or step == steps:
            record(step)
    return traj


def _r_sectors(hmat: np.ndarray) -> list[slice]:
    """Flat-index sets that ``hmat`` leaves invariant.

    The r index varies fastest, so the two r-sectors are the even and the
    odd flat indices; they decouple when both off-diagonal r-blocks vanish
    exactly.  Otherwise the whole space is one sector.
    """
    if hmat[0::2, 1::2].any() or hmat[1::2, 0::2].any():
        return [slice(None)]
    return [slice(0, None, 2), slice(1, None, 2)]


def von_neumann_evolve(
    state0: HybridVector | HybridDensity,
    h_matrix: TensorMatrix,
    dt: float,
    steps: int,
    hbar: float,
    q_matrix: TensorMatrix,
    p_matrix: TensorMatrix,
    record_stride: int = 1,
) -> Trajectory:
    """Unitary evolution with the exact eigendecomposition propagator.

    Vectors evolve as psi -> U psi, densities as rho -> U rho U^dagger.
    Records means of the supplied coordinate/momentum observables and the
    Hamiltonian every ``record_stride`` steps plus the final step.

    ``H`` is diagonalized per invariant r-sector, and every record time is
    evaluated directly from the initial state expanded in that eigenbasis,
    so no error accumulates from step to step.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if record_stride < 1:
        raise ValueError(f"record_stride must be at least 1, got {record_stride}")
    defect = hermitian_defect(h_matrix)
    if defect > 1e-10:
        raise ValueError(
            f"Hamiltonian is not Hermitian (defect {defect:.3e} > 1e-10)"
        )
    hmat = np.asarray(h_matrix.data)
    sectors = _r_sectors(hmat)
    eigen = []
    for s in sectors:
        block = hmat[s, s]
        eigen.append(np.linalg.eigh((block + block.conj().T) / 2.0))
    observables = (np.asarray(q_matrix.data), np.asarray(p_matrix.data), hmat)
    marks = list(range(0, steps + 1, record_stride))
    if marks[-1] != steps:
        marks.append(steps)
    times = [step * dt for step in marks]
    data = state0.data.astype(complex)
    traj = Trajectory()

    if data.ndim == 1:
        coeffs = [v.conj().T @ data[s] for s, (_, v) in zip(sectors, eigen)]
        for start in range(0, len(times), _RECORD_CHUNK):
            t = np.array(times[start : start + _RECORD_CHUNK])
            # one column per record time
            psi = np.empty((data.size, t.size), dtype=complex)
            for s, (energies, vectors), c in zip(sectors, eigen, coeffs):
                phases = np.exp(np.outer(energies, -1j * t / hbar))
                psi[s] = vectors @ (phases * c[:, None])
            norms = np.einsum("ij,ij->j", psi.conj(), psi).real
            mq, mp, me = (
                np.einsum("ij,ij->j", psi.conj(), mat @ psi).real / norms
                for mat in observables
            )
            for row in zip(t, mq, mp, me, norms):
                traj.append(*(float(v) for v in row))
        return traj

    # rho_{ss'}(t) = U_s rho_{ss'} U_{s'}^dagger with U_s = W_s V_s^dagger and
    # W_s = V_s e^{-i E_s t/hbar}: rho is rotated into the eigenbasis once, and
    # each record applies W_s on the left and W_{s'}^dagger on the right.
    rotated = np.empty_like(data)
    half = np.empty_like(data)
    for s, (_, vectors) in zip(sectors, eigen):
        half[s] = vectors.conj().T @ data[s]
    for s, (_, vectors) in zip(sectors, eigen):
        rotated[:, s] = half[:, s] @ vectors
    rho = np.empty_like(data)
    for t in times:
        ws = [v * np.exp(-1j * energies * t / hbar) for energies, v in eigen]
        for s, w in zip(sectors, ws):
            half[s] = w @ rotated[s]
        for s, w in zip(sectors, ws):
            rho[:, s] = half[:, s] @ w.conj().T
        trace = np.trace(rho).real
        mq, mp, me = (
            np.einsum("ij,ji->", rho, mat).real / trace for mat in observables
        )
        traj.append(t, float(mq), float(mp), float(me), float(trace))
    return traj


@dataclass(frozen=True)
class OscillatorParams:
    """Discretization and initial data for the two-sided oscillator run."""

    q0: float = 1.0
    p0: float = 0.0
    hbar: float = 1.0
    sigma: float | None = None
    n_grid: int = 64
    n_fock: int = 32
    length: float = 16.0
    dt: float = 1e-3
    period_count: int = 1
    record_stride: int = 50

    def width(self) -> float:
        return self.sigma if self.sigma is not None else float(np.sqrt(self.hbar / 2.0))


OSCILLATOR_EXPR = "(1/2)*(P^2 + Q^2)"


@dataclass
class ComparisonTable:
    """Per-time comparison of the two endpoint dynamics on one Hamiltonian."""

    times: list[float]
    classical: Trajectory
    quantum: Trajectory

    @property
    def dq_abs(self) -> list[float]:
        return [
            abs(a - b) for a, b in zip(self.classical.mean_q, self.quantum.mean_q)
        ]

    @property
    def dp_abs(self) -> list[float]:
        return [
            abs(a - b) for a, b in zip(self.classical.mean_p, self.quantum.mean_p)
        ]

    def max_dq_abs(self) -> float:
        return max(self.dq_abs)

    def max_dp_abs(self) -> float:
        return max(self.dp_abs)

    def classical_mass_drift(self) -> float:
        return self.classical.drift()

    def quantum_trace_drift(self) -> float:
        return self.quantum.drift()

    def to_csv(self, path: str) -> None:
        from .matrep import format_float

        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(
                "t,mean_q_cl,mean_q_qm,mean_p_cl,mean_p_qm,dq_abs,dp_abs,"
                "energy_cl,energy_qm\n"
            )
            for i, t in enumerate(self.times):
                row = (
                    t,
                    self.classical.mean_q[i],
                    self.quantum.mean_q[i],
                    self.classical.mean_p[i],
                    self.quantum.mean_p[i],
                    self.dq_abs[i],
                    self.dp_abs[i],
                    self.classical.mean_energy[i],
                    self.quantum.mean_energy[i],
                )
                fh.write(",".join(format_float(v) for v in row) + "\n")


def oscillator_compare(params: OscillatorParams) -> ComparisonTable:
    """Run both endpoint dynamics on the harmonic oscillator and tabulate.

    The classical side transports a Gaussian density on an n_grid^2 periodic
    box; the quantum side lifts the matching coherent state into the product
    of two Fock factors and applies the exact propagator.  Both record on
    the same time grid; the step count is rounded so the run lands exactly
    on the requested number of periods.
    """
    period = 2.0 * np.pi
    total = period * params.period_count
    steps = max(1, round(total / params.dt))
    dt = total / steps
    sigma = params.width()

    rho0 = PhaseSpaceDensity.gaussian(
        params.n_grid,
        params.n_grid,
        params.length,
        params.length,
        params.q0,
        params.p0,
        sigma,
        sigma,
    )
    classical = liouville_evolve(
        rho0, OSCILLATOR_EXPR, dt, steps, record_stride=params.record_stride
    )

    bq = build_backend("fock", params.n_fock, params.hbar)
    bp = build_backend("fock", params.n_fock, params.hbar)
    alpha = (params.q0 + 1j * params.p0) / np.sqrt(2.0 * params.hbar)
    psi = coherent_state(params.n_fock, alpha)
    state = lift_qm_eigenstate(psi, WeightSpec.default(params.n_fock, params.n_fock))
    gens = make_generators()
    node = expr_mod.parse_expr(OSCILLATOR_EXPR)
    h_matrix = realize(eval_ncpoly(node, gens.q_qm, gens.p_qm), bq, bp)
    q_matrix = realize(gens.q_qm, bq, bp)
    p_matrix = realize(gens.p_qm, bq, bp)
    quantum = von_neumann_evolve(
        state,
        h_matrix,
        dt,
        steps,
        params.hbar,
        q_matrix,
        p_matrix,
        record_stride=params.record_stride,
    )

    if classical.times != quantum.times:
        raise RuntimeError("recording grids of the two runs diverged")
    return ComparisonTable(times=list(classical.times), classical=classical, quantum=quantum)
