"""Endpoint dynamics: classical Liouville flow and quantum unitary evolution.

The classical side evolves a phase-space density on a periodic N_q x N_p
grid by the bracket transport equation

    d rho / dt = L rho = dh/dq * drho/dp - dh/dp * drho/dq.

Density derivatives are spectral and periodic: ``spectral_derivative``
defines them through the DFT, and the bracket applies them as the
equivalent Fourier differentiation matrices (Trefethen, Spectral Methods in
MATLAB, ch. 3), built once per run, so each bracket costs two small matrix
products.  The Hamiltonian partials are evaluated from the exact formal
derivative of the polynomial expression on the mesh, since a polynomial is
not periodic and differentiating it spectrally would poison the bracket
with wrap-around artifacts.

L is linear and does not depend on time, so the density at the next record
is exp(tau L) g, with tau the time between the two records.  It is computed
directly by the truncated Taylor action of Al-Mohy and Higham ("Computing
the action of the matrix exponential", SIAM J. Sci. Comput. 33, 488 (2011)):
tau is split into s substeps, and each substep sums the terms
(tau/s)^k L^k g / k! until two consecutive ones together fall below the
unit roundoff of the sum (their Algorithm 3.2, in the Frobenius norm).  The
differentiation matrices are circulant and skew, so their 2-norm is their
largest retained wavenumber, and

    B = max|dh/dq| k_p,max + max|dh/dp| k_q,max

bounds ||L||_2 before any work.  ``s = ceil(tau B / theta)`` with theta and
the degree cap taken from the paper's table for double precision, so each
record interval costs at most s times the cap brackets, whatever the
values, and the time step only sets the record grid.

The quantum side applies the exact propagator exp(-i H t / hbar).  Every
Hamiltonian of the quantum endpoint is a polynomial in q_qm, p_qm, so it
realizes as H = A (x) 1 (x) E_qq + 1 (x) B (x) E_pp: it keeps each r-sector
and acts there on one factor only.  The recorded means then depend only on
the two reduced densities, which evolve under the N_q x N_q and N_p x N_p
factor matrices A and B.  Each is diagonalized once and every record time is
evaluated directly in its eigenbasis (Van Loan, "The ubiquitous Kronecker
product", J. Comput. Appl. Math. 123 (2000)), so no matrix of dimension
2 N_q N_p is formed, unitarity holds to roundoff, and the time step only
controls the recording cadence.

No dynamics is defined between the two endpoints, deliberately; callers
enforce that rule.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import expr as expr_mod
from .matrep import (
    MAX_DENSE_BYTES,
    Backend,
    _hermitize,
    build_backend,
    has_hermitian_image,
    qm_factors,
    write_csv,
)
from .ncpoly import TensorPoly, eval_ncpoly, make_generators
from .states import WeightSpec, check_density, factor_packet, lift_qm_eigenstate, packet_width

_ABORT_DRIFT = 1e-4
_BOUNDARY_WARN = 1e-8
# Al-Mohy and Higham (2011), Table 3.1 for u = 2^-53: the degree cap m_max
# and theta_m_max, the largest ||(tau/s) L|| at which that degree meets u
_DEGREE_CAP = 55
_THETA = 9.9
_UNIT_ROUNDOFF = 2.0**-53
# multiply-adds of the bracket products that a Liouville run needs at the
# least, one bracket per substep: over two years at the 1.5e10 per second
# that a 64^2 bracket runs on one thread of OpenBLAS, so only a flow out of
# any reach (or one whose norm bound is not finite) is refused
_MAX_WORK = 2.0**60


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
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=float))
        if self.dq <= 0 or self.dp <= 0:
            raise ValueError("grid spacings must be positive")
        # a NaN, left by a sample that overflowed, fails the check
        check_density(self.grid, self.dq, self.dp)

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
        try:
            spread_q, spread_p = 2.0 * sigma_q**2, 2.0 * sigma_p**2
        except OverflowError:  # a square of Python floats past the float range
            spread_q = spread_p = np.inf
        if not np.isfinite(spread_q + spread_p):
            raise ValueError(
                f"the phase-space Gaussian of widths ({sigma_q!r}, {sigma_p!r})"
                " has a squared width past the float range"
            )
        with np.errstate(all="ignore"):  # a width that underflows is refused on construction
            grid = np.exp(-((qm - q0) ** 2) / spread_q - ((pm - p0) ** 2) / spread_p)
            grid /= grid.sum() * dq * dp
        return PhaseSpaceDensity(grid, dq, dp, (length_q, length_p))


@dataclass
class Trajectory:
    """Recorded observable history of one evolution run, one array per column."""

    times: np.ndarray
    mean_q: np.ndarray
    mean_p: np.ndarray
    mean_energy: np.ndarray
    norm_or_trace: np.ndarray
    extras: dict[str, np.ndarray] = field(default_factory=dict)

    def drift(self) -> float:
        """Largest excursion of the conserved norm/trace/mass column; a NaN is kept."""
        return float(np.max(np.abs(self.norm_or_trace - self.norm_or_trace[0])))

    def to_csv(self, path: str) -> None:
        header = ["t", "mean_q", "mean_p", "mean_energy", "norm_or_trace"]
        columns = (self.times, self.mean_q, self.mean_p, self.mean_energy, self.norm_or_trace)
        # Python floats keep write_csv on its one-pass float columns
        write_csv(path, header, zip(*(column.tolist() for column in columns)))


def _wavenumbers(n: int, spacing: float) -> np.ndarray:
    """The angular wavenumbers that periodic differentiation keeps, in DFT order.

    The unpaired Nyquist mode (even lengths) is dropped: it carries no sign
    information and would otherwise leak an imaginary component.
    """
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=spacing)
    if n % 2 == 0:
        k[n // 2] = 0.0
    return k


def spectral_derivative(arr: np.ndarray, spacing: float, axis: int) -> np.ndarray:
    """Periodic derivative along one axis via the DFT, on ``_wavenumbers``."""
    n = arr.shape[axis]
    k = _wavenumbers(n, spacing)
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
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """``dh_dq * (grid @ d_p_t) - dh_dp * (d_q @ grid)``, written into ``out``.

    ``out`` and ``work`` are optional buffers of the grid's shape, distinct
    from ``grid`` and each other; without them new arrays are allocated.
    """
    out = np.matmul(grid, d_p_t, out=out)
    out *= dh_dq
    work = np.matmul(d_q, grid, out=work)
    work *= dh_dp
    out -= work
    return out


def _mesh_eval(node, qm: np.ndarray, pm: np.ndarray) -> np.ndarray:
    values = expr_mod.evaluate_numeric(node, qm, pm)
    return np.broadcast_to(np.asarray(values, dtype=float), qm.shape).copy()


def _boundary_mass(grid: np.ndarray, dq: float, dp: float) -> float:
    ring = grid[0, :].sum() + grid[-1, :].sum() + grid[:, 0].sum() + grid[:, -1].sum()
    ring -= grid[0, 0] + grid[0, -1] + grid[-1, 0] + grid[-1, -1]
    return float(ring * dq * dp)


def _record_count(steps: int, record_stride: int, record_bytes: int) -> int:
    """Records every ``record_stride`` steps plus the final step, counted on Python
    ints: refused (ValueError) when they keep more than ``MAX_DENSE_BYTES`` at
    ``record_bytes`` each, or when their marks pass the int64 range."""
    count = -(-steps // record_stride) + 1
    if count * record_bytes > MAX_DENSE_BYTES:
        beyond = f"{record_bytes} bytes each, above the {MAX_DENSE_BYTES / 2**30:g} GiB bound"
    elif steps > np.iinfo(np.int64).max:
        beyond = "with marks past the int64 range"
    else:
        return count
    raise ValueError(
        f"steps={steps} at record_stride={record_stride} make {count} records, {beyond}"
    )


def _record_steps(dt: float, steps: int, record_stride: int, record_bytes: int) -> np.ndarray:
    """The recorded step indices: every ``record_stride`` steps plus the final step."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if record_stride < 1:
        raise ValueError(f"record_stride must be at least 1, got {record_stride}")
    count = _record_count(steps, record_stride, record_bytes)
    if not np.isfinite(steps * dt):
        raise ValueError(f"steps={steps} of dt={dt!r} end past the float range")
    # a stride past steps records the two ends
    marks = np.arange(count, dtype=np.int64) * min(record_stride, steps)
    marks[-1] = steps
    return marks


def liouville_evolve(
    rho0: PhaseSpaceDensity,
    h_expr: str,
    dt: float,
    steps: int,
    record_stride: int = 1,
) -> Trajectory:
    """Transport a density by the bracket flow of ``h_expr``, record by record.

    ``h_expr`` is the text of a polynomial expression in Q, P.
    Records are taken at ``step * dt`` every ``record_stride`` steps plus the
    final step; ``dt`` sets only that grid.  Between two records the density
    moves by exp(tau L), summed as a truncated Taylor series in
    ``ceil(tau B / theta)`` substeps (see the module docstring).  A run that
    needs more than ``_MAX_WORK`` multiply-adds at one bracket per substep
    (an infinite or NaN bound included) is refused before any bracket.
    Aborts with a diagnostic if
    the total mass drifts beyond 1e-4; warns once if the boundary ring ever
    carries mass above 1e-8 (the periodic box is then too small for the
    flow).
    """
    # the marks, interval lengths, substep counts and 7-row table: 10 numbers a record
    marks = _record_steps(dt, steps, record_stride, 10 * 8)
    node = expr_mod.parse_expr(h_expr)
    qm, pm = np.meshgrid(rho0.q_values, rho0.p_values, indexing="ij")
    hvals = _mesh_eval(node, qm, pm)
    dh_dq = _mesh_eval(expr_mod.differentiate(node, "Q"), qm, pm)
    dh_dp = _mesh_eval(expr_mod.differentiate(node, "P"), qm, pm)
    dq, dp = rho0.dq, rho0.dp
    cell = dq * dp
    d_q, d_p_t = _differentiation_matrices(rho0)

    # ||L||_2 <= B, since ||D||_2 is the largest retained wavenumber; plain
    # floats from here, so that an overflow gives inf without a warning
    k_q = float(np.abs(_wavenumbers(rho0.n_q, dq)).max())
    k_p = float(np.abs(_wavenumbers(rho0.n_p, dp)).max())
    bound = float(np.abs(dh_dq).max()) * k_p + float(np.abs(dh_dp).max()) * k_q
    taus = np.diff(marks) * dt  # finite, as steps * dt is
    with np.errstate(over="ignore"):  # inf, as for plain floats
        substeps = np.ceil(taus * bound / _THETA)
    least = float(substeps.sum()) * rho0.n_q * rho0.n_p * (rho0.n_q + rho0.n_p)
    # written so that an infinite or NaN bound is refused too
    if not least <= _MAX_WORK:
        raise ValueError(
            f"Liouville transport would take at least {least:.3g} multiply-adds"
            f" ({substeps.sum():.3g} substeps on the {rho0.n_q}x{rho0.n_p} grid,"
            f" ||L|| <= {bound:.3g}), above the budget of {_MAX_WORK:.3g}"
        )

    grid = rho0.grid.astype(float).copy()
    # rows: t, mean q, p and h, mass, min_entry, boundary_mass; column r is record r
    table = np.empty((7, len(marks)))
    table[0] = marks * dt
    warned = False

    def record(r: int) -> None:
        nonlocal warned
        step = int(marks[r])
        mass = float(grid.sum() * cell)
        # written so that a NaN mass, left by a run that overflowed, aborts too
        if not abs(mass - 1.0) <= _ABORT_DRIFT:
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
        table[1:4, r] = [(x * grid).sum() * cell / mass for x in (qm, pm, hvals)]
        table[4:, r] = mass, grid.min(), boundary

    term, nxt, work = (np.empty_like(grid) for _ in range(3))
    record(0)
    # values that overflow to inf or NaN reach the mass test at the next
    # record, so numpy need not warn on the way
    with np.errstate(over="ignore", invalid="ignore"):
        for r, (tau, count) in enumerate(zip(taus.tolist(), substeps.tolist()), start=1):
            count = max(1, int(count))  # 0 when h is constant
            sub = tau / count
            for _ in range(count):
                term[...] = grid
                before = np.linalg.norm(term)
                # term_k = (sub/k) L term_{k-1}, added as it is formed; the
                # series ends once two consecutive terms together are at most
                # u ||F||_F, as one small term may precede a larger one
                for k in range(1, _DEGREE_CAP + 1):
                    _bracket(dh_dq, dh_dp, term, d_q, d_p_t, out=nxt, work=work)
                    nxt *= sub / k
                    grid += nxt
                    term, nxt = nxt, term
                    size = np.linalg.norm(term)
                    if before + size <= _UNIT_ROUNDOFF * np.linalg.norm(grid):
                        break
                    before = size
            record(r)
    return Trajectory(*table[:5], extras={"min_entry": table[5], "boundary_mass": table[6]})


def _reduced_densities(state: np.ndarray, n_q: int, n_p: int) -> tuple[np.ndarray, np.ndarray]:
    """``rho_q = Tr_p rho_qq`` and ``rho_p = Tr_q rho_pp`` of a vector or density.

    For a vector reshaped to ``(N_q, N_p, 2)`` these are ``Psi_q Psi_q^dagger``
    and ``Psi_p^T Psi_p^*`` of its two r-slices.
    """
    if state.ndim == 1:
        psi = state.reshape(n_q, n_p, 2)
        psi_q, psi_p = psi[:, :, 0], psi[:, :, 1]
        return psi_q @ psi_q.conj().T, psi_p.T @ psi_p.conj()
    rho = state.reshape(n_q, n_p, 2, n_q, n_p, 2)
    return (
        np.einsum("ikjk->ij", rho[:, :, 0, :, :, 0]),
        np.einsum("kikj->ij", rho[:, :, 1, :, :, 1]),
    )


def von_neumann_evolve(
    state0: np.ndarray,
    h: TensorPoly,
    bq: Backend,
    bp: Backend,
    dt: float,
    steps: int,
    record_stride: int = 1,
) -> Trajectory:
    """Unitary evolution under the quantum-endpoint Hamiltonian ``h``.

    ``h`` is a polynomial in ``q_qm``, ``p_qm``, realized on ``bq``, ``bp`` at
    their hbar as ``H = A (x) 1 (x) E_qq + 1 (x) B (x) E_pp``.  ``state0`` is a
    flat vector, evolving as psi -> U psi, or a density, evolving as
    rho -> U rho U^dagger.  Records the trace and the means of q_qm, p_qm and
    H every ``record_stride`` steps plus the final step.

    All four depend only on the reduced densities ``rho_q``, ``rho_p``, and
    ``U`` acts on each as the factor propagator ``e^{-iXt/hbar}`` (X = A, B).
    So each factor is diagonalized once, ``X = V diag(E) V^dagger``; with
    ``rho~ = V^dagger rho V`` and ``O~ = V^dagger O V``, every record time is
    ``Tr(O rho(t)) = sum_ab O~_ba rho~_ab e^{-i(E_a - E_b)t/hbar}``, evaluated
    directly, so no error accumulates from step to step.
    """
    # per record: the phases and one product with them, N complex numbers each
    # for the wider factor, and 64 bytes of record vectors (the mark, the
    # time, the four totals and one complex row sum)
    times = _record_steps(dt, steps, record_stride, 32 * max(bq.dim, bp.dim) + 64) * dt
    with np.errstate(all="ignore"):  # a factor that overflows is refused below
        factors = qm_factors(h, bq, bp)
    if not has_hermitian_image(h):
        raise ValueError("Hamiltonian is not Hermitian on a finite pair")
    for name, x in zip("qp", factors):
        if not np.isfinite(x).all():
            raise ValueError(f"the Hamiltonian's {name}-factor matrix is not finite on this pair")
    reduced = _reduced_densities(state0, bq.dim, bp.dim)

    # rows: trace, q_qm, p_qm, H; columns: record times
    totals = np.zeros((4, len(times)))
    with np.errstate(all="ignore"):  # a record that overflows is refused below
        for rho, x, backend in zip(reduced, factors, (bq, bp)):
            energies, vectors = np.linalg.eigh(_hermitize(x))
            # the phases and one product with them are the only records x N
            # arrays held: exp writes in place, and each conjugation in place
            # is exact and undone after its row, so no record changes
            phases = np.outer(-1j * times / backend.hbar, energies)
            np.exp(phases, out=phases)
            rotated = vectors.conj().T @ rho @ vectors
            for row, mat in zip(totals, (np.eye(backend.dim), backend.qmat, backend.pmat, x)):
                weights = (vectors.conj().T @ mat @ vectors).T * rotated
                product = phases @ weights
                np.conjugate(phases, out=phases)
                row += np.einsum("ta,ta->t", product, phases).real
                np.conjugate(phases, out=phases)
                del product  # before the next row's product is made
            del phases  # before the next factor's phases are made
        totals[1:] /= totals[0]
    if not np.isfinite(totals).all():
        raise ValueError(f"the quantum records are not finite (dt={dt!r}, steps={steps})")

    return Trajectory(times, *totals[1:], totals[0])


OSCILLATOR_EXPR = "(1/2)*(P^2 + Q^2)"


def qm_hamiltonian(text: str) -> TensorPoly:
    """The quantum-endpoint element of the expression ``text`` in Q, P."""
    gens = make_generators()
    return eval_ncpoly(expr_mod.parse_expr(text), gens.q_qm, gens.p_qm)


@dataclass(frozen=True)
class OscillatorParams:
    """Discretization and initial data of the two-sided oscillator run; hbar is the run's."""

    q0: float = 1.0
    p0: float = 0.0
    sigma: float | None = None
    n_grid: int = 64
    n_fock: int = 32
    length: float = 16.0
    dt: float = 1e-3
    period_count: int = 1
    record_stride: int = 50

    def width(self, hbar: float = 1.0) -> float:
        return packet_width(self.sigma, hbar)

    def period_steps(self) -> int:
        """The whole number of ``dt`` steps nearest ``period_count`` periods 2 pi, at least 1."""
        try:
            steps = 2.0 * np.pi * self.period_count / self.dt
        except OverflowError:  # a period_count past the float range
            steps = np.inf
        if not np.isfinite(steps):
            raise ValueError(
                f"period_count={self.period_count} at dt={self.dt!r} has no finite step count"
            )
        return max(1, round(steps))

    def density(self, hbar: float = 1.0) -> PhaseSpaceDensity:
        """The Gaussian of width ``width(hbar)`` at (q0, p0) on the n_grid^2 box of side length."""
        s = self.width(hbar)
        return PhaseSpaceDensity.gaussian(
            self.n_grid, self.n_grid, self.length, self.length, self.q0, self.p0, s, s
        )


@dataclass
class ComparisonTable:
    """Per-time comparison of the two endpoint dynamics on one Hamiltonian."""

    classical: Trajectory
    quantum: Trajectory
    dq_abs: np.ndarray = field(init=False)
    dp_abs: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.dq_abs = np.abs(self.classical.mean_q - self.quantum.mean_q)
        self.dp_abs = np.abs(self.classical.mean_p - self.quantum.mean_p)

    @property
    def times(self) -> np.ndarray:
        return self.classical.times

    def max_dq_abs(self) -> float:
        return float(np.max(self.dq_abs))

    def max_dp_abs(self) -> float:
        return float(np.max(self.dp_abs))

    def classical_mass_drift(self) -> float:
        return self.classical.drift()

    def quantum_trace_drift(self) -> float:
        return self.quantum.drift()

    def to_csv(self, path: str) -> None:
        cl, qm = self.classical, self.quantum
        columns = {
            "t": self.times, "mean_q_cl": cl.mean_q, "mean_q_qm": qm.mean_q,
            "mean_p_cl": cl.mean_p, "mean_p_qm": qm.mean_p, "dq_abs": self.dq_abs,
            "dp_abs": self.dp_abs, "energy_cl": cl.mean_energy, "energy_qm": qm.mean_energy,
        }
        write_csv(path, list(columns), zip(*(c.tolist() for c in columns.values()), strict=True))


def oscillator_compare(params: OscillatorParams, hbar: float = 1.0) -> ComparisonTable:
    """Run both endpoint dynamics on the harmonic oscillator and tabulate.

    The classical side transports ``params.density(hbar)`` on an n_grid^2
    periodic box; the quantum side lifts the Fock packet at (q0, p0), the
    coherent state of width sqrt(hbar/2) whatever ``params.sigma``, into the
    product of two Fock factors and applies the exact propagator.  Both
    record on the same time grid; the step count is rounded so the run
    lands exactly on the requested number of periods.
    """
    steps = params.period_steps()
    dt = 2.0 * np.pi * params.period_count / steps
    classical = liouville_evolve(
        params.density(hbar), OSCILLATOR_EXPR, dt, steps, record_stride=params.record_stride
    )

    fock = build_backend("fock", params.n_fock, hbar)
    psi = factor_packet(fock, params.q0, params.p0)
    state = lift_qm_eigenstate(psi, WeightSpec.default(params.n_fock, params.n_fock))
    quantum = von_neumann_evolve(
        state, qm_hamiltonian(OSCILLATOR_EXPR), fock, fock, dt, steps,
        record_stride=params.record_stride,
    )
    return ComparisonTable(classical, quantum)
