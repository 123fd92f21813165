"""States on the product space: lifted quantum vectors, phase-space points,
diagonal mixed densities, and the mean-value rule.

A quantum eigenvector psi is carried into the big space as

    c_q * (psi (x) a (x) e_q)  +  c_p * (b (x) psi (x) e_p)

with fixed weights |c_q|^2 + |c_p|^2 = 1 and normalized padding vectors a, b.
A phase-space point (q_k, p_l) becomes the basis vector at that grid slot
tensored with a unit vector in the 2-dimensional factor.  Mixed classical
states are diagonal in the grid basis with entries rho(q_k, p_l) against a
rank-one projector on the third factor.

Vectors are flat on C^{N_q} (x) C^{N_p} (x) C^2 in ``matrep.ORDERING`` and
densities are square arrays on that space.  Means are always the ratio
Tr(rho A)/Tr(rho), which makes every construction insensitive to state
normalization conventions; the discrete normalization 1/(dq*dp) of a sharp
point is never relied on.  Each tolerance below is decided by ``matrep.within``
against the scale of what it measures (1 for a norm or a mass, ``max|A|`` for
an observable, the trace for a density), so a NaN fails it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrep import Backend, _hermitize, hermitian_defect, r_block, slots, within

_NORM_TOL = 1e-10


def _check_weights(c_q: complex, c_p: complex) -> None:
    # products of Python floats, not powers: a float power past the range
    # raises OverflowError, where the product reads inf for ``within`` to refuse
    q, p = float(abs(c_q)), float(abs(c_p))
    weight = q * q + p * p
    if not within(abs(weight - 1.0), 1.0, _NORM_TOL):
        raise ValueError(
            f"weights must satisfy |c_q|^2 + |c_p|^2 = 1, got {weight!r}"
        )


def _check_normalized(**vectors: np.ndarray) -> None:
    for name, vec in vectors.items():
        with np.errstate(over="ignore"):  # an entry past the range reads inf, refused below
            norm = float(np.linalg.norm(vec))
        if not within(abs(norm - 1.0), 1.0, _NORM_TOL):
            raise ValueError(f"{name} must be normalized, got norm {norm!r}")


@dataclass(frozen=True)
class WeightSpec:
    """The fixed lifting data: r-factor weights and padding vectors.

    ``a_vec`` pads the p-factor of the q-sector term; ``b_vec`` pads the
    q-factor of the p-sector term.
    """

    c_q: complex
    c_p: complex
    a_vec: np.ndarray
    b_vec: np.ndarray

    def validate(self) -> None:
        _check_weights(self.c_q, self.c_p)
        _check_normalized(a_vec=self.a_vec, b_vec=self.b_vec)

    @staticmethod
    def default(n_q: int, n_p: int) -> "WeightSpec":
        a = np.zeros(n_p, dtype=complex)
        b = np.zeros(n_q, dtype=complex)
        a[0] = 1.0
        b[0] = 1.0
        c = 1.0 / np.sqrt(2.0)
        return WeightSpec(c_q=c, c_p=c, a_vec=a, b_vec=b)


def lift_qm_eigenstate(
    psi: np.ndarray,
    w: WeightSpec,
    psi_p: np.ndarray | None = None,
) -> np.ndarray:
    """Lift a normalized single-factor vector into the product space, as a
    flat vector on C^{N_q} (x) C^{N_p} (x) C^2 in ``matrep.ORDERING``.

    ``psi`` rides the q-factor in the first term.  When the two factors use
    different representations (say a position grid and a momentum grid), the
    same physical vector has different coordinates on each; ``psi_p`` then
    supplies the p-factor coordinates and defaults to ``psi`` itself.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi_p is None:
        psi_p = psi
    psi_p = np.asarray(psi_p, dtype=complex)
    w.validate()
    _check_normalized(psi=psi, psi_p=psi_p)
    n_q = psi.size
    n_p = psi_p.size
    if w.b_vec.shape != (n_q,) or w.a_vec.shape != (n_p,):
        raise ValueError(
            "weight padding vectors do not match the factor dimensions:"
            f" a_vec {w.a_vec.shape} vs ({n_p},), b_vec {w.b_vec.shape} vs ({n_q},)"
        )
    out = np.zeros(2 * n_q * n_p, dtype=complex)
    slots(out, n_q, n_p)[:] = w.c_q * np.outer(psi, w.a_vec), w.c_p * np.outer(w.b_vec, psi_p)
    return out


def cm_point_state(
    bq: Backend,
    bp: Backend,
    k: int,
    l: int,
    c_q: complex,
    c_p: complex,
) -> np.ndarray:
    """Basis vector at grid slot (k, l) with a unit r-factor direction, flat
    on C^{N_q} (x) C^{N_p} (x) C^2 in ``matrep.ORDERING``.

    Requires the factor-q backend to diagonalize Q and the factor-p backend
    to diagonalize P, so the result is a simultaneous eigenvector of every
    polynomial in the commuting pair.
    """
    if bq.kind != "grid-position" or bp.kind != "grid-momentum":
        raise ValueError(
            "point states need a grid-position factor q and a grid-momentum"
            f" factor p, got {bq.kind!r} and {bp.kind!r}"
        )
    if not 0 <= k < bq.dim:
        raise ValueError(f"grid index k={k} out of range for dim {bq.dim}")
    if not 0 <= l < bp.dim:
        raise ValueError(f"grid index l={l} out of range for dim {bp.dim}")
    _check_weights(c_q, c_p)
    out = np.zeros(2 * bq.dim * bp.dim, dtype=complex)
    slots(out, bq.dim, bp.dim)[:, k, l] = c_q, c_p
    return out


def check_density(grid: np.ndarray, dq: float, dp: float) -> None:
    """ValueError unless ``grid`` is 2-D, nonnegative and of unit mass on cells dq x dp."""
    if grid.ndim != 2:
        raise ValueError(f"density grid must be 2-dimensional, got shape {grid.shape}")
    if not grid.min() >= -1e-12:
        raise ValueError(f"density has negative or NaN entries (min {float(grid.min())!r})")
    mass = float(grid.sum() * dq * dp)
    if not within(abs(mass - 1.0), 1.0, _NORM_TOL):
        raise ValueError(f"density must have unit mass, got {mass!r}")


def cm_mixed_density(rho_grid, c_q: complex, c_p: complex) -> np.ndarray:
    """Diagonal density array from a phase-space distribution.

    ``rho_grid`` is any object with ``grid`` (N_q x N_p nonnegative reals),
    ``dq``, and ``dp``.  The result is diagonal in the grid basis with the
    distribution values on the diagonal, tensored with the rank-one
    projector onto c_q e_q + c_p e_p.
    """
    grid = np.asarray(rho_grid.grid, dtype=float)
    # rho_grid may have been changed since it was checked on construction
    check_density(grid, float(rho_grid.dq), float(rho_grid.dp))
    _check_weights(c_q, c_p)
    r_vec = np.array([c_q, c_p], dtype=complex)
    projector = np.outer(r_vec, r_vec.conj())
    rho = np.zeros((2 * grid.size, 2 * grid.size), dtype=complex)
    for i, j in np.ndindex(2, 2):  # an r-block is indexed (i_q, i_p), as the grid
        np.fill_diagonal(r_block(rho, i, j), grid.reshape(-1) * projector[i, j])
    return rho


def mean_value(rho: np.ndarray, a: np.ndarray) -> float:
    """Normalized expectation Tr(rho A)/Tr(rho) of a density ``rho``.

    ``a`` must be Hermitian and the ratio must come out finite and real, both
    to within ``1e-10 * max|a|``; the residual imaginary part is then
    discarded.
    """
    defect, scale = hermitian_defect(a), float(np.max(np.abs(a)))
    tol = 1e-10 * scale
    if not within(defect, scale, 1e-10):
        raise ValueError(f"observable is not Hermitian (defect {defect:.3e} > {tol:.3e})")
    if rho.shape != a.shape:
        raise ValueError(f"dimension mismatch: state {rho.shape}, observable {a.shape}")
    with np.errstate(all="ignore"):  # an overflow is refused below
        numer, denom = np.einsum("ij,ji->", rho, a), np.trace(rho)
        if denom == 0:
            raise ValueError("state has zero trace")
        ratio = numer / denom
    if not np.isfinite(ratio):
        raise ValueError(f"mean value is not finite: {complex(ratio)}")
    if not within(abs(ratio.imag), scale, 1e-10):
        raise ValueError(
            f"mean value has non-negligible imaginary part {ratio.imag:.3e} (> {tol:.3e})"
        )
    return float(ratio.real)


@dataclass(frozen=True)
class StateReport:
    """Measured state-axiom quantities; the pass thresholds are relative to the
    trace, so any positive multiple of a valid density passes."""

    hermitian_defect: float
    min_eigenvalue: float
    trace: float

    @property
    def passed(self) -> bool:
        return (
            self.trace > 0
            and within(self.hermitian_defect, self.trace, 1e-12)
            # max(x, 0.0), not max(0.0, x), so a NaN eigenvalue stays NaN
            and within(max(-self.min_eigenvalue, 0.0), self.trace, 1e-10)
        )


def validate_state(rho: np.ndarray) -> StateReport:
    defect = hermitian_defect(rho) if rho.size else 0.0
    eigenvalues = np.linalg.eigvalsh(_hermitize(rho))
    return StateReport(
        hermitian_defect=defect,
        min_eigenvalue=float(eigenvalues.min()) if eigenvalues.size else 0.0,
        trace=float(np.trace(rho).real),
    )


def _normalized(amp: np.ndarray, what: str) -> np.ndarray:
    """``amp`` over its norm; ValueError unless it is finite with a nonzero norm."""
    norm = np.linalg.norm(amp)
    if not (np.isfinite(amp).all() and 0 < norm < np.inf):
        raise ValueError(f"{what} is not finite or has zero norm")
    amp /= norm
    return amp


def coherent_state(n: int, alpha: complex) -> np.ndarray:
    """Truncated oscillator coherent state, renormalized after truncation."""
    if n < 1:
        raise ValueError("need at least one level")
    amps = np.empty(n, dtype=complex)
    amps[0] = 1.0
    with np.errstate(all="ignore"):  # an overflow is refused by _normalized
        for level in range(1, n):
            amps[level] = amps[level - 1] * alpha / np.sqrt(level)
        return _normalized(amps, f"the coherent state of alpha={alpha:.3g} on {n} levels")


def packet_width(sigma: float | None, hbar: float) -> float:
    """``sigma``, or when it is null the coherent-state width sqrt(hbar/2)."""
    return float(np.sqrt(hbar / 2.0)) if sigma is None else sigma


def factor_packet(
    backend: Backend, q0: float, p0: float, sigma: float | None = None
) -> np.ndarray:
    """The normalized packet at (q0, p0) on one factor: ``gaussian_grid_state``
    on a grid; on a Fock factor the coherent state of amplitude
    (q0 + i p0)/sqrt(2 hbar), of width sqrt(hbar/2) whatever ``sigma``."""
    if backend.is_grid:
        return gaussian_grid_state(backend, q0, p0, sigma)
    return coherent_state(backend.dim, (q0 + 1j * p0) / np.sqrt(2.0 * backend.hbar))


def gaussian_grid_state(
    backend: Backend,
    q0: float,
    p0: float,
    sigma: float | None = None,
) -> np.ndarray:
    """Normalized Gaussian packet of width ``packet_width(sigma, hbar)`` on a grid backend.

    On a position grid the packet is centered at q0 with momentum phase p0;
    on a momentum grid it is the conjugate-representation packet (width
    hbar/(2*sigma) around p0 with position phase -q0).
    """
    if not backend.is_grid:
        raise ValueError("gaussian_grid_state needs a grid backend")
    hbar = backend.hbar
    sigma = packet_width(sigma, hbar)
    x = np.asarray(backend.basis_labels, dtype=float)
    what = f"the Gaussian of width sigma={sigma!r} on this grid"
    # an overflow or a vanishing width is refused here or by _normalized
    with np.errstate(all="ignore"):
        try:
            if backend.kind == "grid-position":
                amp = np.exp(-((x - q0) ** 2) / (4.0 * sigma**2) + 1j * p0 * x / hbar)
            else:
                sigma_p = hbar / (2.0 * sigma)
                amp = np.exp(-((x - p0) ** 2) / (4.0 * sigma_p**2) - 1j * q0 * x / hbar)
        except OverflowError:  # a square of Python floats past the float range
            raise ValueError(f"{what} is not finite or has zero norm") from None
        return _normalized(amp.astype(complex), what)
