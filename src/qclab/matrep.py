"""Finite-dimensional matrix realization of the three-factor algebra.

Two backend families realize the single-factor pair (Q, P):

* ``fock``: truncated harmonic-oscillator ladder construction.  The
  commutator is ``i*hbar*(I - N |N-1><N-1|)`` exactly, so canonical-pair
  identities hold on the "bulk" (everything below the top level) and the
  unavoidable truncation defect is confined to the top level.
* ``grid-position`` / ``grid-momentum``: periodic grid of N points with the
  conjugate operator built through the unitary discrete Fourier transform.
  One of Q, P is exactly diagonal, which makes phase-space constructions
  (point states, diagonal densities) exact.

The full space is C^{N_q} (x) C^{N_p} (x) C^2.  The flat index convention
is fixed once and verified by round-trip tests:

    flat = (i_q * N_p + i_p) * 2 + i_r

i.e. the 2-dimensional factor varies fastest, matching
``kron(A_q, kron(A_p, R))``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .ncpoly import TensorPoly, tp_commutator

ORDERING = "flat=(i_q*N_p+i_p)*2+i_r"

_KIND_ALIASES = {
    "fock": "fock",
    "grid-position": "grid-position",
    "gridposition": "grid-position",
    "grid_position": "grid-position",
    "grid-momentum": "grid-momentum",
    "gridmomentum": "grid-momentum",
    "grid_momentum": "grid-momentum",
}


def _canonical_kind(kind: str) -> str:
    try:
        return _KIND_ALIASES[kind.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown backend kind {kind!r}; expected fock, grid-position,"
            " or grid-momentum"
        ) from None


@dataclass(frozen=True, eq=False)
class Backend:
    """Single-factor realization of (Q, P) on C^N."""

    kind: str
    dim: int
    hbar: float
    length: float | None
    qmat: np.ndarray
    pmat: np.ndarray
    basis_labels: np.ndarray

    @property
    def is_grid(self) -> bool:
        return self.kind != "fock"


def _dft_matrix(n: int) -> np.ndarray:
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * np.pi * j * k / n) / np.sqrt(n)


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def check_backend(kind: str, n: int, length: float | None = None) -> str:
    """The canonical kind of a backend spec; ValueError if ``kind``, ``n`` or
    ``length`` cannot make a backend (grid kinds need a positive extent)."""
    kind = _canonical_kind(kind)
    if n < 2:
        raise ValueError(f"backend dimension must be at least 2, got {n}")
    if kind != "fock" and (length is None or length <= 0):
        raise ValueError(f"grid backends need a positive length, got {length}")
    return kind


def build_backend(kind: str, n: int, hbar: float, length: float | None = None) -> Backend:
    """Construct a backend; grid kinds require a positive extent ``length``."""
    kind = check_backend(kind, n, length)
    if hbar <= 0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    if kind == "fock":
        lowering = np.diag(np.sqrt(np.arange(1, n, dtype=float)), k=1)
        raising = lowering.conj().T
        qmat = np.sqrt(hbar / 2.0) * (lowering + raising).astype(complex)
        pmat = 1j * np.sqrt(hbar / 2.0) * (raising - lowering)
        labels = np.arange(n, dtype=float)
        return Backend("fock", n, float(hbar), None, _freeze(qmat), _freeze(pmat), _freeze(labels))
    spacing = length / n
    points = -length / 2.0 + spacing * np.arange(n)
    conjugate = 2.0 * np.pi * hbar * np.fft.fftfreq(n, d=spacing)
    f = _dft_matrix(n)
    if kind == "grid-position":
        qmat = np.diag(points.astype(complex))
        pmat = _hermitize(f.conj().T @ np.diag(conjugate.astype(complex)) @ f)
    else:
        # momentum grid: P diagonal on the grid, Q = F diag(conjugate) F^dagger
        # (the sign follows from Q acting as +i*hbar d/dp in this representation)
        pmat = np.diag(points.astype(complex))
        qmat = _hermitize(f @ np.diag(conjugate.astype(complex)) @ f.conj().T)
    return Backend(kind, n, float(hbar), float(length), _freeze(qmat), _freeze(pmat), _freeze(points))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TensorMatrix:
    """Dense matrix on C^{N_q} (x) C^{N_p} (x) C^2 with the fixed flat ordering."""

    dim_q: int
    dim_p: int
    data: np.ndarray
    ordering: str = ORDERING

    @property
    def dim(self) -> int:
        return self.dim_q * self.dim_p * 2


def flatten(i_q: int, i_p: int, i_r: int, dim_q: int, dim_p: int) -> int:
    if not (0 <= i_q < dim_q and 0 <= i_p < dim_p and 0 <= i_r < 2):
        raise ValueError(f"index ({i_q}, {i_p}, {i_r}) out of range")
    return (i_q * dim_p + i_p) * 2 + i_r


def unflatten(flat: int, dim_q: int, dim_p: int) -> tuple[int, int, int]:
    if not 0 <= flat < dim_q * dim_p * 2:
        raise ValueError(f"flat index {flat} out of range")
    i_r = flat % 2
    rest = flat // 2
    return rest // dim_p, rest % dim_p, i_r


def _matrix_powers(mat: np.ndarray, max_power: int) -> list[np.ndarray]:
    powers = [np.eye(mat.shape[0], dtype=complex)]
    for _ in range(max_power):
        powers.append(powers[-1] @ mat)
    return powers


def _factor_words(a: TensorPoly, bq: Backend, bp: Backend):
    """Check that ``a`` can be realized on ``bq``, ``bp``; return its hbar and
    ``word(k, m, n)``, the matrix ``Q^m P^n`` on factor k (0: q, 1: p).

    Words are read from power tables of each factor's Q and P, built once up
    to the largest exponent ``a`` uses.
    """
    if a.has_lambda:
        raise ValueError(
            "element still depends on the symbolic interpolation weight;"
            " call substitute_lambda first or pass lam="
        )
    if bq.hbar != bp.hbar:
        raise ValueError(
            f"backends disagree on hbar ({bq.hbar} vs {bp.hbar})"
        )
    keys = a.terms.keys()
    tables = [
        (
            _matrix_powers(np.asarray(b.qmat), max((k[2 * f] for k in keys), default=0)),
            _matrix_powers(np.asarray(b.pmat), max((k[2 * f + 1] for k in keys), default=0)),
        )
        for f, b in enumerate((bq, bp))
    ]

    def word(k: int, m: int, n: int) -> np.ndarray:
        qpow, ppow = tables[k]
        return qpow[m] @ ppow[n]

    return bq.hbar, word


def realize(
    a: TensorPoly,
    bq: Backend,
    bp: Backend,
    lam: float | Fraction | None = None,
) -> TensorMatrix:
    """Evaluate a TensorPoly as a dense matrix on the product space.

    ``a`` must be free of the symbolic interpolation weight; pass ``lam`` to
    substitute it first.  Both backends must share the same hbar, at which
    the polynomial hbar-dependence of the coefficients is evaluated.
    """
    if lam is not None:
        a = a.substitute_lambda(Fraction(lam))
    hbar, word = _factor_words(a, bq, bp)
    dim = bq.dim * bp.dim * 2
    data = np.zeros((dim, dim), dtype=complex)
    for (mq, nq, mp, np_, i, j), coeff in sorted(a.terms.items()):
        c = coeff.evaluate(hbar)
        # the r index varies fastest, so E_ij selects the (i, j) stride-2 block
        data[i::2, j::2] += c * np.kron(word(0, mq, nq), word(1, mp, np_))
    return TensorMatrix(bq.dim, bp.dim, _freeze(data))


def qm_factors(a: TensorPoly, bq: Backend, bp: Backend) -> tuple[np.ndarray, np.ndarray]:
    """The factor matrices ``(A, B)`` of ``a = A (x) 1 (x) E_qq + 1 (x) B (x) E_pp``.

    Every polynomial in the quantum generators ``q_qm``, ``p_qm`` has this
    form: it keeps each r-sector and acts there on one factor only.  A is
    N_q x N_q and B is N_p x N_p, with the entries ``realize`` gives the
    matching blocks.  Raises ValueError on a term that couples the two
    r-sectors or acts on the other factor of its sector.
    """
    hbar, word = _factor_words(a, bq, bp)
    factors = [np.zeros((b.dim, b.dim), dtype=complex) for b in (bq, bp)]
    for key, coeff in sorted(a.terms.items()):
        mq, nq, mp, np_, i, j = key
        if i != j:
            raise ValueError(f"term {key} couples the two r-sectors")
        own, other = ((mq, nq), (mp, np_)) if i == 0 else ((mp, np_), (mq, nq))
        if other != (0, 0):
            raise ValueError(f"term {key} acts on the other factor of its r-sector")
        factors[i] += coeff.evaluate(hbar) * word(i, *own)
    return factors[0], factors[1]


def _bulk_mask(bq: Backend, bp: Backend) -> np.ndarray:
    """Flat-index mask excluding the top Fock level of each Fock factor."""
    keep_q = np.ones(bq.dim, dtype=bool)
    keep_p = np.ones(bp.dim, dtype=bool)
    if bq.kind == "fock":
        keep_q[-1] = False
    if bp.kind == "fock":
        keep_p[-1] = False
    keep = np.kron(np.kron(keep_q, keep_p), np.ones(2, dtype=bool))
    return keep.astype(bool)


def commutator_defect(
    bq: Backend,
    bp: Backend,
    a: TensorPoly,
    b: TensorPoly,
    lam: float | Fraction | None = None,
) -> dict[str, float]:
    """Compare the symbolic commutator against the matrix commutator.

    Returns the max-entry discrepancy over the whole space (``defect_norm``)
    and restricted to the bulk rows and columns (``bulk_defect_norm``), the
    bulk being everything below the top level of each Fock factor.
    """
    sym = realize(tp_commutator(a, b), bq, bp, lam=lam).data
    ma = realize(a, bq, bp, lam=lam).data
    mb = realize(b, bq, bp, lam=lam).data
    defect = sym - (ma @ mb - mb @ ma)
    return {
        "defect_norm": float(np.max(np.abs(defect))) if defect.size else 0.0,
        "bulk_defect_norm": bulk_max(defect, bq, bp),
    }


def bulk_max(m: np.ndarray, bq: Backend, bp: Backend) -> float:
    """Largest entry modulus of ``m`` over the bulk rows and columns."""
    keep = _bulk_mask(bq, bp)
    bulk = m if keep.all() else m[np.ix_(keep, keep)]
    return float(np.max(np.abs(bulk))) if bulk.size else 0.0


def kernel_block(m: TensorMatrix, i: str | int, j: str | int) -> np.ndarray:
    """Extract the (i, j) r-factor block, an (N_q N_p) x (N_q N_p) kernel."""
    bi = _r_index(i)
    bj = _r_index(j)
    return np.array(m.data[bi::2, bj::2])


def _r_index(label: str | int) -> int:
    if label in (0, 1):
        return int(label)
    if isinstance(label, str) and label.lower() in ("q", "p"):
        return 0 if label.lower() == "q" else 1
    raise ValueError(f"r-factor index must be 'q', 'p', 0, or 1; got {label!r}")


def hermitian_defect(m: TensorMatrix | np.ndarray) -> float:
    data = m.data if isinstance(m, TensorMatrix) else m
    return float(np.max(np.abs(data - data.conj().T)))


def hermitian_tolerance(m: TensorMatrix | np.ndarray) -> float:
    """Largest Hermitian defect of ``m`` that is roundoff: ``1e-10 * max(1, max|m|)``.

    The defect of a realized Hermitian element grows with its entries (a
    ``Q^8`` on a grid has entries near 1e6), so the bound scales with them.
    """
    data = m.data if isinstance(m, TensorMatrix) else m
    return 1e-10 * max(1.0, float(np.max(np.abs(data))))


def spectrum(m: TensorMatrix, group_tol: float = 1e-8) -> list[tuple[float, int]]:
    """Eigenvalues of a Hermitian TensorMatrix, ascending, with multiplicities.

    Eigenvalues closer than ``group_tol`` to their predecessor are merged
    into one group reported at the group mean.
    """
    defect = hermitian_defect(m)
    if defect > hermitian_tolerance(m):
        raise ValueError(
            f"matrix is not Hermitian (defect {defect:.3e} > 1e-10)"
        )
    values = np.linalg.eigvalsh(_hermitize(np.asarray(m.data)))
    out: list[tuple[float, int]] = []
    group: list[float] = []
    for v in values:
        if group and v - group[-1] > group_tol:
            out.append((float(np.mean(group)), len(group)))
            group = []
        group.append(float(v))
    if group:
        out.append((float(np.mean(group)), len(group)))
    return out


def export_matrix(
    m: TensorMatrix,
    path: str,
    kind: Mapping[str, str] | str,
    hbar: float,
) -> None:
    """Write the matrix in the documented binary layout plus a JSON sidecar.

    Layout: entries in column-major order, each entry as two consecutive
    little-endian float64 values (real part then imaginary part).  The
    sidecar at ``path + '.json'`` records kind, dims, hbar, and ordering.
    """
    flat = np.asarray(m.data).flatten(order="F")
    interleaved = np.empty(2 * flat.size, dtype="<f8")
    interleaved[0::2] = flat.real
    interleaved[1::2] = flat.imag
    with open(path, "wb") as fh:
        fh.write(interleaved.tobytes())
    sidecar = {
        "kind": kind if isinstance(kind, str) else dict(kind),
        "dims": [m.dim_q, m.dim_p, 2],
        "hbar": hbar,
        "ordering": m.ordering,
    }
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)
        fh.write("\n")


def import_matrix(path: str) -> TensorMatrix:
    """Read a matrix written by :func:`export_matrix`."""
    with open(path + ".json", "r", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    dim_q, dim_p, _ = sidecar["dims"]
    n = dim_q * dim_p * 2
    raw = np.fromfile(path, dtype="<f8")
    if raw.size != 2 * n * n:
        raise ValueError(f"binary payload has {raw.size} floats, expected {2 * n * n}")
    data = (raw[0::2] + 1j * raw[1::2]).reshape((n, n), order="F")
    return TensorMatrix(dim_q, dim_p, _freeze(data), sidecar["ordering"])


def export_kernel_csv(block: np.ndarray, path: str) -> None:
    """Write one r-block as CSV rows (row, col, re, im)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("row,col,re,im\n")
        n_rows, n_cols = block.shape
        for r in range(n_rows):
            for c in range(n_cols):
                v = block[r, c]
                fh.write(f"{r},{c},{format_float(v.real)},{format_float(v.imag)}\n")


def format_float(x: float) -> str:
    """Deterministic, round-trip float rendering shared by all writers."""
    return repr(float(x))
