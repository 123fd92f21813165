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


def _word(qpow: list, ppow: list, m: int, n: int) -> np.ndarray:
    """``Q^m P^n`` from the power tables; a product with the identity is
    skipped, since it changes no entry."""
    if n == 0:
        return qpow[m]
    if m == 0:
        return ppow[n]
    return qpow[m] @ ppow[n]


def _factored(
    bq: Backend,
    bp: Backend,
    *elements: TensorPoly,
    lam: float | Fraction | None = None,
) -> list:
    """One iterator per element over its terms ``(i, j, c, X, Y)``, each
    meaning ``c * X (x) Y (x) E_ij``, in sorted key order.

    ``lam`` is substituted first; the elements must then be free of the
    symbolic weight, and the backends must share hbar, at which the
    coefficients are evaluated.  X is the word ``Q^m P^n`` on the q factor
    and Y the word on the p factor, read from power tables of each factor's
    Q and P.  The checks and the tables run before any term is read; a
    term's matrices are built only when its iterator reaches it.
    """
    if lam is not None:
        elements = tuple(a.substitute_lambda(Fraction(lam)) for a in elements)
    if any(a.has_lambda for a in elements):
        raise ValueError(
            "element still depends on the symbolic interpolation weight;"
            " call substitute_lambda first or pass lam="
        )
    if bq.hbar != bp.hbar:
        raise ValueError(
            f"backends disagree on hbar ({bq.hbar} vs {bp.hbar})"
        )
    keys = [k for a in elements for k in a.terms]
    tables = [
        (
            _matrix_powers(np.asarray(b.qmat), max((k[2 * f] for k in keys), default=0)),
            _matrix_powers(np.asarray(b.pmat), max((k[2 * f + 1] for k in keys), default=0)),
        )
        for f, b in enumerate((bq, bp))
    ]

    def terms(a: TensorPoly):
        for (mq, nq, mp, np_, i, j), coeff in sorted(a.terms.items()):
            x, y = _word(*tables[0], mq, nq), _word(*tables[1], mp, np_)
            yield i, j, coeff.evaluate(bq.hbar), x, y

    return [terms(a) for a in elements]


def _products(left, right):
    """The terms of the product of two factored elements.

    ``(X (x) Y (x) E_ij)(X' (x) Y' (x) E_kl) = delta_jk XX' (x) YY' (x) E_il``
    (Van Loan, "The ubiquitous Kronecker product", J. Comput. Appl. Math.
    123 (2000)), so each pair of terms with matching inner r-index costs two
    N x N products, and no two product-space matrices are multiplied.
    """
    right = list(right)
    for i, j, c, x, y in left:
        for k, l, c2, x2, y2 in right:
            if j == k:
                yield i, l, c * c2, x @ x2, y @ y2


def _add_term(block: np.ndarray, c: complex, x: np.ndarray, y: np.ndarray) -> None:
    """Add ``c * (x (x) y)`` into ``block``, an r-block of a product-space matrix."""
    # the outer product indexed (row_x, row_y, col_x, col_y) is kron(x, y)
    term = x[:, None, :, None] * y[None, :, None, :]
    term *= c
    block += term.reshape(block.shape)


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
    (terms,) = _factored(bq, bp, a, lam=lam)
    dim = bq.dim * bp.dim * 2
    data = np.zeros((dim, dim), dtype=complex)
    for i, j, c, x, y in terms:
        # the r index varies fastest, so E_ij selects the (i, j) stride-2 block
        _add_term(data[i::2, j::2], c, x, y)
    return TensorMatrix(bq.dim, bp.dim, _freeze(data))


def quadratic_form(a: TensorPoly, bq: Backend, bp: Backend, vec: np.ndarray) -> complex:
    """``<v|A|v>`` for the realization A of ``a``, with no product-space matrix.

    In the flat ordering, ``v`` reshaped to ``(N_q, N_p, 2)`` holds one
    N_q x N_p matrix ``psi_i`` per r-slot, and ``(X (x) Y) vec(M) =
    vec(X M Y^T)`` for row-major ``vec`` (Van Loan, "The ubiquitous Kronecker
    product", J. Comput. Appl. Math. 123 (2000)).  So a term
    ``c X (x) Y (x) E_ij`` adds ``c <psi_i, X psi_j Y^T>``: N x N work.
    """
    (terms,) = _factored(bq, bp, a)
    psi = np.moveaxis(np.asarray(vec).reshape(bq.dim, bp.dim, 2), 2, 0)
    return complex(
        sum(c * np.vdot(psi[i], x @ psi[j] @ y.T) for i, j, c, x, y in terms)
    )


def qm_factors(a: TensorPoly, bq: Backend, bp: Backend) -> tuple[np.ndarray, np.ndarray]:
    """The factor matrices ``(A, B)`` of ``a = A (x) 1 (x) E_qq + 1 (x) B (x) E_pp``.

    Every polynomial in the quantum generators ``q_qm``, ``p_qm`` has this
    form: it keeps each r-sector and acts there on one factor only.  A is
    N_q x N_q and B is N_p x N_p, with the entries ``realize`` gives the
    matching blocks.  Raises ValueError on a term that couples the two
    r-sectors or acts on the other factor of its sector.
    """
    for key in sorted(a.terms):
        mq, nq, mp, np_, i, j = key
        if i != j:
            raise ValueError(f"term {key} couples the two r-sectors")
        if ((mp, np_) if i == 0 else (mq, nq)) != (0, 0):
            raise ValueError(f"term {key} acts on the other factor of its r-sector")
    (terms,) = _factored(bq, bp, a)
    factors = [np.zeros((b.dim, b.dim), dtype=complex) for b in (bq, bp)]
    for i, _, c, x, y in terms:
        factors[i] += c * (x, y)[i]
    return factors[0], factors[1]


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
    fa, fb, fsym = _factored(bq, bp, a, b, tp_commutator(a, b), lam=lam)
    fa, fb = list(fa), list(fb)
    # sym - (AB - BA), accumulated as BA - AB + sym into r-blocks:
    # defect[i, j] is the M x M kernel of E_ij
    m = bq.dim * bp.dim
    defect = np.zeros((2, 2, m, m), dtype=complex)
    for i, l, c, x, y in _products(fb, fa):
        _add_term(defect[i, l], c, x, y)
    for i, l, c, x, y in _products(fa, fb):
        _add_term(defect[i, l], -c, x, y)
    for i, j, c, x, y in fsym:
        _add_term(defect[i, j], c, x, y)
    # the bulk of a factor is a leading run of its levels (all but the top
    # Fock level), so it is a leading slice of each factor axis of a view
    kq, kp = (f.dim - (f.kind == "fock") for f in (bq, bp))
    bulk = defect.reshape(2, 2, bq.dim, bp.dim, bq.dim, bp.dim)[:, :, :kq, :kp, :kq, :kp]
    return {
        "defect_norm": float(np.max(np.abs(defect))),
        "bulk_defect_norm": float(np.max(np.abs(bulk))),
    }


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
