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

import itertools
import json
from dataclasses import dataclass

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
    f = _dft_matrix(n)
    with np.errstate(all="ignore"):  # an overflow is refused below
        conjugate = 2.0 * np.pi * hbar * np.fft.fftfreq(n, d=spacing)
        if kind == "grid-position":
            qmat = np.diag(points.astype(complex))
            pmat = _hermitize(f.conj().T @ np.diag(conjugate.astype(complex)) @ f)
        else:
            # momentum grid: P diagonal on the grid, Q = F diag(conjugate) F^dagger
            # (the sign follows from Q acting as +i*hbar d/dp in this representation)
            pmat = np.diag(points.astype(complex))
            qmat = _hermitize(f @ np.diag(conjugate.astype(complex)) @ f.conj().T)
    if not (np.isfinite(qmat).all() and np.isfinite(pmat).all()):
        raise ValueError(
            f"the {kind} backend of {n} points on length {length!r} at hbar={hbar!r}"
            " has a Q or P that is not finite"
        )
    return Backend(kind, n, float(hbar), float(length), _freeze(qmat), _freeze(pmat), _freeze(points))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


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


def _word(qpow: list, ppow: list, word: tuple) -> np.ndarray:
    """The matrix of a factor word from the power tables.

    ``word`` is ``(m, n)`` for ``Q^m P^n`` or ``(m, n, m', n')`` for the
    unreduced ``Q^m P^n Q^m' P^n'``, multiplied as written.  A product with
    the identity is skipped, since it changes no entry.
    """
    m, n, *rest = word
    x = qpow[m] if n == 0 else ppow[n] if m == 0 else qpow[m] @ ppow[n]
    return x @ _word(qpow, ppow, rest) if rest else x


# A term map sends (i, j, q-word, p-word) to a coefficient c, meaning the
# term c * X (x) Y (x) E_ij, where X and Y are the words' matrices (see
# ``_word``) on the q and p factor.


def _term_map(a: TensorPoly) -> dict:
    """The terms of ``a`` in sorted key order."""
    return {
        (i, j, (mq, nq), (mp, np_)): c
        for (mq, nq, mp, np_, i, j), c in sorted(a.terms.items())
    }


def _factored(bq: Backend, bp: Backend, *maps: dict) -> list:
    """One iterator per term map over its terms ``(i, j, c, X, Y)``, each
    meaning ``c * X (x) Y (x) E_ij``, in the map's order.

    The coefficients must be free of the symbolic weight, and the backends
    must share hbar, at which the coefficients are evaluated.  X and Y are
    read from power tables of each factor's Q and P.  The checks and the
    tables run before any term is read; a term's matrices are built only
    when its iterator reaches it.
    """
    if any(c.has_lambda for m in maps for c in m.values()):
        raise ValueError(
            "element still depends on the symbolic interpolation weight;"
            " call substitute_lambda first"
        )
    if bq.hbar != bp.hbar:
        raise ValueError(
            f"backends disagree on hbar ({bq.hbar} vs {bp.hbar})"
        )
    tables = []
    for f, b in enumerate((bq, bp)):
        words = [key[2 + f] for m in maps for key in m]
        tables.append((
            _matrix_powers(np.asarray(b.qmat), max((max(w[0::2]) for w in words), default=0)),
            _matrix_powers(np.asarray(b.pmat), max((max(w[1::2]) for w in words), default=0)),
        ))

    def terms(m: dict):
        for (i, j, wq, wp), coeff in m.items():
            yield i, j, coeff.evaluate(bq.hbar), _word(*tables[0], wq), _word(*tables[1], wp)

    return [terms(m) for m in maps]


# Most a dense reading allocates at once: 1 GiB of complex entries, for the
# product-space matrix together with the term temporary of ``_add_term``
# (a realization up to dimension 7327; the verify suite peaks at 128, since
# homomorphism-bulk and oscillator-spectrum read the quantum pair's factors).
MAX_DENSE_BYTES = 1 << 30


def _dense_zeros(dim: int, term_dim: int) -> np.ndarray:
    """A complex ``dim x dim`` zero matrix that ``_add_term`` fills with
    ``term_dim x term_dim`` terms, refused (ValueError) before it is
    allocated when the two need more than ``MAX_DENSE_BYTES``."""
    size = 16 * (dim * dim + term_dim * term_dim)
    if size > MAX_DENSE_BYTES:
        raise ValueError(
            f"a dense {dim} x {dim} matrix and its {term_dim} x {term_dim} term"
            f" need {size / 2**30:.1f} GiB, above the"
            f" {MAX_DENSE_BYTES / 2**30:g} GiB bound"
        )
    return np.zeros((dim, dim), dtype=complex)


def _add_term(block: np.ndarray, c: complex, x: np.ndarray, y: np.ndarray) -> None:
    """Add ``c * (x (x) y)`` into ``block``, an r-block of a product-space matrix."""
    # the outer product indexed (row_x, row_y, col_x, col_y) is kron(x, y)
    term = x[:, None, :, None] * y[None, :, None, :]
    term *= c
    block += term.reshape(block.shape)


def realize(a: TensorPoly, bq: Backend, bp: Backend) -> np.ndarray:
    """Evaluate a TensorPoly as a dense, read-only ``2N_qN_p x 2N_qN_p``
    matrix on the product space, rows and columns in ``ORDERING``.

    ``a`` must be free of the symbolic interpolation weight (substitute it
    first).  Both backends must share the same hbar, at which the
    polynomial hbar-dependence of the coefficients is evaluated.  A matrix
    that needs more than ``MAX_DENSE_BYTES`` with its term temporary is
    refused with ValueError.
    """
    (terms,) = _factored(bq, bp, _term_map(a))
    data = _dense_zeros(bq.dim * bp.dim * 2, bq.dim * bp.dim)
    for i, j, c, x, y in terms:
        # the r index varies fastest, so E_ij selects the (i, j) stride-2 block
        _add_term(data[i::2, j::2], c, x, y)
    return _freeze(data)


def _slots(bq: Backend, bp: Backend, vec: np.ndarray) -> np.ndarray:
    """``vec`` in the flat ordering as its two r-slots, each an N_q x N_p
    matrix ``psi_i`` (a view, shape ``(2, N_q, N_p)``)."""
    return np.moveaxis(np.asarray(vec).reshape(bq.dim, bp.dim, 2), 2, 0)


def _term_images(a: TensorPoly, bq: Backend, bp: Backend, psi: np.ndarray):
    """For each term ``c X (x) Y (x) E_ij`` of ``a``, in sorted key order,
    ``(i, c, X psi_j Y^T)``: the term maps slot j of the vector with r-slots
    ``psi`` (``_slots``) to ``c X psi_j Y^T`` in slot i.

    ``(X (x) Y) vec(M) = vec(X M Y^T)`` for row-major ``vec`` (Van Loan, "The
    ubiquitous Kronecker product", J. Comput. Appl. Math. 123 (2000)), so a
    term costs N x N products and no product-space matrix is formed.
    """
    (terms,) = _factored(bq, bp, _term_map(a))
    for i, j, c, x, y in terms:
        yield i, c, x @ psi[j] @ y.T


def quadratic_form(a: TensorPoly, bq: Backend, bp: Backend, vec: np.ndarray) -> complex:
    """``<v|A|v>`` for the realization A of ``a``, with no product-space matrix:
    a term ``c X (x) Y (x) E_ij`` adds ``c <psi_i, X psi_j Y^T>``
    (``_term_images``)."""
    psi = _slots(bq, bp, vec)
    return complex(sum(c * np.vdot(psi[i], image) for i, c, image in _term_images(a, bq, bp, psi)))


def apply(a: TensorPoly, bq: Backend, bp: Backend, vec: np.ndarray) -> np.ndarray:
    """``A v`` in the flat ordering for the realization A of ``a``, with no
    product-space matrix: a term ``c X (x) Y (x) E_ij`` adds
    ``c X psi_j Y^T`` into r-slot i (``_term_images``)."""
    psi = _slots(bq, bp, vec)
    out = np.zeros(psi.shape, dtype=complex)
    for i, c, image in _term_images(a, bq, bp, psi):
        out[i] += c * image
    return np.moveaxis(out, 0, 2).reshape(-1)


def entry_bound(a: TensorPoly, bq: Backend, bp: Backend) -> float:
    """``sum |c| max|X| max|Y|`` over the terms ``c X (x) Y (x) E_ij`` of ``a``:
    a bound on the largest entry modulus of ``realize(a)``, from the factors."""
    (terms,) = _factored(bq, bp, _term_map(a))
    return float(sum(abs(c) * np.abs(x).max() * np.abs(y).max() for _, _, c, x, y in terms))


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
    (terms,) = _factored(bq, bp, _term_map(a))
    factors = [np.zeros((b.dim, b.dim), dtype=complex) for b in (bq, bp)]
    for i, _, c, x, y in terms:
        factors[i] += c * (x, y)[i]
    return factors[0], factors[1]


def qm_product_defect(
    a: TensorPoly, b: TensorPoly, bq: Backend, bp: Backend, levels: int
) -> float:
    """Largest entry modulus of ``realize(a*b) - realize(a) @ realize(b)`` on
    the bottom ``levels`` levels of each factor, for polynomials in the
    quantum generators, read from their factors (``qm_factors``).

    ``(X (x) 1)(X' (x) 1) = XX' (x) 1`` (Van Loan, "The ubiquitous Kronecker
    product", 2000), so each r-sector's block of the defect is ``D (x) 1``
    with ``D = F_ab - F_a F_b`` for that sector's factors, whose kept part is
    ``D[:levels, :levels]``; the blocks that couple the sectors are zero.
    """
    sectors = zip(*(qm_factors(x, bq, bp) for x in (a * b, a, b)))
    defects = [np.abs(f_ab - f_a @ f_b)[:levels, :levels].max() for f_ab, f_a, f_b in sectors]
    return float(np.max(defects))  # np.max, unlike max, keeps a NaN from either sector


def _word_product(m: int, n: int, m2: int, n2: int) -> tuple:
    """The factor word of ``Q^m P^n Q^m2 P^n2`` as realized matrices multiply.

    With no P before a Q (``n = 0`` or ``m2 = 0``) the matrices multiply to
    the normal word ``Q^(m+m2) P^(n+n2)``.  Otherwise the word stays
    unreduced: normal ordering it uses ``[Q, P] = i hbar``, which a finite
    pair breaks.
    """
    return (m, n, m2, n2) if n and m2 else (m + m2, n + n2)


def defect_terms(a: TensorPoly, b: TensorPoly) -> dict:
    """The exact term map of ``BA - AB + [a, b]``, with A, B the images of a, b.

    The image of a product of two terms is ``delta_jk XX' (x) YY' (x) E_il``
    (Van Loan, "The ubiquitous Kronecker product", J. Comput. Appl. Math.
    123 (2000)), with each factor's word from ``_word_product``.  Terms with
    one r-block, q-word and p-word are summed exactly and zero terms are
    dropped, so whatever cancels as operators, ``lam`` included, leaves no
    term.  The map is ordered as the terms first appear: BA, then AB, then
    the symbolic commutator.
    """
    out: dict = {}

    def add(key, c) -> None:
        out[key] = out[key] + c if key in out else c

    for left, right, negate in ((b, a, False), (a, b, True)):
        right_terms = sorted(right.terms.items())
        for (mq, nq, mp, np_, i, j), c in sorted(left.terms.items()):
            for (mq2, nq2, mp2, np2, k, l), c2 in right_terms:
                if j == k:
                    key = (i, l, _word_product(mq, nq, mq2, nq2), _word_product(mp, np_, mp2, np2))
                    add(key, -(c * c2) if negate else c * c2)
    for key, c in _term_map(tp_commutator(a, b)).items():
        add(key, c)
    return {key: c for key, c in out.items() if not c.is_zero()}


def has_hermitian_image(a: TensorPoly) -> bool:
    """Whether ``realize(a)`` is Hermitian for every pair of Hermitian Q, P:
    ``a`` must equal its realized adjoint term by term, the adjoint of
    ``c Q^m P^n (x) Q^m' P^n' (x) E_ij`` being ``conj(c) P^n Q^m (x) P^n' Q^m' (x) E_ji``
    with its words unreduced when ``m, n > 0`` (``_word_product``).  So ``a``
    is self-adjoint and has no mixed factor word."""
    terms = _term_map(a)
    return terms == {
        (j, i, _word_product(0, nq, mq, 0), _word_product(0, np_, mp, 0)): c.conjugate()
        for (i, j, (mq, nq), (mp, np_)), c in terms.items()
    }


def _outer_sum_max(xs: np.ndarray, ys: np.ndarray) -> float:
    """Largest entry modulus of ``xs (x) 1 + 1 (x) ys``.

    An entry is an off-diagonal entry of one summand, a diagonal sum
    ``xs_aa + ys_bb``, or zero.
    """
    off = [np.abs(m[~np.eye(len(m), dtype=bool)]) for m in (xs, ys)]
    diag = np.abs(np.add.outer(np.diag(xs), np.diag(ys)))
    return float(np.max(np.concatenate([*off, diag.ravel()])))


def _max_entries(bq: Backend, bp: Backend, terms: dict) -> tuple[float, float]:
    """Largest entry modulus of the realized term map, over the whole space
    and over the bulk (everything below the top level of each Fock factor).

    An r-block whose terms are all ``c X (x) 1`` or ``c 1 (x) Y`` is
    ``Xs (x) 1 + 1 (x) Ys`` with N x N sums Xs and Ys, and the bulk is the
    same form on their leading slices, so no product-space matrix is
    formed.  Only a block with a term on both factors is accumulated as an
    (N_q N_p) x (N_q N_p) matrix, refused past ``MAX_DENSE_BYTES`` with its
    term temporary (``_dense_zeros``).
    """
    kq, kp = (f.dim - (f.kind == "fock") for f in (bq, bp))
    blocks: dict = {}
    for key, c in terms.items():
        blocks.setdefault(key[:2], {})[key] = c
    full, bulk = [0.0], [0.0]
    for block, read in zip(blocks.values(), _factored(bq, bp, *blocks.values())):
        if all((0, 0) in key[2:] for key in block):
            xs = np.zeros((bq.dim, bq.dim), dtype=complex)
            ys = np.zeros((bp.dim, bp.dim), dtype=complex)
            for key, (_, _, c, x, y) in zip(block, read):
                if key[3] == (0, 0):
                    xs += c * x
                else:
                    ys += c * y
            full.append(_outer_sum_max(xs, ys))
            bulk.append(_outer_sum_max(xs[:kq, :kq], ys[:kp, :kp]))
        else:
            m = _dense_zeros(bq.dim * bp.dim, bq.dim * bp.dim)
            for _, _, c, x, y in read:
                _add_term(m, c, x, y)
            # the bulk is a leading slice of each factor axis of a view
            view = m.reshape(bq.dim, bp.dim, bq.dim, bp.dim)[:kq, :kp, :kq, :kp]
            full.append(float(np.max(np.abs(m))))
            bulk.append(float(np.max(np.abs(view))))
    return float(np.max(full)), float(np.max(bulk))


def max_entry(a: TensorPoly, bq: Backend, bp: Backend) -> float:
    """Largest entry modulus of ``realize(a, bq, bp)``, read per r-block from
    factor-sized maxima where the block allows (``_max_entries``)."""
    return _max_entries(bq, bp, _term_map(a))[0]


def commutator_defect(
    bq: Backend, bp: Backend, a: TensorPoly, b: TensorPoly
) -> dict[str, float]:
    """Compare the symbolic commutator against the matrix commutator.

    Returns the max-entry discrepancy over the whole space (``defect_norm``)
    and restricted to the bulk rows and columns (``bulk_defect_norm``), the
    bulk being everything below the top level of each Fock factor.  The
    exact engine forms the terms of ``BA - AB + [a, b]`` first
    (``defect_terms``), so ``a`` and ``b`` may keep lam where the defect
    does not, and most r-blocks are read from factor-sized maxima.
    """
    full, bulk = _max_entries(bq, bp, defect_terms(a, b))
    return {"defect_norm": full, "bulk_defect_norm": bulk}


def hermitian_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


def hermitian_tolerance(m: np.ndarray) -> float:
    """Largest Hermitian defect of ``m`` that is roundoff: ``1e-10 * max(1, max|m|)``.

    The defect of a realized Hermitian element grows with its entries (a
    ``Q^8`` on a grid has entries near 1e6), so the bound scales with them.
    """
    return 1e-10 * max(1.0, float(np.max(np.abs(m))))


def _hermitian_eigvalsh(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of ``m``, ascending, refused (ValueError) unless ``m`` is
    Hermitian to ``hermitian_tolerance``."""
    defect, tol = hermitian_defect(m), hermitian_tolerance(m)
    if defect > tol:
        raise ValueError(
            f"matrix is not Hermitian (defect {defect:.3e} > {tol:.3e})"
        )
    return np.linalg.eigvalsh(_hermitize(m))


def _group(values: np.ndarray, group_tol: float) -> list[tuple[float, int]]:
    """Ascending ``values`` as ``(group mean, size)`` pairs: a value closer than
    ``group_tol`` to its predecessor joins that value's group."""
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


def spectrum(m: np.ndarray, group_tol: float = 1e-8) -> list[tuple[float, int]]:
    """Eigenvalues of a Hermitian matrix, ascending, with multiplicities.

    Eigenvalues closer than ``group_tol`` to their predecessor are merged
    into one group reported at the group mean.
    """
    return _group(_hermitian_eigvalsh(m), group_tol)


def qm_spectrum(
    a: TensorPoly, bq: Backend, bp: Backend, group_tol: float = 1e-8
) -> list[tuple[float, int]]:
    """``spectrum(realize(a, bq, bp), group_tol)`` for a polynomial in the
    quantum generators, read from its factors (``qm_factors``).

    The realization is ``A (x) 1`` on E_qq and ``1 (x) B`` on E_pp, so its
    eigenvalues are those of A, each N_p times, and those of B, each N_q
    times (Horn and Johnson, *Topics in Matrix Analysis*, 4.4).  Each factor
    must be Hermitian to its ``hermitian_tolerance``.
    """
    fa, fb = qm_factors(a, bq, bp)
    values = [np.repeat(_hermitian_eigvalsh(f), n) for f, n in ((fa, bp.dim), (fb, bq.dim))]
    return _group(np.sort(np.concatenate(values)), group_tol)


def export_matrix(
    m: np.ndarray,
    path: str,
    kind: dict[str, str],
    dims: tuple[int, int],
    hbar: float,
) -> None:
    """Write a product-space matrix on ``dims = (N_q, N_p)`` in the documented
    binary layout plus a JSON sidecar.

    Layout: entries in column-major order, each entry as two consecutive
    little-endian float64 values (real part then imaginary part).  The
    sidecar at ``path + '.json'`` records the factor kinds ``kind``, dims, hbar,
    and ordering.
    """
    flat = m.flatten(order="F")
    interleaved = np.empty(2 * flat.size, dtype="<f8")
    interleaved[0::2] = flat.real
    interleaved[1::2] = flat.imag
    with open(path, "wb") as fh:
        fh.write(interleaved.tobytes())
    sidecar = {
        "kind": kind,
        "dims": [*dims, 2],
        "hbar": hbar,
        "ordering": ORDERING,
    }
    write_json(path + ".json", sidecar)


def export_kernel_csv(block: np.ndarray, path: str) -> None:
    """Write one r-block as CSV rows (row, col, re, im)."""
    rows = itertools.chain.from_iterable(
        zip(itertools.repeat(r), range(len(line)), line.real.tolist(), line.imag.tolist())
        for r, line in enumerate(block)
    )
    write_csv(path, ["row", "col", "re", "im"], rows)


def format_float(x: float) -> str:
    """Deterministic, round-trip float rendering shared by all writers."""
    return repr(float(x))


def _csv_field(value) -> str:
    if isinstance(value, str):
        quoted = any(ch in value for ch in ',"\r\n')
        return '"' + value.replace('"', '""') + '"' if quoted else value
    return "" if value is None else str(value) if isinstance(value, int) else format_float(value)


def _csv_column(values: tuple) -> list[str]:
    """A column's fields, by one rule for a column of only floats or only ints."""
    kinds = set(map(type, values))
    render = format_float if kinds == {float} else str if kinds == {int} else _csv_field
    return list(map(render, values))


def write_csv(path: str, header, rows) -> None:
    """Write a CSV artifact: strings as given (quoted where they hold a
    comma, a quote or a line break), ints as written, ``None`` as an empty
    field, other values by ``format_float``; one ``\\n`` per line."""
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(_csv_field, header)) + "\n")
        # 65536 rows at a time, each column of them rendered in one pass
        while chunk := list(itertools.islice(rows, 1 << 16)):
            columns = [_csv_column(column) for column in zip(*chunk)]
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


def write_json(path: str, payload) -> None:
    """Write a JSON artifact: sorted keys, two-space indent, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
