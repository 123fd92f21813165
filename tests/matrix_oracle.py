"""Dense matrix readings kept as independent oracles.

``evaluate_matrix`` is a hand-written recursion over the node classes,
deliberately not built on :func:`qclab.expr.fold`, so tests that use it do
not check the fold against itself.  ``dense_commutator_defect``
multiplies realized product-space matrices with ``@`` and selects the bulk
with a flat index mask, where the library forms the defect's terms in the
exact engine and reads each r-block from factor-sized maxima.
``vector_mean`` reads a pure state's mean with a dense product, where the
sweep reads it from the factors and ``mean_value`` takes densities only.
``dense_product_defect`` and ``dense_spectrum`` read the product-space
matrices that ``qm_product_sectors`` and ``qm_spectrum`` read from the
quantum pair's factors.  ``flatten`` writes out ``matrep.ORDERING`` for the
tests that index a product-space vector or matrix by it.
"""

import numpy as np

from qclab.expr import Add, Const, Mul, Neg, Node, Pow, Sub, Var
from qclab.matrep import Backend, hermitian_defect, realize, spectrum, within
from qclab.ncpoly import TensorPoly, tp_commutator


def flatten(i_q: int, i_p: int, i_r: int, dim_q: int, dim_p: int) -> int:
    """The flat index of ``(i_q, i_p, i_r)``: ``(i_q * N_p + i_p) * 2 + i_r``."""
    return (i_q * dim_p + i_p) * 2 + i_r


def evaluate_matrix(node: Node, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Evaluate the tree with matrix products, preserving factor order."""
    n = q.shape[0]
    if isinstance(node, Const):
        return complex(node.value) * np.eye(n, dtype=complex)
    if isinstance(node, Var):
        return np.asarray(q if node.name == "Q" else p, dtype=complex)
    if isinstance(node, Neg):
        return -evaluate_matrix(node.operand, q, p)
    if isinstance(node, Add):
        return evaluate_matrix(node.left, q, p) + evaluate_matrix(node.right, q, p)
    if isinstance(node, Sub):
        return evaluate_matrix(node.left, q, p) - evaluate_matrix(node.right, q, p)
    if isinstance(node, Mul):
        return evaluate_matrix(node.left, q, p) @ evaluate_matrix(node.right, q, p)
    if isinstance(node, Pow):
        return np.linalg.matrix_power(evaluate_matrix(node.base, q, p), node.exponent)
    raise TypeError(f"unsupported expression node {type(node).__name__}")


def vector_mean(vec: np.ndarray, mat: np.ndarray) -> float:
    """``<v|A|v>/<v|v>`` by a dense product, refused (ValueError) as
    ``mean_value`` refuses: unless A is Hermitian and the ratio finite and
    real, each to within ``1e-10 * max|A|``."""
    defect, scale = hermitian_defect(mat), np.max(np.abs(mat))
    if not within(defect, scale, 1e-10):
        raise ValueError(f"observable is not Hermitian (defect {defect:.3e} > {1e-10 * scale:.3e})")
    ratio = np.vdot(vec, mat @ vec) / np.vdot(vec, vec)
    if not (np.isfinite(ratio) and within(abs(ratio.imag), scale, 1e-10)):
        raise ValueError(f"mean value is not finite and real: {complex(ratio)}")
    return float(ratio.real)


def _bulk_mask(bq: Backend, bp: Backend) -> np.ndarray:
    """Flat-index mask excluding the top Fock level of each Fock factor."""
    keep_q = np.ones(bq.dim, dtype=bool)
    keep_p = np.ones(bp.dim, dtype=bool)
    if bq.kind == "fock":
        keep_q[-1] = False
    if bp.kind == "fock":
        keep_p[-1] = False
    return np.kron(np.kron(keep_q, keep_p), np.ones(2, dtype=bool)).astype(bool)


def dense_commutator_defect(
    bq: Backend, bp: Backend, a: TensorPoly, b: TensorPoly
) -> dict[str, float]:
    """Max entry of ``realize([a, b]) - (AB - BA)``, with A, B the dense
    images, over the whole space and over the bulk rows and columns."""
    sym = realize(tp_commutator(a, b), bq, bp)
    ma = realize(a, bq, bp)
    mb = realize(b, bq, bp)
    defect = sym - (ma @ mb - mb @ ma)
    keep = _bulk_mask(bq, bp)
    return {
        "defect_norm": float(np.max(np.abs(defect))),
        "bulk_defect_norm": float(np.max(np.abs(defect[np.ix_(keep, keep)]))),
    }


def dense_bulk_commutator_defect(bq: Backend, bp: Backend, a: TensorPoly, b: TensorPoly) -> float:
    """The bulk part of :func:`dense_commutator_defect`."""
    return dense_commutator_defect(bq, bp, a, b)["bulk_defect_norm"]


def dense_product_defect(
    a: TensorPoly, b: TensorPoly, bq: Backend, bp: Backend, levels: int
) -> float:
    """Max entry of ``realize(a*b) - realize(a) @ realize(b)`` over the rows
    and columns of the bottom ``levels`` levels of each factor, selected with
    a flat index mask."""
    defect = realize(a * b, bq, bp) - realize(a, bq, bp) @ realize(b, bq, bp)
    keep_q, keep_p = (np.arange(f.dim) < levels for f in (bq, bp))
    keep = np.kron(np.kron(keep_q, keep_p), np.ones(2, dtype=bool)).astype(bool)
    return float(np.max(np.abs(defect[np.ix_(keep, keep)])))


def dense_spectrum(
    h: TensorPoly, bq: Backend, bp: Backend, group_tol: float = 1e-8
) -> list[tuple[float, int]]:
    """The grouped spectrum of the dense realization of ``h``."""
    return spectrum(realize(h, bq, bp), group_tol)
