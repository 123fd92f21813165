"""Dense matrix readings kept as independent oracles.

``evaluate_matrix`` is a hand-written recursion over the node classes,
deliberately not built on :func:`qclab.expr.fold`, so tests that use it do
not check the fold against itself.  ``dense_bulk_commutator_defect``
multiplies realized product-space matrices with ``@``, where the library
builds products from factor-sized ones.
"""

import numpy as np

from qclab.expr import Add, Const, Mul, Neg, Node, Pow, Sub, Var
from qclab.matrep import Backend, bulk_max, realize
from qclab.ncpoly import TensorPoly, tp_commutator


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


def dense_bulk_commutator_defect(bq: Backend, bp: Backend, a: TensorPoly, b: TensorPoly) -> float:
    """Bulk max of ``realize([a, b]) - (AB - BA)``, with A, B the dense images."""
    sym = realize(tp_commutator(a, b), bq, bp).data
    ma = realize(a, bq, bp).data
    mb = realize(b, bq, bp).data
    return bulk_max(sym - (ma @ mb - mb @ ma), bq, bp)
