"""Matrix reading of an expression tree, kept as an independent oracle.

A hand-written recursion over the node classes, deliberately not built on
:func:`qclab.expr.fold`, so tests that use it do not check the fold against
itself.
"""

import numpy as np

from qclab.expr import Add, Const, Mul, Neg, Node, Pow, Sub, Var


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
