"""Exact and finite-dimensional laboratory for an interpolating operator algebra.

Two engines over the same three-factor structure (system-q, system-p, and a
two-dimensional selector factor):

* an exact symbolic engine with rational coefficients and canonical normal
  forms, where identities are decided, not sampled;
* a finite numeric engine realizing the same elements as dense matrices on
  truncated oscillator and periodic-grid backends, where identities hold on
  a bulk up to quantified truncation defects.

A one-parameter family of generator pairs connects a quantum endpoint to a
commuting classical endpoint; verification suites, parameter sweeps, kernel
dumps, and endpoint dynamics are exposed both as a library and through the
``qclab`` command line tool.
"""

from .expr import ExprError, differentiate, evaluate_numeric, parse_expr
from .matrep import (
    Backend,
    build_backend,
    commutator_defect,
    flatten,
    hermitian_defect,
    realize,
    spectrum,
    unflatten,
)
from .ncpoly import (
    GeneratorSet,
    TensorPoly,
    canonical_eq,
    eval_ncpoly,
    factor_normalize,
    make_generators,
    ordered_product,
    qm_embedding,
    rewrite_fault,
    substitute_lambda,
    tp_adjoint,
    tp_commutator,
)
from .scalars import ScalarCoeff
from .states import (
    StateReport,
    WeightSpec,
    cm_mixed_density,
    cm_point_state,
    coherent_state,
    gaussian_grid_state,
    lift_qm_eigenstate,
    mean_value,
    validate_state,
)
from .verify import CheckResult, VerifyReport, run_verify

__version__ = "0.1.0"

__all__ = [
    "Backend",
    "CheckResult",
    "ExprError",
    "GeneratorSet",
    "ScalarCoeff",
    "StateReport",
    "TensorPoly",
    "VerifyReport",
    "WeightSpec",
    "build_backend",
    "canonical_eq",
    "cm_mixed_density",
    "cm_point_state",
    "coherent_state",
    "commutator_defect",
    "differentiate",
    "eval_ncpoly",
    "evaluate_numeric",
    "factor_normalize",
    "flatten",
    "gaussian_grid_state",
    "hermitian_defect",
    "lift_qm_eigenstate",
    "make_generators",
    "mean_value",
    "ordered_product",
    "parse_expr",
    "qm_embedding",
    "realize",
    "rewrite_fault",
    "run_verify",
    "spectrum",
    "substitute_lambda",
    "tp_adjoint",
    "tp_commutator",
    "unflatten",
    "validate_state",
]
