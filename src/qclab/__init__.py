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

The exact engine (``scalars``, ``expr``, ``ncpoly``) is pure Python and is
all that ``import qclab`` loads.  The numeric names (those of ``matrep``,
``states`` and ``verify``) load with their module, and numpy, on first use.
"""

from importlib import import_module

from .expr import ExprError, differentiate, evaluate_numeric, parse_expr
from .ncpoly import (
    GeneratorSet,
    TensorPoly,
    canonical_eq,
    eval_ncpoly,
    factor_normalize,
    make_generators,
    qm_embedding,
    rewrite_fault,
    substitute_lambda,
    tp_adjoint,
    tp_commutator,
)
from .scalars import ScalarCoeff

# each numeric name and its home module
_NUMERIC = {
    name: module
    for module, names in {
        ".matrep": (
            "Backend", "build_backend", "commutator_defect", "hermitian_defect",
            "r_block", "realize", "slots", "spectrum",
        ),
        ".states": (
            "StateReport", "WeightSpec", "cm_mixed_density", "cm_point_state",
            "coherent_state", "gaussian_grid_state", "lift_qm_eigenstate",
            "mean_value", "validate_state",
        ),
        ".verify": ("CheckResult", "VerifyReport", "run_verify"),
    }.items()
    for name in names
}


def __getattr__(name: str):
    # read from the home module on every access, so the name stays that
    # module's attribute even after a tracer or a test rebinds it there
    if name in _NUMERIC:
        return getattr(import_module(_NUMERIC[name], __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return __all__


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
    "gaussian_grid_state",
    "hermitian_defect",
    "lift_qm_eigenstate",
    "make_generators",
    "mean_value",
    "parse_expr",
    "qm_embedding",
    "r_block",
    "realize",
    "rewrite_fault",
    "run_verify",
    "slots",
    "spectrum",
    "substitute_lambda",
    "tp_adjoint",
    "tp_commutator",
    "validate_state",
]
