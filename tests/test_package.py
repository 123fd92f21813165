"""Package layering: ``import qclab`` loads the exact engine only, and the
numeric names load with their modules on first use.  Each test runs in a
fresh interpreter, so that no module another test imported is loaded."""

import json

from test_cli import _run_python

# the CCR of the tilde pair and the sweep quartic, decided by the exact engine
EXACT_WORK = """
import qclab
from qclab import ScalarCoeff

g = qclab.make_generators()
comm = qclab.tp_commutator(g.q_tilde, g.p_tilde)
ccr = qclab.canonical_eq(comm, g.identity.scale(ScalarCoeff.i() * ScalarCoeff.hbar()))
quartic = qclab.parse_expr("(1/2)*(P^2 + Q^2) + (1/10)*Q^4")
a = qclab.eval_ncpoly(quartic, g.q_tilde, g.p_tilde)
print(ccr, qclab.canonical_eq(a, qclab.tp_adjoint(a)))
"""


def _child(code: str) -> str:
    run = _run_python("-c", code, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_the_exact_engine_decides_without_numpy():
    assert _child('import sys\nsys.modules["numpy"] = None\n' + EXACT_WORK) == "True True\n"


def test_exact_work_leaves_numpy_unloaded():
    assert _child(EXACT_WORK + 'import sys\nprint("numpy" in sys.modules)\n') == "True True\nFalse\n"


def test_every_exported_name_is_its_home_module_attribute():
    out = _child(
        "import json, sys, qclab\n"
        "print(json.dumps([n for n in qclab.__all__ if getattr(qclab, n)"
        " is not getattr(sys.modules[getattr(qclab, n).__module__], n)]))\n"
    )
    assert json.loads(out) == []


def test_an_unknown_name_is_missing_and_dir_lists_the_exports():
    out = _child(
        "import qclab\n"
        "print(hasattr(qclab, 'no_such_name'), set(qclab.__all__) <= set(dir(qclab)))\n"
    )
    assert out == "False True\n"
