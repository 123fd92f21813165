"""Per-layer spans and counters for qclab, installed from outside the package.

Nothing under ``src/`` knows about tracing.  :func:`install` replaces each
traced function with a wrapper at every name that binds it across the
loaded ``qclab`` modules, found by identity (``realize``, for one, is bound
in ``matrep``, ``cli``, ``dynamics``, ``verify`` and the package root, and
patching only its home module would miss every caller).  Two methods are
wrapped on their class, and two scalar methods only count their calls.

Spans stay in memory while the workload runs.  A span is (name, parent,
start, end) plus the time its direct children covered; its self time is
its duration minus that.  Recursive functions get a span at the outermost
call only.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import Counter

# (span name, module, attribute, span at the outermost call only)
FUNCTIONS = (
    ("ncpoly.ordered_product", "qclab.ncpoly", "ordered_product", False),
    ("ncpoly.factor_normalize", "qclab.ncpoly", "factor_normalize", False),
    ("ncpoly.eval_ncpoly", "qclab.ncpoly", "eval_ncpoly", True),
    ("expr.parse_expr", "qclab.expr", "parse_expr", False),
    ("expr.evaluate_numeric", "qclab.expr", "evaluate_numeric", True),
    ("matrep.realize", "qclab.matrep", "realize", False),
    ("matrep.commutator_defect", "qclab.matrep", "commutator_defect", False),
    ("matrep.spectrum", "qclab.matrep", "spectrum", False),
    ("states.mean_value", "qclab.states", "mean_value", False),
    ("dynamics.liouville_evolve", "qclab.dynamics", "liouville_evolve", False),
    ("dynamics.spectral_derivative", "qclab.dynamics", "spectral_derivative", False),
    ("dynamics.von_neumann_evolve", "qclab.dynamics", "von_neumann_evolve", False),
    ("verify.run_verify", "qclab.verify", "run_verify", False),
    ("cli.verify", "qclab.cli", "cmd_verify", False),
    ("cli.sweep", "qclab.cli", "cmd_sweep", False),
    ("cli.evolve", "qclab.cli", "cmd_evolve", False),
)

# (span name, module, class, method)
METHODS = (
    ("ncpoly.tensor_mul", "qclab.ncpoly", "TensorPoly", "__mul__"),
    ("ncpoly.adjoint", "qclab.ncpoly", "TensorPoly", "adjoint"),
)

# (counter name, module, class, method): counted, no span
COUNTED = (
    ("scalars.coeff_mul.calls", "qclab.scalars", "ScalarCoeff", "__mul__"),
    ("scalars.coeff_add.calls", "qclab.scalars", "ScalarCoeff", "__add__"),
)


def _word_key(args: tuple) -> tuple:
    """The concatenated word Q^m1 P^n1 Q^m2 P^n2 in run-length form."""
    m1, n1, m2, n2 = args
    if n1 == 0:
        return (m1 + m2, n2)
    if m2 == 0:
        return (m1, n1 + n2)
    return (m1, n1, m2, n2)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[list] = []  # open spans: [index, start ns, child ns]
        self.counts: Counter = Counter()
        self.words: set[tuple] = set()
        self.check_elapsed: Counter = Counter()

    def wrap(self, name: str, fn, outermost: bool = False, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        depth = [0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost and depth[0]:
                return fn(*args, **kwargs)
            frame = [len(spans), 0, 0]
            spans.append(None)
            stack.append(frame)
            depth[0] += 1
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[0] -= 1
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += end - frame[1]
                spans[frame[0]] = (
                    name, -1 if parent is None else parent[0], frame[1], end, frame[2]
                )
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- result hooks ------------------------------------------------------

    def _on_ordered_product(self, args, result) -> None:
        self.words.add(_word_key(args))

    def _on_realize(self, args, result) -> None:
        self.counts["matrep.realize.bytes"] += int(result.data.nbytes)

    def _on_terms(self, args, result) -> None:
        self.counts["ncpoly.terms_out"] += len(result.terms)

    def _on_run_verify(self, args, result) -> None:
        for check in result.checks:
            self.check_elapsed[check.name] += check.elapsed

    def install(self) -> None:
        """Wrap every traced function and method of the loaded qclab modules."""
        hooks = {
            "ncpoly.ordered_product": self._on_ordered_product,
            "matrep.realize": self._on_realize,
            "ncpoly.tensor_mul": self._on_terms,
            "ncpoly.adjoint": self._on_terms,
            "verify.run_verify": self._on_run_verify,
        }
        modules = [
            mod for key, mod in sys.modules.items()
            if mod is not None and (key == "qclab" or key.startswith("qclab."))
        ]
        for name, module, attr, outermost in FUNCTIONS:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original, outermost, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        for name, module, cls_name, method in METHODS:
            cls = getattr(sys.modules.get(module), cls_name, None)
            if cls is not None and method in vars(cls):
                setattr(cls, method, self.wrap(name, vars(cls)[method], False, hooks.get(name)))
        for name, module, cls_name, method in COUNTED:
            cls = getattr(sys.modules.get(module), cls_name, None)
            if cls is not None and method in vars(cls):
                setattr(cls, method, self.count(name, vars(cls)[method]))

    def summary(self) -> dict[str, float]:
        """Per-layer totals: ``<span>.calls``, ``<span>.self_s`` and the counters."""
        out: dict[str, float] = {}
        for span in self.spans:
            if span is None:
                continue
            name, _, start, end, child_ns = span
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - child_ns) * 1e-9
        out.update(self.counts)
        out["ncpoly.ordered_product.distinct"] = len(self.words)
        for check, elapsed in self.check_elapsed.items():
            out[f"verify.{check}.elapsed_s"] = elapsed
        return out

    def write_spans(self, path: str) -> None:
        """Gzipped, one line per span: index, parent index, name, start ns, end ns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tparent\tname\tstart_ns\tend_ns\n")
            for index, span in enumerate(self.spans):
                if span is not None:
                    name, parent, start, end, _ = span
                    fh.write(f"{index}\t{parent}\t{name}\t{start}\t{end}\n")
