"""One benchmark process: a set-up probe, one CLI operation, or the identity stream.

The runner starts a fresh interpreter for every use, so module-global state
in qclab (the word cache of ``ncpoly`` among it) starts empty, as it does
for every ``qclab`` command.  The process prints one JSON line on exit.

    child.py probe SPAWN_NS WORKLOAD SEED
    child.py cli SPAWN_NS TRACE SPANS -- SUBCOMMAND [ARGS...]
    child.py exact SPAWN_NS SEED START COUNT TRACE SPANS

``SPAWN_NS`` is the runner's ``time.monotonic_ns()`` just before it started
this process; the set-up time runs from there to the first operation ready.
``exact`` decides items ``START`` to ``START + COUNT - 1`` of the stream.
``SPANS`` is the file the spans go to when ``TRACE`` is 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction

import workloads


def _setup_s(spawn_ns: int) -> float:
    return (time.monotonic_ns() - spawn_ns) * 1e-9


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 only prints its config
        blas_name = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas_name}


class IdentityDecider:
    """Decides the identities of :func:`workloads.identity_item` with the ncpoly API.

    qclab names are looked up on the package at call time, so a tracer
    installed after construction sees every call.
    """

    def __init__(self) -> None:
        import qclab
        import qclab.expr

        self.qc, self.ex = qclab, qclab.expr
        gens = qclab.make_generators()
        self.x, self.y = gens.q_tilde, gens.p_tilde

    def inputs(self, item: tuple) -> tuple:
        """The expression trees (and for ccr-power the exact weight) of one item."""
        ex = self.ex
        if item[0] == "ccr-power":
            _, k, num, den = item
            return (ex.Pow(ex.Var("P"), k), ex.Pow(ex.Var("P"), k - 1), k, Fraction(num, den))
        trees = []
        for word in item[1:]:
            node = ex.Var(word[0])
            for letter in word[1:]:
                node = ex.Mul(node, ex.Var(letter))
            trees.append(node)
        return tuple(trees)

    def decide(self, kind: str, inputs: tuple) -> bool:
        qc, x, y = self.qc, self.x, self.y
        comm = qc.tp_commutator
        if kind == "adjoint":
            a, b = (qc.eval_ncpoly(t, x, y) for t in inputs)
            adj = qc.tp_adjoint
            return qc.canonical_eq(adj(a * b), adj(b) * adj(a))
        if kind == "jacobi":
            a, b, c = (qc.eval_ncpoly(t, x, y) for t in inputs)
            jacobi = comm(a, comm(b, c)) + comm(b, comm(c, a)) + comm(c, comm(a, b))
            return qc.canonical_eq(jacobi, qc.TensorPoly.zero())
        pk_tree, pk1_tree, k, lam = inputs
        q, p = qc.substitute_lambda(x, lam), qc.substitute_lambda(y, lam)
        sc = qc.ScalarCoeff
        rhs = qc.eval_ncpoly(pk1_tree, q, p).scale(sc.from_rational(k) * sc.i() * sc.hbar())
        return qc.canonical_eq(comm(q, qc.eval_ncpoly(pk_tree, q, p)), rhs)


def _start_trace(trace: bool):
    if not trace:
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _finish_trace(tracer, spans_path: str, payload: dict) -> None:
    if tracer is not None:
        tracer.write_spans(spans_path)
        payload["trace"] = tracer.summary()


def probe(spawn_ns: int, workload: str, seed: int) -> dict:
    if workload == "exact-identities":
        decider = IdentityDecider()
        item = workloads.identity_item(seed, 0)
        decider.inputs(item)
    else:
        from qclab.cli import RunConfig

        RunConfig.from_dict(workloads.cli_argv(workload, seed, 0)[1])
    setup_s = _setup_s(spawn_ns)
    return {"setup_s": setup_s, "env": _environment()}


def cli_op(spawn_ns: int, trace: bool, spans_path: str, argv: list[str]) -> dict:
    from qclab.cli import main

    tracer = _start_trace(trace)
    payload: dict = {"setup_s": _setup_s(spawn_ns)}
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            payload["exit_code"] = main(argv)
    except Exception as exc:  # a crashed command is a failed operation
        payload["exit_code"] = None
        payload["error"] = f"{type(exc).__name__}: {exc}"
    payload["op_s"] = time.perf_counter() - start
    payload["maxrss_kb"] = _maxrss_kb()
    _finish_trace(tracer, spans_path, payload)
    return payload


def exact_stream(
    spawn_ns: int, seed: int, first: int, count: int, trace: bool, spans_path: str
) -> dict:
    decider = IdentityDecider()
    tracer = _start_trace(trace)
    item = workloads.identity_item(seed, first)
    inputs = decider.inputs(item)
    payload: dict = {"setup_s": _setup_s(spawn_ns)}
    latencies: list[float] = []
    failures: list[str] = []
    for index in range(first, first + count):
        if index > first:
            item = workloads.identity_item(seed, index)
            inputs = decider.inputs(item)
        t0 = time.perf_counter()
        try:
            failure = None if decider.decide(item[0], inputs) else "decided False"
        except Exception as exc:  # a crashed decision is a failed one
            failure = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if failure is not None:
            failures.append(f"op {index} {item!r}: {failure}")
    payload["latencies"] = latencies
    payload["failures"] = failures
    payload["maxrss_kb"] = _maxrss_kb()
    _finish_trace(tracer, spans_path, payload)
    return payload


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "probe":
        out = probe(int(argv[1]), argv[2], int(argv[3]))
    elif mode == "cli":
        split = argv.index("--")
        out = cli_op(int(argv[1]), argv[2] == "1", argv[3], argv[split + 1:])
    elif mode == "exact":
        out = exact_stream(
            int(argv[1]), int(argv[2]), int(argv[3]), int(argv[4]), argv[5] == "1", argv[6]
        )
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
