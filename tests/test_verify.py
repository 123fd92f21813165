"""The check-suite runner: reports, subsets, fault-injection plumbing, the
numeric checks' one rule, and the verify slice of the config fuzzer."""

import contextlib
import io
import json
import math
import os
import re
import signal
import tempfile
import threading
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qclab.expr import random_expr
from qclab.matrep import build_backend
from qclab.ncpoly import (
    TensorPoly,
    eval_ncpoly,
    factor_normalize,
    make_generators,
    rewrite_fault,
    tp_commutator,
)
from qclab import verify
from qclab.cli import main
from qclab.scalars import ScalarCoeff
from qclab.verify import CHECKS, SYMBOLIC_SUITE, run_verify

import verify_oracle
from matrix_oracle import dense_product_defect
from test_sweep import EXTREME, NOT_POSITIVE, PLAIN, _weighted


def test_full_suite_passes():
    report = run_verify()
    assert report.all_passed
    assert report.hbar == 1.0
    assert report.seed == 1234
    failed = [c.name for c in report.checks if c.status == "fail"]
    assert failed == []


def test_registry_names_are_unique_and_ordered():
    names = [c.name for c in CHECKS]
    assert len(names) == len(set(names))
    assert set(SYMBOLIC_SUITE) <= set(names)


def test_subset_run_by_name():
    report = run_verify(names=("qm-ccr", "projector-relations"))
    assert [c.name for c in report.checks] == ["qm-ccr", "projector-relations"]
    assert report.all_passed


def test_unknown_name_is_rejected():
    with pytest.raises(ValueError):
        run_verify(names=("qm-ccr", "no-such-check"))


def test_informational_checks_do_not_gate():
    report = run_verify()
    info = {c.name for c in report.checks if c.informational}
    assert "tilde-ccr-symbolic" in info
    assert "classical-endpoint-gap" in info
    # the gate ignores informational status lines
    assert report.all_passed


def test_classical_endpoint_gap_is_nonzero():
    report = run_verify(names=("classical-endpoint-gap",))
    check = report.checks[0]
    assert check.status == "pass"
    assert "E_pp" in check.witness and "E_qq" in check.witness


def test_fault_injection_fails_ccr_and_restores_state():
    report = run_verify(fault_injection=0.5)
    assert not report.all_passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["qm-ccr"].status == "fail"
    assert "canonical-diff" in by_name["qm-ccr"].witness
    # commuting-pair checks never touch the contraction, so they still pass
    assert by_name["cm-commutativity"].status == "pass"
    # the faulty term must not leak past the run
    g = make_generators()
    comm = tp_commutator(g.q_qm, g.p_qm)
    expected = TensorPoly.identity().scale(ScalarCoeff.i() * ScalarCoeff.hbar())
    assert comm == expected
    assert factor_normalize(["P", "Q"])[(0, 0)] == -(
        ScalarCoeff.i() * ScalarCoeff.hbar()
    )


def test_fault_injection_at_unit_factor_is_silent():
    report = run_verify(fault_injection=1.0)
    assert report.all_passed


def test_payload_excludes_timings_and_sorts():
    report = run_verify(names=SYMBOLIC_SUITE)
    payload = report.to_payload()
    assert payload["fault_injection"] is None
    for entry in payload["checks"]:
        assert set(entry) >= {"name", "status", "witness", "informational"}
        assert "elapsed" not in entry
    assert [e["name"] for e in payload["checks"]] == list(SYMBOLIC_SUITE)


def test_seed_determinism_of_witnesses():
    r1 = run_verify(seed=42)
    r2 = run_verify(seed=42)
    assert r1.to_payload() == r2.to_payload()


def test_eigenstate_lifting_forms_no_product_space_matrix():
    # H v is read from the factors; the realized oscillator at Fock n = 32
    # (dimension 2048) and its term temporary would take 80 MiB
    tracemalloc.start()
    try:
        report = run_verify(names=("eigenstate-lifting",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed
    assert peak < 8 * 2**20, peak


def test_verify_forms_no_dense_matrix_past_dimension_128(monkeypatch):
    # homomorphism-bulk and oscillator-spectrum read the Fock 16 pair's
    # factors; their dimension-512 matrices took 22 MiB.  On one CPU the
    # bound holds the whole run; beside the exact-engine worker, every check
    # that realizes a matrix still runs in this process, where tracemalloc
    # sees it
    ran_here = []
    run_check = verify._run_check
    monkeypatch.setattr(
        verify, "_run_check", lambda ctx, i, c: ran_here.append(c.name) or run_check(ctx, i, c)
    )
    for cpus, here in ((1, CHECKS), (2, CHECKS[len(verify.EXACT_CHECKS) :])):
        _cpus(monkeypatch, cpus)
        ran_here.clear()
        tracemalloc.start()
        try:
            report = run_verify()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.all_passed
        assert peak < 4 * 2**20, (cpus, peak)
        assert ran_here == [c.name for c in here]


def _dense_homomorphism_defect(fault: float) -> float:
    """The homomorphism-bulk defect read from dense products, on the check's
    own random pairs at the default seed, with the swap constant scaled by
    ``fault``."""
    index = [c.name for c in CHECKS].index("homomorphism-bulk")
    rng = np.random.default_rng([1234, index])
    g = make_generators()
    b = build_backend("fock", 16, 1.0)
    swap = ScalarCoeff.from_rational(0, -Fraction(str(fault))) * ScalarCoeff.hbar()
    worst = 0.0
    with rewrite_fault(swap):
        for _ in range(5):
            a, c = (
                eval_ncpoly(random_expr(rng, max_degree=3, max_terms=3), g.q_qm, g.p_qm)
                for _ in range(2)
            )
            worst = max(worst, dense_product_defect(a, c, b, b, 12))
    return worst


@pytest.mark.parametrize("fault, approx_defect", [(0.5, 6.992), (-1.0, 27.968)])
def test_fault_injection_breaks_the_factor_product_as_the_dense_one(fault, approx_defect):
    report = run_verify(
        fault_injection=fault, names=("homomorphism-bulk", "oscillator-spectrum")
    )
    product, osc = report.checks
    assert product.status == "fail"
    defect = float(product.witness.rsplit(" ", 1)[1])
    assert defect == pytest.approx(_dense_homomorphism_defect(fault), rel=0, abs=1e-9)
    assert defect == pytest.approx(approx_defect, abs=1e-3)
    # the oscillator Hamiltonian has no product to reorder
    assert osc.status == "pass"


def test_a_nan_defect_fails_its_check_without_a_warning():
    # at hbar 1e300 the realized products overflow to NaN entries
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_verify(hbar=1e300, names=("realize-linearity", "homomorphism-bulk"))
    assert caught == []
    for check in report.checks:
        assert check.status == "fail"
        assert check.witness.endswith(": nan")


@pytest.mark.parametrize("hbar", [1e-300, 1e-8, 1e300])
def test_oscillator_spectrum_tolerances_scale_with_hbar(hbar):
    # the levels are hbar apart: an absolute grouping tolerance of 1e-8 would
    # merge all of them at hbar 1e-300
    (check,) = run_verify(hbar=hbar, names=("oscillator-spectrum",)).checks
    assert check.status == "pass", check.witness
    worst = float(check.witness.rsplit(" ", 1)[1])
    assert worst <= 1e-14 * hbar


def test_elapsed_is_tracked_per_check(monkeypatch):
    report = run_verify(names=("qm-ccr",))
    assert report.checks[0].elapsed >= 0.0
    # the worker times its own checks and sends the times back
    _cpus(monkeypatch, 2)
    forks = _forks(monkeypatch)
    report = run_verify()
    assert len(forks) == 1
    assert all(c.elapsed > 0.0 for c in report.checks)


# -- the exact-engine worker -----------------------------------------------


def _cpus(monkeypatch, count):
    """Let ``run_verify`` see ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _forks(monkeypatch):
    """The list of the run's forks, each still made."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_WORKER_CONFIGS = [
    {"seed": 1234},
    {"seed": 7},
    {"hbar": 1e-300},
    {"hbar": 1e8},
    {"hbar": 1e153},
    {"hbar": 1e300},
    {"fault_injection": -1.0},
    {"fault_injection": 0.5},
    {"fault_injection": 0.0},
]


@pytest.mark.parametrize(
    "fmt, config",
    [("json", c) for c in _WORKER_CONFIGS] + [("csv", {"seed": 1234})],
    ids=[json.dumps(c) for c in _WORKER_CONFIGS] + ["csv"],
)
def test_the_worker_writes_the_report_one_process_writes(
    tmp_path, capsys, monkeypatch, fmt, config
):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    forks = _forks(monkeypatch)
    runs = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        out = tmp_path / str(cpus)
        code = main(["verify", "--config", str(path), "--out", str(out), "--format", fmt])
        captured = capsys.readouterr()
        (report,) = out.iterdir()
        runs.append((code, captured.out.replace(str(out), "OUT"), captured.err, report.read_bytes()))
    assert len(forks) == 1  # the second run only
    assert runs[0] == runs[1]
    _assert_no_child_left()


@contextlib.contextmanager
def _sigchld_ignored():
    """SIGCHLD set to SIG_IGN, as a parent process may leave it across exec:
    the kernel then reaps each child itself and ``waitpid`` finds none."""
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        yield
    finally:
        signal.signal(signal.SIGCHLD, previous)


@pytest.mark.parametrize(
    "end, ignored, status",
    [
        (lambda: os._exit(3), False, "exit status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), False, f"exit status {-signal.SIGKILL}"),
        (lambda: os._exit(3), True, "exit status unknown"),
    ],
    ids=["exit-3", "sigkill", "exit-3-sigchld-ignored"],
)
def test_a_worker_that_ends_without_a_report_fails_its_checks(monkeypatch, end, ignored, status):
    caller = os.getpid()

    def end_the_worker(ctx, index):
        if os.getpid() != caller:
            end()
        return True, "ran in the calling process"

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(verify, "CHECKS", [replace(CHECKS[0], fn=end_the_worker)] + CHECKS[1:])
    with _sigchld_ignored() if ignored else contextlib.nullcontext():
        report = run_verify(names=("qm-ccr", "cm-commutativity", "fock-truncated-ccr"))
    witness = f"the exact-engine worker ended without a report ({status})"
    got = [(c.name, c.status, c.witness) for c in report.checks[:2]]
    assert got == [("qm-ccr", "fail", witness), ("cm-commutativity", "fail", witness)]
    assert report.checks[2].status == "pass"
    assert not report.all_passed
    _assert_no_child_left()


def test_a_worker_reaped_by_the_kernel_still_reports(monkeypatch):
    _cpus(monkeypatch, 1)
    alone = run_verify(fault_injection=0.5)
    _cpus(monkeypatch, 2)
    forks = _forks(monkeypatch)
    with _sigchld_ignored():
        beside = run_verify(fault_injection=0.5)
    assert len(forks) == 1
    assert beside.to_payload() == alone.to_payload()
    _assert_no_child_left()


def _refuse_to_fork():
    raise AssertionError("os.fork was called")


@pytest.mark.parametrize(
    "cpus, names",
    [(1, None), (2, SYMBOLIC_SUITE), (2, ("fock-truncated-ccr", "density-axioms"))],
    ids=["one-cpu", "exact-only", "numeric-only"],
)
def test_no_worker_without_two_cpus_and_two_halves(monkeypatch, cpus, names):
    _cpus(monkeypatch, cpus)
    monkeypatch.setattr(os, "fork", _refuse_to_fork)
    assert run_verify(names=names).all_passed


def test_no_worker_beside_another_python_thread(monkeypatch):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", _refuse_to_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        report = run_verify(names=("qm-ccr", "fock-truncated-ccr"))
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert report.all_passed


def test_a_fork_that_fails_runs_every_check_here(monkeypatch):
    def no_process():
        raise BlockingIOError("Resource temporarily unavailable")

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_process)
    names = ("qm-ccr", "cm-commutativity", "fock-truncated-ccr")
    report = run_verify(names=names)
    assert [c.name for c in report.checks] == list(names)
    assert report.all_passed


# Exact witnesses of the ten symbolic checks.  They are canonical forms and
# reprs of exact elements, so they repeat on every platform.
_SYMBOLIC_WITNESSES = {
    "qm-ccr": "exact: [q_qm, p_qm] = i*hbar*identity",
    "cm-commutativity": "100 random pairs commute exactly",
    "translation-identity": "100 random polynomials map to the two-sector diagonal form",
    "endpoint-qm": "exact: interpolating pair at weight 0 equals the qm pair",
    "projector-relations": "all six projector relations hold exactly",
    "rewrite-confluence": "200 random words: leftmost and rightmost strategies agree",
    "generator-hermiticity": "all six generators are adjoint-fixed",
    "adjoint-involution": "adjoint is an involution on 10 random elements",
    "tilde-ccr-symbolic": (
        "[q_tilde, p_tilde] = i*hbar*identity for every interpolation weight,"
        " including the classical endpoint"
    ),
    "classical-endpoint-gap": (
        "q-gap TensorPoly((1)*[1|Q^1|E_pp]); p-gap TensorPoly((1)*[P^1|1|E_qq])"
        " (nonzero as operators; equivalence at the endpoint is basis-level,"
        " not canonical)"
    ),
}

# The CCR checks are the ones a corrupted swap constant s' = factor * s
# breaks: [Q, P] becomes -s' = factor * i*hbar, leaving (factor - 1) i*hbar.
_CCR_DIFF = {
    0.5: "(-1/2i*hbar)",
    -1.0: "(-2i*hbar)",
    0.0: "(-1i*hbar)",
}


@pytest.mark.parametrize("fault", [None, 0.5, -1.0, 0.0])
def test_symbolic_witnesses_are_pinned(fault):
    report = run_verify(names=tuple(_SYMBOLIC_WITNESSES), fault_injection=fault)
    expected = {name: ("pass", w) for name, w in _SYMBOLIC_WITNESSES.items()}
    if fault is not None:
        c = _CCR_DIFF[fault]
        diff = f"canonical-diff=TensorPoly({c}*[1|1|E_qq] + {c}*[1|1|E_pp])"
        expected["qm-ccr"] = expected["tilde-ccr-symbolic"] = ("fail", diff)
    got = {c.name: (c.status, c.witness) for c in report.checks}
    assert got == expected


# -- the numeric checks' one rule: the defect against the operands' scale ----


@pytest.mark.parametrize("hbar", [1e-300, 1e-8, 1.0, 1e8, 1e30, 1e153])
def test_every_check_passes_in_any_units_of_hbar(hbar):
    # roundoff grows with the operands, so a bound fixed in the units of
    # hbar = 1 failed six checks at 1e8 and seven at 1e30; at 1e153 the
    # unscaled product scale of homomorphism-bulk overflows
    report = run_verify(hbar=hbar)
    failed = [(c.name, c.witness) for c in report.checks if c.status == "fail"]
    assert failed == [] and report.all_passed


_ORACLES = {
    "point-universality": verify_oracle.point_universality,
    "eigenstate-lifting": verify_oracle.eigenstate_lifting,
    "homomorphism-bulk": verify_oracle.homomorphism_bulk,
}


def _check_and_oracle(name, seed, hbar):
    """The check's ``(passed, witness)`` and its oracle's, as ``run_verify`` runs it."""
    index = [c.name for c in CHECKS].index(name)
    ctx = verify._Ctx(hbar=hbar, seed=seed, gens=make_generators())
    with np.errstate(all="ignore"):
        return CHECKS[index].fn(ctx, index), _ORACLES[name](ctx, index)


@pytest.mark.parametrize("name", sorted(_ORACLES))
@pytest.mark.parametrize("seed", [1234, 7, 0])
@pytest.mark.parametrize("hbar", [1e-300, 1.0, 1e8, 1e300])
def test_a_check_reads_as_its_one_vector_oracle(name, seed, hbar):
    got, want = _check_and_oracle(name, seed, hbar)
    assert got == want


@pytest.mark.parametrize("hbar", [1e100, 1e150])
def test_homomorphism_bulk_reports_in_the_factors_units_where_they_are_finite(hbar):
    # the factors are scaled by powers of two here, and the witness is not
    got, want = _check_and_oracle("homomorphism-bulk", 1234, hbar)
    assert got == want and got[0]


def test_homomorphism_bulk_decides_in_units_where_its_scale_overflows():
    (passed, witness), (unscaled_passed, unscaled) = _check_and_oracle("homomorphism-bulk", 1234, 1e153)
    assert passed and ", in units of 2^" in witness, witness
    assert not unscaled_passed and "(scale inf, ratio 0)" in unscaled


@pytest.mark.parametrize("hbar", [1e172, 1e250, 1e300])
def test_eigenstate_lifting_reads_its_largest_residual_entry(hbar):
    # the residual entries are near 1e-16 hbar: the sum of their squares in
    # a 2-norm overflows from about hbar 1e170, each entry never does
    (check,) = run_verify(hbar=hbar, names=("eigenstate-lifting",)).checks
    assert check.status == "pass", check.witness


def test_a_commuting_fock_pair_fails_the_truncated_ccr_at_small_hbar(monkeypatch):
    # with P = 0 the commutator's defect is the oracle itself, 15 hbar at
    # n = 16: a bound of 1e-12 passed it below hbar ~ 6.7e-14
    def commuting(kind, n, hbar, length=None):
        b = build_backend(kind, n, hbar, length)
        return replace(b, pmat=np.zeros_like(b.pmat)) if kind == "fock" else b

    monkeypatch.setattr(verify, "build_backend", commuting)
    (check,) = run_verify(hbar=1e-14, names=("fock-truncated-ccr",)).checks
    assert check.status == "fail", check.witness
    assert float(check.witness.rsplit(" ", 1)[1]) == pytest.approx(15e-14)


@pytest.mark.parametrize(
    "defect, scale",
    [(math.inf, 1.0), (1e-300, math.inf), (math.nan, 1.0), (0.0, math.nan), (1e-300, 0.0)],
)
def test_the_rule_fails_a_non_finite_number_or_a_defect_at_zero_scale(defect, scale):
    passed, witness = verify._within(defect, scale, 1.0, "gap")
    assert not passed
    assert witness.endswith(f": {defect!r}")


def test_the_rule_admits_up_to_rtol_times_the_scale():
    assert verify._within(0.5, 2.0, 0.25, "gap") == (True, "gap (scale 2.0, ratio 0.25): 0.5")
    assert verify._within(np.float64(0.0), 0.0, 1e-15, "gap") == (
        True, "gap (scale 0.0, ratio 0): 0.0"
    )
    assert not verify._within(np.nextafter(0.5, 1.0), 2.0, 0.25, "gap")[0]


# -- the verify config fuzzer: ROADMAP item 16's slice for verify -------------


@st.composite
def _boundary_verify_configs(draw):
    """A verify config whose keys take item 16's boundary values: hbar, h_o
    and fault_injection from the float set (a positive one is 0 or -1 one
    time in 10, fault_injection null or 1 three times in 8), and seeds from
    small, 32-bit, 64-bit and negative ints.  ``h_values`` is ``[0]``, so
    that any positive ``h_o`` is valid."""
    fault = _weighted((2, PLAIN), (2, EXTREME), (1, NOT_POSITIVE), (3, (None, 1.0)))
    positive = _weighted((5, PLAIN), (4, EXTREME), (1, NOT_POSITIVE))
    return {
        "hbar": draw(positive),
        "h_o": draw(positive),
        "h_values": [0.0],
        "seed": draw(st.sampled_from([0, 7, 1234, 2**32 - 1, 2**32, 2**64 + 1, -1])),
        "fault_injection": draw(fault),
    }


# the witness of a numeric check, whose last token is its defect
_NUMERIC_WITNESS = re.compile(r"\(scale \S+, ratio \S+\): (\S+)$")


@given(_boundary_verify_configs())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_verify_configs_at_the_boundary_fail_only_on_a_fault_or_a_non_finite_defect(config):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["verify", "--config", str(path), "--out", str(out)])
        assert caught == [], [str(w.message) for w in caught]
        assert code in (0, 1, 2), code
        if code == 2:
            assert stderr.getvalue().count("\n") == 1, stderr.getvalue()
            assert stderr.getvalue().startswith("error: ")
            return
        assert stderr.getvalue() == ""
        if code == 1 and config["fault_injection"] in (None, 1.0):
            checks = json.loads((out / "verify_report.json").read_text())["checks"]
            failed = [c for c in checks if c["status"] == "fail" and not c["informational"]]
            defects = [m[1] for c in failed if (m := _NUMERIC_WITNESS.search(c["witness"]))]
            assert any(not math.isfinite(float(d)) for d in defects), failed
