"""Self-test of the benchmark.

Run from the repository root:

    python3 -m pytest perfbench/tests

The traced runs make this take about four minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402

EXACT_COUNTS = ("ncpoly.terms_out", "matrep.realize.bytes")


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _traced(workload: str, seed: int) -> dict:
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "10", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = _traced(workload, 7), _traced(workload, 7)
    assert first["correct"] and second["correct"]
    assert first["failed"] == second["failed"] == 0
    counts = [
        name for name in first["metrics"]
        if name.endswith((".calls", ".distinct")) or name in EXACT_COUNTS
    ]
    assert any(first["metrics"][name]["value"] > 0 for name in counts)
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize(
    "workload, artifact", [("verify-suite", "verify_report.json"), ("sweep-n16", "sweep.csv")]
)
def test_tracing_leaves_artifacts_byte_identical(tmp_path, workload, artifact):
    runner = run.Runner(ROOT, seed=11, seconds=0)
    runner.spans_dir = str(tmp_path)
    outputs = []
    for trace in (False, True):
        out_dir = str(tmp_path / f"trace{int(trace)}")
        res = runner.unit(workload, 0, out_dir, trace)
        assert res["failures"] == []
        assert ("trace" in res) == trace
        with open(os.path.join(out_dir, artifact), "rb") as fh:
            outputs.append(fh.read())
    assert outputs[0] == outputs[1]


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench")
    start = time.monotonic()
    proc = _run("--workload", "sweep-n16", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert time.monotonic() - start < 180


def _sweep_csv(path, mean_q_mid: str) -> None:
    rows = ["h,lambda,mean_q_tilde,mean_p_tilde,mean_observable,"
            "bulk_commutator_defect,endpoint_q_diff,endpoint_p_diff"]
    for i in range(11):
        h = i / 10
        mq = mean_q_mid if i == 5 else repr(0.5 - 0.5 * h)
        rows.append(f"{h!r},{1.0 - h!r},{mq},0.25,1.0,0.0,,")
    path.write_text("\n".join(rows) + "\n")


def test_sweep_gate_accepts_affine_means_and_rejects_a_bent_one(tmp_path):
    good, bent = tmp_path / "good.csv", tmp_path / "bent.csv"
    _sweep_csv(good, repr(0.25))
    _sweep_csv(bent, repr(0.25 + 1e-9))
    assert run.check_sweep(str(good)) is None
    assert "mean_q_tilde" in run.check_sweep(str(bent))


def test_evolve_gate_rejects_drift_beyond_tolerance(tmp_path):
    meta = {"max_dq_abs": 1e-13, "max_dp_abs": 1e-13,
            "classical_mass_drift": 1e-15, "quantum_trace_drift": 1e-15}
    (tmp_path / "evolve_meta.json").write_text(json.dumps(meta))
    assert run.check_output("evolve-compare", 0, str(tmp_path), {"exit_code": 0}) is None
    meta["classical_mass_drift"] = 1e-7
    (tmp_path / "evolve_meta.json").write_text(json.dumps(meta))
    assert "classical_mass_drift" in run.check_output(
        "evolve-compare", 0, str(tmp_path), {"exit_code": 0}
    )
    assert "exit code 1" == run.check_output("evolve-compare", 0, str(tmp_path), {"exit_code": 1})


def test_verify_gate_rejects_a_changed_repeat(tmp_path):
    report = {"all_passed": True, "checks": []}
    for index, seed in ((0, 5), (1, 6)):
        (tmp_path / str(index)).mkdir()
        (tmp_path / str(index) / "verify_report.json").write_text(
            json.dumps({**report, "seed": seed})
        )
    assert run.check_output("verify-suite", 0, str(tmp_path / "0"), {"exit_code": 0}) is None
    assert "differs" in run.check_output("verify-suite", 1, str(tmp_path / "1"), {"exit_code": 0})
