"""Command-line interface: configuration, subcommands, exit codes."""

import ast
import contextlib
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qclab.cli import (
    BackendSpec,
    ConfigError,
    DynamicsSpec,
    RunConfig,
    StateSpec,
    WeightsConfig,
    build_state,
    build_backends,
    cmd_evolve,
    cmd_kernels,
    cmd_sweep,
    cmd_verify,
    main,
)
from qclab.matrep import MAX_DENSE_BYTES, check_backend
from qclab.verify import run_verify

from test_sweep import EXTREME, NOT_POSITIVE, PLAIN, _finite_constant, _weighted

ROOT = Path(__file__).resolve().parents[1]


def test_default_config_is_valid():
    cfg = RunConfig()
    cfg.validate()
    assert cfg.hbar == 1.0
    assert cfg.h_o == 1.0
    assert len(cfg.h_values) == 11
    assert cfg.h_values[0] == 0.0
    assert cfg.h_values[-1] == 1.0


def test_config_round_trips_through_dict():
    cfg = RunConfig()
    assert RunConfig.from_dict(asdict(cfg)) == cfg


def test_config_round_trips_through_json():
    cfg = RunConfig(
        seed=77,
        h_values=(0.0, 0.25, 1.0),
        weights=WeightsConfig(c_q=(0.6, 0.0), c_p=(0.0, 0.8)),
        state=StateSpec(kind="cm-point", k=3, l=1),
        fault_injection=0.5,
    )
    text = json.dumps(asdict(cfg))
    again = RunConfig.from_dict(json.loads(text))
    assert again == cfg


def test_config_file_loading(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 5, "h_values": [0.0, 1.0]}))
    cfg = RunConfig.from_json_file(str(path))
    assert cfg.seed == 5
    assert cfg.h_values == (0.0, 1.0)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"sedd": 5})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"backend_q": {"knid": "fock"}})


def test_dynamics_section_keys_and_defaults():
    assert asdict(DynamicsSpec()) == {
        "q0": 1.0, "p0": 0.0, "sigma": None, "n_grid": 64, "n_fock": 32,
        "length": 16.0, "dt": 1e-3, "period_count": 1, "record_stride": 50,
        "mode": "compare", "steps": None,
    }
    # hbar is the run's, set at the top level only
    with pytest.raises(ConfigError, match="unknown dynamics config keys: hbar"):
        RunConfig.from_dict({"dynamics": {"hbar": 1.0}})


def test_config_rejects_out_of_range_h():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"h_values": [0.0, 1.5]})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"h_values": [-0.1]})


def test_config_rejects_bad_family_and_expr():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"family": "mixed"})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"observable": "Q / P"})


def test_config_rejects_malformed_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        RunConfig.from_json_file(str(path))
    with pytest.raises(ConfigError):
        RunConfig.from_json_file(str(tmp_path / "missing.json"))


def test_backend_spec_default_length_rule():
    spec = RunConfig.from_dict({"backend_q": {"kind": "fock", "n": 16}}).backend_q
    assert spec.length == 8.0  # carried but unused for fock
    with pytest.raises(ConfigError, match="backend_q: grid backends need a positive length"):
        RunConfig.from_dict({"backend_q": {"kind": "grid-position", "length": None}})


def test_empty_config_reads_to_defaults():
    assert RunConfig.from_dict({}) == RunConfig()


def test_partial_section_keeps_the_section_defaults():
    # the default p backend is a momentum grid, not BackendSpec's own default
    cfg = RunConfig.from_dict({"backend_p": {"n": 5}})
    assert cfg.backend_p == BackendSpec(kind="grid-momentum", n=5, length=8.0)


def test_readme_default_config_reads_to_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert RunConfig.from_dict(json.loads(block)) == RunConfig()


def _run_python(*argv, timeout):
    """Run ``python argv`` in a child process with this checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True,
        timeout=timeout,
    )


def test_readme_quick_start_runs():
    section = (ROOT / "README.md").read_text().split("## Quick start (library)", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    run = _run_python("-c", block, timeout=120)
    assert run.returncode == 0, run.stderr
    defect, group = run.stdout.splitlines()
    assert float(defect) < 1e-14
    value, multiplicity = ast.literal_eval(group)
    assert value == pytest.approx(0.5, abs=1e-10)
    assert multiplicity == 32


def test_build_state_lifted_default():
    cfg = RunConfig()
    bq, bp = build_backends(cfg)
    state = build_state(cfg, bq, bp)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


def test_build_state_cm_point():
    cfg = RunConfig(state=StateSpec(kind="cm-point", k=2, l=5))
    bq, bp = build_backends(cfg)
    state = build_state(cfg, bq, bp)
    # the basis vector at grid slot (2, 5), both r-slots weighted
    assert np.flatnonzero(state).tolist() == [(2 * 8 + 5) * 2, (2 * 8 + 5) * 2 + 1]


def test_build_state_fock_backends():
    cfg = RunConfig(
        backend_q=BackendSpec(kind="fock", n=12, length=None),
        backend_p=BackendSpec(kind="fock", n=12, length=None),
        state=StateSpec(q0=0.5, p0=0.0),
    )
    bq, bp = build_backends(cfg)
    state = build_state(cfg, bq, bp)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


def test_cmd_verify_writes_report_and_passes(tmp_path, capsys):
    cfg = RunConfig()
    code = cmd_verify(cfg, str(tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    assert "all checks passed" in out
    payload = json.loads((tmp_path / "verify_report.json").read_text())
    assert payload["seed"] == cfg.seed
    names = [c["name"] for c in payload["checks"]]
    assert "qm-ccr" in names
    assert all("elapsed" not in c for c in payload["checks"])


def test_cmd_verify_fault_injection_fails(tmp_path, capsys):
    cfg = RunConfig(fault_injection=0.5)
    code = cmd_verify(cfg, str(tmp_path))
    out = capsys.readouterr().out
    assert code == 1
    payload = json.loads((tmp_path / "verify_report.json").read_text())
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["qm-ccr"]["status"] == "fail"
    assert "canonical-diff" in by_name["qm-ccr"]["witness"]
    assert "FAIL" in out


def test_cmd_verify_csv_format(tmp_path):
    cfg = RunConfig()
    code = cmd_verify(cfg, str(tmp_path), fmt="csv")
    assert code == 0
    lines = (tmp_path / "verify_report.csv").read_text().splitlines()
    assert lines[0] == "name,status,informational,witness,note"
    assert any(line.startswith("qm-ccr,pass") for line in lines)


def test_cmd_sweep_csv_shape(tmp_path):
    cfg = RunConfig()
    code = cmd_sweep(cfg, str(tmp_path))
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0].split(",") == [
        "h", "lambda", "mean_q_tilde", "mean_p_tilde", "mean_observable",
        "bulk_commutator_defect", "endpoint_q_diff", "endpoint_p_diff",
    ]
    assert len(lines) == 12
    first = lines[1].split(",")
    last = lines[-1].split(",")
    # h=0 maps to weight 1 and carries the gap against the commuting pair
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0
    assert float(first[6]) > 0.1
    # h=h_o maps to weight 0 and matches the qm pair exactly
    assert float(last[0]) == 1.0 and float(last[1]) == 0.0
    assert float(last[6]) == 0.0 and float(last[7]) == 0.0
    # intermediate rows leave the endpoint columns empty
    assert lines[2].split(",")[6] == ""


def test_cmd_sweep_means_are_affine_in_h(tmp_path):
    cfg = RunConfig()
    cmd_sweep(cfg, str(tmp_path))
    rows = [
        line.split(",")
        for line in (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    ]
    hs = np.array([float(r[0]) for r in rows])
    means = np.array([float(r[2]) for r in rows])
    chord = means[0] + (means[-1] - means[0]) * (hs - hs[0]) / (hs[-1] - hs[0])
    assert np.max(np.abs(means - chord)) < 1e-10


def test_cmd_sweep_json_format(tmp_path):
    cfg = RunConfig(h_values=(0.0, 0.5, 1.0))
    code = cmd_sweep(cfg, str(tmp_path), fmt="json")
    assert code == 0
    payload = json.loads((tmp_path / "sweep.json").read_text())
    assert len(payload["rows"]) == 3
    assert payload["rows"][1]["endpoint_q_diff"] is None


def test_cmd_sweep_cm_point_state(tmp_path):
    cfg = RunConfig(
        state=StateSpec(kind="cm-point", k=2, l=5),
        weights=WeightsConfig(c_q=(0.6, 0.0), c_p=(0.8, 0.0)),
        h_values=(0.0, 1.0),
    )
    code = cmd_sweep(cfg, str(tmp_path))
    assert code == 0


@pytest.mark.parametrize("family", ["qm", "cm"])
def test_sweep_refuses_a_fixed_family(tmp_path, capsys, family):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"family": family}))
    code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (
        "error: sweep tabulates the interpolating pair only (family tilde),"
        f" got family {family!r}\n"
    )
    assert not (tmp_path / "out").exists()


def test_cmd_kernels_writes_blocks(tmp_path):
    cfg = RunConfig(h_values=(0.5,))
    code = cmd_kernels(cfg, str(tmp_path))
    assert code == 0
    for pair in ("qq", "qp", "pq", "pp"):
        lines = (tmp_path / f"kernel_{pair}.csv").read_text().splitlines()
        assert lines[0] == "row,col,re,im"
        assert len(lines) == 1 + 64 * 64
    meta = json.loads((tmp_path / "kernels_meta.json").read_text())
    assert meta["h"] == 0.5
    assert meta["lambda"] == 0.5
    assert meta["dims"] == [8, 8, 2]


def test_cmd_kernels_family_selector(tmp_path):
    cfg = RunConfig(h_values=(0.25,), family="cm")
    code = cmd_kernels(cfg, str(tmp_path))
    assert code == 0
    meta = json.loads((tmp_path / "kernels_meta.json").read_text())
    assert meta["family"] == "cm"
    assert meta["lambda"] is None
    # the commuting family acts within sectors only: off-diagonal blocks vanish
    qp = (tmp_path / "kernel_qp.csv").read_text().splitlines()[1:]
    assert all(float(r.split(",")[2]) == 0.0 and float(r.split(",")[3]) == 0.0 for r in qp)


def test_cmd_kernels_needs_single_h(tmp_path):
    cfg = RunConfig()
    with pytest.raises(ConfigError):
        cmd_kernels(cfg, str(tmp_path))


def test_cmd_kernels_optional_matrix_export(tmp_path):
    cfg = RunConfig(h_values=(1.0,), export_matrix=True)
    code = cmd_kernels(cfg, str(tmp_path))
    assert code == 0
    assert (tmp_path / "matrix.bin").exists()
    assert (tmp_path / "matrix.bin.json").exists()


def test_cmd_kernels_past_the_dense_bound_is_usage_error(tmp_path, capsys):
    # a Fock pair at N = 128 realizes at dimension 32768 (16 GiB), and its
    # 16384 x 16384 term temporary takes 4 GiB more
    path = tmp_path / "fock128.json"
    fock = {"kind": "fock", "n": 128}
    path.write_text(json.dumps({"backend_q": fock, "backend_p": fock}))
    out = tmp_path / "out"
    assert main(["kernels", "--config", str(path), "--h", "1.0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: a dense 32768 x 32768 matrix and its 16384 x 16384 term need"
        " 20.0 GiB, above the 1 GiB bound\n"
    )
    assert not out.exists()


def test_cmd_kernels_records_the_canonical_backend_kinds(tmp_path):
    cfg = RunConfig.from_dict({
        "h_values": [1.0],
        "export_matrix": True,
        "backend_q": {"kind": " GRID_Position "},
        "backend_p": {"kind": "Fock", "n": 8},
    })
    assert cmd_kernels(cfg, str(tmp_path)) == 0
    meta = json.loads((tmp_path / "kernels_meta.json").read_text())
    sidecar = json.loads((tmp_path / "matrix.bin.json").read_text())
    assert (meta["backend_q"], meta["backend_p"]) == ("grid-position", "fock")
    assert sidecar["kind"] == {"q": "grid-position", "p": "fock"}


@pytest.mark.parametrize("where", ["file", "below-file", "empty"])
@pytest.mark.parametrize(
    "argv", [["verify"], ["sweep"], ["kernels", "--h", "1.0"], ["evolve"]],
    ids=["verify", "sweep", "kernels", "evolve"],
)
def test_an_unusable_out_is_usage_error(tmp_path, capsys, argv, where):
    # --out names an existing regular file, a path below one, or nothing
    (tmp_path / "taken").write_text("kept\n")
    out = {"file": tmp_path / "taken", "below-file": tmp_path / "taken" / "sub", "empty": ""}[where]
    config = tmp_path / "small.json"
    config.write_text(json.dumps(
        {"dynamics": {"n_grid": 16, "n_fock": 8, "dt": 0.01}}
    ))
    with warnings.catch_warnings():
        # the small compare grid reports its boundary ring; not under test
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(argv + ["--config", str(config), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    # refused before any work: nothing on stdout
    assert captured.out == ""
    err = captured.err
    assert err.count("\n") == 1 and err.startswith("error: ") and str(out) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["small.json", "taken"]
    assert (tmp_path / "taken").read_text() == "kept\n"


def test_cmd_evolve_rejects_intermediate_h(tmp_path):
    cfg = RunConfig(h_values=(0.5,))
    with pytest.raises(ConfigError, match="no dynamics defined at intermediate h"):
        cmd_evolve(cfg, str(tmp_path))


def test_cmd_evolve_quantum_endpoint(tmp_path):
    cfg = RunConfig(
        h_values=(1.0,),
        dynamics=DynamicsSpec(mode="auto", steps=50, dt=1e-2, record_stride=10),
    )
    code = cmd_evolve(cfg, str(tmp_path))
    assert code == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,mean_q,mean_p,mean_energy,norm_or_trace"
    meta = json.loads((tmp_path / "evolve_meta.json").read_text())
    assert meta["mode"] == "von-neumann"
    assert meta["steps"] == 50


def test_cmd_evolve_classical_endpoint(tmp_path):
    cfg = RunConfig(
        h_values=(0.0,),
        dynamics=DynamicsSpec(
            mode="auto", steps=100, dt=1e-3, record_stride=50, n_grid=32
        ),
    )
    code = cmd_evolve(cfg, str(tmp_path))
    assert code == 0
    meta = json.loads((tmp_path / "evolve_meta.json").read_text())
    assert meta["mode"] == "liouville"


EVOLVE_META_KEYS = {
    "compare": {
        "classical_mass_drift", "dt", "hbar", "length", "max_dp_abs", "max_dq_abs",
        "mode", "n_fock", "n_grid", "p0", "period_count", "q0", "quantum_trace_drift",
        "record_stride", "sigma",
    },
    "liouville": {"dt", "final_drift", "h", "hbar", "mode", "record_stride", "steps"},
    "von-neumann": {"dt", "final_drift", "h", "hbar", "mode", "record_stride", "steps"},
}


@pytest.mark.parametrize(
    "h, dynamics, mode",
    [
        (1.0, DynamicsSpec(n_grid=16, n_fock=8, dt=0.05, record_stride=40), "compare"),
        (0.0, DynamicsSpec(mode="auto", steps=20, record_stride=10, n_grid=16), "liouville"),
        (1.0, DynamicsSpec(mode="auto", steps=20, record_stride=10), "von-neumann"),
    ],
    ids=["compare", "liouville", "von-neumann"],
)
def test_evolve_meta_key_sets_are_pinned(tmp_path, h, dynamics, mode):
    cfg = RunConfig(hbar=0.5, h_values=(h,), dynamics=dynamics)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the small boxes warn of boundary mass
        assert cmd_evolve(cfg, str(tmp_path)) == 0
    meta = json.loads((tmp_path / "evolve_meta.json").read_text())
    assert set(meta) == EVOLVE_META_KEYS[mode]
    assert meta["mode"] == mode and meta["hbar"] == 0.5
    if mode == "compare":
        assert meta["sigma"] == np.sqrt(0.25)  # the coherent width at hbar 0.5


def test_main_verify_exit_codes(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()


def test_main_seed_and_h_overrides(tmp_path, capsys):
    code = main(
        ["sweep", "--out", str(tmp_path), "--seed", "99", "--h", "1.0"]
    )
    capsys.readouterr()
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2
    assert float(lines[1].split(",")[0]) == 1.0


def test_main_negative_zero_h_writes_the_classical_endpoint(tmp_path, capsys):
    for h in ("0", "-0.0"):
        for command in ("sweep", "kernels"):
            assert main([command, "--h", h, "--out", str(tmp_path / h / command)]) == 0
    capsys.readouterr()
    files = sorted(p.relative_to(tmp_path / "0") for p in (tmp_path / "0").rglob("*.*"))
    assert len(files) == 6  # sweep.csv, four kernel CSVs and kernels_meta.json
    for name in files:
        assert (tmp_path / "-0.0" / name).read_bytes() == (tmp_path / "0" / name).read_bytes(), name
    # a JSON h_values entry and a replaced config get the same sign
    assert str(RunConfig.from_dict({"h_values": [-0.0, 0.5]}).h_values) == "(0.0, 0.5)"
    assert str(replace(RunConfig(), h_values=(-0.0,)).h_values) == "(0.0,)"


def test_main_expr_override(tmp_path, capsys):
    code = main(["kernels", "--out", str(tmp_path), "--h", "1.0", "--expr", "Q"])
    capsys.readouterr()
    assert code == 0
    meta = json.loads((tmp_path / "kernels_meta.json").read_text())
    assert meta["observable"] == "Q"


def test_main_bad_expr_is_usage_error(tmp_path, capsys):
    code = main(["sweep", "--out", str(tmp_path), "--expr", "Q // P"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_main_intermediate_h_is_usage_error(tmp_path, capsys):
    code = main(["evolve", "--out", str(tmp_path), "--h", "0.5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "no dynamics defined at intermediate h" in err


@pytest.mark.parametrize(
    "config, field",
    [
        ({"dynamics": {"dt": -1}}, "dt"),
        ({"h_values": [0.0], "dynamics": {"mode": "auto", "dt": -1}}, "dt"),
        ({"dynamics": {"dt": 0}}, "dt"),
        ({"dynamics": {"dt": float("nan")}}, "dt"),
        ({"dynamics": {"dt": float("inf")}}, "dt"),
        ({"dynamics": {"record_stride": 0}}, "record_stride"),
        ({"dynamics": {"period_count": 0}}, "period_count"),
        ({"h_values": [0.0], "dynamics": {"mode": "auto", "steps": 0}}, "steps"),
        ({"dynamics": {"n_grid": 1}}, "n_grid"),
        ({"dynamics": {"n_fock": 1}}, "n_fock"),
        ({"dynamics": {"length": 0}}, "length"),
        ({"dynamics": {"length": float("inf")}}, "length"),
    ],
    ids=[
        "dt-negative-compare", "dt-negative-auto", "dt-zero", "dt-nan", "dt-inf",
        "record_stride", "period_count", "steps", "n_grid", "n_fock", "length-zero",
        "length-inf",
    ],
)
def test_main_bad_dynamics_value_is_usage_error(tmp_path, capsys, config, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    code = main(["evolve", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: dynamics {field} must be")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "config, message",
    [
        ({"dynamics": {"dt": "x"}}, "dynamics dt must be a finite number, got 'x'"),
        ({"seed": "abc"}, "seed must be an integer, got 'abc'"),
        ({"h_values": 0.5}, "h_values must be an array, each entry a finite number"),
        ({"weights": None}, "weights must be a JSON object, got None"),
        ({"state": {"q0": [1, 2]}}, "state q0 must be a finite number, got [1, 2]"),
        (
            {"fault_injection": {"rule": "swap-contraction-sign", "factor": -1.0}},
            "fault_injection must be a finite number, or null, got {",
        ),
        ({"export_matrix": "false"}, "export_matrix must be true or false"),
        ({"backend_q": {"n": 8.7}}, "backend_q n must be an integer, got 8.7"),
        ({"hbar": float("inf")}, "hbar must be a finite number, got inf"),
        ({"backend_q": "fock"}, "backend_q must be a JSON object, got 'fock'"),
        (
            {"weights": {"a_vec": [[1, 0, 0]]}},
            "weights a_vec must be an array, each entry a number or an [re, im] pair",
        ),
        ({"dynamics": {"steps": 2.5}}, "dynamics steps must be an integer, or null"),
    ],
    ids=[
        "dt-string", "seed-string", "h_values-number", "weights-null",
        "q0-array", "fault_injection-object", "export_matrix-string",
        "n-fraction", "hbar-infinity", "backend-string", "a_vec-triple",
        "steps-fraction",
    ],
)
def test_main_mistyped_config_value_is_usage_error(tmp_path, capsys, config, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    code = main(["verify", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["verify", "sweep", "kernels", "evolve"])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_main_negative_seed_is_usage_error(tmp_path, capsys, where, command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": -1} if where == "config" else {}))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    code = main(argv + (["--seed", "-1"] if where == "flag" else []))
    assert code == 2
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["verify", "sweep", "kernels", "evolve"])
def test_main_subnormal_hbar_is_usage_error(tmp_path, capsys, command):
    # below the smallest normal float roundoff is no longer relative to the
    # operands: at hbar 1e-310 verify failed fock-truncated-ccr with no fault
    assert RunConfig.from_dict({"hbar": sys.float_info.min}).hbar == sys.float_info.min
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"hbar": 1e-310, "h_values": [1.0]}))
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: hbar must be at least 2.2250738585072014e-308, got 1e-310\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize(
    "command, section", [("sweep", "state"), ("evolve", "dynamics")]
)
def test_main_nonpositive_sigma_is_usage_error(tmp_path, capsys, command, section, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({section: {"sigma": value}}))
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {section} sigma must be positive and finite, got {float(value)}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["verify", "sweep", "kernels", "evolve"])
@pytest.mark.parametrize(
    "backend, message",
    [
        ({"n": 1}, "backend_q: backend dimension must be at least 2, got 1"),
        (
            {"kind": "grid-position", "length": None},
            "backend_q: grid backends need a positive length, got None",
        ),
    ],
    ids=["n-1", "grid-length-null"],
)
def test_main_bad_backend_is_usage_error_for_every_command(
    tmp_path, capsys, command, backend, message
):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"h_values": [1.0], "backend_q": backend}))
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_construction_sizes_are_priced_by_their_arithmetic():
    # building a backend holds six complex N x N arrays at once (96 bytes an
    # entry), the Liouville flow 16 float ones (128) and compare mode's
    # quantum side 20 complex ones (320): the largest sizes the 1 GiB bound
    # admits, and one more is refused; nothing is allocated
    assert MAX_DENSE_BYTES == 1 << 30
    most = math.isqrt(MAX_DENSE_BYTES // 96)
    assert most == 3344
    for kind in ("fock", "grid-position", "grid-momentum"):
        assert check_backend(kind, most, 8.0) == kind
        with pytest.raises(ValueError, match=f"the 6 arrays of 3345 x 3345 entries of a {kind} backend"):
            check_backend(kind, most + 1, 8.0)
    for name, most, count, itemsize in (("n_grid", 2896, 16, 8), ("n_fock", 1831, 20, 16)):
        assert most == math.isqrt(MAX_DENSE_BYTES // (count * itemsize))
        DynamicsSpec(**{name: most}).validate()
        with pytest.raises(ConfigError, match=f"dynamics: the {count} arrays of {most + 1} x {most + 1}"):
            DynamicsSpec(**{name: most + 1}).validate()


@pytest.mark.parametrize("command", ["verify", "sweep", "kernels", "evolve"])
@pytest.mark.parametrize(
    "config, message",
    [
        # once 728 TiB at the first allocation, exit 1 with a traceback
        ({"backend_q": {"kind": "fock", "n": 10**7}},
         "backend_q: the 6 arrays of 10000000 x 10000000 entries of a fock backend"
         " of 10000000 points need 8940696.7 GiB, above the 1 GiB bound"),
        ({"dynamics": {"n_grid": 10**8}},
         "dynamics: the 16 arrays of 100000000 x 100000000 entries of the Liouville"
         " flow on an n_grid^2 mesh need 1192092895.5 GiB, above the 1 GiB bound"),
        # compare mode runs the whole Liouville flow before it builds the Fock pair
        ({"dynamics": {"n_fock": 2000}},
         "dynamics: the 20 arrays of 2000 x 2000 entries of the quantum flow on an"
         " n_fock^2 Fock pair need 1.2 GiB, above the 1 GiB bound"),
    ],
    ids=["backend-n-1e7", "n-grid-1e8", "n-fock-2000"],
)
def test_main_oversized_construction_is_usage_error(tmp_path, capsys, command, config, message):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"h_values": [1.0], **config}))
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_format_flag_is_only_on_report_commands(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kernels", "--h", "1.0", "--format", "json", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err


STEEP = {"dt": 0.2, "n_grid": 16, "n_fock": 8}


# configs whose dt lies beyond the stability bound of a fixed-step RK4; the
# last two overflowed it to NaN between two records
OVERFLOW_AUTO = {
    "h_values": [0.0],
    "dynamics": {"mode": "auto", "dt": 0.2, "n_grid": 16, "steps": 5000, "record_stride": 5000},
}
OVERFLOW_COMPARE = {
    "dynamics": {"dt": 0.2, "n_grid": 16, "n_fock": 8, "period_count": 50, "record_stride": 100000},
}


@pytest.mark.filterwarnings("ignore:boundary ring:RuntimeWarning")
@pytest.mark.parametrize(
    "config, drift_key",
    [
        ({"dynamics": STEEP}, "classical_mass_drift"),
        ({"h_values": [0.0], "dynamics": {**STEEP, "mode": "auto"}}, "final_drift"),
        (OVERFLOW_COMPARE, "classical_mass_drift"),
        (OVERFLOW_AUTO, "final_drift"),
    ],
    ids=["compare", "auto", "compare-nan", "auto-nan"],
)
def test_main_coarse_dt_liouville_run_conserves_mass(tmp_path, capsys, config, drift_key):
    # dt sets only the record grid: exp(tau L) is summed in substeps that
    # its norm bound sets, whatever the record spacing
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    meta = json.loads((out / "evolve_meta.json").read_text())
    assert meta[drift_key] < 1e-12


# a child process whose bracket returns inf, so that the mass test at the
# first record after t = 0 must abort the run
INF_BRACKET_MAIN = """
import sys
import numpy as np
import qclab.dynamics

def inf_bracket(*args, out, work):
    out.fill(np.inf)
    return out

qclab.dynamics._bracket = inf_bracket
from qclab.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "config",
    [{"dynamics": STEEP}, {"h_values": [0.0], "dynamics": {**STEEP, "mode": "auto"}}],
    ids=["compare", "auto"],
)
def test_main_diverging_liouville_run_is_usage_error(tmp_path, config):
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(config))
    # a child process, so that the test sees the warnings a user's terminal
    # shows rather than the ones pytest records
    run = _run_python(
        "-c", INF_BRACKET_MAIN,
        "evolve", "--config", str(path), "--out", str(tmp_path / "out"),
        timeout=300,
    )
    assert run.returncode == 2
    assert run.stderr.startswith("error: Liouville integration unstable")
    assert run.stderr.count("\n") == 1
    assert "encountered in" not in run.stderr
    assert not (tmp_path / "out").exists()


FOCK_8 = {"kind": "fock", "n": 8}
FOCK_2 = {"kind": "fock", "n": 2}
NOT_FINITE = "is not finite or has zero norm"
WIDE_DENSITY = (
    "the phase-space Gaussian of widths (1e+200, 1e+200) has a squared width past the float range"
)


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["sweep"], {"state": {"q0": 1e300}, "backend_q": FOCK_8, "backend_p": FOCK_8},
         f"the coherent state of alpha=7.07e+299+0j on 8 levels {NOT_FINITE}"),
        (["evolve", "--h", "1.0"],
         {"state": {"q0": 1e300}, "backend_q": FOCK_8, "backend_p": FOCK_8,
          "dynamics": {"mode": "auto"}},
         f"the coherent state of alpha=7.07e+299+0j on 8 levels {NOT_FINITE}"),
        (["sweep"], {"hbar": 1e200},
         "cannot evaluate means at h=0.0: mean value is not finite: (nan+nanj)"),
        (["sweep"], {"state": {"sigma": 1e-170}},
         f"the Gaussian of width sigma=1e-170 on this grid {NOT_FINITE}"),
        (["sweep"], {"state": {"sigma": 1e-300}},
         f"the Gaussian of width sigma=1e-300 on this grid {NOT_FINITE}"),
        (["sweep"], {"state": {"sigma": 1e200}},
         f"the Gaussian of width sigma=1e+200 on this grid {NOT_FINITE}"),
        (["evolve", "--h", "1.0"], {"state": {"sigma": 1e-170}, "dynamics": {"mode": "auto"}},
         f"the Gaussian of width sigma=1e-170 on this grid {NOT_FINITE}"),
        (["kernels", "--h", "1.0"], {"hbar": 1e200},
         "the realized observable is not finite at hbar=1e+200"),
        (["evolve"], {"dynamics": {"sigma": 1e-170}},
         "density has negative or NaN entries (min nan)"),
        (["evolve", "--h", "0.0"], {"dynamics": {"mode": "auto", "sigma": 1e-170}},
         "density has negative or NaN entries (min nan)"),
        # hbar^2 of a coefficient is past the float range
        (["kernels", "--h", "0.5"], {"hbar": 1e200, "observable": "Q^2*P^2 + P^2*Q^2"},
         "the realized observable is not finite at hbar=1e+200"),
        (["evolve"], {"dynamics": {"sigma": 1e200}}, WIDE_DENSITY),
        (["evolve"], {"h_values": [0.0], "dynamics": {"mode": "auto", "sigma": 1e200}},
         WIDE_DENSITY),
        # P^2 on a momentum grid of length 1e300
        (["evolve", "--h", "1.0"],
         {"backend_p": {"kind": "grid-momentum", "n": 2, "length": 1e300},
          "dynamics": {"mode": "auto", "steps": 20}},
         "the Hamiltonian's p-factor matrix is not finite on this pair"),
        # finite factors, but the phases E t / hbar overflow
        (["evolve", "--h", "1.0", "--expr", "Q^8"],
         {"backend_q": FOCK_2, "backend_p": {"kind": "grid-position", "n": 2, "length": 1e8},
          "dynamics": {"mode": "auto", "steps": 1, "dt": 1e300}},
         "the quantum records are not finite (dt=1e+300, steps=1)"),
        (["sweep", "--expr", "Q^4 + P^4"],
         {"hbar": 1e30, "backend_q": {"kind": "grid-position", "n": 6, "length": 1e-300}},
         "the grid-position backend of 6 points on length 1e-300 at hbar=1e+30"
         " has a Q or P that is not finite"),
        # steps = round(2 pi / dt) is finite, its records are past the byte bound
        (["evolve"], {"dynamics": {"dt": 1e-30}},
         "steps=6283185307179585306927499837440 at record_stride=50 make"
         " 125663706143591706138549996750 records, 80 bytes each, above the 1 GiB bound"),
        # 2 pi / dt overflows to inf
        (["evolve"], {"dynamics": {"dt": 1e-310}},
         "period_count=1 at dt=1e-310 has no finite step count"),
        (["evolve", "--h", "1.0"], {"dynamics": {"mode": "auto", "dt": 1e-310}},
         "period_count=1 at dt=1e-310 has no finite step count"),
    ],
    ids=[
        "sweep-q0-1e300", "evolve-q0-1e300", "sweep-hbar-1e200", "sweep-sigma-1e-170",
        "sweep-sigma-1e-300", "sweep-sigma-1e200", "evolve-sigma-1e-170",
        "kernels-hbar-1e200", "compare-sigma-1e-170", "liouville-sigma-1e-170",
        "kernels-hbar-power-overflow", "compare-sigma-1e200", "liouville-sigma-1e200",
        "von-neumann-factor-overflow", "von-neumann-record-overflow", "sweep-backend-overflow",
        "compare-dt-1e-30", "compare-dt-1e-310", "von-neumann-dt-1e-310",
    ],
)
def test_main_non_finite_state_or_mean_is_usage_error(tmp_path, capsys, argv, config, message):
    # each config passes validate; the state or a mean overflows to inf or NaN
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would print before the error line
        code = main(argv + ["--config", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["--expr", "Q*P"], {}, "compare mode evolves the oscillator (1/2)*(P^2 + Q^2) only"),
        (["--h", "1.0", "--expr", "Q*P"], {"dynamics": {"mode": "auto"}},
         "Hamiltonian is not Hermitian"),
        ([], {"dynamics": {"mode": "auto"}}, "evolve needs exactly one h value"),
        # ||L|| <= 3.9e30 on the default grid: refused before any bracket
        (["--h", "0.0", "--expr", "Q^32"], {"dynamics": {"mode": "auto"}},
         "Liouville transport would take at least"),
        # 3.8e9 substeps of an 8^2 grid, each bracket priced at its 4 us floor
        # (2^16 multiply-adds): 2.5e14, past the budget of 2^46
        ([], {"h_values": [0.0], "dynamics": {"mode": "auto", "dt": 1e8, "steps": 20,
                                              "record_stride": 5, "n_grid": 8, "length": 1.0}},
         "Liouville transport would take at least 2.5e+14 multiply-adds"),
    ],
    ids=["compare-QP", "auto-QP", "auto-no-single-h", "auto-steep-flow", "auto-slow-flow"],
)
def test_main_evolve_refusal_is_usage_error(tmp_path, capsys, argv, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code = main(["evolve", "--config", str(path), "--out", str(tmp_path / "out")] + argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_compare_mode_accepts_the_oscillator_however_written(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dynamics": {"n_grid": 32, "n_fock": 16, "dt": 5e-3}}))
    runs = []
    for name, expr in (("a", "(1/2)*(P^2 + Q^2)"), ("b", "(1/2)*Q^2 + (1/2)*P^2")):
        argv = ["evolve", "--config", str(path), "--out", str(tmp_path / name)]
        with warnings.catch_warnings():
            # the small compare grid reports its boundary ring; not under test
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(argv + ["--expr", expr]) == 0
        runs.append((tmp_path / name / "comparison.csv").read_bytes())
    capsys.readouterr()
    assert runs[0] == runs[1]


def test_main_missing_config_file(tmp_path, capsys):
    code = main(
        ["verify", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
    )
    capsys.readouterr()
    assert code == 2


def test_main_fault_injection_via_config(tmp_path, capsys):
    path = tmp_path / "fault.json"
    path.write_text(json.dumps({"fault_injection": 0.5}))
    code = main(
        ["verify", "--config", str(path), "--out", str(tmp_path / "rep")]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_verify_report_is_deterministic(tmp_path, capsys):
    main(["verify", "--out", str(tmp_path / "r1")])
    main(["verify", "--out", str(tmp_path / "r2")])
    capsys.readouterr()
    b1 = (tmp_path / "r1" / "verify_report.json").read_bytes()
    b2 = (tmp_path / "r2" / "verify_report.json").read_bytes()
    assert b1 == b2


def test_sweep_output_is_deterministic(tmp_path, capsys):
    main(["sweep", "--out", str(tmp_path / "s1")])
    main(["sweep", "--out", str(tmp_path / "s2")])
    capsys.readouterr()
    b1 = (tmp_path / "s1" / "sweep.csv").read_bytes()
    b2 = (tmp_path / "s2" / "sweep.csv").read_bytes()
    assert b1 == b2


def test_main_long_sum_writes_its_kernels(tmp_path, capsys):
    expr = "+".join(["Q"] * 1500)
    code = main(["kernels", "--h", "1.0", "--expr", expr, "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    meta = json.loads((tmp_path / "kernels_meta.json").read_text())
    assert meta["observable"] == expr
    single = tmp_path / "single"
    assert main(["kernels", "--h", "1.0", "--expr", "Q", "--out", str(single)]) == 0
    capsys.readouterr()
    # 1500 Q = 1500 * Q exactly, entry by entry
    for name in ("kernel_qq.csv", "kernel_pp.csv"):
        long_rows = (tmp_path / name).read_text().splitlines()[1:]
        single_rows = (single / name).read_text().splitlines()[1:]
        for a, b in zip(long_rows, single_rows):
            assert float(a.split(",")[2]) == 1500 * float(b.split(",")[2])


def test_main_deep_nesting_is_usage_error(tmp_path, capsys):
    expr = "(" * 1200 + "Q" + ")" * 1200
    code = main(["kernels", "--h", "1.0", "--expr", expr, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: observable does not parse: expression nests deeper than")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["sweep", "kernels", "evolve"])
def test_main_high_degree_is_usage_error(tmp_path, capsys, command):
    # refused when parsed, before any normal ordering of Q^1000000 starts
    code = main([command, "--h", "1.0", "--expr", "Q^1000000", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (
        "error: observable does not parse: expression has degree 1000000,"
        " above 32 (at position 0)\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "h, dynamics, artifacts",
    [
        (None, {"mode": "compare", "n_grid": 32, "n_fock": 16, "dt": 5e-3},
         ("comparison.csv", "evolve_meta.json")),
        ("1.0", {"mode": "auto", "dt": 1e-2, "steps": 300, "record_stride": 7},
         ("trajectory.csv", "evolve_meta.json")),
    ],
    ids=["compare", "auto-quantum"],
)
def test_evolve_is_byte_deterministic(tmp_path, capsys, h, dynamics, artifacts):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dynamics": dynamics}))
    runs = []
    for name in ("e1", "e2"):
        argv = ["evolve", "--config", str(path), "--out", str(tmp_path / name)]
        with warnings.catch_warnings():
            # the small compare grid reports its boundary ring; not under test
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(argv + (["--h", h] if h else [])) == 0
        runs.append([(tmp_path / name / a).read_bytes() for a in artifacts])
    capsys.readouterr()
    assert runs[0] == runs[1]
    assert all(runs[0])


# -- config keys of `sweep` ------------------------------------------------

_CM_POINT = {"state.kind": "cm-point"}

# For every leaf key of the configuration: the overrides of the run it is
# compared against, and the overrides of the perturbed run, which give the
# key a valid non-default value.  A key read under one state kind only is
# perturbed under that kind.  c_q and c_p are tied by
# |c_q|^2 + |c_p|^2 = 1, so each moves with its partner.
_SWEEP_PERTURBATIONS = {
    "hbar": ({}, {"hbar": 0.7}),
    "h_o": ({}, {"h_o": 2.0}),
    "h_values": ({}, {"h_values": [0.0, 0.5]}),
    "seed": ({}, {"seed": 7}),
    "observable": ({}, {"observable": "Q^2"}),
    "family": ({}, {"family": "qm"}),
    "fault_injection": ({}, {"fault_injection": -1.0}),
    "export_matrix": ({}, {"export_matrix": True}),
    "backend_q.kind": ({}, {"backend_q.kind": "fock"}),
    "backend_q.n": ({}, {"backend_q.n": 5}),
    "backend_q.length": ({}, {"backend_q.length": 6.0}),
    "backend_p.kind": ({}, {"backend_p.kind": "fock"}),
    "backend_p.n": ({}, {"backend_p.n": 4}),
    "backend_p.length": ({}, {"backend_p.length": 6.0}),
    "weights.c_q": ({}, {"weights.c_q": [0.6, 0.0], "weights.c_p": [0.8, 0.0]}),
    "weights.c_p": ({}, {"weights.c_p": [0.6, 0.0], "weights.c_q": [0.8, 0.0]}),
    "weights.a_vec": ({}, {"weights.a_vec": [0.0, 1.0, 0.0, 0.0, 0.0]}),
    "weights.b_vec": ({}, {"weights.b_vec": [0.0, 1.0, 0.0, 0.0]}),
    "state.kind": ({}, _CM_POINT),
    "state.q0": ({}, {"state.q0": 0.3}),
    "state.p0": ({}, {"state.p0": -0.3}),
    "state.sigma": ({}, {"state.sigma": 0.5}),
    "state.k": (_CM_POINT, {**_CM_POINT, "state.k": 1}),
    "state.l": (_CM_POINT, {**_CM_POINT, "state.l": 2}),
    "dynamics.mode": ({}, {"dynamics.mode": "auto"}),
    "dynamics.q0": ({}, {"dynamics.q0": 0.5}),
    "dynamics.p0": ({}, {"dynamics.p0": 0.5}),
    "dynamics.sigma": ({}, {"dynamics.sigma": 0.5}),
    "dynamics.dt": ({}, {"dynamics.dt": 0.002}),
    "dynamics.steps": ({}, {"dynamics.steps": 10}),
    "dynamics.period_count": ({}, {"dynamics.period_count": 2}),
    "dynamics.record_stride": ({}, {"dynamics.record_stride": 10}),
    "dynamics.n_grid": ({}, {"dynamics.n_grid": 32}),
    "dynamics.n_fock": ({}, {"dynamics.n_fock": 16}),
    "dynamics.length": ({}, {"dynamics.length": 12.0}),
}


def _leaf_keys(section, prefix=""):
    for name, value in section.items():
        if isinstance(value, dict):
            yield from _leaf_keys(value, f"{prefix}{name}.")
        else:
            yield prefix + name


def _readme_keys(opening):
    """The keys the README paragraph that starts with ``opening`` lists
    before the word "ignores"."""
    readme = (ROOT / "README.md").read_text()
    paragraph = readme.split(opening, 1)[1].split("\n\n", 1)[0]
    listed = paragraph.split("ignores", 1)[0]
    return set(re.findall(r"`([a-z_.0-9]+)`", listed)) & set(_SWEEP_PERTURBATIONS)


def _readme_sweep_keys():
    return _readme_keys("Keys that `qclab sweep` reads")


def _sweep_output(tmp_path, capsys, overrides):
    """Exit code and ``sweep.csv`` bytes of a sweep on 4- and 5-point grids."""
    code, artifacts = _output(tmp_path, capsys, ["sweep"], overrides)
    return code, artifacts and artifacts["sweep.csv"]


def _output(tmp_path, capsys, argv, overrides):
    """Exit code and artifact bytes (None if nothing is written) of one run
    on 4- and 5-point grids."""
    config = {"backend_q": {"n": 4}, "backend_p": {"n": 5}}
    for dotted, value in overrides.items():
        *path, leaf = dotted.split(".")
        section = config
        for name in path:
            section = section.setdefault(name, {})
        section[leaf] = value
    run_dir = tmp_path / str(len(list(tmp_path.iterdir())))
    run_dir.mkdir()
    (run_dir / "cfg.json").write_text(json.dumps(config))
    out = run_dir / "out"
    with warnings.catch_warnings():
        # a small compare grid reports its boundary ring; not under test
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(argv + ["--config", str(run_dir / "cfg.json"), "--out", str(out)])
    capsys.readouterr()
    if not out.exists():
        return code, None
    return code, {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_every_config_key_has_a_sweep_perturbation():
    assert set(_SWEEP_PERTURBATIONS) == set(_leaf_keys(asdict(RunConfig())))
    assert _readme_sweep_keys()  # the README paragraph is found


@pytest.mark.parametrize("key", sorted(_SWEEP_PERTURBATIONS))
def test_sweep_output_changes_exactly_when_the_key_is_listed(tmp_path, capsys, key):
    base, perturbed = _SWEEP_PERTURBATIONS[key]
    code, table = _sweep_output(tmp_path, capsys, base)
    assert code == 0
    changed = _sweep_output(tmp_path, capsys, perturbed) != (code, table)
    assert changed == (key in _readme_sweep_keys())


def test_sweep_ignores_the_phase_of_a_weight(tmp_path, capsys):
    # the swept elements keep the r-sector, so only |c_q|^2 and |c_p|^2 count
    base = _sweep_output(tmp_path, capsys, {})
    assert base[0] == 0
    turned = {"weights.c_q": [0.0, 0.5**0.5], "weights.c_p": [-(0.5**0.5), 0.0]}
    code, table = _sweep_output(tmp_path, capsys, turned)
    assert code == 0
    want, got = (t.decode().splitlines() for t in (base[1], table))
    assert want[0] == got[0] and len(want) == len(got)
    for want_row, got_row in zip(want[1:], got[1:]):
        for w, g in zip(want_row.split(","), got_row.split(",")):
            assert w == g or abs(float(w) - float(g)) <= 1e-12 * max(1.0, abs(float(w)))


# -- config keys of `kernels` and `evolve` ---------------------------------

_SMALL_DYNAMICS = {"dynamics.n_grid": 16, "dynamics.n_fock": 8, "dynamics.dt": 0.01}
_AUTO = {**_SMALL_DYNAMICS, "dynamics.mode": "auto"}

# Each guarded run: its arguments, the overrides of the run every
# perturbation is compared against, and the opening of the README paragraph
# that lists its keys.  The perturbations are the sweep's, except that an
# auto-mode run perturbs the mode to compare.
_GUARDED_RUNS = {
    "kernels": (["kernels"], {"h_values": [0.5]}, "Keys that `qclab kernels` reads"),
    "evolve-compare": (
        ["evolve"], _SMALL_DYNAMICS, "Keys that `qclab evolve` reads in compare mode"
    ),
    "evolve-auto-0": (
        ["evolve"], {**_AUTO, "h_values": [0.0]},
        "Keys that `qclab evolve` reads in auto mode at `h = 0`",
    ),
    "evolve-auto-h_o": (
        ["evolve"], {**_AUTO, "h_values": [1.0]},
        "Keys that `qclab evolve` reads in auto mode at `h = h_o`",
    ),
}


@pytest.mark.parametrize("key", sorted(_SWEEP_PERTURBATIONS))
@pytest.mark.parametrize("run", sorted(_GUARDED_RUNS))
def test_output_changes_exactly_when_the_key_is_listed(tmp_path, capsys, run, key):
    # a refusal counts as a change
    argv, run_base, opening = _GUARDED_RUNS[run]
    base, perturbed = _SWEEP_PERTURBATIONS[key]
    if key == "dynamics.mode" and run_base.get(key) == "auto":
        perturbed = {key: "compare"}
    want = _output(tmp_path, capsys, argv, {**run_base, **base})
    assert want[0] == 0
    changed = _output(tmp_path, capsys, argv, {**run_base, **base, **perturbed}) != want
    assert changed == (key in _readme_keys(opening))


# -- config keys of `verify` -----------------------------------------------

# A cheap subset in which each key the checks use moves a witness:
# fault_injection the swap constant of qm-ccr, hbar the top-level defect
# N hbar of qm-bulk-defect, seed the random weights of eigenstate-lifting.
_VERIFY_SUBSET = ("qm-ccr", "qm-bulk-defect", "eigenstate-lifting")


def _verify_payload(tmp_path, capsys, monkeypatch, overrides):
    monkeypatch.setattr("qclab.cli.run_verify", functools.partial(run_verify, names=_VERIFY_SUBSET))
    code, artifacts = _output(tmp_path, capsys, ["verify"], overrides)
    assert code in (0, 1)
    return json.loads(artifacts["verify_report.json"])


@pytest.mark.parametrize("key", sorted(_SWEEP_PERTURBATIONS))
def test_verify_report_changes_exactly_when_the_key_is_listed(tmp_path, capsys, monkeypatch, key):
    base, perturbed = _SWEEP_PERTURBATIONS[key]
    want = _verify_payload(tmp_path, capsys, monkeypatch, base)
    assert [c["name"] for c in want["checks"]] == list(_VERIFY_SUBSET)
    got = _verify_payload(tmp_path, capsys, monkeypatch, {**base, **perturbed})
    changed = {field for field in want if got[field] != want[field]}
    listed = _readme_keys("Keys that `qclab verify` reads")
    if key not in listed:
        assert changed == set()
    elif key == "h_o":
        assert changed == {"h_o"}  # echoed into the report only
    else:
        assert {key, "checks"} <= changed


# -- the kernels config fuzzer: ROADMAP item 16's slice for kernels -----------

# each spelling of a backend kind that validation admits, with its canonical kind
_KIND_SPELLINGS = {
    "fock": "fock",
    " Fock": "fock",
    "grid-position": "grid-position",
    "GRID_POSITION": "grid-position",
    "gridposition": "grid-position",
    "grid-momentum": "grid-momentum",
    "gridmomentum": "grid-momentum",
    " Grid_Momentum ": "grid-momentum",
}


@st.composite
def _boundary_kernels_configs(draw):
    """A kernels config whose hbar, h_o and backend lengths take item 16's
    boundary values (0 or -1 one time in 10), with one h of 0, h_o / 2 or
    h_o, every family, both kinds in any spelling, sizes from 2 to 6, an
    observable from a short list that holds the non-Hermitian ``Q*P``, and
    the matrix export on or off."""
    positive = _weighted((5, PLAIN), (4, EXTREME), (1, NOT_POSITIVE))
    h_o = draw(positive)
    backends = {
        name: {
            "kind": draw(st.sampled_from(sorted(_KIND_SPELLINGS))),
            "n": draw(st.integers(2, 6)),
            "length": draw(positive),
        }
        for name in ("backend_q", "backend_p")
    }
    return {
        "hbar": draw(positive),
        "h_o": h_o,
        "h_values": [draw(st.sampled_from((0.0, h_o / 2, h_o)))],
        "family": draw(st.sampled_from(("tilde", "qm", "cm"))),
        **backends,
        "observable": draw(st.sampled_from(("Q", "P^2", "Q*P", "(1/2)*(P^2 + Q^2)", "Q^4 + P^4"))),
        "export_matrix": draw(st.booleans()),
    }


def _json_numbers(value):
    if isinstance(value, dict):
        return [n for v in value.values() for n in _json_numbers(v)]
    if isinstance(value, list):
        return [n for v in value for n in _json_numbers(v)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


@given(_boundary_kernels_configs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_kernels_configs_at_the_boundary_exit_0_or_2(config):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["kernels", "--config", str(path), "--out", str(out)])
        assert caught == [], [str(w.message) for w in caught]
        assert code in (0, 2), (code, stderr.getvalue())
        if code == 2:
            assert stderr.getvalue().count("\n") == 1, stderr.getvalue()
            assert stderr.getvalue().startswith("error: ")
            assert not out.exists()
            return
        assert stderr.getvalue() == ""
        kinds = {r: _KIND_SPELLINGS[config[f"backend_{r}"]["kind"]] for r in "qp"}
        meta = json.loads((out / "kernels_meta.json").read_text(), parse_constant=_finite_constant)
        assert {"q": meta["backend_q"], "p": meta["backend_p"]} == kinds
        numbers = _json_numbers(meta)
        if config["export_matrix"]:
            sidecar = json.loads((out / "matrix.bin.json").read_text(), parse_constant=_finite_constant)
            assert sidecar["kind"] == kinds
            numbers += _json_numbers(sidecar)
        for pair in ("qq", "qp", "pq", "pp"):
            rows = (out / f"kernel_{pair}.csv").read_text().splitlines()[1:]
            numbers += [float(v) for row in rows for v in row.split(",")]
        assert all(math.isfinite(v) for v in numbers)
