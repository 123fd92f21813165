"""Command-line front end.

Four subcommands over a JSON run configuration:

* ``verify``  - run the identity/defect/state check suites, write a report
* ``sweep``   - tabulate means of the interpolating pair across h values
* ``kernels`` - dump the four r-factor blocks of a realized observable
* ``evolve``  - run endpoint dynamics or the two-sided oscillator comparison

All writers are deterministic: identical config and seed produce
byte-identical files.  Exit codes: 0 success, 1 verification failure,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from fractions import Fraction
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import dynamics as dyn
from .expr import ExprError, parse_expr
from .matrep import (
    Backend,
    build_backend,
    bulk_max,
    check_backend,
    export_kernel_csv,
    export_matrix,
    format_float,
    hermitian_defect,
    kernel_block,
    realize,
    realize_product,
)
from .ncpoly import (
    eval_ncpoly,
    lambda_coefficients,
    make_generators,
    substitute_lambda,
    tp_commutator,
)
from .states import (
    WeightSpec,
    cm_point_state,
    coherent_state,
    gaussian_grid_state,
    lift_qm_eigenstate,
    mean_parts,
    mean_value,
)
from .verify import VerifyReport, run_verify

_FAMILIES = ("tilde", "qm", "cm")
_STATE_KINDS = ("lifted-qm", "cm-point")
_MODES = ("auto", "compare")


class ConfigError(ValueError):
    """Invalid run configuration or command usage."""


Pair = tuple[float, float]


@dataclass(frozen=True)
class BackendSpec:
    kind: str = "grid-position"
    n: int = 8
    length: float | None = 8.0


@dataclass(frozen=True)
class WeightsConfig:
    c_q: Pair | None = None
    c_p: Pair | None = None
    a_vec: tuple[Pair, ...] | None = None
    b_vec: tuple[Pair, ...] | None = None


@dataclass(frozen=True)
class StateSpec:
    kind: str = "lifted-qm"
    q0: float = 0.0
    p0: float = 0.0
    sigma: float | None = None
    k: int = 0
    l: int = 0


def _check_positive(label: str, value: float | None) -> None:
    """ConfigError unless ``value`` is null or positive and finite."""
    if value is not None and not (np.isfinite(value) and value > 0):
        raise ConfigError(f"{label} must be positive and finite, got {value}")


@dataclass(frozen=True)
class DynamicsSpec:
    mode: str = "compare"
    q0: float = 1.0
    p0: float = 0.0
    sigma: float | None = None
    dt: float = 1e-3
    steps: int | None = None
    period_count: int = 1
    record_stride: int = 50
    n_grid: int = 64
    n_fock: int = 32
    length: float = 16.0

    def validate(self) -> None:
        if self.mode not in _MODES:
            raise ConfigError(
                f"dynamics mode must be one of {_MODES}, got {self.mode!r}"
            )
        for name in ("dt", "length", "sigma"):
            _check_positive(f"dynamics {name}", getattr(self, name))
        minimums = (
            ("record_stride", self.record_stride, 1),
            ("period_count", self.period_count, 1),
            ("steps", self.steps, 1),
            ("n_grid", self.n_grid, 2),
            ("n_fock", self.n_fock, 2),
        )
        for name, value, least in minimums:
            if value is not None and value < least:
                raise ConfigError(
                    f"dynamics {name} must be at least {least}, got {value}"
                )


def _read_section(cls, d: dict, section: str = ""):
    """Build the dataclass ``cls`` from a JSON object.

    Keys are the field names; an absent key takes the declared default and
    every given value must match the field's declared type.
    """
    hints = get_type_hints(cls)
    types = {f.name: hints[f.name] for f in fields(cls)}
    unknown = sorted(set(d) - set(types))
    if unknown:
        where = section or "top-level"
        raise ConfigError(f"unknown {where} config keys: {', '.join(unknown)}")
    values = {}
    for name, value in d.items():
        label = f"{section} {name}".lstrip()
        if is_dataclass(types[name]) and isinstance(value, dict):
            values[name] = _read_section(types[name], value, label)
            continue
        try:
            values[name] = _read_value(types[name], value)
        except (TypeError, OverflowError):
            raise ConfigError(
                f"{label} must be {_expected(types[name])}, got {value!r}"
            ) from None
    return cls(**values)


def _read_value(tp, value):
    """``value`` read as the declared type ``tp``; TypeError if it does not match."""
    if tp is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            # float() of an integer beyond the float range raises OverflowError
            if math.isfinite(number := float(value)):
                return number
    elif tp is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif tp is bool or tp is str:
        if isinstance(value, tp):
            return value
    elif tp == Pair:
        if isinstance(value, (list, tuple)) and len(value) == 2:
            return (_read_value(float, value[0]), _read_value(float, value[1]))
        return (_read_value(float, value), 0.0)
    elif get_origin(tp) is tuple:
        if isinstance(value, (list, tuple)):
            return tuple(_read_value(get_args(tp)[0], entry) for entry in value)
    elif get_origin(tp) is UnionType:
        return None if value is None else _read_value(get_args(tp)[0], value)
    raise TypeError(tp)


def _expected(tp) -> str:
    if tp is float:
        return "a finite number"
    if tp is int:
        return "an integer"
    if tp is bool:
        return "true or false"
    if tp is str:
        return "a string"
    if tp == Pair:
        return "a number or an [re, im] pair"
    if get_origin(tp) is tuple:
        return f"an array, each entry {_expected(get_args(tp)[0])}"
    if get_origin(tp) is UnionType:
        return f"{_expected(get_args(tp)[0])}, or null"
    return "a JSON object"


def _default_h_values() -> tuple[float, ...]:
    return tuple(i / 10 for i in range(11))


@dataclass(frozen=True)
class RunConfig:
    """Full run configuration; JSON round-trips to an equal value."""

    hbar: float = 1.0
    h_o: float = 1.0
    h_values: tuple[float, ...] = field(default_factory=_default_h_values)
    seed: int = 1234
    backend_q: BackendSpec = field(default_factory=BackendSpec)
    backend_p: BackendSpec = field(
        default_factory=lambda: BackendSpec(kind="grid-momentum")
    )
    weights: WeightsConfig = field(default_factory=WeightsConfig)
    observable: str = "(1/2)*(P^2 + Q^2)"
    family: str = "tilde"
    state: StateSpec = field(default_factory=StateSpec)
    dynamics: DynamicsSpec = field(default_factory=DynamicsSpec)
    fault_injection: float | None = None
    export_matrix: bool = False

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.hbar <= 0:
            raise ConfigError(f"hbar must be positive, got {self.hbar}")
        if self.h_o <= 0:
            raise ConfigError(f"h_o must be positive, got {self.h_o}")
        if not self.h_values:
            raise ConfigError("h_values must be nonempty")
        for h in self.h_values:
            if not 0.0 <= h <= self.h_o:
                raise ConfigError(
                    f"h value {h!r} outside [0, {self.h_o}]"
                )
        if self.family not in _FAMILIES:
            raise ConfigError(
                f"family must be one of {_FAMILIES}, got {self.family!r}"
            )
        if self.state.kind not in _STATE_KINDS:
            raise ConfigError(
                f"state kind must be one of {_STATE_KINDS}, got {self.state.kind!r}"
            )
        _check_positive("state sigma", self.state.sigma)
        self.dynamics.validate()
        try:
            parse_expr(self.observable)
        except ExprError as exc:
            raise ConfigError(f"observable does not parse: {exc}") from exc
        # every subcommand takes the same backends, whether it builds them or not
        for name in ("backend_q", "backend_p"):
            spec = getattr(self, name)
            try:
                check_backend(spec.kind, spec.n, spec.length)
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from exc

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        cfg = _read_section(RunConfig, d)
        cfg.validate()
        return cfg

    @staticmethod
    def from_json_file(path: str) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        return RunConfig.from_dict(payload)


# -- construction helpers --------------------------------------------------


def build_backends(config: RunConfig) -> tuple[Backend, Backend]:
    try:
        bq = build_backend(
            config.backend_q.kind, config.backend_q.n, config.hbar,
            config.backend_q.length,
        )
        bp = build_backend(
            config.backend_p.kind, config.backend_p.n, config.hbar,
            config.backend_p.length,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return bq, bp


def _pair_to_complex(p: Pair) -> complex:
    return complex(p[0], p[1])


def _vector_to_array(entries: tuple[Pair, ...], n: int, name: str) -> np.ndarray:
    if len(entries) != n:
        raise ConfigError(
            f"{name} has {len(entries)} entries, backend dimension is {n}"
        )
    return np.array([complex(re, im) for re, im in entries], dtype=complex)


def build_weights(config: RunConfig, n_q: int, n_p: int) -> WeightSpec:
    wc = config.weights
    base = WeightSpec.default(n_q, n_p)
    c_q = base.c_q if wc.c_q is None else _pair_to_complex(wc.c_q)
    c_p = base.c_p if wc.c_p is None else _pair_to_complex(wc.c_p)
    a_vec = base.a_vec if wc.a_vec is None else _vector_to_array(wc.a_vec, n_p, "a_vec")
    b_vec = base.b_vec if wc.b_vec is None else _vector_to_array(wc.b_vec, n_q, "b_vec")
    spec = WeightSpec(c_q=c_q, c_p=c_p, a_vec=a_vec, b_vec=b_vec)
    try:
        spec.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return spec


def _factor_state(backend: Backend, spec: StateSpec) -> np.ndarray:
    if backend.is_grid:
        return gaussian_grid_state(backend, spec.q0, spec.p0, spec.sigma)
    alpha = (spec.q0 + 1j * spec.p0) / np.sqrt(2.0 * backend.hbar)
    return coherent_state(backend.dim, alpha)


def build_state(config: RunConfig, bq: Backend, bp: Backend):
    spec = config.state
    weights = build_weights(config, bq.dim, bp.dim)
    try:
        if spec.kind == "cm-point":
            return cm_point_state(
                bq, bp, spec.k, spec.l, weights.c_q, weights.c_p
            )
        psi_q = _factor_state(bq, spec)
        psi_p = _factor_state(bp, spec)
        return lift_qm_eigenstate(psi_q, weights, psi_p=psi_p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _lambda_of(h: float, h_o: float) -> Fraction:
    lam = 1 - Fraction(str(h)) / Fraction(str(h_o))
    if not 0 <= lam <= 1:
        raise ConfigError(f"h value {h!r} maps outside the unit interval")
    return lam


def _generator_pair(config: RunConfig, family: str, h: float):
    gens = make_generators()
    if family == "qm":
        return gens.q_qm, gens.p_qm
    if family == "cm":
        return gens.q_cm, gens.p_cm
    lam = _lambda_of(h, config.h_o)
    return (
        substitute_lambda(gens.q_tilde, lam),
        substitute_lambda(gens.p_tilde, lam),
    )


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


# -- subcommands -----------------------------------------------------------


def cmd_verify(config: RunConfig, out_dir: str, fmt: str = "json") -> int:
    report = run_verify(
        hbar=config.hbar,
        h_o=config.h_o,
        seed=config.seed,
        fault_injection=config.fault_injection,
    )
    _print_verify(report)
    os.makedirs(out_dir, exist_ok=True)
    if fmt == "csv":
        path = os.path.join(out_dir, "verify_report.csv")
        _write_verify_csv(report, path)
    else:
        path = os.path.join(out_dir, "verify_report.json")
        _write_json(path, report.to_payload())
    print(f"report written to {path}")
    return 0 if report.all_passed else 1


def _print_verify(report: VerifyReport) -> None:
    for check in report.checks:
        tag = "INFO" if check.informational else check.status.upper()
        line = f"{tag:4s} {check.name}: {check.witness}"
        if check.note:
            line += f" [{check.note}]"
        print(line)
    verdict = "all checks passed" if report.all_passed else "FAILURES present"
    print(f"verify: {verdict}")


def _write_verify_csv(report: VerifyReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "status", "informational", "witness", "note"])
        for c in report.checks:
            writer.writerow(
                [c.name, c.status, str(c.informational).lower(), c.witness, c.note or ""]
            )


def _horner(coeffs: list, x: float):
    """``sum(x**k * coeffs[k])`` by Horner's rule, for scalars or arrays."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


def sweep_rows(config: RunConfig, bq: Backend, bp: Backend, state) -> list[dict]:
    """The sweep table, one row per h value.

    Every swept element is a polynomial in lam, so each lam-coefficient is
    realized once.  A mean is linear in the matrix: the numerators of the
    coefficients combine per h by Horner's rule in lam, as do the
    coefficients of the bulk commutator defect.  The Hermitian test of a
    row is bounded by the defects of the coefficients; a row whose bound
    exceeds 1e-10, or whose mean is not real to 1e-10, is evaluated on the
    realized element at that h, which reports the error.
    """
    gens = make_generators()
    q_t, p_t = gens.q_tilde, gens.p_tilde
    obs = eval_ncpoly(parse_expr(config.observable), q_t, p_t)

    def numer_and_defect(mat: np.ndarray) -> tuple[complex, float]:
        return mean_parts(state, mat)[0], hermitian_defect(mat)

    # each observable coefficient is reduced to scalars before the next is
    # realized, so only the pair's coefficient matrices stay alive
    obs_parts = [
        numer_and_defect(realize(c, bq, bp).data) for c in lambda_coefficients(obs)
    ]
    q_coeffs, p_coeffs = lambda_coefficients(q_t), lambda_coefficients(p_t)
    q_mats = [realize(c, bq, bp).data for c in q_coeffs]
    p_mats = [realize(c, bq, bp).data for c in p_coeffs]
    q_parts = [numer_and_defect(m) for m in q_mats]
    p_parts = [numer_and_defect(m) for m in p_mats]
    denom = mean_parts(state, q_mats[0])[1]

    endpoint = {}
    refs = ((config.h_o, gens.q_qm, gens.p_qm), (0.0, gens.q_cm, gens.p_cm))
    for h, q_ref, p_ref in refs:
        if h in config.h_values:
            x = float(_lambda_of(h, config.h_o))
            endpoint[h] = tuple(
                float(np.max(np.abs(_horner(mats, x) - realize(ref, bq, bp).data)))
                for mats, ref in ((q_mats, q_ref), (p_mats, p_ref))
            )
    del q_mats, p_mats

    # bulk defect D(lam) = sum lam^k D_k, with D_k the realized lam^k part of
    # the symbolic commutator minus sum_{i+j=k} [Q_i, P_j]; the products are
    # added straight into D_k from factor-sized products
    sym = lambda_coefficients(tp_commutator(q_t, p_t))
    dim = bq.dim * bp.dim * 2
    defects = [
        np.zeros((dim, dim), dtype=complex)
        for _ in range(max(len(sym), len(q_coeffs) + len(p_coeffs) - 1))
    ]
    for d, c in zip(defects, sym):
        d += realize(c, bq, bp).data
    for i, q_i in enumerate(q_coeffs):
        for j, p_j in enumerate(p_coeffs):
            realize_product(-q_i, p_j, bq, bp, out=defects[i + j])
            realize_product(p_j, q_i, bq, bp, out=defects[i + j])

    def mean(element, parts, lam: Fraction, x: float) -> float:
        if denom != 0 and sum(x**k * hd for k, (_, hd) in enumerate(parts)) <= 1e-10:
            ratio = _horner([numer for numer, _ in parts], x) / denom
            if abs(ratio.imag) <= 1e-10:
                return float(ratio.real)
        return mean_value(state, realize(element, bq, bp, lam=lam))

    rows = []
    for h in config.h_values:
        lam = _lambda_of(h, config.h_o)
        x = float(lam)
        try:
            row = {
                "h": h,
                "lambda": x,
                "mean_q_tilde": mean(q_t, q_parts, lam, x),
                "mean_p_tilde": mean(p_t, p_parts, lam, x),
                "mean_observable": mean(obs, obs_parts, lam, x),
                "bulk_commutator_defect": bulk_max(_horner(defects, x), bq, bp),
            }
        except ValueError as exc:
            raise ConfigError(
                f"cannot evaluate means at h={h!r}: {exc}"
            ) from exc
        row["endpoint_q_diff"], row["endpoint_p_diff"] = endpoint.get(h, (None, None))
        rows.append(row)
    return rows


def cmd_sweep(config: RunConfig, out_dir: str, fmt: str = "csv") -> int:
    bq, bp = build_backends(config)
    rows = sweep_rows(config, bq, bp, build_state(config, bq, bp))

    os.makedirs(out_dir, exist_ok=True)
    columns = [
        "h", "lambda", "mean_q_tilde", "mean_p_tilde", "mean_observable",
        "bulk_commutator_defect", "endpoint_q_diff", "endpoint_p_diff",
    ]
    if fmt == "json":
        path = os.path.join(out_dir, "sweep.json")
        _write_json(path, {"columns": columns, "rows": rows})
    else:
        path = os.path.join(out_dir, "sweep.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(columns) + "\n")
            for row in rows:
                rendered = [
                    "" if row[c] is None else format_float(row[c]) for c in columns
                ]
                fh.write(",".join(rendered) + "\n")
    print(f"sweep written to {path}")
    return 0


def cmd_kernels(config: RunConfig, out_dir: str) -> int:
    if len(config.h_values) != 1:
        raise ConfigError(
            "kernels needs exactly one h value (use --h or a single-entry"
            f" h_values); got {len(config.h_values)}"
        )
    h = config.h_values[0]
    bq, bp = build_backends(config)
    x, y = _generator_pair(config, config.family, h)
    node = parse_expr(config.observable)
    mat = realize(eval_ncpoly(node, x, y), bq, bp)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for i in "qp":
        for j in "qp":
            block = kernel_block(mat, i, j)
            path = os.path.join(out_dir, f"kernel_{i}{j}.csv")
            export_kernel_csv(block, path)
            written.append(path)
    meta = {
        "h": h,
        "lambda": float(_lambda_of(h, config.h_o)) if config.family == "tilde" else None,
        "family": config.family,
        "observable": config.observable,
        "hbar": config.hbar,
        "dims": [bq.dim, bp.dim, 2],
        "ordering": mat.ordering,
        "backend_q": config.backend_q.kind,
        "backend_p": config.backend_p.kind,
    }
    meta_path = os.path.join(out_dir, "kernels_meta.json")
    _write_json(meta_path, meta)
    written.append(meta_path)
    if config.export_matrix:
        matrix_path = os.path.join(out_dir, "matrix.bin")
        export_matrix(
            mat,
            matrix_path,
            {"q": config.backend_q.kind, "p": config.backend_p.kind},
            config.hbar,
        )
        written.append(matrix_path)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_evolve(config: RunConfig, out_dir: str) -> int:
    ds = config.dynamics
    if len(config.h_values) == 1:
        h = config.h_values[0]
        if h != 0.0 and h != config.h_o:
            raise ConfigError(
                f"no dynamics defined at intermediate h (h={h!r},"
                f" h_o={config.h_o!r}); only the endpoints evolve"
            )
    if ds.mode == "compare":
        gens = make_generators()
        observable, oscillator = (
            eval_ncpoly(parse_expr(text), gens.q_qm, gens.p_qm)
            for text in (config.observable, dyn.OSCILLATOR_EXPR)
        )
        if observable != oscillator:
            raise ConfigError(
                f"compare mode evolves the oscillator {dyn.OSCILLATOR_EXPR} only,"
                f" got observable {config.observable!r}"
            )
        params = dyn.OscillatorParams(
            q0=ds.q0,
            p0=ds.p0,
            hbar=config.hbar,
            sigma=ds.sigma,
            n_grid=ds.n_grid,
            n_fock=ds.n_fock,
            length=ds.length,
            dt=ds.dt,
            period_count=ds.period_count,
            record_stride=ds.record_stride,
        )
        try:
            table = dyn.oscillator_compare(params)
        except dyn.LiouvilleUnstable as exc:
            raise ConfigError(str(exc)) from exc
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "comparison.csv")
        table.to_csv(path)
        _write_json(
            os.path.join(out_dir, "evolve_meta.json"),
            {
                **asdict(params),
                "mode": "compare",
                "sigma": params.width(),
                "max_dq_abs": table.max_dq_abs(),
                "max_dp_abs": table.max_dp_abs(),
                "classical_mass_drift": table.classical_mass_drift(),
                "quantum_trace_drift": table.quantum_trace_drift(),
            },
        )
        print(f"comparison written to {path}")
        return 0

    if len(config.h_values) != 1:
        raise ConfigError(
            "evolve needs exactly one h value (use --h or a single-entry"
            " h_values)"
        )
    h = config.h_values[0]
    steps = ds.steps
    if steps is None:
        steps = max(1, round(2.0 * np.pi * ds.period_count / ds.dt))
    if h == 0.0:
        sigma = ds.sigma if ds.sigma is not None else float(np.sqrt(config.hbar / 2.0))
        rho0 = dyn.PhaseSpaceDensity.gaussian(
            ds.n_grid, ds.n_grid, ds.length, ds.length,
            ds.q0, ds.p0, sigma, sigma,
        )
        try:
            traj = dyn.liouville_evolve(
                rho0, config.observable, ds.dt, steps, record_stride=ds.record_stride
            )
        except dyn.LiouvilleUnstable as exc:
            raise ConfigError(str(exc)) from exc
        label = "liouville"
    else:  # h == h_o, the only other endpoint the opening check lets through
        bq, bp = build_backends(config)
        state = build_state(config, bq, bp)
        gens = make_generators()
        h_poly = eval_ncpoly(parse_expr(config.observable), gens.q_qm, gens.p_qm)
        try:
            traj = dyn.von_neumann_evolve(
                state, h_poly, bq, bp, ds.dt, steps, record_stride=ds.record_stride
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        label = "von-neumann"
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "trajectory.csv")
    traj.to_csv(path)
    _write_json(
        os.path.join(out_dir, "evolve_meta.json"),
        {
            "mode": label,
            "h": h,
            "hbar": config.hbar,
            "dt": ds.dt,
            "steps": steps,
            "record_stride": ds.record_stride,
            "final_drift": traj.drift(),
        },
    )
    print(f"trajectory written to {path}")
    return 0


# -- argument parsing ------------------------------------------------------


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument("--out", default="qclab-out", help="output directory")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument(
        "--h", type=float, help="override h_values with a single value"
    )
    parser.add_argument("--expr", help="override the observable expression")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qclab",
        description=(
            "exact and finite-dimensional laboratory for an interpolating"
            " quantum/classical operator algebra"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, fmt in (
        ("verify", "run the identity, defect, and state check suites", "json"),
        ("sweep", "tabulate interpolating-pair means across h values", "csv"),
        ("kernels", "dump r-factor kernel blocks of a realized observable", None),
        ("evolve", "run endpoint dynamics or the oscillator comparison", None),
    ):
        p = sub.add_parser(name, help=help_text)
        _common_flags(p)
        if fmt is not None:
            p.add_argument(
                "--format", choices=("csv", "json"), default=fmt,
                help=f"report format (default {fmt})",
            )
    return parser


def load_config(args: argparse.Namespace) -> RunConfig:
    config = (
        RunConfig.from_json_file(args.config) if args.config else RunConfig()
    )
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.h is not None:
        config = replace(config, h_values=(args.h,))
    if args.expr is not None:
        config = replace(config, observable=args.expr)
    config.validate()
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        if args.command == "verify":
            return cmd_verify(config, args.out, args.format)
        if args.command == "sweep":
            return cmd_sweep(config, args.out, args.format)
        if args.command == "kernels":
            return cmd_kernels(config, args.out)
        return cmd_evolve(config, args.out)
    except (ConfigError, ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
