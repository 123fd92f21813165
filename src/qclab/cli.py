"""Command-line front end.

Four subcommands over a JSON run configuration:

* ``verify``  - run the identity/defect/state check suites, write a report
* ``sweep``   - tabulate means of the interpolating pair across h values
* ``kernels`` - dump the four r-factor blocks of a realized observable
* ``evolve``  - run endpoint dynamics or the two-sided oscillator comparison

Every artifact is written by ``matrep.write_csv`` or ``matrep.write_json``,
so identical config and seed produce byte-identical files.  Exit codes:
0 success, 1 verification failure, 2 usage or configuration error, which
``main`` alone reports.
"""

from __future__ import annotations

import argparse
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
    ORDERING,
    build_backend,
    check_arrays,
    check_backend,
    commutator_defect,
    entry_bound,
    export_kernel_csv,
    export_matrix,
    has_hermitian_image,
    max_entry,
    quadratic_form,
    r_block,
    realize,
    term_values,
    within,
    write_csv,
    write_json,
)
from .ncpoly import (
    eval_ncpoly,
    make_generators,
    substitute_lambda,
)
from .states import WeightSpec, cm_point_state, factor_packet, lift_qm_eigenstate
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
class DynamicsSpec(dyn.OscillatorParams):
    """The oscillator run's fields, the mode, and the auto-mode step count."""

    mode: str = "compare"
    steps: int | None = None

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
        # the peaks of the two flows, measured at n_grid and n_fock 64 and 128:
        # 120 bytes per mesh point of the Liouville flow and 305 per entry of
        # an n_fock x n_fock matrix for the quantum side of compare mode
        flows = (
            ("the Liouville flow on an n_grid^2 mesh", 16, self.n_grid, 8),
            ("the quantum flow on an n_fock^2 Fock pair", 20, self.n_fock, 16),
        )
        for what, count, n, itemsize in flows:
            try:
                check_arrays(what, count, n, itemsize)
            except ValueError as exc:
                raise ConfigError(f"dynamics: {exc}") from exc


def _read_section(default, d: dict, section: str = ""):
    """``default``, a config dataclass, with the fields a JSON object gives.

    Keys are the field names; an absent key keeps its value in ``default``
    (so a partial ``backend_p`` stays a momentum grid) and every given value
    must match the field's declared type.
    """
    cls = type(default)
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
            values[name] = _read_section(getattr(default, name), value, label)
            continue
        try:
            values[name] = _read_value(types[name], value)
        except (TypeError, OverflowError):
            raise ConfigError(
                f"{label} must be {_expected(types[name])}, got {value!r}"
            ) from None
    return replace(default, **values)


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
    observable: str = dyn.OSCILLATOR_EXPR
    family: str = "tilde"
    state: StateSpec = field(default_factory=StateSpec)
    dynamics: DynamicsSpec = field(default_factory=DynamicsSpec)
    fault_injection: float | None = None
    export_matrix: bool = False

    def __post_init__(self) -> None:
        # h = -0.0 is the classical endpoint h = 0, and is written as 0.0
        object.__setattr__(
            self, "h_values", tuple(0.0 if h == 0 else h for h in self.h_values)
        )

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.hbar < sys.float_info.min:  # roundoff is relative only for normal floats
            raise ConfigError(f"hbar must be at least {sys.float_info.min!r}, got {self.hbar}")
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
        cfg = _read_section(RunConfig(), d)
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
    specs = (config.backend_q, config.backend_p)
    return tuple(build_backend(s.kind, s.n, config.hbar, s.length) for s in specs)


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
    spec.validate()
    return spec


def build_state(config: RunConfig, bq: Backend, bp: Backend):
    spec = config.state
    weights = build_weights(config, bq.dim, bp.dim)
    if spec.kind == "cm-point":
        return cm_point_state(
            bq, bp, spec.k, spec.l, weights.c_q, weights.c_p
        )
    psi_q, psi_p = (factor_packet(b, spec.q0, spec.p0, spec.sigma) for b in (bq, bp))
    return lift_qm_eigenstate(psi_q, weights, psi_p=psi_p)


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
        write_csv(
            path,
            ["name", "status", "informational", "witness", "note"],
            (
                [c.name, c.status, str(c.informational).lower(), c.witness, c.note]
                for c in report.checks
            ),
        )
    else:
        path = os.path.join(out_dir, "verify_report.json")
        write_json(path, report.to_payload())
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


def sweep_rows(config: RunConfig, bq: Backend, bp: Backend, state: np.ndarray) -> list[dict]:
    """The sweep table of a vector state, one row per h value.

    Only the coefficients of the pair and the observable depend on lam, so
    the state's term values (``term_values``) are read once, with lam
    symbolic, and each row substitutes lam exactly and weighs them
    (``quadratic_form``).  A mean is refused unless the exact engine finds
    the element's image Hermitian (``has_hermitian_image``), decided once on
    the symbolic element: the rule admits an element at some lam only if it
    admits its lam-free one-pair normal form (each r-sector's lam^0 part),
    and then it admits the symbolic element too.  Its imaginary part must
    pass ``within`` at ``rtol`` 1e-10 and scale ``max(1, S)``, S the factors'
    bound on the image's largest entry (``entry_bound``), whose floor lets S
    be read only past 1e-10: at n 16 an ``entry_bound`` of the quartic costs
    a fifteenth of all the rows.  The bulk defect is ``commutator_defect`` of
    the symbolic pair, whose exact terms are free of lam, read once for every
    row.  An endpoint gap is the largest entry of the exact difference
    between the pair at that h and the reference pair (``max_entry``).
    """
    gens = make_generators()
    q_t, p_t = gens.q_tilde, gens.p_tilde
    obs = eval_ncpoly(parse_expr(config.observable), q_t, p_t)
    elements = (q_t, p_t, obs)
    with np.errstate(all="ignore"):  # an overflow is refused below
        values = term_values(bq, bp, state, *elements)
        norm = np.vdot(state, state)
    q_read, p_read, obs_read = zip(elements, map(has_hermitian_image, elements), values)

    def mean(lam: Fraction, element, hermitian: bool, values: dict) -> float:
        if not hermitian:
            raise ValueError("observable is not Hermitian on a finite pair")
        a = substitute_lambda(element, lam)
        with np.errstate(all="ignore"):  # an overflow is refused below
            ratio = quadratic_form(a, values, bq.hbar) / norm
        if not np.isfinite(ratio):
            raise ValueError(f"mean value is not finite: {complex(ratio)}")
        imag = abs(ratio.imag)
        if not (within(imag, 1.0, 1e-10) or within(imag, max(1.0, entry_bound(a, bq, bp)), 1e-10)):
            raise ValueError(f"mean value has non-negligible imaginary part {ratio.imag!r}")
        return float(ratio.real)

    def gap(element, ref, lam: Fraction) -> float:
        return max_entry(substitute_lambda(element, lam) - ref, bq, bp)

    bulk = commutator_defect(bq, bp, q_t, p_t)["bulk_defect_norm"]

    refs = {config.h_o: (gens.q_qm, gens.p_qm), 0.0: (gens.q_cm, gens.p_cm)}
    rows = []
    for h in config.h_values:
        lam = _lambda_of(h, config.h_o)
        try:
            row = {
                "h": h,
                "lambda": float(lam),
                "mean_q_tilde": mean(lam, *q_read),
                "mean_p_tilde": mean(lam, *p_read),
                "mean_observable": mean(lam, *obs_read),
            }
        except ValueError as exc:
            raise ConfigError(
                f"cannot evaluate means at h={h!r}: {exc}"
            ) from exc
        row["bulk_commutator_defect"] = bulk
        row["endpoint_q_diff"], row["endpoint_p_diff"] = (
            (gap(q_t, refs[h][0], lam), gap(p_t, refs[h][1], lam))
            if h in refs else (None, None)
        )
        rows.append(row)
    return rows


def cmd_sweep(config: RunConfig, out_dir: str, fmt: str = "csv") -> int:
    if config.family != "tilde":
        raise ConfigError(
            "sweep tabulates the interpolating pair only (family tilde),"
            f" got family {config.family!r}"
        )
    bq, bp = build_backends(config)
    rows = sweep_rows(config, bq, bp, build_state(config, bq, bp))

    os.makedirs(out_dir, exist_ok=True)
    columns = [
        "h", "lambda", "mean_q_tilde", "mean_p_tilde", "mean_observable",
        "bulk_commutator_defect", "endpoint_q_diff", "endpoint_p_diff",
    ]
    if fmt == "json":
        path = os.path.join(out_dir, "sweep.json")
        write_json(path, {"columns": columns, "rows": rows})
    else:
        path = os.path.join(out_dir, "sweep.csv")
        write_csv(path, columns, ([row[c] for c in columns] for row in rows))
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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        mat = realize(eval_ncpoly(node, x, y), bq, bp)
    if not np.isfinite(mat).all():
        raise ValueError(f"the realized observable is not finite at hbar={config.hbar!r}")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for i, row in enumerate("qp"):
        for j, col in enumerate("qp"):
            path = os.path.join(out_dir, f"kernel_{row}{col}.csv")
            export_kernel_csv(r_block(mat, i, j), path)
            written.append(path)
    meta = {
        "h": h,
        "lambda": float(_lambda_of(h, config.h_o)) if config.family == "tilde" else None,
        "family": config.family,
        "observable": config.observable,
        "hbar": config.hbar,
        "dims": [bq.dim, bp.dim, 2],
        "ordering": ORDERING,
        "backend_q": bq.kind,
        "backend_p": bp.kind,
    }
    meta_path = os.path.join(out_dir, "kernels_meta.json")
    write_json(meta_path, meta)
    written.append(meta_path)
    if config.export_matrix:
        matrix_path = os.path.join(out_dir, "matrix.bin")
        export_matrix(
            mat,
            matrix_path,
            {"q": bq.kind, "p": bp.kind},
            (bq.dim, bp.dim),
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
        if dyn.qm_hamiltonian(config.observable) != dyn.qm_hamiltonian(dyn.OSCILLATOR_EXPR):
            raise ConfigError(
                f"compare mode evolves the oscillator {dyn.OSCILLATOR_EXPR} only,"
                f" got observable {config.observable!r}"
            )
        table = dyn.oscillator_compare(ds, config.hbar)
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "comparison.csv")
        table.to_csv(path)
        meta = asdict(ds)
        del meta["steps"]  # compare mode runs whole periods
        write_json(
            os.path.join(out_dir, "evolve_meta.json"),
            {
                **meta,
                "hbar": config.hbar,
                "sigma": ds.width(config.hbar),
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
    steps = ds.period_steps() if ds.steps is None else ds.steps
    if h == 0.0:
        traj = dyn.liouville_evolve(
            ds.density(config.hbar), config.observable, ds.dt, steps,
            record_stride=ds.record_stride,
        )
        label = "liouville"
    else:  # h == h_o, the only other endpoint the opening check lets through
        bq, bp = build_backends(config)
        state = build_state(config, bq, bp)
        traj = dyn.von_neumann_evolve(
            state, dyn.qm_hamiltonian(config.observable), bq, bp, ds.dt, steps,
            record_stride=ds.record_stride,
        )
        label = "von-neumann"
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "trajectory.csv")
    traj.to_csv(path)
    write_json(
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


def _check_out(out: str) -> None:
    """ConfigError unless ``out`` is nonempty and it, or else its nearest
    existing ancestor, is a directory."""
    if not out:
        raise ConfigError("--out is empty; name an output directory")
    path = os.path.abspath(out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"--out {out}: {path} is not a directory")


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; every refusal exits 2 with a single ``error:`` line.

    A refusal is a ``ValueError`` (``ConfigError`` and ``ExprError`` among
    them) from the configuration or the library, an aborted Liouville run,
    or an ``OSError``.  An ``--out`` under a file is refused before any work.
    """
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        config = load_config(args)
        if args.command == "verify":
            return cmd_verify(config, args.out, args.format)
        if args.command == "sweep":
            return cmd_sweep(config, args.out, args.format)
        if args.command == "kernels":
            return cmd_kernels(config, args.out)
        return cmd_evolve(config, args.out)
    except (ValueError, dyn.LiouvilleUnstable, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
