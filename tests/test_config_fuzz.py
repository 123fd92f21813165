"""The exit-code contract, fuzzed through ``main`` for every subcommand.

One Hypothesis draw walks ``RunConfig``'s dataclass fields as
``cli._read_section`` reads them, so a key added later is drawn with no edit
here.  Hypothesis draws only the seed of a ``Random`` that makes the config:
its own search spreads the first keys evenly over their distinct values,
which loses the weights below, and its sequence differed between processes.  Admitted flows can run for hours, so the runs read
tighter budgets: ``dynamics._MAX_WORK`` 2^26 multiply-adds,
``matrep.MAX_DENSE_BYTES`` 64 MiB.
"""

import contextlib
import csv
import functools
import io
import json
import math
import tempfile
import warnings
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

from qclab import dynamics, matrep
from qclab.cli import Pair, RunConfig, main


def _one_of(*choices):
    """A draw that takes one of ``(weight, draw)`` choices in proportion to its weight."""
    weights, draws = zip(*choices)
    return lambda rng: rng.choices(draws, weights)[0](rng)


def _from(*values):
    return lambda rng: rng.choice(values)


# the boundary values of a float key: plain, extreme, and not positive
FLOATS = _one_of(
    (5, _from(0.5, 1.0, 2.0, 3.0)),
    (4, _from(1e-8, 1e8, 1e-30, 1e30, 1e-200, 1e200, 1e-300, 1e300)),
    (1, _from(0.0, -1.0)),
)
INTS = _one_of((4, _from(0, 1, 2, 3)), (1, _from(-1, 2**31, 2**32, 2**64 + 1)))
# a value of the wrong type for any key, or an int past the float range
WRONG = _from("x", True, [0.5], {"x": 1}, 10**400)
# each spelling of a backend kind that validation admits, with its canonical kind
KINDS = {"fock": "fock", " Fock": "fock", "grid-position": "grid-position", "GRID_POSITION": "grid-position",
         "gridposition": "grid-position", "grid-momentum": "grid-momentum",
         "gridmomentum": "grid-momentum", " Grid_Momentum ": "grid-momentum"}
HALF = 0.5**0.5  # |c|^2 = 1/2, as in the default weights
# the chance that a key is present, in a config that keeps to likely values and in
# one that stresses the boundary: the float keys the replaced slices drew in every
# config; the sizes and kinds, drawn small and valid; and the fault, which only
# verify reads.  Any other leaf key is present 1 time in 10.
PRESENT = {**dict.fromkeys(("RunConfig.hbar", "RunConfig.h_o", "RunConfig.h_values",
                            "BackendSpec.length", "StateSpec.q0", "StateSpec.p0",
                            "StateSpec.sigma"), (0.1, 0.9)),
           **dict.fromkeys(("RunConfig.fault_injection", "BackendSpec.kind", "BackendSpec.n"), (0.9, 0.9))}
# the likely values of a key
LIKELY = {
    "RunConfig.observable": _from(
        "(1/2)*(P^2 + Q^2)", "(1/2)*Q^2 + (1/2)*P^2", "Q", "P^2", "Q*P", "Q^4 + P^4"),
    "RunConfig.family": _from("tilde", "qm", "cm"), "RunConfig.seed": _from(0, 7, 1234, 2**32 - 1, 2**64 + 1),
    "BackendSpec.kind": _from(*KINDS), "BackendSpec.n": _from(*range(2, 7)),
    "WeightsConfig.c_q": _from(HALF, [0.0, HALF], [-HALF, 0.0]),
    "WeightsConfig.c_p": _from(HALF, [HALF, 0.0], [0.0, -HALF]),
    "WeightsConfig.a_vec": _from(None, [[0.6, 0.0], [0.0, 0.8]]),
    "WeightsConfig.b_vec": _from(None, [[0.0, 1.0], 0.0]),
    "StateSpec.kind": _from("lifted-qm", "cm-point"),
    "StateSpec.k": _from(*range(4)), "StateSpec.l": _from(*range(4)),
    "DynamicsSpec.mode": _from("auto", "compare"), "DynamicsSpec.dt": _from(0.01, 0.1, 0.5),
    "DynamicsSpec.n_grid": _from(*range(2, 17)), "DynamicsSpec.n_fock": _from(*range(2, 9)),
    "DynamicsSpec.period_count": _from(1, 2), "DynamicsSpec.record_stride": _from(*range(1, 21)),
    "DynamicsSpec.steps": _from(*range(1, 21)),
}


@functools.cache
def _of_type(tp):
    """A draw from the boundary set of the declared type ``tp``."""
    if tp in (float, int, bool, str):
        return {float: FLOATS, int: INTS, bool: _from(False, True), str: _from("", "x")}[tp]
    if tp == Pair:
        return _one_of((1, FLOATS), (1, lambda rng: [FLOATS(rng), FLOATS(rng)]))
    if get_origin(tp) is tuple:
        entry = _of_type(get_args(tp)[0])
        return lambda rng: [entry(rng) for _ in range(rng.randint(0, 3))]
    return _one_of((1, _from(None)), (9, _of_type(get_args(tp)[0])))  # X | None


@functools.cache
def _values(key, tp, stress):
    """A key's likely values alone; under ``stress`` its type's boundary set 1 time in 10."""
    likely = LIKELY.get(key)
    return _of_type(tp) if likely is None else _one_of((9, likely), (1, _of_type(tp))) if stress else likely


def _h_values(rng, h_o):
    """A list of h values, 31 in 32 of them 0, h_o / 2 or h_o; 1 list in 20 of its type's boundary set."""
    h_o = h_o if isinstance(h_o, float) else 1.0
    h = _one_of((31, _from(0.0, h_o / 2, h_o)), (1, FLOATS))
    return _one_of((19, lambda rng: [h(rng) for _ in range(rng.randint(1, 3))]),
                   (1, _of_type(tuple[float, ...])))(rng)


_hints = functools.cache(get_type_hints)  # evaluates the config's string annotations


def _keys(cls, prefix=()):
    """The path and declared type of each key, sections' keys among them, of ``cls``."""
    hints = _hints(cls)
    for f in fields(cls):
        yield (*prefix, f.name), hints[f.name]
        if is_dataclass(hints[f.name]):
            yield from _keys(hints[f.name], (*prefix, f.name))


def _section(rng, cls, prefix, wrong, stress):
    """A JSON object for the config dataclass ``cls`` at ``prefix``, each key present
    as ``PRESENT`` says for ``stress`` (0 or 1), the key at ``wrong`` of a wrong type."""
    hints, out = _hints(cls), {}
    for f in fields(cls):
        tp, path, key = hints[f.name], (*prefix, f.name), f"{cls.__name__}.{f.name}"
        if path == wrong:
            out[f.name] = WRONG(rng)
        elif is_dataclass(tp):
            out[f.name] = _section(rng, tp, path, wrong, stress)
        elif rng.random() < PRESENT.get(key, (0.1, 0.1))[stress]:
            out[f.name] = _h_values(rng, out.get("h_o")) if path == ("h_values",) else _values(key, tp, stress)(rng)
    return out


def _config(stress, rng):
    """A config, stressed with chance ``stress``; in one of 16, a key or section of a wrong type."""
    wrong = rng.choice([p for p, _ in _keys(RunConfig)]) if rng.random() < 1 / 16 else None
    return _section(rng, RunConfig, (), wrong, int(rng.random() < stress))


def _configs(stress):
    return st.randoms(use_true_random=True).map(functools.partial(_config, stress))


def _paths(config, prefix=()):
    for key, value in config.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from _paths(value, (*prefix, key))


def test_the_draw_reaches_every_leaf_key_of_run_config():
    missed = {path for path, tp in _keys(RunConfig) if not is_dataclass(tp)}

    @given(_configs(1 / 2))
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def draw(config):
        missed.difference_update(_paths(config))

    draw()
    assert missed == set()


def _pinned(run, config):
    """``config`` with the keys that select ``run``: one h value for kernels
    (the first drawn) and for auto mode (0 or h_o), and the evolve mode."""
    config, h_values = dict(config), config.get("h_values", [0.0])
    one_h = {"kernels": h_values[:1] if isinstance(h_values, list) else h_values,
             "evolve-h0": [0.0], "evolve-ho": [config.get("h_o", 1.0)]}
    if run in one_h:
        config["h_values"] = one_h[run]
    if run.startswith("evolve") and isinstance(dyn := config.get("dynamics", {}), dict):
        config["dynamics"] = {**dyn, "mode": "compare" if run == "evolve-compare" else "auto"}
    return config


def _numbers(value):
    if isinstance(value, (dict, list)):
        return [n for v in (value.values() if isinstance(value, dict) else value) for n in _numbers(v)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


def _check(command, config, fmt):
    """``main`` on ``config`` at the tight budgets keeps the contract."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_MAX_WORK", 2.0**26)
        mp.setattr(matrep, "MAX_DENSE_BYTES", 1 << 26)
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv + ["--format", fmt] if command == "sweep" else argv)
        # the one documented warning: a Liouville run's boundary ring
        assert [str(w.message) for w in caught if "boundary ring" not in str(w.message)] == []
        assert code in (0, 1, 2), code
        if code == 2:  # one error line, and no --out directory
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
            assert not out.exists()
            return
        assert err.getvalue() == ""
        if code == 1:  # a failed verify check: under a fault, or with a non-finite defect
            assert command == "verify"
            if config.get("fault_injection") in (None, 1.0):
                checks = json.loads((out / "verify_report.json").read_text())["checks"]
                failed = [c["witness"] for c in checks if c["status"] == "fail" and not c["informational"]]
                defects = [w.rsplit(": ", 1)[1] for w in failed if "(scale " in w]
                assert any(not math.isfinite(float(d)) for d in defects), failed
            return
        artifacts = {p.name: p.read_text() for p in out.iterdir() if p.suffix in (".csv", ".json")}
        # a JSON NaN or Infinity reads as a float that is not finite; below
        # its header a CSV holds only numbers and empty fields
        numbers = [n for name, text in artifacts.items() for n in (
            _numbers(json.loads(text, parse_constant=float)) if name.endswith(".json")
            else [float(v) for row in list(csv.reader(text.splitlines()))[1:] for v in row if v])]
        assert numbers and all(math.isfinite(v) for v in numbers)
        if command == "kernels":
            kinds = {r: KINDS[spec["kind"]] if "kind" in (spec := config.get(f"backend_{r}", {}))
                     else getattr(RunConfig(), f"backend_{r}").kind for r in "qp"}
            meta = json.loads(artifacts["kernels_meta.json"])
            assert {"q": meta["backend_q"], "p": meta["backend_p"]} == kinds
            if config.get("export_matrix"):
                assert json.loads(artifacts["matrix.bin.json"])["kind"] == kinds


# each run: its subcommand, its example count (a full verify costs about 100 ms) and
# its share of stressed configs, so that a quarter of its examples pass validation
RUNS = {"sweep": ("sweep", 700, 0.6), "kernels": ("kernels", 400, 0.9), "verify": ("verify", 30, 0.9),
        "evolve-compare": ("evolve", 20, 0.5), "evolve-h0": ("evolve", 20, 0.5),
        "evolve-ho": ("evolve", 90, 0.5)}


@pytest.mark.parametrize("run", RUNS)
def test_every_config_keeps_the_exit_code_contract(run):
    command, examples, stress = RUNS[run]

    @given(_configs(stress), st.sampled_from(("csv", "json")))
    @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    def check(config, fmt):
        _check(command, _pinned(run, config), fmt)

    check()
