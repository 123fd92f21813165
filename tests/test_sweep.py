"""The sweep table against a per-h oracle.

``sweep_rows`` realizes each lam-coefficient of the swept elements once and
evaluates every h from the coefficients.  The oracle below is the direct
path: at each h it substitutes the weight, realizes the pair and the
observable, takes the commutator defect from dense products of the realized
pair, and the mean values.
"""

import csv
from fractions import Fraction

import numpy as np
import pytest

from qclab.cli import (
    BackendSpec,
    ConfigError,
    RunConfig,
    StateSpec,
    build_backends,
    build_state,
    cmd_sweep,
    main,
    sweep_rows,
)
from qclab.expr import parse_expr
from qclab.matrep import realize
from qclab.ncpoly import eval_ncpoly, make_generators, substitute_lambda
from qclab.states import mean_value

from matrix_oracle import dense_bulk_commutator_defect

QUARTIC = "(1/2)*(P^2 + Q^2) + (1/10)*Q^4"
COLUMNS = [
    "h", "lambda", "mean_q_tilde", "mean_p_tilde", "mean_observable",
    "bulk_commutator_defect", "endpoint_q_diff", "endpoint_p_diff",
]


def oracle_rows(config, bq, bp, state):
    gens = make_generators()
    node = parse_expr(config.observable)
    refs = {
        config.h_o: (realize(gens.q_qm, bq, bp), realize(gens.p_qm, bq, bp)),
        0.0: (realize(gens.q_cm, bq, bp), realize(gens.p_cm, bq, bp)),
    }
    rows = []
    for h in config.h_values:
        lam = 1 - Fraction(str(h)) / Fraction(str(config.h_o))
        qt = substitute_lambda(gens.q_tilde, lam)
        pt = substitute_lambda(gens.p_tilde, lam)
        q_mat = realize(qt, bq, bp)
        p_mat = realize(pt, bq, bp)
        obs_mat = realize(eval_ncpoly(node, qt, pt), bq, bp)
        try:
            row = {
                "h": h,
                "lambda": float(lam),
                "mean_q_tilde": mean_value(state, q_mat),
                "mean_p_tilde": mean_value(state, p_mat),
                "mean_observable": mean_value(state, obs_mat),
                "bulk_commutator_defect": dense_bulk_commutator_defect(bq, bp, qt, pt),
                "endpoint_q_diff": None,
                "endpoint_p_diff": None,
            }
        except ValueError as exc:
            raise ConfigError(f"cannot evaluate means at h={h!r}: {exc}") from exc
        if h in refs:
            q_ref, p_ref = refs[h]
            row["endpoint_q_diff"] = float(np.max(np.abs(q_mat.data - q_ref.data)))
            row["endpoint_p_diff"] = float(np.max(np.abs(p_mat.data - p_ref.data)))
        rows.append(row)
    return rows


def _assert_rows_match(got, want, rtol=0.0):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert repr(float(g["h"])) == repr(float(w["h"]))
        assert repr(float(g["lambda"])) == repr(float(w["lambda"]))
        for col in COLUMNS[2:]:
            if w[col] is None:
                assert g[col] is None, col
            else:
                tol = max(1e-12, rtol * abs(w[col]))
                assert abs(float(g[col]) - w[col]) <= tol, (col, g[col], w[col])


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == COLUMNS
        return [{k: (v if v != "" else None) for k, v in r.items()} for r in reader]


CONFIGS = {
    "grid": RunConfig(observable=QUARTIC, state=StateSpec(q0=0.4, p0=-0.7)),
    "fock": RunConfig(
        observable=QUARTIC,
        backend_q=BackendSpec(kind="fock", n=8, length=None),
        backend_p=BackendSpec(kind="fock", n=8, length=None),
        state=StateSpec(q0=-0.3, p0=0.8),
    ),
    "cm-point": RunConfig(
        observable=QUARTIC,
        h_values=(0.0, 0.3, 0.45, 1.0),
        state=StateSpec(kind="cm-point", k=3, l=5),
    ),
    # the two pair kinds of the sweep benchmark, N = 16 (dimension 512)
    "grid-n16": RunConfig(
        observable=QUARTIC,
        backend_q=BackendSpec(kind="grid-position", n=16, length=8.0),
        backend_p=BackendSpec(kind="grid-momentum", n=16, length=8.0),
        state=StateSpec(q0=0.312, p0=-0.571),
    ),
    "fock-n16": RunConfig(
        observable=QUARTIC,
        backend_q=BackendSpec(kind="fock", n=16, length=None),
        backend_p=BackendSpec(kind="fock", n=16, length=None),
        state=StateSpec(q0=-0.44, p0=0.83),
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_sweep_table_matches_the_per_h_oracle(tmp_path, capsys, name):
    config = CONFIGS[name]
    assert cmd_sweep(config, str(tmp_path)) == 0
    capsys.readouterr()
    bq, bp = build_backends(config)
    want = oracle_rows(config, bq, bp, build_state(config, bq, bp))
    got = _read_csv(tmp_path / "sweep.csv")
    _assert_rows_match(got, want)
    assert float(got[-1]["endpoint_q_diff"]) == 0.0  # h = h_o: the quantum pair
    assert float(got[-1]["endpoint_p_diff"]) == 0.0


def test_sweep_rows_match_the_oracle_on_a_density():
    config = CONFIGS["cm-point"]
    bq, bp = build_backends(config)
    density = build_state(config, bq, bp).outer()
    _assert_rows_match(
        sweep_rows(config, bq, bp, density), oracle_rows(config, bq, bp, density)
    )


@pytest.mark.parametrize("expr", ["Q^8", "P^8"])
def test_high_powers_sweep_on_the_grid_pair(tmp_path, capsys, expr):
    # entries of Q^8 on the default grid reach 1.3e6, so its roundoff
    # Hermitian defect (2.6e-10) is above 1e-10 but far below 1e-10 * max|M|;
    # its means reach 1.3e4, so rows are compared to 1e-13 relative
    assert main(["sweep", "--expr", expr, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    config = RunConfig(observable=expr)
    bq, bp = build_backends(config)
    want = oracle_rows(config, bq, bp, build_state(config, bq, bp))
    _assert_rows_match(_read_csv(tmp_path / "sweep.csv"), want, rtol=1e-13)


@pytest.mark.parametrize("h, named", [(None, "0.0"), ("0.5", "0.5")])
def test_non_hermitian_observable_is_usage_error(tmp_path, capsys, h, named):
    argv = ["sweep", "--expr", "Q*P", "--out", str(tmp_path / "out")]
    code = main(argv + (["--h", h] if h else []))
    err = capsys.readouterr().err
    assert code == 2
    assert err == (
        f"error: cannot evaluate means at h={named}:"
        " observable is not Hermitian within 1e-10\n"
    )
    assert not (tmp_path / "out").exists()


def test_non_hermitian_realization_with_a_real_mean_is_usage_error(tmp_path, capsys):
    # Q P Q is symbolically Hermitian, but its Fock realization is not at the
    # top level, which the vacuum never reaches: the mean comes out real and
    # only the Hermitian test stops the row
    path = tmp_path / "fock.json"
    path.write_text(
        '{"backend_q": {"kind": "fock", "n": 8}, "backend_p": {"kind": "fock", "n": 8}}'
    )
    argv = ["sweep", "--config", str(path), "--expr", "Q*P*Q", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: cannot evaluate means at h=0.0: observable is not Hermitian within 1e-10\n"
    )
    assert not (tmp_path / "out").exists()
