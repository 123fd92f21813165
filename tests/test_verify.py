"""The check-suite runner: reports, subsets, fault-injection plumbing and the
numeric checks' one rule."""

import json
import math
import os
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

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
from qclab import ncpoly, verify
from qclab.cli import main
from qclab.scalars import ScalarCoeff
from qclab.verify import CHECKS, SYMBOLIC_SUITE, run_verify

import verify_oracle
from matrix_oracle import dense_product_defect
from test_cli import _run_python


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


def test_verify_forms_no_dense_matrix_past_dimension_128():
    # homomorphism-bulk and oscillator-spectrum read the Fock 16 pair's
    # factors; their dimension-512 matrices took 22 MiB.  The bound holds
    # the whole run
    tracemalloc.start()
    try:
        report = run_verify()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed
    assert peak < 4 * 2**20, peak


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


def test_elapsed_is_tracked_per_check():
    report = run_verify(names=("qm-ccr",))
    assert report.checks[0].elapsed >= 0.0
    report = run_verify()
    assert all(c.elapsed > 0.0 for c in report.checks)


# the first check to draw would pay numpy's lazy import of
# its random module in its elapsed; a fresh interpreter has not loaded it
_FIRST_CHECK_SEES_NUMPY_RANDOM = """
import sys
from qclab import cli, verify
loaded = ["numpy.random" in sys.modules]
run_check = verify._run_check

def spy(ctx, index, check):
    loaded.append("numpy.random" in sys.modules)
    return run_check(ctx, index, check)

verify._run_check = spy
verify.run_verify(names=("qm-ccr", "projector-relations"))
print(loaded)
"""


def test_numpy_random_loads_before_the_first_check_not_on_import():
    run = _run_python("-c", _FIRST_CHECK_SEES_NUMPY_RANDOM, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[False, True, True]\n"


# -- one process ------------------------------------------------------------


_REPORT_CONFIGS = [
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
    [("json", c) for c in _REPORT_CONFIGS] + [("csv", {"seed": 1234})],
    ids=[json.dumps(c) for c in _REPORT_CONFIGS] + ["csv"],
)
def test_two_runs_write_the_same_report(tmp_path, capsys, fmt, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    runs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = main(["verify", "--config", str(path), "--out", str(out), "--format", fmt])
        captured = capsys.readouterr()
        (report,) = out.iterdir()
        runs.append((code, captured.out.replace(str(out), "OUT"), captured.err, report.read_bytes()))
    assert runs[0] == runs[1]


def _refuse_to_fork():
    raise AssertionError("os.fork was called")


@pytest.mark.parametrize("fault", [None, 0.5])
def test_run_verify_never_forks(monkeypatch, fault):
    monkeypatch.setattr(os, "fork", _refuse_to_fork)
    report = run_verify(fault_injection=fault)
    failed = [c.name for c in report.checks if c.status == "fail"]
    assert [c.name for c in report.checks] == [c.name for c in CHECKS]
    assert failed == ([] if fault is None else [
        "qm-ccr", "tilde-ccr-symbolic", "qm-bulk-defect", "tilde-bulk-defect", "homomorphism-bulk"
    ])


# Exact witnesses of the ten symbolic checks.  They are canonical forms and
# reprs of exact elements, so they repeat on every platform.
_SYMBOLIC_WITNESSES = {
    "qm-ccr": "exact: [q_qm, p_qm] = i*hbar*identity",
    "cm-commutativity": "100 random pairs commute exactly",
    "translation-identity": "100 random polynomials map to the two-sector diagonal form",
    "endpoint-qm": "exact: interpolating pair at weight 0 equals the qm pair",
    "projector-relations": "all six projector relations hold exactly",
    "rewrite-confluence": (
        "200 random words: leftmost and rightmost strategies agree; products"
        " P^n Q^m match the rewriter for 1 <= n <= 3 and 1 <= m <= 3"
    ),
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


# -- the exact checks' draws and the rewriter oracle --------------------------

# the exact checks that draw polynomials: (count, max_degree, max_terms)
_POLY_DRAWS = {
    "cm-commutativity": (200, 4, 4),
    "translation-identity": (100, 4, 4),
    "adjoint-involution": (10, 3, 3),
}


class _RecordingRng:
    """A check's generator, with each array its ``integers`` returns recorded."""

    def __init__(self, rng, draws):
        self._rng, self._draws = rng, draws

    def integers(self, *args, **kwargs):
        self._draws.append(self._rng.integers(*args, **kwargs))
        return self._draws[-1]

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _recorded_draws(monkeypatch, name, seed=1234):
    """The arrays ``Generator.integers`` gives check ``name`` at ``seed``, and
    each list of polynomials the check reads from them."""
    draws, exprs = [], []
    make, read = verify._rng, verify._draw_exprs
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_rng", lambda ctx, index: _RecordingRng(make(ctx, index), draws))
        patch.setattr(verify, "_draw_exprs", lambda *a, **kw: exprs.append(read(*a, **kw)) or exprs[-1])
        (check,) = run_verify(seed=seed, names=(name,)).checks
    assert check.status == "pass", check.witness
    return draws, exprs


@pytest.mark.parametrize("name", [*_POLY_DRAWS, "rewrite-confluence"])
def test_each_drawing_exact_check_draws_once(monkeypatch, name):
    draws, _ = _recorded_draws(monkeypatch, name)
    if name == "rewrite-confluence":
        shape = (200, 9)  # a word length, then 8 letters
    else:
        count, degree, terms = _POLY_DRAWS[name]
        shape = (count, terms, 4 + degree)
    assert [d.shape for d in draws] == [shape]


class _Replay:
    """Hands ``random_expr`` the given values, one scalar call at a time,
    each checked against the range that call asks for."""

    def __init__(self, values):
        self._values = iter(values)

    def integers(self, low, high):
        value = next(self._values)
        assert low <= value < high, (low, value, high)
        return value


def test_exact_checks_draw_polynomials_of_random_exprs_family(monkeypatch):
    numerators, denominators = set(), set()
    for name, (count, degree, terms) in _POLY_DRAWS.items():
        (draw,), (exprs,) = _recorded_draws(monkeypatch, name)
        lengths = set()
        for rows, f in zip(draw.tolist(), exprs):
            used = rows[: rows[0][0]]
            values = [len(used)]
            for _, num, den, length, *letters in used:
                values += [num, den, length, *letters[:length]]
                numerators.add(num)
                denominators.add(den)
                lengths.add(length)
            # random_expr, fed the same values, builds the same tree
            assert random_expr(_Replay(values), max_degree=degree, max_terms=terms) == f
        assert set(draw[:, 0, 0].tolist()) == set(range(1, terms + 1)), name
        assert lengths == set(range(degree + 1)), name
        assert set(draw[:, :, 4:].flat) == {0, 1}, name
    assert numerators == set(range(-6, 7))
    assert denominators == set(range(1, 5))
    (words,), _ = _recorded_draws(monkeypatch, "rewrite-confluence")
    assert set(words[:, 0].tolist()) == set(range(9))
    assert set(words[:, 1:].flat) == {0, 1}


def test_rewrite_confluence_catches_a_wrong_reordering_weight(monkeypatch):
    # one more than k! C(n, k) C(m, k) past k = 2: only P^3 Q^3 reorders that far
    weights = ncpoly.reorder_weights
    monkeypatch.setattr(
        ncpoly, "reorder_weights", lambda n, m: [w + (k > 2) for k, w in enumerate(weights(n, m))]
    )
    (check,) = run_verify(names=("rewrite-confluence",)).checks
    assert check.status == "fail"
    assert check.witness == (
        "P^3 Q^3 against the rewriter: canonical-diff=TensorPoly((1i*hbar^3)*[1|1|E_qq])"
    )


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
