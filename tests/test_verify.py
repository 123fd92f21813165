"""The check-suite runner: reports, subsets, and fault-injection plumbing."""

import tracemalloc
import warnings
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
from qclab.scalars import ScalarCoeff
from qclab.verify import CHECKS, SYMBOLIC_SUITE, run_verify

from matrix_oracle import dense_product_defect


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
    # factors; their dimension-512 matrices took 22 MiB
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
