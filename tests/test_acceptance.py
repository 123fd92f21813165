"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test ends with a single printed PASS line; a failed assertion marks the
criterion red.  Runtime budgets are asserted with wall-clock timers around
the governed work only.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from qclab import dynamics as dyn
from qclab.cli import RunConfig, cmd_sweep, cmd_verify
from qclab.expr import evaluate_numeric, parse_expr, random_expr
from qclab.matrep import build_backend, commutator_defect, realize
from qclab.ncpoly import eval_ncpoly, make_generators
from qclab.states import (
    WeightSpec,
    cm_mixed_density,
    cm_point_state,
    lift_qm_eigenstate,
    mean_value,
)
from qclab.verify import SYMBOLIC_SUITE, run_verify

GENS = make_generators()


def test_criterion_1_symbolic_identity_suite():
    """Exact identities decided symbolically, zero tolerance, under 5 s."""
    t0 = time.perf_counter()
    report = run_verify(names=SYMBOLIC_SUITE)
    elapsed = time.perf_counter() - t0
    for check in report.checks:
        assert check.status == "pass", f"{check.name}: {check.witness}"
    assert set(c.name for c in report.checks) == set(SYMBOLIC_SUITE)
    assert elapsed < 5.0, f"symbolic suite took {elapsed:.2f}s"
    print(f"PASS criterion-1: 5 symbolic check groups exact in {elapsed:.2f}s (< 5s)")


def test_criterion_2_truncated_ccr():
    """Oscillator-basis commutator matches i*hbar off the top level, 1e-12."""
    t0 = time.perf_counter()
    worst = 0.0
    for n in (4, 8, 16):
        backend = build_backend("fock", n, 1.0)
        for lam in (0, Fraction(1, 2), 1):
            pair = (x.substitute_lambda(lam) for x in (GENS.q_tilde, GENS.p_tilde))
            d = commutator_defect(backend, backend, *pair)
            worst = max(worst, d["bulk_defect_norm"])
            assert d["bulk_defect_norm"] <= 1e-12, (n, lam)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"truncated-CCR checks took {elapsed:.2f}s"
    print(
        f"PASS criterion-2: bulk commutator defect <= {worst:.2e} (tol 1e-12) "
        f"for N in (4, 8, 16) in {elapsed:.2f}s (< 1s)"
    )


def test_criterion_3_eigenstate_lifting():
    """Lifted oscillator eigenstates stay eigenvectors at N=32, 1e-8."""
    t0 = time.perf_counter()
    n = 32
    backend = build_backend("fock", n, 1.0)
    node = parse_expr("(1/2)*(P^2 + Q^2)")
    h_mat = realize(eval_ncpoly(node, GENS.q_qm, GENS.p_qm), backend, backend)
    h_data = np.asarray(h_mat)
    rng = np.random.default_rng(20260822)
    worst = 0.0
    for level in range(5):
        psi = np.zeros(n, dtype=complex)
        psi[level] = 1.0
        for _ in range(20):
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            c = c / np.linalg.norm(c)
            a = rng.normal(size=n) + 1j * rng.normal(size=n)
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
            w = WeightSpec(
                c_q=complex(c[0]),
                c_p=complex(c[1]),
                a_vec=a / np.linalg.norm(a),
                b_vec=b / np.linalg.norm(b),
            )
            state = lift_qm_eigenstate(psi, w)
            resid = h_data @ state - (level + 0.5) * state
            worst = max(worst, float(np.max(np.abs(resid))))
    assert worst < 1e-8, worst

    # malformed weights must be rejected
    ones = np.zeros(n, dtype=complex)
    ones[0] = 1.0
    with pytest.raises(ValueError):
        lift_qm_eigenstate(
            psi, WeightSpec(c_q=1.0, c_p=1.0, a_vec=ones, b_vec=ones)
        )
    with pytest.raises(ValueError):
        lift_qm_eigenstate(
            psi, WeightSpec(c_q=1.0, c_p=0.0, a_vec=2.0 * ones, b_vec=ones)
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"lifting checks took {elapsed:.2f}s"
    print(
        f"PASS criterion-3: eigen-residual <= {worst:.2e} (tol 1e-8) over "
        f"5 levels x 20 draws at N=32; bad weights rejected; {elapsed:.2f}s (< 10s)"
    )


def test_criterion_4_commuting_universality():
    """Every polynomial acts pointwise on the joint grid basis, 1e-10."""
    t0 = time.perf_counter()
    n = 8
    bq = build_backend("grid-position", n, 1.0, 8.0)
    bp = build_backend("grid-momentum", n, 1.0, 8.0)
    rng = np.random.default_rng(314159)
    worst = 0.0
    for _ in range(20):
        node = random_expr(rng, max_degree=4, max_terms=4)
        mat = np.asarray(
            realize(eval_ncpoly(node, GENS.q_cm, GENS.p_cm), bq, bp)
        )
        for k in range(n):
            for l in range(n):
                state = cm_point_state(bq, bp, k, l, 0.6, 0.8)
                expected = evaluate_numeric(
                    node, float(bq.basis_labels[k]), float(bp.basis_labels[l])
                )
                resid = mat @ state - expected * state
                worst = max(worst, float(np.max(np.abs(resid))))
    assert worst < 1e-10, worst
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"universality checks took {elapsed:.2f}s"
    print(
        f"PASS criterion-4: point-spectrum residual <= {worst:.2e} (tol 1e-10) "
        f"over 20 polynomials x {n * n} points in {elapsed:.2f}s (< 10s)"
    )


def test_criterion_5_mean_scale_invariance():
    """Means are invariant under density rescaling by 1e-6 .. 1e6, 1e-12."""
    n, length = 8, 8.0
    bq = build_backend("grid-position", n, 1.0, length)
    bp = build_backend("grid-momentum", n, 1.0, length)
    node = parse_expr("(1/2)*(P^2 + Q^2)")
    observables = [
        realize(eval_ncpoly(node, GENS.q_cm, GENS.p_cm), bq, bp),
        realize(GENS.q_cm, bq, bp),
    ]
    rho_cl = dyn.PhaseSpaceDensity.gaussian(
        n, n, length, length, 0.7, -0.2, 1.2, 1.2
    )
    mixed = cm_mixed_density(rho_cl, 1.0 / np.sqrt(2), 1.0 / np.sqrt(2))
    point = cm_point_state(bq, bp, 2, 5, 0.6, 0.8)
    pure = np.outer(point, point.conj())
    worst = 0.0
    for rho in (mixed, pure):
        for a in observables:
            base = mean_value(rho, a)
            assert base != 0.0
            for c in (1e-6, 1.0, 1e6):
                shift = abs(mean_value(c * rho, a) - base) / abs(base)
                worst = max(worst, shift)
                assert shift < 1e-12, (c, shift)
    print(
        f"PASS criterion-5: relative mean shift <= {worst:.2e} (tol 1e-12) "
        f"for scales 1e-6, 1, 1e6"
    )


def test_criterion_6_oscillator_cross_check():
    """Classical and quantum oscillator evolutions agree over one period."""
    t0 = time.perf_counter()
    table = dyn.oscillator_compare(dyn.OscillatorParams())
    elapsed = time.perf_counter() - t0
    assert table.times[0] == 0.0
    assert table.times[-1] == pytest.approx(2.0 * np.pi, abs=1e-12)
    assert table.max_dq_abs() < 1e-5, table.max_dq_abs()
    assert table.max_dp_abs() < 1e-5, table.max_dp_abs()
    assert table.classical_mass_drift() < 1e-8
    assert table.quantum_trace_drift() < 1e-10
    assert elapsed < 60.0, f"comparison took {elapsed:.2f}s"
    print(
        f"PASS criterion-6: |dq| <= {table.max_dq_abs():.2e}, "
        f"|dp| <= {table.max_dp_abs():.2e} (tol 1e-5); mass drift "
        f"{table.classical_mass_drift():.2e} (tol 1e-8); trace drift "
        f"{table.quantum_trace_drift():.2e} (tol 1e-10); {elapsed:.1f}s (< 60s)"
    )


def test_criterion_7_sweep_affinity(tmp_path):
    """Tabulated means are affine in h across the 11-point default sweep."""
    cfg = RunConfig()
    assert cmd_sweep(cfg, str(tmp_path)) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 11
    hs = np.array([float(r[0]) for r in rows])
    lams = np.array([float(r[1]) for r in rows])
    np.testing.assert_allclose(lams, 1.0 - hs, atol=1e-15)
    worst = 0.0
    for col in (2, 3):
        means = np.array([float(r[col]) for r in rows])
        chord = means[0] + (means[-1] - means[0]) * (hs - hs[0]) / (hs[-1] - hs[0])
        worst = max(worst, float(np.max(np.abs(means - chord))))
    assert worst < 1e-10, worst
    print(
        f"PASS criterion-7: chord deviation <= {worst:.2e} (tol 1e-10) "
        f"across 11 h values"
    )


def test_criterion_8_byte_determinism(tmp_path, capsys):
    """Repeated verify and sweep runs produce byte-identical artifacts."""
    cfg = RunConfig()
    for name in ("v1", "v2"):
        assert cmd_verify(cfg, str(tmp_path / name)) == 0
    for name in ("s1", "s2"):
        assert cmd_sweep(cfg, str(tmp_path / name)) == 0
    capsys.readouterr()
    verify_1 = (tmp_path / "v1" / "verify_report.json").read_bytes()
    verify_2 = (tmp_path / "v2" / "verify_report.json").read_bytes()
    sweep_1 = (tmp_path / "s1" / "sweep.csv").read_bytes()
    sweep_2 = (tmp_path / "s2" / "sweep.csv").read_bytes()
    assert verify_1 == verify_2
    assert sweep_1 == sweep_2
    print(
        f"PASS criterion-8: verify report ({len(verify_1)} bytes) and sweep "
        f"table ({len(sweep_1)} bytes) byte-identical across repeated runs"
    )
