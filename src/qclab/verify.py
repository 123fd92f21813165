"""Named verification checks over the symbolic engine, the matrix
realizations, and the state constructions.

Each check is a pure function returning (passed, witness).  Witnesses are
deterministic strings (canonical-form differences or measured defect
norms), so a report generated from a fixed seed and configuration is
reproducible byte for byte.

A numeric check passes by ``matrep.within``, the package's one roundoff
rule: its defect, the largest entry modulus of what it measures, is at most
``rtol * scale`` and both are finite, so a NaN or inf fails.  The scale is
the largest entry of the operands it compares and ``rtol`` is fixed per
check, so the verdict does not depend on the units of hbar.  ``_within``
adds the witness ``what (scale S, ratio R): D`` with D the defect.

Two checks are informational: they record engine-derived facts that sit in
tension with the prose surrounding the construction (the interpolating
pair keeps the canonical commutator at every weight, and the classical
endpoint of the interpolation differs from the commutative pair as an
operator).  Informational results never affect the aggregate outcome.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import expr as expr_mod
from .dynamics import OSCILLATOR_EXPR, PhaseSpaceDensity, qm_hamiltonian
from .matrep import (
    Backend,
    _dft_matrix,
    apply,
    build_backend,
    commutator_defect,
    entry_bound,
    hermitian_defect,
    qm_product_sectors,
    qm_spectrum,
    r_block,
    realize,
    slots,
    spectrum,
    within,
)
from .ncpoly import (
    GeneratorSet,
    TensorPoly,
    canonical_eq,
    eval_ncpoly,
    factor_normalize,
    make_generators,
    qm_embedding,
    rewrite_fault,
    substitute_lambda,
    tp_adjoint,
    tp_commutator,
)
from .scalars import ScalarCoeff
from .states import (
    WeightSpec,
    cm_mixed_density,
    cm_point_state,
    lift_qm_eigenstate,
    mean_value,
    validate_state,
)

KNOWN_DISCREPANCY_NOTE = "informational: see known-discrepancy note"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" or "fail"
    witness: str
    elapsed: float
    informational: bool = False
    note: str | None = None


@dataclass
class VerifyReport:
    hbar: float
    h_o: float
    seed: int
    fault_injection: float | None
    checks: list[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks if not c.informational)

    def to_payload(self) -> dict:
        # elapsed is measured wall time and is deliberately left out of the
        # serialized form so identical runs serialize identically
        return {
            "hbar": self.hbar,
            "h_o": self.h_o,
            "seed": self.seed,
            "fault_injection": self.fault_injection,
            "all_passed": self.all_passed,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "witness": c.witness,
                    "informational": c.informational,
                    "note": c.note,
                }
                for c in self.checks
            ],
        }


@dataclass(frozen=True)
class _Ctx:
    hbar: float
    seed: int
    gens: GeneratorSet


def _rng(ctx: _Ctx, index: int) -> np.random.Generator:
    return np.random.default_rng([ctx.seed, index])


def _i_hbar() -> ScalarCoeff:
    return ScalarCoeff.i() * ScalarCoeff.hbar()


def _diff_witness(lhs: TensorPoly, rhs: TensorPoly) -> str:
    return f"canonical-diff={lhs - rhs!r}"


def _worst(*values: float) -> float:
    """The largest of ``values``, NaN if any is (``max`` drops a NaN after a number)."""
    return float(np.max(values))


# -- symbolic checks -------------------------------------------------------


def _check_qm_ccr(ctx: _Ctx, index: int) -> tuple[bool, str]:
    lhs = tp_commutator(ctx.gens.q_qm, ctx.gens.p_qm)
    rhs = ctx.gens.identity.scale(_i_hbar())
    if canonical_eq(lhs, rhs):
        return True, "exact: [q_qm, p_qm] = i*hbar*identity"
    return False, _diff_witness(lhs, rhs)


def _check_cm_commutativity(ctx: _Ctx, index: int) -> tuple[bool, str]:
    rng = _rng(ctx, index)
    for trial in range(100):
        f = expr_mod.random_expr(rng, max_degree=4, max_terms=4)
        g = expr_mod.random_expr(rng, max_degree=4, max_terms=4)
        a = eval_ncpoly(f, ctx.gens.q_cm, ctx.gens.p_cm)
        b = eval_ncpoly(g, ctx.gens.q_cm, ctx.gens.p_cm)
        comm = tp_commutator(a, b)
        if not comm.is_zero():
            return False, f"trial {trial}: nonzero commutator {comm!r}"
    return True, "100 random pairs commute exactly"


def _check_translation_identity(ctx: _Ctx, index: int) -> tuple[bool, str]:
    g = ctx.gens
    # the q-sector corner Q (x) 1 (x) E_qq, P (x) 1 (x) E_qq of the qm pair;
    # r_q drops the E_pp part of constant terms, leaving f(Q, P) (x) 1 (x) E_qq
    q_corner, p_corner = g.q_qm * g.r_q, g.p_qm * g.r_q
    rng = _rng(ctx, index)
    for trial in range(100):
        f = expr_mod.random_expr(rng, max_degree=4, max_terms=4)
        lhs = eval_ncpoly(f, g.q_qm, g.p_qm)
        rhs = qm_embedding(g.r_q * eval_ncpoly(f, q_corner, p_corner))
        if not canonical_eq(lhs, rhs):
            return False, f"trial {trial}: " + _diff_witness(lhs, rhs)
    return True, "100 random polynomials map to the two-sector diagonal form"


def _check_endpoint_qm(ctx: _Ctx, index: int) -> tuple[bool, str]:
    q_ok = canonical_eq(substitute_lambda(ctx.gens.q_tilde, 0), ctx.gens.q_qm)
    p_ok = canonical_eq(substitute_lambda(ctx.gens.p_tilde, 0), ctx.gens.p_qm)
    if q_ok and p_ok:
        return True, "exact: interpolating pair at weight 0 equals the qm pair"
    return False, f"q-endpoint equal: {q_ok}, p-endpoint equal: {p_ok}"


def _check_projector_relations(ctx: _Ctx, index: int) -> tuple[bool, str]:
    rq, rp = ctx.gens.r_q, ctx.gens.r_p
    ident, zero = ctx.gens.identity, TensorPoly.zero()
    relations = [
        ("r_q*r_p=0", rq * rp == zero),
        ("r_q^2=r_q", rq * rq == rq),
        ("r_p^2=r_p", rp * rp == rp),
        ("r_q adjoint", rq.adjoint() == rq),
        ("r_p adjoint", rp.adjoint() == rp),
        ("r_q+r_p=identity", rq + rp == ident),
    ]
    failed = [name for name, ok in relations if not ok]
    if failed:
        return False, "violated: " + ", ".join(failed)
    return True, "all six projector relations hold exactly"


def _check_rewrite_confluence(ctx: _Ctx, index: int) -> tuple[bool, str]:
    rng = _rng(ctx, index)
    for trial in range(200):
        length = int(rng.integers(0, 9))
        word = tuple("QP"[int(rng.integers(0, 2))] for _ in range(length))
        left = factor_normalize(word, "leftmost")
        right = factor_normalize(word, "rightmost")
        if left != right:
            return False, f"trial {trial}: word {''.join(word)!r} diverges"
    return True, "200 random words: leftmost and rightmost strategies agree"


def _check_generator_hermiticity(ctx: _Ctx, index: int) -> tuple[bool, str]:
    g = ctx.gens
    named = [
        ("q_tilde", g.q_tilde),
        ("p_tilde", g.p_tilde),
        ("q_qm", g.q_qm),
        ("p_qm", g.p_qm),
        ("q_cm", g.q_cm),
        ("p_cm", g.p_cm),
    ]
    failed = [name for name, el in named if not canonical_eq(tp_adjoint(el), el)]
    if failed:
        return False, "not adjoint-fixed: " + ", ".join(failed)
    return True, "all six generators are adjoint-fixed"


def _check_adjoint_involution(ctx: _Ctx, index: int) -> tuple[bool, str]:
    rng = _rng(ctx, index)
    for trial in range(10):
        f = expr_mod.random_expr(rng, max_degree=3, max_terms=3)
        x = eval_ncpoly(f, ctx.gens.q_tilde, ctx.gens.p_tilde)
        x = x.scale(_i_hbar())
        if not canonical_eq(tp_adjoint(tp_adjoint(x)), x):
            return False, f"trial {trial}: involution broken for {f!r}"
    return True, "adjoint is an involution on 10 random elements"


def _check_tilde_ccr_symbolic(ctx: _Ctx, index: int) -> tuple[bool, str]:
    lhs = tp_commutator(ctx.gens.q_tilde, ctx.gens.p_tilde)
    rhs = ctx.gens.identity.scale(_i_hbar())
    if canonical_eq(lhs, rhs):
        return True, (
            "[q_tilde, p_tilde] = i*hbar*identity for every interpolation"
            " weight, including the classical endpoint"
        )
    return False, _diff_witness(lhs, rhs)


def _check_classical_endpoint_gap(ctx: _Ctx, index: int) -> tuple[bool, str]:
    dq = substitute_lambda(ctx.gens.q_tilde, 1) - ctx.gens.q_cm
    dp = substitute_lambda(ctx.gens.p_tilde, 1) - ctx.gens.p_cm
    if dq.is_zero() or dp.is_zero():
        return False, "expected a nonzero operator gap at the classical endpoint"
    return True, (
        f"q-gap {dq!r}; p-gap {dp!r} (nonzero as operators; equivalence at"
        " the endpoint is basis-level, not canonical)"
    )


# -- numeric checks --------------------------------------------------------


def _within(defect: float, scale: float, rtol: float, what: str) -> tuple[bool, str]:
    """``matrep.within``'s verdict, with the witness ``what (scale S, ratio D/S): D``."""
    defect, scale = float(defect), float(scale)
    ratio = defect / scale if scale else (np.inf if defect else 0.0)
    return within(defect, scale, rtol), f"{what} (scale {scale!r}, ratio {ratio:.3g}): {defect!r}"


def _grid_pair(ctx: _Ctx) -> tuple[Backend, Backend]:
    """The 8-point position and momentum grids on length 8."""
    return tuple(build_backend(k, 8, ctx.hbar, 8.0) for k in ("grid-position", "grid-momentum"))


def _check_fock_truncated_ccr(ctx: _Ctx, index: int) -> tuple[bool, str]:
    worst = scale = 0.0
    for n in (4, 8, 16):
        b = build_backend("fock", n, ctx.hbar)
        comm = b.qmat @ b.pmat - b.pmat @ b.qmat
        diag = np.ones(n)
        diag[-1] = -(n - 1)
        oracle = 1j * ctx.hbar * np.diag(diag)
        worst = _worst(worst, np.max(np.abs(comm - oracle)))
        scale = _worst(scale, n * np.max(np.abs(b.qmat)) * np.max(np.abs(b.pmat)))
    return _within(worst, scale, 5e-15, "max deviation from analytic truncated form")


def _bulk_defect(ctx: _Ctx, q: TensorPoly, p: TensorPoly) -> tuple[dict, float]:
    """``commutator_defect`` of ``q``, ``p`` on the Fock 8 pair, and its scale."""
    b = build_backend("fock", 8, ctx.hbar)
    return commutator_defect(b, b, q, p), b.dim * entry_bound(q, b, b) * entry_bound(p, b, b)


def _check_qm_bulk_defect(ctx: _Ctx, index: int) -> tuple[bool, str]:
    d, scale = _bulk_defect(ctx, ctx.gens.q_qm, ctx.gens.p_qm)
    what = f"bulk_defect_norm, with defect_norm={d['defect_norm']!r} from the top level only"
    return _within(d["bulk_defect_norm"], scale, 5e-15, what)


def _check_tilde_bulk_defect(ctx: _Ctx, index: int) -> tuple[bool, str]:
    half = (substitute_lambda(x, Fraction(1, 2)) for x in (ctx.gens.q_tilde, ctx.gens.p_tilde))
    d, scale = _bulk_defect(ctx, *half)
    what = f"bulk_defect_norm at midpoint weight, with defect_norm={d['defect_norm']!r}"
    return _within(d["bulk_defect_norm"], scale, 5e-15, what)


def _check_cm_defect_exact(ctx: _Ctx, index: int) -> tuple[bool, str]:
    bq, bp = _grid_pair(ctx)
    d = commutator_defect(bq, bp, ctx.gens.q_cm, ctx.gens.p_cm)
    ok = d["defect_norm"] == 0.0
    return ok, f"defect_norm={d['defect_norm']!r} (diagonal pair commutes exactly)"


def _check_realize_linearity(ctx: _Ctx, index: int) -> tuple[bool, str]:
    rng = _rng(ctx, index)
    fock = build_backend("fock", 6, ctx.hbar)
    q, p = (substitute_lambda(x, Fraction(1, 3)) for x in (ctx.gens.q_tilde, ctx.gens.p_tilde))
    worst = scale = 0.0
    for _ in range(5):
        f = expr_mod.random_expr(rng, max_degree=3, max_terms=3)
        g = expr_mod.random_expr(rng, max_degree=3, max_terms=3)
        a, b = eval_ncpoly(f, q, p), eval_ncpoly(g, q, p)
        ra, rb = realize(a, fock, fock), realize(b, fock, fock)
        worst = _worst(worst, np.max(np.abs(realize(a + b, fock, fock) - (ra + rb))))
        scale = _worst(scale, np.max(np.abs(ra)) + np.max(np.abs(rb)))
    return _within(worst, scale, 2e-14, "max linearity defect over 5 random pairs")


def _check_homomorphism_bulk(ctx: _Ctx, index: int) -> tuple[bool, str]:
    rng = _rng(ctx, index)
    fock = build_backend("fock", 16, ctx.hbar)
    sectors = []
    for _ in range(5):
        f = expr_mod.random_expr(rng, max_degree=3, max_terms=3)
        g = expr_mod.random_expr(rng, max_degree=3, max_terms=3)
        a = eval_ncpoly(f, ctx.gens.q_qm, ctx.gens.p_qm)
        b = eval_ncpoly(g, ctx.gens.q_qm, ctx.gens.p_qm)
        sectors += qm_product_sectors(a, b, fock, fock, 12)
    # every sector's defect and scale in the units of the most scaled one,
    # reported in the factors' own units unless only the scaled ones are finite
    top = max(e for _, _, e in sectors)
    worst = _worst(*(np.ldexp(d, e - top) for d, _, e in sectors))
    scale = _worst(*(np.ldexp(s, e - top) for _, s, e in sectors))
    what = "max product defect on the bottom 12 levels per factor"
    unscaled = np.ldexp([worst, scale], top)
    if np.isfinite(unscaled).all() or not np.isfinite([worst, scale]).all():
        return _within(*unscaled, 2e-12, what)
    return _within(worst, scale, 2e-12, f"{what}, in units of 2^{top}")


def _check_hermiticity_transport(ctx: _Ctx, index: int) -> tuple[bool, str]:
    fock = build_backend("fock", 8, ctx.hbar)
    osc = expr_mod.parse_expr(OSCILLATOR_EXPR)
    candidates = [
        ("q_tilde@1/3", ctx.gens.q_tilde.substitute_lambda(Fraction(1, 3))),
        ("p_tilde@1/3", ctx.gens.p_tilde.substitute_lambda(Fraction(1, 3))),
        ("oscillator-qm", qm_hamiltonian(OSCILLATOR_EXPR)),
        ("oscillator-cm", eval_ncpoly(osc, ctx.gens.q_cm, ctx.gens.p_cm)),
    ]
    worst = scale = 0.0
    for name, el in candidates:
        if not canonical_eq(tp_adjoint(el), el):
            return False, f"{name} is not adjoint-fixed symbolically"
        worst = _worst(worst, hermitian_defect(realize(el, fock, fock)))
        scale = _worst(scale, entry_bound(el, fock, fock))
    return _within(worst, scale, 5e-14, "max Hermitian defect of realized fixed points")


def _check_index_round_trip(ctx: _Ctx, index: int) -> tuple[bool, str]:
    dim_q, dim_p = 3, 5
    flat = np.arange(dim_q * dim_p * 2)
    rows, cols = np.meshgrid(flat, flat, indexing="ij")  # at (a, b): a in rows, b in cols
    psi = slots(flat, dim_q, dim_p)
    for i_q, i_p, i_r in np.ndindex(dim_q, dim_p, 2):
        want, slot = (i_q * dim_p + i_p) * 2 + i_r, i_q * dim_p + i_p
        read = [r_block(rows, i_r, j)[slot] for j in (0, 1)]
        read += [r_block(cols, j, i_r)[:, slot] for j in (0, 1)]
        if psi[i_r, i_q, i_p] != want or any((x != want).any() for x in read):
            return False, f"round trip broken at ({i_q}, {i_p}, {i_r})"
    return True, f"all {flat.size} indices round-trip exactly"


def _check_grid_conjugacy(ctx: _Ctx, index: int) -> tuple[bool, str]:
    f = _dft_matrix(8)
    conj = np.diag(2.0 * np.pi * ctx.hbar * np.fft.fftfreq(8, d=8.0 / 8))
    pos, mom = _grid_pair(ctx)
    d1 = np.max(np.abs(f @ pos.pmat @ f.conj().T - conj))
    d2 = np.max(np.abs(f.conj().T @ mom.qmat @ f - conj))
    return _within(_worst(d1, d2), np.max(np.abs(conj)), 2e-11, "max DFT-diagonalization defect")


def _check_identity_spectrum(ctx: _Ctx, index: int) -> tuple[bool, str]:
    groups = spectrum(realize(ctx.gens.identity, *_grid_pair(ctx)))
    if len(groups) != 1 or groups[0][1] != 8 * 8 * 2:
        return False, f"spectrum groups: {groups!r}"
    what = f"distance from 1 of the {groups[0][1]}-fold eigenvalue"
    return _within(abs(groups[0][0] - 1.0), 1.0, 1e-12, what)


def _check_oscillator_spectrum(ctx: _Ctx, index: int) -> tuple[bool, str]:
    n = 16
    fock = build_backend("fock", n, ctx.hbar)
    # levels are hbar apart, so group within a fraction of hbar
    groups = qm_spectrum(qm_hamiltonian(OSCILLATOR_EXPR), fock, fock, group_tol=1e-8 * ctx.hbar)
    worst = 0.0
    for level in range(6):
        value, mult = groups[level]
        expected = ctx.hbar * (level + 0.5)
        worst = _worst(worst, abs(value - expected))
        if mult != 2 * n:
            return False, (
                f"level {level}: multiplicity {mult}, expected {2 * n}"
                " (each sector contributes the full spectator-factor degeneracy)"
            )
    return _within(worst, expected, 1e-9, "lowest 6 levels match hbar*(n+1/2), max error")


# -- state checks ----------------------------------------------------------


def _random_weights(rng: np.random.Generator, n_q: int, n_p: int) -> WeightSpec:
    raw = rng.normal(size=4)
    c = (raw[0] + 1j * raw[1], raw[2] + 1j * raw[3])
    scale = np.sqrt(abs(c[0]) ** 2 + abs(c[1]) ** 2)
    a = rng.normal(size=n_p) + 1j * rng.normal(size=n_p)
    b = rng.normal(size=n_q) + 1j * rng.normal(size=n_q)
    return WeightSpec(
        c_q=c[0] / scale,
        c_p=c[1] / scale,
        a_vec=a / np.linalg.norm(a),
        b_vec=b / np.linalg.norm(b),
    )


def _check_eigenstate_lifting(ctx: _Ctx, index: int) -> tuple[bool, str]:
    rng = _rng(ctx, index)
    n = 32
    fock = build_backend("fock", n, ctx.hbar)
    # H v is read from the factors: the realized H would be 2n^2 x 2n^2
    h = qm_hamiltonian(OSCILLATOR_EXPR)
    worst = 0.0
    for level in range(5):
        psi = np.zeros(n, dtype=complex)
        psi[level] = 1.0
        energy = ctx.hbar * (level + 0.5)
        # one level's 5 draws at once: H applies to a stack of vectors
        states = np.stack([lift_qm_eigenstate(psi, _random_weights(rng, n, n)) for _ in range(5)])
        worst = _worst(worst, np.max(np.abs(apply(h, fock, fock, states) - energy * states)))
    return _within(worst, energy, 2e-9, "max eigen-residual over 5 levels x 5 draws")


def _check_weight_rejection(ctx: _Ctx, index: int) -> tuple[bool, str]:
    n = 4
    good = WeightSpec.default(n, n)
    psi = np.zeros(n, dtype=complex)
    psi[0] = 1.0
    attempts = [
        (
            "unnormalized weights",
            lambda: lift_qm_eigenstate(
                psi,
                WeightSpec(1.0, 1.0, good.a_vec, good.b_vec),
            ),
        ),
        (
            "unnormalized padding",
            lambda: lift_qm_eigenstate(
                psi,
                WeightSpec(good.c_q, good.c_p, 2.0 * good.a_vec, good.b_vec),
            ),
        ),
        ("unnormalized psi", lambda: lift_qm_eigenstate(2.0 * psi, good)),
    ]
    for label, attempt in attempts:
        try:
            attempt()
        except ValueError:
            continue
        return False, f"{label}: invalid input was accepted"
    return True, "all invalid weight/state inputs rejected with ValueError"


def _check_point_universality(ctx: _Ctx, index: int) -> tuple[bool, str]:
    rng = _rng(ctx, index)
    bq, bp = _grid_pair(ctx)
    # the point states as columns, point (k, l) at column k * N_p + l
    k, l = np.divmod(np.arange(bq.dim * bp.dim), bp.dim)
    states = np.stack([cm_point_state(bq, bp, *point, 0.6, 0.8) for point in zip(k, l)], axis=1)
    worst = scale = 0.0
    for _ in range(5):
        f = expr_mod.random_expr(rng, max_degree=4, max_terms=4)
        mat = realize(eval_ncpoly(f, ctx.gens.q_cm, ctx.gens.p_cm), bq, bp)
        expected = expr_mod.evaluate_numeric(f, bq.basis_labels[k], bp.basis_labels[l])
        worst = _worst(worst, np.max(np.abs(mat @ states - expected * states)))
        scale = _worst(scale, np.max(np.abs(mat)))
    return _within(worst, scale, 1e-13, "max eigen-residual over 5 polys x 64 points")


def _default_grid_density(ctx: _Ctx):
    return PhaseSpaceDensity.gaussian(8, 8, 8.0, 8.0, 0.0, 0.0, 1.2, 1.2)


def _check_mean_scale_invariance(ctx: _Ctx, index: int) -> tuple[bool, str]:
    bq, bp = _grid_pair(ctx)
    rho = _default_grid_density(ctx)
    density = cm_mixed_density(rho, 1 / np.sqrt(2.0), 1 / np.sqrt(2.0))
    osc = expr_mod.parse_expr(OSCILLATOR_EXPR)
    a = realize(eval_ncpoly(osc, ctx.gens.q_cm, ctx.gens.p_cm), bq, bp)
    base = mean_value(density, a)
    worst = 0.0
    for c in (1e-6, 1e6):
        scaled = mean_value(c * density, a)
        worst = _worst(worst, abs(scaled - base))
    return _within(worst, abs(base), 1e-12, "max mean shift under scaling")


def _check_pure_mixed_consistency(ctx: _Ctx, index: int) -> tuple[bool, str]:
    bq, bp = _grid_pair(ctx)
    k, l = 2, 5
    dq = dp = 1.0
    grid = np.zeros((8, 8))
    grid[k, l] = 1.0 / (dq * dp)
    rho = PhaseSpaceDensity(grid, dq, dp, (8.0, 8.0))
    mixed = cm_mixed_density(rho, 0.6, 0.8)
    point = cm_point_state(bq, bp, k, l, 0.6, 0.8)
    diff = np.max(np.abs(mixed - np.outer(point, point.conj())))
    scale = np.max(np.abs(point)) ** 2  # the pure density's largest entry
    return _within(diff, scale, 1e-15, "max entrywise gap between constructions")


def _check_density_axioms(ctx: _Ctx, index: int) -> tuple[bool, str]:
    rho = _default_grid_density(ctx)
    density = cm_mixed_density(rho, 1 / np.sqrt(2.0), 1 / np.sqrt(2.0))
    report = validate_state(density)
    if not report.passed:
        return False, f"valid density rejected: {report!r}"
    zero = validate_state(np.zeros((4, 4), dtype=complex))
    if zero.passed:
        return False, "zero matrix accepted despite nonpositive trace"
    perturbed = density.copy()
    perturbed[0, 1] += 1e-6
    measured = validate_state(perturbed).hermitian_defect
    if not 0.5e-6 < measured < 2e-6:
        return False, f"perturbation of 1e-6 measured as {measured!r}"
    return True, (
        f"valid density passes; zero matrix fails trace positivity;"
        f" 1e-6 perturbation measured as {measured!r}"
    )


# -- registry --------------------------------------------------------------


@dataclass(frozen=True)
class CheckDef:
    name: str
    fn: Callable[[_Ctx, int], tuple[bool, str]]
    informational: bool = False
    note: str | None = None


# the exact engine's checks, which run in the worker (see ``run_verify``)
EXACT_CHECKS: list[CheckDef] = [
    CheckDef("qm-ccr", _check_qm_ccr),
    CheckDef("cm-commutativity", _check_cm_commutativity),
    CheckDef("translation-identity", _check_translation_identity),
    CheckDef("endpoint-qm", _check_endpoint_qm),
    CheckDef("projector-relations", _check_projector_relations),
    CheckDef("rewrite-confluence", _check_rewrite_confluence),
    CheckDef("generator-hermiticity", _check_generator_hermiticity),
    CheckDef("adjoint-involution", _check_adjoint_involution),
    CheckDef(
        "tilde-ccr-symbolic",
        _check_tilde_ccr_symbolic,
        informational=True,
        note=KNOWN_DISCREPANCY_NOTE,
    ),
    CheckDef(
        "classical-endpoint-gap",
        _check_classical_endpoint_gap,
        informational=True,
        note=KNOWN_DISCREPANCY_NOTE,
    ),
]

CHECKS: list[CheckDef] = EXACT_CHECKS + [
    CheckDef("fock-truncated-ccr", _check_fock_truncated_ccr),
    CheckDef("qm-bulk-defect", _check_qm_bulk_defect),
    CheckDef("tilde-bulk-defect", _check_tilde_bulk_defect),
    CheckDef("cm-defect-exact", _check_cm_defect_exact),
    CheckDef("realize-linearity", _check_realize_linearity),
    CheckDef("homomorphism-bulk", _check_homomorphism_bulk),
    CheckDef("hermiticity-transport", _check_hermiticity_transport),
    CheckDef("index-round-trip", _check_index_round_trip),
    CheckDef("grid-conjugacy", _check_grid_conjugacy),
    CheckDef("identity-spectrum", _check_identity_spectrum),
    CheckDef("oscillator-spectrum", _check_oscillator_spectrum),
    CheckDef("eigenstate-lifting", _check_eigenstate_lifting),
    CheckDef("weight-rejection", _check_weight_rejection),
    CheckDef("point-universality", _check_point_universality),
    CheckDef("mean-scale-invariance", _check_mean_scale_invariance),
    CheckDef("pure-mixed-consistency", _check_pure_mixed_consistency),
    CheckDef("density-axioms", _check_density_axioms),
]

SYMBOLIC_SUITE = (
    "qm-ccr",
    "cm-commutativity",
    "translation-identity",
    "endpoint-qm",
    "projector-relations",
)


def _run_check(ctx: _Ctx, index: int, check: CheckDef) -> CheckResult:
    start = time.perf_counter()
    try:
        passed, witness = check.fn(ctx, index)
    except Exception as exc:  # a crashed check is a failed check
        passed, witness = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(
        name=check.name,
        status="pass" if passed else "fail",
        witness=witness,
        elapsed=time.perf_counter() - start,
        informational=check.informational,
        note=check.note,
    )


def _may_fork() -> bool:
    """Whether a worker can run beside this process: fork exists, two CPUs
    are ours and no other Python thread runs (a threaded fork can deadlock).

    On one CPU the worker only adds its fork to the same serial work: pinned
    to one CPU, ``verify-suite`` took 0.138 s per operation with the worker
    and 0.120 s without (``BENCH_34.json``)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return hasattr(os, "fork") and cpus >= 2 and threading.active_count() == 1


def _run_beside(ctx: _Ctx, exact: list, numeric: list) -> list[CheckResult]:
    """Run the ``exact`` checks in a forked worker while this process runs
    ``numeric``; the results come back in registry order.

    The worker runs only pure-Python exact-engine code and numpy's RNG, never
    BLAS, and ends in ``os._exit``.  If it ends without reporting, each of its
    checks fails, the witness naming its exit status (unknown where SIGCHLD
    is ignored and the kernel reaps the worker itself).
    """
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns of BLAS's own threads; the worker never calls BLAS
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:  # no process to spare: every check runs here
        os.close(read_fd)
        os.close(write_fd)
        return [_run_check(ctx, i, c) for i, c in exact + numeric]
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pickle.dump([_run_check(ctx, i, c) for i, c in exact], pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            ours = [_run_check(ctx, i, c) for i, c in numeric]
            # read it all before waiting: a fault's witnesses can fill the pipe
            data = pipe.read()
    finally:
        try:
            status = f"exit status {os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])}"
        except ChildProcessError:  # SIGCHLD ignored: the kernel reaped the worker
            status = "exit status unknown"
    try:
        # the report is whole exactly when it unpickles: a pickle ends in STOP
        theirs = pickle.loads(data)
    except (EOFError, pickle.UnpicklingError):
        witness = f"the exact-engine worker ended without a report ({status})"
        theirs = [
            CheckResult(c.name, "fail", witness, 0.0, c.informational, c.note) for _, c in exact
        ]
    # every exact check precedes every numeric one in CHECKS
    return theirs + ours


def run_verify(
    hbar: float = 1.0,
    h_o: float = 1.0,
    seed: int = 1234,
    fault_injection: float | None = None,
    names: tuple[str, ...] | None = None,
) -> VerifyReport:
    """Execute the check suite (or a named subset) and collect a report.

    ``fault_injection`` deliberately scales the swap constant ``s = -i*hbar``
    of normal ordering by the given factor for the duration of the run; a
    corrupted engine must surface as failing identity checks.

    Where ``_may_fork`` allows and both halves hold a selected check, the
    exact-engine checks (``EXACT_CHECKS``) run in one forked worker beside
    the numeric and state checks.  Each check gets the same context and
    registry index either way, so the report is the same; only ``elapsed``
    is timed in whichever process ran the check.
    """
    if fault_injection is None:
        guard = nullcontext()
    else:
        factor = Fraction(str(fault_injection))
        guard = rewrite_fault(ScalarCoeff.from_rational(0, -factor) * ScalarCoeff.hbar())

    wanted = set(names) if names is not None else None
    if wanted is not None:
        unknown = wanted - {check.name for check in CHECKS}
        if unknown:
            raise ValueError(f"unknown check names: {', '.join(sorted(unknown))}")
    selected = [(i, c) for i, c in enumerate(CHECKS) if wanted is None or c.name in wanted]
    exact = [(i, c) for i, c in selected if i < len(EXACT_CHECKS)]
    numeric = selected[len(exact):]
    ctx = _Ctx(hbar=hbar, seed=seed, gens=make_generators())
    # entered before any fork, so a worker inherits the fault; an overflow
    # becomes an inf or NaN witness, which fails its check
    with guard, np.errstate(all="ignore"):
        if exact and numeric and _may_fork():
            results = _run_beside(ctx, exact, numeric)
        else:
            results = [_run_check(ctx, idx, check) for idx, check in selected]
    return VerifyReport(
        hbar=hbar,
        h_o=h_o,
        seed=seed,
        fault_injection=fault_injection,
        checks=results,
    )
