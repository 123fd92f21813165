"""Three verify checks read one vector or one pair at a time, kept as oracles.

``point_universality`` forms a point state and its expected value for each
of the 64 grid points of each polynomial, and ``eigenstate_lifting`` applies
H to one lifted state at a time, where ``qclab.verify`` reads all the states
of a polynomial or of a level in one product.  ``homomorphism_bulk`` forms
each pair's factors unscaled, the product defect and the scale apart, where
``qclab.verify`` reads both from ``qm_product_sectors``.  Each returns the
check's ``(passed, witness)``; the witness helpers and the draws are the
check's own, so a test can compare the two with ``==``.
"""

import numpy as np

from qclab import expr as expr_mod
from qclab.dynamics import OSCILLATOR_EXPR, qm_hamiltonian
from qclab.matrep import apply, build_backend, qm_factors, realize
from qclab.ncpoly import eval_ncpoly
from qclab.states import cm_point_state, lift_qm_eigenstate
from qclab.verify import _grid_pair, _random_weights, _rng, _within, _worst


def point_universality(ctx, index):
    rng = _rng(ctx, index)
    bq, bp = _grid_pair(ctx)
    worst = scale = 0.0
    for _ in range(5):
        f = expr_mod.random_expr(rng, max_degree=4, max_terms=4)
        mat = realize(eval_ncpoly(f, ctx.gens.q_cm, ctx.gens.p_cm), bq, bp)
        for k in range(bq.dim):
            for l in range(bp.dim):
                state = cm_point_state(bq, bp, k, l, 0.6, 0.8)
                expected = expr_mod.evaluate_numeric(f, bq.basis_labels[k], bp.basis_labels[l])
                worst = _worst(worst, np.max(np.abs(mat @ state - expected * state)))
        scale = _worst(scale, np.max(np.abs(mat)))
    return _within(worst, scale, 1e-13, "max eigen-residual over 5 polys x 64 points")


def eigenstate_lifting(ctx, index):
    rng = _rng(ctx, index)
    n = 32
    fock = build_backend("fock", n, ctx.hbar)
    h = qm_hamiltonian(OSCILLATOR_EXPR)
    worst = 0.0
    for level in range(5):
        psi = np.zeros(n, dtype=complex)
        psi[level] = 1.0
        energy = ctx.hbar * (level + 0.5)
        for _ in range(5):
            state = lift_qm_eigenstate(psi, _random_weights(rng, n, n))
            worst = _worst(worst, np.max(np.abs(apply(h, fock, fock, state) - energy * state)))
    return _within(worst, energy, 2e-9, "max eigen-residual over 5 levels x 5 draws")


def homomorphism_bulk(ctx, index):
    rng = _rng(ctx, index)
    fock = build_backend("fock", 16, ctx.hbar)
    worst = scale = 0.0
    for _ in range(5):
        f = expr_mod.random_expr(rng, max_degree=3, max_terms=3)
        g = expr_mod.random_expr(rng, max_degree=3, max_terms=3)
        a = eval_ncpoly(f, ctx.gens.q_qm, ctx.gens.p_qm)
        b = eval_ncpoly(g, ctx.gens.q_qm, ctx.gens.p_qm)
        for f_ab, f_a, f_b in zip(*(qm_factors(x, fock, fock) for x in (a * b, a, b))):
            worst = _worst(worst, np.abs(f_ab - f_a @ f_b)[:12, :12].max())
            scale = _worst(scale, np.max(np.abs(f_a) @ np.abs(f_b)))
    return _within(worst, scale, 2e-12, "max product defect on the bottom 12 levels per factor")
