"""Seeded inputs for the four benchmark workloads.

Only the standard library is used here, so the runner can generate the
inputs without importing numpy or qclab.  Every input is a pure function of
the workload seed and the operation index: the same seed always gives the
same configs and the same identity stream.
"""

from __future__ import annotations

import random

WORKLOADS = ("exact-identities", "verify-suite", "sweep-n16", "evolve-compare")

# A unit is what one fresh process runs: one CLI operation, or one cold
# pass of STREAM_OPS identity decisions.  Pass p decides items
# p * STREAM_OPS onwards of the seeded stream, so every pass starts from an
# empty word cache with the same cold-to-warm profile, whatever the speed.
STREAM_OPS = 600

# Units per group.  A timed run always ends on a whole group: the
# verify-suite repeats each seed once (the repeat must reproduce the report
# byte for byte) and sweep-n16 alternates the grid pair and the Fock pair,
# so its median never flips between the two kinds from run to run.
GROUP = {"exact-identities": 1, "verify-suite": 2, "sweep-n16": 2, "evolve-compare": 1}

# Fixed unit counts of the traced run, so that its counts repeat exactly.
TRACE_UNITS = {"exact-identities": 1, "verify-suite": 2, "sweep-n16": 2, "evolve-compare": 1}

SWEEP_OBSERVABLE = "(1/2)*(P^2 + Q^2) + (1/10)*Q^4"
SWEEP_N = 16


def _op_rng(workload: str, seed: int, index: int) -> random.Random:
    # str seeds are hashed with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{index}")


def cli_argv(workload: str, seed: int, index: int) -> tuple[list[str], dict]:
    """Subcommand arguments (before --config/--out) and the config dict."""
    if workload == "verify-suite":
        # ops 2j and 2j+1 share a seed: criterion 8 is checked on the pair
        rng = _op_rng(workload, seed, index // 2)
        return ["verify"], {"seed": rng.randrange(2**31)}
    if workload == "sweep-n16":
        rng = _op_rng(workload, seed, index)
        if index % 2 == 0:
            backends = {
                "backend_q": {"kind": "grid-position", "n": SWEEP_N, "length": 8.0},
                "backend_p": {"kind": "grid-momentum", "n": SWEEP_N, "length": 8.0},
            }
        else:
            backends = {
                "backend_q": {"kind": "fock", "n": SWEEP_N},
                "backend_p": {"kind": "fock", "n": SWEEP_N},
            }
        state = {
            "kind": "lifted-qm",
            "q0": round(rng.uniform(-1.0, 1.0), 6),
            "p0": round(rng.uniform(-1.0, 1.0), 6),
        }
        return ["sweep"], {"observable": SWEEP_OBSERVABLE, "state": state, **backends}
    if workload == "evolve-compare":
        rng = _op_rng(workload, seed, index)
        dynamics = {
            "mode": "compare",
            "q0": round(rng.uniform(0.5, 1.5), 6),
            "p0": round(rng.uniform(-0.5, 0.5), 6),
        }
        return ["evolve"], {"dynamics": dynamics}
    raise ValueError(f"{workload!r} is not a CLI workload")


def _word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("QP") for _ in range(length))


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def identity_item(seed: int, index: int) -> tuple:
    """One exact identity decision; every one of them must decide True.

    * ``("adjoint", A, B)``: (AB)^dagger = B^dagger A^dagger for words A, B
      of degree 1 to 5 each, in the tilde pair with lam symbolic;
    * ``("jacobi", A, B, C)``: the Jacobi identity for three words of total
      degree 3 to 7, lam symbolic;
    * ``("ccr-power", k, num, den)``: [q~, p~^k] = k i hbar p~^(k-1) at the
      rational weight num/den, k from 2 to 8.

    Words are strings over {Q, P}, read as q~ and p~.
    """
    rng = _op_rng("exact-identities", seed, index)
    kind = rng.choice(("adjoint", "jacobi", "ccr-power"))
    if kind == "adjoint":
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        return ("adjoint", _word(rng, a), _word(rng, b))
    if kind == "jacobi":
        a, b, c = _split(rng, rng.randint(3, 7), 3)
        return ("jacobi", _word(rng, a), _word(rng, b), _word(rng, c))
    den = rng.randint(1, 12)
    return ("ccr-power", rng.randint(2, 8), rng.randint(0, den), den)
