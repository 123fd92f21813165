"""The sweep table against two per-h oracles.

``sweep_rows`` reads the state's term values of the pair and the observable
once, with lam symbolic (``term_values``), and at each h substitutes lam and
weighs them (``quadratic_form``); it refuses an element whose image the
exact engine does not find Hermitian, decided once with lam symbolic.  The
bulk defect and the endpoint gaps come from factor-sized maxima of exact
terms.  ``oracle_rows`` is the direct path: at each h it substitutes the
weight, realizes the pair and the observable, takes the commutator defect
from dense products of the realized pair, and the mean values by dense
products with the state vector (``vector_mean``).  ``per_h_means`` is the
per-h rule: at each h it substitutes, decides ``has_hermitian_image`` and
forms every term image again (``per_term_quadratic_form``).  It forms the
sweep's floats in the sweep's order, so its means must equal them exactly.
"""

import csv
import json
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qclab.cli import (
    BackendSpec,
    ConfigError,
    RunConfig,
    StateSpec,
    WeightsConfig,
    build_backends,
    build_state,
    cmd_sweep,
    main,
    sweep_rows,
)
from qclab import matrep
from qclab.expr import fold, parse_expr, random_expr
from qclab.matrep import entry_bound, has_hermitian_image, max_entry, realize
from qclab.ncpoly import eval_ncpoly, make_generators, substitute_lambda
from qclab.states import mean_value

from matrix_oracle import dense_bulk_commutator_defect, vector_mean

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
                "mean_q_tilde": vector_mean(state, q_mat),
                "mean_p_tilde": vector_mean(state, p_mat),
                "mean_observable": vector_mean(state, obs_mat),
                "bulk_commutator_defect": dense_bulk_commutator_defect(bq, bp, qt, pt),
                "endpoint_q_diff": None,
                "endpoint_p_diff": None,
            }
        except ValueError as exc:
            raise ConfigError(f"cannot evaluate means at h={h!r}: {exc}") from exc
        if h in refs:
            q_ref, p_ref = refs[h]
            row["endpoint_q_diff"] = float(np.max(np.abs(q_mat - q_ref)))
            row["endpoint_p_diff"] = float(np.max(np.abs(p_mat - p_ref)))
        rows.append(row)
    return rows


def _assert_rows_match(got, want, rtol=0.0, atol=1e-12):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert repr(float(g["h"])) == repr(float(w["h"]))
        assert repr(float(g["lambda"])) == repr(float(w["lambda"]))
        for col in COLUMNS[2:]:
            if w[col] is None:
                assert g[col] is None, col
            else:
                tol = max(atol, rtol * abs(w[col]))
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


def _count_calls(monkeypatch, name):
    """Record the first argument of every call of ``realize`` or
    ``mean_value``, through every qclab module that binds it."""
    calls, original = [], {"realize": realize, "mean_value": mean_value}[name]

    def spy(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("qclab") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("expr", ["Q^8", "P^8"])
def test_high_powers_sweep_on_the_grid_pair(tmp_path, capsys, expr):
    # entries of Q^8 on the default grid reach 1.3e6, so its roundoff
    # imaginary parts are judged against 1e-10 times the entry bound; its
    # means reach 1.3e4, so rows are compared to 1e-13 relative
    assert main(["sweep", "--expr", expr, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    config = RunConfig(observable=expr)
    bq, bp = build_backends(config)
    want = oracle_rows(config, bq, bp, build_state(config, bq, bp))
    _assert_rows_match(_read_csv(tmp_path / "sweep.csv"), want, rtol=1e-13)


GRID_16 = {
    "backend_q": BackendSpec(kind="grid-position", n=16, length=8.0),
    "backend_p": BackendSpec(kind="grid-momentum", n=16, length=8.0),
}


def test_p8_on_a_16_point_grid_pair_reads_its_means_from_the_factors(monkeypatch):
    # imaginary parts of these means reach 2.3e-10: roundoff, far below
    # 1e-10 times the entry bound.  Entries reach 1.6e7 while the mean at
    # h = 0.9 is 11.5, so a mean matches the oracle to 1e-13 relative or to
    # 1e-16 of the element's largest entry at that h
    config = RunConfig(observable="P^8", **GRID_16)
    bq, bp = build_backends(config)
    state = build_state(config, bq, bp)
    want = oracle_rows(config, bq, bp, state)
    realized = _count_calls(monkeypatch, "realize")
    got = sweep_rows(config, bq, bp, state)
    assert realized == []
    gens = make_generators()
    obs = eval_ncpoly(parse_expr("P^8"), gens.q_tilde, gens.p_tilde)
    for g, w in zip(got, want):
        scale = max_entry(substitute_lambda(obs, 1 - Fraction(str(g["h"]))), bq, bp)
        _assert_rows_match([g], [w], rtol=1e-13, atol=1e-16 * scale)


@pytest.mark.parametrize("h, named", [(None, "0.0"), ("0.5", "0.5")])
def test_non_hermitian_observable_is_usage_error(tmp_path, capsys, h, named):
    argv = ["sweep", "--expr", "Q*P", "--out", str(tmp_path / "out")]
    code = main(argv + (["--h", h] if h else []))
    err = capsys.readouterr().err
    assert code == 2
    assert err == (
        f"error: cannot evaluate means at h={named}:"
        " observable is not Hermitian on a finite pair\n"
    )
    assert not (tmp_path / "out").exists()


def test_non_hermitian_realization_with_a_real_mean_is_usage_error(tmp_path, capsys):
    # Q P Q is symbolically Hermitian, but its Fock realization is not at the
    # top level, which the vacuum never reaches: the mean would come out
    # real, and the exact rule refuses the mixed word before any reading
    path = tmp_path / "fock.json"
    path.write_text(
        '{"backend_q": {"kind": "fock", "n": 8}, "backend_p": {"kind": "fock", "n": 8}}'
    )
    argv = ["sweep", "--config", str(path), "--expr", "Q*P*Q", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: cannot evaluate means at h=0.0: observable is not Hermitian on a finite pair\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config",
    [
        RunConfig(), RunConfig(observable="Q^8"), RunConfig(observable="P^8", **GRID_16),
        *(CONFIGS[k] for k in sorted(CONFIGS)),
    ],
    ids=["default", "Q^8", "P^8-grid16", *sorted(CONFIGS)],
)
def test_means_of_vector_states_realize_no_element(monkeypatch, config):
    bq, bp = build_backends(config)
    state = build_state(config, bq, bp)
    means = _count_calls(monkeypatch, "mean_value")
    realized = _count_calls(monkeypatch, "realize")
    sweep_rows(config, bq, bp, state)
    assert means == []
    # the endpoint gaps and the bulk defect are read from the factors too
    assert realized == []


@pytest.mark.parametrize("expr, fock", [("Q*P", False), ("Q*P", True), ("Q*P*Q", True)])
def test_refused_means_realize_no_element(monkeypatch, expr, fock):
    spec = BackendSpec(kind="fock", n=8, length=None)
    config = RunConfig(observable=expr, **({"backend_q": spec, "backend_p": spec} if fock else {}))
    bq, bp = build_backends(config)
    spied = [_count_calls(monkeypatch, name) for name in ("mean_value", "realize")]
    with pytest.raises(ConfigError) as info:
        sweep_rows(config, bq, bp, build_state(config, bq, bp))
    assert str(info.value) == (
        "cannot evaluate means at h=0.0: observable is not Hermitian on a finite pair"
    )
    assert spied == [[], []]


def _fock_128(tmp_path):
    """The sweep benchmark's quartic on a Fock pair at N = 128: the product
    space has dimension 32768, one r-block 16384 (4 GiB of complex entries)."""
    path = tmp_path / "fock128.json"
    backend = {"kind": "fock", "n": 128}
    path.write_text(json.dumps({
        "observable": QUARTIC,
        "backend_q": backend,
        "backend_p": backend,
        "state": {"kind": "lifted-qm", "q0": -0.44, "p0": 0.83},
    }))
    return str(path)


def _main_peak(argv):
    """Exit code of ``main(argv)`` and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_fock_sweep_at_n128_stays_factor_sized(tmp_path, capsys):
    argv = ["sweep", "--config", _fock_128(tmp_path), "--out", str(tmp_path / "out")]
    code, peak = _main_peak(argv)
    capsys.readouterr()
    assert code == 0
    assert peak < 64 * 2**20, peak
    rows = _read_csv(tmp_path / "out" / "sweep.csv")
    assert len(rows) == 11
    assert float(rows[-1]["endpoint_q_diff"]) == 0.0


def test_a_refused_fock_sweep_at_n128_stays_factor_sized(tmp_path, capsys, monkeypatch):
    # a realized Q*P there would need 20 GiB; the exact rule refuses it first
    out = tmp_path / "out"
    argv = ["sweep", "--config", _fock_128(tmp_path), "--expr", "Q*P", "--out", str(out)]
    spied = [_count_calls(monkeypatch, name) for name in ("mean_value", "realize")]
    code, peak = _main_peak(argv)
    assert code == 2
    assert peak < 64 * 2**20, peak
    assert spied == [[], []]
    assert capsys.readouterr().err == (
        "error: cannot evaluate means at h=0.0: observable is not Hermitian on a finite pair\n"
    )
    assert not out.exists()


def test_q8_on_a_64_point_grid_pair_stays_factor_sized(tmp_path, capsys):
    # a realized Q^8 there has dimension 8192 (1 GiB), past the dense bound
    path = tmp_path / "grid64.json"
    grid = {"kind": "grid-position", "n": 64, "length": 8.0}
    path.write_text(json.dumps({"backend_q": grid, "backend_p": {**grid, "kind": "grid-momentum"}}))
    argv = ["sweep", "--config", str(path), "--expr", "Q^8", "--out", str(tmp_path / "out")]
    code, peak = _main_peak(argv)
    capsys.readouterr()
    assert code == 0
    assert peak < 64 * 2**20, peak
    assert len(_read_csv(tmp_path / "out" / "sweep.csv")) == 11


# -- random observables, states and pairs against the oracle ---------------


@st.composite
def _self_adjoint_sums(draw):
    """``c1*(w1 + rev(w1)) + c2*(w2 + rev(w2))``: each ``w`` a word over
    {Q, P} of length at most 4, each ``c`` a rational.  The sweep refuses
    mixed words and reads pure powers from the factors."""
    terms = []
    for _ in range(2):
        c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=5))
        w = draw(st.lists(st.sampled_from("QP"), min_size=1, max_size=4))
        terms.append(f"({c.numerator}/{c.denominator})*({'*'.join(w)} + {'*'.join(reversed(w))})")
    return " + ".join(terms)


@st.composite
def _sweep_configs(draw):
    """A grid or Fock pair with ``N_q != N_p`` from 2 to 6, and a lifted
    state with random centre and weights, or a point state on the grid pair."""
    n_q = draw(st.integers(2, 6))
    n_p = draw(st.integers(2, 6).filter(lambda n: n != n_q))
    if draw(st.booleans()):
        backends = {
            "backend_q": BackendSpec(kind="fock", n=n_q, length=None),
            "backend_p": BackendSpec(kind="fock", n=n_p, length=None),
        }
        point = False
    else:
        length = draw(st.sampled_from([4.0, 8.0]))
        backends = {
            "backend_q": BackendSpec(kind="grid-position", n=n_q, length=length),
            "backend_p": BackendSpec(kind="grid-momentum", n=n_p, length=length),
        }
        point = draw(st.booleans())
    if point:
        k, l = draw(st.integers(0, n_q - 1)), draw(st.integers(0, n_p - 1))
        state = StateSpec(kind="cm-point", k=k, l=l)
        weights = WeightsConfig()
    else:
        centre = st.floats(-1.0, 1.0)
        state = StateSpec(q0=draw(centre), p0=draw(centre))
        turn, phase = draw(st.floats(0.1, 1.4)), draw(st.floats(-3.0, 3.0))
        c_q = complex(np.cos(turn)) * np.exp(1j * phase)

        def padding(n):
            v = np.array([complex(*draw(st.tuples(centre, centre))) for _ in range(n)])
            if np.linalg.norm(v) < 0.1:  # keep clear of the zero vector
                v[0] = 1.0
            return tuple((z.real, z.imag) for z in v / np.linalg.norm(v))

        weights = WeightsConfig(
            c_q=(c_q.real, c_q.imag), c_p=(float(np.sin(turn)), 0.0),
            a_vec=padding(n_p), b_vec=padding(n_q),
        )
    return RunConfig(
        hbar=draw(st.sampled_from([1.0, 0.7])),
        h_values=(0.0, 0.4, 1.0),
        observable=draw(_self_adjoint_sums()),
        state=state,
        weights=weights,
        **backends,
    )


def _rows_or_refusal(reading, config, bq, bp, state):
    try:
        return reading(config, bq, bp, state)
    except ValueError as exc:
        return str(exc)


@given(_sweep_configs())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_sweep_rows_of_random_sums_match_the_oracle(config):
    bq, bp = build_backends(config)
    state = build_state(config, bq, bp)
    got = _rows_or_refusal(sweep_rows, config, bq, bp, state)
    want = _rows_or_refusal(oracle_rows, config, bq, bp, state)
    if isinstance(want, str):
        assert isinstance(got, str)  # both refuse
    else:
        _assert_rows_match(got, want, rtol=1e-12)


# -- the per-h mean rule as an oracle ---------------------------------------


def per_term_quadratic_form(a, bq, bp, vec):
    """``<v|A|v>`` with every term image formed at the call: a term
    ``c X (x) Y (x) E_ij`` adds ``c <psi_i, X psi_j Y^T>``, in sorted key
    order."""
    psi = matrep.slots(vec, bq.dim, bp.dim)
    (terms,) = matrep._factored(bq, bp, matrep._term_map(a))
    return complex(sum(c * np.vdot(psi[i], x @ psi[j] @ y.T) for i, j, c, x, y in terms))


def per_h_means(config, bq, bp, state):
    """The ``h``, ``lambda`` and mean columns of the sweep table by the per-h
    rule: at each h substitute lam, decide ``has_hermitian_image`` and read
    each mean with ``per_term_quadratic_form``, refusing as the sweep does."""
    gens = make_generators()
    q_t, p_t = gens.q_tilde, gens.p_tilde
    obs = eval_ncpoly(parse_expr(config.observable), q_t, p_t)

    def mean(element, lam):
        a = substitute_lambda(element, lam)
        if not has_hermitian_image(a):
            raise ValueError("observable is not Hermitian on a finite pair")
        with np.errstate(all="ignore"):
            ratio = per_term_quadratic_form(a, bq, bp, state) / np.vdot(state, state)
        if not np.isfinite(ratio):
            raise ValueError(f"mean value is not finite: {complex(ratio)}")
        if abs(ratio.imag) > 1e-10 and abs(ratio.imag) > 1e-10 * entry_bound(a, bq, bp):
            raise ValueError(f"mean value has non-negligible imaginary part {ratio.imag!r}")
        return float(ratio.real)

    rows = []
    for h in config.h_values:
        lam = 1 - Fraction(str(h)) / Fraction(str(config.h_o))
        try:
            rows.append({
                "h": h,
                "lambda": float(lam),
                "mean_q_tilde": mean(q_t, lam),
                "mean_p_tilde": mean(p_t, lam),
                "mean_observable": mean(obs, lam),
            })
        except ValueError as exc:
            raise ConfigError(f"cannot evaluate means at h={h!r}: {exc}") from exc
    return rows


def _text(node, reverse=False):
    """Source text of a tree; with ``reverse``, of the tree with every
    product's factors swapped, which is its adjoint when the coefficients
    are real."""
    return fold(
        node,
        lambda v: f"({v.numerator}/{v.denominator})",
        lambda name: name,
        neg=lambda a: f"-({a})",
        add=lambda a, b: f"{a} + {b}",
        sub=lambda a, b: f"{a} - ({b})",
        mul=lambda a, b: f"({b})*({a})" if reverse else f"({a})*({b})",
        power=lambda a, exponent: f"({a})^{exponent}",
    )


@st.composite
def _per_h_configs(draw):
    """A ``_sweep_configs`` draw with a ``random_expr`` observable, taken raw
    or plus its adjoint, and at times plus a power of ``Q*P - P*Q``, and
    ``h_values`` a shuffled subset of the tenths that holds 0 and ``h_o``."""
    config = draw(_sweep_configs())
    node = random_expr(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), max_degree=3)
    observable = _text(node)
    if draw(st.booleans()):  # self-adjoint; admitted when every word is a pure power
        observable += " + " + _text(node, reverse=True)
    # [Q, P]^e is (i hbar)^e in the tilde pair: a coefficient that depends
    # on hbar, admitted for even e only
    exponent = draw(st.integers(0, 4))
    if exponent:
        observable += f" + (Q*P - P*Q)^{exponent}"
    inner = draw(st.sets(st.sampled_from([i / 10 for i in range(1, 10)]), max_size=4))
    h_values = draw(st.permutations([0.0, *sorted(inner), 1.0]))
    return replace(config, observable=observable, h_values=tuple(h_values))


@given(_per_h_configs())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_sweep_means_equal_the_per_h_rule(config):
    bq, bp = build_backends(config)
    state = build_state(config, bq, bp)
    got = _rows_or_refusal(sweep_rows, config, bq, bp, state)
    want = _rows_or_refusal(per_h_means, config, bq, bp, state)
    if isinstance(want, str):
        assert got == want
    else:
        assert [{key: row[key] for key in COLUMNS[:5]} for row in got] == want


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=1500, deadline=None, derandomize=True)
def test_the_symbolic_hermitian_decision_is_the_decision_at_every_row(seed, symmetrize):
    # sweep_rows decides has_hermitian_image once, with lam symbolic, and
    # refuses at the first row: an element is refused at every lam or at none
    g = make_generators()
    obs = eval_ncpoly(random_expr(np.random.default_rng(seed)), g.q_tilde, g.p_tilde)
    if symmetrize:
        obs = obs + obs.adjoint()
    symbolic = has_hermitian_image(obs)
    lams = [Fraction(k, 4) for k in range(5)]
    assert [has_hermitian_image(substitute_lambda(obs, lam)) for lam in lams] == [symbolic] * 5


def test_a_sweep_forms_its_word_images_once_per_run(monkeypatch):
    # every h row only substitutes lam and weighs the term values, so 101 rows
    # form as many factor words as 11 (both include the two endpoint rows,
    # whose gaps read two small exact differences)
    words = []
    original = matrep._word

    def spy(*args):
        words.append(args[2])
        return original(*args)

    monkeypatch.setattr(matrep, "_word", spy)
    counts = []
    for n in (11, 101):
        config = RunConfig(observable=QUARTIC, h_values=tuple(i / (n - 1) for i in range(n)))
        bq, bp = build_backends(config)
        words.clear()
        assert len(sweep_rows(config, bq, bp, build_state(config, bq, bp))) == n
        counts.append(len(words))
    assert counts[0] == counts[1], counts
