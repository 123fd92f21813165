"""Benchmark runner for qclab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  ``NAME`` is one of the workloads
in ``perfbench/workloads.py`` or ``all``.  The load is one closed-loop
client: the next operation starts only after the previous one returned.

With ``--trace 0`` the runner measures for ``S`` seconds and reports the
end-to-end metrics of ``BENCHMARK.json``.  With ``--trace 1`` it runs the
workload's fixed list of traced units twice, first untraced and then
traced, and reports the per-layer metrics plus the tracing overhead (traced
minus untraced operation time).  A unit is one fresh process: one CLI
operation, or one cold pass of the identity stream.  Every operation's output is checked; a
failed check counts as a failed operation and the run goes on.  Summary
lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BLAS_THREADS = 1  # fixed at or below nproc; one thread gives the steadiest times
SETUP_SAMPLES = 7
RUN_BUDGET_S = 150.0  # no operation starts after this; a run must end within 180 s


class Runner:
    def __init__(self, root: str, seed: int, seconds: float) -> None:
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.scratch = os.path.join(root, ".perfbench", f"run-{os.getpid()}")
        self.spans_dir = os.path.join(root, ".perfbench", "spans")
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self.env["PYTHONHASHSEED"] = "0"
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def child(self, *args: str) -> dict:
        """Start child.py, wait for it, and return its JSON line."""
        remaining = max(1.0, RUN_BUDGET_S + 20.0 - (time.monotonic() - self.started))
        spawn_ns = time.monotonic_ns()
        cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), args[0], str(spawn_ns), *args[1:]]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=self.env, cwd=self.root)
        try:
            out, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": f"timed out after {remaining:.0f} s"}
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"error": f"child exited with code {proc.returncode}"}
        return json.loads(lines[-1])

    def over_budget(self) -> bool:
        return time.monotonic() - self.started > RUN_BUDGET_S

    def setup_samples(self, workload: str) -> tuple[list[float], dict]:
        samples, env = [], {}
        for _ in range(SETUP_SAMPLES):
            res = self.child("probe", workload, str(self.seed))
            if "error" in res:
                raise RuntimeError(f"set-up probe failed: {res['error']}")
            samples.append(res["setup_s"])
            env = res["env"]
        return samples, env

    # -- units ---------------------------------------------------------------

    def unit(self, workload: str, index: int, out_dir: str, trace: bool) -> dict:
        """Run unit ``index`` in a fresh process: one CLI operation, or one
        cold pass of the identity stream.

        Returns ``attempted``, the ``latencies`` of the operations that
        completed, one line per failed operation, ``maxrss_kb`` and, when
        traced, the tracer's ``trace`` summary.
        """
        spans = os.path.join(self.spans_dir, f"{workload}-seed{self.seed}-unit{index}.tsv.gz")
        flag = "1" if trace else "0"
        if workload == "exact-identities":
            count = workloads.STREAM_OPS
            res = self.child("exact", str(self.seed), str(index * count), str(count), flag, spans)
            if "error" in res:
                return {"attempted": count, "latencies": [], "failures": [res["error"]] * count}
            return {**res, "attempted": count}
        argv, config = workloads.cli_argv(workload, self.seed, index)
        os.makedirs(out_dir, exist_ok=True)
        config_path = os.path.join(out_dir, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        res = self.child(
            "cli", flag, spans, "--", *argv, "--config", config_path, "--out", out_dir,
        )
        try:
            failure = res.get("error") or check_output(workload, index, out_dir, res)
        except (OSError, ValueError, KeyError) as exc:
            failure = f"unreadable output: {type(exc).__name__}: {exc}"
        res["attempted"] = 1
        res["latencies"] = [res["op_s"]] if "op_s" in res else []
        res["failures"] = [f"op {index}: {failure}"] if failure else []
        return res

    def units(self, workload: str, tag: str, trace: bool, count: int | None) -> list[dict]:
        """Units 0, 1, ... until ``count``, or until the time is up on a whole group."""
        results: list[dict] = []
        start = time.monotonic()
        group = workloads.GROUP[workload]
        while True:
            index = len(results)
            if count is not None and index >= count:
                break
            if count is None and index % group == 0 and time.monotonic() - start >= self.seconds:
                break
            if index > 0 and self.over_budget():
                break
            out_dir = os.path.join(self.scratch, tag, str(index))
            results.append(self.unit(workload, index, out_dir, trace))
        return results

    # -- runs --------------------------------------------------------------

    def timed(self, workload: str) -> dict:
        start = time.monotonic()
        units = self.units(workload, "timed", False, None)
        return {
            "latencies": [t for u in units for t in u["latencies"]],
            "failures": [f for u in units for f in u["failures"]],
            "wall_s": time.monotonic() - start,
            "maxrss_kb": [u["maxrss_kb"] for u in units if "maxrss_kb" in u],
            "attempted": sum(u["attempted"] for u in units),
        }

    def traced(self, workload: str) -> dict:
        count = workloads.TRACE_UNITS[workload]
        plain = self.units(workload, "untraced", False, count)
        traced = self.units(workload, "traced", True, count)
        failures = [f"untraced {f}" for u in plain for f in u["failures"]]
        failures += [f"traced {f}" for u in traced for f in u["failures"]]
        if workload != "exact-identities":
            for index in range(min(len(plain), len(traced))):
                a = os.path.join(self.scratch, "untraced", str(index))
                b = os.path.join(self.scratch, "traced", str(index))
                if not same_files(a, b):
                    failures.append(f"op {index}: output differs with tracing on")
        op_time = [sum(t for u in units for t in u["latencies"]) for units in (plain, traced)]
        summary: dict = {}
        for unit in traced:
            for key, value in unit.get("trace", {}).items():
                summary[key] = summary.get(key, 0) + value
        summary["tracing.overhead_s"] = op_time[1] - op_time[0]
        return {
            "summary": summary,
            "failures": failures,
            "attempted": sum(u["attempted"] for u in plain + traced),
            "op_time": op_time,
        }


# -- output checks ---------------------------------------------------------


def check_output(workload: str, index: int, out_dir: str, res: dict) -> str | None:
    """Return why the operation's output is wrong, or None if it is right."""
    if res.get("exit_code") != 0:
        return f"exit code {res.get('exit_code')}"
    if workload == "verify-suite":
        path = os.path.join(out_dir, "verify_report.json")
        with open(path, "rb") as fh:
            raw = fh.read()
        if not json.loads(raw)["all_passed"]:
            return "verify report has failures"
        if index % 2 == 1:
            twin = os.path.join(os.path.dirname(out_dir), str(index - 1), "verify_report.json")
            with open(twin, "rb") as fh:
                if fh.read() != raw:
                    return "verify report differs from the run with the same seed"
        return None
    if workload == "sweep-n16":
        return check_sweep(os.path.join(out_dir, "sweep.csv"))
    if workload == "evolve-compare":
        with open(os.path.join(out_dir, "evolve_meta.json"), encoding="utf-8") as fh:
            meta = json.load(fh)
        limits = {
            "max_dq_abs": 1e-5, "max_dp_abs": 1e-5,
            "classical_mass_drift": 1e-8, "quantum_trace_drift": 1e-10,
        }
        over = [k for k, tol in limits.items() if not meta[k] < tol]
        return f"beyond tolerance: {', '.join(over)}" if over else None
    raise ValueError(workload)


def check_sweep(path: str) -> str | None:
    """Criterion 7: lambda = 1 - h, and the means of the pair lie on their chord."""
    with open(path, encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines()
    cols = header.split(",")
    rows = [dict(zip(cols, line.split(","))) for line in lines]
    if len(rows) != 11:
        return f"{len(rows)} rows, expected 11"
    hs = [float(r["h"]) for r in rows]
    for r, h in zip(rows, hs):
        if abs(float(r["lambda"]) - (1.0 - h)) > 1e-15:
            return f"lambda {r['lambda']} at h={h}"
    for col in ("mean_q_tilde", "mean_p_tilde"):
        means = [float(r[col]) for r in rows]
        for h, m in zip(hs, means):
            chord = means[0] + (means[-1] - means[0]) * (h - hs[0]) / (hs[-1] - hs[0])
            if abs(m - chord) >= 1e-10:
                return f"{col} off its chord by {abs(m - chord):.3e} at h={h}"
    return None


def same_files(a: str, b: str) -> bool:
    """True when both directories hold the same outputs byte for byte."""
    names = sorted(n for n in os.listdir(a) if n != "config.json")
    if names != sorted(n for n in os.listdir(b) if n != "config.json"):
        return False
    for name in names:
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


# -- reporting -------------------------------------------------------------


def end_to_end(timed: dict, setup: list[float]) -> tuple[dict, list[str]]:
    lat, attempted, failed = timed["latencies"], timed["attempted"], len(timed["failures"])
    if not lat:
        raise RuntimeError(f"no operation completed: {timed['failures'][:3]}")
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(lat) / timed["wall_s"],
        "op_p50_s": statistics.median(lat),
        "peak_rss_mb": max(timed["maxrss_kb"]) / 1024.0,
    }
    lines = [
        f"setup_s = {values['setup_s']:.6f} s (median of {len(setup)} set-ups)",
        f"ops_per_s = {values['ops_per_s']:.6f} 1/s ({len(lat)} ops in {timed['wall_s']:.3f} s)",
        f"op_p50_s = {values['op_p50_s']:.6f} s (n={len(lat)})",
    ]
    if len(lat) >= 100:
        p90 = statistics.quantiles(lat, n=10)[-1]
        lines.append(f"op_p90_s = {p90:.6f} s (n={len(lat)})")
    else:
        lines.append(f"op_p90_s not reported: n={len(lat)} < 100")
    lines += [
        f"peak_rss_mb = {values['peak_rss_mb']:.3f} MB (max of {len(timed['maxrss_kb'])} processes)",
        f"failed_ops_ratio = {failed / attempted:.6f} ({failed}/{attempted})",
    ]
    return values, lines


def run_workload(runner: Runner, spec: dict, workload: str, trace: bool) -> dict:
    setup, env = runner.setup_samples(workload)
    print(
        f"# {workload} seed={runner.seed} seconds={runner.seconds} trace={int(trace)}"
        f" blas_threads={BLAS_THREADS} nproc={os.cpu_count()} python={env['python']}"
        f" numpy={env['numpy']} blas={env['blas']}"
    )
    if not trace:
        timed = runner.timed(workload)
        values, lines = end_to_end(timed, setup)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        attempted = timed["attempted"]
        failures = timed["failures"]
    else:
        traced = runner.traced(workload)
        summary = traced["summary"]
        metrics = {
            m["name"]: {"value": summary.get(m["name"], 0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        lines = [f"{name} = {m['value']} {m['unit']}" for name, m in metrics.items()]
        lines.append(
            f"traced operation time {traced['op_time'][1]:.6f} s, untraced"
            f" {traced['op_time'][0]:.6f} s, {traced['attempted'] // 2} ops each"
        )
        attempted = traced["attempted"]
        failures = traced["failures"]
    for line in lines:
        print(line)
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src", "qclab")
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(src, "cli.py")) or not os.path.isfile(spec_path):
        print(f"error: run from the root of a qclab checkout ({src} not found)", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    # byte-compile once, so no set-up sample pays for compilation
    compileall.compile_dir(os.path.join(root, "src"), quiet=2)
    compileall.compile_dir(BENCH_DIR, quiet=2)

    runner = Runner(root, args.seed, args.seconds)
    os.makedirs(runner.spans_dir, exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            runner.started = time.monotonic()
            results[name] = run_workload(runner, spec, name, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.scratch, ignore_errors=True)
    if args.workload == "all":
        for name, result in results.items():
            print(f"{name}: {json.dumps(result)}")
        print(json.dumps({"correct": all(r["correct"] for r in results.values())}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
