"""Benchmark of the commbounds CLI: seeded request streams, checked answers.

    python3 perfbench/run.py --workload plan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root; the program is imported from ``src/``.  A run
replays whole cycles of the workload's stream, as many as take ``--seconds``
on the reference machine.  With ``--trace 0`` it splits them into PASSES
closed-loop passes of the same requests, each in a fresh process and each
preceded by COLD_PER_PASS cold starts of ``python -m commbounds.cli`` on the
workload's probe request (``setup_s``); a request's latency is its best over
the passes.  With ``--trace 1`` it replays the cycles of two passes, in two
fresh processes, untraced and traced, and reports the per-layer metrics, the
tracing overhead and a self-time table; the spans go to ``perfbench/out/`` as
Chrome trace-event JSON.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PASSES = 3              # end-to-end passes per run; a request's latency is its best
COLD_PER_PASS = 3       # timed cold starts before each pass; setup_s is their median
RUN_LIMIT_S = 170       # every child must end inside the 180 s a run is given
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:  # one client, one thread: no BLAS or OpenMP pool
        env.setdefault(var, "1")
    return env


def git_sha() -> str:
    """HEAD of the checkout's own .git, read directly; git is never run, so
    no repository above the checkout is consulted."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def context(seed: int) -> dict:
    import numpy

    env = child_env()
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "git_sha": git_sha(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "seed": seed,
    }


_DEADLINE = time.monotonic() + RUN_LIMIT_S


def run_child(cmd: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(_DEADLINE - time.monotonic(), 1))
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped it
        raise BenchError(f"{' '.join(cmd[1:4])} ran past the {RUN_LIMIT_S} s limit") from e
    return proc, time.perf_counter() - t0


def cold_starts(workload: str, n: int, failures: list) -> list[float]:
    """n cold starts of the CLI on the probe, each timed from launch to exit."""
    probe = workloads.WORKLOADS[workload].probe
    cmd = [sys.executable, "-m", "commbounds.cli", *probe.argv]
    times = []
    for _ in range(n):
        proc, dt = run_child(cmd)
        doc = workloads.check(probe.argv, proc.returncode, proc.stdout, proc.stderr)
        if isinstance(doc, str):
            failures.append({"argv": list(probe.argv), "reason": f"cold start: {doc}"})
        times.append(dt)
    return times


def stream_pass(workload: str, seed: int, seconds: float, cycles: int, trace_out=None):
    cmd = [sys.executable, os.path.join(HERE, "stream.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--cycles", str(cycles)]
    if trace_out is not None:
        cmd += ["--trace-out", trace_out]
    proc, _ = run_child(cmd)
    if proc.returncode != 0:
        raise BenchError(f"stream pass for {workload} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def latency_summary(lat_s: list[float], cycle_sizes: list[int]) -> dict:
    """Median; the highest percentile with at least ten samples beyond it;
    and requests per second of request time, the median over whole cycles,
    which all have the same mix, so a burst of machine noise moves it less
    than a mean."""
    ordered = sorted(lat_s)
    n = len(ordered)
    tail_index = n - 11 if n >= 11 else n - 1
    rates, i = [], 0
    for size in cycle_sizes:
        rates.append(size / sum(lat_s[i:i + size]))
        i += size
    return {
        "samples": n,
        "latency_p50_ms": 1e3 * statistics.median(ordered),
        "latency_tail_ms": 1e3 * ordered[tail_index],
        "tail_percentile": round(100 * (tail_index + 1) / n, 2),
        "tail_beyond": n - 1 - tail_index,
        "throughput_rps": statistics.median(rates) if rates else n / sum(lat_s),
    }


def best_of(passes: list[dict]) -> tuple[list[float], list[int]]:
    """Each request's least latency over the passes, which replay the same
    requests; and the cycles every pass completed."""
    n = min(len(p["latencies_s"]) for p in passes)
    best = [min(p["latencies_s"][i] for p in passes) for i in range(n)]
    return best, min((p["cycle_sizes"] for p in passes), key=len)


def shares(res: dict) -> dict:
    tags, n = res["tags"], max(len(res["latencies_s"]), 1)
    return {
        "hc_share": tags.get("hc", 0) / n,
        "tiny_repeat_share": tags.get("repeat", 0) / max(tags.get("tiny", 0), 1),
    }


# ---------------------------------------------------------------- metrics


def end_to_end(summary: dict, setup_s: float, peak_rss_mb: float) -> dict:
    return {
        "latency_p50_ms": (summary["latency_p50_ms"], "ms"),
        "latency_tail_ms": (summary["latency_tail_ms"], "ms"),
        "throughput_rps": (summary["throughput_rps"], "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    tr = traced["trace"]

    def get(name, key):
        return tr["totals"].get(name, {}).get(key, 0)

    plans = get("grids.exhaustive_grid", "calls")
    tiny_calls = get("projections.subset_stats", "calls")
    compute_ms = get("simulate.run_algorithm", "self_ms")
    sim = traced["simulate"]
    m = {}
    for name, key, unit in (
        ("cli.main", "calls", "count"),
        ("cli.main", "self_ms", "ms"),
        ("cli.build_parser", "busy_ms", "ms"),
        ("exact.decimal_str", "calls", "count"),
        ("exact.decimal_str", "busy_ms", "ms"),
        ("exact.roots", "calls", "count"),
        ("exact.roots", "busy_ms", "ms"),
        ("bounds.lower_bound", "calls", "count"),
        ("bounds.lower_bound", "busy_ms", "ms"),
        ("bounds.bound_dominance", "busy_ms", "ms"),
        ("grids.exhaustive_grid", "calls", "count"),
        ("grids.exhaustive_grid", "busy_ms", "ms"),
        ("grids.factor_triples", "busy_ms", "ms"),
        ("grids.comm_cost", "calls", "count"),
        ("grids.comm_cost", "busy_ms", "ms"),
        ("grids.analytic_grid", "busy_ms", "ms"),
        ("kkt.analytic_solution", "busy_ms", "ms"),
        ("kkt.kkt_verify", "busy_ms", "ms"),
        ("kkt.numeric_minimize_oracle", "busy_ms", "ms"),
        ("kkt.quasiconvexity_check", "busy_ms", "ms"),
        ("projections.subset_stats", "calls", "count"),
        ("projections.subset_stats", "busy_ms", "ms"),
        ("projections.min_projection_sum", "busy_ms", "ms"),
        ("simulate.run_algorithm", "calls", "count"),
        ("simulate.run_algorithm", "busy_ms", "ms"),
        ("simulate.build_machine", "busy_ms", "ms"),
        ("simulate.ring_all_gather", "calls", "count"),
        ("simulate.ring_all_gather", "busy_ms", "ms"),
        ("simulate.ring_reduce_scatter", "calls", "count"),
        ("simulate.ring_reduce_scatter", "busy_ms", "ms"),
        ("simulate.compare_to_prediction", "busy_ms", "ms"),
    ):
        m[f"{name}.{key}"] = (get(name, key), unit)
    m.update({
        # plans returned per factor triple costed inside exhaustive_grid
        "grids.plans_per_triple": (plans / tr["triples_scanned"]
                                   if tr["triples_scanned"] else 0.0, "ratio"),
        "kkt.quasiconvexity_check.pairs": (tr["counters"].get("quasiconvexity.pairs", 0), "count"),
        "projections.subset_stats.repeat_ratio": (
            tr["counters"].get("subset_stats.repeats", 0) / tiny_calls if tiny_calls else 0.0,
            "ratio"),
        # run_algorithm minus distribution, collectives and comm_cost
        "simulate.compute_check.self_ms": (compute_ms, "ms"),
        "simulate.words_moved": (sim["words"], "words"),
        "simulate.messages": (sim["messages"], "count"),
        "simulate.mult_ops": (sim["mult_ops"], "ops"),
        "simulate.compute_check.gops": (
            sim["mult_ops"] / compute_ms / 1e6 if compute_ms else 0.0, "Gop/s"),
        "trace.overhead_ratio": (traced["elapsed_s"] / untraced["elapsed_s"], "ratio"),
        "trace.spans": (tr["spans"], "count"),
    })
    return m


def declared_metrics(trace: bool) -> dict | None:
    """Names and units BENCHMARK.json declares for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------- one workload


def fmt_metrics(metrics: dict) -> str:
    return "\n".join(f"  {name:<44} {value:>16.6g} {unit}"
                     for name, (value, unit) in metrics.items())


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    w = workloads.WORKLOADS[workload]
    print(f"== {workload} (seed {seed}): {w.why}")
    n_passes = 2 if trace else PASSES
    n_cycles = w.cycles_for(seconds / n_passes)
    ctx = {"workload": workload}
    failures = []
    if not trace:
        cold_starts(workload, 1, failures)  # untimed: fills the bytecode cache
        setup_runs, passes = [], []
        for _ in range(n_passes):  # cold starts spread over the run, not bunched
            setup_runs += cold_starts(workload, COLD_PER_PASS, failures)
            passes.append(stream_pass(workload, seed, seconds / n_passes, n_cycles))
        best, cycle_sizes = best_of(passes)
        summary = latency_summary(best, cycle_sizes)
        metrics = end_to_end(summary, statistics.median(setup_runs),
                             max(p["peak_rss_mb"] for p in passes))
        attempted = 1 + len(setup_runs) + sum(p["attempted"] for p in passes)
        failures += [f for p in passes for f in p["failures"]]
        ctx.update(stream_sha256=sorted({p["stream_sha256"] for p in passes}),
                   requests=passes[0]["attempted"], passes=n_passes,
                   cycles=len(cycle_sizes), truncated=any(p["truncated"] for p in passes),
                   tail_percentile=summary["tail_percentile"],
                   latency_samples=summary["samples"], setup_runs_s=setup_runs,
                   **shares(passes[0]))
        pass_s = ", ".join(f"{p['elapsed_s']:.2f}" for p in passes)
        print(f"  closed loop, 1 client: {summary['samples']} timed requests per pass, "
              f"{len(cycle_sizes)} cycles, best of {n_passes} fresh passes "
              f"({pass_s} s); tail is "
              f"p{summary['tail_percentile']} with {summary['tail_beyond']} samples beyond")
    else:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
        untraced = stream_pass(workload, seed, seconds / n_passes, n_cycles)
        traced = stream_pass(workload, seed, seconds / n_passes, n_cycles, trace_out=path)
        metrics = per_layer(traced, untraced)
        attempted = untraced["attempted"] + traced["attempted"]
        failures = untraced["failures"] + traced["failures"]
        tr = traced["trace"]
        ctx.update(stream_sha256=sorted({untraced["stream_sha256"], traced["stream_sha256"]}),
                   requests=traced["attempted"], cycles=traced["cycles"],
                   truncated=traced["truncated"] or untraced["truncated"],
                   chrome_trace=os.path.relpath(path, ROOT),
                   chrome_events=tr["chrome_events"], untraced_targets=tr["missing"],
                   **shares(traced))
        print(tr["table"])
        u, t = (latency_summary(r["latencies_s"], r["cycle_sizes"]) for r in (untraced, traced))
        print("  tracing overhead (same requests, traced minus untraced): "
              f"wall {traced['elapsed_s'] - untraced['elapsed_s']:+.3f} s "
              f"({100 * (traced['elapsed_s'] / untraced['elapsed_s'] - 1):+.1f}%), "
              f"p50 {t['latency_p50_ms'] - u['latency_p50_ms']:+.3f} ms, "
              f"tail {t['latency_tail_ms'] - u['latency_tail_ms']:+.3f} ms, "
              f"throughput {t['throughput_rps'] - u['throughput_rps']:+.3f} 1/s")
        print(f"  spans: {tr['spans']}, Chrome trace: {ctx['chrome_trace']}")
    failed_ratio = len(failures) / attempted
    print(fmt_metrics(metrics))
    print(f"  {'failed_ratio':<44} {failed_ratio:>16.6g} ratio ({len(failures)} of {attempted})")
    for f in failures:
        print(f"  FAILED {' '.join(f['argv'])}: {f['reason']}")
    print("context " + json.dumps(ctx))
    return {"attempted": attempted, "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "commbounds", "cli.py")):
        print(f"error: no program to measure: {SRC}/commbounds/cli.py is missing",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    print("context " + json.dumps(context(args.seed)))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args.seed, args.seconds, trace) for w in names}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    declared = declared_metrics(trace)
    for w, r in results.items():
        got = {name: unit for name, (_, unit) in r["metrics"].items()}
        if declared is not None and any(got.get(n) != u for n, u in declared.items()):
            print(f"error: {w} reports {sorted(got.items())}, BENCHMARK.json declares "
                  f"{sorted(declared.items())}", file=sys.stderr)
            return 1
    # The result line holds the declared metrics; the report above has them all.
    prefix = len(results) > 1
    metrics = {
        (f"{w}/{name}" if prefix else name): {"value": value, "unit": unit}
        for w, r in results.items() for name, (value, unit) in r["metrics"].items()
        if declared is None or name in declared
    }
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
