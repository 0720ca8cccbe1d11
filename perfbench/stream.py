"""One pass of a workload's request stream, closed loop, in this process.

Each request calls ``commbounds.cli.main(argv)`` in-process with stdout and
stderr captured; the next request starts only when the previous one returns.
The first request is the workload's cold probe, then comes the prelude; neither
is in the latency sample.  The pass replays ``--cycles`` cycles.  It stops
early, marked truncated, at the first cycle boundary after one and a half
times ``--seconds``, or mid-cycle after three times ``--seconds``, so a slow
program cannot overrun the run's time limit.  The last line of stdout is a
JSON record of the pass: the latency of every measured request in order, the
failures, the peak RSS and the sha256 of every argv sent.

    PYTHONPATH=src python3 perfbench/stream.py --workload plan --seed 1 --seconds 8 --cycles 2
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import sys
import time
from collections import Counter

import workloads


def run_pass(workload: str, seed: int, seconds: float, cycles: int, tracer=None) -> dict:
    cli = importlib.import_module("commbounds.cli")
    if tracer is not None:
        tracer.install()

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except Exception as e:  # the program crashed: a failed answer
                code = None
                err.write(f"{type(e).__name__}: {e}\n")
        return code, out.getvalue(), err.getvalue()

    failures = []
    tag_counts: Counter = Counter()
    sim = {"words": 0, "messages": 0, "mult_ops": 0}
    lat = []
    digest = hashlib.sha256()

    def one(req):
        digest.update(("\0".join(req.argv) + "\n").encode())
        t0 = time.perf_counter()
        if tracer is None:
            code, out, err = call(req.argv)
        else:
            code, out, err = tracer.request(req.argv, lambda: call(req.argv))
        dt = time.perf_counter() - t0
        doc = workloads.check(req.argv, code, out, err)
        if isinstance(doc, str):
            failures.append({"argv": list(req.argv), "reason": doc})
        elif req.argv[0] == "simulate":
            for k, v in workloads.simulate_counts(doc).items():
                sim[k] += v
        tag_counts.update(req.tags)
        return dt

    for req in (workloads.WORKLOADS[workload].probe, *workloads.PRELUDE):
        one(req)
    start = time.perf_counter()
    hard_stop = 3 * seconds
    done_cycles, truncated, cycle_sizes = 0, False, []
    for cycle in workloads.stream(workload, seed):
        for req in cycle:
            lat.append(one(req))
            if time.perf_counter() - start > hard_stop:
                truncated = True
                break
        if truncated:
            break
        done_cycles += 1
        cycle_sizes.append(len(cycle))
        if done_cycles >= cycles:
            break
        if time.perf_counter() - start > 1.5 * seconds:
            truncated = True
            break
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.remove()

    return dict(
        latencies_s=lat,
        cycle_sizes=cycle_sizes,
        elapsed_s=elapsed,
        stream_sha256=digest.hexdigest(),
        attempted=len(lat) + 1 + len(workloads.PRELUDE),
        failures=failures,
        cycles=done_cycles,
        truncated=truncated,
        tags=tag_counts,
        simulate=sim,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--cycles", type=int, required=True)
    ap.add_argument("--trace-out", metavar="PATH",
                    help="trace the pass and write Chrome trace-event JSON here")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace_out:
        import spans
        importlib.import_module("commbounds.cli")
        tracer = spans.Tracer()
    result = run_pass(args.workload, args.seed, args.seconds, args.cycles, tracer)
    if tracer is not None:
        totals = tracer.span_totals()
        result["trace"] = {
            "totals": totals,
            "table": tracer.self_time_table(totals),
            "counters": dict(tracer.counters),
            "triples_scanned": tracer.children_under(
                "grids.exhaustive_grid", "grids.comm_cost"),
            "spans": len(tracer.spans),
            "missing": tracer.missing,
            "chrome_events": tracer.write_chrome_trace(args.trace_out),
            "chrome_path": args.trace_out,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
