"""Outside-in tracing: wrap each layer's public functions at their import sites.

Every binding of a target function in a loaded ``commbounds`` module is
replaced by one wrapper, so calls are caught whether they come from the CLI,
from another layer or from inside the defining module.  A span records its
name, start, end, parent span and request id; spans stay in memory and are
written out when the run ends.  A target that a later version of the program
no longer defines is skipped and listed, never an error.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (defining module, function, span name).  Functions sharing a span name are
# one group: a span nested inside a span of the same name is not counted
# again in calls or busy time.
TARGETS = (
    ("commbounds.cli", "main", "cli.main"),
    ("commbounds.cli", "build_parser", "cli.build_parser"),
    ("commbounds.exact", "decimal_str", "exact.decimal_str"),
    ("commbounds.exact", "root_value", "exact.roots"),
    ("commbounds.exact", "sqrt_value", "exact.roots"),
    ("commbounds.exact", "pow23", "exact.roots"),
    ("commbounds.exact", "nth_root_exact", "exact.roots"),
    ("commbounds.bounds", "lower_bound", "bounds.lower_bound"),
    ("commbounds.bounds", "bound_dominance", "bounds.bound_dominance"),
    ("commbounds.grids", "exhaustive_grid", "grids.exhaustive_grid"),
    ("commbounds.grids", "factor_triples", "grids.factor_triples"),
    ("commbounds.grids", "comm_cost", "grids.comm_cost"),
    ("commbounds.grids", "analytic_grid", "grids.analytic_grid"),
    ("commbounds.kkt", "analytic_solution", "kkt.analytic_solution"),
    ("commbounds.kkt", "kkt_verify", "kkt.kkt_verify"),
    ("commbounds.kkt", "numeric_minimize_oracle", "kkt.numeric_minimize_oracle"),
    ("commbounds.kkt", "quasiconvexity_check", "kkt.quasiconvexity_check"),
    ("commbounds.projections", "subset_stats", "projections.subset_stats"),
    ("commbounds.projections", "min_projection_sum", "projections.min_projection_sum"),
    ("commbounds.simulate", "run_algorithm", "simulate.run_algorithm"),
    ("commbounds.simulate", "build_machine", "simulate.build_machine"),
    ("commbounds.simulate", "ring_all_gather", "simulate.ring_all_gather"),
    ("commbounds.simulate", "ring_reduce_scatter", "simulate.ring_reduce_scatter"),
    ("commbounds.simulate", "compare_to_prediction", "simulate.compare_to_prediction"),
)
REQUEST = "request"
LAYERS = (REQUEST, "cli", "exact", "bounds", "grids", "kkt", "projections", "simulate")
CHROME_EVENT_CAP = 100_000


class Tracer:
    """Spans and counters of one traced run; ``install`` patches, ``remove``
    restores every patched binding."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one (name id, start ns, end ns, parent index, request id) per span;
        # None while the span is open
        self.spans: list = []
        self.stack: list[int] = []
        self.request_id = -1
        self.request_argv: list[tuple[str, ...]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._tiny_seen: set = set()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str, observe=None):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.request_id)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _observe_subset_stats(self, args, kwargs, result):
        dims = tuple(int(d) for d in (args[0] if args else kwargs["dims"]))
        self.counters["subset_stats.repeats"] += dims in self._tiny_seen
        self._tiny_seen.add(dims)

    def _observe_quasiconvexity(self, args, kwargs, result):
        self.counters["quasiconvexity.pairs"] += int(getattr(result, "checked", 0))

    def install(self) -> None:
        observers = {
            "projections.subset_stats": self._observe_subset_stats,
            "kkt.quasiconvexity_check": self._observe_quasiconvexity,
        }
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "commbounds" or n.startswith("commbounds."))]
        for mod_name, fn_name, span in TARGETS:
            fn = getattr(importlib.import_module(mod_name), fn_name, None)
            if not callable(fn):
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapped = self._wrap(fn, span, observers.get(span))
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapped)

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def request(self, argv, call):
        """Run call() as request number len(request_argv), under a root span."""
        self.request_id = len(self.request_argv)
        self.request_argv.append(tuple(argv))
        return self._wrap(call, REQUEST)()

    # ------------------------------------------------------------ analysis

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and busy ms over outermost spans of the name,
        and self ms (duration minus direct children) over all of them."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for nid, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out = {n: {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0} for n in self.names}
        for i, (nid, t0, t1, parent, _) in enumerate(spans):
            row = out[self.names[nid]]
            row["self_ms"] += (t1 - t0 - child_ns[i]) / 1e6
            p = parent
            while p >= 0 and spans[p][0] != nid:
                p = spans[p][3]
            if p < 0:
                row["calls"] += 1
                row["busy_ms"] += (t1 - t0) / 1e6
        return out

    def children_under(self, parent_name: str, child_name: str) -> int:
        """Spans named child_name whose direct parent is named parent_name."""
        pid, cid = self._name_ids.get(parent_name), self._name_ids.get(child_name)
        return sum(1 for nid, _, _, parent, _ in self.spans
                   if nid == cid and parent >= 0 and self.spans[parent][0] == pid)

    def self_time_table(self, totals) -> str:
        req_ms = totals.get(REQUEST, {}).get("busy_ms", 0.0) or 1.0
        rows = sorted(totals.items(), key=lambda kv: -kv[1]["self_ms"])
        lines = [f"{'span':<34}{'calls':>9}{'busy_ms':>12}{'self_ms':>12}{'self%':>8}"]
        for name, t in rows:
            lines.append(f"{name:<34}{t['calls']:>9}{t['busy_ms']:>12.1f}"
                         f"{t['self_ms']:>12.1f}{100 * t['self_ms'] / req_ms:>8.1f}")
        return "\n".join(lines)

    def write_chrome_trace(self, path: str) -> int:
        """Chrome trace-event JSON, one track per layer; Perfetto and
        chrome://tracing open it offline.  Returns the events written."""
        tids = {layer: i for i, layer in enumerate(LAYERS)}
        events = [
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": tid, "args": {"name": layer}}
            for layer, tid in tids.items()
        ]
        base = min((s[1] for s in self.spans), default=0)
        written = 0
        for nid, t0, t1, _, rid in self.spans:
            if written >= CHROME_EVENT_CAP:
                break
            name = self.names[nid]
            layer = name.split(".", 1)[0]
            args = {"request": rid}
            if name == REQUEST:
                args["argv"] = " ".join(self.request_argv[rid])
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1,
                "tid": tids.get(layer, len(LAYERS)),
                "ts": (t0 - base) / 1e3, "dur": (t1 - t0) / 1e3, "args": args,
            })
            written += 1
        doc = {"traceEvents": events, "displayTimeUnit": "ms",
               "otherData": {"spans": len(self.spans), "exported": written}}
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return written
