"""Per-layer tracing from outside the program.

The tracer wraps public functions of optpipe's modules, records one span per
call (name, start, end, parent span) in memory, and counts what each layer
did.  A hook whose target no longer exists is skipped, and the metrics that
need it are reported as absent, so refactors of internal layers cannot
break the benchmark.  The spans are written out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

import checkers

# (module, attribute, span name); "Class.method" patches the class.
HOOKS = [
    ("optpipe.cli", "run_cell", "cli.run_cell"),
    ("optpipe.rsa", "select_cba", "rsa.select_cba"),
    ("optpipe.rsa", "select_ksp_ff", "rsa.select_ksp_ff"),
    ("optpipe.rsa", "select_sd_ff", "rsa.select_sd_ff"),
    ("optpipe.topology", "advance_network", "topology.advance_network"),
    ("optpipe.topology", "allocate_spectrum", "topology.allocate_spectrum"),
    ("optpipe.topology", "audit_occupancy", "topology.audit_occupancy"),
    ("optpipe.engine", "simulate_iteration", "engine.simulate_iteration"),
    ("optpipe.engine", "Timeline.event_log_lines", "engine.event_log_lines"),
    ("optpipe.engine", "audit_event_log", "engine.audit_event_log"),
    ("optpipe.cba", "label_cb_tasks", "cba.label_cb_tasks"),
    ("optpipe.cba", "verify_label_soundness", "cba.verify_label_soundness"),
    ("optpipe.cba", "plan_requests", "cba.plan_requests"),
    ("optpipe.workload", "build_schedule", "workload.build_schedule"),
]

SELECTORS = {"rsa.select_cba": "cba", "rsa.select_ksp_ff": "ksp_ff", "rsa.select_sd_ff": "sd_ff"}
SPOT_CHECK_EVERY = 128


class Tracer:
    def __init__(self, catalog: checkers.PathCatalog):
        self.catalog = catalog
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.sp_name = array("H")
        self.sp_start = array("q")
        self.sp_end = array("q")
        self.sp_parent = array("q")
        self._stack: list[int] = []
        self._child: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.bench_ns = 0            # time spent in the tracer's own callbacks
        self.counts: dict[str, float] = defaultdict(float)
        self.values: dict[str, list[float]] = defaultdict(list)
        self.policy = ""             # policy of the run in progress
        self.problems: list[str] = []  # spot-check findings of the run in progress
        self.installed: set[str] = set()
        self.missing: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}

    # ------------------------------------------------------------------
    # hooks

    def install(self) -> None:
        """Patch every hook target; a target that no longer exists is recorded as missing."""
        for mod_name, attr, span in HOOKS:
            try:
                mod = importlib.import_module(mod_name)
                owner, leaf = mod, attr
                if "." in attr:
                    cls_name, leaf = attr.split(".")
                    owner = getattr(mod, cls_name)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.add(span)
                continue
            if span not in self._wrappers:
                self._wrappers[span] = self._wrap(span, original)
            wrapper = self._wrappers[span]
            if owner is mod:
                # patch every optpipe namespace that imported the function by name
                for m in list(sys.modules.values()):
                    if getattr(m, "__name__", "").startswith("optpipe"):
                        for name, val in list(vars(m).items()):
                            if val is original:
                                self._patches.append((m, name, original))
                                setattr(m, name, wrapper)
            else:
                self._patches.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
            self.installed.add(span)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap(self, span: str, fn):
        nid = self._name_ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        if span in SELECTORS:
            after = functools.partial(self._after_selection, SELECTORS[span], span)
        else:
            after = getattr(self, "_after_" + span.replace(".", "_"), None)
        sig = inspect.signature(fn)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(self.sp_start)
            parent = self._stack[-1] if self._stack else -1
            self.sp_name.append(nid)
            self.sp_parent.append(parent)
            self.sp_start.append(0)
            self.sp_end.append(0)
            self._stack.append(idx)
            self._child.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                child = self._child.pop()
                dur = t1 - t0
                self.sp_start[idx] = t0
                self.sp_end[idx] = t1
                self.calls[span] += 1
                self.total_ns[span] += dur
                self.self_ns[span] += dur - child
                if self._child:
                    self._child[-1] += dur
            if after is not None:
                c0 = clock()
                after(sig, args, kwargs, result, dur, parent)
                spent = clock() - c0
                self.bench_ns += spent
                if self._child:
                    self._child[-1] += spent
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # per-call observations

    def _after_selection(self, policy, span, sig, args, kwargs, result, dur, parent):
        """Count first-fit candidates; spot-check every SPOT_CHECK_EVERY-th call."""
        if policy != "cba":
            self.counts["ff_examined"] += getattr(result, "candidates_examined", 0)
            self.counts["ff_calls"] += 1
        if self.calls[span] % SPOT_CHECK_EVERY:
            return
        try:
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            a = b.arguments
            net = a["net"]
            occupancy = {frozenset((l.a, l.b)): l.occupancy for l in net.links}
            params = a.get("params")
            path = getattr(result, "path", None)
            chosen = None
            if path is not None:
                chosen = (tuple(path.nodes), result.block.f_start, result.block.f_end)
            problems = checkers.check_selection(
                self.catalog, occupancy, policy, a["src"], a["dst"], a["width"], a["k"],
                getattr(params, "prop_s_per_km", 0.0), getattr(params, "per_hop_overhead_s", 0.0),
                chosen,
            )
        except (KeyError, TypeError, AttributeError):
            self.counts["spot_checks_skipped"] += 1
            return
        self.counts["spot_checks"] += 1
        self.problems += problems

    def _after_topology_advance_network(self, sig, args, kwargs, result, dur, parent):
        self.counts["advance_changes"] += result or 0
        if parent >= 0 and self.names[self.sp_name[parent]] == "cli.run_cell":
            self.values["prewarm_ns"].append(dur)

    def _after_engine_simulate_iteration(self, sig, args, kwargs, result, dur, parent):
        self.counts["tasks"] += len(getattr(result, "tasks", ()))

    def _after_cba_plan_requests(self, sig, args, kwargs, result, dur, parent):
        self.values["boost"].append(float(result[1]))

    def _after_cba_label_cb_tasks(self, sig, args, kwargs, result, dur, parent):
        if self.policy == "cba":
            self.counts["cb_labels"] += len(getattr(result, "cb_tasks", ()))

    # ------------------------------------------------------------------
    # output

    def write(self, path: str) -> None:
        """All spans: name index, start and end (ns), parent span index (-1: root)."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.sp_name, dtype=np.uint16),
            start_ns=np.frombuffer(self.sp_start, dtype=np.int64),
            end_ns=np.frombuffer(self.sp_end, dtype=np.int64),
            parent=np.frombuffer(self.sp_parent, dtype=np.int64),
        )

    def layer_metrics(self, log_stats: dict[str, checkers.LogStats], blocked: dict[str, int],
                      cell_seconds: list[float], cli_wall_s: float, jobs: int,
                      untraced_s: float, traced_s: float) -> dict[str, float | None]:
        """The per-layer metrics; None where a needed hook is missing."""
        have = self.installed
        root_ns = self.total_ns["cli.run_cell"] - self.bench_ns

        def need(*spans):
            return all(s in have for s in spans)

        def us(span):
            return self.total_ns[span] / self.calls[span] / 1e3 if self.calls[span] else 0.0

        def share(ns):
            return ns / root_ns if root_ns > 0 else 0.0

        def mean(vals):
            return statistics.fmean(vals) if vals else 0.0

        out: dict[str, float | None] = {}

        def put(name, spans, value):
            out[name] = value() if need(*spans) else None

        sel = list(SELECTORS)
        for span, pol in SELECTORS.items():
            put(f"rsa.{span.split('.')[1]}.us_per_call", [span], lambda s=span: us(s))
        for span, pol in SELECTORS.items():
            put(f"rsa.select.calls.{pol}", [span], lambda s=span: self.calls[s])
        put("rsa.select.share", ["cli.run_cell", *sel],
            lambda: share(sum(self.total_ns[s] for s in sel)))
        for pol in SELECTORS.values():
            out[f"rsa.blocked_requests.{pol}"] = blocked.get(pol, 0)
        for pol in SELECTORS.values():
            out[f"rsa.retries.{pol}"] = log_stats[pol].retries if pol in log_stats else None
        put("rsa.ff_candidates_examined.mean", ["rsa.select_ksp_ff", "rsa.select_sd_ff"],
            lambda: self.counts["ff_examined"] / max(self.counts["ff_calls"], 1))

        adv = "topology.advance_network"
        put("topology.advance_network.us_per_call", [adv], lambda: us(adv))
        put("topology.advance_network.calls", [adv], lambda: self.calls[adv])
        put("topology.advance_network.changes", [adv], lambda: int(self.counts["advance_changes"]))
        put("topology.advance_network.share", ["cli.run_cell", adv],
            lambda: share(self.total_ns[adv]))
        put("topology.prewarm_s", ["cli.run_cell", adv],
            lambda: mean(self.values["prewarm_ns"]) / 1e9)
        alloc = "topology.allocate_spectrum"
        put("topology.allocate_spectrum.us_per_call", [alloc], lambda: us(alloc))
        put("topology.allocate_spectrum.calls", [alloc], lambda: self.calls[alloc])
        put("topology.audit_occupancy.us_per_call", ["topology.audit_occupancy"],
            lambda: us("topology.audit_occupancy"))

        sim = "engine.simulate_iteration"
        put("engine.event_loop.self_share", ["cli.run_cell", sim, *sel, adv, alloc],
            lambda: share(self.self_ns[sim]))
        put("engine.event_log_lines.us_per_call", ["engine.event_log_lines"],
            lambda: us("engine.event_log_lines"))
        put("engine.audit_event_log.us_per_call", ["engine.audit_event_log"],
            lambda: us("engine.audit_event_log"))
        put("engine.tasks", [sim], lambda: int(self.counts["tasks"]))

        for pol in SELECTORS.values():
            st = log_stats.get(pol)
            out[f"latency.xfer_ms.{pol}"] = (
                1e3 * st.hold_s / st.optical_xfers if st and st.optical_xfers else None)
        for pol in SELECTORS.values():
            out[f"latency.fallbacks.{pol}"] = log_stats[pol].fallbacks if pol in log_stats else None

        put("cba.label_cb_tasks.us_per_call", ["cba.label_cb_tasks"],
            lambda: us("cba.label_cb_tasks"))
        put("cba.verify_label_soundness.us_per_call", ["cba.verify_label_soundness"],
            lambda: us("cba.verify_label_soundness"))
        put("cba.cb_labels", ["cba.label_cb_tasks"], lambda: int(self.counts["cb_labels"]))
        put("cba.boost.mean", ["cba.plan_requests"], lambda: mean(self.values["boost"]))

        put("workload.build_schedule.us_per_call", ["workload.build_schedule"],
            lambda: us("workload.build_schedule"))

        out["cli.run_cell.s"] = statistics.median(cell_seconds)
        out["cli.pool_efficiency"] = sum(cell_seconds) / (jobs * cli_wall_s)
        out["bench.trace_overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
        return out
