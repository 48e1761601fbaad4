"""Independent checks of optpipe's outputs.

Nothing here calls the simulator.  The checks rebuild what they need from
the documented interfaces: the CSV columns, the event-log format, the
bundled topology file, the documented config defaults, the model presets,
and the schedule rules in the ``workload`` module docstring.  Every check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

RESULT_COLUMNS = [
    "policy", "model", "schedule", "microbatches", "seed", "iteration",
    "runtime_s", "bubble_ratio", "requests", "blocked", "blocking_prob",
]

# Documented defaults (README "Configuration") of the keys the checks use.
DEFAULTS = {
    "pp.stages": 8,
    "topology.fs_total": 80,
    "fs.max": 16,
    "rsa.k": 5,
    "cba.n_iterations": 11,
    "latency.prop_s_per_km": 5.0e-6,
    "latency.per_hop_overhead_s": 1.0e-4,
    "latency.fs_rate_bps": 7.5e10,
    "latency.intra_dc_latency_s": 5.0e-5,
    "latency.intra_dc_rate_bps": 4.0e11,
}

# Model presets: (layers, forward s per layer, backward s per layer, message bytes).
PROFILES = {
    "llama3-8b-like": (32, 2e-3, 4e-3, 16 * 1024 * 1024),
    "llama3-70b-like": (80, 6e-3, 12e-3, 32 * 1024 * 1024),
}

REL_TOL = 1e-9
ABS_TOL = 1e-12


def settings(flat: dict) -> dict:
    out = dict(DEFAULTS)
    out.update({k: flat[k] for k in DEFAULTS if k in flat})
    return out


# ----------------------------------------------------------------------
# topology and brute-force paths


class PathCatalog:
    """Every simple path of the topology, by brute force, in KSP order.

    KSP order is (length_km, hop count, node sequence); lengths are summed
    link by link from the source.
    """

    def __init__(self, nodes: list[str], links: list[tuple[str, str, float]]):
        self.nodes = list(nodes)
        self.adj: dict[str, dict[str, float]] = {n: {} for n in nodes}
        for a, b, km in links:
            self.adj[a][b] = km
            self.adj[b][a] = km
        self._paths: dict[tuple[str, str], list[tuple[float, int, tuple[str, ...]]]] = {}

    @classmethod
    def from_file(cls, path: str) -> "PathCatalog":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls(doc["nodes"], [(l["a"], l["b"], float(l["length_km"])) for l in doc["links"]])

    def all_paths(self, src: str, dst: str) -> list[tuple[float, int, tuple[str, ...]]]:
        key = (src, dst)
        if key not in self._paths:
            found = []
            stack = [(src, (src,), 0.0)]
            while stack:
                node, seen, length = stack.pop()
                if node == dst:
                    found.append((length, len(seen) - 1, seen))
                    continue
                for nbr, km in self.adj[node].items():
                    if nbr not in seen:
                        stack.append((nbr, seen + (nbr,), length + km))
            found.sort()
            self._paths[key] = found
        return self._paths[key]

    def k_shortest(self, src: str, dst: str, k: int) -> list[tuple[float, int, tuple[str, ...]]]:
        return self.all_paths(src, dst)[:k]

    def min_alpha(self, src: str, dst: str, s: dict) -> float:
        return min(length * s["latency.prop_s_per_km"] + hops * s["latency.per_hop_overhead_s"]
                   for length, hops, _ in self.all_paths(src, dst))

    def is_path(self, nodes: list[str]) -> bool:
        return len(set(nodes)) == len(nodes) and all(
            b in self.adj.get(a, {}) for a, b in zip(nodes, nodes[1:]))


def min_transfer_s(cat: PathCatalog, src: str, dst: str, bits: float, s: dict) -> float:
    """Fastest possible delivery: intra-DC, or shortest propagation at fs.max slots."""
    if src == dst:
        return s["latency.intra_dc_latency_s"] + bits / s["latency.intra_dc_rate_bps"]
    return cat.min_alpha(src, dst, s) + bits / (s["fs.max"] * s["latency.fs_rate_bps"])


# ----------------------------------------------------------------------
# schedule (documented rules of the ``workload`` module)


@dataclass(frozen=True)
class TaskSpec:
    stage: int
    microbatch: int
    direction: str          # F | B
    compute_s: float
    chain_pred: int | None
    msg_pred: int | None


def build_tasks(model: str, schedule: str, m: int, p: int) -> list[TaskSpec]:
    """Task ids stage by stage in schedule order; 2*p*m tasks."""
    n_layers, fwd, bwd, _ = PROFILES[model]
    base, extra = divmod(n_layers, p)
    raw = []
    for s in range(p):
        n = base + (1 if s < extra else 0)
        if schedule == "gpipe":
            order = [("F", i) for i in range(m)] + [("B", i) for i in reversed(range(m))]
        else:
            warm = min(m, p - 1 - s)
            order = [("F", i) for i in range(warm)]
            for i in range(m - warm):
                order += [("F", warm + i), ("B", i)]
            order += [("B", i) for i in range(m - warm, m)]
        for pos, (d, mb) in enumerate(order):
            raw.append((s, mb, d, n * (fwd if d == "F" else bwd), pos))
    ids = {(s, d, mb): i for i, (s, mb, d, _, _) in enumerate(raw)}
    tasks = []
    for i, (s, mb, d, comp, pos) in enumerate(raw):
        chain = i - 1 if pos > 0 else None
        if d == "F":
            msg = ids[(s - 1, "F", mb)] if s > 0 else None
        else:
            msg = ids[(s + 1, "B", mb)] if s < p - 1 else None
        tasks.append(TaskSpec(s, mb, d, comp, chain, msg))
    return tasks


@dataclass
class Cell:
    """What the checks need to know about one (model, schedule, m, seed) cell."""

    model: str
    schedule: str
    m: int
    stage_dcs: list[str]
    s: dict
    cat: PathCatalog

    def __post_init__(self) -> None:
        p = self.s["pp.stages"]
        self.tasks = build_tasks(self.model, self.schedule, self.m, p)
        self.bits = PROFILES[self.model][3] * 8.0
        self.cross = sum(1 for a, b in zip(self.stage_dcs, self.stage_dcs[1:]) if a != b)
        self.busy = math.fsum(t.compute_s for t in self.tasks)
        self.min_xfer = {}
        for t in self.tasks:
            if t.msg_pred is not None:
                a = self.stage_dcs[self.tasks[t.msg_pred].stage]
                b = self.stage_dcs[t.stage]
                if (a, b) not in self.min_xfer:
                    self.min_xfer[(a, b)] = min_transfer_s(self.cat, a, b, self.bits, self.s)

    @property
    def requests(self) -> int:
        return 2 * self.m * self.cross

    def xfer_bound(self, consumer: int) -> float:
        t = self.tasks[consumer]
        return self.min_xfer[(self.stage_dcs[self.tasks[t.msg_pred].stage],
                              self.stage_dcs[t.stage])]

    def makespan_bound(self) -> float:
        """Longest path: compute times plus each message's minimum transfer."""
        n = len(self.tasks)
        succ: list[list[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for i, t in enumerate(self.tasks):
            for d in (t.chain_pred, t.msg_pred):
                if d is not None:
                    succ[d].append(i)
                    indeg[i] += 1
        start = [0.0] * n
        finish = [0.0] * n
        ready = [i for i in range(n) if indeg[i] == 0]
        done = 0
        while ready:
            i = ready.pop()
            t = self.tasks[i]
            st = 0.0
            if t.chain_pred is not None:
                st = max(st, finish[t.chain_pred])
            if t.msg_pred is not None:
                st = max(st, finish[t.msg_pred] + self.xfer_bound(i))
            start[i] = st
            finish[i] = st + t.compute_s
            done += 1
            for j in succ[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    ready.append(j)
        if done != n:
            raise ValueError("schedule has a cycle")
        return max(finish)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


# ----------------------------------------------------------------------
# CSV rows


def split_groups(text: str) -> tuple[list[str], dict[tuple, list[str]]]:
    """Header and raw CSV lines grouped by (policy, model, schedule, m, seed)."""
    lines = text.splitlines()
    header = next(csv.reader([lines[0]])) if lines else []
    groups: dict[tuple, list[str]] = {}
    for line in lines[1:]:
        fields = next(csv.reader([line]))
        groups.setdefault(tuple(fields[:5]), []).append(line)
    return header, groups


def format_rows(rows: list[list]) -> list[str]:
    """Rows as the CLI's CSV writer prints them."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().splitlines()


def check_rows(lines: list[str], cell: Cell) -> list[str]:
    """Check one (policy, cell) group of measured CSV rows."""
    problems = []
    n_iter = cell.s["cba.n_iterations"]
    p = cell.s["pp.stages"]
    bound = cell.makespan_bound()
    rows = [dict(zip(RESULT_COLUMNS, next(csv.reader([l])))) for l in lines]
    its = [int(r["iteration"]) for r in rows]
    if its != list(range(1, n_iter)):
        problems.append(f"measured iterations {its} != 1..{n_iter - 1}")
    for r in rows:
        tag = f"{r['policy']} {r['model']} {r['schedule']} m={r['microbatches']} it={r['iteration']}"
        runtime, bubble = float(r["runtime_s"]), float(r["bubble_ratio"])
        req, blk, prob = int(r["requests"]), int(r["blocked"]), float(r["blocking_prob"])
        if req != cell.requests:
            problems.append(f"{tag}: requests {req} != 2*m*{cell.cross} = {cell.requests}")
        if not runtime > 0:
            problems.append(f"{tag}: runtime_s {runtime} not positive")
        if not 0 <= bubble < 1:
            problems.append(f"{tag}: bubble_ratio {bubble} outside [0, 1)")
        if not 0 <= blk <= req:
            problems.append(f"{tag}: blocked {blk} outside [0, requests={req}]")
        if runtime < bound * (1 - REL_TOL) - ABS_TOL:
            problems.append(f"{tag}: runtime_s {runtime!r} below the longest-path bound {bound!r}")
        if runtime > 0 and not _close(bubble, 1.0 - cell.busy / (p * runtime)):
            problems.append(f"{tag}: bubble_ratio {bubble!r} != 1 - busy/(p*runtime)")
        if not _close(prob, blk / req if req else 0.0):
            problems.append(f"{tag}: blocking_prob {prob!r} != blocked/requests")
    return problems


# ----------------------------------------------------------------------
# event log


@dataclass
class LogStats:
    """Simulated transfer facts of the measured iterations of one run."""

    optical_xfers: int = 0
    hold_s: float = 0.0          # summed hold-to-complete time of optical transfers
    fallbacks: int = 0
    retries: int = 0
    blocked: int = 0

    def add(self, other: "LogStats") -> None:
        self.optical_xfers += other.optical_xfers
        self.hold_s += other.hold_s
        self.fallbacks += other.fallbacks
        self.retries += other.retries
        self.blocked += other.blocked


def check_event_log(lines: list[str], cell: Cell,
                    rows: list[str] | None = None) -> tuple[list[str], LogStats]:
    """Check the event log of one (policy, cell) run, iteration by iteration.

    ``rows`` (the run's CSV lines) cross-checks the request and blocking
    counts of the measured iterations.
    """
    problems: list[str] = []
    stats = LogStats()
    iters: list[tuple[int, list[str]]] = []
    for line in lines:
        if line.startswith("RUN\t"):
            fields = dict(kv.split("=", 1) for kv in line.split("\t")[1:])
            iters.append((int(fields["iteration"]), []))
        elif iters:
            iters[-1][1].append(line)
        else:
            problems.append("event line before the first RUN header")
    by_it = {}
    for r in rows or []:
        rec = dict(zip(RESULT_COLUMNS, next(csv.reader([r]))))
        by_it[int(rec["iteration"])] = (int(rec["requests"]), int(rec["blocked"]))
    n_iter = cell.s["cba.n_iterations"]
    if [i for i, _ in iters] != list(range(n_iter)):
        problems.append(f"iterations in log {[i for i, _ in iters]} != 0..{n_iter - 1}")
    for it, body in iters:
        p2, st = _check_iteration(body, cell, it)
        problems += p2
        if rows is not None and it >= 1:
            want = by_it.get(it)
            got = (st.optical_xfers + st.fallbacks, st.blocked)
            if want != got:
                problems.append(f"it={it}: log (requests, blocked) {got} != CSV {want}")
        if it >= 1:
            stats.add(st)
    return problems, stats


def _check_iteration(body: list[str], cell: Cell, it: int) -> tuple[list[str], LogStats]:
    problems: list[str] = []
    st = LogStats()
    s = cell.s
    F, fs_max = s["topology.fs_total"], s["fs.max"]
    tasks: dict[int, tuple[float, float, float]] = {}
    xfers: dict[int, list[str]] = {}
    per_link: dict[frozenset, list[tuple[float, float, int, int, int]]] = {}
    for line in body:
        f = line.split("\t")
        if f[0] == "TASK":
            tid = int(f[1])
            spec = cell.tasks[tid] if 0 <= tid < len(cell.tasks) else None
            got = (int(f[2]), int(f[3]), f[4])
            if spec is None or got != (spec.stage, spec.microbatch, spec.direction):
                problems.append(f"it={it}: TASK {tid} does not match the schedule")
                continue
            tasks[tid] = (float(f[5]), float(f[6]), float(f[7]))
        elif f[0] == "XFER":
            xfers[int(f[3])] = f
        elif f[0] == "BLOCK":
            st.blocked += 1
        else:
            problems.append(f"it={it}: unknown event line {f[0]!r}")
    if len(tasks) != len(cell.tasks):
        problems.append(f"it={it}: {len(tasks)} TASK lines, want {len(cell.tasks)}")
        return problems, st

    for cons, f in xfers.items():
        rid, prod = int(f[1]), int(f[2])
        spec = cell.tasks[cons] if 0 <= cons < len(cell.tasks) else None
        if spec is None or spec.msg_pred != prod:
            problems.append(f"it={it}: XFER {rid} joins {prod}->{cons}, not a message edge")
            continue
        src, dst, kind = f[4], f[5], f[6]
        want_src = cell.stage_dcs[cell.tasks[prod].stage]
        want_dst = cell.stage_dcs[spec.stage]
        if (src, dst) != (want_src, want_dst):
            problems.append(f"it={it}: XFER {rid} runs {src}->{dst}, "
                            f"placement says {want_src}->{want_dst}")
        if (kind == "intra") != (src == dst):
            problems.append(f"it={it}: XFER {rid} kind {kind} for {src}->{dst}")
        n_fs, f0, f1, path, retries = int(f[7]), int(f[8]), int(f[9]), f[10], int(f[11])
        issue, hold, done = float(f[12]), float(f[13]), float(f[14])
        if not _close(issue, tasks[prod][2]):
            problems.append(f"it={it}: XFER {rid} issued at {issue!r}, "
                            f"producer finished {tasks[prod][2]!r}")
        if not (issue <= hold <= done):
            problems.append(f"it={it}: XFER {rid} times out of order")
        if done - hold < cell.xfer_bound(cons) * (1 - REL_TOL) - ABS_TOL:
            problems.append(f"it={it}: XFER {rid} faster than the fastest route allows")
        if kind == "optical":
            nodes = path.split(">")
            if not (1 <= n_fs <= fs_max and 0 <= f0 and f1 < F and f1 - f0 + 1 == n_fs):
                problems.append(f"it={it}: XFER {rid} block [{f0},{f1}] n_fs={n_fs} invalid")
            if nodes[0] != src or nodes[-1] != dst or not cell.cat.is_path(nodes):
                problems.append(f"it={it}: XFER {rid} path {path} is not a route {src}->{dst}")
            for a, b in zip(nodes, nodes[1:]):
                per_link.setdefault(frozenset((a, b)), []).append((hold, done, f0, f1, rid))
            st.optical_xfers += 1
            st.hold_s += done - hold
        elif kind == "fallback":
            st.fallbacks += 1
        elif kind != "intra":
            problems.append(f"it={it}: XFER {rid} unknown kind {kind!r}")
        if kind != "intra":
            st.retries += retries

    want_msgs = sum(1 for t in cell.tasks if t.msg_pred is not None)
    if len(xfers) != want_msgs:
        problems.append(f"it={it}: {len(xfers)} XFER lines, want {want_msgs}")

    # spectrum discipline: no two holdings overlap in time and slots on a link
    for link, ivs in per_link.items():
        ivs.sort()
        active: list[tuple[float, int, int, int]] = []
        for t0, t1, f0, f1, rid in ivs:
            active = [a for a in active if a[0] > t0 + ABS_TOL]
            for _, a0, a1, arid in active:
                if f0 <= a1 and a0 <= f1:
                    problems.append(
                        f"it={it}: XFER {arid} and {rid} overlap in time and slots "
                        f"on {'-'.join(sorted(link))}")
            active.append((t1, f0, f1, rid))

    # precedence: start after the intra-stage predecessor and the message arrival
    for tid, spec in enumerate(cell.tasks):
        ready, start, finish = tasks[tid]
        if not _close(finish - start, spec.compute_s):
            problems.append(f"it={it}: TASK {tid} runs {finish - start!r}, "
                            f"compute is {spec.compute_s!r}")
        if start < ready or start < 0:
            problems.append(f"it={it}: TASK {tid} starts before it is ready")
        if spec.chain_pred is not None and start < tasks[spec.chain_pred][2]:
            problems.append(f"it={it}: TASK {tid} starts before its predecessor finishes")
        if spec.msg_pred is not None:
            x = xfers.get(tid)
            if x is not None and start < float(x[14]):
                problems.append(f"it={it}: TASK {tid} starts before its message arrives")
    return problems, st


# ----------------------------------------------------------------------
# spot check of one selection on the live network


def free_starts(rows: list[np.ndarray], width: int, F: int) -> list[int]:
    """Start slots of every block of ``width`` slots free on all the rows."""
    busy = np.logical_or.reduce([np.asarray(r, dtype=bool) for r in rows])
    used = np.concatenate(([0], np.cumsum(busy)))
    return np.flatnonzero(used[width:] == used[:F - width + 1]).tolist()


def check_selection(
    cat: PathCatalog,
    occupancy: dict[frozenset, np.ndarray],
    policy: str,
    src: str,
    dst: str,
    width: int,
    k: int,
    prop_s_per_km: float,
    per_hop_overhead_s: float,
    chosen: tuple[tuple[str, ...], int, int] | None,
) -> list[str]:
    """Decide by brute force whether a selection was legal (and first-fit).

    ``chosen`` is (path nodes, f_start, f_end), or None for a blocked
    selection.  ``occupancy`` maps each link's node pair to its slot vector
    at selection time.
    """
    F = len(next(iter(occupancy.values())))
    cands = cat.k_shortest(src, dst, k)
    if policy == "sd_ff":
        cands = sorted(cands, key=lambda c: c[0] * prop_s_per_km + c[1] * per_hop_overhead_s)
    feasible = []
    for _, _, nodes in cands:
        rows = [occupancy[frozenset(e)] for e in zip(nodes, nodes[1:])]
        starts = free_starts(rows, width, F)
        if starts:
            feasible.append((nodes, starts))
    tag = f"{policy} {src}->{dst} w={width}"
    if chosen is None:
        return [f"{tag}: blocked although {feasible[0][0]} has a free block"] if feasible else []
    nodes, f0, f1 = chosen
    if not feasible:
        return [f"{tag}: chose {nodes} although no candidate has a free block"]
    if f1 - f0 + 1 != width:
        return [f"{tag}: block [{f0},{f1}] is not {width} slots wide"]
    if policy in ("ksp_ff", "sd_ff"):
        want_nodes, want_starts = feasible[0]
        if (nodes, f0) != (want_nodes, want_starts[0]):
            return [f"{tag}: chose {nodes}@{f0}, first fit is {want_nodes}@{want_starts[0]}"]
        return []
    match = [st for n, st in feasible if n == nodes]
    if not match or f0 not in match[0]:
        return [f"{tag}: block {nodes}@{f0} is not a free block of a candidate path"]
    return []


def topology_file(root: str) -> str:
    return os.path.join(root, "src", "optpipe", "data", "nsfnet.json")
