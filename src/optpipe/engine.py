"""Discrete-event simulation of one training iteration against the network.

A compute task starts once its intra-stage predecessor has finished and its
cross-stage input message (if any) has arrived: each task counts its unmet
dependencies, and the event that meets the last one starts it at that
instant.  When a task finishes, its outgoing message is issued immediately:
the network state is advanced to the current time, the request's slot
demand is sized from its label, and the configured selection policy picks a
path and block.  A successful selection holds its spectrum from the issue
instant until the transfer completes.  A blocked selection retries after a
fixed backoff with the demand shrunk by one slot per attempt (floor 1); once
retries are exhausted the message is delivered over a degraded fallback
service (single-slot-equivalent time scaled by a penalty factor) so the
iteration always completes.  Messages between stages in the same datacenter
bypass the optical network.

Event ordering is total and deterministic: (time, stage, task creation
index, push sequence).  Given identical seeds and configuration, timelines
serialize identically byte for byte.

Each iteration starts by rebasing the network clock to zero, so timeline
records need no rewrite and every iteration runs with the same arithmetic;
background allocations and the arrival stream shift with the clock and carry
over between iterations.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import rsa
from .latency import (
    EgressState,
    LatencyParams,
    NORMAL,
    RequestLabel,
    beta,
    required_fs,
    transfer_time,
)
from .topology import Link, Network, advance_network, allocate_spectrum
from .workload import Stage, Task

SELECTORS = ("cba", "ksp_ff", "sd_ff")


@dataclass(frozen=True)
class PolicyConfig:
    """Selection policy plus the FS-sizing and retry knobs the engine uses."""

    selector: str = "cba"
    k: int = 5
    ci_mode: rsa.CiMode = rsa.CiMode.WINDOW
    base_fs: int = 4
    boost_factor: float = 2.0
    fs_max: int = 16
    max_retries: int = 5
    retry_backoff_s: float = 1e-3
    fallback_penalty: float = 3.0

    def __post_init__(self) -> None:
        if self.selector not in SELECTORS:
            raise ValueError(f"selector must be one of {SELECTORS}")
        if self.k < 1 or self.base_fs < 1 or self.fs_max < 1:
            raise ValueError("k, base_fs and fs_max must be >= 1")
        if self.boost_factor < 1:
            raise ValueError("boost_factor must be >= 1")
        if self.max_retries < 0 or self.retry_backoff_s < 0:
            raise ValueError("retry settings must be nonnegative")
        if self.fallback_penalty < 1:
            raise ValueError("fallback_penalty must be >= 1")


@dataclass
class TaskRecord:
    task_id: int
    stage_id: int
    microbatch: int
    direction: str
    ready_time: float = math.nan
    start_time: float = math.nan
    finish_time: float = math.nan
    msg_cross_dc: bool = False


@dataclass
class TransferRecord:
    request_id: int
    task_id: int          # producer of the message
    consumer_id: int
    src_dc: str
    dst_dc: str
    kind: str             # optical | intra | fallback
    n_fs: int
    f_start: int          # -1 when no spectrum was held
    f_end: int
    path_nodes: tuple[str, ...] | None
    retries: int
    issue_time: float     # first attempt
    hold_start: float     # successful attempt (spectrum commit instant)
    complete_time: float


@dataclass
class BlockingEvent:
    request_id: int
    task_id: int
    attempts: int
    final_outcome: str    # eventually_sent | dropped_never


@dataclass
class Timeline:
    """The executed schedule of one iteration."""

    tasks: list[TaskRecord]
    transfers: list[TransferRecord]
    blocking_events: list[BlockingEvent]
    iteration_makespan: float
    stage_busy: dict[int, float]

    @property
    def cross_dc_requests(self) -> int:
        return sum(1 for t in self.transfers if t.kind != "intra")

    @property
    def blocked_requests(self) -> int:
        return len(self.blocking_events)

    def event_log_lines(self) -> list[str]:
        """Line-per-event serialization (see README for columns)."""
        lines = []
        for r in self.tasks:
            lines.append(
                f"TASK\t{r.task_id}\t{r.stage_id}\t{r.microbatch}\t{r.direction}"
                f"\t{r.ready_time!r}\t{r.start_time!r}\t{r.finish_time!r}"
            )
        lines.extend(self.xfer_lines())
        for b in sorted(self.blocking_events, key=lambda b: b.request_id):
            lines.append(
                f"BLOCK\t{b.request_id}\t{b.task_id}\t{b.attempts}\t{b.final_outcome}"
            )
        return lines

    def xfer_lines(self) -> list[str]:
        """The XFER lines of ``event_log_lines``: all that ``audit_event_log`` reads."""
        lines = []
        for x in sorted(self.transfers, key=lambda t: (t.issue_time, t.request_id)):
            path = ">".join(x.path_nodes) if x.path_nodes else "-"
            lines.append(
                f"XFER\t{x.request_id}\t{x.task_id}\t{x.consumer_id}\t{x.src_dc}\t{x.dst_dc}"
                f"\t{x.kind}\t{x.n_fs}\t{x.f_start}\t{x.f_end}\t{path}\t{x.retries}"
                f"\t{x.issue_time!r}\t{x.hold_start!r}\t{x.complete_time!r}"
            )
        return lines


@dataclass
class _Request:
    request_id: int
    producer: Task
    consumer: Task
    src: str
    dst: str
    bits: float
    demand: int           # label-sized demand at first attempt
    issue_time: float
    attempts: int = 0
    first_blocked: bool = False


class _Sim:
    def __init__(
        self,
        net: Network,
        stages: Sequence[Stage],
        tasks: Sequence[Task],
        policy: PolicyConfig,
        params: LatencyParams,
        egress: EgressState,
        request_labels: dict[int, RequestLabel],
        msg_bits: float,
    ):
        self.net = net
        self.policy = policy
        self.params = params
        self.egress = egress
        self.labels = request_labels
        self.msg_bits = msg_bits
        self.tasks = list(tasks)
        self.stage_dc = {s.stage_id: s.dc_node for s in stages}
        for dc in self.stage_dc.values():
            if dc not in net.adjacency:
                raise ValueError(f"stage placed on unknown datacenter {dc!r}")
        if policy.fs_max > net.fs_total:
            raise ValueError("fs_max exceeds the network's slot count")

        self.records = [
            TaskRecord(t.id, t.stage_id, t.microbatch, t.direction.value) for t in self.tasks
        ]
        self.chain_next: dict[int, int] = {}
        self.consumer_of: dict[int, int] = {}
        for t in self.tasks:
            if t.chain_pred is not None:
                self.chain_next[t.chain_pred] = t.id
            if t.msg_pred is not None:
                self.consumer_of[t.msg_pred] = t.id
        self.unmet = [len(t.deps) for t in self.tasks]
        self.finished = 0

        self.heap: list[tuple[float, int, int, int, str, object]] = []
        self.seq = 0
        self.transfers: list[TransferRecord] = []
        self.blocking: list[BlockingEvent] = []
        self.req_counter = 0

    def push(self, time: float, task: Task, kind: str, payload: object = None) -> None:
        heapq.heappush(self.heap, (time, task.stage_id, task.id, self.seq, kind, payload))
        self.seq += 1

    def run(self) -> Timeline:
        for t in self.tasks:
            if not self.unmet[t.id]:
                self._start(t, 0.0)
        while self.heap:
            time, _, _, _, kind, payload = heapq.heappop(self.heap)
            if kind == "finish":
                self._on_finish(payload, time)  # type: ignore[arg-type]
            elif kind == "arrival":
                self._met(payload.id, time)  # type: ignore[attr-defined]
            else:
                self._attempt(payload, time)  # type: ignore[arg-type]
        if self.finished != len(self.tasks):
            raise RuntimeError(
                f"deadlock: {len(self.tasks) - self.finished} tasks never became ready "
                "(cyclic dependencies?)"
            )
        makespan = max((r.finish_time for r in self.records), default=0.0)
        advance_network(self.net, makespan)
        leaked = self.net.active_owners("tx-")
        if leaked:
            raise RuntimeError(f"training allocations leaked past iteration end: {leaked}")

        stage_busy: dict[int, float] = {s: 0.0 for s in self.stage_dc}
        for t in self.tasks:
            stage_busy[t.stage_id] += t.compute_s
        return Timeline(
            tasks=self.records,
            transfers=self.transfers,
            blocking_events=self.blocking,
            iteration_makespan=makespan,
            stage_busy=stage_busy,
        )

    # ----------------------------------------------------------------

    def _start(self, task: Task, ready: float) -> None:
        rec = self.records[task.id]
        rec.ready_time = ready
        rec.start_time = ready
        rec.finish_time = ready + task.compute_s
        self.push(rec.finish_time, task, "finish", task)

    def _met(self, tid: int, now: float) -> None:
        """One dependency of task ``tid`` is met at ``now``.

        Events pop in nondecreasing time, so the event that meets the last
        dependency is the latest one and ``now`` is the task's ready time.
        """
        self.unmet[tid] -= 1
        if not self.unmet[tid]:
            self._start(self.tasks[tid], now)

    def _on_finish(self, task: Task, now: float) -> None:
        self.finished += 1
        nxt = self.chain_next.get(task.id)
        if nxt is not None:
            self._met(nxt, now)
        cons = self.consumer_of.get(task.id)
        if cons is not None:
            consumer = self.tasks[cons]
            self.req_counter += 1
            req = _Request(
                request_id=self.req_counter,
                producer=task,
                consumer=consumer,
                src=self.stage_dc[task.stage_id],
                dst=self.stage_dc[consumer.stage_id],
                bits=self.msg_bits,
                demand=required_fs(
                    self.policy.base_fs,
                    self.labels.get(cons, NORMAL),
                    self.policy.boost_factor,
                    self.policy.fs_max,
                ),
                issue_time=now,
            )
            self._attempt(req, now)

    # ----------------------------------------------------------------

    def _deliver(self, req: _Request, complete: float, record: TransferRecord) -> None:
        self.transfers.append(record)
        self.push(complete, req.consumer, "arrival", req.consumer)
        self.records[req.consumer.id].msg_cross_dc = record.kind != "intra"

    def _attempt(self, req: _Request, now: float) -> None:
        if req.src == req.dst:
            dt = transfer_time(self.params, None, 1, req.bits)
            self._deliver(
                req,
                now + dt,
                TransferRecord(
                    req.request_id, req.producer.id, req.consumer.id, req.src, req.dst,
                    "intra", 0, -1, -1, None, 0, now, now, now + dt,
                ),
            )
            return

        advance_network(self.net, now)
        attempt = req.attempts
        req.attempts += 1
        n_fs = max(req.demand - attempt, 1)
        sel = self._select(req.src, req.dst, n_fs)

        if not sel.blocked:
            assert sel.path is not None and sel.block is not None
            pen = self.egress.pending(req.producer.stage_id, now)
            dt = transfer_time(self.params, sel.path, n_fs, req.bits, pen)
            complete = now + dt
            if dt > 0.0:
                allocate_spectrum(
                    self.net, sel.path.links,
                    (sel.block.f_start, sel.block.f_end),
                    f"tx-{req.request_id}", complete,
                )
            # the sender's transmitter is busy until the last bit is pushed
            # (queue + serialization); propagation happens in flight
            self.egress.occupy(
                req.producer.stage_id, now + pen + req.bits * beta(self.params, n_fs)
            )
            if req.first_blocked:
                self.blocking.append(
                    BlockingEvent(req.request_id, req.producer.id, req.attempts,
                                  "eventually_sent")
                )
            self._deliver(
                req, complete,
                TransferRecord(
                    req.request_id, req.producer.id, req.consumer.id, req.src, req.dst,
                    "optical", n_fs, sel.block.f_start, sel.block.f_end,
                    sel.path.nodes, attempt, req.issue_time, now, complete,
                ),
            )
            return

        if attempt == 0:
            req.first_blocked = True
        if attempt < self.policy.max_retries:
            self.push(now + self.policy.retry_backoff_s, req.producer, "retry", req)
            return

        # retries exhausted: degraded fallback delivery, no spectrum held
        # (the penalty scales the route service time, not the local queue wait)
        path0 = self.net.paths.candidates(req.src, req.dst, self.policy.k)[0]
        pen = self.egress.pending(req.producer.stage_id, now)
        dt = self.policy.fallback_penalty * transfer_time(self.params, path0, 1, req.bits) + pen
        complete = now + dt
        self.egress.occupy(
            req.producer.stage_id,
            now + pen + self.policy.fallback_penalty * req.bits * beta(self.params, 1),
        )
        self.blocking.append(
            BlockingEvent(req.request_id, req.producer.id, req.attempts, "dropped_never")
        )
        self._deliver(
            req, complete,
            TransferRecord(
                req.request_id, req.producer.id, req.consumer.id, req.src, req.dst,
                "fallback", 1, -1, -1, None, attempt, req.issue_time, now, complete,
            ),
        )

    def _select(self, src: str, dst: str, width: int) -> rsa.SelectionResult:
        p = self.policy
        if p.selector == "cba":
            return rsa.select_cba(self.net, src, dst, width, p.k, p.ci_mode)
        if p.selector == "ksp_ff":
            return rsa.select_ksp_ff(self.net, src, dst, width, p.k)
        return rsa.select_sd_ff(self.net, src, dst, width, p.k, self.params)


def simulate_iteration(
    net: Network,
    stages: Sequence[Stage],
    tasks: Sequence[Task],
    policy: PolicyConfig,
    params: LatencyParams,
    egress: EgressState | None = None,
    request_labels: dict[int, RequestLabel] | None = None,
    msg_bits: float = 0.0,
) -> Timeline:
    """Execute the task DAG once; returns its Timeline.

    The network clock is first rebased so the iteration starts at t=0;
    background allocations persist from earlier iterations, shifted with the
    clock, and the background stream attached to ``net`` (if any) keeps
    drawing arrivals.  Every training allocation is released by the time
    this returns.
    """
    sim = _Sim(
        net, stages, tasks, policy, params,
        egress if egress is not None else EgressState(),
        request_labels or {}, msg_bits,
    )
    net.rebase(net.now)
    return sim.run()


def bubble_ratio(timeline: Timeline, p: int) -> float:
    """Fraction of stage-time spent idle: 1 - busy / (p * makespan)."""
    if timeline.iteration_makespan <= 0.0:
        raise ValueError("empty timeline has no bubble ratio")
    busy = sum(timeline.stage_busy.values())
    return 1.0 - busy / (p * timeline.iteration_makespan)


def blocking_probability(timeline: Timeline) -> float:
    """Share of cross-DC requests whose first selection attempt was blocked.

    Requests that later succeed on retry still count as blocked.
    """
    total = timeline.cross_dc_requests
    if total == 0:
        return 0.0
    return timeline.blocked_requests / total


# ----------------------------------------------------------------------
# event-log replay audit


def audit_event_log(net: Network, lines: Iterable[str], makespan: float) -> int:
    """Replay XFER lines and verify spectrum discipline from the log alone.

    Checks that no two optical transfers overlap in both time and slots on a
    shared link and that every holding window closes by the iteration end
    (no leaked allocations).  Returns the number of transfers audited;
    raises RuntimeError on the first violation.
    """
    # path string -> (its links, resolved on first sight; its intervals)
    by_path: dict[str, tuple[tuple[Link, ...], list[tuple[float, float, int, int, int]]]] = {}
    audited = 0
    for line in lines:
        parts = line.rstrip("\n").split("\t")
        if parts[0] != "XFER" or parts[6] != "optical":
            continue
        rid = int(parts[1])
        n_fs, f0, f1 = int(parts[7]), int(parts[8]), int(parts[9])
        hold_start, complete = float(parts[13]), float(parts[14])
        if f1 - f0 + 1 != n_fs:
            raise RuntimeError(f"request {rid}: block width disagrees with n_fs")
        if complete > makespan + 1e-9:
            raise RuntimeError(f"request {rid}: allocation leaks past iteration end")
        group = by_path.get(parts[10])
        if group is None:
            group = by_path[parts[10]] = (net.path_links(parts[10].split(">")), [])
        group[1].append((hold_start, complete, f0, f1, rid))
        audited += 1

    per_link: dict[int, list[tuple[float, float, int, int, int]]] = {}
    for links, path_intervals in by_path.values():
        for link in links:
            per_link.setdefault(link.index, []).extend(path_intervals)
    for intervals in per_link.values():
        intervals.sort()
        active: list[tuple[float, int, int, int]] = []
        for t0, t1, f0, f1, rid in intervals:
            active = [a for a in active if a[0] > t0 + 1e-15]
            for _, af0, af1, arid in active:
                if f0 <= af1 and af0 <= f1:
                    raise RuntimeError(
                        f"requests {arid} and {rid} overlap in time and slots"
                    )
            active.append((t1, f0, f1, rid))
    return audited
