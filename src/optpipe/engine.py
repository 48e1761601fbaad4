"""Discrete-event simulation of one training iteration against the network.

A compute task starts once its intra-stage predecessor has finished and its
cross-stage input message (if any) has arrived: each task counts its unmet
dependencies, and the event that meets the last one starts it at that
instant.  When a task finishes, its outgoing message is issued immediately:
the network state is advanced to the current time, the request's slot demand
is read from the iteration's demand map (``base_fs``, capped at ``fs_max``,
for a consumer the map does not name), and the configured selection policy
picks a path and block.  A successful selection holds its spectrum from the
issue instant until the transfer completes.  A blocked selection retries
after a fixed backoff with the demand shrunk by one slot per attempt (floor
1); once retries are exhausted the message is delivered over a degraded
fallback service (single-slot-equivalent time scaled by a penalty factor) so
the iteration always completes.  Messages between stages in the same
datacenter bypass the optical network.

The timeline records each decision once: a start and a finish time per
task (a task starts at the instant its last dependency is met, so its ready
time is its start) and one ``TransferRecord`` per message.  A request was
blocked when its first selection attempt failed, which its record shows as
``retries > 0`` or a ``fallback`` delivery; the blocking counts and the
log's BLOCK lines are read from the records.

Event ordering is total and deterministic: (time, stage, task creation
index, push sequence).  Given identical seeds and configuration, timelines
serialize identically byte for byte.  An event time that is not finite
stops the run with ``TimeOverflowError``.

Each iteration starts by rebasing the network clock to zero, so timeline
records need no rewrite and every iteration runs with the same arithmetic;
background allocations and the arrival stream shift with the clock and carry
over between iterations.

The demand map comes from the caller (``cba.plan_requests`` sizes CBA's
requests); the engine only reads it.  ``select`` is the one map from a policy
to its selector.  The selectors (``rsa.select_*``) and the network operations
(``advance_network``, ``allocate_spectrum``) are looked up by name on every
call and never bound ahead of it, so a wrapper that is installed on the module
namespaces (a tracer, a test spy) sees every call.

The spectrum audit has one set of checks and two readers: ``audit_transfers``
reads a timeline's transfer records, and ``audit_event_log`` parses the XFER
lines of a written log (``repr`` round-trips every float, so both see the
same values).  The checks are that every block is ``n_fs`` slots wide, that
every holding ends by the iteration end, and that no two holdings overlap in
both time and slots on a shared link.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from . import rsa
from .latency import EgressState, LatencyParams, beta, transfer_time
from .topology import Link, Network, advance_network, allocate_spectrum
from .workload import Direction, Stage, Task

SELECTORS = ("cba", "ksp_ff", "sd_ff")


@dataclass(frozen=True)
class PolicyConfig:
    """Selection policy plus the FS-sizing and retry knobs (CBA's maximum
    boost, ``boost_factor``, is read by ``cba.plan_requests`` alone)."""

    selector: str = "cba"
    k: int = 5
    base_fs: int = 4
    boost_factor: float = 2.0
    fs_max: int = 16
    max_retries: int = 5
    retry_backoff_s: float = 1e-3
    fallback_penalty: float = 3.0

    def __post_init__(self) -> None:
        if self.selector not in SELECTORS:
            raise ValueError(f"selector must be one of {SELECTORS}")
        for name in ("k", "base_fs", "boost_factor", "fs_max", "fallback_penalty"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("max_retries", "retry_backoff_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


def select(net: Network, src: str, dst: str, width: int, policy: PolicyConfig,
           params: LatencyParams) -> rsa.SelectionResult:
    """The route and block that ``policy.selector`` picks: the one policy dispatch."""
    if policy.selector == "cba":
        return rsa.select_cba(net, src, dst, width, policy.k)
    if policy.selector == "ksp_ff":
        return rsa.select_ksp_ff(net, src, dst, width, policy.k)
    return rsa.select_sd_ff(net, src, dst, width, policy.k, params)


@dataclass(slots=True)
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

    @property
    def blocked(self) -> bool:
        """Whether the request's first selection attempt was blocked."""
        return self.retries > 0 or self.kind == "fallback"


@dataclass
class Timeline:
    """The executed schedule of one iteration.

    ``tasks`` is the cell's task list, shared and only read; ``start`` and
    ``finish`` hold each task's times, indexed by task id.
    """

    tasks: Sequence[Task]
    start: list[float]
    finish: list[float]
    transfers: list[TransferRecord]
    iteration_makespan: float

    @property
    def cross_dc_requests(self) -> int:
        return sum(1 for t in self.transfers if t.kind != "intra")

    @property
    def blocked_requests(self) -> int:
        return sum(1 for t in self.transfers if t.blocked)

    def event_log_lines(self) -> list[str]:
        """Line-per-event serialization (see README for columns)."""
        lines = []
        start, finish = self.start, self.finish
        # the direction strings, read once: an enum's ``value`` is a descriptor call
        forward = Direction.FORWARD
        fwd, bwd = forward.value, Direction.BACKWARD.value
        for t in self.tasks:
            s = start[t.id]
            lines.append(
                f"TASK\t{t.id}\t{t.stage_id}\t{t.microbatch}"
                f"\t{fwd if t.direction is forward else bwd}\t{s!r}\t{s!r}\t{finish[t.id]!r}"
            )
        for x in sorted(self.transfers, key=lambda t: (t.issue_time, t.request_id)):
            path = ">".join(x.path_nodes) if x.path_nodes else "-"
            lines.append(
                f"XFER\t{x.request_id}\t{x.task_id}\t{x.consumer_id}\t{x.src_dc}\t{x.dst_dc}"
                f"\t{x.kind}\t{x.n_fs}\t{x.f_start}\t{x.f_end}\t{path}\t{x.retries}"
                f"\t{x.issue_time!r}\t{x.hold_start!r}\t{x.complete_time!r}"
            )
        for x in sorted((t for t in self.transfers if t.blocked), key=lambda t: t.request_id):
            outcome = "dropped_never" if x.kind == "fallback" else "eventually_sent"
            lines.append(f"BLOCK\t{x.request_id}\t{x.task_id}\t{x.retries + 1}\t{outcome}")
        return lines


@dataclass(slots=True)
class _Request:
    request_id: int
    producer: Task
    consumer: Task
    src: str
    dst: str
    demand: int           # slot demand at first attempt
    issue_time: float
    attempts: int = 0


# Event kinds.  They never decide the order: the heap orders events by
# (time, stage, task id, push sequence), and the sequence is unique.
_FINISH, _ARRIVAL, _RETRY = 0, 1, 2
_TERMS = ("compute", "transfer", "retry")  # the term each kind's time adds


class TimeOverflowError(ArithmeticError):
    """An event time is not finite; the argument names the term that overflowed it."""


class _Sim:
    def __init__(
        self,
        net: Network,
        stages: Sequence[Stage],
        tasks: Sequence[Task],
        policy: PolicyConfig,
        params: LatencyParams,
        demand: dict[int, int],
        msg_bits: float,
    ):
        self.net = net
        self.policy = policy
        self.params = params
        self.egress = EgressState()
        self.msg_bits = msg_bits
        self.tasks = tasks
        self.stage_dc = {s.stage_id: s.dc_node for s in stages}
        for dc in self.stage_dc.values():
            if dc not in net.adjacency:
                raise ValueError(f"stage placed on unknown datacenter {dc!r}")
        if policy.fs_max > net.fs_total:
            raise ValueError("fs_max exceeds the network's slot count")
        # slot demand at first attempt, by consumer task
        self.demand = demand
        self.base_demand = min(policy.base_fs, policy.fs_max)

        self.start = [math.nan] * len(tasks)
        self.finish = [math.nan] * len(tasks)
        self.unmet = [(t.chain_pred is not None) + (t.msg_pred is not None) for t in tasks]

        self.heap: list[tuple[float, int, int, int, int, _Request | None]] = []
        self.seq = itertools.count()
        self.transfers: list[TransferRecord] = []
        self.req_counter = 0

    def push(self, time: float, task: Task, kind: int, req: _Request | None = None) -> None:
        if not math.isfinite(time):
            raise TimeOverflowError(_TERMS[kind])
        heapq.heappush(self.heap, (time, task.stage_id, task.id, next(self.seq), kind, req))

    def run(self) -> Timeline:
        tasks, unmet, heap = self.tasks, self.unmet, self.heap
        start, issue, attempt = self._start, self._issue, self._attempt
        pop = heapq.heappop
        for t in tasks:
            if not unmet[t.id]:
                start(t, 0.0)
        finished = 0
        while heap:
            now, _, tid, _, kind, req = pop(heap)
            if kind == _RETRY:
                attempt(req, now)
                continue
            if kind == _FINISH:
                finished += 1
                task = tasks[tid]
                nxt = task.chain_next
                if nxt is not None:
                    unmet[nxt] -= 1
                    if not unmet[nxt]:
                        start(tasks[nxt], now)
                if task.msg_next is not None:
                    issue(task, now)
                continue
            # _ARRIVAL: one dependency of task ``tid`` is met at ``now``.
            # Events pop in nondecreasing time, so the event that meets the
            # last one is the latest and ``now`` is the task's ready time.
            unmet[tid] -= 1
            if not unmet[tid]:
                start(tasks[tid], now)
        if finished != len(tasks):
            raise RuntimeError(
                f"deadlock: {len(tasks) - finished} tasks never became ready "
                "(cyclic dependencies?)"
            )
        makespan = max(self.finish, default=0.0)
        advance_network(self.net, makespan)
        leaked = self.net.active_owners("tx-")
        if leaked:
            raise RuntimeError(f"training allocations leaked past iteration end: {leaked}")
        return Timeline(tasks, self.start, self.finish, self.transfers, makespan)

    # ----------------------------------------------------------------

    def _start(self, task: Task, ready: float) -> None:
        self.start[task.id] = ready
        self.finish[task.id] = finish = ready + task.compute_s
        self.push(finish, task, _FINISH)

    def _issue(self, task: Task, now: float) -> None:
        """Send the message of ``task``, which has just finished, at ``now``."""
        consumer = self.tasks[task.msg_next]  # type: ignore[index]
        self.req_counter += 1
        rid = self.req_counter
        src = self.stage_dc[task.stage_id]
        dst = self.stage_dc[consumer.stage_id]
        if src == dst:
            complete = now + transfer_time(self.params, None, 1, self.msg_bits)
            self._deliver(consumer, complete, TransferRecord(
                rid, task.id, consumer.id, src, dst, "intra", 0, -1, -1, None, 0,
                now, now, complete,
            ))
            return
        demand = self.demand.get(consumer.id, self.base_demand)
        self._attempt(_Request(rid, task, consumer, src, dst, demand, now), now)

    def _deliver(self, consumer: Task, complete: float, record: TransferRecord) -> None:
        self.transfers.append(record)
        self.push(complete, consumer, _ARRIVAL)

    def _attempt(self, req: _Request, now: float) -> None:
        advance_network(self.net, now)
        attempt = req.attempts
        req.attempts += 1
        n_fs = max(req.demand - attempt, 1)
        p = self.policy
        sel = select(self.net, req.src, req.dst, n_fs, p, self.params)
        bits = self.msg_bits
        stage = req.producer.stage_id

        path, block = sel.path, sel.block
        if path is not None:
            assert block is not None
            pen = self.egress.pending(stage, now)
            dt = transfer_time(self.params, path, n_fs, bits, pen)
            complete = now + dt
            # a transfer too short to move the clock holds no spectrum
            if complete > now:
                allocate_spectrum(
                    self.net, path.links, (block.f_start, block.f_end),
                    f"tx-{req.request_id}", complete,
                )
            # the sender's transmitter is busy until the last bit is pushed
            # (queue + serialization); propagation happens in flight
            self.egress.occupy(stage, now + pen + bits * beta(self.params, n_fs))
            self._deliver(req.consumer, complete, TransferRecord(
                req.request_id, req.producer.id, req.consumer.id, req.src, req.dst,
                "optical", n_fs, block.f_start, block.f_end,
                path.nodes, attempt, req.issue_time, now, complete,
            ))
            return

        if attempt < p.max_retries:
            self.push(now + p.retry_backoff_s, req.producer, _RETRY, req)
            return

        # retries exhausted: degraded fallback delivery, no spectrum held
        # (the penalty scales the route service time, not the local queue wait)
        path0 = self.net.paths.candidates(req.src, req.dst, p.k)[0]
        pen = self.egress.pending(stage, now)
        dt = p.fallback_penalty * transfer_time(self.params, path0, 1, bits) + pen
        complete = now + dt
        self.egress.occupy(
            stage, now + pen + p.fallback_penalty * bits * beta(self.params, 1),
        )
        self._deliver(req.consumer, complete, TransferRecord(
            req.request_id, req.producer.id, req.consumer.id, req.src, req.dst,
            "fallback", 1, -1, -1, None, attempt, req.issue_time, now, complete,
        ))


def simulate_iteration(
    net: Network,
    stages: Sequence[Stage],
    tasks: Sequence[Task],
    policy: PolicyConfig,
    params: LatencyParams,
    demand: dict[int, int] | None = None,
    msg_bits: float = 0.0,
) -> Timeline:
    """Execute the task DAG once; returns its Timeline.

    ``demand`` maps a consumer task id to the slot demand of its incoming
    request at the first attempt; a request whose consumer it does not name
    asks for ``min(policy.base_fs, policy.fs_max)``.

    The network clock is first rebased so the iteration starts at t=0;
    background allocations persist from earlier iterations, shifted with the
    clock, and the background stream attached to ``net`` (if any) keeps
    drawing arrivals.  Every training allocation is released by the time
    this returns.
    """
    sim = _Sim(net, stages, tasks, policy, params, demand or {}, msg_bits)
    net.rebase(net.now)
    return sim.run()


def bubble_ratio(timeline: Timeline) -> float:
    """Fraction of stage-time spent idle: 1 - busy / (p * makespan).

    p is the number of stages the tasks run on.  The busy time is summed per
    stage, then over the stages in stage order.
    """
    if timeline.iteration_makespan <= 0.0:
        raise ValueError("empty timeline has no bubble ratio")
    per_stage: dict[int, float] = {}
    for t in timeline.tasks:
        per_stage[t.stage_id] = per_stage.get(t.stage_id, 0.0) + t.compute_s
    busy = sum(per_stage[s] for s in sorted(per_stage))
    return 1.0 - busy / (len(per_stage) * timeline.iteration_makespan)


def blocking_probability(timeline: Timeline) -> float:
    """Share of cross-DC requests whose first selection attempt was blocked.

    Requests that later succeed on retry still count as blocked.
    """
    total = timeline.cross_dc_requests
    if total == 0:
        return 0.0
    return timeline.blocked_requests / total


# ----------------------------------------------------------------------
# spectrum-discipline audit: of the transfer records, or of the event log


def audit_transfers(net: Network, transfers: Iterable[TransferRecord], makespan: float) -> int:
    """Verify spectrum discipline from an iteration's transfer records.

    The same checks as ``audit_event_log``, on the values the XFER lines
    would carry (``repr`` round-trips every float): each path is resolved
    from its recorded node sequence, not from the simulation's links.
    Returns the number of optical transfers audited; raises RuntimeError
    on the first violation.
    """
    return _audit_holds(
        ((x.request_id, x.n_fs, x.f_start, x.f_end, x.path_nodes, x.hold_start, x.complete_time)
         for x in transfers if x.kind == "optical"),
        makespan, net.path_links,
    )


def audit_event_log(net: Network, lines: Iterable[str], makespan: float) -> int:
    """Replay XFER lines and verify spectrum discipline from the log alone.

    Parses the optical XFER lines and runs the checks of ``audit_transfers``
    on them; every other line is skipped.  Returns the number of transfers
    audited; raises RuntimeError on the first violation.
    """
    def holds():
        for line in lines:
            parts = line.rstrip("\n").split("\t")
            if parts[0] == "XFER" and parts[6] == "optical":
                yield (int(parts[1]), int(parts[7]), int(parts[8]), int(parts[9]), parts[10],
                       float(parts[13]), float(parts[14]))

    return _audit_holds(holds(), makespan, lambda path: net.path_links(path.split(">")))


def _audit_holds(
    holds: Iterable[tuple], makespan: float, links_of: Callable[[Any], Sequence[Link]],
) -> int:
    """The checks shared by both audits, over optical holdings.

    A holding is (request id, n_fs, f_start, f_end, path, hold_start,
    complete); ``links_of`` resolves a path to its links, once per distinct
    path.  Checks that every block is ``n_fs`` slots wide, that every holding
    window closes by the iteration end (no leaked allocations) and that no
    two holdings overlap in both time and slots on a shared link.
    """
    # path -> (its links, resolved on first sight; its intervals)
    by_path: dict[Any, tuple[Sequence[Link], list[tuple[float, float, int, int, int]]]] = {}
    audited = 0
    for rid, n_fs, f0, f1, path, hold_start, complete in holds:
        if f1 - f0 + 1 != n_fs:
            raise RuntimeError(f"request {rid}: block width disagrees with n_fs")
        if complete > makespan + 1e-9:
            raise RuntimeError(f"request {rid}: allocation leaks past iteration end")
        group = by_path.get(path)
        if group is None:
            group = by_path[path] = (links_of(path), [])
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
