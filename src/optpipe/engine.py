"""Discrete-event simulation of one training iteration against the network.

A compute task starts once its intra-stage predecessor has finished and its
cross-stage input message (if any) has arrived, at the later of the two
instants.  When a task finishes, its outgoing message is issued immediately:
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

Event ordering.  Only network events go on the heap: a producer's finish,
which issues its message, and a blocked request's retry.  Each is keyed
(time, stage, producer task id), and no two pending events share a key: a
producer has one pending event at a time, since its retry is pushed only
after the event before it has popped.  Task starts are not events.  A task
starts at the latest of its inputs, and that instant is pushed forward along
the DAG where its last input becomes known: at its chain predecessor's
start, or at the attempt that delivers its message.  Both come no later
than the task's start (an attempt runs before its arrival), so a producer's
finish is pushed while the clock is at or before its start, and, with a
compute time that moves the clock, strictly before its finish.  A retry
lands at or after the instant of the event that pushed it, and with zero
backoff it carries that event's key and pops next.  So the heap pops the
network events in key order, which is also the order that a heap holding
every finish, arrival and retry, keyed (time, stage, task id, push
sequence), gives them: ``advance_network``, the selectors and
``allocate_spectrum`` see the same calls in the same order.  That
all-events loop is ``validate.ref_simulate_iteration``, and the tests and
``optpipe validate`` hold the engine to it.  Given identical seeds and
configuration, timelines serialize identically byte for byte.  An event
time that is not finite stops the run with ``TimeOverflowError``.

A message's first attempt runs in the loop; a request is kept as a
``_Request`` only when it blocks.  Alpha per candidate path and beta per
slot count come from ``latency.alpha`` and ``latency.beta`` once per
iteration, and a completion time keeps ``transfer_time``'s expression,
``now + (alpha + bits * beta + wait)``, where the wait is the time until the
sending stage's previous transfer has pushed its last bit.

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
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from . import rsa
from .latency import LatencyParams, alpha, beta, transfer_time
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
    """A blocked request, kept for its retries."""

    request_id: int
    consumer_id: int
    src: str
    dst: str
    demand: int           # slot demand at first attempt
    issue_time: float
    attempts: int


class TimeOverflowError(ArithmeticError):
    """An event time is not finite; the argument names the term that overflowed it."""


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
    drawing arrivals.  Every training holding ends by the makespan; one that
    is still held after it raises ``RuntimeError``.
    """
    stage_dc = {s.stage_id: s.dc_node for s in stages}
    for dc in stage_dc.values():
        if dc not in net.adjacency:
            raise ValueError(f"stage placed on unknown datacenter {dc!r}")
    if policy.fs_max > net.fs_total:
        raise ValueError("fs_max exceeds the network's slot count")
    intra = transfer_time(params, None, 1, msg_bits)
    demand = demand or {}
    base_demand = min(policy.base_fs, policy.fs_max)
    k, max_retries, backoff = policy.k, policy.max_retries, policy.retry_backoff_s
    net.rebase(net.now)

    n = len(tasks)
    start = [math.nan] * n
    finish = [math.nan] * n
    # the latest input time known so far, and the inputs still unknown
    latest = [0.0] * n
    unmet = [(t.chain_pred is not None) + (t.msg_pred is not None) for t in tasks]
    # network events: (time, stage, producer task id, None for the message's
    # issue or its _Request for a retry)
    heap: list[tuple[float, int, int, _Request | None]] = []
    push, pop = heapq.heappush, heapq.heappop
    isfinite = math.isfinite
    started = 0

    def met(tid: int, t: float) -> None:
        """One input of task ``tid`` arrives at ``t``.  When it is the last,
        the task starts at its latest input, and its chain successor's input
        is known in turn."""
        nonlocal started
        while True:
            if t > latest[tid]:
                latest[tid] = t
            unmet[tid] -= 1
            if unmet[tid]:
                return
            task = tasks[tid]
            s = latest[tid]
            f = s + task.compute_s
            if not isfinite(f):
                raise TimeOverflowError("compute")
            start[tid] = s
            finish[tid] = f
            started += 1
            if task.msg_next is not None:
                push(heap, (f, task.stage_id, tid, None))
            tid = task.chain_next
            if tid is None:
                return
            t = f

    transfers: list[TransferRecord] = []

    def deliver(record: TransferRecord) -> None:
        transfers.append(record)
        if not isfinite(record.complete_time):
            raise TimeOverflowError("transfer")
        met(record.consumer_id, record.complete_time)

    # a task without inputs has one: the iteration start, at 0
    for tid in [tid for tid in range(n) if not unmet[tid]]:
        unmet[tid] = 1
        met(tid, 0.0)

    # when each stage's transmitter has pushed its last bit
    busy = dict.fromkeys(stage_dc, 0.0)
    # alpha per candidate path (by identity; the catalog keeps every path
    # alive) and beta per slot count, for this iteration's parameters
    alphas: dict[int, float] = {}
    betas: dict[int, float] = {}
    rid = 0
    while heap:
        now, stage, tid, req = pop(heap)
        if req is None:
            # producer ``tid`` finished at ``now``: its message's first attempt
            cid = tasks[tid].msg_next
            rid += 1
            src, dst = stage_dc[stage], stage_dc[tasks[cid].stage_id]
            if src == dst:
                deliver(TransferRecord(rid, tid, cid, src, dst, "intra", 0, -1, -1, None, 0,
                                       now, now, now + intra))
                continue
            request_id, want, issue_time, attempt = rid, demand.get(cid, base_demand), now, 0
        else:
            cid, src, dst = req.consumer_id, req.src, req.dst
            request_id, want, issue_time, attempt = (
                req.request_id, req.demand, req.issue_time, req.attempts)
        n_fs = max(want - attempt, 1)
        advance_network(net, now)
        sel = select(net, src, dst, n_fs, policy, params)
        path = sel.path
        if path is not None:
            block = sel.block
            assert block is not None
            b = busy[stage]
            wait = b - now if b > now else 0.0
            a = alphas.get(id(path))
            if a is None:
                a = alphas[id(path)] = alpha(params, path)
            bb = betas.get(n_fs)
            if bb is None:
                bb = betas[n_fs] = beta(params, n_fs)
            # ``transfer_time``'s expression: alpha + bits * beta + wait
            complete = now + (a + msg_bits * bb + wait)
            # a transfer too short to move the clock holds no spectrum
            if complete > now:
                allocate_spectrum(net, path.links, (block.f_start, block.f_end), complete,
                                  training=True)
            # the sender's transmitter is busy until the last bit is pushed
            # (queue + serialization); propagation happens in flight
            until = now + wait + msg_bits * bb
            if until > b:
                busy[stage] = until
            deliver(TransferRecord(
                request_id, tid, cid, src, dst, "optical", n_fs, block.f_start, block.f_end,
                path.nodes, attempt, issue_time, now, complete,
            ))
            continue

        if attempt < max_retries:
            if req is None:
                req = _Request(request_id, cid, src, dst, want, issue_time, 0)
            req.attempts = attempt + 1
            retry = now + backoff
            if not isfinite(retry):
                raise TimeOverflowError("retry")
            push(heap, (retry, stage, tid, req))
            continue

        # retries exhausted: degraded fallback delivery, no spectrum held
        # (the penalty scales the route service time, not the local queue wait)
        path0 = net.paths.candidates(src, dst, k)[0]
        b = busy[stage]
        wait = b - now if b > now else 0.0
        complete = now + (policy.fallback_penalty * transfer_time(params, path0, 1, msg_bits)
                          + wait)
        until = now + wait + policy.fallback_penalty * msg_bits * beta(params, 1)
        if until > b:
            busy[stage] = until
        deliver(TransferRecord(
            request_id, tid, cid, src, dst, "fallback", 1, -1, -1, None, attempt,
            issue_time, now, complete,
        ))

    if started != n:
        raise RuntimeError(
            f"deadlock: {n - started} tasks never became ready (cyclic dependencies?)"
        )
    makespan = max(finish, default=0.0)
    advance_network(net, makespan)
    leaked = net.holdings(training=True)
    if leaked:
        raise RuntimeError(f"training allocations leaked past iteration end: {leaked}")
    return Timeline(tasks, start, finish, transfers, makespan)


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
