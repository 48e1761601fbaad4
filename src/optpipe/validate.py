"""The reference layer: oracles behind ``optpipe validate`` and the tests.

Every check pits a production code path against an independent reference
written the slow, obvious way: closed-form pipeline algebra, exhaustive
path/block enumeration, direct transition-count loops, log replay, and an
event loop that puts every task finish and message arrival on its heap.
A corrupted implementation (say, a wrong contiguity window constant) makes
the corresponding check fail, so these double as mutation-test targets.
Each randomized brute-force loop lives here once, with its seed and size as
parameters; the tests call the same checks and import the same ``ref_*``
functions, ``random_instance``, ``bit_positions`` and ``one_link_exhaustive``.
Selection is checked through ``engine.select``, first fit's lowest block
included.  Each engine-level experiment runs once: ``check_engine_reference``
holds every iteration, audit and label of one quiet and one loaded cell to
the reference.  The free-block reference is one slot-by-slot loop,
``ref_free_starts``, over the plain slot tuples of ``Link.occupancy``.

This is the one module that imports numpy (the ``validate`` extra), and
only where a numpy reference is the point: ``ref_arrivals`` draws a
background tape with numpy itself, the reference for the plain-Python draws
of ``optpipe.rng``, and the seeded random instances are drawn with numpy's
generator.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from typing import Sequence

import numpy as np

from . import cba, engine, rsa, topology, workload
from . import rng as rng_port
from .latency import LatencyParams, beta, transfer_time


# ----------------------------------------------------------------------
# reference implementations (independent of the production paths)


def _rises(occ: list[int], f0: int, f1: int) -> int:
    """Free-to-occupied steps j-1 -> j over the window of block [f0, f1]:
    j from f0 through f1 + 1, the slot past its right edge."""
    span = range(max(1, f0), min(len(occ) - 1, f1 + 1) + 1)
    return sum(1 for j in span if occ[j - 1] == 0 and occ[j] == 1)


def _km(net: topology.Network, nodes: tuple[str, ...]) -> float:
    total = 0.0
    for u, v in zip(nodes, nodes[1:]):
        total += net.link_between(u, v).length_km
    return total


def ref_ci(occ: list[int], f0: int, f1: int) -> float:
    return max(0.0, min(1.0, 1.0 - _rises(occ, f0, f1) / max(f1 - f0, 1)))


def ref_simple_paths(net: topology.Network, src: str, dst: str) -> list[tuple[str, ...]]:
    """All simple paths by (length, hops, node sequence), via DFS."""
    paths: list[tuple[float, int, tuple[str, ...]]] = []

    def walk(node: str, seen: tuple[str, ...]) -> None:
        if node == dst:
            paths.append((_km(net, seen), len(seen) - 1, seen))
            return
        for nbr in net.adjacency[node]:
            if nbr not in seen:
                walk(nbr, seen + (nbr,))

    walk(src, (src,))
    paths.sort()
    return [nodes for _, _, nodes in paths]


def _aggregate(net: topology.Network, nodes: tuple[str, ...]) -> list[int]:
    agg = [0] * net.fs_total
    for link in net.path_links(nodes):
        for j, bit in enumerate(link.occupancy):
            agg[j] |= bit
    return agg


def ref_free_starts(occ: Sequence[int], width: int) -> list[int]:
    """All start slots f such that slots f..f+width-1 are free in ``occ``, ascending.

    Slot by slot; tests hold the bitset helpers of ``topology`` to it.
    """
    if width < 1:
        return []
    return [
        f for f in range(len(occ) - width + 1)
        if all(occ[f + i] == 0 for i in range(width))
    ]


def bit_positions(bits: int) -> list[int]:
    """Indices of the set bits of an int, ascending: a bitmask as a list of slots."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def ref_blocks(net: topology.Network, nodes: tuple[str, ...], width: int) -> list[int]:
    return ref_free_starts(_aggregate(net, nodes), width)


def ref_gamma(net: topology.Network, nodes: tuple[str, ...],
              width: int) -> tuple[float, list[int], list[int]]:
    """(gamma, free starts, clamped transition counts) per the documented rules:
    mean-per-link availability divisor, integer-count contiguity mean with the
    positive floor so that zero means exactly "no feasible block"."""
    links = net.path_links(nodes)
    occupied_total = sum(sum(link.occupancy) for link in links)
    agg = _aggregate(net, nodes)
    starts = ref_free_starts(agg, width)
    delta = 1.0 - occupied_total / (len(links) * net.fs_total)
    if not starts or delta <= 0.0:
        return 0.0, starts, []
    d = max(width - 1, 1)
    m = [min(_rises(agg, f, f + width - 1), d) for f in starts]
    n = len(starts)
    mean_ci = (n * d - sum(m)) / (n * d)
    return max(mean_ci, 1e-9) / (_km(net, nodes) * delta), starts, m


def ref_select(net: topology.Network, src: str, dst: str, width: int, k: int,
               selector: str, params: LatencyParams,
               ) -> tuple[tuple[str, ...] | None, int | None, float | None]:
    """(path nodes, start slot, CBA's winning gamma) per the documented
    tie-breaks; None where blocked, and gamma None for the first-fit selectors."""
    all_paths = ref_simple_paths(net, src, dst)[:k]
    if selector == "sd_ff":
        def prop(nodes):
            return (_km(net, nodes) * params.prop_s_per_km
                    + (len(nodes) - 1) * params.per_hop_overhead_s)
        all_paths = sorted(all_paths, key=prop)
    if selector in ("ksp_ff", "sd_ff"):
        for nodes in all_paths:
            starts = ref_blocks(net, nodes, width)
            if starts:
                return nodes, starts[0], None
        return None, None, None
    best = None
    for i, nodes in enumerate(all_paths):
        gamma, starts, m = ref_gamma(net, nodes, width)
        if gamma <= 0.0:
            continue
        key = (-gamma, _km(net, nodes), len(nodes) - 1, i)
        if best is None or key < best[0]:
            best = (key, nodes, starts[m.index(min(m))], gamma)
    if best is None:
        return None, None, None
    return best[1], best[2], best[3]


def ref_arrivals(model: topology.BackgroundTrafficModel, n_nodes: int,
                 count: int) -> list[tuple[float, int, int, int, float]]:
    """The first ``count`` arrivals of a model's tape over ``n_nodes`` nodes,
    drawn with numpy in the documented order: (gap, source, destination,
    demand, hold), the destination index with its offset applied."""
    gen = np.random.default_rng(model.rng_seed)
    lo, hi = model.fs_demand_range
    out = []
    for _ in range(count):
        gap = gen.exponential(1.0 / model.arrival_rate_per_s)
        i = int(gen.integers(0, n_nodes))
        j = int(gen.integers(0, n_nodes - 1))
        demand = int(gen.integers(lo, hi + 1))
        out.append((gap, i, j + 1 if j >= i else j, demand, gen.exponential(model.mean_hold_s)))
    return out


def random_instance(rng: np.random.Generator) -> topology.Network:
    """Small connected network with random lengths and random occupancy."""
    n = int(rng.integers(2, 6))
    names = [chr(ord("A") + i) for i in range(n)]
    specs = []
    seen = set()
    for i in range(1, n):  # random spanning tree keeps it connected
        j = int(rng.integers(0, i))
        specs.append((names[j], names[i], float(rng.integers(1, 20))))
        seen.add(frozenset((names[j], names[i])))
    for a, b in itertools.combinations(names, 2):
        if frozenset((a, b)) not in seen and rng.random() < 0.4:
            specs.append((a, b, float(rng.integers(1, 20))))
    F = int(rng.integers(4, 11))
    net = topology.Network(names, specs, fs_total=F)
    for link in net.links:
        # write occupancy directly; these nets are never advanced in time
        topology.set_link_occupancy(net, link.index, rng.random(F) < rng.uniform(0.1, 0.9))
    return net


class _RefSim:
    """The engine's event loop the plain way: every task finish, message
    arrival and retry is an event on one heap, ordered by (time, stage,
    task id, push sequence), and a task starts when the event that meets
    its last dependency pops."""

    FINISH, ARRIVAL, RETRY = 0, 1, 2
    TERMS = ("compute", "transfer", "retry")  # the term each kind's time adds

    def __init__(self, net, stages, tasks, policy, params, demand, msg_bits):
        self.net, self.tasks, self.policy, self.params = net, tasks, policy, params
        self.msg_bits = msg_bits
        self.stage_dc = {s.stage_id: s.dc_node for s in stages}
        self.demand = demand
        self.base_demand = min(policy.base_fs, policy.fs_max)
        self.busy_until: dict[int, float] = {}  # per stage: its last bit pushed
        self.start = [math.nan] * len(tasks)
        self.finish = [math.nan] * len(tasks)
        self.unmet = [(t.chain_pred is not None) + (t.msg_pred is not None) for t in tasks]
        self.heap: list = []
        self.seq = itertools.count()
        self.transfers: list[engine.TransferRecord] = []
        self.req_counter = 0

    def push(self, time, task, kind, req=None):
        if not math.isfinite(time):
            raise engine.TimeOverflowError(self.TERMS[kind])
        heapq.heappush(self.heap, (time, task.stage_id, task.id, next(self.seq), kind, req))

    def run(self) -> engine.Timeline:
        tasks, unmet = self.tasks, self.unmet
        for t in tasks:
            if not unmet[t.id]:
                self.start_task(t, 0.0)
        finished = 0
        while self.heap:
            now, _, tid, _, kind, req = heapq.heappop(self.heap)
            if kind == self.RETRY:
                self.attempt(req, now)
            elif kind == self.FINISH:
                finished += 1
                task = tasks[tid]
                if task.chain_next is not None:
                    unmet[task.chain_next] -= 1
                    if not unmet[task.chain_next]:
                        self.start_task(tasks[task.chain_next], now)
                if task.msg_next is not None:
                    self.issue(task, now)
            else:
                unmet[tid] -= 1
                if not unmet[tid]:
                    self.start_task(tasks[tid], now)
        if finished != len(tasks):
            raise RuntimeError(f"deadlock: {len(tasks) - finished} tasks never became ready")
        makespan = max(self.finish, default=0.0)
        topology.advance_network(self.net, makespan)
        if self.net.holdings(training=True):
            raise RuntimeError("training allocations leaked past iteration end")
        return engine.Timeline(tasks, self.start, self.finish, self.transfers, makespan)

    def start_task(self, task, ready):
        self.start[task.id] = ready
        self.finish[task.id] = ready + task.compute_s
        self.push(self.finish[task.id], task, self.FINISH)

    def issue(self, task, now):
        consumer = self.tasks[task.msg_next]
        self.req_counter += 1
        rid = self.req_counter
        src, dst = self.stage_dc[task.stage_id], self.stage_dc[consumer.stage_id]
        if src == dst:
            complete = now + transfer_time(self.params, None, 1, self.msg_bits)
            self.deliver(consumer, complete, engine.TransferRecord(
                rid, task.id, consumer.id, src, dst, "intra", 0, -1, -1, None, 0,
                now, now, complete))
            return
        demand = self.demand.get(consumer.id, self.base_demand)
        # (request id, producer, consumer, src, dst, demand, issue time, attempts)
        self.attempt([rid, task, consumer, src, dst, demand, now, 0], now)

    def deliver(self, consumer, complete, record):
        self.transfers.append(record)
        self.push(complete, consumer, self.ARRIVAL)

    def pending(self, stage, now):
        return max(0.0, self.busy_until.get(stage, 0.0) - now)

    def occupy(self, stage, until):
        if until > self.busy_until.get(stage, 0.0):
            self.busy_until[stage] = until

    def attempt(self, req, now):
        rid, producer, consumer, src, dst, demand, issue_time, attempt = req
        topology.advance_network(self.net, now)
        req[7] += 1
        n_fs = max(demand - attempt, 1)
        p, bits, stage = self.policy, self.msg_bits, producer.stage_id
        sel = engine.select(self.net, src, dst, n_fs, p, self.params)
        if sel.path is not None:
            pen = self.pending(stage, now)
            complete = now + transfer_time(self.params, sel.path, n_fs, bits, pen)
            if complete > now:
                topology.allocate_spectrum(self.net, sel.path.links,
                                           (sel.block.f_start, sel.block.f_end), complete,
                                           training=True)
            self.occupy(stage, now + pen + bits * beta(self.params, n_fs))
            self.deliver(consumer, complete, engine.TransferRecord(
                rid, producer.id, consumer.id, src, dst, "optical", n_fs, sel.block.f_start,
                sel.block.f_end, sel.path.nodes, attempt, issue_time, now, complete))
        elif attempt < p.max_retries:
            self.push(now + p.retry_backoff_s, producer, self.RETRY, req)
        else:
            path0 = self.net.paths.candidates(src, dst, p.k)[0]
            pen = self.pending(stage, now)
            complete = now + (p.fallback_penalty * transfer_time(self.params, path0, 1, bits)
                              + pen)
            self.occupy(stage, now + pen + p.fallback_penalty * bits * beta(self.params, 1))
            self.deliver(consumer, complete, engine.TransferRecord(
                rid, producer.id, consumer.id, src, dst, "fallback", 1, -1, -1, None, attempt,
                issue_time, now, complete))


def ref_simulate_iteration(
    net: topology.Network,
    stages,
    tasks,
    policy: engine.PolicyConfig,
    params: LatencyParams,
    demand: dict[int, int] | None = None,
    msg_bits: float = 0.0,
) -> engine.Timeline:
    """``engine.simulate_iteration`` with every event on the heap (``_RefSim``)."""
    sim = _RefSim(net, stages, tasks, policy, params, demand or {}, msg_bits)
    net.rebase(net.now)
    return sim.run()


def ref_orchestrate(
    config: cba.OrchestratorConfig,
    net: topology.Network,
    stages,
    tasks,
    policy: engine.PolicyConfig,
    params: LatencyParams,
    msg_bits: float,
) -> list[cba.IterationResult]:
    """``cba.orchestrate`` the plain way: every iteration is simulated, by
    ``ref_simulate_iteration``."""
    labels = None
    boost = policy.boost_factor
    demand: dict[int, int] = {}
    results = []
    for _ in range(config.n_iterations):
        if policy.selector == "cba":
            demand, boost = cba.plan_requests(labels, config, tasks, policy, boost)
        timeline = ref_simulate_iteration(
            net, stages, tasks, policy, params, demand=demand, msg_bits=msg_bits,
        )
        if policy.selector == "cba":
            labels = cba.label_cb_tasks(timeline, config.epsilon_bubble_s)
        results.append(cba.IterationResult(timeline, labels))
    return results


def orchestrate_mismatch(got: list[cba.IterationResult],
                         want: list[cba.IterationResult]) -> str | None:
    """The first iteration where ``got`` and ``want`` differ in labels,
    makespan or event-log lines, which carry every task time and request
    record that the other metrics read; None if none."""
    def view(r: cba.IterationResult) -> tuple:
        return r.labels, r.timeline.iteration_makespan, r.timeline.event_log_lines()

    if len(got) != len(want):
        return f"{len(got)} iterations, want {len(want)}"
    for it, (g, w) in enumerate(zip(got, want)):
        if view(g) != view(w):
            return f"iteration {it} differs from the plain loop"
    return None


# ----------------------------------------------------------------------
# checks


def check_bubble_closed_form(ms: Sequence[int] = (8, 16, 32)) -> tuple[bool, str]:
    """GPipe over eight stages in one datacenter without communication: the
    bubble ratio at each microbatch count in ``ms`` is (p-1)/(m+p-1), and
    ``cba.label_cb_tasks`` labels nothing, since no input crosses the
    network although the stages idle."""
    p = 8
    profile = workload.build_profile(
        "uniform", n_layers=p, fwd_time_per_layer_s=2e-3,
        bwd_time_per_layer_s=4e-3, msg_bytes_per_microbatch=1,
    )
    stages = workload.partition_stages(profile, p, ["WA"] * p)
    params = LatencyParams(intra_dc_latency_s=0.0)
    worst = 0.0
    labeled = 0
    for m in ms:
        tasks = workload.build_schedule(workload.ScheduleKind.GPIPE, stages, m)
        tl = engine.simulate_iteration(
            topology.load_nsfnet(), stages, tasks, engine.PolicyConfig(), params, msg_bits=0.0,
        )
        expected = (p - 1) / (m + p - 1)
        worst = max(worst, abs(engine.bubble_ratio(tl) - expected))
        labeled += len(cba.label_cb_tasks(tl).cb_tasks)
    return worst < 1e-9 and not labeled, (f"max |simulated - analytic| = {worst:.2e}, "
                                          f"{labeled} tasks labeled CB")


def one_link_exhaustive(F: int) -> tuple[int, str | None]:
    """Production CBA scoring against the reference on a one-link path.

    For every occupancy vector of F slots and every width 1..F,
    ``rsa.fitness`` must equal ``ref_gamma`` and ``select_cba`` must return
    ``ref_select``'s block and gamma, all exactly.  Returns the number of
    evaluations and the first mismatch, or None.
    """
    net = topology.Network(["A", "B"], [("A", "B", 1.0)], fs_total=F)
    path = net.paths.candidates("A", "B", 1)[0]
    params = LatencyParams()
    evaluations = 0
    for bits in range(2 ** F):
        occ = [(bits >> j) & 1 for j in range(F)]
        topology.set_link_occupancy(net, 0, occ)
        for width in range(1, F + 1):
            evaluations += 1
            got = rsa.fitness(net, path, width)
            want = ref_gamma(net, path.nodes, width)[0]
            sel = rsa.select_cba(net, "A", "B", width, 1)
            _, want_start, want_gamma = ref_select(net, "A", "B", width, 1, "cba", params)
            got_start = sel.block.f_start if sel.block else None
            if (got, got_start, sel.fitness) != (want, want_start, want_gamma or 0.0):
                return evaluations, (
                    f"occupancy {occ} width {width}: fitness {got!r}, "
                    f"selected {sel.fitness!r} at {got_start}; want {want!r}, "
                    f"selected {want_gamma!r} at {want_start}"
                )
    return evaluations, None


def check_ci_reference() -> tuple[bool, str]:
    evaluations, mismatch = one_link_exhaustive(8)
    if mismatch is not None:
        return False, mismatch
    return True, (f"{evaluations} one-link window cases at F=8: fitness and CBA's block "
                  "equal the reference")


def _random_pair(rng: np.random.Generator) -> tuple[topology.Network, str, str]:
    """A ``random_instance`` and two distinct nodes of it."""
    net = random_instance(rng)
    i, j = rng.choice(len(net.nodes), size=2, replace=False)
    return net, net.nodes[int(i)], net.nodes[int(j)]


def check_selection_bruteforce(n_instances: int = 200, seed: int = 7) -> tuple[bool, str]:
    """Every selector through ``engine.select`` against ``ref_select``: the
    path, the start slot and CBA's gamma (0.0 for first fit and when blocked)."""
    rng = np.random.default_rng(seed)
    params = LatencyParams()
    for i in range(n_instances):
        net, src, dst = _random_pair(rng)
        width = int(rng.integers(1, 4))
        k = int(rng.choice([1, 2, 3, 8]))
        # a spare draw, where a contiguity rule was once picked: it keeps every
        # seed's sequence of instances
        rng.integers(0, 3)
        for selector in engine.SELECTORS:
            policy = engine.PolicyConfig(selector=selector, k=k)
            sel = engine.select(net, src, dst, width, policy, params)
            got = (sel.path.nodes if sel.path else None,
                   sel.block.f_start if sel.block else None, sel.fitness)
            want_nodes, want_start, want_gamma = ref_select(net, src, dst, width, k,
                                                            selector, params)
            if got != (want_nodes, want_start, want_gamma or 0.0):
                return False, (f"instance {i} {selector}: got {got}, "
                               f"want {(want_nodes, want_start, want_gamma)}")
    return True, f"{n_instances} random instances, {len(engine.SELECTORS)} selectors each"


def check_ksp_bruteforce(n_instances: int = 100, seed: int = 11,
                         ks: Sequence[int] = (1, 2, 3, 10)) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    for i in range(n_instances):
        net, src, dst = _random_pair(rng)
        k = int(rng.choice(ks))
        got = [p.nodes for p in net.paths.candidates(src, dst, k)]
        every = ref_simple_paths(net, src, dst)
        if got != every[:k]:
            return False, f"instance {i}: got {got}, want {every[:k]}"
        # the background route: a src->dst walk of the brute-force minimum length
        node, km = src, 0.0
        for link in net.paths.background(src, dst):
            if node not in (link.a, link.b):
                return False, f"instance {i}: background route breaks at {link!r}"
            node = link.b if node == link.a else link.a
            km += link.length_km
        if node != dst or not math.isclose(km, _km(net, every[0]), rel_tol=1e-12):
            return False, (f"instance {i}: background route ends at {node} after {km} km; "
                           f"want {dst} after {_km(net, every[0])} km")
    return True, f"{n_instances} random instances, candidates and background route"


def _reference_cell(schedule: workload.ScheduleKind, m: int, fs_total: int,
                    background: topology.BackgroundTrafficModel | None = None):
    """(start snapshot, stages, tasks, message bits) of the 8B model over eight
    stages, no two neighbours in one datacenter, on NSFNET at ``fs_total``
    slots; a background is prewarmed for five mean holding times."""
    profile = workload.build_profile("llama3-8b-like")
    stages = workload.partition_stages(profile, 8,
                                       ["WA", "CA1", "TX", "IL", "NY", "GA", "WA", "TX"])
    net = topology.load_nsfnet(fs_total=fs_total)
    if background is not None:
        net.attach_background(background)
        topology.advance_network(net, 5.0 * background.mean_hold_s)
    return (net.snapshot(), stages, workload.build_schedule(schedule, stages, m),
            profile.msg_bytes_per_microbatch * 8)


def check_engine_reference() -> tuple[bool, str]:
    """Every policy's ``cba.orchestrate`` against ``ref_orchestrate`` (the
    all-events loop) with ``fs_max`` 8 on two cells.  Quiet: 1F1B m=8 at 8
    slots, 8 iterations; two of CBA's plans share labels but not boost, and a
    repeated plan reuses a timeline.  Loaded: GPipe m=16 at 24 slots under
    ``loaded_background(5)``, 4 iterations that block, retry and fall back.
    Each iteration equals the reference, its record and log audits agree,
    and its CB labels are sound: CBA's own, and those ``label_cb_tasks`` gives
    a baseline's unlabeled timeline.  No run leaves a training holding."""
    cells = {
        "quiet": (_reference_cell(workload.ScheduleKind.ONE_F_ONE_B, 8, 8), 8),
        "loaded": (_reference_cell(workload.ScheduleKind.GPIPE, 16, 24,
                                   topology.loaded_background(5)), 4),
    }
    n = Counter()
    for name, ((start, stages, tasks, msg_bits), n_iterations) in cells.items():
        config = cba.OrchestratorConfig(n_iterations=n_iterations)
        net = start.network
        for selector in engine.SELECTORS:
            where = f"{name} {selector}"
            args = (config, net, stages, tasks, engine.PolicyConfig(selector=selector, fs_max=8),
                    LatencyParams(), msg_bits)
            net.restore(start)
            got = cba.orchestrate(*args)
            if net.holdings(training=True):
                return False, f"{where}: a training holding outlived the run"
            topology.audit_occupancy(net)
            net.restore(start)
            mismatch = orchestrate_mismatch(got, ref_orchestrate(*args))
            if mismatch is not None:
                return False, f"{where}: {mismatch}"
            n["iterations"] += len(got)
            n[name, "reused"] += len(got) - len({id(r) for r in got})
            for it, r in enumerate(got):
                tl, end = r.timeline, r.timeline.iteration_makespan
                audited = engine.audit_transfers(net, tl.transfers, end)
                if engine.audit_event_log(net, tl.event_log_lines(), end) != audited:
                    return False, f"{where} iteration {it}: the record and log audits disagree"
                if selector == "cba":
                    n["cba labels"] += cba.verify_label_soundness(tl, r.labels)
                elif r.labels is not None:
                    return False, f"{where}: iteration {it} is labeled"
                else:
                    n["baseline labels"] += cba.verify_label_soundness(tl, cba.label_cb_tasks(tl))
                n["audited"] += audited
                n[name, "blocked"] += tl.blocked_requests
                n[name, "fallbacks"] += sum(x.kind == "fallback" for x in tl.transfers)
    ok = n["quiet", "reused"] > 0 and n["loaded", "blocked"] > 0 and n["loaded", "fallbacks"] > 0
    return ok, (f"{n['iterations']} iterations equal the all-events loop; quiet: "
                f"{n['quiet', 'reused']} reused; loaded: {n['loaded', 'blocked']} blocked, "
                f"{n['loaded', 'fallbacks']} fell back; {n['audited']} transfers audited; "
                f"{n['cba labels']} CBA and {n['baseline labels']} baseline CB labels sound")


def check_demand_bounds() -> tuple[bool, str]:
    """Every width ``cba.plan_requests`` plans lies in [1, fs_max]."""
    stages = workload.partition_stages(workload.build_profile("llama3-8b-like"), 2, ["A", "B"])
    tasks = workload.build_schedule(workload.ScheduleKind.GPIPE, stages, 2)
    # the four message edges carry the four label combinations: none, CB,
    # blocked, both
    edges = [t for t in tasks if t.msg_pred is not None]
    labels = cba.LabelSet(cb_tasks={edges[1].id, edges[3].id},
                          blocked_tasks={edges[2].msg_pred, edges[3].msg_pred})
    config = cba.OrchestratorConfig()
    for base in range(1, 20):
        for boost in (1.0, 1.5, 2.0, 4.0, 1e308):
            for fs_max in range(1, 20):
                # a block-free iteration at the configured boost keeps it
                policy = engine.PolicyConfig(base_fs=base, boost_factor=boost, fs_max=fs_max)
                demand, _ = cba.plan_requests(labels, config, tasks, policy, boost)
                if sorted(demand) != sorted(t.id for t in edges[1:]) or not all(
                        1 <= n <= fs_max for n in demand.values()):
                    return False, f"base {base}, boost {boost}, fs_max {fs_max}: {demand}"
    return True, "1805 plans of the four label combinations stayed in [1, fs_max]"


def check_occupancy_rebuild(n_steps: int = 300, seed: int = 23,
                            fs_total: int = 16) -> tuple[bool, str]:
    """Holdings end by the clock.  A random mix of allocations (release times
    on a half-second grid, so they tie), clock steps, rebases and snapshot
    restores runs on a network without background, next to a plain list of
    the blocks held.  After each step every link's int is the OR of the
    listed blocks on it, ``holdings`` lists them, and a clock step reports
    one change per block that expired."""
    rng = np.random.default_rng(seed)
    net = topology.load_nsfnet(fs_total=fs_total)
    nodes = net.nodes
    # (release_time, f0, f1, link indices, training); rebuilt at each change,
    # never mutated, so the copy saved with a snapshot stays as it was
    held: list[tuple[float, int, int, tuple[int, ...], bool]] = []
    saved = None
    expired = 0
    for step in range(n_steps):
        roll = rng.random()
        if roll < 0.25:
            now = net.now + 0.5 * int(rng.integers(0, 4))
            gone = sum(t <= now for t, *_ in held)
            held = [h for h in held if h[0] > now]
            changes = topology.advance_network(net, now)
            if changes != gone:
                return False, f"step {step}: {changes} changes, {gone} blocks expired"
            expired += gone
        elif roll < 0.3:
            origin = net.now
            net.rebase(origin)
            held = [(t - origin, f0, f1, idx, training) for t, f0, f1, idx, training in held]
        elif roll < 0.4:
            if saved is None or rng.random() < 0.5:
                saved = net.snapshot(), held
            else:
                net.restore(saved[0])
                held = saved[1]
        else:
            i, j = rng.choice(len(nodes), size=2, replace=False)
            links = net.paths.candidates(nodes[int(i)], nodes[int(j)], 1)[0].links
            width = int(rng.integers(1, 4))
            start = topology.first_free_run(topology.path_bits(links), width, fs_total)
            if start is None:
                continue
            release = net.now + 0.5 * int(rng.integers(1, 8))
            training = bool(rng.random() < 0.5)
            topology.allocate_spectrum(net, links, (start, start + width - 1), release,
                                       training=training)
            held = held + [(release, start, start + width - 1,
                            tuple(link.index for link in links), training)]
        want = [0] * len(net.links)
        for _, f0, f1, idx, _ in held:
            for index in idx:
                want[index] |= sum(1 << f for f in range(f0, f1 + 1))
        if [link.bits for link in net.links] != want:
            return False, f"step {step}: link spectrum differs from the held blocks"
        for kind in (True, False):
            if net.holdings(kind) != sorted(h[:4] for h in held if h[4] == kind):
                return False, f"step {step}: holdings(training={kind}) differ from the list"
        topology.audit_occupancy(net)
    return True, f"{n_steps} random steps freed {expired} blocks by the clock, as listed"


def check_rng_port() -> tuple[bool, str]:
    """The run's draws equal numpy's: background tapes, placements, and a long
    exponential stream that takes the ziggurat's slow paths."""
    nodes = topology.load_nsfnet().nodes
    for seed in (0, 31, 2**32 + 7):
        tape = topology.ArrivalTape(topology.loaded_background(seed), nodes)
        for _ in range(500):
            tape.draw()
        got = list(zip(tape.gaps, tape.src, tape.dst, tape.demand, tape.hold))
        for k, want in enumerate(ref_arrivals(tape.model, len(nodes), 500)):
            if got[k] != want:
                return False, f"seed {seed}: arrival {k} is {got[k]}, numpy draws {want}"
        placement = np.random.default_rng([seed, 101]).integers(0, 6, size=8).tolist()
        if rng_port.default_rng([seed, 101]).integers(0, 6, size=8) != placement:
            return False, f"seed {seed}: placement indices differ from numpy's {placement}"
    got, want = rng_port.default_rng(5), np.random.default_rng(5)
    if [got.standard_exponential() for _ in range(20_000)] != \
            want.standard_exponential(20_000).tolist():
        return False, "20000 standard exponentials of seed 5 differ from numpy's"
    return True, "1500 arrivals, 3 placements and 20000 exponentials equal numpy's"


def check_start_state() -> tuple[bool, str]:
    """A network restored from the harness's start-state memo replays the
    background of a freshly prewarmed one, after every run: at each step the
    change count, the holdings (release times, blocks and links) and the
    link spectrum agree."""
    from . import cli

    cfg = cli.RunConfig.from_flat({"bg.preset": "loaded", "cba.n_iterations": 2})
    steps = [0.1 * i for i in range(1, 31)]
    for seed in (0, 31):
        fresh = cfg.build_network()
        fresh.attach_background(cfg.background(seed))
        topology.advance_network(fresh, cfg.prewarm_s())
        want = [(topology.advance_network(fresh, cfg.prewarm_s() + dt), fresh.holdings(),
                 [link.bits for link in fresh.links]) for dt in steps]
        start = cfg.start_state(seed)
        net = start.network
        for run in range(3):
            net.restore(start)
            got = [(topology.advance_network(net, cfg.prewarm_s() + dt), net.holdings(),
                    [link.bits for link in net.links]) for dt in steps]
            if got != want:
                bad = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
                return False, (f"seed {seed}, restore {run + 1}: the state after "
                               f"{steps[bad]:.1f} s differs from a fresh prewarm's")
            # a policy run of the cell, before the next restore
            cli.run_cell(cfg, ["ksp_ff"], "llama3-8b-like", "gpipe", 2, seed)
    return True, "3 restores of 2 seeds replay 3 s of background like a fresh prewarm"


def run_all() -> list[tuple[str, bool, str]]:
    checks = [
        ("bubble-closed-form", check_bubble_closed_form),
        ("ci-reference", check_ci_reference),
        ("selection-bruteforce", check_selection_bruteforce),
        ("ksp-bruteforce", check_ksp_bruteforce),
        ("engine-reference", check_engine_reference),
        ("demand-bounds", check_demand_bounds),
        ("occupancy-rebuild", check_occupancy_rebuild),
        ("rng-port", check_rng_port),
        ("start-state", check_start_state),
    ]
    report = []
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001
            ok, detail = False, f"raised {exc!r}"
        report.append((name, ok, detail))
    return report
