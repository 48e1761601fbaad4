from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optpipe import cba, engine, validate
from optpipe.cli import DEFAULT_DC_NODES, RunConfig
from optpipe.engine import (
    SELECTORS,
    PolicyConfig,
    Timeline,
    TransferRecord,
    audit_event_log,
    audit_transfers,
    blocking_probability,
    bubble_ratio,
    simulate_iteration,
)
from optpipe.latency import LatencyParams, transfer_time
from optpipe.topology import (
    BackgroundTrafficModel,
    Network,
    advance_network,
    allocate_spectrum,
    audit_occupancy,
    load_nsfnet,
    loaded_background,
    set_link_occupancy,
)
from optpipe.workload import (
    ScheduleKind,
    Stage,
    build_profile,
    build_schedule,
    partition_stages,
)

ZERO_COMM = LatencyParams(intra_dc_latency_s=0.0)


def toy_stages(p, placement, fwd=1e-3, bwd=2e-3):
    profile = build_profile(
        "flat", n_layers=p, fwd_time_per_layer_s=fwd, bwd_time_per_layer_s=bwd,
        msg_bytes_per_microbatch=1,
    )
    return partition_stages(profile, p, placement)


def block_lines(tl):
    """The (attempts, outcome) of each BLOCK line, checked against its request's
    XFER line: the same producer, one attempt more than the retries, and
    ``dropped_never`` exactly for a fallback delivery.  Lines come in request
    id order."""
    fields = [line.split("\t") for line in tl.event_log_lines()]
    xfers = {f[1]: f for f in fields if f[0] == "XFER"}
    blocks = [f for f in fields if f[0] == "BLOCK"]
    assert [int(f[1]) for f in blocks] == sorted(int(f[1]) for f in blocks)
    out = []
    for _, rid, producer, attempts, outcome in blocks:
        x = xfers[rid]
        assert producer == x[2]
        assert int(attempts) == int(x[11]) + 1
        assert outcome == ("dropped_never" if x[6] == "fallback" else "eventually_sent")
        out.append((int(attempts), outcome))
    return out


class TestSerialChain:
    def test_p2_m1_zero_latency_is_exact_sum(self):
        net = load_nsfnet()
        profile = build_profile(
            "uneven", n_layers=2, fwd_time_per_layer_s=1.0, bwd_time_per_layer_s=3.0,
            msg_bytes_per_microbatch=1,
        )
        stages = partition_stages(profile, 2, ["WA", "WA"])
        tasks = build_schedule(ScheduleKind.GPIPE, stages, 1)
        tl = simulate_iteration(net, stages, tasks, PolicyConfig(), ZERO_COMM, msg_bits=0.0)
        # forward 0, forward 1, backward 1, backward 0 in strict sequence
        assert tl.iteration_makespan == pytest.approx(1.0 + 1.0 + 3.0 + 3.0, abs=1e-12)
        assert all(t.kind == "intra" for t in tl.transfers)

    def test_single_stage_single_task_no_bubble(self):
        net = load_nsfnet()
        stages = toy_stages(1, ["WA"])
        tasks = build_schedule(ScheduleKind.GPIPE, stages, 1)
        tl = simulate_iteration(net, stages, tasks, PolicyConfig(), ZERO_COMM, msg_bits=0.0)
        assert bubble_ratio(tl) == 0.0


class TestCrossDcTransfer:
    def test_transfer_time_matches_latency_model(self):
        net = Network(["A", "B"], [("A", "B", 1000.0)], fs_total=80)
        stages = toy_stages(2, ["A", "B"], fwd=1e-2, bwd=2e-2)
        tasks = build_schedule(ScheduleKind.GPIPE, stages, 1)
        params = LatencyParams()
        bits = 1e9
        tl = simulate_iteration(net, stages, tasks, PolicyConfig(), params,
                                msg_bits=bits)
        optical = [t for t in tl.transfers if t.kind == "optical"]
        assert len(optical) == 2  # one forward, one backward message
        path = net.paths.candidates("A", "B", 1)[0]
        expect = transfer_time(params, path, 4, bits, 0.0)
        for t in optical:
            assert t.complete_time - t.issue_time == pytest.approx(expect, abs=1e-12)
            assert t.n_fs == 4 and t.f_start == 0
        # spectrum held during the window, free afterwards
        assert all(link.bits == 0 for link in net.links)
        audit_occupancy(net)

    def test_demand_map_sizes_named_requests_and_caps_the_rest(self):
        net = Network(["A", "B"], [("A", "B", 1000.0)], fs_total=80)
        stages = toy_stages(2, ["A", "B"])
        tasks = build_schedule(ScheduleKind.GPIPE, stages, 1)
        forward, backward = (next(t.id for t in tasks if t.msg_pred is not None
                                  and t.stage_id == s) for s in (1, 0))
        # a base above fs_max asks for fs_max where the map names no width
        tl = simulate_iteration(net, stages, tasks, PolicyConfig(base_fs=8, fs_max=6),
                                LatencyParams(), demand={backward: 3}, msg_bits=1e6)
        assert {t.consumer_id: t.n_fs for t in tl.transfers} == {forward: 6, backward: 3}

    def test_total_blocking_still_completes(self):
        net = Network(["A", "B"], [("A", "B", 100.0)], fs_total=8)
        allocate_spectrum(net, [net.link_between("A", "B")], (0, 7), 1e15)
        stages = toy_stages(2, ["A", "B"])
        tasks = build_schedule(ScheduleKind.GPIPE, stages, 2)
        tl = simulate_iteration(net, stages, tasks, PolicyConfig(fs_max=8),
                                LatencyParams(), msg_bits=1e6)
        assert math.isfinite(tl.iteration_makespan)
        assert blocking_probability(tl) == 1.0
        assert all(t.kind == "fallback" for t in tl.transfers)
        assert block_lines(tl) == (
            [(1 + PolicyConfig().max_retries, "dropped_never")] * len(tl.transfers))

    def test_retry_decrements_demand(self):
        # block slots so that width 4 fails but width 3 fits: first retry wins
        net = Network(["A", "B"], [("A", "B", 100.0)], fs_total=8)
        set_link_occupancy(net, 0, [1, 0, 0, 0, 1, 0, 0, 1])
        stages = toy_stages(2, ["A", "B"])
        tasks = build_schedule(ScheduleKind.GPIPE, stages, 1)
        tl = simulate_iteration(net, stages, tasks, PolicyConfig(fs_max=8),
                                LatencyParams(), msg_bits=1e6)
        optical = [t for t in tl.transfers if t.kind == "optical"]
        assert [t.retries for t in optical] == [1, 1]
        assert [t.n_fs for t in optical] == [3, 3]
        assert block_lines(tl) == [(2, "eventually_sent")] * 2
        assert blocking_probability(tl) == 1.0  # first attempts blocked


# 256 MiB per message: pushing one out takes 7.2 ms on 4 slots and 28.6 ms on
# one, far longer than a 1 ms forward pass, so a stage's back-to-back sends queue
BIG_MSG_BITS = 8 * 2**28


def replay_egress(net, tasks, tl, params, policy, bits):
    """Each transfer's wait and completion by the egress rule, replayed from
    its commit instant: it waits until its stage's previous transfer has
    pushed its last bit, then takes its route's service time.  The stage
    stays busy for the wait plus the push of the bits (for a fallback, the
    penalty times the one-slot push)."""
    busy, waits, complete = {}, [], []
    for x in tl.transfers:
        stage, now = tasks[x.task_id].stage_id, x.hold_start
        path = net.paths.candidates(x.src_dc, x.dst_dc, 1)[0]
        if x.kind == "optical":
            push = bits / (x.n_fs * params.fs_rate_bps)
            service = transfer_time(params, path, x.n_fs, bits)
        else:
            push = policy.fallback_penalty * bits / params.fs_rate_bps
            service = policy.fallback_penalty * transfer_time(params, path, 1, bits)
        wait = max(0.0, busy.get(stage, 0.0) - now)
        busy[stage] = now + wait + push
        waits.append(wait)
        complete.append(now + wait + service)
    return waits, complete


class TestEgressQueue:
    def _check(self, net, policy, push):
        """Stage 0 sends at 1, 2 and 3 ms (1 ms forward passes): the third send
        waits for the second, which itself waited for the first.  Every
        completion matches the replayed rule; returns the timeline."""
        stages = toy_stages(2, ["A", "B"])
        tasks = build_schedule(ScheduleKind.GPIPE, stages, 3)
        params = LatencyParams()
        tl = simulate_iteration(net, stages, tasks, policy, params, msg_bits=BIG_MSG_BITS)
        waits, complete = replay_egress(net, tasks, tl, params, policy, BIG_MSG_BITS)
        forward = [w for w, x in zip(waits, tl.transfers) if tasks[x.task_id].stage_id == 0]
        assert forward == pytest.approx([0.0, push - 1e-3, 2 * (push - 1e-3)], abs=1e-12)
        assert [x.complete_time for x in tl.transfers] == pytest.approx(complete, abs=1e-12)
        return tl

    def test_optical_send_waits_for_the_queue_ahead_of_it(self):
        # a busy time without the second send's wait would shorten the third's
        net = Network(["A", "B"], [("A", "B", 1000.0)], fs_total=80)
        tl = self._check(net, PolicyConfig(), BIG_MSG_BITS / (4 * LatencyParams().fs_rate_bps))
        assert all(x.kind == "optical" and x.retries == 0 for x in tl.transfers)

    def test_fallback_keeps_its_stage_busy_for_the_penalised_push(self):
        # every request falls back at once; the stage's transmitter pushes the
        # bits at the one-slot rate, slowed by the fallback penalty
        net = Network(["A", "B"], [("A", "B", 100.0)], fs_total=8)
        allocate_spectrum(net, [net.link_between("A", "B")], (0, 7), 1e15)
        policy = PolicyConfig(fs_max=8, max_retries=0)
        tl = self._check(net, policy,
                         policy.fallback_penalty * BIG_MSG_BITS / LatencyParams().fs_rate_bps)
        assert all(x.kind == "fallback" for x in tl.transfers)


@given(
    kind=st.sampled_from(list(ScheduleKind)),
    p=st.integers(1, 6),
    m=st.integers(1, 8),
    times=st.lists(
        st.tuples(st.floats(1e-4, 2e-2), st.floats(1e-4, 2e-2)), min_size=6, max_size=6
    ),
    dcs=st.lists(st.sampled_from(DEFAULT_DC_NODES[:3]), min_size=6, max_size=6),
    selector=st.sampled_from(SELECTORS),
    bg_seed=st.one_of(st.none(), st.integers(0, 2**31 - 1)),
)
@settings(max_examples=60, deadline=None)
def test_tasks_start_when_their_last_dependency_is_met(
    kind, p, m, times, dcs, selector, bg_seed
):
    # three DCs for up to six stages, so same-DC (intra) and routed messages mix;
    # bg_seed None is the quiet network, otherwise the loaded preset pre-warmed
    net = load_nsfnet()
    bg = None if bg_seed is None else loaded_background(bg_seed)
    if bg is not None:
        net.attach_background(bg)
        advance_network(net, 5.0 * bg.mean_hold_s)
    stages = [
        Stage(s, dcs[s], s, s + 1, fwd, bwd) for s, (fwd, bwd) in enumerate(times[:p])
    ]
    tasks = build_schedule(kind, stages, m)
    tl = simulate_iteration(net, stages, tasks, PolicyConfig(selector=selector),
                            LatencyParams(), msg_bits=16 * 2**20 * 8)
    consumed = {x.consumer_id: x for x in tl.transfers}
    assert len(consumed) == len(tl.transfers) == sum(t.msg_pred is not None for t in tasks)
    assert tl.tasks is tasks
    for task in tasks:
        met = []
        if task.chain_pred is not None:
            met.append(tl.finish[task.chain_pred])
        if task.msg_pred is not None:
            x = consumed[task.id]
            assert x.task_id == task.msg_pred
            assert x.issue_time == tl.finish[task.msg_pred]
            met.append(x.complete_time)
        assert tl.start[task.id] == max(met, default=0.0)
    audit_event_log(net, tl.event_log_lines(), tl.iteration_makespan)


@st.composite
def engine_cases(draw):
    """A random iteration that blocks, retries and falls back: a
    ``validate.random_instance`` network with its spectrum pre-filled,
    background on or off, compute times down to a microsecond (so a stage's
    sends queue at its transmitter), zero backoff and zero retries among the
    choices, and a boosted demand map.  Returns a builder, since each run
    needs a fresh copy of the network."""
    net_seed = draw(st.integers(0, 2**32 - 1))
    nodes = validate.random_instance(np.random.default_rng(net_seed)).nodes
    p = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(list(ScheduleKind)))
    m = draw(st.integers(1, 6))
    # a few fixed compute times make events of different stages tie in time
    compute = st.one_of(st.sampled_from([1e-6, 2.5e-4, 1e-3]), st.floats(1e-6, 1e-3))
    stages = [
        Stage(s, draw(st.sampled_from(nodes)), s, s + 1, draw(compute), draw(compute))
        for s in range(p)
    ]
    tasks = build_schedule(kind, stages, m)
    policy = PolicyConfig(
        selector=draw(st.sampled_from(SELECTORS)),
        k=draw(st.integers(1, 5)),
        base_fs=draw(st.integers(1, 4)),
        fs_max=4,
        max_retries=draw(st.sampled_from([0, 1, 3])),
        retry_backoff_s=draw(st.sampled_from([0.0, 1e-5, 1e-3])),
    )
    consumers = [t.id for t in tasks if t.msg_pred is not None]
    demand = draw(st.dictionaries(st.sampled_from(consumers), st.integers(1, 4))
                  if consumers else st.just({}))
    bg_seed = draw(st.one_of(st.none(), st.integers(0, 2**31 - 1)))
    msg_bits = draw(st.sampled_from([0.0, 8e6, 16 * 2**20 * 8]))

    def build():
        net = validate.random_instance(np.random.default_rng(net_seed))
        if bg_seed is not None:
            net.attach_background(BackgroundTrafficModel(2000.0, 1e-3, (1, 3), bg_seed))
            advance_network(net, 5e-3)
        return net

    return build, stages, tasks, policy, demand, msg_bits


@given(case=engine_cases())
@settings(max_examples=200, deadline=None)
def test_engine_equals_the_all_events_reference(case):
    # the reference puts every finish and arrival on its heap; the engine
    # keeps only issues and retries there, and must decide the same
    build, stages, tasks, policy, demand, msg_bits = case
    nets = [build(), build()]
    got = simulate_iteration(nets[0], stages, tasks, policy, LatencyParams(), demand, msg_bits)
    want = validate.ref_simulate_iteration(nets[1], stages, tasks, policy, LatencyParams(),
                                           demand, msg_bits)
    assert got.iteration_makespan == want.iteration_makespan
    assert got.event_log_lines() == want.event_log_lines()
    assert [x.request_id for x in got.transfers] == [x.request_id for x in want.transfers]
    assert ([link.bits for link in nets[0].links], nets[0].now) == (
        [link.bits for link in nets[1].links], nets[1].now)


def counted_run(build, stages, tasks, policy, demand, msg_bits):
    """The timeline and the number of ``select`` and ``advance_network``
    calls the engine made (both are looked up by name on every call)."""
    calls = {"select": 0, "advance_network": 0}

    def counting(name):
        fn = getattr(engine, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    net = build()
    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            mp.setattr(engine, name, counting(name))
        tl = simulate_iteration(net, stages, tasks, policy, LatencyParams(), demand, msg_bits)
    return tl, calls


@given(case=engine_cases())
@settings(max_examples=100, deadline=None)
def test_one_selection_per_attempt(case):
    # each attempt selects once and advances the network once; the iteration
    # end advances it once more
    tl, calls = counted_run(*case)
    attempts = sum(x.retries + 1 for x in tl.transfers if x.kind != "intra")
    assert calls == {"select": attempts, "advance_network": attempts + 1}


def test_blocked_first_attempt_falls_back_without_a_second_selection():
    net = Network(["A", "B"], [("A", "B", 100.0)], fs_total=8)
    allocate_spectrum(net, [net.link_between("A", "B")], (0, 7), 1e15)
    stages = toy_stages(2, ["A", "B"])
    tasks = build_schedule(ScheduleKind.GPIPE, stages, 3)
    tl, calls = counted_run(lambda: net, stages, tasks, PolicyConfig(fs_max=8, max_retries=0),
                            {}, 1e6)
    assert [(x.kind, x.retries) for x in tl.transfers] == [("fallback", 0)] * 6
    assert calls == {"select": 6, "advance_network": 7}


class TestBubbleRatio:
    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_gpipe_analytic_formula(self, m):
        # pinned GPipe points at p=8, m=64 beyond the property's range below
        p = 8
        net = load_nsfnet()
        stages = toy_stages(p, ["WA"] * p, fwd=2e-3, bwd=4e-3)
        tasks = build_schedule(ScheduleKind.GPIPE, stages, m)
        tl = simulate_iteration(net, stages, tasks, PolicyConfig(), ZERO_COMM, msg_bits=0.0)
        assert bubble_ratio(tl) == pytest.approx((p - 1) / (m + p - 1), abs=1e-9)
        assert tl.iteration_makespan == pytest.approx((m + p - 1) * 6e-3, abs=1e-12)

    @given(
        schedule=st.sampled_from(list(ScheduleKind)),
        p=st.integers(1, 8),
        m=st.integers(1, 32),
    )
    @settings(max_examples=150, deadline=None)
    def test_analytic_formula(self, schedule, p, m):
        # zero latency: GPipe (arXiv:1811.06965) and 1F1B with a flush
        # (arXiv:1806.03377) share the bubble (p-1)/(m+p-1)
        net = load_nsfnet()
        stages = toy_stages(p, ["WA"] * p, fwd=2e-3, bwd=4e-3)
        tasks = build_schedule(schedule, stages, m)
        tl = simulate_iteration(net, stages, tasks, PolicyConfig(), ZERO_COMM, msg_bits=0.0)
        assert bubble_ratio(tl) == pytest.approx((p - 1) / (m + p - 1), abs=1e-9)
        # closed-form makespan: every stage pipelines at (fwd + bwd) per slot
        assert tl.iteration_makespan == pytest.approx((m + p - 1) * 6e-3, abs=1e-12)

    def test_comm_latency_never_decreases_bubble(self):
        placement = ["IL", "PA", "NY", "DC"]
        base = LatencyParams()
        doubled = LatencyParams(
            prop_s_per_km=2 * base.prop_s_per_km,
            per_hop_overhead_s=2 * base.per_hop_overhead_s,
            fs_rate_bps=base.fs_rate_bps / 2,
            intra_dc_latency_s=2 * base.intra_dc_latency_s,
            intra_dc_rate_bps=base.intra_dc_rate_bps / 2,
        )
        bubbles = []
        for params in (base, doubled):
            net = load_nsfnet()
            stages = toy_stages(4, placement, fwd=2e-3, bwd=4e-3)
            tasks = build_schedule(ScheduleKind.GPIPE, stages, 8)
            tl = simulate_iteration(net, stages, tasks, PolicyConfig(), params,
                                    msg_bits=16e6)
            bubbles.append(bubble_ratio(tl))
        assert bubbles[1] >= bubbles[0] - 1e-12

    def test_empty_timeline_rejected(self):
        tl = Timeline([], [], [], [], 0.0)
        with pytest.raises(ValueError):
            bubble_ratio(tl)


class TestBlockingProbability:
    def test_counting_on_synthetic_timeline(self):
        # of thirty requests, two are sent on their second attempt and one
        # falls back without a retry (engine.max_retries 0): three blocked
        transfers = [
            TransferRecord(i, 0, 1, "A", "B", "optical", 4, 0, 3, ("A", "B"),
                           int(i < 2), 0.0, 0.0, 1.0)
            for i in range(29)
        ]
        transfers.append(TransferRecord(29, 0, 1, "A", "B", "fallback", 1, -1, -1, None,
                                        0, 0.0, 0.0, 1.0))
        tl = Timeline([], [], [], transfers, 1.0)
        assert block_lines(tl) == [(2, "eventually_sent")] * 2 + [(1, "dropped_never")]
        assert blocking_probability(tl) == pytest.approx(0.1)

    def test_no_requests_is_zero(self):
        tl = Timeline([], [], [], [], 1.0)
        assert blocking_probability(tl) == 0.0


class TestDeterminismAndInvariants:
    def _run(self, seed=0):
        net = load_nsfnet()
        from optpipe.topology import BackgroundTrafficModel, advance_network
        bg = BackgroundTrafficModel(20.0, 2.0, (1, 8), seed)
        net.attach_background(bg)
        advance_network(net, 10.0)
        stages = toy_stages(4, ["IL", "PA", "NY", "DC"], fwd=2e-3, bwd=4e-3)
        tasks = build_schedule(ScheduleKind.ONE_F_ONE_B, stages, 8)
        tl = simulate_iteration(net, stages, tasks, PolicyConfig(), LatencyParams(),
                                msg_bits=16e6)
        return net, tasks, tl

    def test_bit_identical_event_logs(self):
        _, _, tl1 = self._run()
        _, _, tl2 = self._run()
        assert tl1.event_log_lines() == tl2.event_log_lines()

    def test_causality(self):
        net, tasks, tl = self._run()
        arrivals = {t.consumer_id: t for t in tl.transfers}
        start, finish = tl.start, tl.finish
        for task in tasks:
            assert finish[task.id] == pytest.approx(start[task.id] + task.compute_s, abs=1e-9)
            if task.chain_pred is not None:
                assert start[task.id] >= finish[task.chain_pred] - 1e-12
            if task.msg_pred is not None:
                x = arrivals[task.id]
                assert start[task.id] >= x.complete_time - 1e-12
                assert x.complete_time >= x.issue_time - 1e-12
                assert x.issue_time >= finish[task.msg_pred] - 1e-12
        assert tl.iteration_makespan == max(finish)

    def test_no_leaked_training_allocations(self):
        net, _, _ = self._run()
        assert net.holdings(training=True) == []
        assert net.holdings(training=False)
        audit_occupancy(net)

    def test_event_log_replay_audit(self):
        net, _, tl = self._run()
        audited = audit_event_log(net, tl.event_log_lines(), tl.iteration_makespan)
        assert audited == sum(1 for t in tl.transfers if t.kind == "optical") > 0


class TestLeakCheck:
    """The iteration end raises on a training holding, and only on one, that
    outlives the makespan, in the engine and in the all-events reference."""

    @staticmethod
    def _run(net, simulate=simulate_iteration):
        stages = toy_stages(2, ["A", "B"])
        tasks = build_schedule(ScheduleKind.GPIPE, stages, 2)
        return simulate(net, stages, tasks, PolicyConfig(fs_max=4), LatencyParams(),
                        msg_bits=1e6)

    @pytest.mark.parametrize("simulate", [simulate_iteration, validate.ref_simulate_iteration])
    def test_training_holding_past_the_makespan_raises(self, simulate):
        net = Network(["A", "B"], [("A", "B", 100.0)], fs_total=8)
        allocate_spectrum(net, [net.link_between("A", "B")], (0, 3), 1e15, training=True)
        with pytest.raises(RuntimeError, match="training allocations leaked"):
            self._run(net, simulate)

    def test_transfer_held_past_its_completion_raises(self, monkeypatch):
        real = engine.allocate_spectrum

        def one_second_late(net, links, block, release_time, training=False):
            real(net, links, block, release_time + 1.0, training=training)

        monkeypatch.setattr(engine, "allocate_spectrum", one_second_late)
        with pytest.raises(RuntimeError, match="training allocations leaked"):
            self._run(Network(["A", "B"], [("A", "B", 100.0)], fs_total=80))

    @pytest.mark.parametrize("simulate", [simulate_iteration, validate.ref_simulate_iteration])
    def test_background_holding_past_the_makespan_stays(self, simulate):
        net = Network(["A", "B"], [("A", "B", 100.0)], fs_total=8)
        allocate_spectrum(net, [net.link_between("A", "B")], (0, 3), 1e15)
        tl = self._run(net, simulate)
        assert all(x.kind == "optical" for x in tl.transfers)
        assert net.holdings() == [(1e15, 0, 3, (0,))]


class TestAuditCatchesViolations:
    def test_overlap_detected(self):
        net = Network(["A", "B"], [("A", "B", 1.0)], fs_total=8)
        lines = [
            "XFER\t1\t0\t1\tA\tB\toptical\t4\t0\t3\tA>B\t0\t0.0\t0.0\t1.0",
            "XFER\t2\t2\t3\tA\tB\toptical\t4\t2\t5\tA>B\t0\t0.5\t0.5\t1.5",
        ]
        with pytest.raises(RuntimeError, match="overlap"):
            audit_event_log(net, lines, 2.0)

    def test_leak_detected(self):
        net = Network(["A", "B"], [("A", "B", 1.0)], fs_total=8)
        lines = ["XFER\t1\t0\t1\tA\tB\toptical\t4\t0\t3\tA>B\t0\t0.0\t0.0\t5.0"]
        with pytest.raises(RuntimeError, match="leak"):
            audit_event_log(net, lines, 2.0)

    def test_overlap_on_a_link_that_two_paths_share(self):
        # A>B>C and D>B>C differ but share link B-C
        net = Network(["A", "B", "C", "D"], [("A", "B", 1.0), ("B", "C", 1.0), ("D", "B", 1.0)],
                      fs_total=8)
        lines = [
            "XFER\t1\t0\t1\tA\tC\toptical\t4\t0\t3\tA>B>C\t0\t0.0\t0.0\t1.0",
            "XFER\t2\t2\t3\tD\tC\toptical\t4\t2\t5\tD>B>C\t0\t0.5\t0.5\t1.5",
        ]
        with pytest.raises(RuntimeError, match="requests 1 and 2 overlap"):
            audit_event_log(net, lines, 2.0)
        # the same window and slots on a path that shares no link pass
        lines[1] = lines[1].replace("D>B>C", "D>B")
        assert audit_event_log(net, lines, 2.0) == 2

    def test_disjoint_slots_pass(self):
        net = Network(["A", "B"], [("A", "B", 1.0)], fs_total=8)
        lines = [
            "XFER\t1\t0\t1\tA\tB\toptical\t4\t0\t3\tA>B\t0\t0.0\t0.0\t1.0",
            "XFER\t2\t2\t3\tA\tB\toptical\t4\t4\t7\tA>B\t0\t0.5\t0.5\t1.5",
        ]
        assert audit_event_log(net, lines, 2.0) == 2


def _xfer(rid, path, f0, f1, n_fs, hold, complete):
    return TransferRecord(rid, 2 * rid, 2 * rid + 1, path[0], path[-1], "optical", n_fs,
                          f0, f1, path, 0, hold, hold, complete)


# each planted fault: (records, makespan, message)
FAULTS = {
    # A>B>C and D>B>C differ but share link B-C
    "overlap on a shared link": (
        [_xfer(1, ("A", "B", "C"), 0, 3, 4, 0.0, 1.0),
         _xfer(2, ("D", "B", "C"), 2, 5, 4, 0.5, 1.5)],
        2.0, "requests 1 and 2 overlap"),
    "block width differs from n_fs": (
        [_xfer(1, ("A", "B"), 0, 2, 4, 0.0, 1.0)], 2.0, "block width disagrees"),
    "hold past the makespan": (
        [_xfer(1, ("A", "B"), 0, 3, 4, 0.0, 5.0)], 2.0, "leaks past iteration end"),
}


class TestRecordAudit:
    """``audit_transfers`` against ``audit_event_log``: one set of checks."""

    @staticmethod
    def _net():
        return Network(["A", "B", "C", "D"],
                       [("A", "B", 1.0), ("B", "C", 1.0), ("D", "B", 1.0)], fs_total=8)

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("reader", ["records", "log"])
    def test_planted_fault_raises(self, fault, reader):
        records, makespan, message = FAULTS[fault]
        with pytest.raises(RuntimeError, match=message):
            if reader == "records":
                audit_transfers(self._net(), records, makespan)
            else:
                lines = Timeline([], [], [], records, makespan).event_log_lines()
                audit_event_log(self._net(), lines, makespan)

    def test_only_optical_records_count(self):
        records = [
            _xfer(1, ("A", "B"), 0, 3, 4, 0.0, 1.0),
            TransferRecord(2, 4, 5, "A", "A", "intra", 0, -1, -1, None, 0, 0.0, 0.0, 0.1),
            TransferRecord(3, 6, 7, "A", "C", "fallback", 1, -1, -1, None, 5, 0.0, 0.3, 9.0),
        ]
        assert audit_transfers(self._net(), records, 2.0) == 1

    @pytest.mark.parametrize("selector", SELECTORS)
    def test_counts_agree_on_every_iteration_of_a_loaded_cell(self, selector):
        cfg = RunConfig.from_flat({"bg.preset": "loaded", "cba.n_iterations": 4})
        profile = cfg.profile("llama3-8b-like")
        stages = partition_stages(profile, 8, cfg.placement(0, 8))
        tasks = build_schedule(ScheduleKind.ONE_F_ONE_B, stages, 8)
        net = cfg.build_network()
        net.attach_background(cfg.background(0))
        advance_network(net, cfg.prewarm_s())
        results = cba.orchestrate(cfg.orchestrator(), net, stages, tasks, cfg.policy(selector),
                                  cfg.latency_params(),
                                  msg_bits=profile.msg_bytes_per_microbatch * 8)
        assert len({id(r) for r in results}) == 4  # every iteration simulated
        for r in results:
            tl = r.timeline
            optical = sum(1 for x in tl.transfers if x.kind == "optical")
            assert optical > 0
            assert (audit_transfers(net, tl.transfers, tl.iteration_makespan)
                    == audit_event_log(net, tl.event_log_lines(), tl.iteration_makespan)
                    == optical)
