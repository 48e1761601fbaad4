from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optpipe import cba
from optpipe.cba import (
    IterationResult,
    LabelSet,
    OrchestratorConfig,
    label_cb_tasks,
    orchestrate,
    plan_requests,
    verify_label_soundness,
)
from optpipe.cli import DEFAULT_DC_NODES
from optpipe.engine import (
    SELECTORS,
    PolicyConfig,
    audit_event_log,
    bubble_ratio,
    simulate_iteration,
)
from optpipe.latency import LatencyParams
from optpipe.topology import (
    BackgroundTrafficModel,
    Network,
    advance_network,
    allocate_spectrum,
    load_nsfnet,
    loaded_background,
    set_link_occupancy,
)
from optpipe.validate import orchestrate_mismatch, random_instance, ref_orchestrate
from optpipe.workload import ScheduleKind, build_profile, build_schedule, partition_stages

ZERO_COMM = LatencyParams(intra_dc_latency_s=0.0)


def build(p, placement, m, kind=ScheduleKind.GPIPE, fwd=1e-3, bwd=2e-3, msg=16 * 2**20):
    profile = build_profile(
        "flat", n_layers=p, fwd_time_per_layer_s=fwd, bwd_time_per_layer_s=bwd,
        msg_bytes_per_microbatch=msg,
    )
    stages = partition_stages(profile, p, placement)
    return stages, build_schedule(kind, stages, m)


class TestLabelCbTasks:
    def test_zero_comm_yields_empty_set(self):
        net = load_nsfnet()
        stages, tasks = build(4, ["WA"] * 4, 8)
        tl = simulate_iteration(net, stages, tasks, PolicyConfig(), ZERO_COMM, msg_bits=0.0)
        labels = label_cb_tasks(tl)
        assert labels.cb_tasks == set()
        assert labels.blocked_tasks == set()
        assert labels.iteration_blocking_prob == 0.0

    def test_dci_delayed_task_is_labeled(self):
        # two stages on distant DCs, tiny compute: consumer waits on the wire
        net = Network(["A", "B"], [("A", "B", 2000.0)], fs_total=80)
        stages, tasks = build(2, ["A", "B"], 3, fwd=1e-4, bwd=1e-4, msg=16 * 2**20)
        tl = simulate_iteration(net, stages, tasks, PolicyConfig(), LatencyParams(),
                                msg_bits=16 * 2**20 * 8)
        labels = label_cb_tasks(tl)
        by = {(t.stage_id, t.direction.value, t.microbatch): t for t in tasks}
        # stage 1's later forwards idle behind message arrivals
        assert by[(1, "F", 1)].id in labels.cb_tasks
        assert by[(1, "F", 2)].id in labels.cb_tasks
        # a stage's first task has no intra-stage predecessor, never labeled
        assert by[(1, "F", 0)].id not in labels.cb_tasks
        verify_label_soundness(tl, labels)

    def test_slow_compute_with_fast_intra_message_not_labeled(self):
        # the gap exists, but the binding input is an intra-DC message whose
        # lateness comes from upstream compute, not the interconnect
        net = load_nsfnet()
        stages, tasks = build(2, ["WA", "WA"], 3, fwd=5e-3, bwd=1e-2)
        tl = simulate_iteration(net, stages, tasks, PolicyConfig(), LatencyParams(),
                                msg_bits=8.0)
        labels = label_cb_tasks(tl)
        assert labels.cb_tasks == set()

    def test_labeling_pure_function_of_timeline(self):
        net = Network(["A", "B"], [("A", "B", 1500.0)], fs_total=80)
        stages, tasks = build(2, ["A", "B"], 4, fwd=1e-4, bwd=1e-4)
        tl = simulate_iteration(net, stages, tasks, PolicyConfig(), LatencyParams(),
                                msg_bits=1e8)
        a = label_cb_tasks(tl)
        b = label_cb_tasks(tl)
        assert a.cb_tasks == b.cb_tasks and a.blocked_tasks == b.blocked_tasks


class TestPlanRequests:
    def setup_method(self):
        _, self.tasks = build(2, ["A", "B"], 2)
        self.config = OrchestratorConfig()
        self.policy = PolicyConfig()
        self.consumers = [t for t in self.tasks if t.msg_pred is not None]

    def widths(self, base, boost, fs_max, cb=False, blocked=False):
        """The plan after a block-free iteration at the configured boost, which
        keeps it, with the first consumer's request labeled as asked."""
        v = self.consumers[0]
        ls = LabelSet(cb_tasks={v.id} if cb else set(),
                      blocked_tasks={v.msg_pred} if blocked else set())
        policy = PolicyConfig(base_fs=base, boost_factor=boost, fs_max=fs_max)
        demand, got = plan_requests(ls, self.config, self.tasks, policy, boost)
        assert got == boost
        assert all(type(n) is int for n in demand.values())
        return demand

    def test_warmup_all_normal(self):
        demand, boost = plan_requests(None, self.config, self.tasks, self.policy)
        assert demand == {} and boost == self.policy.boost_factor

    def test_cb_task_gets_full_boost_when_clean(self):
        v = self.consumers[0]
        ls = LabelSet(cb_tasks={v.id}, iteration_blocking_prob=0.0)
        demand, boost = plan_requests(ls, self.config, self.tasks, self.policy)
        assert demand == {v.id: 8}
        assert boost == self.policy.boost_factor

    def test_unlabeled_request_keeps_base_demand(self):
        # unnamed in the map, so the engine sizes it min(base_fs, fs_max)
        assert self.widths(4, 2.0, 16) == {}
        assert self.widths(4, 1.0, 16, cb=True) == {self.consumers[0].id: 4}

    def test_cb_boost(self):
        assert self.widths(4, 2.0, 16, cb=True) == {self.consumers[0].id: 8}

    def test_blocked_dominates_cb(self):
        assert self.widths(4, 2.0, 16, cb=True, blocked=True) == {self.consumers[0].id: 2}

    def test_fs_max_cap(self):
        assert self.widths(10, 4.0, 16, cb=True) == {self.consumers[0].id: 16}

    def test_floor_one(self):
        assert self.widths(1, 2.0, 16, blocked=True) == {self.consumers[0].id: 1}

    def test_rounds_half_up(self):
        assert self.widths(3, 1.5, 16, cb=True) == {self.consumers[0].id: 5}

    @given(
        base=st.integers(1, 32),
        boost=st.floats(1.0, 8.0, allow_nan=False),
        fs_max=st.integers(1, 32),
        cb=st.booleans(),
        blocked=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_width_always_in_bounds(self, base, boost, fs_max, cb, blocked):
        demand = self.widths(base, boost, fs_max, cb, blocked)
        assert len(demand) == (cb or blocked)
        assert all(1 <= n <= fs_max for n in demand.values())

    def test_high_blocking_halves_boost(self):
        v = self.consumers[0]
        ls = LabelSet(cb_tasks={v.id}, iteration_blocking_prob=0.2)
        _, boost = plan_requests(ls, self.config, self.tasks, self.policy)
        assert boost == self.policy.boost_factor / 2

    def test_boost_recovers_only_after_block_free_iteration(self):
        ls_dirty = LabelSet(iteration_blocking_prob=0.2)
        ls_mid = LabelSet(iteration_blocking_prob=0.01)
        ls_clean = LabelSet(iteration_blocking_prob=0.0)
        _, b1 = plan_requests(ls_dirty, self.config, self.tasks, self.policy, 2.0)
        assert b1 == 1.0
        _, b2 = plan_requests(ls_mid, self.config, self.tasks, self.policy, b1)
        assert b2 == 1.0  # held, not recovered
        _, b3 = plan_requests(ls_clean, self.config, self.tasks, self.policy, b2)
        assert b3 == 1.25

    def test_blocked_sender_shrinks_consumer_request(self):
        v = self.consumers[0]
        ls = LabelSet(blocked_tasks={v.msg_pred})
        demand, _ = plan_requests(ls, self.config, self.tasks, self.policy)
        assert demand == {v.id: self.policy.base_fs // 2}


class TestOrchestrate:
    def test_iteration_count_and_warmup(self):
        net = load_nsfnet()
        stages, tasks = build(2, ["IL", "PA"], 2)
        results = orchestrate(OrchestratorConfig(n_iterations=11), net, stages, tasks,
                              PolicyConfig(), LatencyParams(), msg_bits=1e6)
        assert len(results) == 11
        # the default policy is CBA: every iteration, the warm-up too, is labeled
        assert all(isinstance(r, IterationResult) and isinstance(r.labels, LabelSet)
                   for r in results)

    def test_cb_transfer_boosted_and_faster_next_iteration(self):
        # persistent DCI bubble on an otherwise empty network: the labeled
        # consumer's incoming transfer gets more slots and strictly less time
        net = Network(["A", "B"], [("A", "B", 2000.0)], fs_total=80)
        stages, tasks = build(2, ["A", "B"], 3, fwd=1e-4, bwd=1e-4)
        results = orchestrate(OrchestratorConfig(n_iterations=3), net, stages, tasks,
                              PolicyConfig(), LatencyParams(), msg_bits=16 * 2**20 * 8)
        warm, nxt = results[0], results[1]
        cb = results[0].labels.cb_tasks
        assert cb
        tasks_by_id = {t.id: t for t in tasks}
        for tid in cb:
            t0 = next(x for x in warm.timeline.transfers if x.consumer_id == tid)
            t1 = next(x for x in nxt.timeline.transfers if x.consumer_id == tid)
            assert t1.n_fs == 8 and t0.n_fs == 4
            assert (t1.complete_time - t1.issue_time) < (t0.complete_time - t0.issue_time)

    def test_cba_not_slower_than_warmup_on_uncontended_network(self):
        net = Network(["A", "B"], [("A", "B", 2000.0)], fs_total=80)
        stages, tasks = build(2, ["A", "B"], 4, fwd=1e-4, bwd=1e-4)
        results = orchestrate(OrchestratorConfig(n_iterations=5), net, stages, tasks,
                              PolicyConfig(), LatencyParams(), msg_bits=16 * 2**20 * 8)
        warm = results[0].timeline.iteration_makespan
        for r in results[1:]:
            assert r.timeline.iteration_makespan <= warm + 1e-12

    def test_baselines_ignore_labels(self):
        # re-running a baseline must reproduce iteration 0's timeline exactly
        # when the network carries no dynamics: a baseline labels and plans nothing
        for selector in ("ksp_ff", "sd_ff"):
            net = load_nsfnet()
            stages, tasks = build(4, ["IL", "PA", "NY", "DC"], 4)
            results = orchestrate(OrchestratorConfig(n_iterations=4), net, stages, tasks,
                                  PolicyConfig(selector=selector), LatencyParams(),
                                  msg_bits=16e6)
            logs = [r.timeline.event_log_lines() for r in results]
            assert all(lg == logs[0] for lg in logs[1:])
            assert all(r.labels is None for r in results)  # a baseline plans nothing

    def test_deterministic_with_background(self):
        def run():
            net = load_nsfnet()
            bg = BackgroundTrafficModel(20.0, 2.0, (1, 8), 5)
            net.attach_background(bg)
            advance_network(net, 10.0)
            stages, tasks = build(4, ["IL", "PA", "NY", "DC"], 4)
            results = orchestrate(OrchestratorConfig(n_iterations=4), net, stages, tasks,
                                  PolicyConfig(), LatencyParams(), msg_bits=16e6)
            return [line for r in results for line in r.timeline.event_log_lines()]

        assert run() == run()


@given(
    p=st.integers(2, 4),
    m=st.integers(1, 4),
    dcs=st.lists(st.sampled_from(DEFAULT_DC_NODES), min_size=4, max_size=4),
    kind=st.sampled_from(list(ScheduleKind)),
    selector=st.sampled_from(SELECTORS),
    bg_seed=st.one_of(st.none(), st.integers(0, 2**31 - 1)),
)
@settings(max_examples=30, deadline=None)
def test_orchestrate_properties(p, m, dcs, kind, selector, bg_seed):
    # bg_seed None is the quiet network, otherwise the loaded preset pre-warmed
    # for its default five holding times
    def run():
        net = load_nsfnet()
        bg = None if bg_seed is None else loaded_background(bg_seed)
        if bg is not None:
            net.attach_background(bg)
            advance_network(net, 5.0 * bg.mean_hold_s)
        stages, tasks = build(p, dcs[:p], m, kind)
        results = orchestrate(OrchestratorConfig(n_iterations=3), net, stages, tasks,
                              PolicyConfig(selector=selector), LatencyParams(),
                              msg_bits=16 * 2**20 * 8)
        return net, tasks, results

    net, tasks, results = run()
    logs = [r.timeline.event_log_lines() for r in results]
    assert logs == [r.timeline.event_log_lines() for r in run()[2]]
    for r, lines in zip(results, logs):
        tl = r.timeline
        audit_event_log(net, lines, tl.iteration_makespan)
        # only CBA labels in-run; every policy's timeline labels soundly
        labels = label_cb_tasks(tl)
        assert r.labels == (labels if selector == "cba" else None)
        verify_label_soundness(tl, labels)
        busy = [0.0] * p
        for t in tasks:
            busy[t.stage_id] += t.compute_s
        assert tl.iteration_makespan >= max(busy)
        assert 0.0 <= bubble_ratio(tl) < 1.0


class TestIterationReuse:
    """When ``orchestrate`` simulates an iteration and when it reuses one."""

    N = 8

    def count_simulations(self, monkeypatch, net, stages, tasks, policy):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return simulate_iteration(*args, **kwargs)

        monkeypatch.setattr(cba, "simulate_iteration", counting)
        results = orchestrate(OrchestratorConfig(n_iterations=self.N), net, stages, tasks,
                              policy, LatencyParams(), msg_bits=16 * 2**20 * 8)
        return len(calls), results

    def test_background_stream_simulates_every_iteration(self, monkeypatch):
        # 1 ms holds and no prewarm: no allocation is left at any iteration
        # start, yet the arrivals make the iterations differ
        net = load_nsfnet()
        net.attach_background(BackgroundTrafficModel(200.0, 1e-3, (1, 8), 5))
        stages, tasks = build(4, ["IL", "PA", "NY", "DC"], 4)
        calls, results = self.count_simulations(monkeypatch, net, stages, tasks,
                                                PolicyConfig(selector="ksp_ff"))
        assert calls == self.N
        assert len({id(r) for r in results}) == self.N
        assert len({tuple(r.timeline.event_log_lines()) for r in results}) > 1

    def test_held_allocation_simulates_every_iteration(self, monkeypatch):
        net = load_nsfnet()
        allocate_spectrum(net, net.path_links(["IL", "PA"]), (0, 3), 1e9)
        stages, tasks = build(4, ["IL", "PA", "NY", "DC"], 4)
        calls, _ = self.count_simulations(monkeypatch, net, stages, tasks,
                                          PolicyConfig(selector="ksp_ff"))
        assert calls == self.N

    def test_first_fit_without_background_simulates_once(self, monkeypatch):
        net = load_nsfnet()
        stages, tasks = build(4, ["IL", "PA", "NY", "DC"], 4)
        calls, results = self.count_simulations(monkeypatch, net, stages, tasks,
                                                PolicyConfig(selector="ksp_ff"))
        assert calls == 1
        assert all(r is results[0] for r in results)

    def test_cba_without_background_simulates_each_distinct_plan_once(self, monkeypatch):
        # eight slots per link: the pipeline's own transfers block, so the boost
        # halves and recovers while the labels cycle
        stages, tasks = build(4, ["WA", "CA1", "TX", "IL"], 3)
        policy = PolicyConfig(selector="cba", fs_max=8)
        config = OrchestratorConfig(n_iterations=self.N)
        plain = ref_orchestrate(config, load_nsfnet(fs_total=8), stages, tasks, policy,
                                LatencyParams(), msg_bits=16 * 2**20 * 8)
        plans, labels, boost = [], None, policy.boost_factor
        for r in plain:
            demand, boost = plan_requests(labels, config, tasks, policy, boost)
            plans.append(frozenset(demand.items()))
            labels = r.labels
        distinct = len(set(plans))
        assert 1 < distinct < self.N  # the demand maps repeat

        calls, results = self.count_simulations(monkeypatch, load_nsfnet(fs_total=8),
                                                stages, tasks, policy)
        assert calls == distinct
        assert orchestrate_mismatch(results, plain) is None

    def test_one_demand_map_under_changing_boosts_simulates_once(self, monkeypatch):
        # the engine reads only the widths: a boost that changes while they
        # stay the same is the same iteration
        stages, tasks = build(4, ["WA", "CA1", "TX", "IL"], 3)
        boosts = itertools.cycle([2.0, 1.0])
        monkeypatch.setattr(cba, "plan_requests", lambda *args: ({}, next(boosts)))
        calls, results = self.count_simulations(monkeypatch, load_nsfnet(), stages, tasks,
                                                PolicyConfig(selector="cba"))
        assert calls == 1
        assert all(r is results[0] for r in results)


@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 4),
    m=st.integers(1, 4),
    kind=st.sampled_from(list(ScheduleKind)),
    selector=st.sampled_from(SELECTORS),
    base_fs=st.integers(1, 4),
)
@settings(max_examples=40, deadline=None)
def test_reuse_matches_plain_loop_on_random_networks(seed, p, m, kind, selector, base_fs):
    # random topology and slot count, no background: each iteration must
    # equal the plain loop's, reused or not
    def network():
        net = random_instance(np.random.default_rng(seed))
        # free every slot: occupancy without an owner fails audit_occupancy
        for link in net.links:
            set_link_occupancy(net, link.index, [0] * net.fs_total)
        return net

    net = network()
    rng = np.random.default_rng([seed, 1])
    placement = [net.nodes[int(i)] for i in rng.integers(0, len(net.nodes), size=p)]
    stages, tasks = build(p, placement, m, kind)
    policy = PolicyConfig(selector=selector, base_fs=min(base_fs, net.fs_total),
                          fs_max=net.fs_total)
    config = OrchestratorConfig(n_iterations=6)
    args = (stages, tasks, policy, LatencyParams(), 16 * 2**20 * 8)
    assert orchestrate_mismatch(orchestrate(config, net, *args),
                                ref_orchestrate(config, network(), *args)) is None


class TestVerifySoundness:
    def test_rejects_fabricated_label(self):
        net = load_nsfnet()
        stages, tasks = build(4, ["WA"] * 4, 4)
        tl = simulate_iteration(net, stages, tasks, PolicyConfig(), ZERO_COMM, msg_bits=0.0)
        bogus = LabelSet(cb_tasks={tasks[-1].id})
        with pytest.raises(RuntimeError):
            verify_label_soundness(tl, bogus)

    def test_rejects_a_label_whose_input_is_intra_dc(self):
        # one datacenter: stage 0 idles before its backwards, behind intra-DC messages
        net = load_nsfnet()
        stages, tasks = build(2, ["WA", "WA"], 3, fwd=5e-3, bwd=1e-2)
        tl = simulate_iteration(net, stages, tasks, PolicyConfig(), LatencyParams(),
                                msg_bits=8.0)
        gapped = [t.id for t in tasks if t.chain_pred is not None and t.msg_pred is not None
                  and tl.start[t.id] > tl.finish[t.chain_pred] + 1e-6]
        assert gapped
        with pytest.raises(RuntimeError, match="cross-DC"):
            verify_label_soundness(tl, LabelSet(cb_tasks={gapped[0]}))


def test_orchestrator_config_validation():
    with pytest.raises(ValueError):
        OrchestratorConfig(n_iterations=1)
    with pytest.raises(ValueError):
        OrchestratorConfig(blocking_prob_threshold=1.5)
