from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from optpipe.workload import (
    Direction,
    ModelProfile,
    ScheduleKind,
    build_profile,
    build_schedule,
    message_edges,
    partition_stages,
)

F, B = Direction.FORWARD, Direction.BACKWARD


def toy_profile(n_layers=4, msg=1024):
    return build_profile(
        "toy",
        n_layers=n_layers,
        fwd_time_per_layer_s=1e-3,
        bwd_time_per_layer_s=2e-3,
        msg_bytes_per_microbatch=msg,
    )


def stage_order(tasks, stage):
    return [(t.direction, t.microbatch) for t in tasks if t.stage_id == stage]


class TestBuildProfile:
    def test_8b_preset(self):
        p = build_profile("llama3-8b-like")
        assert p.n_layers == 32
        assert p.msg_bytes_per_microbatch == 16 * 1024 * 1024

    def test_70b_preset_is_larger_and_slower(self):
        small, big = build_profile("llama3-8b-like"), build_profile("llama3-70b-like")
        assert big.n_layers == 80
        assert big.fwd_time_per_layer_s > small.fwd_time_per_layer_s
        assert big.msg_bytes_per_microbatch > small.msg_bytes_per_microbatch

    def test_explicit_profile_echoed(self):
        p = toy_profile()
        assert (p.n_layers, p.fwd_time_per_layer_s) == (4, 1e-3)
        assert p.name == "toy"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown profile"):
            build_profile("llama4-nope")

    def test_backward_faster_than_forward_warns(self):
        with pytest.warns(UserWarning):
            build_profile(
                "odd", n_layers=2, fwd_time_per_layer_s=2e-3,
                bwd_time_per_layer_s=1e-3, msg_bytes_per_microbatch=1,
            )


class TestPartitionStages:
    def test_even_split(self):
        stages = partition_stages(build_profile("llama3-8b-like"), 8, ["X"] * 8)
        assert all(s.n_layers == 4 for s in stages)
        assert all(s.fwd_compute_s == pytest.approx(4 * 2e-3) for s in stages)

    def test_remainder_goes_to_earliest(self):
        stages = partition_stages(toy_profile(n_layers=10), 4, ["X"] * 4)
        assert [s.n_layers for s in stages] == [3, 3, 2, 2]
        assert [s.layer_start for s in stages] == [0, 3, 6, 8]
        assert stages[-1].layer_end == 10

    def test_single_stage(self):
        (s,) = partition_stages(toy_profile(), 1, ["X"])
        assert s.n_layers == 4

    def test_too_many_stages_rejected(self):
        with pytest.raises(ValueError, match="exceeds n_layers"):
            partition_stages(toy_profile(n_layers=4), 5, ["X"] * 5)

    def test_placement_size_checked(self):
        with pytest.raises(ValueError, match="placement"):
            partition_stages(toy_profile(), 2, ["X"])


class TestBuildSchedule:
    def test_gpipe_p2_m2(self):
        stages = partition_stages(toy_profile(), 2, ["X", "Y"])
        tasks = build_schedule(ScheduleKind.GPIPE, stages, 2)
        assert stage_order(tasks, 0) == [(F, 0), (F, 1), (B, 1), (B, 0)]
        assert stage_order(tasks, 1) == [(F, 0), (F, 1), (B, 1), (B, 0)]
        by = {(t.stage_id, t.direction, t.microbatch): t for t in tasks}
        for i in (0, 1):
            assert by[(1, F, i)].msg_pred == by[(0, F, i)].id
            assert by[(0, B, i)].msg_pred == by[(1, B, i)].id
        # one task list is shared by every iteration and policy of a cell
        with pytest.raises(dataclasses.FrozenInstanceError):
            tasks[0].msg_pred = tasks[1].id

    def test_1f1b_warmup_then_alternation(self):
        stages = partition_stages(toy_profile(n_layers=4), 4, list("WXYZ"))
        tasks = build_schedule(ScheduleKind.ONE_F_ONE_B, stages, 8)
        order = stage_order(tasks, 0)
        assert order[:3] == [(F, 0), (F, 1), (F, 2)]  # warmup = p-1-s = 3
        steady = order[3 : 3 + 10]
        assert steady == [
            (F, 3), (B, 0), (F, 4), (B, 1), (F, 5),
            (B, 2), (F, 6), (B, 3), (F, 7), (B, 4),
        ]
        assert order[-3:] == [(B, 5), (B, 6), (B, 7)]

    def test_1f1b_last_stage_strict_alternation(self):
        stages = partition_stages(toy_profile(n_layers=4), 4, list("WXYZ"))
        tasks = build_schedule(ScheduleKind.ONE_F_ONE_B, stages, 4)
        assert stage_order(tasks, 3) == [
            (F, 0), (B, 0), (F, 1), (B, 1), (F, 2), (B, 2), (F, 3), (B, 3),
        ]

    def test_m1_schedules_identical(self):
        stages = partition_stages(toy_profile(), 4, list("WXYZ"))
        a = build_schedule(ScheduleKind.GPIPE, stages, 1)
        b = build_schedule(ScheduleKind.ONE_F_ONE_B, stages, 1)
        assert [(t.stage_id, t.direction, t.microbatch, t.chain_pred, t.msg_pred)
                for t in a] == [
            (t.stage_id, t.direction, t.microbatch, t.chain_pred, t.msg_pred) for t in b
        ]

    def test_counts(self):
        stages = partition_stages(toy_profile(n_layers=8), 8, list("ABCDEFGH"))
        for kind in ScheduleKind:
            tasks = build_schedule(kind, stages, 5)
            assert len(tasks) == 2 * 8 * 5
            assert len(message_edges(tasks)) == 2 * 7 * 5

    def test_compute_times_follow_direction(self):
        stages = partition_stages(toy_profile(), 2, ["X", "Y"])
        tasks = build_schedule(ScheduleKind.GPIPE, stages, 1)
        for t in tasks:
            expect = stages[t.stage_id].fwd_compute_s if t.direction is F else \
                stages[t.stage_id].bwd_compute_s
            assert t.compute_s == expect


def deps(task):
    return [d for d in (task.chain_pred, task.msg_pred) if d is not None]


def topological_order_exists(tasks):
    indeg = {t.id: len(deps(t)) for t in tasks}
    succ = {}
    for t in tasks:
        for d in deps(t):
            succ.setdefault(d, []).append(t.id)
    frontier = [tid for tid, d in indeg.items() if d == 0]
    seen = 0
    while frontier:
        tid = frontier.pop()
        seen += 1
        for s in succ.get(tid, ()):
            indeg[s] -= 1
            if indeg[s] == 0:
                frontier.append(s)
    return seen == len(tasks)


@given(
    kind=st.sampled_from(list(ScheduleKind)),
    p=st.integers(1, 16),
    m=st.integers(1, 64),
)
@settings(max_examples=80, deadline=None)
def test_dag_acyclic_and_counts(kind, p, m):
    profile = build_profile(
        "flat", n_layers=p, fwd_time_per_layer_s=1e-3, bwd_time_per_layer_s=1e-3,
        msg_bytes_per_microbatch=1,
    )
    stages = partition_stages(profile, p, ["X"] * p)
    tasks = build_schedule(kind, stages, m)
    assert len(tasks) == 2 * p * m
    assert len(message_edges(tasks)) == 2 * (p - 1) * m
    assert topological_order_exists(tasks)
    # every task id appears once, ids dense
    assert sorted(t.id for t in tasks) == list(range(2 * p * m))
    # the successor fields are the predecessor edges reversed
    for pred, succ in (("chain_pred", "chain_next"), ("msg_pred", "msg_next")):
        forward = {(getattr(t, pred), t.id) for t in tasks if getattr(t, pred) is not None}
        backward = {(t.id, getattr(t, succ)) for t in tasks if getattr(t, succ) is not None}
        assert forward == backward
