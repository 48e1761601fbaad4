"""Pipeline-parallel training workloads: profiles, stages, and task DAGs.

A workload is a model profile (per-layer compute times and the activation
payload exchanged between adjacent stages), a contiguous partition of the
layers onto p stages each pinned to a datacenter, and a per-iteration task
DAG for the chosen schedule.

Two synchronous schedules are built:

* gpipe: per stage, all m forwards in micro-batch order, then all m
  backwards in reverse micro-batch order;
* 1f1b (periodic-flush): per stage s, min(m, p-1-s) warmup forwards, a
  steady state of one forward then one backward, and a cooldown of the
  remaining backwards.

Every task depends on its intra-stage predecessor (the stage runs one task
at a time, in schedule order) and, when it consumes another stage's output,
on the arrival of that message.  Ids are assigned stage by stage in
schedule order, so within a stage id order is execution order.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import Sequence

MIB = 1024 * 1024

_PRESETS = {
    "llama3-8b-like": dict(
        n_layers=32,
        fwd_time_per_layer_s=2e-3,
        bwd_time_per_layer_s=4e-3,
        msg_bytes_per_microbatch=16 * MIB,
    ),
    "llama3-70b-like": dict(
        n_layers=80,
        fwd_time_per_layer_s=6e-3,
        bwd_time_per_layer_s=12e-3,
        msg_bytes_per_microbatch=32 * MIB,
    ),
}


class ScheduleKind(enum.Enum):
    GPIPE = "gpipe"
    ONE_F_ONE_B = "1f1b"


class Direction(enum.Enum):
    FORWARD = "F"
    BACKWARD = "B"


@dataclass(frozen=True)
class ModelProfile:
    name: str
    n_layers: int
    fwd_time_per_layer_s: float
    bwd_time_per_layer_s: float
    msg_bytes_per_microbatch: int

    def __post_init__(self) -> None:
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        if min(self.fwd_time_per_layer_s, self.bwd_time_per_layer_s) <= 0:
            raise ValueError("per-layer times must be positive")
        if self.msg_bytes_per_microbatch <= 0:
            raise ValueError("msg_bytes_per_microbatch must be positive")
        if self.bwd_time_per_layer_s < self.fwd_time_per_layer_s:
            warnings.warn(
                f"profile {self.name!r}: backward time below forward time",
                stacklevel=3,
            )


def build_profile(name: str | None = None, **explicit) -> ModelProfile:
    """A named preset, or an explicit profile when all fields are given."""
    if name in _PRESETS and not explicit:
        return ModelProfile(name=name, **_PRESETS[name])
    required = {
        "n_layers",
        "fwd_time_per_layer_s",
        "bwd_time_per_layer_s",
        "msg_bytes_per_microbatch",
    }
    if required.issubset(explicit):
        return ModelProfile(name=name or "custom", **{k: explicit[k] for k in required})
    if name is not None and name not in _PRESETS:
        raise ValueError(f"unknown profile {name!r}; presets: {sorted(_PRESETS)}")
    missing = sorted(required - set(explicit))
    raise ValueError(f"explicit profile missing fields: {missing}")


def profile_presets() -> list[str]:
    return sorted(_PRESETS)


@dataclass(frozen=True)
class Stage:
    stage_id: int
    dc_node: str
    layer_start: int
    layer_end: int  # exclusive
    fwd_compute_s: float
    bwd_compute_s: float

    @property
    def n_layers(self) -> int:
        return self.layer_end - self.layer_start


def partition_stages(profile: ModelProfile, p: int, placement: Sequence[str]) -> list[Stage]:
    """Contiguous near-equal layer split; remainder layers go to the earliest
    stages.  ``placement[s]`` is the datacenter hosting stage s."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if p > profile.n_layers:
        raise ValueError(f"p={p} exceeds n_layers={profile.n_layers}")
    if len(placement) != p:
        raise ValueError(f"placement must name {p} datacenters, got {len(placement)}")
    base, extra = divmod(profile.n_layers, p)
    stages = []
    lo = 0
    for s in range(p):
        n = base + (1 if s < extra else 0)
        stages.append(
            Stage(
                stage_id=s,
                dc_node=placement[s],
                layer_start=lo,
                layer_end=lo + n,
                fwd_compute_s=n * profile.fwd_time_per_layer_s,
                bwd_compute_s=n * profile.bwd_time_per_layer_s,
            )
        )
        lo += n
    return stages


@dataclass(frozen=True)
class Task:
    """One forward or backward micro-batch computation on one stage.

    ``chain_pred`` is the intra-stage predecessor (schedule order);
    ``msg_pred`` is the producer of the cross-stage message this task
    consumes, if any.  ``chain_next`` and ``msg_next`` are the inverse
    edges: the intra-stage successor and the consumer of this task's
    outgoing message.  Tasks are immutable, so one task list serves every
    iteration and every policy of a cell; per-iteration labels live in
    ``cba.LabelSet``.
    """

    id: int
    stage_id: int
    microbatch: int
    direction: Direction
    compute_s: float
    chain_pred: int | None = None
    msg_pred: int | None = None
    chain_next: int | None = None
    msg_next: int | None = None


def _stage_order(kind: ScheduleKind, stage: int, p: int, m: int) -> list[tuple[Direction, int]]:
    F, B = Direction.FORWARD, Direction.BACKWARD
    if kind is ScheduleKind.GPIPE:
        return [(F, i) for i in range(m)] + [(B, i) for i in reversed(range(m))]
    warmup = min(m, p - 1 - stage)
    order = [(F, i) for i in range(warmup)]
    for i in range(m - warmup):
        order.append((F, warmup + i))
        order.append((B, i))
    order.extend((B, i) for i in range(m - warmup, m))
    return order


def build_schedule(kind: ScheduleKind, stages: Sequence[Stage], m: int) -> list[Task]:
    """The per-iteration task DAG: exactly 2*p*m tasks, 2*(p-1)*m message edges."""
    if m < 1:
        raise ValueError("m must be >= 1")
    p = len(stages)
    order = [
        (stage, direction, mb)
        for stage in stages
        for direction, mb in _stage_order(kind, stage.stage_id, p, m)
    ]
    ids = {(stage.stage_id, d, mb): tid for tid, (stage, d, mb) in enumerate(order)}
    tasks: list[Task] = []
    for tid, (stage, direction, mb) in enumerate(order):
        s = stage.stage_id
        forward = direction is Direction.FORWARD
        # forwards flow to the next stage, backwards to the previous one
        upstream, downstream = (s - 1, s + 1) if forward else (s + 1, s - 1)
        # every stage runs its 2*m tasks back to back, in id order
        pos = tid % (2 * m)
        tasks.append(
            Task(
                id=tid,
                stage_id=s,
                microbatch=mb,
                direction=direction,
                compute_s=stage.fwd_compute_s if forward else stage.bwd_compute_s,
                chain_pred=tid - 1 if pos > 0 else None,
                msg_pred=ids.get((upstream, direction, mb)),
                chain_next=tid + 1 if pos < 2 * m - 1 else None,
                msg_next=ids.get((downstream, direction, mb)),
            )
        )
    return tasks


def message_edges(tasks: Sequence[Task]) -> list[tuple[int, int]]:
    """(producer, consumer) pairs for every cross-stage message."""
    return [(t.msg_pred, t.id) for t in tasks if t.msg_pred is not None]
