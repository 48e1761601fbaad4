"""Communication-bound-aware orchestration across training iterations.

After every iteration the previous timeline is inspected: a task is labeled
communication-bound (CB) when its stage sat idle before it started (the gap
to its intra-stage predecessor exceeds epsilon) and the prerequisite that
actually gated its start was a cross-datacenter message.  Tasks whose
outgoing transfer blocked are flagged separately.  Both labels read the
timeline alone: its tasks' start and finish times, and its transfer records
(a consumer whose incoming record is not ``intra`` has a cross-DC input;
``TransferRecord.blocked`` marks a request whose first attempt blocked).

The labels drive next iteration's slot sizing, and this module alone sizes
requests: ``plan_requests`` turns them into a demand map, consumer task ->
slots, that the engine reads.  A CB task's incoming message is boosted, a
previously blocked request is shrunk, and when the observed iteration
blocking probability crosses a threshold the boost factor for all CB
requests is halved as a global congestion guard.  The first iteration is an
unlabeled warm-up.  The first-fit baselines plan nothing, so they label
nothing: their ``IterationResult.labels`` are None.

On a network without background traffic an iteration is a pure function of
its demand map: the clock restarts at t=0, the egress state is fresh, and
an iteration that starts with no allocation held sees the same spectrum as
every other such start.  ``orchestrate`` therefore simulates each distinct
demand map once and hands a repeated one the earlier iteration's result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .engine import (
    PolicyConfig,
    Timeline,
    blocking_probability,
    simulate_iteration,
)
from .latency import LatencyParams
from .topology import Network, audit_occupancy
from .workload import Stage, Task


@dataclass
class LabelSet:
    """Labels extracted from one completed iteration.

    The sets need not be disjoint: a task can be both communication-bound
    and the sender of a blocked transfer.
    """

    cb_tasks: set[int] = field(default_factory=set)
    blocked_tasks: set[int] = field(default_factory=set)
    iteration_blocking_prob: float = 0.0


@dataclass(frozen=True)
class OrchestratorConfig:
    n_iterations: int = 11  # 1 warm-up + 10 measured
    blocking_prob_threshold: float = 0.05
    epsilon_bubble_s: float = 1e-6

    def __post_init__(self) -> None:
        if self.n_iterations < 2:
            raise ValueError("n_iterations must be >= 2 (warm-up plus measurement)")
        if not (0.0 <= self.blocking_prob_threshold <= 1.0):
            raise ValueError("blocking_prob_threshold must be in [0, 1]")
        if self.epsilon_bubble_s < 0:
            raise ValueError("epsilon_bubble_s must be nonnegative")


def label_cb_tasks(timeline: Timeline,
                   epsilon_bubble_s: float = OrchestratorConfig.epsilon_bubble_s) -> LabelSet:
    """Label tasks whose start was delayed by a cross-DC message arrival.

    All tasks start unlabeled.  A task is CB iff the stage idled for more
    than epsilon after its intra-stage predecessor finished and the
    latest-arriving prerequisite was a cross-DC message, that is, its
    incoming transfer record is not ``intra``.  A stage's first task (no
    predecessor) and tasks without a cross-DC input are never CB.  The
    producer of every request whose first attempt blocked is flagged.
    """
    labels = LabelSet(iteration_blocking_prob=blocking_probability(timeline))
    tasks, start, finish = timeline.tasks, timeline.start, timeline.finish
    for x in timeline.transfers:
        if x.kind == "intra":
            continue
        if x.blocked:
            labels.blocked_tasks.add(x.task_id)
        pred = tasks[x.consumer_id].chain_pred
        if pred is not None and start[x.consumer_id] > finish[pred] + epsilon_bubble_s:
            # gap implies the message arrival, not the predecessor, gated the start
            labels.cb_tasks.add(x.consumer_id)
    return labels


def plan_requests(
    labels: LabelSet | None,
    config: OrchestratorConfig,
    tasks: Sequence[Task],
    policy: PolicyConfig,
    prev_boost: float | None = None,
) -> tuple[dict[int, int], float]:
    """Next iteration's demand map plus the effective boost.

    The map gives the slot demand of each labeled request, keyed by the
    consumer task of its message edge.  A request whose edge blocked last
    iteration is shrunk to ``base_fs // 2``, which wins when its consumer
    was CB too; otherwise a CB consumer's request is boosted to
    ``base_fs * boost`` rounded half up.  Every width is capped at
    ``fs_max`` and is at least 1.  A request the map does not name asks for
    the base demand.

    The boost adapts to observed congestion: whenever last iteration's
    blocking probability exceeded the threshold, the effective boost for all
    CB requests is halved (floor 1); it recovers additively (+0.25) toward
    the configured maximum only after a fully block-free iteration, and
    holds steady in between.  Under sustained contention the boost therefore
    settles at the largest sustainable level instead of oscillating between
    full boost and blocking storms.
    """
    if labels is None:
        return {}, policy.boost_factor
    boost = policy.boost_factor if prev_boost is None else prev_boost
    if labels.iteration_blocking_prob > config.blocking_prob_threshold:
        boost = max(1.0, boost / 2.0)
    elif labels.iteration_blocking_prob == 0.0:
        boost = min(policy.boost_factor, boost + 0.25)
    demand: dict[int, int] = {}
    for task in tasks:
        if task.msg_pred is None:
            continue
        if task.msg_pred in labels.blocked_tasks:
            n = policy.base_fs // 2
        elif task.id in labels.cb_tasks:
            # positive: truncation rounds half up; capped first, so no product overflows
            n = int(min(policy.base_fs * boost + 0.5, policy.fs_max))
        else:
            continue
        demand[task.id] = max(1, min(n, policy.fs_max))
    return demand, boost


def verify_label_soundness(
    timeline: Timeline, labels: LabelSet,
    epsilon_bubble_s: float = OrchestratorConfig.epsilon_bubble_s,
) -> int:
    """Assert every CB label directly against the timeline.

    Each labeled task must show a measured intra-stage idle gap above epsilon
    and a cross-DC binding input.  Returns the number of labels checked;
    raises RuntimeError on the first unsound label.
    """
    cross_dc = {x.consumer_id for x in timeline.transfers if x.kind != "intra"}
    for tid in sorted(labels.cb_tasks):
        task = timeline.tasks[tid]
        if task.chain_pred is None or task.msg_pred is None:
            raise RuntimeError(f"task {tid} labeled CB without an eligible dependency pair")
        gap = timeline.start[tid] - timeline.finish[task.chain_pred]
        if gap <= epsilon_bubble_s:
            raise RuntimeError(f"task {tid} labeled CB with idle gap {gap} <= epsilon")
        if tid not in cross_dc:
            raise RuntimeError(f"task {tid} labeled CB without a cross-DC input")
    return len(labels.cb_tasks)


@dataclass(frozen=True)
class IterationResult:
    """One iteration: its timeline, and the labels CBA plans the next one from.

    ``labels`` is None under the first-fit baselines, which plan nothing.
    Every per-iteration metric is read off ``timeline``; an iteration's
    number is its position in ``orchestrate``'s list.
    """

    timeline: Timeline
    labels: LabelSet | None


def orchestrate(
    config: OrchestratorConfig,
    net: Network,
    stages: Sequence[Stage],
    tasks: Sequence[Task],
    policy: PolicyConfig,
    params: LatencyParams,
    msg_bits: float,
) -> list[IterationResult]:
    """Run the full multi-iteration loop; iteration 0 is the warm-up.

    Under CBA the labels of each finished iteration feed the next one's
    demand map; the first-fit baselines always run with base demand and are
    not labeled.  The tasks are only read, so the same list serves every
    iteration.  Background traffic is whatever stream ``net`` carries:
    attach it with ``net.attach_background`` (and pre-warm) before calling.
    Egress state resets between iterations; network state (background
    allocations and the arrival stream) carries over, and
    ``simulate_iteration`` rebases the clock so every iteration runs from
    t=0 with identical arithmetic.  The occupancy invariant is audited after
    every simulated iteration.

    An iteration that starts on a network with no background stream and no
    holding is keyed by its demand map, which is all the engine reads of
    the plan.  Every such start sees the same spectrum, so a demand map seen
    before gives the same timeline: the iteration is not simulated again,
    and the list holds the earlier iteration's result object once more.  A
    first-fit baseline's map is always empty, so it simulates once; CBA's
    maps often fall into a short cycle.  With a background stream attached
    every iteration is simulated.
    """
    plans = policy.selector == "cba"
    labels: LabelSet | None = None
    boost = policy.boost_factor
    results: list[IterationResult] = []
    demand: dict[int, int] = {}
    # demand map -> the result of the iteration that ran it from the quiet start state
    simulated: dict[frozenset, IterationResult] = {}
    for _ in range(config.n_iterations):
        if plans:
            demand, boost = plan_requests(labels, config, tasks, policy, boost)
        # no key when the iteration does not start from the quiet state
        quiet = not net.has_background and not net.holdings()
        key = frozenset(demand.items()) if quiet else None
        result = simulated.get(key)
        if result is None:
            timeline = simulate_iteration(
                net, stages, tasks, policy, params, demand=demand, msg_bits=msg_bits,
            )
            audit_occupancy(net)
            result = IterationResult(
                timeline, label_cb_tasks(timeline, config.epsilon_bubble_s) if plans else None)
            if quiet:
                simulated[key] = result
        labels = result.labels
        results.append(result)
    return results
