"""Co-simulator of pipeline-parallel training over multi-DC elastic optical networks."""

from .cba import (
    IterationResult,
    LabelSet,
    OrchestratorConfig,
    label_cb_tasks,
    orchestrate,
    plan_requests,
)
from .engine import (
    BlockingEvent,
    PolicyConfig,
    Timeline,
    blocking_probability,
    bubble_ratio,
    simulate_iteration,
)
from .latency import EgressState, LatencyParams, alpha, beta, transfer_time
from .rsa import (
    CandidateBlock,
    CandidatePath,
    CiMode,
    SelectionResult,
    fitness,
    k_shortest_paths,
    sd_ff_order,
    select_cba,
    select_ksp_ff,
    select_sd_ff,
)
from .topology import (
    ArrivalTape,
    BackgroundTrafficModel,
    Link,
    Network,
    advance_network,
    allocate_spectrum,
    audit_occupancy,
    load_nsfnet,
    load_topology,
    loaded_background,
    release_spectrum,
    set_link_occupancy,
)
from .workload import (
    Direction,
    ModelProfile,
    ScheduleKind,
    Stage,
    Task,
    build_profile,
    build_schedule,
    partition_stages,
)

__version__ = "0.1.0"
