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
    PolicyConfig,
    Timeline,
    blocking_probability,
    bubble_ratio,
    simulate_iteration,
)
from .latency import LatencyParams, alpha, beta, transfer_time
from .rsa import (
    CandidateBlock,
    CandidatePath,
    SelectionResult,
    fitness,
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
