"""Communication latency model and per-request FS sizing.

Transfer completion time is a fixed propagation term, a serialization term
proportional to message size and inversely proportional to the allocated
slot count, and a queuing penalty:

    T = alpha(path) + bits * beta(n_fs) + penalty

The penalty is egress-only: the time until the sending stage's previous
outbound transfer has pushed its last bit (``EgressState.pending``).
Transfers sharing a link do not delay each other; they hold disjoint slot
blocks.  Transfers between stages hosted in the same datacenter bypass the
optical network entirely and use a flat intra-DC latency plus an intra-DC
rate.

All default constants are stand-ins chosen for plausible orderings, not
measured values; every one of them is a config key.  The per-slot rate
defaults to 75 Gb/s (12.5 GHz slots carrying 6 bit/symbol).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol


class _PathLike(Protocol):
    length_km: float
    hop_count: int


@dataclass(frozen=True)
class LatencyParams:
    prop_s_per_km: float = 5.0e-6
    per_hop_overhead_s: float = 1.0e-4
    fs_rate_bps: float = 7.5e10
    intra_dc_latency_s: float = 5.0e-5
    intra_dc_rate_bps: float = 4.0e11

    def __post_init__(self) -> None:
        for name in ("prop_s_per_km", "per_hop_overhead_s", "intra_dc_latency_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.fs_rate_bps <= 0 or self.intra_dc_rate_bps <= 0:
            raise ValueError("rates must be positive")


@dataclass
class EgressState:
    """Per-stage time at which the last outbound transfer completes.

    Owned by the engine (single writer); values never decrease within an
    iteration.
    """

    busy_until: dict[int, float] = field(default_factory=dict)

    def pending(self, stage: int, now: float) -> float:
        """Queuing delay of a transfer the stage sends at ``now``."""
        return max(0.0, self.busy_until.get(stage, 0.0) - now)

    def occupy(self, stage: int, until: float) -> None:
        if until > self.busy_until.get(stage, 0.0):
            self.busy_until[stage] = until


def alpha(params: LatencyParams, path: _PathLike) -> float:
    """Propagation term: km * per-km delay + hops * per-hop overhead."""
    return path.length_km * params.prop_s_per_km + path.hop_count * params.per_hop_overhead_s


def beta(params: LatencyParams, n_fs: int) -> float:
    """Serialization time per bit on n_fs slots."""
    if n_fs < 1:
        raise ValueError("n_fs must be >= 1")
    return 1.0 / (n_fs * params.fs_rate_bps)


def transfer_time(
    params: LatencyParams,
    path: _PathLike | None,
    n_fs: int,
    message_bits: float,
    penalty: float = 0.0,
) -> float:
    """Completion time of one transfer; ``path=None`` means intra-DC."""
    if message_bits < 0:
        raise ValueError("message_bits must be nonnegative")
    if path is None:
        return params.intra_dc_latency_s + message_bits / params.intra_dc_rate_bps
    return alpha(params, path) + message_bits * beta(params, n_fs) + penalty


@dataclass(frozen=True)
class RequestLabel:
    """FS-sizing label for one inter-stage message request.

    ``cb`` marks the consumer as communication-bound last iteration;
    ``blocked`` marks the request as having blocked last iteration.
    """

    cb: bool = False
    blocked: bool = False


NORMAL = RequestLabel()


def required_fs(
    base_fs: int,
    label: RequestLabel = NORMAL,
    boost_factor: float = 2.0,
    fs_max: int = 16,
) -> int:
    """Slot demand for a request given its label.

    Communication-bound requests are boosted (rounded half-up, capped at
    fs_max); previously blocked requests are conservatively halved, and that
    reduction wins when a request carries both labels.  Result is always in
    [1, fs_max].
    """
    if base_fs < 1:
        raise ValueError("base_fs must be >= 1")
    if boost_factor < 1:
        raise ValueError("boost_factor must be >= 1")
    if fs_max < 1:
        raise ValueError("fs_max must be >= 1")
    if label.blocked:
        n = base_fs // 2
    elif label.cb:
        n = math.floor(base_fs * boost_factor + 0.5)
    else:
        n = base_fs
    return max(1, min(n, fs_max))
