"""Routing and spectrum assignment over the elastic optical network.

Candidate routes come from the network's route catalog (``net.paths``, see
``topology.PathCatalog``), built once per node pair by k-shortest-path
enumeration; candidate slot blocks come from the path's spectrum bitmask,
the OR of its links' ints.  Three selection policies are provided:

* fitness-based selection: scores each candidate path by
  ``gamma = [B nonempty] / (length_km * availability) * mean block contiguity``
  and picks the argmax, then the highest-contiguity block on that path;
* ``ksp_ff``: first feasible path in shortest-path order, lowest block;
* ``sd_ff``: first feasible path in lowest-propagation-delay order,
  lowest block.

All selectors are pure: they never mutate the network.  Committing the
returned block is the caller's job via ``topology.allocate_spectrum``.

Determinism contract: path order is (length_km, hop count, node sequence);
fitness ties break by shorter length, fewer hops, then path order; block
ties break by lowest start slot.  The contiguity mean is computed from
integer transition counts with a single float division so that independent
reimplementations can match it bit for bit.

Contiguity by popcount.  A block of width ``w`` at start slot f has
contiguity ``1 - n / max(w - 1, 1)``, where n counts the free-to-occupied
steps j-1 -> j for j in f..f+w: its window is the block plus the slot past
its right edge.  On a free block no step inside the block rises, so n is
one bit, set exactly when slot f+w is occupied.  With ``agg`` the path
bitmask, ``r`` the bitmask of free-run starts for width ``w``,
``nfree = popcount(r)`` and ``denom = max(w - 1, 1)``, the sum of n over
the free blocks is ``S = popcount(r & (agg >> w))``, the mean contiguity
is ``(nfree*denom - S) / (nfree*denom)``, and the best block is the lowest
start in ``r & ~(agg >> w)``, or in ``r`` when that is empty.
``optpipe.validate`` holds the slot-by-slot reference that these popcounts
are checked against.

The gamma bound.  Gamma is ``mean_ci / (L * delta)`` with ``mean_ci <= 1``,
and IEEE division is monotone in its dividend, so a path's gamma is at most
``1 / (L * delta)``, computed from the same float product.  ``select_cba``
takes a path only when its gamma is strictly above the best so far, so a
path whose bound is at or below the best cannot win, and it is skipped after
the per-link popcounts that give delta: its free-run starts and contiguity
popcounts are never computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .latency import LatencyParams
from .topology import CandidatePath, Network, free_run_starts, lowest_bit, path_bits


# Lower bound on the mean-contiguity factor when feasible blocks exist.
# Keeps availability equivalent to feasibility (score 0 means exactly "no
# block fits / no capacity"), even where every block scores 0 (at widths 1
# and 2, when each free run is one block long and ends at an occupied slot);
# far below the smallest genuine contiguity quantum, so it never reorders
# paths with nonzero scores.
CI_FLOOR = 1e-9


# The two result records are slotted, not frozen: every selection builds one
# of each, and a frozen dataclass's constructor costs about three times as
# much.  Selectors return a fresh pair per call and nothing writes to them.


@dataclass(slots=True)
class CandidateBlock:
    f_start: int
    f_end: int


@dataclass(slots=True)
class SelectionResult:
    """Outcome of one route-and-spectrum selection.

    ``path``/``block`` are None when every candidate was infeasible
    (a blocking event); ``fitness`` is CBA's gamma of the winning path, 0.0
    when blocked and for the first-fit selectors, which score no path.
    """

    path: CandidatePath | None
    block: CandidateBlock | None
    fitness: float
    candidates_examined: int

    @property
    def blocked(self) -> bool:
        return self.path is None


# ----------------------------------------------------------------------
# path scoring (fitness and CBA)


def _score(path: CandidatePath, width: int, fs_total: int,
           floor: float = 0.0) -> tuple[float, int, int]:
    """(gamma, path bitmask, free-run starts) of one path at the current occupancy.

    Gamma is 0 when no block fits, and also when the bound ``1 / (L * delta)``
    shows it cannot exceed ``floor`` (the starts are then 0, not computed).
    One pass over the links gives both the bitmask (their OR) and the
    occupied slot count (their popcounts).  The availability divisor is the
    mean per-link free fraction.  It is positive whenever a block fits,
    since a free slot is free on every link.
    """
    agg = occupied = 0
    for link in path.links:
        bits = link.bits
        agg |= bits
        occupied += bits.bit_count()
    delta = 1.0 - occupied / (len(path.links) * fs_total)
    scale = path.length_km * delta
    # gamma is mean_ci / scale with mean_ci <= 1, and division is monotone
    if floor > 0.0 and delta > 0.0 and 1.0 / scale <= floor:
        return 0.0, agg, 0
    starts = free_run_starts(agg, width, fs_total)
    nfree = starts.bit_count()
    if nfree == 0:
        return 0.0, agg, starts
    denom = width - 1 if width > 1 else 1
    nd = nfree * denom
    mean_ci = (nd - (starts & (agg >> width)).bit_count()) / nd
    if mean_ci < CI_FLOOR:
        mean_ci = CI_FLOOR
    return mean_ci / scale, agg, starts


def _best_start(agg: int, starts: int, width: int) -> int:
    """Lowest free start among those with the fewest transitions (max CI)."""
    clean = starts & ~(agg >> width)
    return lowest_bit(clean if clean else starts)


def fitness(net: Network, path: CandidatePath, width: int) -> float:
    """Candidate path score: availability-indicator / (L * delta) * mean CI.

    Zero exactly when no block fits (or the aggregate is fully occupied);
    strictly decreasing in path length for fixed spectrum state.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    return _score(path, width, net.fs_total)[0]


def select_cba(net: Network, src: str, dst: str, width: int, k: int) -> SelectionResult:
    """Fitness-based selection: argmax gamma, then highest-CI block.

    Ties: shorter length, fewer hops, earlier path order; block ties take
    the lowest start slot.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    paths = net.paths.candidates(src, dst, k)
    F = net.fs_total
    # candidates come in (length, hops, node sequence) order, so the first
    # path with the highest gamma wins every tie
    best = None
    best_gamma = 0.0
    for p in paths:
        gamma, agg, starts = _score(p, width, F, best_gamma)
        if gamma > best_gamma:
            best, best_gamma = (p, agg, starts), gamma
    if best is None:
        return SelectionResult(None, None, 0.0, len(paths))
    p, agg, starts = best
    f0 = _best_start(agg, starts, width)
    return SelectionResult(p, CandidateBlock(f0, f0 + width - 1), best_gamma, len(paths))


def _first_fit_over(
    net: Network, paths: Sequence[CandidatePath], order: Sequence[int], width: int
) -> SelectionResult:
    F = net.fs_total
    for examined, i in enumerate(order, start=1):
        path = paths[i]
        starts = free_run_starts(path_bits(path.links), width, F)
        if starts:
            f0 = lowest_bit(starts)
            return SelectionResult(path, CandidateBlock(f0, f0 + width - 1), 0.0, examined)
    return SelectionResult(None, None, 0.0, len(paths))


def select_ksp_ff(net: Network, src: str, dst: str, width: int, k: int) -> SelectionResult:
    """First path in shortest-path order with any feasible block, lowest slot."""
    if width < 1:
        raise ValueError("width must be >= 1")
    paths = net.paths.candidates(src, dst, k)
    return _first_fit_over(net, paths, range(len(paths)), width)


def select_sd_ff(
    net: Network, src: str, dst: str, width: int, k: int, params: LatencyParams
) -> SelectionResult:
    """First-fit over the same candidates by ascending propagation delay
    (``PathCatalog.delay_order``), lowest slot."""
    if width < 1:
        raise ValueError("width must be >= 1")
    paths = net.paths.candidates(src, dst, k)
    return _first_fit_over(net, paths, net.paths.delay_order(src, dst, k, params), width)
