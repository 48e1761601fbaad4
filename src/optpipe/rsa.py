"""Routing and spectrum assignment over the elastic optical network.

Candidate routes come from k-shortest-path enumeration; candidate slot
blocks from the path's spectrum bitmask, the OR of its links' ints (see
``topology``).  Three selection policies are provided:

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

Fitness by popcount.  On a free block no transition lies inside the block,
so each mode's clamped transition count reduces to one bit per block.  With
``agg`` the path bitmask, ``r`` the bitmask of free-run starts for width
``w``, ``nfree = popcount(r)`` and ``denom = max(w - 1, 1)``, the sum S of
counts over the free blocks is

* window: ``popcount(r & (agg >> w))``, since a block's window holds one
  transition exactly when slot f+w is occupied;
* literal: 0;
* global: ``nfree * min(popcount(~agg & (agg >> 1) & mask(F-1)), denom)``.

The mean contiguity is ``(nfree*denom - S) / (nfree*denom)`` and the best
window block is the lowest start in ``r & ~(agg >> w)``, or in ``r`` when
that is empty.  ``ci_per_link`` averages the counts over the path's links
instead; it sums those float means in numpy's order, so it is the one
selection path that still builds slot arrays.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import networkx as nx
import numpy as np

from .latency import LatencyParams, alpha
from .topology import (
    Link,
    Network,
    bit_positions,
    free_run_starts,
    lowest_bit,
    path_bits,
    unpack_bits,
)


class CiMode(enum.Enum):
    """Window placement for the contiguity transition count.

    ``literal`` sums strictly inside the block, which makes every free block
    score 1.0; ``window`` (the default) extends the sum one slot past each
    block edge so neighboring occupancy influences the score; ``global``
    counts transitions over the whole vector with denominator F-1.
    """

    LITERAL = "literal"
    WINDOW = "window"
    GLOBAL = "global"


# Lower bound on the mean-contiguity factor when feasible blocks exist.
# Keeps availability equivalent to feasibility (score 0 means exactly "no
# block fits / no capacity"), even in modes where every individual block can
# score 0; far below the smallest genuine contiguity quantum, so it never
# reorders paths with nonzero scores.
CI_FLOOR = 1e-9


@dataclass(frozen=True)
class CandidatePath:
    """A loopless route with its precomputed length and link indices."""

    nodes: tuple[str, ...]
    links: tuple[Link, ...]
    length_km: float
    hop_count: int
    link_indices: tuple[int, ...] = ()


@dataclass(frozen=True)
class CandidateBlock:
    f_start: int
    f_end: int

    @property
    def width(self) -> int:
        return self.f_end - self.f_start + 1


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one route-and-spectrum selection.

    ``path``/``block`` are None when every candidate was infeasible
    (a blocking event); ``fitness`` is the winning path's score.
    """

    path: CandidatePath | None
    block: CandidateBlock | None
    fitness: float
    candidates_examined: int

    @property
    def blocked(self) -> bool:
        return self.path is None


def _path_length(net: Network, nodes: Sequence[str]) -> float:
    total = 0.0
    for u, v in zip(nodes, nodes[1:]):
        total += net.link_between(u, v).length_km
    return total


def _make_candidate(net: Network, nodes: Sequence[str]) -> CandidatePath:
    links = net.path_links(nodes)
    return CandidatePath(
        nodes=tuple(nodes),
        links=links,
        length_km=_path_length(net, nodes),
        hop_count=len(links),
        link_indices=tuple(l.index for l in links),
    )


def _candidate_paths(net: Network, src: str, dst: str, k: int) -> tuple[CandidatePath, ...]:
    """Candidates of ``k_shortest_paths``, cached per (src, dst, k) on the network."""
    if src == dst:
        raise ValueError("src and dst must differ")
    if k < 1:
        raise ValueError("k must be >= 1")
    cache_key = (src, dst, k)
    cached = net._ksp_cache.get(cache_key)
    if cached is not None:
        return cached

    collected: list[tuple[float, int, tuple[str, ...]]] = []
    try:
        gen = nx.shortest_simple_paths(net.graph, src, dst, weight="length_km")
        for nodes in gen:
            length = _path_length(net, nodes)
            collected.append((length, len(nodes) - 1, tuple(nodes)))
            if len(collected) >= k:
                # paths arrive in nondecreasing length; once the newest one is
                # strictly longer than the kth-best we have every tie candidate
                kth = sorted(collected)[k - 1][0]
                if length > kth * (1 + 1e-12) + 1e-12:
                    break
    except nx.NetworkXNoPath:
        pass
    collected.sort()
    result = tuple(_make_candidate(net, nodes) for _, _, nodes in collected[:k])
    net._ksp_cache[cache_key] = result
    return result


def k_shortest_paths(net: Network, src: str, dst: str, k: int) -> list[CandidatePath]:
    """Up to k loopless paths sorted by (length_km, hops, node sequence).

    Matches brute-force enumeration of all simple paths under the same key,
    truncated to k.  Returns an empty list when no path exists.
    """
    return list(_candidate_paths(net, src, dst, k))


def find_candidate_blocks(net: Network, path: CandidatePath, width: int) -> list[CandidateBlock]:
    """Every free block of ``width`` slots on the path, ascending by start."""
    if not (1 <= width <= net.fs_total):
        raise ValueError(f"width {width} outside [1, {net.fs_total}]")
    starts = free_run_starts(path_bits(path.links), width, net.fs_total)
    return [CandidateBlock(f, f + width - 1) for f in bit_positions(starts)]


def contiguity_index(
    occupancy: np.ndarray | Sequence[int],
    block: tuple[int, int],
    mode: CiMode = CiMode.WINDOW,
) -> float:
    """Fragmentation score in [0, 1] for one block on one occupancy vector.

    Counts free-to-occupied transitions (s[j-1]=0 and s[j]=1) over the
    mode's summation window and normalizes by the block span (or F-1 in
    global mode).  Width-1 blocks use denominator 1; results clamp to [0,1].
    """
    s = np.asarray(occupancy, dtype=np.uint8)
    F = s.shape[0]
    f0, f1 = block
    if not (0 <= f0 <= f1 < F):
        raise ValueError(f"block {block} outside [0, {F})")
    if mode is CiMode.LITERAL:
        lo, hi = f0 + 1, f1
    elif mode is CiMode.WINDOW:
        lo, hi = max(1, f0), min(F - 1, f1 + 1)
    elif mode is CiMode.GLOBAL:
        lo, hi = 1, F - 1
    else:
        raise ValueError(f"unknown mode {mode!r}")
    count = 0
    for j in range(lo, hi + 1):
        if s[j - 1] == 0 and s[j] == 1:
            count += 1
    denom = (F - 1) if mode is CiMode.GLOBAL else (f1 - f0)
    denom = max(denom, 1)
    return (denom - min(count, denom)) / denom


def availability_factor(net: Network, path: CandidatePath) -> float:
    """1 - occupied/F over the path-aggregate occupancy; 0 only when full."""
    return 1.0 - path_bits(path.links).bit_count() / net.fs_total


# ----------------------------------------------------------------------
# path scoring (shared by fitness and the selectors)


def _rises(agg: int, fs_total: int) -> int:
    """Number of free-to-occupied transitions (slot j-1 free, slot j occupied)."""
    return (~agg & (agg >> 1) & ((1 << (fs_total - 1)) - 1)).bit_count()


def _per_link_counts(
    path: CandidatePath, starts: int, width: int, mode: CiMode, fs_total: int, denom: int
) -> np.ndarray:
    """Per-start clamped transition counts summed over the path's links.

    Zero at starts that are not free.  On a free block each link's count is
    its own window bit, nothing, or its own clamped rise count (global).
    """
    nstarts = fs_total - width + 1
    counts = np.zeros(nstarts, dtype=np.int64)
    if mode is CiMode.WINDOW:
        for link in path.links:
            counts += unpack_bits(starts & (link.bits >> width), nstarts)
    elif mode is CiMode.GLOBAL:
        per_block = sum(min(_rises(link.bits, fs_total), denom) for link in path.links)
        counts += unpack_bits(starts, nstarts) * per_block
    return counts


def _gamma(
    path: CandidatePath, agg: int, starts: int, width: int, mode: CiMode,
    ci_per_link: bool, fs_total: int,
) -> float:
    """Fitness of a path given its bitmask and free-run starts; 0 when none fit.

    The availability divisor is the mean per-link free fraction.  It is
    positive whenever a block fits, since a free slot is free on every link.
    """
    nfree = starts.bit_count()
    if nfree == 0:
        return 0.0
    occupied = 0
    for link in path.links:
        occupied += link.bits.bit_count()
    delta = 1.0 - occupied / (len(path.links) * fs_total)
    denom = max(width - 1, 1)
    if ci_per_link:
        counts = _per_link_counts(path, starts, width, mode, fs_total, denom)
        S = float((counts / len(path.links)).sum())
    elif mode is CiMode.WINDOW:
        S = (starts & (agg >> width)).bit_count()
    elif mode is CiMode.GLOBAL:
        S = nfree * min(_rises(agg, fs_total), denom)
    else:
        S = 0
    nd = nfree * denom
    mean_ci = (nd - S) / nd
    return max(mean_ci, CI_FLOOR) / (path.length_km * delta)


def _score(
    path: CandidatePath, width: int, mode: CiMode, ci_per_link: bool, fs_total: int
) -> tuple[float, int, int]:
    """(gamma, path bitmask, free-run starts) of one path at the current occupancy."""
    agg = path_bits(path.links)
    starts = free_run_starts(agg, width, fs_total)
    return _gamma(path, agg, starts, width, mode, ci_per_link, fs_total), agg, starts


def _best_start(
    path: CandidatePath, agg: int, starts: int, width: int, mode: CiMode,
    ci_per_link: bool, fs_total: int,
) -> int:
    """Lowest free start among those with the fewest transitions (max CI)."""
    if ci_per_link:
        counts = _per_link_counts(path, starts, width, mode, fs_total, max(width - 1, 1))
        return min(bit_positions(starts), key=lambda f: counts[f])
    if mode is CiMode.WINDOW:
        clean = starts & ~(agg >> width)
        if clean:
            return lowest_bit(clean)
    return lowest_bit(starts)


def fitness(
    net: Network,
    path: CandidatePath,
    width: int,
    mode: CiMode = CiMode.WINDOW,
    ci_per_link: bool = False,
) -> float:
    """Candidate path score: availability-indicator / (L * delta) * mean CI.

    Zero exactly when no block fits (or the aggregate is fully occupied);
    strictly decreasing in path length for fixed spectrum state.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    return _score(path, width, mode, ci_per_link, net.fs_total)[0]


def select_cba(
    net: Network,
    src: str,
    dst: str,
    width: int,
    k: int,
    mode: CiMode = CiMode.WINDOW,
    ci_per_link: bool = False,
) -> SelectionResult:
    """Fitness-based selection: argmax gamma, then highest-CI block.

    Ties: shorter length, fewer hops, earlier path order; block ties take
    the lowest start slot.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    paths = _candidate_paths(net, src, dst, k)
    F = net.fs_total
    best = None
    for i, p in enumerate(paths):
        gamma, agg, starts = _score(p, width, mode, ci_per_link, F)
        if gamma <= 0.0:
            continue
        key = (-gamma, p.length_km, p.hop_count, i)
        if best is None or key < best[0]:
            best = (key, gamma, p, agg, starts)
    if best is None:
        return SelectionResult(None, None, 0.0, len(paths))
    _, gamma, p, agg, starts = best
    f0 = _best_start(p, agg, starts, width, mode, ci_per_link, F)
    return SelectionResult(p, CandidateBlock(f0, f0 + width - 1), gamma, len(paths))


def _first_fit_over(
    net: Network, paths: Sequence[CandidatePath], order: Sequence[int], width: int
) -> SelectionResult:
    F = net.fs_total
    for examined, i in enumerate(order, start=1):
        path = paths[i]
        agg = path_bits(path.links)
        starts = free_run_starts(agg, width, F)
        if starts:
            f0 = lowest_bit(starts)
            gamma = _gamma(path, agg, starts, width, CiMode.WINDOW, False, F)
            return SelectionResult(path, CandidateBlock(f0, f0 + width - 1), gamma, examined)
    return SelectionResult(None, None, 0.0, len(paths))


def select_ksp_ff(net: Network, src: str, dst: str, width: int, k: int) -> SelectionResult:
    """First path in shortest-path order with any feasible block, lowest slot."""
    if width < 1:
        raise ValueError("width must be >= 1")
    paths = _candidate_paths(net, src, dst, k)
    return _first_fit_over(net, paths, range(len(paths)), width)


def sd_ff_order(
    net: Network, src: str, dst: str, k: int, params: LatencyParams
) -> tuple[int, ...]:
    """SD-FF's trial order: indices into ``k_shortest_paths`` by propagation delay.

    The delay term is length * per-km delay + hops * per-hop overhead, so the
    order can differ from pure km order when hop counts differ.  The sort is
    stable, so it is the identity whenever the delay order agrees with the
    shortest-path order.  It depends only on the topology, ``k`` and the two
    delay parameters, never on occupancy.
    """
    paths = _candidate_paths(net, src, dst, k)
    cache_key = (src, dst, k, params.prop_s_per_km, params.per_hop_overhead_s)
    order = net._order_cache.get(cache_key)
    if order is None:
        order = tuple(sorted(range(len(paths)), key=lambda i: alpha(params, paths[i])))
        net._order_cache[cache_key] = order
    return order


def select_sd_ff(
    net: Network, src: str, dst: str, width: int, k: int, params: LatencyParams
) -> SelectionResult:
    """First-fit over the same candidates in ``sd_ff_order``, lowest slot."""
    if width < 1:
        raise ValueError("width must be >= 1")
    paths = _candidate_paths(net, src, dst, k)
    return _first_fit_over(net, paths, sd_ff_order(net, src, dst, k, params), width)
