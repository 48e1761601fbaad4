"""Independent reference implementations used as test oracles.

Everything here is written the slow, obvious way (explicit loops, exhaustive
enumeration) and stays separate from the production code paths it checks.
The float expressions mirror the documented arithmetic (integer transition
counts, one division) so selections can be compared exactly.
"""

from __future__ import annotations

import itertools

from optpipe.latency import LatencyParams
from optpipe.rsa import CiMode
from optpipe.topology import Network, set_link_occupancy

CI_FLOOR = 1e-9  # documented lower bound of the mean-contiguity factor


def simple_paths_sorted(net: Network, src: str, dst: str) -> list[tuple[str, ...]]:
    """All simple paths by (length, hops, node sequence), via DFS."""
    out: list[tuple[float, int, tuple[str, ...]]] = []

    def walk(node: str, seen: tuple[str, ...]) -> None:
        if node == dst:
            out.append((path_length(net, seen), len(seen) - 1, seen))
            return
        for nbr in net.graph.neighbors(node):
            if nbr not in seen:
                walk(nbr, seen + (nbr,))

    walk(src, (src,))
    out.sort()
    return [nodes for _, _, nodes in out]


def path_length(net: Network, nodes: tuple[str, ...]) -> float:
    total = 0.0
    for u, v in zip(nodes, nodes[1:]):
        total += net.link_between(u, v).length_km
    return total


def aggregate(net: Network, nodes: tuple[str, ...]) -> list[int]:
    agg = [0] * net.fs_total
    for u, v in zip(nodes, nodes[1:]):
        occ = net.link_between(u, v).occupancy
        for j in range(net.fs_total):
            agg[j] |= int(occ[j])
    return agg


def free_starts(net: Network, nodes: tuple[str, ...], width: int) -> list[int]:
    agg = aggregate(net, nodes)
    return [
        f
        for f in range(net.fs_total - width + 1)
        if all(agg[f + i] == 0 for i in range(width))
    ]


def ci_reference(occ: list[int], f0: int, f1: int, mode: CiMode) -> float:
    """Direct summation of the transition count, clamped into [0, 1]."""
    F = len(occ)
    if mode is CiMode.LITERAL:
        span = range(f0 + 1, f1 + 1)
    elif mode is CiMode.WINDOW:
        span = range(max(1, f0), min(F - 1, f1 + 1) + 1)
    else:
        span = range(1, F)
    count = sum(1 for j in span if occ[j - 1] == 0 and occ[j] == 1)
    denom = (F - 1) if mode is CiMode.GLOBAL else max(f1 - f0, 1)
    return max(0.0, min(1.0, 1.0 - count / denom))


def clamped_count(occ: list[int], f0: int, f1: int, mode: CiMode) -> int:
    F = len(occ)
    if mode is CiMode.LITERAL:
        span = range(f0 + 1, f1 + 1)
    elif mode is CiMode.WINDOW:
        span = range(max(1, f0), min(F - 1, f1 + 1) + 1)
    else:
        span = range(1, F)
    count = sum(1 for j in span if occ[j - 1] == 0 and occ[j] == 1)
    denom = (F - 1) if mode is CiMode.GLOBAL else max(f1 - f0, 1)
    return min(count, denom)


def gamma(net: Network, nodes: tuple[str, ...], width: int, mode: CiMode):
    """(gamma, starts, per-start clamped counts) per the documented rules."""
    agg = aggregate(net, nodes)
    occupied_total = 0
    n_links = len(nodes) - 1
    for u, v in zip(nodes, nodes[1:]):
        occupied_total += int(net.link_between(u, v).occupancy.sum())
    starts = [
        f
        for f in range(net.fs_total - width + 1)
        if all(agg[f + i] == 0 for i in range(width))
    ]
    delta = 1.0 - occupied_total / (n_links * net.fs_total)
    if not starts or delta <= 0.0:
        return 0.0, starts, []
    d = max(width - 1, 1)
    m = [clamped_count(agg, f, f + width - 1, mode) for f in starts]
    n = len(starts)
    mean_ci = (n * d - sum(m)) / (n * d)
    return max(mean_ci, CI_FLOOR) / (path_length(net, nodes) * delta), starts, m


def select(
    net: Network,
    src: str,
    dst: str,
    width: int,
    k: int,
    mode: CiMode,
    selector: str,
    params: LatencyParams,
):
    """(path nodes | None, f_start | None, gamma) per the spec'd tie-breaks."""
    candidates = simple_paths_sorted(net, src, dst)[:k]
    if selector == "sd_ff":
        def prop(nodes):
            km = path_length(net, nodes)
            return km * params.prop_s_per_km + (len(nodes) - 1) * params.per_hop_overhead_s
        candidates = sorted(candidates, key=prop)
    if selector in ("ksp_ff", "sd_ff"):
        for nodes in candidates:
            starts = free_starts(net, nodes, width)
            if starts:
                return nodes, starts[0], None
        return None, None, None
    best = None
    for i, nodes in enumerate(candidates):
        g, starts, m = gamma(net, nodes, width, mode)
        if g <= 0.0:
            continue
        key = (-g, path_length(net, nodes), len(nodes) - 1, i)
        if best is None or key < best[0]:
            j = m.index(min(m))
            best = (key, nodes, starts[j], g)
    if best is None:
        return None, None, None
    return best[1], best[2], best[3]


def random_network(rng, max_nodes: int = 5, max_fs: int = 10) -> Network:
    """Small connected network with random lengths and random occupancy."""
    import numpy as np

    n = int(rng.integers(2, max_nodes + 1))
    names = [chr(ord("A") + i) for i in range(n)]
    specs = []
    seen = set()
    for i in range(1, n):  # spanning tree first keeps it connected
        j = int(rng.integers(0, i))
        specs.append((names[j], names[i], float(rng.integers(1, 20))))
        seen.add(frozenset((names[j], names[i])))
    for a, b in itertools.combinations(names, 2):
        if frozenset((a, b)) not in seen and rng.random() < 0.4:
            specs.append((a, b, float(rng.integers(1, 20))))
    F = int(rng.integers(4, max_fs + 1))
    net = Network(names, specs, fs_total=F)
    for link in net.links:
        bits = rng.random(F) < rng.uniform(0.1, 0.9)
        set_link_occupancy(net, link.index, bits.astype(np.uint8))
    return net
