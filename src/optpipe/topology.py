"""Multi-datacenter elastic optical network state.

The network is a graph of datacenter nodes joined by fiber links.  Every
link carries the same number of frequency slots (FS); a transfer occupies a
contiguous slot block on every link of its path.  This module owns all
spectrum bookkeeping: holdings, time-driven state updates, and the synthetic
background traffic that makes optical path availability vary over time.  It
also owns the routes: each network's
``paths`` is a ``PathCatalog`` that memoises, per node pair, the candidate
paths every selector tries, SD-FF's delay order over them, and the
shortest path that background admission uses.  Both routers are plain
Python over ``Network.adjacency``.

Background arrivals come from an ``ArrivalTape``, which holds the draw-order
contract: the seeded draws of one traffic model over one node list, made
once, on demand, and kept.  The draws are those of
``numpy.random.default_rng(rng_seed)``, made by the plain-Python port in
``optpipe.rng``, so a run never imports numpy.  A network draws the tape of
the model it is given and reads it through its own cursor; a snapshot keeps
the cursor, so the runs restored from one prewarmed network replay its tape.
A tape holds at most ``MAX_BG_ARRIVALS`` arrivals: a run that needs more
stops with ``ArrivalCapError``, so no finite configuration draws forever.

Every holding, a training transfer or an admitted background arrival, gets
its release time when it is made, and ``advance_network`` frees it at that
time; nothing releases spectrum early.  A network's mutable state is four
things: the clock, ``Link.bits``, one heap of holdings by release time, and
the arrival cursor (tape, position, next arrival time).
``Network.snapshot`` records it and ``Network.restore`` brings it back, so
one prewarmed network can serve as the start state of many runs: its routes
and its tape stay, and each run begins from the same instant.

Spectrum state is one Python ``int`` per link, ``Link.bits``: bit f is set
when slot f is occupied.  A path's aggregate is the OR of its links' ints
(``path_bits``), the starts of free runs come from shift-AND folding
(``free_run_starts``) and the lowest one from ``x & -x``.
The int is the only spectrum state.  ``Link.occupancy`` is a tuple of 0/1
slots derived from it on each access, so the view is read-only;
``set_link_occupancy`` packs any 0/1 sequence into a link's int, for
building test instances.  Both serve the reference layer, the tests and the
benchmark's tracer, in plain Python.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from array import array
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Sequence

from .latency import LatencyParams, alpha
from .rng import default_rng

DEFAULT_FS_TOTAL = 80
# Cap on the arrivals one tape may hold, about 100x the largest shipped config:
# every arrival costs draw and admission time and stays on the tape.
MAX_BG_ARRIVALS = 1_000_000


class TopologyError(ValueError):
    """Topology file is malformed or violates a structural constraint."""


class SpectrumConflictError(RuntimeError):
    """An allocation would overlap slots already occupied (caller bug)."""


class ArrivalCapError(RuntimeError):
    """An arrival tape was asked for more than ``MAX_BG_ARRIVALS`` arrivals."""


class RepeatedKeyError(ValueError):
    """A JSON object names one key twice; the argument is the key."""


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` for ``json``: a plain load keeps a repeated key's
    last value without a word, this refuses it."""
    doc: dict = {}
    for key, value in pairs:
        if key in doc:
            raise RepeatedKeyError(key)
        doc[key] = value
    return doc


@dataclass(eq=False, slots=True)
class Link:
    """One fiber link.  ``bits`` is its spectrum state; only Network writes it."""

    index: int
    a: str
    b: str
    length_km: float
    fs_total: int
    bits: int = 0

    @property
    def occupancy(self) -> tuple[int, ...]:
        """Slot f is 1 when occupied, 0 when free: a read-only view of ``bits``."""
        bits = self.bits
        return tuple((bits >> f) & 1 for f in range(self.fs_total))

    def __repr__(self) -> str:
        return f"Link({self.a}-{self.b}, {self.length_km} km)"


# one holding: (release_time, tie-break, links, f_start, f_end, training)
Holding = tuple[float, int, tuple[Link, ...], int, int, bool]


@dataclass(frozen=True)
class CandidatePath:
    """A loopless route with its links and precomputed length."""

    nodes: tuple[str, ...]
    links: tuple[Link, ...]
    length_km: float
    hop_count: int


class PathCatalog:
    """The routes of one network, memoised per node pair; entries never change.

    ``candidates`` are the paths every selector tries and ``delay_order`` is
    SD-FF's order over them.  ``background`` is the path that background
    admission uses: the Dijkstra route of ``_dijkstra``, which breaks length
    ties its own way and so differs from ``candidates(src, dst, 1)[0]`` on
    some pairs (29 of the 182 ordered NSFNET pairs, PA->NJ among them).
    Merging the two would change every background allocation.
    """

    def __init__(self, net: Network):
        self._net = net
        self._candidates: dict[tuple[str, str, int], tuple[CandidatePath, ...]] = {}
        self._delay: dict[tuple[str, str, int, float, float], tuple[int, ...]] = {}
        self._background: dict[tuple[str, str], tuple[Link, ...]] = {}

    def _check_nodes(self, *nodes: str) -> None:
        for node in nodes:
            if node not in self._net.adjacency:
                raise TopologyError(f"unknown node {node!r}")

    def candidates(self, src: str, dst: str, k: int) -> tuple[CandidatePath, ...]:
        """Up to k loopless paths sorted by (length_km, hops, node sequence).

        Matches brute-force enumeration of all simple paths under the same
        key, truncated to k.  Empty when no path exists.

        A best-first search over partial simple paths, keyed by length so
        far plus the Dijkstra distance left to ``dst``.  Once k paths are
        complete, nothing is expanded whose key exceeds the kth-best length
        (with a 1e-12 tolerance for rounding in the keys), so every path that
        ties for a place is found before the exact sort.
        """
        cached = self._candidates.get((src, dst, k))
        if cached is not None:
            return cached
        if src == dst:
            raise ValueError("src and dst must differ")
        if k < 1:
            raise ValueError("k must be >= 1")
        self._check_nodes(src, dst)
        adjacency = self._net.adjacency
        to_dst = _dijkstra(adjacency, dst)[0]
        found: list[tuple[float, int, tuple[str, ...]]] = []
        cutoff = math.inf
        heap = [(to_dst[src], 0.0, (src,))] if src in to_dst else []
        while heap:
            key, length, nodes = heapq.heappop(heap)
            if key > cutoff:
                break
            node = nodes[-1]
            if node == dst:
                found.append((length, len(nodes) - 1, nodes))
                if len(found) >= k:
                    kth = sorted(found)[k - 1][0]
                    cutoff = kth * (1 + 1e-12) + 1e-12
                continue
            for nbr, link in adjacency[node].items():
                if nbr not in nodes:
                    step = length + link.length_km
                    heapq.heappush(heap, (step + to_dst[nbr], step, nodes + (nbr,)))
        found.sort()
        result = tuple(
            CandidatePath(nodes, self._net.path_links(nodes), length, hops)
            for length, hops, nodes in found[:k]
        )
        self._candidates[(src, dst, k)] = result
        return result

    def delay_order(self, src: str, dst: str, k: int, params: LatencyParams) -> tuple[int, ...]:
        """Indices into ``candidates(src, dst, k)`` by ascending propagation delay.

        The sort is stable, so it is the identity whenever the delay order
        agrees with the shortest-path order.  It depends only on the
        topology, ``k`` and the two delay parameters, never on occupancy.
        """
        key = (src, dst, k, params.prop_s_per_km, params.per_hop_overhead_s)
        order = self._delay.get(key)
        if order is None:
            paths = self.candidates(src, dst, k)
            order = tuple(sorted(range(len(paths)), key=lambda i: alpha(params, paths[i])))
            self._delay[key] = order
        return order

    def background(self, src: str, dst: str) -> tuple[Link, ...]:
        """Links of the Dijkstra shortest path by length_km."""
        links = self._background.get((src, dst))
        if links is None:
            self._check_nodes(src, dst)
            dist, pred = _dijkstra(self._net.adjacency, src, dst)
            if dst not in dist:
                raise TopologyError(f"no route between {src!r} and {dst!r}")
            nodes = [dst]
            while nodes[-1] != src:
                nodes.append(pred[nodes[-1]])
            links = self._background[(src, dst)] = self._net.path_links(nodes[::-1])
        return links


def _dijkstra(adjacency: dict[str, dict[str, Link]], source: str, target: str | None = None,
              ) -> tuple[dict[str, float], dict[str, str]]:
    """Distances by length_km from ``source`` and each reached node's predecessor.

    The tie-breaking is that of networkx's ``dijkstra_path``, and the golden
    outputs depend on it: the heap holds (distance, push counter, node),
    neighbours are scanned in ``adjacency`` order (link order), and a
    predecessor changes only on a strict improvement.  Stops once ``target``
    is settled; without one it settles every node that ``source`` reaches.
    """
    dist: dict[str, float] = {}
    seen: dict[str, float] = {source: 0}
    pred: dict[str, str] = {}
    counter = itertools.count()
    heap = [(0, next(counter), source)]
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        if node == target:
            break
        for nbr, link in adjacency[node].items():
            step = d + link.length_km
            if nbr not in dist and (nbr not in seen or step < seen[nbr]):
                seen[nbr] = step
                pred[nbr] = node
                heapq.heappush(heap, (step, next(counter), nbr))
    return dist, pred


@dataclass(frozen=True)
class BackgroundTrafficModel:
    """Poisson/exponential background demand parameters.

    Arrivals form a Poisson process of rate ``arrival_rate_per_s``; each
    arrival picks a uniform ordered node pair, a uniform integer FS demand in
    ``fs_demand_range`` (inclusive), and an exponential holding time with
    mean ``mean_hold_s``.  Admission is first-fit on the shortest path and
    silently drops blocked arrivals.
    """

    arrival_rate_per_s: float = 0.0
    mean_hold_s: float = 1.0
    fs_demand_range: tuple[int, int] = (1, 8)
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.arrival_rate_per_s < 0:
            raise ValueError("arrival_rate_per_s must be nonnegative")
        if self.mean_hold_s < 0:
            raise ValueError("mean_hold_s must be nonnegative")
        lo, hi = self.fs_demand_range
        if not (1 <= lo <= hi):
            raise ValueError("fs_demand_range must satisfy 1 <= lo <= hi")


def loaded_background(seed: int) -> BackgroundTrafficModel:
    """The documented "loaded" preset used for blocking experiments.

    Calibrated so that first-fit baselines see a few-percent blocking rate
    on NSFNET at 80 slots while the network stays usable.  Runs should
    pre-warm the network by about five holding times before measuring so
    occupancy starts at steady state.
    """
    return BackgroundTrafficModel(
        arrival_rate_per_s=30.0,
        mean_hold_s=6.0,
        fs_demand_range=(2, 10),
        rng_seed=seed,
    )


def _small_int_array(largest: int) -> array:
    """An empty typed array whose items hold 0..largest in the fewest bytes."""
    return array(next(c for c in "BHIQ" if largest < 1 << 8 * array(c).itemsize))


class ArrivalTape:
    """The seeded background arrivals of one model over one node list, drawn once.

    Arrival k is drawn when a reader first needs it and kept, so every
    network that reads the tape sees the same arrivals however it advances.
    The per-arrival draw order is part of the replay contract (tests replay
    it independently with numpy's ``default_rng(rng_seed)``).
    ``Generator.arrival`` makes the five draws: the inter-arrival gap
    ``exponential(1 / rate)``, the source ``integers(0, n)``, the destination
    offset ``integers(0, n - 1)``, the FS demand ``integers(lo, hi + 1)`` and
    the holding time ``exponential(mean_hold_s)``.  The arrivals are stored in
    typed arrays; the destination is kept as a node index with the offset applied.
    """

    def __init__(self, model: BackgroundTrafficModel, nodes: Sequence[str]):
        self.model = model
        self.nodes = tuple(nodes)
        self.active = model.arrival_rate_per_s > 0 and len(self.nodes) >= 2
        self._rng = default_rng(model.rng_seed)
        if self.active:
            lo, hi = model.fs_demand_range
            self._draw_args = (1.0 / model.arrival_rate_per_s, len(self.nodes), lo, hi,
                               model.mean_hold_s)
        self.gaps = array("d")
        self.src = _small_int_array(len(self.nodes))
        self.dst = _small_int_array(len(self.nodes))
        self.demand = _small_int_array(model.fs_demand_range[1])
        self.hold = array("d")

    def __len__(self) -> int:
        return len(self.gaps)

    def draw(self) -> None:
        """Append the next arrival; raises ArrivalCapError past ``MAX_BG_ARRIVALS``."""
        if len(self.gaps) >= MAX_BG_ARRIVALS:
            raise ArrivalCapError(
                f"the background drew its cap of {MAX_BG_ARRIVALS} arrivals "
                f"{math.fsum(self.gaps):.6g} s into simulated time")
        gap, i, j, demand, hold = self._rng.arrival(*self._draw_args)
        self.gaps.append(gap)
        self.src.append(i)
        self.dst.append(j + 1 if j >= i else j)
        self.demand.append(demand)
        self.hold.append(hold)


@dataclass(frozen=True, eq=False)
class NetworkSnapshot:
    """The mutable state of one network at one instant, for ``Network.restore``.

    Everything in it is immutable: the clock, each link's spectrum int, the
    holdings heap as a tuple, and the arrival cursor (tape, position, next
    arrival time).  The tape is shared, not copied; it is append-only, so a
    restored cursor reads the arrivals it would have read.  A snapshot
    restores only onto the network it was taken of, whose links its holdings
    name.
    """

    network: Network
    now: float
    bits: tuple[int, ...]
    held: tuple[Holding, ...]
    cursor: tuple[ArrivalTape | None, int, float]


class Network:
    """Single-writer network state: topology plus live spectrum occupancy.

    Each link carries both directions: a slot it holds for one direction is
    taken for the other as well.
    """

    def __init__(
        self,
        nodes: Sequence[str],
        link_specs: Sequence[tuple[str, str, float]],
        fs_total: int = DEFAULT_FS_TOTAL,
    ):
        if fs_total < 1:
            raise TopologyError("fs_total must be >= 1")
        self.nodes = list(nodes)
        self.fs_total = int(fs_total)
        self.now = 0.0

        self.links: list[Link] = []
        # node -> {neighbour: link}, nodes in list order and neighbours in
        # link order: the order in which both routers scan them
        self.adjacency: dict[str, dict[str, Link]] = {n: {} for n in self.nodes}
        for idx, (a, b, km) in enumerate(link_specs):
            link = Link(index=idx, a=a, b=b, length_km=float(km), fs_total=self.fs_total)
            self.links.append(link)
            self.adjacency.setdefault(a, {})[b] = link
            self.adjacency.setdefault(b, {})[a] = link

        # the one spectrum ledger: a heap of holdings by release time.  The
        # tie-break only orders holdings that share a release time, whose
        # order never changes the state, so a snapshot need not keep it.
        self._held: list[Holding] = []
        self._tie_break = itertools.count()
        # the arrival cursor: the tape, the arrivals read from it (the pending
        # one included) and when the pending one is due (inf without one)
        self._tape: ArrivalTape | None = None
        self._pos = 0
        self._next_arrival = math.inf
        self.paths = PathCatalog(self)

    # ------------------------------------------------------------------
    # topology queries

    def link_between(self, a: str, b: str) -> Link:
        try:
            return self.adjacency[a][b]
        except KeyError:
            raise TopologyError(f"no link between {a!r} and {b!r}") from None

    def path_links(self, node_seq: Sequence[str]) -> tuple[Link, ...]:
        return tuple(self.link_between(u, v) for u, v in zip(node_seq, node_seq[1:]))

    def holdings(self, training: bool | None = None,
                 ) -> list[tuple[float, int, int, tuple[int, ...]]]:
        """The live holdings as sorted (release_time, f_start, f_end, link
        indices); ``training`` True or False keeps only that kind."""
        return sorted((t, f0, f1, tuple(link.index for link in links))
                      for t, _, links, f0, f1, kind in self._held
                      if training is None or kind == training)

    @property
    def has_background(self) -> bool:
        """True once ``attach_background`` has given the network an arrival tape."""
        return self._tape is not None

    # ------------------------------------------------------------------
    # start states

    def snapshot(self) -> NetworkSnapshot:
        """The network's current state; ``restore`` brings it back any number of times."""
        return NetworkSnapshot(
            network=self,
            now=self.now,
            bits=tuple(link.bits for link in self.links),
            held=tuple(self._held),
            cursor=(self._tape, self._pos, self._next_arrival),
        )

    def restore(self, snapshot: NetworkSnapshot) -> None:
        """Return to the state of ``snapshot``, taken earlier of this network.

        The routes are kept: they depend on the topology alone.  Whatever ran
        since the snapshot (allocations, releases, the clock, the arrival
        cursor) is undone, and the snapshot itself never changes.
        """
        if snapshot.network is not self:
            raise ValueError("the snapshot was taken of another network")
        self.now = snapshot.now
        for link, bits in zip(self.links, snapshot.bits):
            link.bits = bits
        self._held = list(snapshot.held)
        self._tape, self._pos, self._next_arrival = snapshot.cursor

    # ------------------------------------------------------------------
    # background traffic

    def rebase(self, origin: float) -> None:
        """Shift the clock so ``origin`` becomes time zero.

        Used between iterations so each one runs from t=0 with bit-identical
        arithmetic; the holdings and the next arrival shift with it.
        """
        if origin == 0.0:
            return
        self.now -= origin
        # rounding can make distinct release times equal, so re-heapify
        self._held = [(t - origin, seq, links, f0, f1, training)
                      for t, seq, links, f0, f1, training in self._held]
        heapq.heapify(self._held)
        self._next_arrival -= origin

    def attach_background(self, model: BackgroundTrafficModel) -> None:
        """Attach the network's one arrival tape, its cursor based at the current clock.

        The network draws the model's arrivals onto a tape of its own and owns
        the cursor from then on: ``advance_network`` reads through it, and it
        carries over between iterations.  The cursor keeps its own clock: it
        adds the tape's gaps to ``_next_arrival``, which ``rebase`` shifts, so
        each reader's arithmetic is what it would be with the draws made in
        place.  Harness code attaches at t=0, before the prewarm, so that
        paired runs with the same seed observe bit-identical arrival
        sequences.  A network takes one tape; attaching a second raises.
        """
        if self._tape is not None:
            raise RuntimeError("a background stream is already attached")
        self._tape = ArrivalTape(model, self.nodes)
        if self._tape.active:
            self._next_arrival = self.now
            self._step_cursor()

    def _step_cursor(self) -> None:
        """Make the tape's next arrival the pending one, drawing it if need be."""
        tape, k = self._tape, self._pos
        if k == len(tape):
            tape.draw()
        self._pos = k + 1
        self._next_arrival += tape.gaps[k]

    def _admit_next_arrival(self) -> bool:
        """Admit the pending arrival first-fit on its route and step the
        cursor; False when the arrival is blocked and dropped."""
        tape, k, t = self._tape, self._pos - 1, self._next_arrival
        nodes = tape.nodes
        src, dst, demand, hold = (nodes[tape.src[k]], nodes[tape.dst[k]], tape.demand[k],
                                  tape.hold[k])
        self._step_cursor()
        if demand > self.fs_total:
            return False
        links = self.paths.background(src, dst)
        start = first_free_run(path_bits(links), demand, self.fs_total)
        if start is None:
            return False
        f1 = start + demand - 1
        self._hold(links, start, f1, block_mask(start, f1), t + hold, False)
        return True

    def _hold(self, links: tuple[Link, ...], f0: int, f1: int, mask: int, release_time: float,
              training: bool) -> None:
        """Set ``mask`` (slots f0..f1) on every link until ``release_time``."""
        for link in links:
            link.bits |= mask
        heapq.heappush(self._held, (release_time, next(self._tie_break), links, f0, f1, training))


def load_topology(text: str, fs_total: int = DEFAULT_FS_TOTAL) -> Network:
    """Parse UTF-8 JSON topology content into a fresh all-free Network.

    Expected shape: ``{"nodes": [str], "links": [{"a", "b", "length_km"}]}``.
    The slot count comes from the run configuration, not the file.  No object
    may repeat a key, and no node name may hold ``>``, tab or a line break,
    which separate the fields of the event log.  The links' total length must
    be a finite float, so no path's length overflows.
    """
    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except RepeatedKeyError as exc:
        raise TopologyError(f"key {exc.args[0]!r} appears more than once") from exc
    except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
        raise TopologyError(f"topology is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "nodes" not in doc or "links" not in doc:
        raise TopologyError("topology must be an object with 'nodes' and 'links'")
    if not isinstance(doc["links"], list):
        raise TopologyError("'links' must be a list")

    nodes = doc["nodes"]
    if not isinstance(nodes, list) or not all(isinstance(n, str) and n for n in nodes):
        raise TopologyError("'nodes' must be a list of nonempty strings")
    if len(set(nodes)) != len(nodes):
        dupes = sorted({n for n in nodes if nodes.count(n) > 1})
        raise TopologyError(f"duplicate node names: {dupes}")
    for n in nodes:
        if any(c in n for c in ">\t\n\r"):
            raise TopologyError(f"node name {n!r} holds '>', a tab or a line break, "
                                "which the event log reserves")
    known = set(nodes)

    specs: list[tuple[str, str, float]] = []
    seen_pairs: set[frozenset[str]] = set()
    for entry in doc["links"]:
        try:
            a, b, length = entry["a"], entry["b"], entry["length_km"]
            km = float(length)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise TopologyError(f"malformed link entry {entry!r}") from exc
        # float() also takes JSON true/false and numeric strings; only numbers count
        if not (isinstance(a, str) and isinstance(b, str)) or isinstance(length, (bool, str)):
            raise TopologyError(f"malformed link entry {entry!r}")
        for end in (a, b):
            if end not in known:
                raise TopologyError(f"link {a}-{b} references unknown node {end!r}")
        if a == b:
            raise TopologyError(f"link {a}-{b} is a self-loop")
        if not 0 < km < math.inf:
            raise TopologyError(f"link {a}-{b} has nonpositive or non-finite length {km}")
        pair = frozenset((a, b))
        if pair in seen_pairs:
            raise TopologyError(f"duplicate link {a}-{b}")
        seen_pairs.add(pair)
        specs.append((a, b, km))
    if not math.isfinite(sum(km for *_, km in specs)):
        raise TopologyError("the links' total length is past the float range")

    net = Network(nodes, specs, fs_total=fs_total)
    if len(nodes) > 1 and len(_dijkstra(net.adjacency, nodes[0])[0]) < len(nodes):
        raise TopologyError("topology graph is not connected")
    return net


def load_topology_file(path: str, fs_total: int = DEFAULT_FS_TOTAL) -> Network:
    with open(path, encoding="utf-8") as fh:
        return load_topology(fh.read(), fs_total)


def nsfnet_text() -> str:
    """Raw JSON of the bundled 14-node / 21-link NSFNET reference topology."""
    return resources.files("optpipe.data").joinpath("nsfnet.json").read_text("utf-8")


def load_nsfnet(fs_total: int = DEFAULT_FS_TOTAL) -> Network:
    return load_topology(nsfnet_text(), fs_total)


# ----------------------------------------------------------------------
# operations


def advance_network(net: Network, now: float) -> int:
    """Bring network state up to ``now``; returns the number of state changes.

    Releases every holding whose release time has passed and admits
    background arrivals from the tape attached to the network (none when
    ``attach_background`` was never called), chronologically interleaved
    (releases first on ties).  Blocked arrivals drop silently.  Idempotent:
    a second call at the same ``now`` reports zero changes.
    """
    if now < net.now - 1e-12:
        raise ValueError(f"time went backwards: {now} < {net.now}")
    held = net._held
    changes = 0
    while True:
        t_rel = held[0][0] if held else math.inf
        t_arr = net._next_arrival
        if t_rel <= t_arr:
            if t_rel > now:
                break
            _, _, links, f0, f1, _ = heapq.heappop(held)
            keep = ~block_mask(f0, f1)
            for link in links:
                link.bits &= keep
            changes += 1
        else:
            if t_arr > now:
                break
            if net._admit_next_arrival():
                changes += 1
    if now > net.now:
        net.now = now
    return changes


def allocate_spectrum(
    net: Network,
    links: Sequence[Link],
    block: tuple[int, int],
    release_time: float,
    training: bool = False,
) -> None:
    """Hold an identical slot block on every link of the path until
    ``release_time``, when ``advance_network`` frees it.

    ``training`` marks a training transfer, which the engine's leak check
    looks for at the iteration end; a holding made without it counts as
    background.  The caller (the selection policy) must have verified
    freeness; any occupied slot here is a programming error and raises.
    """
    f0, f1 = block
    if not links:
        raise ValueError("empty path")
    if not (0 <= f0 <= f1 < net.fs_total):
        raise ValueError(f"block {block} outside [0, {net.fs_total})")
    if not (release_time > net.now):
        raise ValueError("release_time must be in the future")
    mask = block_mask(f0, f1)
    for link in links:
        if link.bits & mask:
            raise SpectrumConflictError(f"slots [{f0},{f1}] not free on {link!r}")
    net._hold(tuple(links), f0, f1, mask, release_time, training)


def set_link_occupancy(net: Network, link_index: int, slots: Iterable[int]) -> None:
    """Overwrite one link's slot state from an F-length 0/1 sequence.

    Any iterable of 0/1 values (or booleans) packs, a numpy array included;
    slot f becomes bit f.  Builds test and oracle instances without
    holdings, so such a network fails ``audit_occupancy``.  A link that a
    holding uses is refused, because its release would then clear slots set
    here.
    """
    link = net.links[link_index]
    if any(link in links for _, _, links, _, _, _ in net._held):
        raise SpectrumConflictError(f"{link!r} carries holdings; let them expire first")
    slots = list(slots)
    if len(slots) != net.fs_total or any(v not in (0, 1) for v in slots):
        raise ValueError(f"slots must be a 0/1 vector of length {net.fs_total}")
    link.bits = sum(1 << f for f, v in enumerate(slots) if v)


# ----------------------------------------------------------------------
# bitset spectrum helpers


def block_mask(f0: int, f1: int) -> int:
    """Bitmask of slots f0..f1 inclusive."""
    return ((1 << (f1 - f0 + 1)) - 1) << f0


def path_bits(links: Iterable[Link]) -> int:
    """OR of the links' spectrum ints: a slot is free on the path iff its bit is 0."""
    agg = 0
    for link in links:
        agg |= link.bits
    return agg


def free_run_starts(agg: int, width: int, fs_total: int) -> int:
    """Bitmask of starts f such that slots f..f+width-1 are all free in ``agg``.

    Shift-AND folding: while bit f of ``run`` marks a free run of ``span``
    slots from f, ``run & (run >> step)`` marks runs of ``span + step`` for
    any ``step <= span``, so log2(width) folds suffice.
    """
    if not (1 <= width <= fs_total):
        return 0
    run = ~agg & ((1 << fs_total) - 1)
    span = 1
    while span < width and run:
        step = span if 2 * span <= width else width - span
        run &= run >> step
        span += step
    return run


def lowest_bit(bits: int) -> int:
    """Index of the lowest set bit of a positive int."""
    return (bits & -bits).bit_length() - 1


def first_free_run(agg: int, width: int, fs_total: int) -> int | None:
    """Lowest start of a free run of ``width`` slots in ``agg``, or None."""
    run = free_run_starts(agg, width, fs_total)
    return lowest_bit(run) if run else None


def audit_occupancy(net: Network) -> None:
    """Rebuild-and-compare check of the occupancy invariant.

    Raises SpectrumConflictError if any link's slots differ from the union of
    the holdings' blocks on it, or if two holdings overlap.
    """
    rebuilt = [0] * len(net.links)
    for _, _, links, f0, f1, _ in net._held:
        mask = block_mask(f0, f1)
        for link in links:
            if rebuilt[link.index] & mask:
                raise SpectrumConflictError(f"overlapping allocations on {link!r} at [{f0},{f1}]")
            rebuilt[link.index] |= mask
    for link in net.links:
        if rebuilt[link.index] != link.bits:
            raise SpectrumConflictError(f"occupancy out of sync with allocations on {link!r}")
