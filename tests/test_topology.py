from __future__ import annotations

import json
import math
import re

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optpipe import topology
from optpipe.latency import LatencyParams, alpha
from optpipe.topology import (
    ArrivalTape,
    BackgroundTrafficModel,
    Network,
    SpectrumConflictError,
    TopologyError,
    UnknownOwnerError,
    advance_network,
    allocate_spectrum,
    audit_occupancy,
    first_free_run,
    free_run_starts,
    load_nsfnet,
    load_topology,
    loaded_background,
    path_bits,
    release_spectrum,
    set_link_occupancy,
)
from optpipe.validate import (
    bit_positions,
    random_instance,
    ref_free_starts,
    ref_simple_paths,
)


def reference_graph(net: Network) -> nx.Graph:
    """The network as an ``nx.Graph``: its nodes, then its links in order."""
    graph = nx.Graph()
    graph.add_nodes_from(net.nodes)
    for link in net.links:
        graph.add_edge(link.a, link.b, length_km=link.length_km)
    return graph


def assert_routes_match_references(net: Network, ks=(1, 2, 3, 10)) -> None:
    """Candidates equal the brute force; background equals ``nx.dijkstra_path``."""
    graph = reference_graph(net)
    for src in net.nodes:
        for dst in net.nodes:
            if src == dst:
                continue
            every = ref_simple_paths(net, src, dst)
            for k in ks:
                assert [p.nodes for p in net.paths.candidates(src, dst, k)] == every[:k]
            if not every:
                with pytest.raises(TopologyError):
                    net.paths.background(src, dst)
                continue
            nodes = nx.dijkstra_path(graph, src, dst, weight="length_km")
            assert net.paths.background(src, dst) == net.path_links(nodes)


class TestLoadTopology:
    def test_bundled_nsfnet_is_standard_size(self):
        net = load_nsfnet()
        assert len(net.nodes) == 14
        assert len(net.links) == 21
        assert net.fs_total == 80
        assert all(link.bits == 0 for link in net.links)

    def test_minimal_two_node_graph(self):
        net = load_topology(
            json.dumps({"nodes": ["A", "B"], "links": [{"a": "A", "b": "B", "length_km": 100}]}),
            fs_total=16,
        )
        assert net.fs_total == 16
        assert net.link_between("A", "B").length_km == 100

    def test_unknown_endpoint_rejected(self):
        doc = {"nodes": ["A", "B"], "links": [{"a": "A", "b": "Z", "length_km": 5}]}
        with pytest.raises(TopologyError, match="unknown node"):
            load_topology(json.dumps(doc))

    def test_duplicate_node_rejected(self):
        doc = {"nodes": ["A", "A", "B"], "links": [{"a": "A", "b": "B", "length_km": 5}]}
        with pytest.raises(TopologyError, match="duplicate node"):
            load_topology(json.dumps(doc))

    def test_nonpositive_length_rejected(self):
        doc = {"nodes": ["A", "B"], "links": [{"a": "A", "b": "B", "length_km": 0}]}
        with pytest.raises(TopologyError, match="nonpositive"):
            load_topology(json.dumps(doc))

    def test_disconnected_graph_rejected(self):
        doc = {
            "nodes": ["A", "B", "C", "D"],
            "links": [{"a": "A", "b": "B", "length_km": 1}, {"a": "C", "b": "D", "length_km": 1}],
        }
        with pytest.raises(TopologyError, match="not connected"):
            load_topology(json.dumps(doc))

    def test_parse_failure(self):
        with pytest.raises(TopologyError, match="not valid JSON"):
            load_topology("{nope")

    @pytest.mark.parametrize("name", ["A>B", "A\tX", "A\nX", "A\rX"])
    def test_node_name_with_an_event_log_separator_rejected(self, name):
        # the log joins a path's nodes with '>' and its fields with tabs
        doc = {"nodes": [name, "B"], "links": [{"a": name, "b": "B", "length_km": 5}]}
        with pytest.raises(TopologyError, match=f"node name {re.escape(repr(name))} "):
            load_topology(json.dumps(doc))

    def test_total_length_past_the_float_range_rejected(self):
        # each link is finite, but the A-B-C path's length is not
        doc = {"nodes": ["A", "B", "C"], "links": [{"a": "A", "b": "B", "length_km": 1e308},
                                                   {"a": "B", "b": "C", "length_km": 1e308}]}
        with pytest.raises(TopologyError, match="total length"):
            load_topology(json.dumps(doc))

    @pytest.mark.parametrize("text", [
        '{"nodes": ["A", "B"], "nodes": ["A", "B"], "links": []}',
        '{"nodes": ["A", "B"], "links": [{"a": "A", "b": "B", "b": "A", "length_km": 5}]}',
    ])
    def test_repeated_key_rejected(self, text):
        with pytest.raises(TopologyError, match="appears more than once"):
            load_topology(text)


class TestSpectrumOps:
    def test_allocate_sets_bits_on_every_link(self, nsfnet):
        links = nsfnet.path_links(["WA", "CA1", "UT", "CO"])
        allocate_spectrum(nsfnet, links, (0, 3), "t1", 5.0)
        for link in links:
            assert sum(link.occupancy[:4]) == 4
            assert sum(link.occupancy[4:]) == 0
        audit_occupancy(nsfnet)

    def test_double_allocate_conflicts(self, two_dc):
        links = [two_dc.link_between("A", "B")]
        allocate_spectrum(two_dc, links, (0, 3), "t1", 5.0)
        with pytest.raises(SpectrumConflictError):
            allocate_spectrum(two_dc, links, (0, 3), "t2", 5.0)

    def test_adjacent_blocks_are_legal(self, two_dc):
        links = [two_dc.link_between("A", "B")]
        allocate_spectrum(two_dc, links, (0, 1), "t1", 5.0)
        allocate_spectrum(two_dc, links, (2, 3), "t2", 5.0)
        assert list(links[0].occupancy[:4]) == [1, 1, 1, 1]
        audit_occupancy(two_dc)

    def test_release_restores_prior_state(self, two_dc):
        links = [two_dc.link_between("A", "B")]
        before = links[0].occupancy
        allocate_spectrum(two_dc, links, (4, 7), "t1", 5.0)
        release_spectrum(two_dc, "t1")
        assert links[0].occupancy == before

    def test_release_unknown_owner(self, two_dc):
        with pytest.raises(UnknownOwnerError):
            release_spectrum(two_dc, "ghost")

    def test_release_leaves_other_owner_untouched(self, two_dc):
        links = [two_dc.link_between("A", "B")]
        allocate_spectrum(two_dc, links, (0, 1), "t1", 5.0)
        allocate_spectrum(two_dc, links, (4, 5), "t2", 5.0)
        release_spectrum(two_dc, "t1")
        assert sum(links[0].occupancy[4:6]) == 2
        assert sum(links[0].occupancy[0:2]) == 0

    def test_audit_flags_drift_and_overlap(self, two_dc):
        links = [two_dc.link_between("A", "B")]
        allocate_spectrum(two_dc, links, (0, 3), "t1", 5.0)
        links[0].bits |= 1 << 9
        with pytest.raises(SpectrumConflictError, match="out of sync"):
            audit_occupancy(two_dc)
        two_dc._commit(links, 2, 4, "t2", 5.0)  # bypasses the conflict check
        with pytest.raises(SpectrumConflictError, match="overlapping"):
            audit_occupancy(two_dc)


class TestOccupancyViews:
    def test_views_are_read_only(self, two_dc):
        allocate_spectrum(two_dc, [two_dc.link_between("A", "B")], (0, 3), "t1", 5.0)
        view = two_dc.links[0].occupancy
        assert len(view) == 80 and list(view[:5]) == [1, 1, 1, 1, 0]
        with pytest.raises(TypeError):
            view[10] = 1
        assert two_dc.links[0].bits == 0b1111

    def test_setter_overwrites_one_link(self, triangle):
        set_link_occupancy(triangle, 1, [0, 1, 1, 0, 0, 0, 0, 1])
        assert list(triangle.links[1].occupancy) == [0, 1, 1, 0, 0, 0, 0, 1]
        assert [link.bits for link in triangle.links] == [0, 0b10000110, 0]

    def test_setter_rejects_bad_vectors_and_allocated_links(self, triangle):
        with pytest.raises(ValueError):
            set_link_occupancy(triangle, 0, [0, 1])
        with pytest.raises(ValueError):
            set_link_occupancy(triangle, 0, [0, 2, 0, 0, 0, 0, 0, 0])
        allocate_spectrum(triangle, [triangle.links[0]], (0, 1), "t1", 5.0)
        with pytest.raises(SpectrumConflictError):
            set_link_occupancy(triangle, 0, [0] * 8)


class TestAggregateOccupancy:
    def test_all_free(self, nsfnet):
        links = nsfnet.path_links(["WA", "CA1", "UT"])
        assert path_bits(links) == 0

    def test_or_semantics(self):
        net = Network(["A", "B", "C"], [("A", "B", 1), ("B", "C", 1)], fs_total=4)
        l1, l2 = net.link_between("A", "B"), net.link_between("B", "C")
        allocate_spectrum(net, [l1], (0, 1), "x", 9.0)   # 1100
        allocate_spectrum(net, [l2], (1, 2), "y", 9.0)   # 0110
        assert path_bits([l1, l2]) == 0b0111

    def test_single_link_identity(self, two_dc):
        link = two_dc.link_between("A", "B")
        allocate_spectrum(two_dc, [link], (7, 9), "x", 9.0)
        assert path_bits([link]) == link.bits == 0b1110000000

    def test_empty_path_rejected(self, two_dc):
        with pytest.raises(ValueError, match="empty path"):
            allocate_spectrum(two_dc, [], (0, 1), "x", 9.0)


class TestPathCatalog:
    def test_entries_are_memoised(self, nsfnet):
        paths = nsfnet.paths
        params = LatencyParams()
        assert paths.candidates("WA", "DC", 5) is paths.candidates("WA", "DC", 5)
        assert paths.delay_order("WA", "DC", 5, params) is paths.delay_order("WA", "DC", 5, params)
        assert paths.background("WA", "DC") is paths.background("WA", "DC")

    def test_candidates_carry_their_links(self, nsfnet):
        for path in nsfnet.paths.candidates("WA", "DC", 5):
            assert path.links == nsfnet.path_links(path.nodes)
            assert path.hop_count == len(path.nodes) - 1
            assert path.length_km == pytest.approx(sum(link.length_km for link in path.links))

    def test_background_is_the_dijkstra_route(self, nsfnet):
        graph = reference_graph(nsfnet)
        differ = 0
        for src in nsfnet.nodes:
            for dst in nsfnet.nodes:
                if src == dst:
                    continue
                nodes = nx.dijkstra_path(graph, src, dst, weight="length_km")
                assert nsfnet.paths.background(src, dst) == nsfnet.path_links(nodes)
                differ += tuple(nodes) != nsfnet.paths.candidates(src, dst, 1)[0].nodes
        # length ties broken differently; see the PathCatalog docstring
        assert differ == 29
        assert nsfnet.paths.candidates("PA", "NJ", 1)[0].nodes == ("PA", "DC", "NJ")
        assert nsfnet.paths.background("PA", "NJ") == nsfnet.path_links(["PA", "NY", "NJ"])

    def test_delay_order(self, triangle, nsfnet):
        # A-B-C: 2 km, 2 hops; A-C: 3 km, 1 hop
        paths = triangle.paths
        assert paths.delay_order("A", "C", 2, LatencyParams()) == (1, 0)
        assert paths.delay_order("A", "C", 2, LatencyParams(per_hop_overhead_s=0.0)) == (0, 1)
        params = LatencyParams()
        cands = nsfnet.paths.candidates("WA", "DC", 8)
        order = nsfnet.paths.delay_order("WA", "DC", 8, params)
        assert sorted(order) == list(range(len(cands)))
        delays = [alpha(params, cands[i]) for i in order]
        assert delays == sorted(delays)

    def test_bad_pairs(self):
        net = Network(["A", "B", "C"], [("A", "B", 1.0)], fs_total=4)
        assert net.paths.candidates("A", "C", 3) == ()
        with pytest.raises(ValueError):
            net.paths.candidates("A", "A", 1)
        with pytest.raises(ValueError):
            net.paths.candidates("A", "B", 0)

    def test_unknown_node(self, triangle):
        with pytest.raises(TopologyError, match="unknown node 'Z'"):
            triangle.paths.candidates("A", "Z", 3)
        with pytest.raises(TopologyError, match="unknown node 'Z'"):
            triangle.paths.background("Z", "A")

    def test_background_between_components(self):
        net = Network(["A", "B", "C", "D"], [("A", "B", 1.0), ("C", "D", 1.0)], fs_total=4)
        with pytest.raises(TopologyError, match="no route between 'A' and 'D'"):
            net.paths.background("A", "D")

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_routes_on_random_instances(self, seed):
        assert_routes_match_references(random_instance(np.random.default_rng(seed)))

    @given(data=st.data(), n=st.integers(2, 7))
    @settings(max_examples=100, deadline=None)
    def test_routes_with_tied_lengths(self, data, n):
        # lengths of 1-3 km make equal-length paths common; nodes and links
        # come in a drawn order, and the graph may be disconnected
        names = data.draw(st.permutations([f"N{i}" for i in range(n)]))
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True))
        specs = [(a, b, float(data.draw(st.integers(1, 3)))) for a, b in chosen]
        assert_routes_match_references(Network(names, specs, fs_total=4), ks=(1, 2, 4, 7))


class TestAdvanceNetwork:
    def test_no_dynamics_no_changes(self, two_dc):
        assert advance_network(two_dc, 10.0) == 0
        assert two_dc.now == 10.0

    def test_forced_release(self, two_dc):
        links = [two_dc.link_between("A", "B")]
        allocate_spectrum(two_dc, links, (0, 3), "t1", 5.0)
        assert advance_network(two_dc, 6.0) == 1
        assert sum(links[0].occupancy) == 0

    def test_idempotent_at_same_time(self, two_dc):
        links = [two_dc.link_between("A", "B")]
        allocate_spectrum(two_dc, links, (0, 3), "t1", 5.0)
        advance_network(two_dc, 6.0)
        assert advance_network(two_dc, 6.0) == 0

    def test_time_cannot_go_backwards(self, two_dc):
        advance_network(two_dc, 5.0)
        with pytest.raises(ValueError):
            advance_network(two_dc, 4.0)

    def test_seeded_stream_matches_independent_replay(self, nsfnet):
        bg = BackgroundTrafficModel(
            arrival_rate_per_s=10.0, mean_hold_s=1e6, fs_demand_range=(1, 2), rng_seed=42,
        )
        nsfnet.attach_background(bg)
        got = advance_network(nsfnet, 1.0)

        # replay the documented draw protocol: gap, src, dst offset, demand, hold
        rng = np.random.default_rng(42)
        t, arrivals = 0.0, 0
        n = len(nsfnet.nodes)
        while True:
            t += rng.exponential(1.0 / 10.0)
            rng.integers(0, n)
            rng.integers(0, n - 1)
            rng.integers(1, 3)
            rng.exponential(1e6)
            if t > 1.0:
                break
            arrivals += 1
        assert got == arrivals > 0

    def test_stream_invariant_to_advance_pattern(self, nsfnet):
        bg = BackgroundTrafficModel(5.0, 0.5, (1, 4), rng_seed=7)
        one = load_nsfnet()
        one.attach_background(bg)
        total_one = advance_network(one, 10.0)
        many = load_nsfnet()
        many.attach_background(bg)
        total_many = sum(advance_network(many, t) for t in np.linspace(0.1, 10.0, 47))
        assert total_one == total_many
        assert [link.bits for link in one.links] == [link.bits for link in many.links]

    def test_zero_rate_draws_nothing(self, nsfnet):
        nsfnet.attach_background(BackgroundTrafficModel(0.0, 1.0, (1, 2), 0))
        assert advance_network(nsfnet, 100.0) == 0

    def test_a_network_takes_one_stream(self, nsfnet):
        bg = BackgroundTrafficModel(5.0, 0.5, (1, 4), rng_seed=7)
        nsfnet.attach_background(bg)
        with pytest.raises(RuntimeError, match="already attached"):
            nsfnet.attach_background(bg)


class TestArrivalTape:
    def test_draw_refuses_past_the_cap(self, monkeypatch):
        monkeypatch.setattr(topology, "MAX_BG_ARRIVALS", 5)
        tape = ArrivalTape(BackgroundTrafficModel(40.0, 0.5, (1, 6), rng_seed=11), ["A", "B"])
        for _ in range(5):
            tape.draw()
        with pytest.raises(topology.ArrivalCapError, match=r"cap of 5 arrivals .* s into"):
            tape.draw()
        assert len(tape) == 5


class TestSnapshot:
    BG = loaded_background(4)
    PREWARM = 30.0
    # the next 2 s of background, in uneven steps
    STEPS = [0.05, 0.3, 0.31, 0.9, 1.4, 1.41, 2.0]

    def _prewarmed(self) -> Network:
        net = load_nsfnet()
        net.attach_background(self.BG)
        advance_network(net, self.PREWARM)
        return net

    @staticmethod
    def _state(net: Network) -> tuple:
        return net.now, [link.bits for link in net.links], net.active_owners()

    def _replay(self, net: Network) -> list[tuple]:
        """The change count and state after each step of the next 2 s."""
        return [(advance_network(net, self.PREWARM + dt), self._state(net))
                for dt in self.STEPS]

    @staticmethod
    def _disturb(net: Network) -> None:
        """What a policy run does to the network: background, a training
        allocation that outlives the step, a rebase."""
        advance_network(net, net.now + 1.5)
        links = net.paths.candidates("WA", "NY", 1)[0].links
        start = first_free_run(path_bits(links), 3, net.fs_total)
        allocate_spectrum(net, links, (start, start + 2), "tx-1", net.now + 50.0)
        advance_network(net, net.now + 0.5)
        net.rebase(net.now)

    def test_restored_prewarm_equals_a_fresh_one(self):
        net = self._prewarmed()
        snap = net.snapshot()
        self._disturb(net)
        fresh = self._prewarmed()
        assert self._state(net) != self._state(fresh)
        net.restore(snap)
        assert self._state(net) == self._state(fresh)
        assert len(net.active_owners()) > 50
        audit_occupancy(net)
        replay = self._replay(net)
        assert replay == self._replay(fresh)
        assert sum(changes for changes, _ in replay) > 0
        audit_occupancy(net)

    def test_restores_of_one_snapshot_are_independent(self):
        net = self._prewarmed()
        snap = net.snapshot()
        fields = (snap.now, snap.bits, snap.active, snap.release_heap, snap.bg_counter,
                  snap.stream)
        first = self._replay(net)
        for _ in range(2):
            net.restore(snap)
            self._disturb(net)
            net.restore(snap)
            assert self._replay(net) == first
        assert (snap.now, snap.bits, snap.active, snap.release_heap, snap.bg_counter,
                snap.stream) == fields

    def test_quiet_network_round_trip(self, nsfnet):
        snap = nsfnet.snapshot()
        self._disturb(nsfnet)
        assert nsfnet.active_owners() == ["tx-1"]
        nsfnet.restore(snap)
        assert self._state(nsfnet) == (0.0, [0] * len(nsfnet.links), [])
        assert not nsfnet.has_background

    def test_restore_refuses_another_network(self, nsfnet):
        with pytest.raises(ValueError, match="another network"):
            nsfnet.restore(load_nsfnet().snapshot())


class TestInvariants:
    def test_occupancy_rebuild_after_random_sequence(self, nsfnet):
        rng = np.random.default_rng(3)
        owners = []
        for step in range(200):
            if owners and rng.random() < 0.45:
                release_spectrum(nsfnet, owners.pop(int(rng.integers(len(owners)))))
            else:
                i, j = rng.choice(len(nsfnet.nodes), size=2, replace=False)
                links = nsfnet.paths.background(nsfnet.nodes[int(i)], nsfnet.nodes[int(j)])
                width = int(rng.integers(1, 6))
                start = first_free_run(path_bits(links), width, nsfnet.fs_total)
                if start is None:
                    continue
                owner = f"o{step}"
                allocate_spectrum(nsfnet, links, (start, start + width - 1), owner, 1e12)
                owners.append(owner)
            audit_occupancy(nsfnet)

    def test_background_bit_identical_across_runs(self):
        def occupancy_after(seed):
            net = load_nsfnet()
            net.attach_background(BackgroundTrafficModel(20.0, 2.0, (1, 8), seed))
            advance_network(net, 30.0)
            return [link.bits for link in net.links]

        assert occupancy_after(5) == occupancy_after(5)
        assert occupancy_after(5) != occupancy_after(6)


def _runs_vector(runs):
    """Slot list from (length, occupied) runs, cut to at most 200 slots."""
    occ = []
    for n, v in runs:
        occ.extend([int(v)] * n)
    return occ[:200]


@given(runs=st.lists(st.tuples(st.integers(1, 70), st.booleans()), min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_bitset_runs_match_free_block_starts(runs):
    occ = _runs_vector(runs)
    F = len(occ)
    net = Network(["A", "B"], [("A", "B", 1.0)], fs_total=F)
    link = net.links[0]
    set_link_occupancy(net, 0, np.array(occ, dtype=np.uint8))
    agg = link.bits
    set_link_occupancy(net, 0, occ)
    assert link.bits == agg and link.occupancy == tuple(occ)
    for width in range(1, F + 2):
        want = ref_free_starts(occ, width)
        assert bit_positions(free_run_starts(agg, width, F)) == want
        assert first_free_run(agg, width, F) == (want[0] if want else None)
