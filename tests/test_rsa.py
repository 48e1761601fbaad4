from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optpipe import validate
from optpipe.latency import LatencyParams
from optpipe.rsa import (
    fitness,
    select_cba,
    select_ksp_ff,
    select_sd_ff,
)
from optpipe.topology import (
    Network,
    allocate_spectrum,
    free_run_starts,
    path_bits,
    set_link_occupancy,
)


def bits(s: str) -> list[int]:
    return [int(c) for c in s]


def occupy(net: Network, a: str, b: str, block: tuple[int, int], owner: str) -> None:
    allocate_spectrum(net, [net.link_between(a, b)], block, owner, 1e12)


class TestKShortestPaths:
    def test_triangle_order(self, triangle):
        paths = triangle.paths.candidates("A", "C", 2)
        assert [p.nodes for p in paths] == [("A", "B", "C"), ("A", "C")]
        assert paths[0].length_km == 2.0
        assert paths[1].length_km == 3.0

    def test_k1_is_shortest(self, nsfnet):
        (p,) = nsfnet.paths.candidates("WA", "CA1", 1)
        assert p.nodes == ("WA", "CA1")

    def test_src_equals_dst_rejected(self, triangle):
        with pytest.raises(ValueError):
            triangle.paths.candidates("A", "A", 2)

    def test_matches_bruteforce_on_random_instances(self):
        ok, detail = validate.check_ksp_bruteforce(150, seed=17, ks=(1, 2, 3, 12))
        assert ok, detail

    def test_lengths_are_sums_of_member_links(self, nsfnet):
        for p in nsfnet.paths.candidates("WA", "DC", 5):
            assert p.length_km == pytest.approx(
                sum(l.length_km for l in p.links), abs=0
            )
            assert p.hop_count == len(p.links)
            assert len(set(p.nodes)) == len(p.nodes)  # simple path


def free_starts(net: Network, path, width: int) -> list[int]:
    return validate.bit_positions(free_run_starts(path_bits(path.links), width, net.fs_total))


class TestCandidateBlocks:
    def test_empty_spectrum_all_starts(self, triangle):
        (path,) = triangle.paths.candidates("A", "C", 1)
        assert free_starts(triangle, path, 4) == [0, 1, 2, 3, 4]

    def test_half_occupied_single_block(self, triangle):
        occupy(triangle, "A", "B", (0, 3), "x")
        occupy(triangle, "B", "C", (0, 3), "y")
        (path,) = triangle.paths.candidates("A", "C", 1)
        assert free_starts(triangle, path, 4) == [4]

    def test_alternating_occupancy_no_pairs(self, two_dc):
        for f in (0, 2, 4, 6):
            occupy(two_dc, "A", "B", (f * 10, f * 10), f"x{f}")
        net = Network(["A", "B"], [("A", "B", 1.0)], fs_total=8)
        set_link_occupancy(net, 0, bits("10101010"))
        (path,) = net.paths.candidates("A", "B", 1)
        assert free_starts(net, path, 2) == []

    def test_width_bounds(self, triangle):
        (path,) = triangle.paths.candidates("A", "C", 1)
        assert free_starts(triangle, path, 0) == []
        assert free_starts(triangle, path, 9) == []


class TestContiguityIndex:
    """Hand-computed cases of the slot-by-slot reference ``validate.ref_ci``."""

    def test_window_mode_right_edge(self):
        occ = [0, 0, 0, 0, 0, 1, 0, 0]
        assert validate.ref_ci(occ, 0, 3) == 1.0
        got = validate.ref_ci(occ, 1, 4)
        assert got == pytest.approx(1 - 1 / 3, abs=1e-12)

    @given(
        occ=st.lists(st.integers(0, 1), min_size=1, max_size=12),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_range_and_reference(self, occ, data):
        # production fitness and CBA's block on a one-link path, exactly
        F = len(occ)
        width = data.draw(st.integers(1, F))
        net = Network(["A", "B"], [("A", "B", 7.0)], fs_total=F)
        set_link_occupancy(net, 0, occ)
        (path,) = net.paths.candidates("A", "B", 1)
        want, starts, _ = validate.ref_gamma(net, path.nodes, width)
        assert fitness(net, path, width) == want
        sel = select_cba(net, "A", "B", width, 1)
        _, want_start, _ = validate.ref_select(net, "A", "B", width, 1, "cba", LatencyParams())
        assert (sel.block.f_start if sel.block else None) == want_start
        assert sel.fitness == want and (want > 0.0) == bool(starts)


class TestAvailabilityFactor:
    """The availability divisor of ``fitness``: the mean per-link free fraction."""

    def test_empty_spectrum(self, two_dc):
        # divisor 1: 1/100 km times contiguity 1
        (path,) = two_dc.paths.candidates("A", "B", 1)
        assert fitness(two_dc, path, 4) == pytest.approx(0.01, abs=1e-15)

    def test_half_occupied(self, two_dc, triangle):
        occupy(two_dc, "A", "B", (0, 39), "x")
        (path,) = two_dc.paths.candidates("A", "B", 1)
        # the occupied run ends below every free block: contiguity 1
        assert fitness(two_dc, path, 4) == pytest.approx(0.02, abs=1e-15)
        # two links, 4 of 16 slots occupied: divisor 0.75 over 2 km
        occupy(triangle, "A", "B", (0, 3), "y")
        (path,) = triangle.paths.candidates("A", "C", 1)
        assert path.nodes == ("A", "B", "C")
        got = fitness(triangle, path, 2)
        assert got == pytest.approx(1 / (2 * 0.75), abs=1e-12)
        assert got == validate.ref_gamma(triangle, path.nodes, 2)[0]

    def test_fully_occupied_path_unavailable(self, two_dc):
        occupy(two_dc, "A", "B", (0, 79), "x")
        (path,) = two_dc.paths.candidates("A", "B", 1)
        assert fitness(two_dc, path, 4) == 0.0
        sel = select_cba(two_dc, "A", "B", 4, 1)
        assert sel.blocked and sel.fitness == 0.0


class TestFitness:
    def test_unavailable_path_scores_zero(self, two_dc):
        occupy(two_dc, "A", "B", (0, 79), "x")
        (path,) = two_dc.paths.candidates("A", "B", 1)
        assert fitness(two_dc, path, 4) == 0.0

    def test_empty_single_link(self, two_dc):
        # 77 blocks, each contiguity 1, availability 1 -> 1/100 km
        (path,) = two_dc.paths.candidates("A", "B", 1)
        assert len(free_starts(two_dc, path, 4)) == 77
        assert fitness(two_dc, path, 4) == pytest.approx(0.01, abs=1e-15)

    def test_constructed_half_occupancy_window_mean(self, two_dc):
        # segments: three interior free runs of 4 (each contributes one block
        # whose window sees the next occupied slot), small free runs that fit
        # nothing, and a 5-run at the top edge giving two clean blocks:
        # mean CI = (3 * 2/3 + 2 * 1) / 5 = 0.8 with 40 slots occupied.
        segments = [
            (4, 0), (4, 1), (3, 0), (4, 1), (4, 0), (4, 1), (3, 0), (4, 1),
            (4, 0), (4, 1), (3, 0), (4, 1), (3, 0), (4, 1), (3, 0), (3, 1),
            (3, 0), (3, 1), (3, 0), (3, 1), (2, 0), (3, 1), (5, 0),
        ]
        occ = []
        for n, v in segments:
            occ.extend([v] * n)
        assert len(occ) == 80 and sum(occ) == 40
        net = Network(["A", "B"], [("A", "B", 100.0)], fs_total=80)
        set_link_occupancy(net, 0, occ)
        (path,) = net.paths.candidates("A", "B", 1)

        g, starts, m = validate.ref_gamma(net, ("A", "B"), 4)
        assert len(starts) == 5 and sorted(m) == [0, 0, 1, 1, 1]
        got = fitness(net, path, 4)
        assert got == pytest.approx((1 / (100 * 0.5)) * 0.8, abs=1e-12)
        assert got == g

    def test_strictly_decreasing_in_length(self):
        # identical spectra on both routes; only length differs
        net = Network(
            ["A", "B", "C"], [("A", "B", 2.0), ("A", "C", 3.0)], fs_total=16
        )
        short = net.paths.candidates("A", "B", 1)[0]
        long = net.paths.candidates("A", "C", 1)[0]
        assert fitness(net, short, 4) > fitness(net, long, 4)

    def test_width_one_on_fragmented_spectrum_still_positive(self):
        # isolated free slots: every block's contiguity is zero, but capacity
        # exists, so the score must stay positive (availability == feasibility)
        net = Network(["A", "B"], [("A", "B", 10.0)], fs_total=8)
        set_link_occupancy(net, 0, bits("10101011"))
        (path,) = net.paths.candidates("A", "B", 1)
        g = fitness(net, path, 1)
        assert 0.0 < g < 1e-6


class TestSelectors:
    def test_cba_avoids_fully_occupied_path(self, triangle):
        occupy(triangle, "A", "B", (0, 7), "x")  # kills A-B-C
        sel = select_cba(triangle, "A", "C", 2, 2)
        assert sel.path.nodes == ("A", "C")
        assert not sel.blocked and sel.fitness > 0

    def test_cba_prefers_shorter_on_identical_spectra(self):
        net = Network(
            ["A", "B", "C", "D"],
            [("A", "B", 1.0), ("B", "D", 1.0), ("A", "C", 1.5), ("C", "D", 1.5)],
            fs_total=8,
        )
        sel = select_cba(net, "A", "D", 2, 4)
        assert sel.path.length_km == 2.0

    def test_cba_blocked_reports_candidates(self, triangle):
        occupy(triangle, "A", "B", (0, 7), "x")
        occupy(triangle, "A", "C", (0, 7), "y")
        sel = select_cba(triangle, "A", "C", 2, 5)
        assert sel.blocked and sel.block is None
        assert sel.candidates_examined == 2  # only two simple paths exist

    def test_ksp_ff_takes_lowest_block_on_first_path(self, triangle):
        sel = select_ksp_ff(triangle, "A", "C", 4, 2)
        assert sel.path.nodes == ("A", "B", "C")
        assert (sel.block.f_start, sel.block.f_end) == (0, 3)

    def test_ksp_ff_falls_through_to_second_path(self, triangle):
        occupy(triangle, "A", "B", (0, 7), "x")
        sel = select_ksp_ff(triangle, "A", "C", 2, 2)
        assert sel.path.nodes == ("A", "C")
        assert sel.block.f_start == 0

    def test_all_full_blocks(self, triangle):
        occupy(triangle, "A", "B", (0, 7), "x")
        occupy(triangle, "A", "C", (0, 7), "y")
        for sel in (
            select_ksp_ff(triangle, "A", "C", 2, 5),
            select_sd_ff(triangle, "A", "C", 2, 5, LatencyParams()),
            select_cba(triangle, "A", "C", 2, 5),
        ):
            assert sel.blocked

    def test_sd_ff_orders_by_propagation_not_km(self):
        # same km, hop counts 2 vs 4: fewer hops means lower propagation term
        net = Network(
            ["A", "B", "C", "D", "E", "F"],
            [
                ("A", "B", 5.0), ("B", "F", 5.0),
                ("A", "C", 2.5), ("C", "D", 2.5), ("D", "E", 2.5), ("E", "F", 2.5),
            ],
            fs_total=8,
        )
        params = LatencyParams()
        sel = select_sd_ff(net, "A", "F", 2, 4, params)
        assert sel.path.hop_count == 2
        # ksp order would try the 4-hop path first only on a length tie, so
        # force the direct comparison: both have identical lengths
        ksp = net.paths.candidates("A", "F", 4)
        assert ksp[0].length_km == ksp[1].length_km == 10.0

    def test_sd_ff_order_is_ksp_order_on_nsfnet_at_default_latency(self, nsfnet):
        # the per-hop term (0.1 ms, 20 km of fibre) never reorders NSFNET's
        # five shortest routes, so at the default latency keys SD-FF selects
        # exactly what KSP-FF selects
        pairs = list(itertools.permutations(nsfnet.nodes, 2))
        assert len(pairs) == 182
        for a, b in pairs:
            n = len(nsfnet.paths.candidates(a, b, 5))
            assert nsfnet.paths.delay_order(a, b, 5, LatencyParams()) == tuple(range(n))

    def test_selectors_do_not_mutate_network(self, nsfnet):
        occupy(nsfnet, "PA", "NY", (0, 9), "x")
        before = [link.bits for link in nsfnet.links]
        select_cba(nsfnet, "IL", "NY", 4, 5)
        select_ksp_ff(nsfnet, "IL", "NY", 4, 5)
        select_sd_ff(nsfnet, "IL", "NY", 4, 5, LatencyParams())
        assert [link.bits for link in nsfnet.links] == before

    def test_first_fit_never_skips_lower_block(self):
        ok, detail = validate.check_first_fit_lowest_block(100, seed=23)
        assert ok, detail


class TestBruteForceEquivalence:
    def test_selectors_match_oracle_on_random_instances(self):
        ok, detail = validate.check_selection_bruteforce(300, seed=99)
        assert ok, detail

    @given(
        seed=st.integers(0, 2**32 - 1),
        density=st.sampled_from([0.5, 0.8, 0.95]),
        equal_lengths=st.booleans(),
        width=st.integers(1, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_cba_matches_oracle_at_k5_on_dense_spectra(self, seed, density, equal_lengths,
                                                       width):
        # a complete graph gives five candidates; dense and near-full spectra
        # leave few feasible paths, and equal link lengths give candidates of
        # equal length whose gamma bound can tie the best so far
        rng = np.random.default_rng(seed)
        names = [chr(ord("A") + i) for i in range(int(rng.integers(3, 6)))]
        # lengths below 1 km too, where a bound without the length would be too low
        common = float(rng.choice([0.2, 10.0]))
        specs = [(a, b, common if equal_lengths else float(rng.uniform(0.1, 20.0)))
                 for a, b in itertools.combinations(names, 2)]
        F = int(rng.integers(4, 17))
        net = Network(names, specs, fs_total=F)
        for link in net.links:
            set_link_occupancy(net, link.index, rng.random(F) < density)
        sel = select_cba(net, "A", "B", width, 5)
        want = validate.ref_select(net, "A", "B", width, 5, "cba", LatencyParams())
        got = (sel.path.nodes if sel.path else None,
               sel.block.f_start if sel.block else None, sel.fitness)
        assert got == (want[0], want[1], want[2] or 0.0)

    @pytest.mark.parametrize("first_free_run_at_band_edge", [True, False])
    def test_bound_skips_only_a_path_that_cannot_win(self, first_free_run_at_band_edge):
        # A-B-D and A-C-D are equally long with one occupied slot of 64 each,
        # so their deltas and their bounds 1 / (L * delta) are equal.  A free
        # run that ends at the band edge has contiguity 1 at width 2: then
        # A-B-D's gamma equals A-C-D's bound, A-C-D is skipped and A-B-D wins
        # the tie.  One that ends at an occupied slot has contiguity 61/62, so
        # A-C-D, with its run at the edge, wins by 1.6 %.
        F = 64
        net = Network(["A", "B", "C", "D"],
                      [("A", "B", 1.0), ("B", "D", 1.0), ("A", "C", 1.0), ("C", "D", 1.0)],
                      fs_total=F)
        edge, inner = [1] + [0] * (F - 1), [0] * (F - 1) + [1]
        set_link_occupancy(net, net.link_between("A", "B").index,
                           edge if first_free_run_at_band_edge else inner)
        set_link_occupancy(net, net.link_between("A", "C").index, edge)
        sel = select_cba(net, "A", "D", 2, 2)
        want = validate.ref_select(net, "A", "D", 2, 2, "cba", LatencyParams())
        assert (sel.path.nodes, sel.block.f_start, sel.fitness) == want
        assert sel.path.nodes == (("A", "B", "D") if first_free_run_at_band_edge
                                  else ("A", "C", "D"))
