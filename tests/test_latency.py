from __future__ import annotations

import pytest

from optpipe.latency import EgressState, LatencyParams, alpha, beta, transfer_time
from optpipe.rsa import k_shortest_paths
from optpipe.topology import Network


class FakePath:
    def __init__(self, km, hops):
        self.length_km = km
        self.hop_count = hops


DEFAULTS = LatencyParams()


class TestAlpha:
    def test_default_arithmetic(self):
        assert alpha(DEFAULTS, FakePath(1000, 2)) == pytest.approx(5.2e-3, abs=1e-15)

    def test_zero_length_leaves_hop_overhead(self):
        assert alpha(DEFAULTS, FakePath(0, 3)) == pytest.approx(3e-4, abs=1e-15)

    def test_propagation_linear_in_km(self):
        a1 = alpha(DEFAULTS, FakePath(500, 0))
        a2 = alpha(DEFAULTS, FakePath(1000, 0))
        assert a2 == pytest.approx(2 * a1, abs=1e-15)


class TestBeta:
    def test_default_reciprocal(self):
        assert beta(DEFAULTS, 1) == pytest.approx(1 / 7.5e10, abs=1e-24)

    def test_two_slots_halve(self):
        assert beta(DEFAULTS, 2) == pytest.approx(beta(DEFAULTS, 1) / 2, abs=1e-24)

    def test_gigabit_on_four_slots(self):
        assert 1e9 * beta(DEFAULTS, 4) == pytest.approx(1e9 / 3e11, abs=1e-15)

    def test_rejects_zero_slots(self):
        with pytest.raises(ValueError):
            beta(DEFAULTS, 0)


class TestQueuePenalty:
    def test_idle_egress_zero(self):
        assert EgressState().pending(0, now=1.0) == 0.0

    def test_pending_egress(self):
        egress = EgressState(busy_until={3: 1.002})
        assert egress.pending(3, now=1.0) == pytest.approx(0.002)


class TestTransferTime:
    def test_zero_message_is_alpha(self):
        p = FakePath(1000, 2)
        assert transfer_time(DEFAULTS, p, 4, 0.0) == alpha(DEFAULTS, p)

    def test_cross_dc_sum(self):
        p = FakePath(1000, 2)
        got = transfer_time(DEFAULTS, p, 4, 1e9)
        assert got == pytest.approx(5.2e-3 + 1e9 / 3e11, abs=1e-12)

    def test_intra_dc(self):
        got = transfer_time(DEFAULTS, None, 1, 4e9)
        assert got == pytest.approx(5.0e-5 + 1.0e-2, abs=1e-12)

    def test_monotone_in_slots(self):
        p = FakePath(500, 1)
        times = [transfer_time(DEFAULTS, p, n, 2e9) for n in range(1, 17)]
        assert all(a >= b for a, b in zip(times, times[1:]))


def test_sd_ff_alpha_order_matches_km_hops_with_small_overhead():
    # explicit alpha computation, no assumption: when the per-hop term is
    # tiny relative to the per-km term, alpha order equals (km, hops) order
    net = Network(
        ["A", "B", "C", "D", "E"],
        [("A", "B", 10), ("B", "E", 10), ("A", "C", 8), ("C", "D", 8), ("D", "E", 8)],
        fs_total=8,
    )
    params = LatencyParams(per_hop_overhead_s=1e-9)
    paths = k_shortest_paths(net, "A", "E", 4)
    by_alpha = sorted(paths, key=lambda p: alpha(params, p))
    by_km_hops = sorted(paths, key=lambda p: (p.length_km, p.hop_count))
    assert [p.nodes for p in by_alpha] == [p.nodes for p in by_km_hops]
