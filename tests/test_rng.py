"""``optpipe.rng`` against numpy: the same state, the same draws, bit for bit.

Crafted states put a chosen word next: PCG64 outputs the word ``w`` from the
post-step state hi=0, lo=w, so the pre-state is (w - inc) * MULT^-1 mod 2**128.
"""

from __future__ import annotations

import pathlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optpipe import rng as port
from optpipe.cli import RunConfig
from optpipe.topology import ArrivalTape, BackgroundTrafficModel, load_nsfnet, loaded_background
from optpipe.validate import ref_arrivals

MULT_INV = pow(port.PCG_MULT, -1, 1 << 128)
WE, KE, FE = port.ziggurat_tables()  # read from data/ziggurat_exp.json
INC = np.random.PCG64(0).state["state"]["inc"]


def numpy_state(gen: np.random.Generator) -> tuple[int, int, bool, int]:
    st_ = gen.bit_generator.state
    return (st_["state"]["state"], st_["state"]["inc"], bool(st_["has_uint32"]),
            st_["uinteger"])


def port_state(gen: port.Generator) -> tuple[int, int, bool, int]:
    return gen.state, gen.inc, bool(gen.has_uint32), gen.uinteger


def crafted(word: int, inc: int = INC, has_uint32: bool = False, uinteger: int = 0,
            ahead: int = 0) -> tuple[np.random.Generator, port.Generator]:
    """numpy and the port, each to output ``word`` as its next 64-bit draw, or
    as the draw after ``ahead`` others."""
    pre = word
    for _ in range(ahead + 1):
        pre = ((pre - inc) * MULT_INV) & port.MASK128
    bitgen = np.random.PCG64()
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": pre, "inc": inc},
                    "has_uint32": int(has_uint32), "uinteger": uinteger}
    return np.random.Generator(bitgen), port.Generator(pre, inc, has_uint32, uinteger)


def words_drawn(gen: np.random.Generator, post: int) -> int:
    """64-bit words drawn since the state was ``post``, counting the one that made it."""
    target, state, inc = gen.bit_generator.state["state"]["state"], post, INC
    n = 1
    while state != target:
        state = (state * port.PCG_MULT + inc) & port.MASK128
        n += 1
        assert n < 100
    return n


def tape_arrivals(tape: ArrivalTape, count: int) -> list[tuple]:
    while len(tape) < count:
        tape.draw()
    return list(zip(tape.gaps, tape.src, tape.dst, tape.demand, tape.hold))[:count]


class TestSeeding:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**200 + 7,
                                      [0, 101], [2**40, 101], [], [1, 2, 3, 4, 5, 6]])
    def test_state_matches(self, seed):
        assert port_state(port.default_rng(seed)) == numpy_state(np.random.default_rng(seed))

    @given(seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**160)),
           as_list=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_state_and_draws_match(self, seed, as_list):
        entropy = [seed, 101] if as_list else seed
        want, got = np.random.default_rng(entropy), port.default_rng(entropy)
        assert port_state(got) == numpy_state(want)
        assert [got.exponential(2.5) for _ in range(20)] == \
            [want.exponential(2.5) for _ in range(20)]
        assert got.integers(0, 6, size=9) == want.integers(0, 6, size=9).tolist()
        assert port_state(got) == numpy_state(want)

    def test_negative_seeds_raise_like_numpy(self):
        for seed in (-1, [3, -2]):
            with pytest.raises(ValueError):
                np.random.default_rng(seed)
            with pytest.raises(ValueError, match="non-negative"):
                port.default_rng(seed)


class TestIntegers:
    def test_one_value_range_consumes_nothing(self):
        want, got = crafted(0x1234_5678_9ABC_DEF0, has_uint32=True, uinteger=77)
        assert got.integers(5, 6) == int(want.integers(5, 6)) == 5
        assert got.integers(0, 1, size=4) == want.integers(0, 1, size=4).tolist() == [0] * 4
        assert port_state(got) == numpy_state(want)
        assert got.has_uint32 and got.uinteger == 77

    def test_half_word_carries_between_calls(self):
        want, got = np.random.default_rng(9), port.default_rng(9)
        for step in range(200):
            if step % 3 == 0:
                assert got.exponential(1.5) == want.exponential(1.5)
            else:
                assert got.integers(0, 1000 + step) == int(want.integers(0, 1000 + step))
            assert port_state(got) == numpy_state(want)

    def test_buffered_half_word_is_used_first(self):
        want, got = crafted(0xFFFF_FFFF_0000_0001, has_uint32=True, uinteger=0x8000_0001)
        assert got.integers(0, 10) == int(want.integers(0, 10)) == 5
        assert port_state(got) == numpy_state(want)

    @pytest.mark.parametrize("high", [2, 6, 13, 3 * 2**30, 2**32 - 1])
    def test_rejection_loop(self, high):
        # a low word of 0 gives the product 0, below the threshold 2**32 % high
        # whenever that is positive; the high word then decides
        assert (1 << 32) % high or high == 2
        want, got = crafted(0x7FFF_FFFF_0000_0000)
        assert got.integers(0, high) == int(want.integers(0, high))
        assert got.integers(0, high) == int(want.integers(0, high))
        assert port_state(got) == numpy_state(want)

    def test_largest_range_and_beyond(self):
        want, got = np.random.default_rng(4), port.default_rng(4)
        hi = 2**32 - 1  # 2**32 - 1 values: the last range on the 32-bit path
        assert got.integers(0, hi, size=50) == want.integers(0, hi, size=50).tolist()
        with pytest.raises(ValueError, match="64-bit path"):
            got.integers(0, 2**32)
        with pytest.raises(ValueError, match="64-bit path"):
            got.arrival(1.0, 4, 1, 2**32, 1.0)
        with pytest.raises(ValueError):
            got.integers(3, 3)

    @pytest.mark.parametrize("n_nodes,lo,hi", [(2, 1, 8), (2, 4, 4), (14, 3, 3), (14, 2, 10),
                                               (200, 1, 80)])
    def test_arrival_equals_five_calls(self, n_nodes, lo, hi):
        for seed in (0, 5, 2**33):
            want = ref_arrivals(BackgroundTrafficModel(30.0, 6.0, (lo, hi), seed), n_nodes, 400)
            got = port.default_rng(seed)
            draws = [got.arrival(1.0 / 30.0, n_nodes, lo, hi, 6.0) for _ in range(400)]
            assert [(g, i, j + 1 if j >= i else j, d, h) for g, i, j, d, h in draws] == want


class TestExponential:
    def test_long_streams_match(self):
        for seed in (0, 31, [7, 101]):
            want, got = np.random.default_rng(seed), port.default_rng(seed)
            assert [got.standard_exponential() for _ in range(30_000)] == \
                want.standard_exponential(30_000).tolist()
            assert port_state(got) == numpy_state(want)

    def test_scale_multiplies(self):
        for scale in (0.0, 1e-3, 1.0, 6.0, 1e9):
            want, got = np.random.default_rng(2), port.default_rng(2)
            assert [got.exponential(scale) for _ in range(100)] == \
                [want.exponential(scale) for _ in range(100)]

    def test_slow_path_at_every_level(self):
        """A first word at or above each level's bound, then whatever follows
        under a few increments: the tail, wedge accepts and wedge rejects."""
        words = {1: 0, 2: 0, "more": 0}
        for idx in range(256):
            for inc in (INC, 0x1D, 0x3C6EF372FE94F82B_A54FF53A5F1D36F1 | 1, 0xABCDEF1):
                ri = (1 << 53) - 1 - (inc & 0xFFFF)
                assert ri >= KE[idx]
                word = ((ri << 8) | idx) << 3
                want, got = crafted(word, inc)
                for draw in (lambda g: g.standard_exponential(), lambda g: g.exponential(3.0)):
                    assert draw(got) == draw(want)
                    assert port_state(got) == numpy_state(want)
                    want, got = crafted(word, inc)
                fused = got.arrival(1.0, 14, 2, 10, 1.0)[0]
                assert fused == want.exponential(1.0)
                post = word
                if inc == INC:
                    n = words_drawn(want, post)
                    words[n if n <= 2 else "more"] += 1
        # level 0 takes the tail (2 words); other levels accept or reject the wedge
        assert words[2] > 0 and words["more"] > 0 and words[1] == 0

    def test_hold_on_the_slow_path_at_every_level(self):
        # on two nodes with a one-value demand, the buffered half-word picks the
        # source, so the hold is the second 64-bit word of the arrival
        for idx in range(256):
            word = ((((1 << 53) - 1) << 8) | idx) << 3
            want, got = crafted(word, has_uint32=True, uinteger=12345, ahead=1)
            gap = want.exponential(0.5)
            i, j = int(want.integers(0, 2)), int(want.integers(0, 1))
            demand = int(want.integers(4, 5))
            assert got.arrival(0.5, 2, 4, 4, 2.0) == (gap, i, j, demand, want.exponential(2.0))
            assert port_state(got) == numpy_state(want)


class TestRunDraws:
    def test_placements_match(self):
        for pool in (RunConfig.from_flat({}).dc_nodes(), ["GA"], ["IL", "PA", "GA"]):
            cfg = RunConfig.from_flat({"placement.dc_nodes": pool})
            for seed in list(range(60)) + [2**32, 2**63 + 1]:
                for p in (1, 8, 13):
                    gen = np.random.default_rng([seed, 101])
                    want = [pool[int(i)] for i in gen.integers(0, len(pool), size=p)]
                    assert cfg.placement(seed, p) == want

    @pytest.mark.parametrize("seed", [0, 17, 31, 2**32 + 1])
    def test_tape_prefix_matches_numpy(self, seed):
        nodes = load_nsfnet().nodes
        model = loaded_background(seed)
        tape = ArrivalTape(model, nodes)
        want = ref_arrivals(model, len(nodes), 3000)
        assert tape_arrivals(tape, 3000) == want

    @pytest.mark.parametrize("demand", [(1, 1), (3, 7)])
    def test_two_node_tape_matches_numpy(self, demand):
        # the destination offset is a one-value range and consumes nothing
        model = BackgroundTrafficModel(12.0, 0.25, demand, rng_seed=8)
        want = ref_arrivals(model, 2, 500)
        assert tape_arrivals(ArrivalTape(model, ["A", "B"]), 500) == want


class TestTables:
    @staticmethod
    def draw(idx: int, ri: int) -> tuple[float, int]:
        word = ((ri << 8) | idx) << 3
        want, _ = crafted(word)
        return want.standard_exponential(), words_drawn(want, word)

    def test_we_and_ke_rederived_from_numpy(self):
        """ke[idx] is the least ri off the fast path (0 when even ri=0 misses it);
        we[idx] is the draw at a power-of-two ri on the fast path, divided by it."""
        for idx in range(256):
            want_ke, want_we = KE[idx], WE[idx]
            if self.draw(idx, 0)[1] > 1:
                assert want_ke == 0
                x, n = self.draw(idx, 1)  # a wedge accept returns x = 1 * we[idx]
                assert n == 2 and x == want_we
                continue
            lo, hi = 0, 1 << 53
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if self.draw(idx, mid)[1] == 1 else (lo, mid)
            assert hi == want_ke
            p = 1 << ((want_ke - 1).bit_length() - 1)
            x, n = self.draw(idx, p)
            assert n == 1 and x / p == want_we

    def test_fe_is_numpys_table(self):
        """numpy keeps fe just before we in its compiled distributions."""
        lib = pathlib.Path(np.random.__file__).parent
        binaries = sorted(lib.glob("_generator*")) + sorted(lib.glob("lib/libnpyrandom*"))
        assert binaries
        we = struct.pack("<256d", *WE)
        found = 0
        for path in binaries:
            data = path.read_bytes()
            at = data.find(we)
            if at < 0:
                continue
            assert list(struct.unpack("<256d", data[at - 2048:at])) == list(FE)
            found += 1
        assert found
        assert FE[0] == 1.0
