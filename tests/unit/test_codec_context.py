"""Persistent codec contexts: cross-frame table reuse and buffer pooling.

The regression these tests pin: decode-side Huffman tables must be built
exactly once per *distinct* serialized table, no matter how many frames,
planes, or blocks carry a byte-identical copy.  ``repro.compress.huffman``
exposes a module-level ``TABLE_BUILDS`` counter incremented by the real
LUT construction, so the tests count actual work, not cache bookkeeping.
"""

import numpy as np
import pytest

from repro.compress import get_codec
from repro.compress import huffman
from repro.compress.base import CodecError
from repro.compress.context import CodecContext, bound_codec
from repro.compress.huffman import build_code


@pytest.fixture
def ctx():
    return CodecContext()


def _table_payload(data=b"abracadabra" * 20):
    freqs = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
    code = build_code(freqs)
    return code.to_bytes(), code


class TestHuffmanDedup:
    def test_identical_tables_share_one_instance(self, ctx):
        payload, _ = _table_payload()
        a, end_a = ctx.huffman_from_bytes(payload)
        b, end_b = ctx.huffman_from_bytes(payload)
        assert a is b
        assert end_a == end_b == len(payload)
        assert ctx.stats["huffman_code_builds"] == 1
        assert ctx.stats["huffman_code_hits"] == 1

    def test_distinct_tables_build_separately(self, ctx):
        p1, _ = _table_payload(b"aaaabbbbcc" * 30)
        p2, _ = _table_payload(b"the quick brown fox" * 15)
        ctx.huffman_from_bytes(p1)
        ctx.huffman_from_bytes(p2)
        assert ctx.stats["huffman_code_builds"] == 2

    def test_decode_lut_built_once_per_distinct_table(self, ctx):
        """One LUT build per distinct table across repeated decodes."""
        payload, _ = _table_payload()
        before = huffman.TABLE_BUILDS
        for _ in range(5):
            code, _ = ctx.huffman_from_bytes(payload)
            code.decode_tables()
        assert huffman.TABLE_BUILDS - before == 1

    def test_truncated_table_rejected(self, ctx):
        payload, _ = _table_payload()
        with pytest.raises(CodecError):
            ctx.huffman_from_bytes(payload[:2])

    def test_fifo_eviction_bounded(self):
        """The cache holds at most its byte budget, counting each entry's
        table bytes, arrays and packed LUT, and evicts oldest first."""
        payloads = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            data = rng.integers(0, 8, 200, dtype=np.uint8).tobytes()
            payloads.append(_table_payload(data)[0])
        costs = [
            len(p) + CodecContext().huffman_from_bytes(p)[0].nbytes
            for p in payloads
        ]
        budget = sum(costs[:4])
        small = CodecContext(max_code_bytes=budget)
        for p in payloads:
            small.huffman_from_bytes(p)
            held = sum(len(k) + c.nbytes for k, c in small._codes.items())
            assert small.code_bytes == held <= budget
        assert 0 < len(small._codes) < len(payloads)
        assert list(small._codes) == payloads[-len(small._codes):]
        small.clear()
        assert small.code_bytes == 0

    def test_table_larger_than_the_budget_is_decoded_but_not_kept(self):
        payload, code = _table_payload()
        tiny = CodecContext(max_code_bytes=64)
        got, end = tiny.huffman_from_bytes(payload)
        assert np.array_equal(got.codes, code.codes) and end == len(payload)
        assert not tiny._codes and tiny.code_bytes == 0

    def test_replay_cycle_builds_each_table_once(self, ctx):
        """A cyclic replay of more distinct tables than the old 256-entry
        cap (the relay replays a 64-frame timeline carrying ~272) builds
        nothing on its second pass: the default budget holds the cycle."""
        rng = np.random.default_rng(3)
        payloads = []
        for _ in range(300):
            freqs = rng.integers(0, 50, 256) * (rng.random(256) < 0.12)
            freqs[rng.integers(256)] += 1
            payloads.append(build_code(freqs).to_bytes())
        assert len(set(payloads)) > 256
        for p in payloads:
            ctx.huffman_from_bytes(p)[0].packed_decode_table()
        builds = ctx.stats["huffman_code_builds"]
        luts = huffman.TABLE_BUILDS
        for p in payloads:
            ctx.huffman_from_bytes(p)[0].packed_decode_table()
        assert ctx.stats["huffman_code_builds"] == builds
        assert huffman.TABLE_BUILDS == luts
        assert ctx.code_bytes <= ctx.max_code_bytes


class TestSteadyStateDecode:
    """A stream of same-shaped frames stops building tables after frame 1."""

    @pytest.mark.parametrize("name", ["jpeg", "bzip", "jpeg+bzip"])
    def test_repeat_decode_builds_no_new_tables(self, ctx, name):
        rng = np.random.default_rng(7)
        img = rng.integers(0, 256, (48, 48, 3), dtype=np.uint8)
        codec = get_codec(name)
        codec.use_context(ctx)
        enc = codec.encode_image(img)
        first = codec.decode_image(enc)
        builds_after_first = ctx.stats["huffman_code_builds"]
        lut_after_first = huffman.TABLE_BUILDS
        for _ in range(3):
            again = codec.decode_image(enc)
        assert ctx.stats["huffman_code_builds"] == builds_after_first
        assert huffman.TABLE_BUILDS == lut_after_first
        assert ctx.stats["huffman_code_hits"] > 0
        assert np.array_equal(first, again)

    def test_context_shared_across_codecs(self, ctx):
        data = b"shared-table payload " * 50
        a = get_codec("bzip")
        b = get_codec("bzip")
        a.use_context(ctx)
        b.use_context(ctx)
        enc = a.encode(data)
        assert a.decode(enc) == data
        builds = ctx.stats["huffman_code_builds"]
        assert b.decode(enc) == data
        assert ctx.stats["huffman_code_builds"] == builds


class TestQuantAndScratch:
    def test_quant_tables_cached_per_quality(self, ctx):
        t1 = ctx.quant_tables(75)
        t2 = ctx.quant_tables(75)
        assert t1[0] is t2[0]
        ctx.quant_tables(30)
        assert ctx.stats["quant_builds"] == 2
        assert ctx.stats["quant_hits"] == 1

    def test_scratch_reuses_buffer(self, ctx):
        a = ctx.scratch("zz", (16, 64), np.int64)
        b = ctx.scratch("zz", (16, 64), np.int64)
        assert a is b
        c = ctx.scratch("zz", (32, 64), np.int64)
        assert c is not a
        assert ctx.stats["buffer_allocs"] == 2
        assert ctx.stats["buffer_hits"] == 1

    def test_clear_drops_caches_keeps_stats(self, ctx):
        payload, _ = _table_payload()
        ctx.huffman_from_bytes(payload)
        ctx.clear()
        assert len(ctx._codes) == 0
        assert ctx.stats["huffman_code_builds"] == 1
        ctx.huffman_from_bytes(payload)
        assert ctx.stats["huffman_code_builds"] == 2


class TestDisplayInterfaceWiring:
    def test_display_interface_shares_context(self):
        from repro.daemon.display_interface import DisplayInterface
        from repro.net.transport import FramedConnection

        local, _remote = FramedConnection.pair("a", "b")
        di = DisplayInterface(connection=local)
        jpeg = bound_codec(di._codecs, di.codec_context, "jpeg")
        combo = bound_codec(di._codecs, di.codec_context, "jpeg+bzip")
        assert jpeg._ctx is di.codec_context
        assert combo.first._ctx is di.codec_context
        assert combo.second._ctx is di.codec_context
