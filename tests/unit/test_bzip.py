"""Unit tests for the BZIP (BWT block-sorting) codec."""

import struct

import numpy as np
import pytest

from repro.compress.base import CodecError
from repro.compress.bzip import (
    BZIPCodec,
    _symbols_to_zero_runs,
    _zero_runs_to_symbols,
)


@pytest.fixture
def codec():
    return BZIPCodec(block_size=16 * 1024)


class TestZeroRunCoding:
    def test_roundtrip_simple(self):
        data = b"\x00\x00\x00ab\x00c"
        syms = _zero_runs_to_symbols(data)
        assert _symbols_to_zero_runs(syms, len(data)) == data

    @pytest.mark.parametrize("run", [1, 2, 3, 4, 5, 7, 8, 15, 16, 100, 255])
    def test_roundtrip_run_lengths(self, run):
        data = b"\x00" * run + b"\x01"
        syms = _zero_runs_to_symbols(data)
        assert _symbols_to_zero_runs(syms, len(data)) == data

    def test_trailing_zero_run(self):
        data = b"ab" + b"\x00" * 37
        syms = _zero_runs_to_symbols(data)
        assert _symbols_to_zero_runs(syms, len(data)) == data

    def test_empty(self):
        syms = _zero_runs_to_symbols(b"")
        assert _symbols_to_zero_runs(syms, 0) == b""

    def test_ends_with_eob(self):
        syms = _zero_runs_to_symbols(b"xyz")
        assert syms[-1] == 257

    def test_bijective_encoding_is_compact(self):
        # a run of 2^k zeros takes ~k symbols
        syms = _zero_runs_to_symbols(b"\x00" * 1024 + b"\x01")
        assert syms.size < 15

    def test_missing_eob_rejected(self):
        with pytest.raises(CodecError):
            _symbols_to_zero_runs(np.array([5, 6]), 2)

    @pytest.mark.parametrize("digits", [13, 35, 63, 64, 70])
    def test_digit_group_longer_than_the_block_rejected(self, digits):
        # a run in a 1024-byte block has at most 11 digits and one more is
        # let through to the length check, so 13 is the shortest group
        # refused outright; 35 RUNBs ask for 2**36 bytes, 63+ wrap int64
        syms = np.array([1] * digits + [257])
        with pytest.raises(CodecError, match="longer than its block"):
            _symbols_to_zero_runs(syms, 1024)

    @pytest.mark.parametrize(
        "data, block_len",
        [(b"\x00" * 5 + b"\x01", 7), (b"\x00" * 5 + b"\x01", 5), (b"", 3), (b"ab", 0)],
    )
    def test_output_must_be_the_claimed_block(self, data, block_len):
        with pytest.raises(CodecError, match="block length mismatch"):
            _symbols_to_zero_runs(_zero_runs_to_symbols(data), block_len)

    def test_longest_run_of_a_block_decodes(self):
        for n in (1, 2, 3, 1023, 1024, 65535):
            data = bytes(n)
            assert _symbols_to_zero_runs(_zero_runs_to_symbols(data), n) == data


class TestBZIPRoundtrip:
    def test_empty(self, codec):
        assert codec.decode(codec.encode(b"")) == b""

    def test_single_byte(self, codec):
        assert codec.decode(codec.encode(b"z")) == b"z"

    def test_text(self, codec):
        data = b"it was the best of times, it was the worst of times " * 50
        enc = codec.encode(data)
        assert len(enc) < len(data) / 4
        assert codec.decode(enc) == data

    def test_zeros(self, codec):
        data = bytes(50000)
        enc = codec.encode(data)
        assert len(enc) < 250
        assert codec.decode(enc) == data

    def test_random(self, codec):
        rng = np.random.default_rng(31)
        data = rng.integers(0, 256, 8000, dtype=np.uint8).tobytes()
        assert codec.decode(codec.encode(data)) == data

    def test_multi_block(self):
        codec = BZIPCodec(block_size=1024)
        data = (b"block sorting burrows wheeler " * 300)[:8000]
        enc = codec.encode(data)
        assert codec.decode(enc) == data

    def test_block_boundary_exact(self):
        codec = BZIPCodec(block_size=1024)
        for n in (1023, 1024, 1025, 2048):
            data = bytes([i % 251 for i in range(n)])
            assert codec.decode(codec.encode(data)) == data, n

    def test_beats_rle_on_text(self, codec):
        from repro.compress.rle import RLECodec

        data = b"a man a plan a canal panama " * 100
        assert len(codec.encode(data)) < len(RLECodec().encode(data))

    def test_better_than_lzo_on_text(self, codec):
        """The paper: BZIP has 'very good lossless compression' — better
        ratio than the speed-oriented LZ family on structured data."""
        from repro.compress.lzo import LZOCodec

        rng = np.random.default_rng(5)
        words = [b"vortex", b"shock", b"jet", b"wave", b"field", b"flow"]
        data = b" ".join(words[int(i)] for i in rng.integers(0, 6, 4000))
        assert len(codec.encode(data)) < len(LZOCodec().encode(data))


class TestBZIPErrors:
    def test_bad_magic(self, codec):
        with pytest.raises(CodecError):
            codec.decode(b"NOPE" + bytes(8))

    def test_truncated_block(self, codec):
        enc = codec.encode(b"some reasonable amount of text " * 20)
        with pytest.raises(CodecError):
            codec.decode(enc[: len(enc) - 10])

    def test_length_mismatch_detected(self, codec):
        enc = bytearray(codec.encode(b"hello world " * 10))
        # corrupt the recorded original length
        enc[4:8] = struct.pack("<I", 5)
        with pytest.raises(CodecError):
            codec.decode(bytes(enc))

    def test_block_longer_than_stream_block_size_rejected(self):
        codec = BZIPCodec(block_size=1024)
        enc = bytearray(codec.encode(bytes(range(256)) * 6))
        assert codec.decode(bytes(enc)) == bytes(range(256)) * 6
        enc[8:12] = struct.pack("<I", 1023)  # the first block holds 1024
        with pytest.raises(CodecError, match="block size"):
            codec.decode(bytes(enc))

    def test_block_size_validation(self):
        with pytest.raises(ValueError):
            BZIPCodec(block_size=100)

    def test_image_interface(self, codec, rendered_rgb):
        out = codec.decode_image(codec.encode_image(rendered_rgb))
        assert np.array_equal(out, rendered_rgb)
