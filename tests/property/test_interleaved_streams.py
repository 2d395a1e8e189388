"""Interleaved entropy streams: round-trip properties and format freezes.

Two guarantees are pinned here.  First, the interleaved-lane Huffman blob
(``encode_interleaved``/``decode_interleaved``) inverts for any symbol
stream and any legal lane count.  Second, the *legacy* v1 containers stay
decodable forever: the codecs no longer write v1, so golden byte strings
captured from the retired v1 writers (``v1_streams``) must keep decoding
to their known outputs, equal to what the v2 stream of the same input
decodes to, so a new display daemon can always drain a stream produced by
an old renderer.
"""

import hashlib

import numpy as np
import pytest
import v1_streams
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compress import get_codec
from repro.compress.base import CodecError
from repro.compress.huffman import (
    build_code,
    decode_interleaved,
    encode_interleaved,
)

# Skewed frequencies exercise long and short code words in one table.
symbol_streams = st.lists(
    st.integers(0, 40).map(lambda v: v * v % 97), min_size=0, max_size=3000
)


def _code_for(symbols, alphabet=97):
    freqs = np.bincount(
        np.asarray(symbols + [0], dtype=np.int64), minlength=alphabet
    )
    return build_code(freqs)


class TestInterleavedRoundtrip:
    @given(symbols=symbol_streams)
    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_roundtrip_default_lanes(self, symbols):
        code = _code_for(symbols)
        arr = np.asarray(symbols, dtype=np.uint32)
        blob = encode_interleaved(arr, code)
        out, end = decode_interleaved(blob, 0, arr.size, code)
        assert end == len(blob)
        assert np.array_equal(out, arr)

    @given(
        symbols=symbol_streams,
        lanes=st.one_of(st.integers(1, 8), st.sampled_from([16, 64, 255])),
    )
    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_roundtrip_explicit_lanes(self, symbols, lanes):
        code = _code_for(symbols)
        arr = np.asarray(symbols, dtype=np.uint32)
        blob = encode_interleaved(arr, code, lanes=lanes)
        out, end = decode_interleaved(blob, 0, arr.size, code)
        assert end == len(blob)
        assert np.array_equal(out, arr)

    @given(symbols=st.lists(st.integers(0, 5), min_size=8, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_truncation_always_detected(self, symbols):
        code = _code_for(symbols, alphabet=6)
        arr = np.asarray(symbols, dtype=np.uint32)
        blob = encode_interleaved(arr, code)
        with pytest.raises(CodecError):
            decode_interleaved(blob[:-1], 0, arr.size, code)

    def test_bzip_v1_v2_cross_decode(self):
        codec = get_codec("bzip")
        for data, p1 in v1_streams.BZIP_V1_STREAMS:
            assert codec.decode(p1) == data
            assert codec.decode(codec.encode(data)) == data

    def test_jpeg_v1_v2_decode_identically(self):
        dec = get_codec("jpeg")
        for seed, p1 in v1_streams.JPEG_V1_RANDOM24.items():
            rng = np.random.default_rng(seed)
            img = rng.integers(0, 256, (24, 24, 3), dtype=np.uint8)
            p2 = get_codec("jpeg").encode_image(img)
            assert np.array_equal(dec.decode_image(p1), dec.decode_image(p2))


class TestVectorizedEncodeLanes:
    """The vectorized v2 encode engine across lane counts and geometries.

    The lane count changes the container's interleave layout but must
    never change what a decoder reconstructs: for every K the payload has
    to decode bit-for-bit identically to the default-lane encoding, on
    random frames, odd-sized planes (where the chroma grid is ragged) and
    a rendered golden frame alike.
    """

    LANES = (1, 8, None)  # None = the codec's adaptive default

    @given(
        seed=st.integers(0, 2**32 - 1),
        lanes=st.sampled_from(LANES),
        h=st.integers(5, 41),
        w=st.integers(5, 41),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_frames_decode_identically_across_lanes(
        self, seed, lanes, h, w
    ):
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        ref = get_codec("jpeg").encode_image(img)
        payload = get_codec("jpeg", lanes=lanes).encode_image(img)
        dec = get_codec("jpeg")
        assert np.array_equal(
            dec.decode_image(payload), dec.decode_image(ref)
        )

    @pytest.mark.parametrize("lanes", LANES)
    @pytest.mark.parametrize("shape", [(16, 16), (17, 23), (31, 9)])
    def test_golden_frame_across_lanes_and_odd_planes(self, lanes, shape):
        h, w = shape
        yy, xx = np.mgrid[0:h, 0:w]
        img = np.clip(
            np.stack([xx * 16, yy * 16, (xx + yy) * 8], axis=-1), 0, 255
        ).astype(np.uint8)
        ref = get_codec("jpeg").encode_image(img)
        payload = get_codec("jpeg", lanes=lanes).encode_image(img)
        dec = get_codec("jpeg")
        out = dec.decode_image(payload)
        assert out.shape == img.shape
        assert np.array_equal(out, dec.decode_image(ref))

    @pytest.mark.parametrize("lanes", LANES)
    def test_v1_decode_matches_v2_across_lanes(self, lanes):
        rng = np.random.default_rng(7)
        img = rng.integers(0, 256, (17, 23, 3), dtype=np.uint8)
        p2 = get_codec("jpeg", lanes=lanes).encode_image(img)
        dec = get_codec("jpeg")
        assert np.array_equal(
            dec.decode_image(v1_streams.JPEG_V1_RNG7), dec.decode_image(p2)
        )

    @pytest.mark.parametrize("name", ["lzo", "bzip"])
    def test_lossless_stages_roundtrip_jpeg_payloads(self, name):
        """The two-phase second stages on real v2 jpeg payloads."""
        rng = np.random.default_rng(11)
        img = rng.integers(0, 256, (31, 9, 3), dtype=np.uint8)
        payload = get_codec("jpeg").encode_image(img)
        codec = get_codec(name)
        assert codec.decode(codec.encode(payload)) == payload


class TestLegacyGoldenBytes:
    """Byte strings captured from the v1 writers.  If these stop decoding,
    newly deployed peers have broken compatibility with live old ones."""

    def test_bzip_v1_golden_decodes(self):
        p1 = v1_streams.BZIP_V1_GOLDEN
        assert p1.startswith(b"RBZP")
        assert get_codec("bzip").decode(p1) == v1_streams.golden_data()

    def test_jpeg_v1_golden_decodes(self):
        p1 = v1_streams.JPEG_V1_GRADIENT_Q50
        assert p1[4] == 1  # the version byte
        out = get_codec("jpeg").decode_image(p1)
        assert out.shape == (16, 16, 3)
        assert hashlib.sha256(out.tobytes()).hexdigest() == (
            "4552cb709b33c3767b7cf7bc89677689bf7bcef47b05bce547ae9f2369e22e7a"
        )
