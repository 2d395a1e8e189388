"""Property-based robustness: corrupted payloads never crash decoders.

A WAN corrupts or truncates payloads; every decoder must respond with a
typed error (CodecError / ProtocolError / ValueError / KeyError) or a
well-formed wrong result — never an unhandled IndexError/struct.error
crash or a hang.  The legacy v1 streams (``v1_streams``; "-v1" cases
below, decoded by the plain codec) are fuzzed like the current ones.
A header's counts are outside input too: a decoder's work and memory
must be bounded by the payload it was handed, not by what it claims.
"""

import struct
import time
import tracemalloc

import numpy as np
import pytest
import v1_streams
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import CodecError, get_codec
from repro.compress.huffman import build_code, encode_interleaved
from repro.daemon.protocol import ProtocolError, decode_message

ACCEPTABLE = (CodecError, ValueError, KeyError)


def _flip(payload: bytes, position: int, new_byte: int) -> bytes:
    position %= max(len(payload), 1)
    return payload[:position] + bytes([new_byte]) + payload[position + 1 :]


@pytest.fixture(scope="module")
def reference_payloads(request):
    img = np.clip(
        np.add.outer(np.arange(32) * 4, np.arange(32) * 3)[..., None]
        + np.array([0, 60, 120]),
        0,
        255,
    ).astype(np.uint8)
    out = {}
    for name in ("rle", "lzo", "bzip", "jpeg", "jpeg+lzo"):
        out[name] = get_codec(name).encode_image(img)
    out["jpeg-v1"] = v1_streams.JPEG_V1_FIXED_IMAGE
    # run_bytes() is a 16x32 RGB image's pixels: wrap its stream as one
    out["bzip-v1"] = (
        b"RIMG" + struct.pack("<IIB", 16, 32, 3) + v1_streams.BZIP_V1_RUNS
    )
    return out


@pytest.mark.parametrize(
    "name", ["rle", "lzo", "bzip", "jpeg", "jpeg+lzo", "jpeg-v1", "bzip-v1"]
)
@given(position=st.integers(0, 10_000), new_byte=st.integers(0, 255))
@settings(max_examples=30, deadline=None)
def test_bitflip_never_crashes(reference_payloads, name, position, new_byte):
    payload = _flip(reference_payloads[name], position, new_byte)
    codec = get_codec(name.removesuffix("-v1"))
    try:
        out = codec.decode_image(payload)
    except ACCEPTABLE:
        return
    assert isinstance(out, np.ndarray)
    assert out.dtype == np.uint8


@pytest.mark.parametrize(
    "name", ["rle", "lzo", "bzip", "jpeg", "jpeg-v1", "bzip-v1"]
)
@given(cut=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_truncation_never_crashes(reference_payloads, name, cut):
    payload = reference_payloads[name]
    truncated = payload[: cut % (len(payload) + 1)]
    codec = get_codec(name.removesuffix("-v1"))
    try:
        out = codec.decode_image(truncated)
    except ACCEPTABLE:
        return
    assert isinstance(out, np.ndarray)


def _one_symbol_code(symbol: int, alphabet: int):
    """The code a writer builds for a stream of one repeated symbol."""
    return build_code(np.bincount([symbol], minlength=alphabet))


def _jpeg_header(version: int, h: int, w: int) -> bytes:
    # one channel, quality 75, no subsampling
    return b"RJPG" + struct.pack("<BIIBBB", version, h, w, 1, 75, 0)


def _lying_jpeg_v2() -> bytes:
    """An 8-bit DC lane claiming a 1024x1024-block plane."""
    dc = _one_symbol_code(0, 16)
    return (
        _jpeg_header(2, 8192, 8192)
        + struct.pack("<III", 1024, 1024, 1024 * 1024)
        + dc.to_bytes()
        + _one_symbol_code(0, 256).to_bytes()
        + encode_interleaved(np.zeros(8, np.uint32), dc, lanes=1)
    )


def _lying_jpeg_v1() -> bytes:
    """An 8-bit plane stream claiming 8192x8192 blocks."""
    return (
        _jpeg_header(1, 65536, 65536)
        + struct.pack("<IIQ", 8192, 8192, 8)
        + _one_symbol_code(0, 16).to_bytes()
        + _one_symbol_code(0, 256).to_bytes()
        + struct.pack("<I", 1)
        + b"\x00"
    )


def _lying_bzip_v2() -> bytes:
    """A one-symbol block claiming 2**31 symbols."""
    code = _one_symbol_code(257, 258)
    return (
        b"RBZ2"
        + struct.pack("<II", 0, 1024)
        + struct.pack("<III", 0, 0, 1 << 31)
        + code.to_bytes()
        + encode_interleaved(np.array([257], np.uint32), code)
    )


def _lying_bzip_zero_runs() -> bytes:
    """A 1024-byte block of 35 RUNB digits: a zero run of 2**36 - 2."""
    symbols = np.array([1] * 35 + [257], np.uint32)
    code = build_code(np.bincount(symbols, minlength=258))
    return (
        b"RBZ2"
        + struct.pack("<II", 1024, 1024)
        + struct.pack("<III", 1024, 0, symbols.size)
        + code.to_bytes()
        + encode_interleaved(symbols, code)
    )


def _lying_bzip_v1() -> bytes:
    """A one-bit block claiming 2**31 symbols."""
    return (
        b"RBZP"
        + struct.pack("<II", 0, 1024)
        + struct.pack("<IIII", 0, 0, 1 << 31, 1)
        + _one_symbol_code(257, 258).to_bytes()
        + struct.pack("<I", 1)
        + b"\x00"
    )


@pytest.mark.parametrize(
    "build, decode",
    [
        (_lying_jpeg_v2, lambda p: get_codec("jpeg").decode_image(p)),
        (_lying_jpeg_v1, lambda p: get_codec("jpeg").decode_image(p)),
        (_lying_bzip_v2, lambda p: get_codec("bzip").decode(p)),
        (_lying_bzip_v1, lambda p: get_codec("bzip").decode(p)),
        (_lying_bzip_zero_runs, lambda p: get_codec("bzip").decode(p)),
    ],
    ids=["jpeg-v2", "jpeg-v1", "bzip-v2", "bzip-v1", "bzip-v2-zero-runs"],
)
def test_length_lying_headers_are_rejected_cheaply(build, decode):
    """Every Huffman code word is at least one bit, so a symbol or block
    count above the payload's bit count is a lie, and acting on it costs
    time or memory proportional to the lie.  So is a bzip zero run (its
    RUNA/RUNB digits) longer than the block it claims to fill."""
    payload = build()
    assert len(payload) < 256
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        with pytest.raises(CodecError):
            decode(payload)
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.2
    assert peak < 16 << 20


@given(data=st.binary(max_size=200))
@settings(max_examples=100, deadline=None)
def test_protocol_decode_never_crashes(data):
    try:
        decode_message(data)
    except (ProtocolError, KeyError):
        pass
