"""Property tests: the block-sort and MTF stages give exactly the bytes of
the per-byte reference (``codec_reference``) on any input.

The forward sort only re-sorts tied rotations and the inverse walks by
leaps of ``_LEAP`` LF steps, so the inputs lean on what those tricks see:
tiny blocks, lengths around multiples of the leap, one-byte runs,
periodic blocks (ties that survive to ``k >= n``), blocks whose seed
windows almost all tie, and few- or many-symbol random bytes.  The
inverse also takes last columns no forward transform produced, whose LF
mapping has several cycles, at every valid primary index.
"""

import codec_reference as ref
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress.bwt import _LEAP, bwt_forward, bwt_inverse
from repro.compress.mtf import mtf_forward, mtf_inverse


def _random_bytes(draw_args):
    symbols, n, seed = draw_args
    rng = np.random.default_rng(seed)
    return rng.integers(0, symbols, n, dtype=np.uint8).tobytes()


def _one_odd_byte(args):
    """A run of one byte with one other byte in it: every seed window
    that misses the odd byte ties with every other."""
    n, fill, odd, at = args
    block = bytearray([fill]) * n
    block[at % n] = odd
    return bytes(block)


def _periodic(args):
    unit, repeats, tail = args
    return unit * repeats + unit[: tail % len(unit)]


_seeds = st.integers(0, 2**32 - 1)
_lengths = st.one_of(
    st.integers(0, 3),
    st.integers(1, 4).map(lambda m: m * _LEAP + 1),
    st.sampled_from([_LEAP - 1, _LEAP, _LEAP + 1, 2 * _LEAP - 1, 3 * _LEAP + 7]),
    st.integers(4, 700),
)

blocks = st.one_of(
    st.binary(max_size=3),
    st.tuples(st.sampled_from([2, 4, 256]), _lengths, _seeds).map(_random_bytes),
    st.tuples(st.integers(0, 255), _lengths).map(lambda a: bytes([a[0]]) * a[1]),
    st.tuples(st.integers(1, 400)).map(lambda a: b"ab" * a[0]),
    st.tuples(st.binary(min_size=1, max_size=9), st.integers(1, 120), st.integers(0, 8))
    .map(_periodic),
    st.tuples(st.integers(2, 700), st.integers(0, 255), st.integers(0, 255), st.integers(0, 10**6))
    .map(_one_odd_byte),
    st.binary(max_size=1500),
)


@given(data=blocks)
@settings(max_examples=300, deadline=None)
def test_bwt_forward_matches_reference(data):
    assert bwt_forward(data) == ref.bwt_forward(data)


@given(data=blocks)
@settings(max_examples=200, deadline=None)
def test_bwt_inverse_matches_reference_on_bwt_output(data):
    last, primary = ref.bwt_forward(data)
    assert bwt_inverse(last, primary) == ref.bwt_inverse(last, primary) == data


@given(
    last=st.one_of(
        st.binary(min_size=1, max_size=3 * _LEAP + 5),
        st.tuples(st.sampled_from([2, 4, 256]), st.integers(1, 3 * _LEAP + 5), _seeds)
        .map(_random_bytes),
    )
)
@settings(max_examples=60, deadline=None)
def test_bwt_inverse_matches_reference_on_any_last_column(last):
    """Not every byte string is a BWT output; the walk from any primary
    is still one defined byte sequence, and it must be the same one."""
    for primary in range(len(last)):
        assert bwt_inverse(last, primary) == ref.bwt_inverse(last, primary)


@given(data=blocks)
@settings(max_examples=200, deadline=None)
def test_mtf_forward_matches_reference(data):
    assert mtf_forward(data) == ref.mtf_forward(data)


@given(data=blocks)
@settings(max_examples=200, deadline=None)
def test_mtf_inverse_matches_reference_on_any_stream(data):
    # every byte string is a valid MTF index stream
    assert mtf_inverse(data) == ref.mtf_inverse(data)
