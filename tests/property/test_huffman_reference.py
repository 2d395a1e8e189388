"""Property tests: the numpy Huffman builders give exactly the lengths,
codes and packed decode table of the heap / per-symbol reference
(``codec_reference``) on any frequency table.

The two-queue merge must break every tie the way the heap did (a leaf
before a merged node, then lower symbol, then older node), so the tables
lean on ties: few distinct weights, all-equal weights, and powers of two.
Fibonacci-like weights over more than 16 symbols make a tree deeper than
:data:`~repro.compress.huffman.MAX_BITS`, which sends ``build_code``
through its frequency-flattening retry.
"""

import codec_reference as ref
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress.base import CodecError
from repro.compress.huffman import MAX_BITS, HuffmanCode, build_code


def _table(args):
    alphabet, used, kind, seed = args
    rng = np.random.default_rng(seed)
    used = min(used, alphabet)
    freqs = np.zeros(alphabet, dtype=np.int64)
    symbols = rng.choice(alphabet, used, replace=False)
    if kind == "ties":
        freqs[symbols] = rng.integers(1, 4, used)
    elif kind == "equal":
        freqs[symbols] = int(rng.integers(1, 100))
    elif kind == "pow2":
        freqs[symbols] = 1 << rng.integers(0, 12, used)
    elif kind == "fibonacci":
        fib = [1, 1]
        while len(fib) < used:
            fib.append(fib[-1] + fib[-2])
        freqs[symbols] = rng.permutation(fib[:used])
    else:
        freqs[symbols] = rng.integers(1, 10_000, used)
    return freqs


tables = st.tuples(
    st.sampled_from([16, 256]),
    st.integers(1, 40),
    st.sampled_from(["ties", "equal", "pow2", "fibonacci", "wide"]),
    st.integers(0, 2**32 - 1),
).map(_table)


def _assert_matches_reference(freqs, max_bits=MAX_BITS):
    lengths = ref.build_lengths(freqs, max_bits)
    codes = ref.canonical_codes(lengths)
    lut, width = ref.packed_decode_table(lengths, codes)
    code = build_code(freqs, max_bits)
    assert np.array_equal(code.lengths, lengths)
    assert code.lengths.dtype == lengths.dtype
    assert np.array_equal(code.codes, codes) and code.codes.dtype == codes.dtype
    got_lut, got_width = code.packed_decode_table()
    assert got_width == width
    assert np.array_equal(got_lut, lut) and got_lut.dtype == lut.dtype
    # the decode side rebuilds the same code from its serialized lengths
    parsed, _ = HuffmanCode.from_bytes(code.to_bytes())
    assert np.array_equal(parsed.codes, codes)
    assert np.array_equal(parsed.packed_decode_table()[0], lut)


@settings(max_examples=300, deadline=None)
@given(tables)
def test_builders_match_the_reference(freqs):
    _assert_matches_reference(freqs)


@settings(max_examples=60, deadline=None)
@given(st.integers(18, 40), st.integers(0, 2**32 - 1))
def test_deep_trees_are_flattened_like_the_reference(used, seed):
    """Fibonacci weights over ``used`` symbols build a tree ``used - 1``
    levels deep, so every example takes the flattening retry."""
    freqs = _table((256, used, "fibonacci", seed))
    assert ref.huffman_lengths(freqs).max() > MAX_BITS
    _assert_matches_reference(freqs)


@settings(max_examples=40, deadline=None)
@given(tables, st.integers(6, 15))
def test_lower_length_limits_match_the_reference(freqs, max_bits):
    # 2**6 codes fit every table here (at most 40 used symbols)
    _assert_matches_reference(freqs, max_bits)


def test_over_subscribed_lengths_are_rejected_like_the_reference():
    lengths = np.array([1, 1, 2, 0], dtype=np.uint8)
    with pytest.raises(CodecError):
        ref.canonical_codes(lengths)
    with pytest.raises(CodecError):
        HuffmanCode.from_lengths(lengths)
