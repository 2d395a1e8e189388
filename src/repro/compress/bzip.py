"""BZIP: Burrows–Wheeler block-sorting compressor.

Implements the full bzip2-style pipeline the paper describes ("the
Burrows-Wheeler block-sorting compression algorithm and Huffman coding"):

1. **RLE1** — byte run-length pre-pass (tames degenerate runs and shrinks
   the sorter's input on flat images);
2. **BWT** — block sort (:mod:`repro.compress.bwt`), per block: prefix
   doubling that re-sorts only still-tied rotations, inverted by leaps
   along the last-first chain;
3. **MTF** — move-to-front (:mod:`repro.compress.mtf`), looping over run
   boundaries only;
4. **RLE2** — zero runs re-coded in bijective base 2 with two dedicated
   symbols (``RUNA``/``RUNB``), exactly bzip2's scheme;
5. **Huffman** — canonical length-limited code over the 258-symbol
   alphabet, one code table per block.

Container formats (the decoder accepts both)::

    v1: "RBZP" | u32 original_len | u32 block_size
        per block: u32 rle1_len | u32 primary | u32 nsyms | u32 nbits
                   | huffman table | u32 payload_len | payload

    v2: "RBZ2" | u32 original_len | u32 block_size
        per block: u32 rle1_len | u32 primary | u32 nsyms
                   | huffman table | interleaved-lane blob
                     (see repro.compress.huffman.encode_interleaved)

The encoder writes v2: its per-block symbol stream is dealt into
interleaved Huffman lanes so the decoder advances many lanes per NumPy
pass instead of one symbol per Python iteration.  v1 is the legacy layout
an older writer produced; it is read, never written.  ``block_size`` plays
the role of bzip2's ``-1``..``-9`` knob.  The decoder holds every block
to its header: ``rle1_len`` at most the stream's ``block_size``, and the
zero runs of RLE2 adding up to exactly ``rle1_len`` before they expand.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compress.base import CodecError, LosslessCodec, register_codec
from repro.compress.bwt import bwt_forward, bwt_inverse
from repro.compress.context import CodecContext
from repro.compress.huffman import (
    HuffmanCode,
    build_code,
    decode_interleaved,
    decode_symbols,
    encode_interleaved,
)
from repro.compress.mtf import mtf_forward, mtf_inverse
from repro.compress.rle import RLECodec, find_runs
from repro.compress.scan import ragged_indices

__all__ = ["BZIPCodec"]

_MAGIC = b"RBZP"
_MAGIC_V2 = b"RBZ2"
_RUNA = 0
_RUNB = 1
_VALUE_OFFSET = 1  # MTF value v >= 1 becomes symbol v + 1
_ALPHABET = 258  # RUNA, RUNB, 2..256 for values 1..255, 257 = EOB
_EOB = 257


_POW2 = np.int64(1) << np.arange(63, dtype=np.int64)


def _zero_runs_to_symbols(mtf_bytes: bytes) -> np.ndarray:
    """RLE2: emit RUNA/RUNB digits for zero runs, shifted values otherwise.

    Vectorized over the run list: a zero run of length ``r`` has
    ``bit_length(r + 1) - 1`` bijective base-2 digits, and digit ``i``
    (LSB first) is simply bit ``i`` of ``r + 1`` (0 = RUNA, 1 = RUNB) —
    the closed form of the sequential decrement-and-halve loop.  Digits
    and shifted literal values then land in the output through one
    ragged fancy-index store each.
    """
    arr = np.frombuffer(mtf_bytes, dtype=np.uint8)
    if arr.size == 0:
        return np.asarray([_EOB], dtype=np.uint32)
    starts, lengths = find_runs(arr)
    iszero = arr[starts] == 0
    q = lengths[iszero] + 1
    ndig = np.searchsorted(_POW2, q, side="right") - 1
    out_lens = lengths.copy()
    out_lens[iszero] = ndig
    obase = np.cumsum(out_lens)
    total = int(obase[-1])
    obase -= out_lens
    symbols = np.empty(total + 1, dtype=np.uint32)
    lit = ~iszero
    lo, loff = ragged_indices(lengths[lit])
    symbols[obase[lit][lo] + loff] = (
        arr[starts[lit][lo] + loff] + np.uint32(_VALUE_OFFSET)
    )
    do, di = ragged_indices(ndig)
    symbols[obase[iszero][do] + di] = (q[do] >> di) & 1
    symbols[-1] = _EOB
    return symbols


def _symbols_to_zero_runs(symbols: np.ndarray, block_len: int) -> bytes:
    """Invert :func:`_zero_runs_to_symbols` (EOB terminates).

    Vectorized: RUNA/RUNB digit groups collapse to zero-run lengths via a
    segmented positional sum, then one ``np.repeat`` materializes the
    output — no per-symbol Python loop.  The output is the block's
    ``block_len`` bytes (a header claim), and the digits are held to it
    before anything is expanded: a run of at most ``block_len`` zeros has
    at most ``block_len.bit_length()`` digits, so a group of more than one
    digit beyond that (which would ask for 2**digits bytes, and from 63
    digits on wrap int64) or a stream that adds up to another length is
    rejected with :class:`CodecError`.
    """
    symbols = np.asarray(symbols, dtype=np.int64)
    eobs = np.flatnonzero(symbols == _EOB)
    if eobs.size == 0:
        raise CodecError("bzip: missing end-of-block symbol")
    symbols = symbols[: eobs[0]]
    n = symbols.size
    if n == 0:
        if block_len:
            raise CodecError("bzip: block length mismatch")
        return b""
    if symbols.max() > 256:
        raise CodecError(
            f"bzip: symbol {int(symbols.max())} out of range"
        )
    is_run = symbols <= _RUNB
    # group consecutive run digits; digit i of a group contributes
    # (digit_value) * 2^i, digit_value = 1 (RUNA) or 2 (RUNB)
    group_start = is_run & np.concatenate(([True], ~is_run[:-1]))
    grp = np.cumsum(group_start) - 1  # valid where is_run
    n_groups = int(group_start.sum())
    run_lens = np.zeros(max(n_groups, 1), dtype=np.int64)
    if n_groups:
        digit_pos = np.arange(n) - np.maximum.accumulate(
            np.where(group_start, np.arange(n), -1)
        )
        digit_pos = digit_pos[is_run]
        if digit_pos.max() > block_len.bit_length():
            raise CodecError("bzip: zero run longer than its block")
        np.add.at(run_lens, grp[is_run], (symbols[is_run] + 1) << digit_pos)
    # stream items in order: each digit group (at its first digit) expands
    # to run_lens zeros, each value symbol to one byte
    item = ~is_run | group_start
    item_is_run = is_run[item]
    item_vals = np.where(item_is_run, 0, symbols[item] - _VALUE_OFFSET)
    # grp is -1 before the first group; clamp — those items are values,
    # so the gathered run length is discarded by the where()
    item_counts = np.where(item_is_run, run_lens[np.maximum(grp[item], 0)], 1)
    if item_counts.sum() != block_len:
        raise CodecError("bzip: block length mismatch")
    return np.repeat(item_vals.astype(np.uint8), item_counts).tobytes()


class BZIPCodec(LosslessCodec):
    """Block-sorting compressor (BWT + MTF + RLE2 + Huffman).

    Parameters
    ----------
    block_size:
        Bytes per independently-sorted block (default 512 KiB).  Larger
        blocks improve ratio at superlinear sort cost, mirroring bzip2's
        ``-1``..``-9``.

    Huffman tables are reused across frames through a private
    :class:`~repro.compress.context.CodecContext` until
    :meth:`use_context` binds a shared one.
    """

    name = "bzip"

    def __init__(self, block_size: int = 512 * 1024):
        if block_size < 1024:
            raise ValueError("block_size must be >= 1024")
        self.block_size = block_size
        self._ctx = CodecContext()
        self._rle1 = RLECodec(min_run=4)

    def use_context(self, context: CodecContext) -> None:
        """Adopt a shared cross-codec context (e.g. one per connection)."""
        self._ctx = context

    def encode(self, data: bytes) -> bytes:
        pre = self._rle1.encode(data)
        out = [_MAGIC_V2, struct.pack("<II", len(data), self.block_size)]
        for start in range(0, max(len(pre), 1), self.block_size):
            block = pre[start : start + self.block_size]
            last, primary = bwt_forward(block)
            mtf = mtf_forward(last)
            symbols = _zero_runs_to_symbols(mtf)
            freqs = np.bincount(symbols, minlength=_ALPHABET)
            code = build_code(freqs)
            out.append(struct.pack("<III", len(block), primary, symbols.size))
            out.append(code.to_bytes())
            out.append(encode_interleaved(symbols, code))
        return b"".join(out)

    def decode(self, payload: bytes) -> bytes:
        if len(payload) < 12:
            raise CodecError("bzip: bad or truncated header")
        magic = payload[:4]
        if magic == _MAGIC:
            version = 1
        elif magic == _MAGIC_V2:
            version = 2
        else:
            raise CodecError("bzip: bad or truncated header")
        orig_len, block_size = struct.unpack_from("<II", payload, 4)
        offset = 12
        pre = bytearray()
        while offset < len(payload):
            block, offset = self._decode_block(
                payload, offset, version, block_size
            )
            pre += block
        data = self._rle1.decode(bytes(pre))
        if len(data) != orig_len:
            raise CodecError("bzip: original length mismatch")
        return data

    def _decode_block(
        self, payload: bytes, offset: int, version: int, block_size: int
    ) -> tuple[bytes, int]:
        head = 16 if version == 1 else 12
        if offset + head > len(payload):
            raise CodecError("bzip: truncated block header")
        if version == 1:
            # wire: rbzp-block (one-sided: v1 is read, no longer written)
            block_len, primary, nsyms, nbits = struct.unpack_from(
                "<IIII", payload, offset
            )
        else:
            block_len, primary, nsyms = struct.unpack_from(
                "<III", payload, offset
            )
        if block_len > block_size:
            raise CodecError("bzip: block longer than the stream's block size")
        offset += head
        code, offset = self._ctx.huffman_from_bytes(payload, offset)
        if version == 1:
            if offset + 4 > len(payload):
                raise CodecError("bzip: truncated payload length")
            (plen,) = struct.unpack_from("<I", payload, offset)
            offset += 4
            if offset + plen > len(payload):
                raise CodecError("bzip: truncated block payload")
            symbols = decode_symbols(
                payload[offset : offset + plen], nbits, nsyms, code
            )
            offset += plen
        else:
            symbols, offset = decode_interleaved(payload, offset, nsyms, code)
        mtf = _symbols_to_zero_runs(symbols, block_len)
        return bwt_inverse(mtf_inverse(mtf), primary), offset


register_codec("bzip", lambda **kw: BZIPCodec(**kw))
