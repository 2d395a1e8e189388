"""Canonical Huffman coding over ``uint16`` symbol alphabets.

Used as the entropy-coding back end of both the BZIP pipeline
(:mod:`repro.compress.bzip`) and the JPEG-style codec
(:mod:`repro.compress.jpeg`).  Code lengths come from the classic
two-queue Huffman algorithm (one sort of the used symbols, then one pass of
merges) with a frequency-flattening retry to enforce a maximum code length
of :data:`MAX_BITS`, so the decoder can be a single ``2**MAX_BITS``-entry
lookup table.  Canonical codes are one cumsum over the lengths, and the
decode table is one ``np.repeat`` of packed ``(symbol << 5 | length)``
entries, each repeated over the windows its code covers; encoding is
vectorized too.

Two stream layouts exist:

- the legacy layout (:func:`decode_symbols`): one stream, decoded one
  table lookup per symbol in a Python loop.  The codecs only read it
  (BZIP's ``RBZP`` container); its writer stays as the reference the
  reader is tested against;
- the interleaved layout (:func:`encode_interleaved` /
  :func:`decode_interleaved`): the symbol sequence is dealt round-robin
  into ``K`` independent lanes, each entropy-coded separately and
  byte-aligned into one blob.  The decoder advances all ``K`` lanes per
  NumPy gather pass — the paper's per-sub-image parallel-decompression
  trick (Figure 10) applied *inside* a single stream, cutting the Python
  iteration count by ``K``.

The packed decode table is memoized on the :class:`HuffmanCode` instance
(built at most once per distinct code object; :data:`TABLE_BUILDS` counts
builds for regression tests), and :class:`~repro.compress.context.
CodecContext` deduplicates instances across frames by table bytes, up to a
byte budget.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.compress.base import CodecError
from repro.compress.bitio import pack_values, sliding_code_windows, unpack_bits

__all__ = [
    "HuffmanCode",
    "build_code",
    "encode_symbols",
    "decode_symbols",
    "encode_interleaved",
    "decode_interleaved",
    "interleave_entries",
    "interleave_header",
]

#: Longest permitted code, bounding decoder table size to 64 Ki entries.
MAX_BITS = 16

#: Most lanes the interleaved layout deals a stream into when the caller
#: names no count: :func:`_lane_count` gives one lane per 8 symbols up to
#: this cap, and each lane costs a header entry plus a byte-alignment pad.
DEFAULT_LANES = 128

#: Decode-table builds since import — regression tests assert memoization
#: (one build per distinct table) against this counter.
TABLE_BUILDS = 0


def _huffman_lengths(freqs: np.ndarray) -> np.ndarray:
    """Code length per symbol for the given frequency table (0 = unused).

    The two-queue method: leaves sorted by ``(freq, symbol)`` in one
    queue, merged nodes in creation order (their weights never decrease)
    in the other, and each merge takes the two lightest fronts, a leaf
    before a merged node on a tie.  That is exactly the merge order of a
    heap keyed ``(weight, symbol)`` for leaves and ``(weight, size +
    creation index)`` for merged nodes, so the lengths are too.
    """
    nz = np.flatnonzero(freqs)
    lengths = np.zeros(freqs.size, dtype=np.uint8)
    n = nz.size
    if n <= 1:
        lengths[nz] = 1
        return lengths
    leaves = nz[np.argsort(freqs[nz], kind="stable")]
    leaf_w = freqs[leaves].tolist()
    merged_w: list[int] = []
    # node ids: leaves 0..n-1 in queue order, merge k is node n + k
    parent = [0] * (2 * n - 2)
    i = j = 0
    for k in range(n, 2 * n - 1):
        w = 0
        for _ in (0, 1):
            if i < n and (j == k - n or leaf_w[i] <= merged_w[j]):
                w += leaf_w[i]
                parent[i] = k
                i += 1
            else:
                w += merged_w[j]
                parent[n + j] = k
                j += 1
        merged_w.append(w)
    # a merge's parent is a later merge: walk them root-first
    depth = [0] * (n - 1)
    for k in range(n - 3, -1, -1):
        depth[k] = depth[parent[n + k] - n] + 1
    lengths[leaves] = [depth[p - n] + 1 for p in parent[:n]]
    return lengths


@dataclass(frozen=True)
class HuffmanCode:
    """A canonical code: per-symbol bit ``lengths`` and ``codes``."""

    lengths: np.ndarray  # uint8, 0 for unused symbols
    codes: np.ndarray  # uint32, canonical MSB-first codes

    @property
    def alphabet_size(self) -> int:
        return self.lengths.size

    @property
    def max_length(self) -> int:
        return int(self.lengths.max(initial=0))

    _LEN_FIELD_BITS = 5  # enough for MAX_BITS == 16

    def to_bytes(self) -> bytes:
        """Serialize as alphabet size + 5-bit-packed per-symbol lengths.

        The dense packed form costs ``ceil(5·size/8)`` bytes — far below
        the per-used-symbol record format for typical alphabets, which
        matters because every compressed block/plane carries its tables.
        Memoized on the instance (immutable), so the per-frame cost with
        a context code cache is one dict/attribute lookup, not a packing
        pass.
        """
        cached = getattr(self, "_to_bytes_cache", None)
        if cached is None:
            from repro.compress.bitio import pack_values

            packed, _ = pack_values(
                self.lengths.astype(np.uint64),
                np.full(
                    self.lengths.size, self._LEN_FIELD_BITS, dtype=np.int64
                ),
            )
            cached = struct.pack("<I", self.lengths.size) + packed
            object.__setattr__(self, "_to_bytes_cache", cached)
        return cached

    @classmethod
    def from_bytes(cls, payload: bytes, offset: int = 0) -> tuple["HuffmanCode", int]:
        """Deserialize; returns the code and the offset past it."""
        if len(payload) < offset + 4:
            raise CodecError("huffman: truncated code table header")
        (size,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        if size > 65536:
            raise CodecError("huffman: implausible code table size")
        nbytes = (size * cls._LEN_FIELD_BITS + 7) // 8
        if len(payload) < offset + nbytes:
            raise CodecError("huffman: truncated code table body")
        buf = np.frombuffer(payload, dtype=np.uint8, count=nbytes, offset=offset)
        bits = np.unpackbits(buf)[: size * cls._LEN_FIELD_BITS]
        weights = 1 << np.arange(cls._LEN_FIELD_BITS - 1, -1, -1)
        lengths = (
            bits.reshape(size, cls._LEN_FIELD_BITS).astype(np.uint16) @ weights
        ).astype(np.uint8)
        if size and lengths.max(initial=0) > MAX_BITS:
            raise CodecError("huffman: invalid code length in table")
        return cls.from_lengths(lengths), offset + nbytes

    @classmethod
    def from_lengths(cls, lengths: np.ndarray) -> "HuffmanCode":
        """Assign canonical codes (shorter first, then symbol order).

        In that order a code, left-aligned to the longest length, is the
        sum of the window spans of the codes before it: one cumsum.  The
        lengths are over-subscribed iff the spans overrun the windows.
        """
        lengths = np.asarray(lengths, dtype=np.uint8)
        codes = np.zeros(lengths.size, dtype=np.uint32)
        order, spans, width = _canonical_order(lengths)
        starts = np.cumsum(spans) - spans
        if order.size and int(starts[-1] + spans[-1]) > 1 << width:
            raise CodecError("huffman: over-subscribed code lengths")
        codes[order] = starts // spans
        return cls(lengths=lengths, codes=codes)

    @property
    def nbytes(self) -> int:
        """Bytes this code holds once its decode table is built."""
        return self.lengths.nbytes + self.codes.nbytes + (4 << max(self.max_length, 1))

    def packed_decode_table(self) -> tuple[np.ndarray, int]:
        """``(symbol << 5 | length)`` per peeked window, plus the width.

        Memoized on the (immutable) instance; with
        :meth:`CodecContext.huffman_from_bytes` deduplication that is one
        build per *distinct* table across a whole time series.  Canonical
        codes tile the windows in ``(length, symbol)`` order, so the table
        is one ``np.repeat`` of the packed entries by their spans; windows
        past an incomplete code's last one pack to 0.
        """
        cached = getattr(self, "_packed_table_cache", None)
        if cached is None:
            global TABLE_BUILDS
            TABLE_BUILDS += 1
            order, spans, width = _canonical_order(self.lengths)
            packed = (order.astype(np.uint32) << np.uint32(5)) | self.lengths[order]
            lut = np.zeros(1 << width, dtype=np.uint32)
            lut[: spans.sum()] = np.repeat(packed, spans)
            cached = (lut, width)
            object.__setattr__(self, "_packed_table_cache", cached)
        return cached

    def decode_tables(self) -> tuple[np.ndarray, np.ndarray, int]:
        """``(symbol, length)`` lookup tables indexed by a peeked window,
        split out of :meth:`packed_decode_table` (only that one is kept)
        for the decoders that walk one symbol at a time."""
        lut, width = self.packed_decode_table()
        return lut >> np.uint32(5), lut & np.uint32(31), width

    def encode_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``(codes, lengths)`` emission LUTs indexed by symbol.

        ``codes`` is ``uint32`` and ``lengths`` ``int64`` (the dtypes the
        packing kernel consumes directly, so a symbol gather is the only
        work per emitted code word).  Memoized on the instance.
        """
        cached = getattr(self, "_encode_tables_cache", None)
        if cached is None:
            cached = (self.codes, self.lengths.astype(np.int64))
            object.__setattr__(self, "_encode_tables_cache", cached)
        return cached


def _canonical_order(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Used symbols in ``(length, symbol)`` order, the windows of the
    longest length (at least 1 bit) each one's code covers, and that
    length."""
    order = np.argsort(lengths, kind="stable")[lengths.size - np.count_nonzero(lengths):]
    ln = lengths[order].astype(np.int64)
    width = max(int(ln[-1]) if ln.size else 0, 1)
    return order, 1 << (width - ln), width


def build_code(freqs: np.ndarray, max_bits: int = MAX_BITS) -> HuffmanCode:
    """Build a canonical, length-limited code for ``freqs``.

    Length limiting flattens the frequency distribution (halving with a
    floor of 1) and rebuilds until the deepest code fits — a standard
    zlib-style fallback that costs at most a few percent of optimality.
    """
    freqs = np.asarray(freqs, dtype=np.int64).copy()
    if freqs.ndim != 1:
        raise ValueError("freqs must be 1-D")
    while True:
        lengths = _huffman_lengths(freqs)
        if lengths.max(initial=0) <= max_bits:
            return HuffmanCode.from_lengths(lengths)
        nz = freqs > 0
        freqs[nz] = (freqs[nz] + 1) >> 1


def encode_symbols(symbols: np.ndarray, code: HuffmanCode) -> tuple[bytes, int]:
    """Encode a symbol array; returns ``(payload, nbits)``."""
    symbols = np.asarray(symbols)
    if symbols.size and (
        symbols.min() < 0 or symbols.max() >= code.alphabet_size
    ):
        raise ValueError("symbol out of alphabet range")
    codes_lut, lens_lut = code.encode_tables()
    lens = lens_lut[symbols]
    if symbols.size and not lens.all():
        raise ValueError("symbol has no assigned code")
    return pack_values(codes_lut[symbols], lens)


def decode_symbols(
    payload: bytes, nbits: int, count: int, code: HuffmanCode
) -> np.ndarray:
    """Decode exactly ``count`` symbols from a packed payload."""
    if count == 0:
        return np.zeros(0, dtype=np.uint32)
    if count > nbits:  # every code word is at least one bit
        raise CodecError("huffman: symbol count exceeds bit count")
    bits = unpack_bits(payload, nbits)
    lut_sym, lut_len, width = code.decode_tables()
    windows = sliding_code_windows(bits, width)
    out = np.empty(count, dtype=np.uint32)
    pos = 0
    limit = nbits
    # Per-symbol loop: one table peek + one advance. Hot path — keep locals.
    win = windows
    lsym = lut_sym
    llen = lut_len
    for i in range(count):
        if pos >= limit:
            raise CodecError("huffman: bit stream exhausted")
        w = win[pos]
        ln = llen[w]
        if ln == 0:
            raise CodecError("huffman: invalid code word")
        out[i] = lsym[w]
        pos += ln
    if pos > limit:
        raise CodecError("huffman: bit stream overrun")
    return out


# -- interleaved lanes --------------------------------------------------------


def _lane_count(count: int, lanes: int | None) -> int:
    if lanes is not None:
        if not 1 <= lanes <= 255:
            raise ValueError("lanes must be in 1..255")
        return lanes
    # one lane per ~8 symbols up to the default, so tiny streams don't pay
    # per-lane header overhead for nothing
    return max(1, min(DEFAULT_LANES, (count + 7) // 8))


def interleave_entries(
    symbols: np.ndarray, code: HuffmanCode, lanes: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Lane-deal ``symbols`` into flat ``(value, bit-width)`` entry arrays.

    Returns ``(values, widths, lane_nbits, k, body_len)``: packing the
    entries MSB-first yields exactly the interleaved-lane *body* (each
    lane byte-aligned by a trailing zero-valued pad entry).  Split out of
    :func:`encode_interleaved` so a caller can concatenate the entries of
    several streams and pay for one packing pass — the JPEG encoder packs
    a plane's DC lanes, AC lanes and amplitude stream in one go, slicing
    the bodies back apart at their (byte-aligned) boundaries.  Symbols
    are assumed validated against ``code``.
    """
    n = symbols.size
    k = _lane_count(n, lanes)
    codes_lut, lens_lut = code.encode_tables()
    # Lane l gets symbols l, l+k, l+2k, ...  Viewing the (zero-padded)
    # symbol sequence as a (g, k) grid, lane l is column l, so the
    # lane-major entry layout is just the transposed grid plus one pad
    # column: everything below is whole-grid gathers and row reductions,
    # no per-symbol permutation vector.  Grid slots past the sequence end
    # (short lanes' tails) become width-0 entries, which contribute no
    # bits; they sit between a short lane's last symbol and its pad
    # entry, which is equally harmless.
    base, rem = divmod(n, k)
    g = base + (1 if rem else 0)  # grid columns per lane
    if rem:
        spad = np.zeros(g * k, dtype=symbols.dtype)
        spad[:n] = symbols
    else:
        spad = symbols
    sview = spad.reshape(g, k).T  # (k, g), no copy
    values = np.empty(k * (g + 1), dtype=np.uint32)
    widths = np.empty(k * (g + 1), dtype=np.int64)
    v2d = values.reshape(k, g + 1)
    w2d = widths.reshape(k, g + 1)
    v2d[:, :g] = codes_lut[sview]
    w2d[:, :g] = lens_lut[sview]
    if rem:
        # the padded tail slots of the short lanes carry nothing
        v2d[rem:, g - 1] = 0
        w2d[rem:, g - 1] = 0
    lane_nbits = w2d[:, :g].sum(axis=1)
    pads = (-lane_nbits) % 8
    v2d[:, g] = 0
    w2d[:, g] = pads
    body_len = int((lane_nbits + pads).sum()) >> 3
    return values, widths, lane_nbits, k, body_len


def interleave_header(lane_nbits: np.ndarray, k: int, body_len: int) -> bytes:
    """Header bytes for an interleaved-lane blob (see the layout below)."""
    size = 2 if int(lane_nbits.max(initial=0)) < 1 << 16 else 4
    return (
        # wire: interleave-k-size (one-sided byte-indexed decoder)
        struct.pack("<BB", k, size)
        + lane_nbits.astype(f"<u{size}").tobytes()
        + struct.pack("<I", body_len)
    )


def encode_interleaved(
    symbols: np.ndarray, code: HuffmanCode, lanes: int | None = None
) -> bytes:
    """Encode as a self-describing interleaved-lane blob.

    Symbol ``i`` goes to lane ``i % K``; each lane is packed separately and
    byte-aligned.  Layout::

        u8 K | u8 S | K x uS lane_nbits | u32 body_len | lane payloads

    where ``S`` (2 or 4) is the byte width of the per-lane bit counts —
    short streams (every lane under 64 Kibit, i.e. all of JPEG's) pay 2
    bytes per lane of header, only the huge BZIP block streams pay 4.
    ``count`` is *not* stored — the caller's container knows it, exactly
    as in the legacy layout.
    """
    symbols = np.asarray(symbols)
    n = symbols.size
    if n and (symbols.min() < 0 or symbols.max() >= code.alphabet_size):
        raise ValueError("symbol out of alphabet range")
    if n and not code.encode_tables()[1][symbols].all():
        raise ValueError("symbol has no assigned code")
    values, widths, lane_nbits, k, body_len = interleave_entries(
        symbols, code, lanes
    )
    body, _ = pack_values(values, widths)
    return interleave_header(lane_nbits, k, body_len) + body


def decode_interleaved(
    payload, offset: int, count: int, code: HuffmanCode
) -> tuple[np.ndarray, int]:
    """Decode a blob written by :func:`encode_interleaved`.

    Returns ``(symbols, offset_past_blob)``.  All lanes advance together:
    each loop iteration performs one vectorized table gather for every
    still-active lane, so the Python iteration count is
    ``ceil(count / K)`` instead of ``count``.
    """
    if len(payload) < offset + 2:
        raise CodecError("huffman: truncated interleave header")
    k = payload[offset]
    if k < 1:
        raise CodecError("huffman: bad lane count")
    entry = payload[offset + 1]
    if entry not in (2, 4):
        raise CodecError("huffman: bad lane header entry size")
    head_end = offset + 2 + entry * k + 4
    if len(payload) < head_end:
        raise CodecError("huffman: truncated interleave header")
    lane_nbits = np.frombuffer(
        payload, dtype=f"<u{entry}", count=k, offset=offset + 2
    ).astype(np.int64)
    (body_len,) = struct.unpack_from("<I", payload, head_end - 4)
    if len(payload) < head_end + body_len:
        raise CodecError("huffman: truncated interleave body")
    end = head_end + body_len

    lane_bytes = (lane_nbits + 7) >> 3
    if int(lane_bytes.sum()) != body_len:
        raise CodecError("huffman: interleave body length mismatch")
    if count == 0:
        if int(lane_nbits.sum()) != 0:
            raise CodecError("huffman: symbol count mismatch")
        return np.zeros(0, dtype=np.uint32), end
    if count > int(lane_nbits.sum()):  # every code word is at least one bit
        raise CodecError("huffman: symbol count exceeds bit count")

    body = np.frombuffer(payload, dtype=np.uint8, count=body_len, offset=head_end)
    bits = np.unpackbits(body)
    lut, width = code.packed_decode_table()
    windows = sliding_code_windows(bits, width)
    if windows.size == 0:
        raise CodecError("huffman: bit stream exhausted")

    lane_starts = 8 * np.concatenate(
        [[0], np.cumsum(lane_bytes[:-1])]
    ).astype(np.int64)
    pos = lane_starts.copy()
    ends = lane_starts + lane_nbits
    # Translate every window through the packed LUT up front; the lockstep
    # loop then gathers pre-decoded (symbol << 5 | length) entries straight
    # into rows of ``ent``, advancing via the low bits — three kernel
    # dispatches per iteration.  The loop body carries no validity checks:
    # a corrupt lane either stalls (length-0 entry) or walks off its
    # segment, and the ``take`` clamp plus the exact end-position equality
    # test afterwards catches every such case.
    lutw = lut[windows]
    full = count // k
    m = count - full * k
    ent = np.empty((full + (1 if m else 0), k), dtype=np.uint32)
    step = np.empty(k, dtype=np.uint32)
    mask = np.uint32(31)
    for i in range(full):
        row = ent[i]
        lutw.take(pos, mode="clip", out=row)
        np.bitwise_and(row, mask, out=step)
        pos += step
    if m:
        row = ent[full, :m]
        lutw.take(pos[:m], mode="clip", out=row)
        pos[:m] += row & mask
    if (pos != ends).any():
        raise CodecError("huffman: bit stream corrupt or truncated")
    ent >>= np.uint32(5)
    return ent.reshape(-1)[:count], end
