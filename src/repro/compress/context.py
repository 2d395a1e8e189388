"""Persistent codec contexts: cross-frame caches for the codec fast paths.

The frames of a time series are compressed independently, but their side
tables repeat: a replay presents the same Huffman code tables pass after
pass, the JPEG quantization matrices are a pure function of the quality
knob, and every frame needs the same scratch arrays.  The paper's display
workstation must decompress at the arrival rate of the stream (§4.2,
Table 2), so rebuilding those structures per frame is waste on the
critical path.  A :class:`CodecContext` owns caches keyed on *content*,
never on frame identity:

- **Huffman decode tables** keyed by their serialized table bytes — two
  planes (or two frames) carrying byte-identical tables share one
  :class:`~repro.compress.huffman.HuffmanCode` instance, and therefore one
  packed decode LUT (memoized on the instance).  The cache is bounded by
  bytes, not entries: a 16-bit table's LUT is 256 KB, a typical JPEG
  table's a few KB.  The default budget holds a 64-frame replay cycle of
  128² frames several times over.
- **Quantization matrices** keyed by JPEG quality.
- **Scratch buffers** keyed by ``(tag, shape, dtype)`` and **bit sinks**
  keyed by tag — reusable work arrays for the entropy coders so
  steady-state encoding and decoding allocate nothing large.

The encoders build their Huffman codes straight from each plane's
frequencies: new frames rarely repeat a frequency table exactly, and a
build costs tens of microseconds.

Contexts are deliberately dumb: plain dicts with size caps and hit/build
counters (``stats``), safe to share across every codec of one connection.
Sharing a context across *threads* decoding concurrently is not supported;
give each decoding thread its own.

:func:`bound_codec` is the one way an owner (a display interface, a
viewer handle, a broker, an encode worker) gets its codecs: built once
per ``(name, quality)``, bound to the owner's context, kept in the
owner's dict.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compress.base import Codec, CodecError, get_codec

__all__ = ["CodecContext", "bound_codec"]

#: cap on the scratch buffers one context pools (FIFO eviction)
MAX_BUFFERS = 32


class CodecContext:
    """Reusable codec state shared across the frames of a stream.

    Parameters
    ----------
    max_code_bytes:
        Byte budget of the Huffman decode-table cache (FIFO eviction).
        An entry costs its table bytes, its length and code arrays and its
        packed decode LUT (:attr:`HuffmanCode.nbytes`); ``code_bytes`` is
        what the cache holds now.  A table bigger than the whole budget is
        decoded but not kept.
    """

    def __init__(self, max_code_bytes: int = 4 << 20):
        self.max_code_bytes = max_code_bytes
        self._codes: dict[bytes, object] = {}
        #: bytes held by ``_codes``' entries (keys, arrays and LUTs)
        self.code_bytes = 0
        self._quant: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._buffers: dict[tuple, np.ndarray] = {}
        self._sinks: dict[str, object] = {}
        self.stats = {
            "huffman_code_builds": 0,
            "huffman_code_hits": 0,
            "quant_builds": 0,
            "quant_hits": 0,
            "buffer_allocs": 0,
            "buffer_hits": 0,
        }

    # -- Huffman code tables ------------------------------------------------

    def huffman_from_bytes(self, payload, offset: int = 0):
        """Like :meth:`HuffmanCode.from_bytes`, but deduplicated.

        Returns ``(code, offset_past_table)``.  Identical serialized tables
        (the common case across the frames of a time series) resolve to one
        shared, LUT-memoized instance while the byte budget holds them.
        """
        from repro.compress.huffman import HuffmanCode

        if len(payload) < offset + 4:
            raise CodecError("huffman: truncated code table header")
        (size,) = struct.unpack_from("<I", payload, offset)
        if size > 65536:
            raise CodecError("huffman: implausible code table size")
        nbytes = (size * HuffmanCode._LEN_FIELD_BITS + 7) // 8
        end = offset + 4 + nbytes
        key = bytes(payload[offset:end])
        code = self._codes.get(key)
        if code is not None:
            self.stats["huffman_code_hits"] += 1
            return code, end
        code, parsed_end = HuffmanCode.from_bytes(payload, offset)
        if parsed_end != end:  # pragma: no cover - defensive
            raise CodecError("huffman: inconsistent table length")
        self.stats["huffman_code_builds"] += 1
        cost = len(key) + code.nbytes
        if cost <= self.max_code_bytes:
            while self.code_bytes + cost > self.max_code_bytes:
                old_key = next(iter(self._codes))
                self.code_bytes -= len(old_key) + self._codes.pop(old_key).nbytes
            self._codes[key] = code
            self.code_bytes += cost
        return code, end

    # -- quantization matrices ---------------------------------------------

    def quant_tables(self, quality: int) -> tuple[np.ndarray, np.ndarray]:
        """JPEG luma/chroma quantization matrices, cached per quality."""
        tables = self._quant.get(quality)
        if tables is not None:
            self.stats["quant_hits"] += 1
            return tables
        from repro.compress.dct import quant_tables

        tables = quant_tables(quality)
        self.stats["quant_builds"] += 1
        self._quant[quality] = tables
        return tables

    # -- scratch buffers ----------------------------------------------------

    def scratch(self, tag: str, shape: tuple, dtype) -> np.ndarray:
        """A reusable array for ``(tag, shape, dtype)``.

        Contents are arbitrary on return — callers that need zeros must
        ``fill(0)`` themselves.  The buffer stays owned by the context, so
        callers must not hand it to user code; copy anything that outlives
        the current decode call.
        """
        key = (tag, tuple(shape), np.dtype(dtype).str)
        buf = self._buffers.get(key)
        if buf is not None:
            self.stats["buffer_hits"] += 1
            return buf
        buf = np.empty(shape, dtype=dtype)
        self.stats["buffer_allocs"] += 1
        if len(self._buffers) >= MAX_BUFFERS:
            self._buffers.pop(next(iter(self._buffers)))
        self._buffers[key] = buf
        return buf

    def bitsink(self, tag: str):
        """A reusable :class:`~repro.compress.bitio.BitSink` for ``tag``.

        Returned cleared; the backing buffer persists across frames so
        steady-state encoding never re-grows it.  Same ownership rules as
        :meth:`scratch`.
        """
        from repro.compress.bitio import BitSink

        sink = self._sinks.get(tag)
        if sink is None:
            sink = BitSink()
            self._sinks[tag] = sink
        sink.clear()
        return sink

    def hit_ratio(self) -> float:
        """Fraction of lookups served from cache across the decode-table,
        quantization and scratch caches.

        1.0 means steady state (no table was rebuilt, no buffer
        reallocated); 0.0 on a fresh context.  Encoders build their codes
        uncached, so only decode-table lookups count on the Huffman side.
        The serving layer exports this per viewer session via
        ``ServeStats``, beside ``code_bytes`` (``decode_cache_bytes``).
        """
        hits = (
            self.stats["huffman_code_hits"]
            + self.stats["quant_hits"]
            + self.stats["buffer_hits"]
        )
        builds = (
            self.stats["huffman_code_builds"]
            + self.stats["quant_builds"]
            + self.stats["buffer_allocs"]
        )
        total = hits + builds
        return hits / total if total else 0.0

    def clear(self) -> None:
        """Drop every cached table and buffer (stats are kept)."""
        self._codes.clear()
        self.code_bytes = 0
        self._quant.clear()
        self._buffers.clear()
        self._sinks.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CodecContext codes={len(self._codes)} "
            f"quant={len(self._quant)} buffers={len(self._buffers)}>"
        )


def bound_codec(
    codecs: dict, context: CodecContext, name: str, quality: int | None = None
) -> Codec:
    """The codec for ``(name, quality)`` bound to ``context``, built once.

    ``codecs`` is the owner's memo, keyed by ``(name, quality)``; a miss
    instantiates the codec (``quality`` forwarded when set) and binds it
    through ``use_context``.  The owner keeps the dict, not the context:
    a codec already references its context, so a context holding its
    codecs would be a cycle only the cycle collector frees.
    """
    key = (name, quality)
    codec = codecs.get(key)
    if codec is None:
        codec = (
            get_codec(name) if quality is None
            else get_codec(name, quality=quality)
        )
        if hasattr(codec, "use_context"):
            codec.use_context(context)
        codecs[key] = codec
    return codec
