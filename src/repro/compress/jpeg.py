"""Baseline-JPEG-style lossy image codec, implemented from scratch.

The paper's workhorse: "When lossy compression is acceptable, JPEG is the
choice because of the excellent compression it can achieve."  This codec
follows the baseline JPEG structure — RGB→YCbCr, 4:2:0 chroma subsampling,
8×8 DCT, quality-scaled quantization, zigzag scan, DC prediction, AC
zero-run coding with ZRL/EOB, canonical Huffman entropy coding with
amplitude bits — in our own container format (it is not bit-compatible with
ITU T.81; see DESIGN.md §7).

The encoder writes stream version 2: per plane, the DC size symbols and
the AC run/size symbols are entropy-coded as *interleaved Huffman lanes*
(:func:`repro.compress.huffman.encode_interleaved`) and the amplitude
bits ride in a third raw bit stream.  Amplitude bit-lengths are implied by
the decoded symbols, so after the lane decode the amplitudes, DC
prediction, zero-run expansion, and coefficient placement are all single
vectorized passes — no per-token Python loop anywhere on that decode path.

The decoder dispatches on the header's version byte and also reads the
legacy version 1, which an older writer produced: DC/AC code words and
amplitude bits interleaved in one stream per plane, walked token by token
in Python.  Both versions decode to byte-identical images.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compress.base import Codec, CodecError, register_codec
from repro.compress.bitio import sliding_code_windows, unpack_bits
from repro.compress.color import (
    downsample_420,
    pad_to_multiple,
    rgb_to_ycbcr_planes,
    ycbcr_420_planes_to_rgb,
    ycbcr_planes_to_rgb,
)
from repro.compress.context import CodecContext
from repro.compress.dct import (
    BLOCK,
    blockize_into,
    dct2_blocks,
    dct2_strips,
    partial_idct_blocks,
    unblockize,
    zigzag_indices,
)
from repro.compress.huffman import (
    HuffmanCode,
    build_code,
    decode_interleaved,
    interleave_entries,
    interleave_header,
)

__all__ = ["JPEGCodec"]

_MAGIC = b"RJPG"
_V1 = 1
_V2 = 2
_ZRL = 0xF0  # AC symbol: run of 16 zeros
_EOB = 0x00  # AC symbol: end of block
_WINDOW = 16  # decoder bit-peek width (>= max code length and amp size)

_ZIGZAG = zigzag_indices()
_UNZIGZAG = np.argsort(_ZIGZAG)


_POW2 = 1 << np.arange(32, dtype=np.int64)

# Grow-only constant widths array: metadata bytes enter the bit sink as
# width-8 entries, and slicing a shared constant beats allocating a fresh
# np.full per header section.
_EIGHTS = np.full(1 << 12, 8, dtype=np.int64)


def _meta_entries(raw: bytes) -> tuple[np.ndarray, np.ndarray]:
    """``(values, widths)`` bit-sink entries for literal metadata bytes."""
    global _EIGHTS
    if _EIGHTS.size < len(raw):
        _EIGHTS = np.full(
            max(len(raw), 2 * _EIGHTS.size), 8, dtype=np.int64
        )
    return np.frombuffer(raw, dtype=np.uint8), _EIGHTS[: len(raw)]


#: grow-only 0, 1, 2, ... shared by the block-index arithmetic below
_IOTA = np.arange(1 << 12, dtype=np.int64)


def _iota(k: int) -> np.ndarray:
    global _IOTA
    if _IOTA.size < k:
        _IOTA = np.arange(max(k, 2 * _IOTA.size), dtype=np.int64)
    return _IOTA[:k]


def _sizes(values: np.ndarray) -> np.ndarray:
    """JPEG size category: bits needed for |v| (0 for v == 0).

    ``bit_length(|v|)`` via binary search over a powers-of-two table —
    exact integer arithmetic (equal to ``ceil(log2(|v| + 1))``) with no
    float round-trip.
    """
    return np.searchsorted(_POW2, np.abs(values), side="right").astype(
        np.int64
    )


def _amplitude_bits(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """One's-complement-style amplitude encoding of signed values."""
    return np.where(values >= 0, values, values + (1 << sizes) - 1).astype(
        np.uint32
    )


def _amplitude_decode(amp: int, size: int) -> int:
    if size == 0:
        return 0
    if amp < (1 << (size - 1)):
        return amp - (1 << size) + 1
    return amp


def _amplitude_decode_vec(amp: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_amplitude_decode` (``sizes == 0`` maps to 0)."""
    amp = amp.astype(np.int64)
    sizes = sizes.astype(np.int64)
    half = np.left_shift(1, np.maximum(sizes, 1) - 1)
    neg = amp < half
    vals = np.where(neg, amp - np.left_shift(1, sizes) + 1, amp)
    return np.where(sizes == 0, 0, vals)


def _extract_amplitudes(
    payload, nbits: int, sizes: np.ndarray
) -> np.ndarray:
    """Pull every variable-length amplitude field out of one raw bit stream.

    ``sizes[i]`` bits per field, concatenated MSB-first — the inverse of
    ``pack_values(amps, sizes)``.  Each field (at most 16 bits, so spanning
    at most 3 bytes) is sliced out of a big-endian 32-bit word gathered at
    its start byte — one vectorized pass over the tokens, never over the
    individual bits.
    """
    sizes = sizes.astype(np.int64)
    ends = np.cumsum(sizes)
    total = int(ends[-1]) if sizes.size else 0
    if total != nbits:
        raise CodecError("jpeg: amplitude bit count mismatch")
    if total == 0:
        return np.zeros(sizes.size, dtype=np.int64)
    buf = np.frombuffer(payload, dtype=np.uint8)
    if buf.size * 8 < nbits:
        raise CodecError("jpeg: amplitude bit count exceeds payload")
    padded = np.zeros(buf.size + 3, dtype=np.uint32)
    padded[: buf.size] = buf
    words = (
        (padded[:-3] << np.uint32(24))
        | (padded[1:-2] << np.uint32(16))
        | (padded[2:-1] << np.uint32(8))
        | padded[3:]
    )
    starts = ends - sizes
    raw = words.take(starts >> 3, mode="clip")
    raw >>= (np.uint32(32) - (starts & 7) - sizes).astype(np.uint32)
    raw &= ((np.uint32(1) << sizes.astype(np.uint32)) - np.uint32(1)).astype(
        np.uint32
    )
    return raw.astype(np.int64)


class JPEGCodec(Codec):
    """Baseline-style JPEG codec.

    Parameters
    ----------
    quality:
        1..100, IJG convention (50 = reference tables; the paper's
        visually-lossless regime is ~75–90).
    subsample:
        4:2:0 chroma subsampling on/off (on by default, as in baseline
        encoders).
    fast_decode:
        0 = exact decode; 1/2/3 = libjpeg-style scaled decoding with a
        4x4 / 2x2 / 1x1 inverse DCT — "the decoder can also trade off
        decoding speed against image quality, by using fast but
        inaccurate approximations to the required calculations" (§4.2).
        Output keeps the full image dimensions (nearest upsample), so a
        weak display client can cheaply keep up with the frame stream.
    lanes:
        Explicit lane count ``K`` for the interleaved symbol streams
        (1..255); ``None`` (default) sizes lanes from the stream length
        exactly as before.  Any value decodes everywhere — ``K`` travels
        in the blob header.

    The instance owns a private
    :class:`~repro.compress.context.CodecContext` until
    :meth:`use_context` binds a shared one, so tables and scratch persist
    across the frames it encodes or decodes either way.
    """

    name = "jpeg"
    lossless = False

    def __init__(
        self,
        quality: int = 75,
        subsample: bool = True,
        fast_decode: int = 0,
        lanes: int | None = None,
    ):
        if fast_decode not in (0, 1, 2, 3):
            raise ValueError("fast_decode must be 0, 1, 2, or 3")
        if lanes is not None and not 1 <= lanes <= 255:
            raise ValueError("lanes must be in 1..255")
        self.quality = quality
        self.subsample = subsample
        self.fast_decode = fast_decode
        self.lanes = lanes
        self._ctx = CodecContext()
        self._luma_q, self._chroma_q = self._ctx.quant_tables(quality)
        # Frame-geometry-keyed encode tables (strip->scan maps, tiled
        # reciprocal quant rows).  Pure functions of (dims, quality), so
        # they survive use_context() and never need invalidation.
        self._geom_cache: dict[tuple, np.ndarray] = {}

    def use_context(self, context: CodecContext) -> None:
        """Adopt a shared cross-codec context (e.g. one per connection)."""
        self._ctx = context
        self._luma_q, self._chroma_q = context.quant_tables(self.quality)

    @property
    def _idct_points(self) -> int:
        return BLOCK >> self.fast_decode

    # The byte interface is intentionally unsupported: JPEG is meaningful
    # only on images.  The display daemon uses encode_image/decode_image.
    def encode(self, data: bytes) -> bytes:
        raise CodecError("jpeg: byte-stream interface unsupported; use encode_image")

    def decode(self, payload: bytes) -> bytes:
        raise CodecError("jpeg: byte-stream interface unsupported; use decode_image")

    # -- encoding ----------------------------------------------------------

    def encode_image(self, image: np.ndarray) -> bytes:
        arr = np.ascontiguousarray(image)
        if arr.dtype != np.uint8:
            raise CodecError("jpeg: image must be uint8")
        if arr.ndim == 3 and arr.shape[2] == 1:
            arr = arr[..., 0]
        gray = arr.ndim == 2
        if not gray and (arr.ndim != 3 or arr.shape[2] != 3):
            raise CodecError(f"jpeg: bad image shape {arr.shape}")

        h, w = arr.shape[:2]
        out = [
            _MAGIC,
            struct.pack(
                "<BIIBBB",
                _V2,
                h,
                w,
                1 if gray else 3,
                self.quality,
                1 if self.subsample else 0,
            ),
        ]
        ctx = self._ctx
        if gray:
            planes = [arr.astype(np.float32)]
            qts = [self._luma_q]
        else:
            y, cb, cr = rgb_to_ycbcr_planes(
                arr,
                out=ctx.scratch("enc_ycc", (3, h, w), np.float32),
                tmp=ctx.scratch("enc_ycc_tmp", (4, h, w), np.float32),
            )
            if self.subsample:
                ch, cw = (h + 1) // 2, (w + 1) // 2
                cb = downsample_420(
                    cb, out=ctx.scratch("enc_cb", (ch, cw), np.float32)
                )
                cr = downsample_420(
                    cr, out=ctx.scratch("enc_cr", (ch, cw), np.float32)
                )
            planes = [y, cb, cr]
            qts = [self._luma_q, self._chroma_q, self._chroma_q]

        # Level shift → strip-layout DCT → quantize, every plane in slices
        # of one flat coefficient buffer.  The per-block arithmetic is
        # identical to a blockize/batched-matmul chain, but blocks never
        # leave plane layout: the level shift doubles as the copy into the
        # scratch buffer, both DCT passes are plain GEMMs over strip
        # views (see dct2_strips), and quantization broadcasts the table
        # over the (bh, 8, bw, 8) view.  Only the per-plane entropy
        # streams are separated afterwards.
        padded = [pad_to_multiple(p, BLOCK) for p in planes]
        dims = [(p.shape[0] // BLOCK, p.shape[1] // BLOCK) for p in padded]
        ns = [bh * bw for bh, bw in dims]
        total = sum(ns)
        nblk = BLOCK * BLOCK
        buf = ctx.scratch("enc_coeffs", (total * nblk,), np.float32)
        tmp = ctx.scratch("enc_dct_tmp", (total * nblk,), np.float32)
        o = 0
        for p, (bh, bw), nn, qt in zip(padded, dims, ns, qts):
            h8, w8 = bh * BLOCK, bw * BLOCK
            pb = buf[o : o + nn * nblk].reshape(h8, w8)
            pt = tmp[o : o + nn * nblk].reshape(h8, w8)
            np.subtract(p, np.float32(128.0), out=pb)
            dct2_strips(pb, out=pb, tmp=pt)
            # multiply by the reciprocal table tiled across one strip row:
            # a whole-plane float divide is measurably slower than the
            # multiply, and the (8, w8) tile keeps the broadcast's inner
            # axis contiguous where the (1, 8, 1, 8) table view forces an
            # 8-element inner loop.
            q3 = pb.reshape(bh, BLOCK, w8)
            np.multiply(
                q3, self._quant_tile(qt is self._luma_q, qt, bw)[None], out=q3
            )
            o += nn * nblk
        np.rint(buf, out=buf)

        vparts: list[np.ndarray] = []
        wparts: list[np.ndarray] = []
        self._collect_planes_v2(buf, dims, vparts, wparts)
        out.append(self._pack_frame(vparts, wparts))
        return b"".join(out)

    def _pack_frame(
        self, vparts: list[np.ndarray], wparts: list[np.ndarray]
    ) -> bytes:
        """Pack every collected v2 plane in one bit-sink pass.

        :meth:`_collect_plane_v2` ends each plane (and each section
        within it) on a byte boundary, so concatenating all entries and
        expanding them in a single pass produces exactly the bytes the
        per-plane joins would.
        """
        sink = self._ctx.bitsink("jpeg_frame")
        sink.write(np.concatenate(vparts), np.concatenate(wparts))
        buf, _ = sink.payload()
        return buf

    def _quant_tile(self, luma: bool, qt: np.ndarray, bw: int) -> np.ndarray:
        """Reciprocal quant table tiled to one strip row, ``(8, bw * 8)``."""
        key = ("qtile", luma, bw)
        tile = self._geom_cache.get(key)
        if tile is None:
            tile = np.tile(np.float32(1.0) / qt, (1, bw))
            self._geom_cache[key] = tile
        return tile

    def _scan_map(
        self, dims: list[tuple[int, int]], ns: list[int], offs: np.ndarray
    ) -> np.ndarray:
        """Flat strip-layout index → global scan position, all planes.

        Entry ``f`` of the concatenated coefficient stack maps to
        ``block_index * 64 + zigzag_position`` of that coefficient.  A
        pure function of the block geometry, so successive frames of one
        stream gather through the same cached table instead of redoing
        the divmod/zigzag arithmetic per frame.
        """
        key = tuple(dims)
        m = self._geom_cache.get(key)
        if m is None:
            parts = []
            for p, (bh, bw) in enumerate(dims):
                w8 = bw * BLOCK
                f = _iota(ns[p] * 64)
                r = f // w8
                c = f - r * w8
                blk = (r >> 3) * bw + (c >> 3)
                natp = ((r & 7) << 3) | (c & 7)
                parts.append(((offs[p] + blk) << 6) + _UNZIGZAG[natp])
            m = np.concatenate(parts)
            self._geom_cache[key] = m
        return m

    def _collect_planes_v2(
        self,
        buf: np.ndarray,
        dims: list[tuple[int, int]],
        vparts: list[np.ndarray],
        wparts: list[np.ndarray],
    ) -> None:
        """Direct vectorized v2 encode of every plane in one global pass.

        The v2 container separates DC symbols, AC symbols and amplitude
        bits, so the three streams are constructed directly: value/ZRL/EOB
        symbol positions are computed with cumulative sums over the
        nonzero coefficients and scattered into one flat symbol array.

        ``buf`` holds every plane's quantized coefficients back to back
        in *strip layout* (``dims`` gives each plane's block grid; plane
        element ``[i*8+y, j*8+x]`` is coefficient ``(y, x)`` of block
        ``(i, j)`` — see :func:`~repro.compress.dct.dct2_strips`).
        Tokenization runs once over the whole stack — one nonzero scan,
        one scan-order sort, one run/size pass — because every quantity
        is per-block and block indices never cross plane boundaries;
        only DC prediction needs a fix-up (it restarts at each plane's
        first block).  Per-plane symbol and amplitude streams fall out
        as slices at the plane block boundaries, and only the per-plane
        Huffman tables, lane interleave and container metadata remain in
        the small per-plane loop below.  Only the sparse nonzeros are
        mapped from strip position to zigzag scan position (and argsorted
        into scan order — positions are unique, so the unstable sort is
        deterministic), which skips the dense blockize + 64-wide zigzag
        ``take`` over the whole coefficient tensor entirely.
        """
        ns = [bh * bw for bh, bw in dims]
        total = sum(ns)
        offs = np.cumsum([0] + ns)
        # DC coefficients live at plane position (i*8, j*8) in strip
        # layout: gather them per plane through a strided view, then zero
        # them in place (buf is context-owned scratch, consumed by this
        # pass) so the flat nonzero scan below sees only AC coefficients.
        dc = np.empty(total, dtype=np.int64)
        o = 0
        for p, (bh, bw) in enumerate(dims):
            pb = buf[o : o + ns[p] * 64].reshape(bh * BLOCK, bw * BLOCK)
            dcv = pb[::BLOCK, ::BLOCK]
            np.copyto(
                dc[offs[p] : offs[p + 1]].reshape(bh, bw),
                dcv,
                casting="unsafe",
            )
            dcv[...] = 0.0
            o += ns[p] * 64
        # np.diff(dc, prepend=0) minus its Python plumbing
        diffs = np.empty(total, dtype=np.int64)
        diffs[0] = dc[0]
        np.subtract(dc[1:], dc[:-1], out=diffs[1:])
        for o in offs[1:-1]:
            diffs[o] = dc[o]  # DC prediction restarts on each plane
        dc_sizes = _sizes(diffs)

        # AC nonzeros via one contiguous flat scan over all planes.  The
        # float comparison goes through a bool scratch first: nonzero on
        # a bool array takes a fast path that nonzero-on-float misses by
        # an order of magnitude.
        nzmask = self._ctx.scratch("enc_nzmask", (buf.size,), np.bool_)
        np.not_equal(buf, 0, out=nzmask)
        idx = np.flatnonzero(nzmask)
        # Map each flat strip-layout index to its global scan position
        # (block_index * 64 + zigzag position): one sparse gather through
        # the geometry-cached translation table.
        pos = self._scan_map(dims, ns, offs)[idx]
        order = np.argsort(pos)
        spos = pos[order]
        nzb = spos >> 6
        nzp = (spos & 63) - 1
        vals = buf[idx].astype(np.int64)[order]
        # zero-run before each nonzero, within its block
        prev_pos = np.full(nzb.size, -1, dtype=np.int64)
        if nzb.size > 1:
            same = nzb[1:] == nzb[:-1]
            prev_pos[1:] = np.where(same, nzp[:-1], -1)
        run = nzp - prev_pos - 1
        nzrl = run >> 4  # ZRL (16-zero) tokens preceding the value token
        rem = run & 0xF
        val_sizes = _sizes(vals)
        if val_sizes.size and val_sizes.max() > 15:
            raise CodecError("jpeg: AC coefficient exceeds amplitude range")

        # AC stream positions: per nonzero, its ZRLs then its value token;
        # one EOB closes each block.  A nonzero's value token sits after
        # all tokens of earlier nonzeros (cumsum), its own ZRLs, and one
        # EOB per earlier block; block b's EOB ends its token span.
        tok = nzrl + 1
        csum = np.cumsum(tok)
        # ends[b] = tokens of all nonzeros in blocks <= b, plus one EOB per
        # block <= b.  nzb is sorted, so the first part is csum at the last
        # nonzero belonging to a block <= b — a searchsorted, which beats
        # the bincount(weights=...)/cumsum chain (weighted bincount
        # accumulates in float64).
        ends = np.searchsorted(nzb, _iota(total), side="right")
        if nzb.size:
            csum0 = np.empty(csum.size + 1, dtype=np.int64)
            csum0[0] = 0
            csum0[1:] = csum
            ends = csum0[ends]
        ends += _iota(total + 1)[1:]
        ac_syms = np.full(int(ends[-1]), _ZRL, dtype=np.int64)
        if nzb.size:
            ac_syms[csum - 1 + nzb] = (rem << 4) | val_sizes
        ac_syms[ends - 1] = _EOB

        # Whole-stack amplitude streams; per-plane slices come below.
        damp = _amplitude_bits(diffs, dc_sizes)
        vamp = _amplitude_bits(vals, val_sizes)
        # nonzero-stream boundaries per plane (nzb is sorted)
        vbound = np.searchsorted(nzb, offs, side="left")

        # Each plane's container — headers, Huffman tables, DC lanes,
        # AC lanes and the raw amplitude stream (DC diffs then AC values)
        # — is emitted as one (value, width) entry sequence: metadata
        # bytes ride along as width-8 entries between the code entries.
        # Every lane is pad-aligned by interleave_entries and the
        # amplitude section gets an explicit final pad entry, so each
        # section starts (and each plane ends) on a byte boundary, which
        # is what lets encode_image pack all planes in ONE expand/packbits
        # pass.  (No alphabet validation here: both codes were just built
        # from these very symbols' frequencies, so every symbol has a
        # code by construction.)
        tstart = 0
        for p, (bh, bw) in enumerate(dims):
            lo, hi = int(offs[p]), int(offs[p + 1])
            tend = int(ends[hi - 1])
            vlo, vhi = int(vbound[p]), int(vbound[p + 1])
            dsz = dc_sizes[lo:hi]
            vsz = val_sizes[vlo:vhi]
            ac_p = ac_syms[tstart:tend]
            dc_code = build_code(np.bincount(dsz, minlength=16))
            ac_code = build_code(np.bincount(ac_p, minlength=256))
            dv, dw, dnb, dk, dlen = interleave_entries(
                dsz, dc_code, self.lanes
            )
            av, aw, anb, ak, alen = interleave_entries(
                ac_p, ac_code, self.lanes
            )
            amp_nbits = int(dsz.sum() + vsz.sum())
            pad = (-amp_nbits) % 8
            amp_len = (amp_nbits + pad) >> 3
            hv, hw = _meta_entries(
                b"".join(
                    [
                        struct.pack("<III", bh, bw, tend - tstart),
                        dc_code.to_bytes(),
                        ac_code.to_bytes(),
                        interleave_header(dnb, dk, dlen),
                    ]
                )
            )
            mv, mw = _meta_entries(interleave_header(anb, ak, alen))
            av2, aw2 = _meta_entries(struct.pack("<QI", amp_nbits, amp_len))
            vparts.extend(
                [
                    hv,
                    dv,
                    mv,
                    av,
                    av2,
                    damp[lo:hi],
                    vamp[vlo:vhi],
                    np.zeros(1, dtype=np.uint32),
                ]
            )
            wparts.extend(
                [hw, dw, mw, aw, aw2, dsz, vsz, np.asarray([pad], np.int64)]
            )
            tstart = tend

    # -- decoding ----------------------------------------------------------

    def decode_image(self, payload: bytes) -> np.ndarray:
        if len(payload) < 16 or payload[:4] != _MAGIC:
            raise CodecError("jpeg: bad or truncated header")
        version, h, w, channels, quality, subsample = struct.unpack_from(
            "<BIIBBB", payload, 4
        )
        if version not in (_V1, _V2):
            raise CodecError(f"jpeg: unsupported version {version}")
        if not (1 <= h <= 65536 and 1 <= w <= 65536):
            raise CodecError(f"jpeg: implausible image dimensions {h}x{w}")
        if channels not in (1, 3):
            raise CodecError(f"jpeg: bad channel count {channels}")
        if not 1 <= quality <= 100:
            raise CodecError(f"jpeg: bad quality field {quality}")
        luma_q, chroma_q = self._ctx.quant_tables(quality)
        offset = 4 + 12
        planes = []
        # a plane's block grid can never exceed the padded image grid
        max_blocks = ((h + 8) // 8 + 1) * ((w + 8) // 8 + 1)
        qtables = [luma_q] + [chroma_q, chroma_q][: max(channels - 1, 0)]
        for qtable in qtables[:channels]:
            plane, offset = self._decode_plane(
                payload, offset, qtable, max_blocks, version
            )
            planes.append(plane)

        if channels == 1:
            return np.clip(np.rint(planes[0][:h, :w]), 0, 255).astype(np.uint8)
        y = planes[0][:h, :w]
        if subsample:
            return ycbcr_420_planes_to_rgb(y, planes[1], planes[2])
        return ycbcr_planes_to_rgb(y, planes[1][:h, :w], planes[2][:h, :w])

    def _decode_plane(
        self,
        payload: bytes,
        offset: int,
        qtable: np.ndarray,
        max_blocks: int,
        version: int = _V1,
    ) -> tuple[np.ndarray, int]:
        if version == _V2:
            return self._decode_plane_v2(payload, offset, qtable, max_blocks)
        if offset + 16 > len(payload):
            raise CodecError("jpeg: truncated plane header")
        # wire: jpeg-v1-plane (one-sided: v1 is read, no longer written)
        bh, bw, nbits = struct.unpack_from("<IIQ", payload, offset)
        offset += 16
        if bh < 1 or bw < 1 or bh * bw > max_blocks:
            raise CodecError(f"jpeg: implausible block grid {bh}x{bw}")
        dc_code, offset = self._ctx.huffman_from_bytes(payload, offset)
        ac_code, offset = self._ctx.huffman_from_bytes(payload, offset)
        if offset + 4 > len(payload):
            raise CodecError("jpeg: truncated plane payload length")
        (plen,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        if offset + plen > len(payload):
            raise CodecError("jpeg: truncated plane payload")
        if nbits > 8 * plen:
            raise CodecError("jpeg: bit count exceeds payload size")

        nblocks = bh * bw
        if 2 * nblocks > nbits:
            # every block holds at least a DC code word and an EOB
            raise CodecError("jpeg: block count exceeds bit count")
        zz = self._entropy_decode(
            payload[offset : offset + plen], int(nbits), nblocks, dc_code, ac_code
        )
        offset += plen
        return self._plane_from_zz(zz, bh, bw, qtable), offset

    def _plane_from_zz(
        self, zz: np.ndarray, bh: int, bw: int, qtable: np.ndarray
    ) -> np.ndarray:
        quant = zz[:, _UNZIGZAG].reshape(-1, BLOCK, BLOCK).astype(np.float32)
        quant *= qtable
        # the +128 level shift, folded into the DC coefficient (128 * 8 for
        # the orthonormal 8-point basis; the k-point rescale preserves it)
        quant[:, 0, 0] += 1024.0
        return self._plane_from_blocks(quant, bh, bw)

    def _plane_from_blocks(
        self, quant: np.ndarray, bh: int, bw: int
    ) -> np.ndarray:
        """Inverse-transform dequantized ``(n, 8, 8)`` blocks to a plane."""
        k = self._idct_points
        blocks = partial_idct_blocks(quant, k)
        if k == BLOCK:
            return unblockize(blocks, bh, bw)
        reduced = (
            blocks.reshape(bh, bw, k, k).swapaxes(1, 2).reshape(bh * k, bw * k)
        )
        factor = BLOCK // k
        return np.repeat(np.repeat(reduced, factor, axis=0), factor, axis=1)

    def _decode_plane_v2(
        self, payload: bytes, offset: int, qtable: np.ndarray, max_blocks: int
    ) -> tuple[np.ndarray, int]:
        if offset + 12 > len(payload):
            raise CodecError("jpeg: truncated plane header")
        bh, bw, n_ac = struct.unpack_from("<III", payload, offset)
        offset += 12
        if bh < 1 or bw < 1 or bh * bw > max_blocks:
            raise CodecError(f"jpeg: implausible block grid {bh}x{bw}")
        nblocks = bh * bw
        if n_ac < nblocks or n_ac > 65 * nblocks:
            # every block carries at least an EOB and at most 64 tokens + EOB
            raise CodecError("jpeg: implausible AC token count")
        dc_code, offset = self._ctx.huffman_from_bytes(payload, offset)
        ac_code, offset = self._ctx.huffman_from_bytes(payload, offset)
        dc_syms, offset = decode_interleaved(payload, offset, nblocks, dc_code)
        ac_syms, offset = decode_interleaved(payload, offset, n_ac, ac_code)
        if offset + 12 > len(payload):
            raise CodecError("jpeg: truncated amplitude header")
        amp_nbits, amp_len = struct.unpack_from("<QI", payload, offset)
        offset += 12
        if offset + amp_len > len(payload):
            raise CodecError("jpeg: truncated amplitude payload")
        if amp_nbits > 8 * amp_len:
            raise CodecError("jpeg: amplitude bit count exceeds payload")

        dc_sizes = dc_syms.astype(np.int64)
        if dc_sizes.size and dc_sizes.max() > _WINDOW:
            raise CodecError("jpeg: DC size category out of range")
        is_eob = ac_syms == _EOB
        is_zrl = ac_syms == _ZRL
        is_val = ~(is_eob | is_zrl)
        ac_run = np.where(is_val, ac_syms >> 4, 0).astype(np.int64)
        ac_sizes = np.where(is_val, ac_syms & 0xF, 0).astype(np.int64)

        sizes = np.concatenate([dc_sizes, ac_sizes])
        amps = _extract_amplitudes(
            payload[offset : offset + amp_len], int(amp_nbits), sizes
        )
        offset += amp_len
        vals = _amplitude_decode_vec(amps, sizes)

        if int(is_eob.sum()) != nblocks or (n_ac and not is_eob[-1]):
            raise CodecError("jpeg: block terminator count mismatch")
        # block id of each AC token = EOBs seen so far (exclusive scan)
        block_id = np.cumsum(is_eob) - is_eob
        # zigzag advance per token; EOBs advance nothing
        adv = np.where(is_zrl, 16, ac_run + 1)
        adv[is_eob] = 0
        cs = np.cumsum(adv)
        excl = cs - adv
        first = np.flatnonzero(
            np.concatenate([[True], block_id[1:] != block_id[:-1]])
        )
        base = excl[first]  # every block has >= 1 token (its EOB)
        rel = excl - base[block_id]
        k = 1 + rel + ac_run
        if is_zrl.any() and (1 + rel[is_zrl] + 16).max() > 63:
            raise CodecError("jpeg: zero run past end of block")
        if is_val.any() and k[is_val].max() > 63:
            raise CodecError("jpeg: AC coefficient index overflow")
        # Scatter dequantized coefficients straight into natural-order
        # float32 blocks: only nonzero tokens are touched, so the unzigzag
        # gather and the full-plane dequant multiply both disappear.
        qflat = qtable.reshape(-1)
        blocks = self._ctx.scratch("blocks", (nblocks, 64), np.float32)
        blocks.fill(0.0)
        dc = np.cumsum(vals[:nblocks]).astype(np.float32)
        dc *= qflat[0]
        # +128 level shift folded into the DC coefficient (128 * 8)
        dc += 1024.0
        blocks[:, 0] = dc
        if is_val.any():
            nat = _ZIGZAG[k[is_val]]
            blocks.reshape(-1)[block_id[is_val] * 64 + nat] = (
                vals[nblocks:][is_val].astype(np.float32) * qflat[nat]
            )
        plane = self._plane_from_blocks(
            blocks.reshape(-1, BLOCK, BLOCK), bh, bw
        )
        return plane, offset

    @staticmethod
    def _entropy_decode(
        payload: bytes,
        nbits: int,
        nblocks: int,
        dc_code: HuffmanCode,
        ac_code: HuffmanCode,
    ) -> np.ndarray:
        bits = unpack_bits(payload, nbits)
        windows = sliding_code_windows(bits, _WINDOW)
        dc_sym, dc_len, dc_width = dc_code.decode_tables()
        ac_sym, ac_len, ac_width = ac_code.decode_tables()
        dc_shift = _WINDOW - dc_width
        ac_shift = _WINDOW - ac_width

        zz = np.zeros((nblocks, 64), dtype=np.int64)
        pos = 0
        prev_dc = 0
        win = windows
        for b in range(nblocks):
            if pos >= nbits:
                raise CodecError("jpeg: bit stream exhausted (DC)")
            # DC: size category, then amplitude bits
            wv = int(win[pos]) >> dc_shift
            ln = int(dc_len[wv])
            if ln == 0:
                raise CodecError("jpeg: invalid DC code")
            size = int(dc_sym[wv])
            pos += ln
            if size:
                if pos >= nbits:
                    raise CodecError("jpeg: bit stream exhausted (DC amp)")
                amp = int(win[pos]) >> (_WINDOW - size)
                pos += size
            else:
                amp = 0
            prev_dc += _amplitude_decode(amp, size)
            zz[b, 0] = prev_dc
            # AC: run/size tokens until the (always-present) EOB symbol
            k = 1
            while True:
                if pos >= nbits:
                    raise CodecError("jpeg: bit stream exhausted (AC)")
                wv = int(win[pos]) >> ac_shift
                ln = int(ac_len[wv])
                if ln == 0:
                    raise CodecError("jpeg: invalid AC code")
                sym = int(ac_sym[wv])
                pos += ln
                if sym == _EOB:
                    break
                if sym == _ZRL:
                    k += 16
                    if k > 63:
                        raise CodecError("jpeg: zero run past end of block")
                    continue
                run = sym >> 4
                size = sym & 0xF
                k += run
                if k > 63:
                    raise CodecError("jpeg: AC coefficient index overflow")
                if size:
                    if pos >= nbits:
                        raise CodecError("jpeg: bit stream exhausted (AC amp)")
                    amp = int(win[pos]) >> (_WINDOW - size)
                    pos += size
                    zz[b, k] = _amplitude_decode(amp, size)
                k += 1
        if pos > nbits:
            raise CodecError("jpeg: bit stream overrun")
        return zz


register_codec("jpeg", lambda **kw: JPEGCodec(**kw))
