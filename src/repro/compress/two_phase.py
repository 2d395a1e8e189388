"""Two-phase compression: JPEG followed by a lossless pass.

The paper's key Table 1 finding: "using either LZO or BZIP to compress the
output of JPEG can result in additional compression which may lead to the
key reduction required for achieving the desired frame rates … We thus use
this two-phase compression approach in our display system."  The JPEG
payload still contains structure (Huffman tables, headers, correlated
payload bytes) that a general-purpose lossless pass can squeeze by ~10–20%.
"""

from __future__ import annotations

import numpy as np

from repro.compress.base import Codec, LosslessCodec, register_codec
from repro.compress.bzip import BZIPCodec
from repro.compress.context import CodecContext
from repro.compress.jpeg import JPEGCodec
from repro.compress.lzo import LZOCodec

__all__ = ["TwoPhaseCodec"]


class TwoPhaseCodec(Codec):
    """A lossy first stage whose payload is re-compressed losslessly.

    The registry exposes the paper's two combinations as ``"jpeg+lzo"``
    and ``"jpeg+bzip"``; arbitrary stages can be composed directly.
    :meth:`use_context` binds one
    :class:`~repro.compress.context.CodecContext` to every stage that
    supports one, so both phases reuse the same cached Huffman tables and
    scratch buffers across frames.
    """

    def __init__(self, first: Codec, second: LosslessCodec):
        if not second.lossless:
            raise ValueError("second stage must be lossless")
        self.first = first
        self.second = second
        self.name = f"{first.name}+{second.name}"
        self.lossless = first.lossless

    def use_context(self, context: CodecContext) -> None:
        """Share one codec context across both stages."""
        for stage in (self.first, self.second):
            if hasattr(stage, "use_context"):
                stage.use_context(context)

    def encode(self, data: bytes) -> bytes:
        return self.second.encode(self.first.encode(data))

    def decode(self, payload: bytes) -> bytes:
        return self.first.decode(self.second.decode(payload))

    def encode_image(self, image: np.ndarray) -> bytes:
        return self.second.encode(self.first.encode_image(image))

    def decode_image(self, payload: bytes) -> np.ndarray:
        return self.first.decode_image(self.second.decode(payload))


def _jpeg_lzo(quality: int = 75, level: int = 1, **kw) -> TwoPhaseCodec:
    return TwoPhaseCodec(JPEGCodec(quality=quality, **kw), LZOCodec(level=level))


def _jpeg_bzip(
    quality: int = 75, block_size: int = 512 * 1024, **kw
) -> TwoPhaseCodec:
    return TwoPhaseCodec(
        JPEGCodec(quality=quality, **kw), BZIPCodec(block_size=block_size)
    )


register_codec("jpeg+lzo", _jpeg_lzo)
register_codec("jpeg+bzip", _jpeg_bzip)
