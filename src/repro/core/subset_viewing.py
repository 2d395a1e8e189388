"""Client-side rendering from reduced volume data — the other §7.1 mode.

"Instead of sending a single frame for each time step, 'compressed'
subset data can be sent.  This subset data can be either a reduced
version of the data, or a collection of pre-rendered images…"

This module implements the first option (:mod:`repro.render.ibr` is the
second): the server quantizes and downsamples a time step, compresses it
losslessly, and ships it once; a client with "some minimum graphics
capability" then renders *any* view locally with the library's own ray
caster — unlimited interaction for one upload, at reduced-data fidelity.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compress import Codec, CodecError, get_codec
from repro.render.camera import Camera
from repro.render.raycast import render_volume
from repro.render.transfer_function import TransferFunction

__all__ = ["pack_volume_subset", "unpack_volume_subset", "ClientSideRenderer"]

_MAGIC = b"RVOL"


def pack_volume_subset(
    volume: np.ndarray,
    *,
    factor: int = 2,
    codec: str | Codec = "bzip",
) -> bytes:
    """Server side: downsample, quantize to 8 bits, compress.

    ``factor`` reduces every grid axis by block averaging (1 = keep full
    resolution); quantization maps [0, 1] scalars onto uint8.  The
    lossless ``codec`` then squeezes the reduced grid — BZIP by default,
    since this path is bandwidth-bound, not latency-bound.
    """
    if volume.ndim != 3:
        raise ValueError(f"volume must be 3-D, got {volume.shape}")
    if factor < 1:
        raise ValueError("factor must be >= 1")
    vol = np.asarray(volume, dtype=np.float32)
    if factor > 1:
        nx, ny, nz = (max(1, s // factor) for s in vol.shape)
        trimmed = vol[: nx * factor, : ny * factor, : nz * factor]
        vol = trimmed.reshape(nx, factor, ny, factor, nz, factor).mean(
            axis=(1, 3, 5)
        )
    quantized = np.clip(np.rint(vol * 255.0), 0, 255).astype(np.uint8)
    codec_obj = get_codec(codec) if isinstance(codec, str) else codec
    if not codec_obj.lossless:
        raise ValueError("subset codec must be lossless (data, not pixels)")
    payload = codec_obj.encode(quantized.tobytes())
    name = codec_obj.name.encode()
    header = _MAGIC + struct.pack(
        "<IIIBB", *quantized.shape, factor, len(name)
    ) + name
    return header + payload


def unpack_volume_subset(payload: bytes) -> tuple[np.ndarray, int]:
    """Client side: invert :func:`pack_volume_subset`.

    Returns ``(volume, factor)`` with the volume as float32 in [0, 1] at
    the reduced resolution.
    """
    if len(payload) < 18 or payload[:4] != _MAGIC:
        raise CodecError("volume subset: bad or truncated header")
    nx, ny, nz, factor, name_len = struct.unpack_from("<IIIBB", payload, 4)
    offset = 4 + 14
    if len(payload) < offset + name_len:
        raise CodecError("volume subset: truncated codec name")
    codec_name = payload[offset : offset + name_len].decode()
    offset += name_len
    raw = get_codec(codec_name).decode(payload[offset:])
    expected = nx * ny * nz
    if len(raw) != expected:
        raise CodecError(
            f"volume subset: {len(raw)} voxels on the wire, expected {expected}"
        )
    vol = np.frombuffer(raw, dtype=np.uint8).reshape(nx, ny, nz)
    return vol.astype(np.float32) / 255.0, factor


class ClientSideRenderer:
    """A client that renders received volume subsets locally.

    Holds the latest unpacked time step; ``render`` produces any view
    with the ordinary ray caster — view changes never touch the WAN.
    """

    def __init__(self, tf: TransferFunction | None = None):
        self.tf = tf if tf is not None else TransferFunction.jet()
        self._volume: np.ndarray | None = None
        #: wire bytes received so far
        self.bytes_received = 0

    def receive(self, payload: bytes) -> None:
        self._volume, _ = unpack_volume_subset(payload)
        self.bytes_received += len(payload)

    @property
    def has_data(self) -> bool:
        return self._volume is not None

    def render(self, camera: Camera, **kwargs) -> np.ndarray:
        """Render the current subset volume locally (premultiplied RGBA)."""
        if self._volume is None:
            raise RuntimeError("no volume subset received yet")
        return render_volume(self._volume, self.tf, camera, **kwargs)
