"""Display interface: decompression, assembly, and the control panel path.

"The display interface provides three basic functions: image
decompression, image assembly, and communication to and from the display
daemon."  ``next_frame()`` blocks until all pieces of the next frame id
have arrived, decompresses each (multiple pieces = the parallel
compression mode whose decode cost Figure 10 studies), assembles them,
and returns the displayable image.
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from repro.compress import Codec
from repro.compress.context import CodecContext, bound_codec
from repro.daemon.display_daemon import DisplayDaemon
from repro.daemon.protocol import ControlMessage, FrameMessage, decode_message
from repro.net.transport import ChannelClosed, FramedConnection
from repro.render.image import assemble_tiles

__all__ = ["DisplayInterface", "ReceivedFrame"]


class ReceivedFrame:
    """A fully decoded frame plus its transport statistics."""

    def __init__(
        self,
        frame_id: int,
        time_step: int,
        image: np.ndarray,
        payload_bytes: int,
        n_pieces: int,
    ):
        self.frame_id = frame_id
        self.time_step = time_step
        self.image = image
        self.payload_bytes = payload_bytes
        self.n_pieces = n_pieces

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ReceivedFrame id={self.frame_id} step={self.time_step} "
            f"{self.image.shape} {self.payload_bytes}B/{self.n_pieces}pc>"
        )


class DisplayInterface:  # speaks: display
    """The remote user's endpoint.

    Codec instances are cached per name so stateless codecs are reused;
    ``set_codec`` both switches the local decoder default *and* sends the
    control message that re-points every renderer interface.
    """

    def __init__(
        self,
        daemon: DisplayDaemon | None = None,
        name: str = "display",
        connection=None,
    ):
        """Attach either in-process (``daemon=``) or over an established
        transport such as :func:`repro.daemon.tcp.connect_daemon`
        (``connection=``); exactly one must be given."""
        if (daemon is None) == (connection is None):
            raise ValueError("provide exactly one of daemon or connection")
        self.name = name
        if connection is not None:
            self.conn = connection
        else:
            local, remote = FramedConnection.pair(
                f"{name}-local", f"{name}-daemon"
            )
            self.conn = local
            daemon.connect(remote, role="display", name=name)
        self._codecs: dict[tuple[str, None], Codec] = {}
        self._pending: dict[int, dict[int, FrameMessage]] = {}
        self._lock = threading.Lock()
        #: control/hello traffic received with no handler on this end
        self.unknown_controls = 0  # guarded-by: _lock
        # One context for the whole connection: Huffman decode tables,
        # quantization matrices, and scratch buffers persist across frames
        # and are shared by every codec this interface instantiates.
        self.codec_context = CodecContext()

    # -- receiving ------------------------------------------------------------

    def next_frame(self, timeout: float | None = 30.0) -> ReceivedFrame:
        """Block until one frame is complete; decompress and assemble it."""
        while True:
            ready = self._pop_ready()
            if ready is not None:
                return self._decode(ready)
            # Zero-copy: the frame's compressed payload stays a memoryview
            # into the received buffer all the way into the codec, which
            # reads it via np.frombuffer without duplicating it.
            msg = decode_message(
                memoryview(self.conn.recv(timeout=timeout)), copy=False
            )
            if isinstance(msg, FrameMessage):
                with self._lock:
                    self._pending.setdefault(msg.frame_id, {})[
                        msg.piece_index
                    ] = msg
            else:
                # the display dispatches no control tags (renderer
                # status broadcasts land here); count, don't vanish
                with self._lock:
                    self.unknown_controls += 1

    def _pop_ready(self) -> list[FrameMessage] | None:
        with self._lock:
            for fid in sorted(self._pending):
                pieces = self._pending[fid]
                n = next(iter(pieces.values())).n_pieces
                if len(pieces) == n:
                    del self._pending[fid]
                    return [pieces[i] for i in range(n)]
        return None

    def _decode(self, pieces: list[FrameMessage]) -> ReceivedFrame:
        first = pieces[0]
        payload_bytes = sum(len(p.payload) for p in pieces)
        if len(pieces) == 1 and first.row_range is None:
            image = bound_codec(
                self._codecs, self.codec_context, first.codec
            ).decode_image(first.payload)
        else:
            tiles = []
            for p in pieces:
                strip = bound_codec(
                    self._codecs, self.codec_context, p.codec
                ).decode_image(p.payload)
                if p.row_range is None:
                    raise ValueError("multi-piece frame without row ranges")
                tiles.append((p.row_range, strip))
            height = first.image_shape[0] if first.image_shape else None
            image = assemble_tiles(tiles, height=height)
        return ReceivedFrame(
            frame_id=first.frame_id,
            time_step=first.time_step,
            image=image,
            payload_bytes=payload_bytes,
            n_pieces=len(pieces),
        )

    # -- control (drives the renderer remotely) ---------------------------------

    def send_control(self, tag: str, **params: Any) -> None:
        """Send a tagged message to every renderer interface."""
        self.conn.send(ControlMessage(tag=tag, params=params).encode())

    def set_view(self, azimuth: float, elevation: float) -> None:
        """Push a new viewing position (affects *following* frames)."""
        self.send_control("view", azimuth=azimuth, elevation=elevation)

    def set_colormap(self, positions: list[float], colors: list[list[float]]) -> None:
        """Push a new color map to the renderer."""
        self.send_control("colormap", positions=positions, colors=colors)

    def set_zoom(self, zoom: float) -> None:
        """Push a new magnification (the §5 'change in focus' control)."""
        self.send_control("zoom", zoom=zoom)

    def set_projection(self, projection: str) -> None:
        """Switch the renderer between orthographic and perspective."""
        self.send_control("projection", projection=projection)

    def set_codec(self, name: str, **options: Any) -> None:
        """Instruct the system to change the compression method."""
        self.send_control("set_codec", name=name, options=options)

    def start_renderer(self, **params: Any) -> None:
        """The §4.1 'start the renderer' daemon command."""
        self.send_control("start_renderer", **params)

    def close(self) -> None:
        self.conn.close()
