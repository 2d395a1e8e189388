"""Renderer interface: the render side's handle on the display daemon.

"The renderer interface provides each rendering node with image
compression (if not done by the renderer) and communication to and from
the display daemon."  It also receives the user's remote callbacks and
buffers them (§5): rendering of in-flight frames is never interrupted —
``drain_controls()`` hands the buffered inputs to the render loop between
frames.
"""

from __future__ import annotations

import copy
import threading
from collections import deque
from typing import Any

import numpy as np

from repro.compress import Codec, get_codec
from repro.daemon.display_daemon import DisplayDaemon
from repro.daemon.protocol import ControlMessage, FrameMessage, decode_message
from repro.net.transport import ChannelClosed, FramedConnection
from repro.render.image import split_tiles

__all__ = ["RendererInterface"]


class RendererInterface:  # speaks: renderer
    """One rendering node's (or assembling node's) daemon connection.

    Parameters
    ----------
    daemon:
        The in-process daemon to attach to.
    codec:
        Initial compression method (name or instance).  The display can
        switch it remotely via a ``set_codec`` control message.
    name:
        Identification for logs.
    """

    def __init__(
        self,
        daemon: DisplayDaemon | None = None,
        codec: str | Codec = "jpeg+lzo",
        name: str = "renderer",
        connection=None,
    ):
        """Attach either in-process (``daemon=``) or over an established
        transport such as :func:`repro.daemon.tcp.connect_daemon`
        (``connection=``); exactly one must be given."""
        if (daemon is None) == (connection is None):
            raise ValueError("provide exactly one of daemon or connection")
        self.name = name
        self._codec_lock = threading.Lock()
        #: the current method — a pristine template, never encoded with
        self._codec = (  # guarded-by: _codec_lock
            get_codec(codec) if isinstance(codec, str) else codec
        )
        #: copies of ``_codec`` no sender is using right now
        self._idle_codecs: list[Codec] = []  # guarded-by: _codec_lock
        self._controls: deque[ControlMessage] = deque()
        self._controls_lock = threading.Lock()
        if connection is not None:
            self.conn = connection
        else:
            local, remote = FramedConnection.pair(
                f"{name}-local", f"{name}-daemon"
            )
            self.conn = local
            daemon.connect(remote, role="renderer", name=name)
        self._listener = threading.Thread(target=self._listen, daemon=True)
        self._listener.start()
        self._frame_counter = 0

    @property
    def codec(self) -> Codec:
        with self._codec_lock:
            return self._codec

    def _encode(self, image: np.ndarray) -> tuple[str, bytes]:
        """Compress on a codec instance no other sender holds; returns
        ``(codec name, payload)``.

        ``run_pipelined`` group threads and SPMD parallel-compression
        ranks send concurrently, and a codec's
        :class:`~repro.compress.context.CodecContext` scratch is
        single-threaded.  Each encode checks a private copy out of the
        idle list (cloning the template when every copy is busy) and
        returns it afterwards, so encodes stay parallel, the copies keep
        their warm tables across frames, and a ``set_codec`` in between
        simply orphans the old method's copies.
        """
        with self._codec_lock:
            template = self._codec
            codec = self._idle_codecs.pop() if self._idle_codecs else None
        if codec is None:
            codec = copy.deepcopy(template)
        payload = codec.encode_image(image)
        with self._codec_lock:
            if self._codec is template:
                self._idle_codecs.append(codec)
        return codec.name, payload

    # -- frames --------------------------------------------------------------

    def send_frame(
        self,
        image: np.ndarray,
        time_step: int,
        *,
        frame_id: int | None = None,
    ) -> int:
        """Compress an assembled ``uint8`` frame and ship it.

        Returns the payload size in bytes (what crossed the wire).
        """
        fid = self._next_id(frame_id)
        codec_name, payload = self._encode(image)
        msg = FrameMessage(
            frame_id=fid,
            time_step=time_step,
            codec=codec_name,
            payload=payload,
            image_shape=(image.shape[0], image.shape[1]),
        )
        self.conn.send(msg.encode())
        return len(payload)

    def send_frame_pieces(
        self,
        image: np.ndarray,
        time_step: int,
        n_pieces: int,
        *,
        frame_id: int | None = None,
    ) -> list[int]:
        """Parallel-compression mode: ship the frame as row-strip pieces.

        "As soon as a processor completes the sub-image it is responsible
        for compositing, it compresses and sends the compressed sub-image
        to the display daemon … the step to combine the sub-images is
        waived."  Returns per-piece payload sizes.
        """
        fid = self._next_id(frame_id)
        shape = (image.shape[0], image.shape[1])
        return [
            self.send_piece(strip, time_step, fid, index, n_pieces, rows, shape)
            for index, (rows, strip) in enumerate(split_tiles(image, n_pieces))
        ]

    def send_piece(
        self,
        strip: np.ndarray,
        time_step: int,
        frame_id: int,
        piece_index: int,
        n_pieces: int,
        row_range: tuple[int, int],
        image_shape: tuple[int, int],
    ) -> int:
        """Ship one already-owned strip (per-node parallel compression)."""
        codec_name, payload = self._encode(np.ascontiguousarray(strip))
        msg = FrameMessage(
            frame_id=frame_id,
            time_step=time_step,
            codec=codec_name,
            payload=payload,
            piece_index=piece_index,
            n_pieces=n_pieces,
            row_range=row_range,
            image_shape=image_shape,
        )
        self.conn.send(msg.encode())
        return len(payload)

    def _next_id(self, frame_id: int | None) -> int:
        if frame_id is not None:
            return frame_id
        fid = self._frame_counter
        self._frame_counter += 1
        return fid

    # -- user control (§5) -----------------------------------------------------

    def _listen(self) -> None:
        while True:
            try:
                msg = decode_message(self.conn.recv())
            except (ChannelClosed, TimeoutError):
                return
            if isinstance(msg, ControlMessage):
                if msg.tag == "set_codec":
                    codec = get_codec(
                        msg.params["name"], **msg.params.get("options", {})
                    )
                    with self._codec_lock:
                        self._codec = codec
                        self._idle_codecs = []
                with self._controls_lock:
                    self._controls.append(msg)

    def drain_controls(self) -> list[ControlMessage]:
        """Buffered user inputs since the last call.

        The render loop applies these *between* frames — "user inputs …
        are buffered and only affect the rendering of following frames".
        """
        with self._controls_lock:
            out = list(self._controls)
            self._controls.clear()
        return out

    def pending_view(self) -> dict[str, Any] | None:
        """Convenience: the most recent buffered ``view`` change, if any."""
        with self._controls_lock:
            views = [m for m in self._controls if m.tag == "view"]
        return views[-1].params if views else None

    def close(self) -> None:
        self.conn.close()
