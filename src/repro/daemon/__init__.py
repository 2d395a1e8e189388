"""Compression-based image transport framework (paper §4.1).

Three components, exactly as the paper lays out:

- **renderer interface** (:class:`RendererInterface`) — "provides each
  rendering node with image compression (if not done by the renderer) and
  communication to and from the display daemon";
- **display interface** (:class:`DisplayInterface`) — "provides three
  basic functions: image decompression, image assembly, and communication
  to and from the display daemon";
- **display daemon** (:class:`DisplayDaemon`) — "its main job is to pass
  images from the renderer to the display.  It also allows the display to
  communicate with the renderer … and can accept any number of
  connections from renderer interface and display interface."

Control flows as tagged messages; view/colormap changes travel from the
display to every renderer interface as "remote callbacks" and are
buffered (§5) so in-flight frames are never interrupted.
"""

from repro.daemon.protocol import (
    ControlMessage,
    FrameMessage,
    HelloMessage,
    Message,
    decode_message,
)
from repro.daemon.display_daemon import DisplayDaemon
from repro.daemon.tcp import TcpDaemonServer, connect_daemon
from repro.daemon.renderer_interface import RendererInterface
from repro.daemon.display_interface import DisplayInterface

__all__ = [
    "Message",
    "FrameMessage",
    "ControlMessage",
    "HelloMessage",
    "decode_message",
    "DisplayDaemon",
    "TcpDaemonServer",
    "connect_daemon",
    "RendererInterface",
    "DisplayInterface",
]
