"""One codec binding: ``bound_codec`` builds, binds and memoizes.

Every owner of codecs (display interface, viewer handle, broker, encode
worker) keeps its own ``(name, quality) -> codec`` dict beside its own
:class:`CodecContext`.  The context never holds the codecs, so an owner
that is dropped frees its context (and the scratch buffers in it) by
reference counting alone, without waiting for the cycle collector.
"""

import gc
import weakref

import numpy as np

from repro.compress.context import CodecContext, bound_codec
from repro.daemon import DisplayInterface, RendererInterface
from repro.devtools.waiting import wait_until
from repro.net.transport import FramedConnection
from repro.scenario import synthetic_frames
from repro.serve import SessionBroker


def test_two_phase_codec_binds_both_stages_once():
    codecs, context = {}, CodecContext()
    codec = bound_codec(codecs, context, "jpeg+bzip", 60)
    assert codec.first.quality == 60
    assert codec.first._ctx is context
    assert codec.second._ctx is context
    assert bound_codec(codecs, context, "jpeg+bzip", 60) is codec
    assert bound_codec(codecs, context, "jpeg+bzip", 70) is not codec
    assert list(codecs) == [("jpeg+bzip", 60), ("jpeg+bzip", 70)]


def test_dropped_display_interface_frees_its_context():
    image = synthetic_frames(1, size=32)[0]
    gc.collect()
    gc.disable()
    try:
        a, b = FramedConnection.pair()
        renderer = RendererInterface(connection=a, codec="jpeg+bzip")
        display = DisplayInterface(connection=b)
        renderer.send_frame(image, time_step=0, frame_id=0)
        assert display.next_frame(timeout=5).image.shape == image.shape
        assert display._codecs  # a codec was bound to the context
        ref = weakref.ref(display.codec_context)
        renderer.close()
        display.close()
        del display, renderer, a, b
        assert ref() is None
    finally:
        gc.enable()


def test_dropped_left_viewer_handle_frees_its_context():
    frames = synthetic_frames(2, size=32)
    gc.collect()
    gc.disable()
    try:
        with SessionBroker() as broker:
            handle = broker.join("v")
            for i, frame in enumerate(frames):
                broker.publish(frame, time_step=i)
            for frame in frames:
                got = handle.next_frame(timeout=5)
                assert np.asarray(got.image).shape == frame.shape
            assert handle._codecs
            ref = weakref.ref(handle.codec_context)
            handle.leave()
            del handle
            # the broker side lets go once the session's pump has exited;
            # the broker itself keeps serving and holds nothing of it
            wait_until(lambda: ref() is None, message="context not freed")
    finally:
        gc.enable()
