"""Integration tests for functional inter-volume pipelining (§3, live).

The paper's processor-grouping thesis demonstrated on real threads: data
input (dataset generation / disk reads) of one time step overlaps the
rendering of another, so wall-clock beats the serial path.
"""

import time

import numpy as np
import pytest

from repro.compress import psnr
from repro.core import RemoteVisualizationSession
from repro.data import TimeVaryingDataset
from repro.data.fields import jet_field
from repro.render import Camera

SHAPE = (32, 32, 26)


def slow_dataset(n_steps=8, latency=0.05):
    """A dataset whose generator sleeps — an I/O-bound input stage."""

    def gen(t):
        time.sleep(latency)
        return jet_field(SHAPE, float(t))

    return TimeVaryingDataset(
        name="slow", shape=SHAPE, n_steps=n_steps, generator=gen
    )


class TestRunPipelined:
    def test_frames_complete_and_ordered(self):
        ds = slow_dataset(latency=0.0)
        with RemoteVisualizationSession(
            ds, group_size=1, camera=Camera(image_size=(32, 32)), codec="lzo"
        ) as sess:
            report = sess.run_pipelined(range(6), n_groups=3)
        assert [f.time_step for f in report.frames] == list(range(6))
        assert report.metrics.n_frames == 6

    def test_images_match_serial_run(self):
        ds = slow_dataset(latency=0.0)
        cam = Camera(image_size=(40, 40))
        with RemoteVisualizationSession(
            ds, group_size=2, camera=cam, codec="lzo"
        ) as sess:
            serial = sess.run(range(4))
        with RemoteVisualizationSession(
            ds, group_size=2, camera=cam, codec="lzo"
        ) as sess:
            piped = sess.run_pipelined(range(4), n_groups=2)
        for a, b in zip(serial.frames, piped.frames):
            assert np.array_equal(a.image, b.image)

    def test_overlap_beats_serial_on_io_bound_input(self):
        """The headline: pipelining hides the input stage."""
        ds = slow_dataset(n_steps=8, latency=0.06)
        cam = Camera(image_size=(32, 32))
        with RemoteVisualizationSession(
            ds, group_size=1, camera=cam, codec="lzo"
        ) as sess:
            t0 = time.perf_counter()
            sess.run(range(8))
            t_serial = time.perf_counter() - t0
        with RemoteVisualizationSession(
            ds, group_size=1, camera=cam, codec="lzo"
        ) as sess:
            t0 = time.perf_counter()
            sess.run_pipelined(range(8), n_groups=4)
            t_piped = time.perf_counter() - t0
        assert t_piped < t_serial * 0.8

    def test_in_order_display_semantics(self):
        ds = slow_dataset(latency=0.0)
        with RemoteVisualizationSession(
            ds, group_size=1, camera=Camera(image_size=(24, 24)), codec="lzo"
        ) as sess:
            report = sess.run_pipelined(range(6), n_groups=3)
        displayed = [f.displayed for f in report.metrics.frames]
        assert displayed == sorted(displayed)
        assert report.metrics.start_up_latency <= report.metrics.overall_time

    def test_single_group_degenerates_to_serial_behaviour(self):
        ds = slow_dataset(latency=0.0, n_steps=3)
        with RemoteVisualizationSession(
            ds, group_size=1, camera=Camera(image_size=(24, 24)), codec="lzo"
        ) as sess:
            report = sess.run_pipelined(n_groups=1)
        assert [f.time_step for f in report.frames] == [0, 1, 2]

    @pytest.mark.parametrize("codec", ["jpeg", "jpeg+lzo"])
    def test_concurrent_groups_do_not_share_codec_scratch(self, codec):
        """Regression: both group threads encoded through the renderer
        interface's one codec instance and trampled each other's
        ``CodecContext`` scratch — roughly one run in three died with
        ``CodecError: jpeg: block terminator count mismatch`` (or
        shipped a garbled frame).  Repeated so the race would have to
        lose every round to slip through."""
        ds = slow_dataset(latency=0.0)
        cam = Camera(image_size=(64, 64))
        with RemoteVisualizationSession(
            ds, group_size=1, camera=cam, codec=codec
        ) as sess:
            reference = [sess.render_step(t) for t in range(8)]
            for _ in range(6):
                report = sess.run_pipelined(range(8), n_groups=2)
                assert [f.time_step for f in report.frames] == list(range(8))
                for frame in report.frames:
                    assert psnr(reference[frame.time_step], frame.image) > 25.0

    def test_worker_error_propagates(self):
        def bad_gen(t):
            if t == 2:
                raise RuntimeError("disk died")
            return jet_field(SHAPE, float(t))

        ds = TimeVaryingDataset(
            name="bad", shape=SHAPE, n_steps=4, generator=bad_gen
        )
        with RemoteVisualizationSession(
            ds, group_size=1, camera=Camera(image_size=(24, 24)), codec="lzo"
        ) as sess:
            with pytest.raises((RuntimeError, TimeoutError)):
                sess.run_pipelined(range(4), n_groups=2)

    def test_validation(self):
        ds = slow_dataset(latency=0.0)
        with RemoteVisualizationSession(
            ds, group_size=1, camera=Camera(image_size=(24, 24)), codec="lzo"
        ) as sess:
            with pytest.raises(ValueError):
                sess.run_pipelined(n_groups=0)
            with pytest.raises(ValueError):
                sess.run_pipelined(range(0), n_groups=2)
