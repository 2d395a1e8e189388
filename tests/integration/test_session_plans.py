"""A session renders through one ``RayCaster`` per view: the ray plans of
a view are marched for every time step while the view stands, dropped
when it changes (control message or plain assignment), and freed with the
session.  And ``cull=True`` means the same on every render path."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.compress import psnr
from repro.core import RemoteVisualizationSession
from repro.data import TimeVaryingDataset, turbulent_jet
from repro.devtools.waiting import wait_until
from repro.render import Camera, TransferFunction, render_volume, to_display_rgb

CAM = Camera(image_size=(40, 40))


@pytest.fixture(scope="module")
def dataset():
    return turbulent_jet(scale=0.3, n_steps=6)


def one_shot(session, dataset, t):
    """Step ``t`` rendered from scratch at the session's current view."""
    return to_display_rgb(
        render_volume(dataset.volume(t), session.tf, session.camera,
                      shading=session.shading),
        background=session.background,
    )


CONTROLS = {
    "view": (
        lambda display: display.set_view(azimuth=140.0, elevation=-35.0),
        lambda s: s.camera.azimuth == 140.0,
    ),
    "zoom": (
        lambda display: display.set_zoom(2.0),
        lambda s: s.camera.zoom == 2.0,
    ),
    "projection": (
        lambda display: display.set_projection("perspective"),
        lambda s: s.camera.projection == "perspective",
    ),
    "colormap": (
        lambda display: display.set_colormap(
            [0.0, 0.2, 1.0], [[0, 0, 1, 0.0], [0, 1, 0, 0.3], [1, 0, 0, 0.9]]
        ),
        lambda s: len(s.tf.positions) == 3,
    ),
}


@pytest.mark.parametrize("control", sorted(CONTROLS))
def test_a_control_message_retires_the_plans_of_the_old_view(dataset, control):
    send, applied = CONTROLS[control]
    with RemoteVisualizationSession(
        dataset, group_size=1, camera=CAM, codec="raw"
    ) as sess:
        before = sess.step(0).image  # builds the first view's plan
        assert np.array_equal(before, one_shot(sess, dataset, 0))
        caster = sess._caster()
        send(sess.display)

        def arrived():
            sess._apply_controls()
            return applied(sess)

        wait_until(arrived, timeout=3, message=f"{control} control never arrived")
        after = sess.step(0).image  # same time step, new parameters
        assert sess._caster() is not caster
        assert np.array_equal(after, one_shot(sess, dataset, 0))
        assert not np.array_equal(after, before)
        # and the new view's plan is marched again for the next step
        warm = sess._caster()
        assert np.array_equal(sess.step(1).image, one_shot(sess, dataset, 1))
        assert sess._caster() is warm and len(warm._plans) == 1


@pytest.mark.parametrize("spmd", [False, True], ids=["bricks", "spmd"])
def test_assigning_a_view_retires_the_plans_of_the_old_one(dataset, spmd):
    with RemoteVisualizationSession(
        dataset, group_size=2, camera=CAM, codec="raw", spmd=spmd
    ) as sess:
        sess.step(0)
        for name, value in (
            ("camera", replace(CAM, azimuth=200.0, elevation=10.0)),
            ("tf", TransferFunction.vortex()),
            ("shading", True),
        ):
            setattr(sess, name, value)
            # a session that never saw the old view renders the same frame
            with RemoteVisualizationSession(
                dataset, group_size=2, camera=sess.camera, tf=sess.tf,
                shading=sess.shading, codec="raw", spmd=spmd,
            ) as fresh:
                expected = fresh.render_step(1)
            assert np.array_equal(sess.step(1).image, expected)
        assert len(sess._caster()._plans) == 2  # one per brick, of the last view only


def test_plans_are_freed_with_the_session(dataset):
    sess = RemoteVisualizationSession(dataset, group_size=1, camera=CAM, codec="raw")
    try:
        report = sess.run_pipelined(range(4), n_groups=2)
        assert len(report.frames) == 4
        plans = [weakref.ref(p) for p in sess._caster()._plans.values()]
        assert len(plans) == 1 and plans[0]() is not None
    finally:
        sess.close()
    gc.collect()
    assert sess._ray_caster is None
    assert [ref() for ref in plans] == [None]


class TestCullOnEveryPath:
    """``cull=True`` used to be ignored by the parallel-compression path,
    which decomposed the full grid and had no frame for a step with
    nothing visible in it."""

    def test_parallel_compression_crops_like_render_step(self, dataset):
        with RemoteVisualizationSession(
            dataset, group_size=2, camera=CAM, codec="raw", spmd=True,
            parallel_compression=True, cull=True,
        ) as sess:
            boxes = []
            caster = sess._caster()
            render = caster.render
            caster.render = lambda volume, box: boxes.append(box) or render(volume, box)
            frame = sess.step(2)
            reference = sess.render_step(2)
        assert frame.n_pieces == 2
        assert psnr(reference, frame.image) >= 60.0
        # the bricks it rendered tile the occupied box, not the unit cube
        lo = np.min([b[0] for b in boxes], axis=0)
        hi = np.max([b[1] for b in boxes], axis=0)
        assert (lo > 0.0).any() and (hi < 1.0).any()
        assert sorted(boxes[:2]) == sorted(boxes[2:])  # step() and render_step() alike

    @pytest.mark.parametrize("parallel", [False, True], ids=["assembled", "parallel"])
    def test_a_step_with_nothing_visible_is_a_background_frame(self, parallel):
        empty = TimeVaryingDataset(
            name="empty", shape=(12, 12, 12), n_steps=2,
            generator=lambda t: np.zeros((12, 12, 12), dtype=np.float32),
        )
        background = (0.2, 0.4, 0.6)
        with RemoteVisualizationSession(
            empty, group_size=2, camera=CAM, codec="raw", spmd=True,
            parallel_compression=parallel, cull=True, background=background,
        ) as sess:
            frame = sess.step(1)
        assert frame.time_step == 1 and frame.image.shape == (40, 40, 3)
        expected = to_display_rgb(
            np.zeros((40, 40, 4), dtype=np.float32), background=background
        )
        assert np.array_equal(frame.image, expected)
