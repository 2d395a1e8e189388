"""Unit tests for data-dependent empty-space culling."""

import numpy as np
import pytest

from repro.render import (
    Camera,
    TransferFunction,
    cull_empty_space,
    render_volume,
)


class TestCullEmptySpace:
    def test_returns_none_for_empty_volume(self):
        assert cull_empty_space(np.zeros((8, 8, 8), dtype=np.float32)) is None

    def test_crop_covers_occupied_region(self):
        vol = np.zeros((20, 20, 20), dtype=np.float32)
        vol[5:9, 10:12, 3:15] = 0.7
        cropped, box = cull_empty_space(vol)
        # one voxel padding on each side
        assert cropped.shape == (6, 4, 14)
        assert cropped.max() == np.float32(0.7)
        lo, hi = box
        assert lo[0] == pytest.approx(4 / 19)
        assert hi[0] == pytest.approx(9 / 19)

    def test_full_volume_is_identity_box(self):
        vol = np.ones((10, 10, 10), dtype=np.float32)
        cropped, box = cull_empty_space(vol)
        assert cropped.shape == vol.shape
        assert box == ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))

    def test_nested_boxes_compose(self):
        vol = np.zeros((16, 16, 16), dtype=np.float32)
        vol[8:12, 8:12, 8:12] = 1.0
        sub_box = ((0.5, 0.5, 0.5), (1.0, 1.0, 1.0))
        cropped, box = cull_empty_space(vol, box=sub_box)
        lo, hi = box
        assert all(0.5 <= l < h <= 1.0 for l, h in zip(lo, hi))

    def test_threshold_respected(self):
        vol = np.full((12, 12, 12), 0.05, dtype=np.float32)
        vol[4:6, 4:6, 4:6] = 0.9
        result = cull_empty_space(vol, threshold=0.1)
        cropped, _ = result
        assert cropped.shape[0] <= 4

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            cull_empty_space(np.zeros((4, 4), dtype=np.float32))


class TestCulledRendering:
    def test_culled_render_matches_full(self, jet_volume, small_camera):
        """The jet's TF maps sub-threshold values to zero opacity, so the
        culled render is (nearly) exact."""
        tf = TransferFunction.jet()
        full = render_volume(jet_volume, tf, small_camera)
        cropped, box = cull_empty_space(jet_volume, threshold=0.1)
        culled = render_volume(cropped, tf, small_camera, box=box)
        assert np.abs(full - culled).max() < 0.06
        assert np.abs(full - culled).mean() < 0.003

    def test_culling_reduces_work(self, jet_volume, small_camera):
        """Fewer voxels to hold, ship and balance over bricks, same
        picture.  No clock: ``render_volume`` skips empty space itself,
        so the cropped render is no longer the faster one."""
        tf = TransferFunction.jet()
        cropped, box = cull_empty_space(jet_volume, threshold=0.1)
        assert cropped.size < jet_volume.size * 0.7
        full = render_volume(jet_volume, tf, small_camera)
        culled = render_volume(cropped, tf, small_camera, box=box)
        assert np.abs(full - culled).mean() < 0.003


class TestSessionCulling:
    def test_culled_session_matches_plain(self):
        from repro.core import RemoteVisualizationSession
        from repro.data import turbulent_jet

        ds = turbulent_jet(scale=0.3, n_steps=3)
        cam = Camera(image_size=(48, 48))
        for group_size in (1, 4):
            with RemoteVisualizationSession(
                ds, group_size=group_size, camera=cam, codec="raw"
            ) as plain, RemoteVisualizationSession(
                ds, group_size=group_size, camera=cam, codec="raw", cull=True
            ) as culled:
                a = plain.step(1).image.astype(int)
                b = culled.step(1).image.astype(int)
            # sampling phases shift slightly inside the tight box
            assert np.abs(a - b).mean() < 1.0
            assert (np.abs(a - b) > 20).mean() < 0.01

    def test_empty_step_yields_blank_frame(self):
        from repro.core import RemoteVisualizationSession
        from repro.data import TimeVaryingDataset

        ds = TimeVaryingDataset(
            name="void", shape=(8, 8, 8), n_steps=1,
            generator=lambda t: np.zeros((8, 8, 8), dtype=np.float32),
        )
        with RemoteVisualizationSession(
            ds, group_size=2, camera=Camera(image_size=(16, 16)),
            codec="raw", cull=True,
        ) as sess:
            frame = sess.step(0)
        assert frame.image.max() == 0

    def test_opacity_threshold_presets(self):
        # jet leaves low scalars fully transparent; vortex does not
        assert TransferFunction.jet().opacity_threshold() > 0.05
        assert TransferFunction.vortex().opacity_threshold() < 0.01
        assert TransferFunction.grayscale().opacity_threshold() < 0.01
