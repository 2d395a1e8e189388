"""Unit tests for the ray-casting renderer."""

import numpy as np
import pytest

from repro.render import Camera, RayCaster, TransferFunction, render_volume
from repro.render.raycast import sample_trilinear


class TestTrilinear:
    def test_exact_at_grid_points(self):
        rng = np.random.default_rng(0)
        vol = rng.random((5, 6, 7)).astype(np.float32)
        coords = np.array([[0, 0, 0], [4, 5, 6], [2, 3, 1]], dtype=np.float64)
        vals = sample_trilinear(vol, coords)
        assert vals[0] == pytest.approx(vol[0, 0, 0])
        assert vals[1] == pytest.approx(vol[4, 5, 6], abs=1e-5)
        assert vals[2] == pytest.approx(vol[2, 3, 1])

    def test_midpoint_average(self):
        vol = np.zeros((2, 2, 2), dtype=np.float32)
        vol[1, :, :] = 1.0
        val = sample_trilinear(vol, np.array([[0.5, 0.5, 0.5]]))
        assert val[0] == pytest.approx(0.5)

    def test_clamping_outside(self):
        vol = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        vals = sample_trilinear(vol, np.array([[-5.0, -5.0, -5.0], [9.0, 9.0, 9.0]]))
        assert vals[0] == pytest.approx(vol[0, 0, 0])
        assert vals[1] == pytest.approx(vol[1, 1, 1], abs=1e-4)

    def test_linearity_along_axis(self):
        vol = np.zeros((3, 2, 2), dtype=np.float32)
        vol[2] = 2.0
        vol[1] = 1.0
        xs = np.linspace(0, 2, 9)
        coords = np.stack([xs, np.full(9, 0.0), np.full(9, 0.0)], axis=1)
        assert np.allclose(sample_trilinear(vol, coords), xs, atol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_boundary_samples_exact_in_any_coordinate_dtype(self, dtype):
        """On an axis of 128 or more voxels ``n - 1.000001`` is ``n - 1``
        in float32: the old upper clamp indexed past the volume there, and
        in float64 it read 0.999997 of the far voxel.  Every face, edge
        and corner must return its voxel exactly."""
        rng = np.random.default_rng(1)
        vol = rng.random((128, 128, 128)).astype(np.float32)
        grid = np.array(
            [
                (x, y, z)
                for x in (0, 64, 127)
                for y in (0, 64, 127)
                for z in (0, 64, 127)
                if (x, y, z) != (64, 64, 64)
            ]
        )
        vals = sample_trilinear(vol, grid.astype(dtype))
        assert np.array_equal(vals, vol[grid[:, 0], grid[:, 1], grid[:, 2]])
        # edge extension: beyond the last voxel is the last voxel
        beyond = sample_trilinear(vol, (grid + (grid == 127) * 3).astype(dtype))
        assert np.array_equal(beyond, vals)


class TestRenderVolume:
    def make_blob(self, n=24):
        x, y, z = np.mgrid[0:n, 0:n, 0:n].astype(np.float32) / (n - 1)
        r2 = (x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2
        return np.exp(-r2 / 0.02).astype(np.float32)

    def test_output_shape_and_range(self):
        img = render_volume(
            self.make_blob(),
            TransferFunction.grayscale(opacity=0.4),
            Camera(image_size=(32, 48)),
        )
        assert img.shape == (32, 48, 4)
        assert img.dtype == np.float32
        assert img.min() >= 0.0
        assert img[..., 3].max() <= 1.0

    def test_premultiplied_invariant(self):
        img = render_volume(
            self.make_blob(),
            TransferFunction.jet(),
            Camera(image_size=(32, 32)),
        )
        assert (img[..., :3] <= img[..., 3:4] + 1e-5).all()

    def test_empty_volume_transparent(self):
        vol = np.zeros((8, 8, 8), dtype=np.float32)
        img = render_volume(vol, TransferFunction.jet(), Camera(image_size=(16, 16)))
        assert img.max() == 0.0

    def test_blob_is_centered(self):
        img = render_volume(
            self.make_blob(),
            TransferFunction.grayscale(opacity=0.5),
            Camera(image_size=(33, 33)),
        )
        alpha = img[..., 3]
        cy, cx = np.unravel_index(np.argmax(alpha), alpha.shape)
        assert abs(cy - 16) <= 2 and abs(cx - 16) <= 2

    def test_view_independence_of_symmetric_blob(self):
        vol = self.make_blob()
        tf = TransferFunction.grayscale(opacity=0.4)
        totals = []
        for az in (0, 45, 90):
            img = render_volume(vol, tf, Camera(image_size=(32, 32), azimuth=az))
            totals.append(img[..., 3].sum())
        assert max(totals) / min(totals) < 1.15

    def test_subvolume_box_renders_into_correct_region(self):
        vol = self.make_blob(16)
        tf = TransferFunction.grayscale(opacity=0.5)
        cam = Camera(image_size=(32, 32))
        # left-half box only: image coverage shifts off-centre
        left = render_volume(vol, tf, cam, box=((0, 0, 0), (0.5, 1, 1)))
        full = render_volume(vol, tf, cam)
        assert 0 < left[..., 3].sum() < full[..., 3].sum()

    def test_early_termination_changes_little(self):
        vol = np.clip(self.make_blob() * 4, 0, 1)
        tf = TransferFunction.grayscale(opacity=0.9)
        cam = Camera(image_size=(24, 24))
        strict = render_volume(vol, tf, cam, early_termination=1.1)
        loose = render_volume(vol, tf, cam, early_termination=0.95)
        assert np.abs(strict - loose).max() < 0.06

    def test_smaller_step_converges(self):
        vol = self.make_blob()
        tf = TransferFunction.grayscale(opacity=0.4)
        cam = Camera(image_size=(16, 16))
        coarse = render_volume(vol, tf, cam, step=0.05)
        fine = render_volume(vol, tf, cam, step=0.01)
        finest = render_volume(vol, tf, cam, step=0.005)
        assert np.abs(fine - finest).mean() < np.abs(coarse - finest).mean()

    def test_validation(self):
        tf = TransferFunction.jet()
        cam = Camera(image_size=(8, 8))
        with pytest.raises(ValueError):
            render_volume(np.zeros((4, 4), dtype=np.float32), tf, cam)
        with pytest.raises(ValueError):
            render_volume(
                np.zeros((4, 4, 4), dtype=np.float32), tf, cam, step=-1.0
            )
        with pytest.raises(ValueError):
            render_volume(
                np.zeros((4, 4, 4), dtype=np.float32),
                tf,
                cam,
                box=((0, 0, 0), (0, 1, 1)),
            )

    def test_raycaster_wrapper(self, jet_volume, small_camera):
        rc = RayCaster(tf=TransferFunction.jet(), camera=small_camera)
        img = rc.render(jet_volume)
        ref = render_volume(jet_volume, rc.tf, rc.camera)
        assert np.array_equal(img, ref)
