"""Empty-space skipping in ``render_volume`` is exact, and close to the
dense march it replaced.

Two oracles over the same matrix (three datasets x both projections x
whole volume and each brick of a 4-way decomposition x shading off/on):

(a) with the occupancy builder patched to "every cell occupied" the
    renderer must return an ``np.array_equal`` image -- skipping only
    ever drops samples that add exactly 0.0;
(b) the dense, step-synchronous loop in ``tests/dense_reference.py``
    (every sample of every live ray interpolated and classified) must be
    matched to float32 rounding.
"""

import sys
import threading
from unittest import mock

import numpy as np
import pytest
from dense_reference import render_volume_dense

from repro.compress.metrics import psnr
from repro.data import shock_mixing, turbulent_jet, turbulent_vortex
from repro.render import (
    Camera,
    RayCaster,
    TransferFunction,
    decompose,
    render_volume,
    to_display_rgb,
)
from repro.render import raycast

DATASETS = {
    "jet": (lambda: turbulent_jet(scale=0.3).volume(40), TransferFunction.jet),
    "vortex": (lambda: turbulent_vortex(scale=0.25).volume(10), TransferFunction.vortex),
    "mixing": (lambda: shock_mixing(scale=0.25).volume(120), TransferFunction.mixing),
}


def all_occupied():
    """``render_volume`` with nothing to skip: the occupancy builder
    reports every macrocell occupied."""
    return mock.patch.object(raycast, "_occupancy", lambda vol, opaque: None)


@pytest.fixture(scope="module", params=sorted(DATASETS))
def scene(request):
    make_volume, make_tf = DATASETS[request.param]
    volume = make_volume()
    pieces = [(volume, ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))]
    pieces += [(b.extract(volume), b.box) for b in decompose(volume.shape, 4)]
    return pieces, make_tf()


@pytest.mark.parametrize("shading", [False, True], ids=["flat", "shaded"])
@pytest.mark.parametrize("projection", ["orthographic", "perspective"])
def test_skipping_is_exact_and_close_to_the_dense_march(scene, projection, shading):
    pieces, tf = scene
    camera = Camera(image_size=(40, 40), projection=projection)
    visible = 0
    for volume, box in pieces:
        image = render_volume(volume, tf, camera, box=box, shading=shading)
        visible += image[..., 3].max() > 0.05
        with all_occupied():
            unskipped = render_volume(volume, tf, camera, box=box, shading=shading)
        assert np.array_equal(image, unskipped)
        dense = render_volume_dense(volume, tf, camera, box=box, shading=shading)
        assert np.abs(image - dense).max() <= 5e-4
        assert psnr(to_display_rgb(dense), to_display_rgb(image)) >= 60.0
    assert visible >= 4  # mixing's last brick is empty; nothing else is


def test_skipping_cuts_the_interpolated_samples(monkeypatch):
    """The exactness tests would pass with skipping broken open (nothing
    skipped); this one fails then.  Counting samples is the host-independent
    form of the render guardrail in test_perf_smoke.py."""
    volume = turbulent_jet(scale=0.3).volume(40)
    camera = Camera(image_size=(40, 40))
    interp = raycast._interp
    counts = []

    def counting(vol, c, i):
        counts[-1] += c.shape[1]
        return interp(vol, c, i)

    monkeypatch.setattr(raycast, "_interp", counting)
    counts.append(0)
    render_volume(volume, TransferFunction.jet(), camera)
    counts.append(0)
    with all_occupied():
        render_volume(volume, TransferFunction.jet(), camera)
    skipped, dense = counts
    assert 0 < skipped < 0.4 * dense


def test_every_cell_occupied_means_no_grid_and_no_coarse_pass(monkeypatch):
    """An everywhere-opaque transfer function must not pay for skipping:
    the occupancy builder answers ``None`` and the dilation never runs."""
    monkeypatch.setattr(raycast, "_dilate", lambda cells: pytest.fail("coarse pass ran"))
    volume = turbulent_vortex(scale=0.25).volume(10)
    assert raycast._occupancy(volume, np.ones(1025, dtype=bool)) is None
    render_volume(volume, TransferFunction.vortex(), Camera(image_size=(16, 16)))


class TestOccupancy:
    def opaque(self, lo, hi):
        """LUT flags: opaque on the scalar interval [lo, hi] only."""
        grid = np.linspace(0.0, 1.0, raycast._LUT_SIZE + 1)
        return (grid >= lo) & (grid <= hi)

    def test_cells_share_their_boundary_voxel_plane(self):
        """A feature on a macrocell corner belongs to all eight cells that
        meet there: samples on either side interpolate from it."""
        vol = np.zeros((13, 13, 13), dtype=np.float32)
        vol[4, 4, 4] = 1.0
        occupied = raycast._occupancy(vol, self.opaque(0.5, 1.0))
        assert occupied.shape == (3, 3, 3)
        assert occupied[:2, :2, :2].all() and occupied.sum() == 8
        vol = np.zeros((13, 13, 13), dtype=np.float32)
        vol[1, 1, 1] = 1.0
        occupied = raycast._occupancy(vol, self.opaque(0.5, 1.0))
        assert occupied.sum() == 1 and occupied[0, 0, 0]

    def test_band_pass_between_two_voxels(self):
        """No voxel lies in the opaque band, interpolated samples do: the
        cell's [min, max] range, not its voxels, decides."""
        vol = np.full((5, 5, 5), 0.1, dtype=np.float32)
        vol[2:] = 0.9
        occupied = raycast._occupancy(vol, self.opaque(0.4, 0.6))
        assert occupied is None  # the one cell there is straddles the band
        vol[:] = 0.1
        assert not raycast._occupancy(vol, self.opaque(0.4, 0.6)).any()

    def test_range_is_widened_by_one_bin(self):
        """min == max == one bin below the opaque band still counts:
        float32 blending and ``rint`` may land a sample one bin over."""
        bin_ = 1.0 / raycast._LUT_SIZE
        opaque = self.opaque(0.5, 1.0)
        first = int(np.flatnonzero(opaque)[0])
        vol = np.full((5, 5, 5), (first - 1) * bin_, dtype=np.float32)
        assert raycast._occupancy(vol, opaque) is None
        vol[:] = (first - 3) * bin_
        assert not raycast._occupancy(vol, opaque).any()

    def test_ragged_and_tiny_shapes(self):
        opaque = self.opaque(0.5, 1.0)
        for shape in [(2, 2, 2), (3, 5, 6), (10, 4, 7), (13, 2, 9)]:
            vol = np.zeros(shape, dtype=np.float32)
            cells = raycast._occupancy(vol, opaque)
            assert cells.shape == tuple(-(-(n - 1) // raycast._CELL) for n in shape)
            vol[-1, -1, -1] = 1.0  # the far corner voxel is in the last cell
            cells = raycast._occupancy(vol, opaque)
            assert cells is None or (cells.sum() == 1 and cells[-1, -1, -1])

    def test_non_finite_voxels_occupy_their_cells(self):
        vol = np.zeros((9, 9, 9), dtype=np.float32)
        vol[6, 6, 6] = np.nan
        vol[1, 1, 1] = np.inf
        occupied = raycast._occupancy(vol, self.opaque(0.5, 0.6))
        assert occupied[1, 1, 1] and occupied[0, 0, 0] and occupied.sum() == 2


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_nan_voxel_renders_as_in_the_dense_march():
    """NaN classified through the cast-and-clip of the march lands in bin
    0 on both sides; skipping must neither raise nor change the image."""
    rng = np.random.default_rng(5)
    volume = (rng.random((11, 10, 9)) * 0.3).astype(np.float32)
    volume[5, 5, 5] = np.nan
    tf = TransferFunction.vortex()  # opaque at bin 0
    tf = TransferFunction(positions=tf.positions, colors=tf.colors[:-1] + ((1, 1, 1, 0.0),))
    camera = Camera(image_size=(20, 20))
    image = render_volume(volume, tf, camera)
    with all_occupied():
        unskipped = render_volume(volume, tf, camera)
    assert np.array_equal(image, unskipped, equal_nan=True)


@pytest.mark.parametrize("step", [0.05, 0.3])
def test_steps_longer_than_a_voxel_or_a_macrocell(step):
    """Segment length is derived from ``step``: 0.05 on a 24-wide axis is
    more than a voxel per sample, 0.3 more than a macrocell."""
    n = 24
    x, y, z = np.mgrid[0:n, 0:n, 0:n].astype(np.float32) / (n - 1)
    blob = np.exp(-((x - 0.4) ** 2 + (y - 0.6) ** 2 + (z - 0.5) ** 2) / 0.01)
    tf = TransferFunction.jet()
    camera = Camera(image_size=(24, 24), azimuth=37.0, elevation=11.0)
    image = render_volume(blob.astype(np.float32), tf, camera, step=step)
    assert image[..., 3].max() > 0
    dense = render_volume_dense(blob.astype(np.float32), tf, camera, step=step)
    assert np.abs(image - dense).max() <= 5e-4


@pytest.mark.parametrize("threshold", [0.0, -1.0])
def test_first_sample_is_taken_whatever_the_termination_threshold(threshold):
    """The march it replaced tested the threshold after each sample, so a
    threshold no ray can stay under still yields one sample per ray."""
    volume = turbulent_vortex(scale=0.25).volume(10)
    tf = TransferFunction.vortex()
    camera = Camera(image_size=(16, 16))
    image = render_volume(volume, tf, camera, early_termination=threshold)
    dense = render_volume_dense(volume, tf, camera, early_termination=threshold)
    assert image[..., 3].max() > 0
    assert np.abs(image - dense).max() <= 5e-4


def assert_concurrent_renders_equal_serial_ones(make_render):
    """``make_render(tf, camera)(volume)`` from two threads at once, a
    different time step each, four rounds started together: every image
    must be the one a serial one-shot render of that step gives."""
    dataset = turbulent_jet(scale=0.3)
    tf = TransferFunction.jet()
    camera = Camera(image_size=(40, 40))
    steps = (40, 47)
    volumes = [dataset.volume(t) for t in steps]
    serial = [render_volume(v, tf, camera, shading=True) for v in volumes]
    assert not np.array_equal(serial[0], serial[1])
    render = make_render(tf, camera)

    rounds = 4
    results = [[None] * rounds for _ in steps]
    errors = []
    barrier = threading.Barrier(len(steps))

    def worker(slot):
        try:
            for r in range(rounds):
                barrier.wait(timeout=60)
                results[slot][r] = render(volumes[slot])
        except BaseException as exc:  # reported by the assertion below
            errors.append(exc)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(len(steps))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)
    for slot, expected in enumerate(serial):
        for got in results[slot]:
            assert np.array_equal(got, expected)


def test_concurrent_renders_equal_serial_ones():
    """``render_volume`` runs on SPMD rank threads and pipelined group
    threads at once: no scratch or memo may be shared between calls."""
    assert_concurrent_renders_equal_serial_ones(
        lambda tf, camera: lambda v: render_volume(v, tf, camera, shading=True)
    )


def test_concurrent_renders_through_one_caster_equal_serial_ones():
    """The pipelined groups of a session share one ``RayCaster``, and their
    first renders start together: both may build the plan, one is kept,
    and both go on filling its rows while the other marches it."""
    casters = []

    def shared(tf, camera):
        casters.append(RayCaster(tf=tf, camera=camera, shading=True))
        return casters[0].render

    assert_concurrent_renders_equal_serial_ones(shared)
    assert len(casters[0]._plans) == 1
