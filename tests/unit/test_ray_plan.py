"""``RayPlan`` and its owner ``RayCaster``: what is kept between renders
is read-only, bounded, checked against the call it is used for, and the
march's scratch no longer grows with the image."""

import tracemalloc

import numpy as np
import pytest

from repro.data import turbulent_jet, turbulent_vortex
from repro.render import Camera, RayCaster, RayPlan, TransferFunction, render_volume
from repro.render import raycast

UNIT = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


@pytest.fixture(scope="module")
def jet():
    return turbulent_jet(scale=0.3).volume(40)


def handed_out(plan, cells=True):
    """Every array a march gets from ``plan``, rows included."""
    arrays = [plan.pix, plan.c0, plan.dc, plan.n, plan.scale]
    arrays += [row for _, _, row in plan.segments(cells=cells) if row is not None]
    return arrays


@pytest.mark.parametrize("projection", ["orthographic", "perspective"])
def test_a_plan_is_read_only_and_a_march_leaves_it_as_it_was(jet, projection):
    camera = Camera(image_size=(40, 40), projection=projection)
    caster = RayCaster(tf=TransferFunction.jet(), camera=camera)
    first = caster.render(jet)  # fills the rows this volume needs
    plan = caster.plan(jet.shape)
    arrays = handed_out(plan)
    assert len(arrays) > 5  # the jet has space to skip: rows exist
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
    before = [a.tobytes() for a in arrays]
    again = caster.render(jet)
    assert caster.plan(jet.shape) is plan
    assert [a.tobytes() for a in handed_out(plan)] == before
    assert np.array_equal(first, again)


def test_rows_are_filled_when_a_march_first_needs_them(jet):
    camera = Camera(image_size=(40, 40))
    dense = RayCaster(tf=TransferFunction.vortex(), camera=camera)  # opaque everywhere
    dense.render(jet)
    plan = dense.plan(jet.shape)
    fixed = plan.nbytes
    assert fixed == sum(a.nbytes for a in (plan.pix, plan.c0, plan.dc, plan.n))
    # the same plan under a function with something to skip: rows appear,
    # in the narrowest integer that holds this grid's cell ids
    render_volume(jet, TransferFunction.jet(), camera, plan=plan)
    assert plan.nbytes > fixed
    n_cells = int(np.prod(plan.grid))
    assert n_cells > 256
    rows = [row for _, _, row in plan.segments(cells=True)]
    assert {row.dtype for row in rows} == {np.dtype(np.uint16)}
    tiny = RayPlan(camera, UNIT, (9, 9, 9), 0.05)
    assert {row.dtype for _, _, row in tiny.segments(cells=True)} == {np.dtype(np.uint8)}
    # aligned with the rays that reach the segment, which only ever shrink
    sizes = [reach.size for _, reach, _ in plan.segments(cells=False)]
    assert sizes == sorted(sizes, reverse=True) and sizes[0] == plan.pix.size
    assert [row.size for row in rows] == sizes


def test_a_plan_made_for_other_parameters_is_rejected(jet):
    tf = TransferFunction.jet()
    camera = Camera(image_size=(32, 32))
    half = ((0.0, 0.0, 0.0), (0.5, 1.0, 1.0))
    plan = RayCaster(tf=tf, camera=camera).plan(jet.shape)
    assert np.array_equal(
        render_volume(jet, tf, camera, plan=plan), render_volume(jet, tf, camera)
    )
    # spelled differently, still the same parameters
    render_volume(jet, tf, Camera(image_size=(32, 32)), box=((0, 0, 0), (1, 1, 1)),
                  step=plan.step, plan=plan)
    with pytest.raises(ValueError, match="plan is for"):
        render_volume(jet, tf, camera.with_view(31.0, 20.0), plan=plan)
    with pytest.raises(ValueError, match="plan is for"):
        render_volume(jet, tf, camera, box=half, plan=plan)
    with pytest.raises(ValueError, match="plan is for"):
        render_volume(jet[:-1], tf, camera, plan=plan)
    with pytest.raises(ValueError, match="plan is for"):
        render_volume(jet, tf, camera, step=plan.step * 2, plan=plan)


def test_assigning_a_camera_to_a_caster_cannot_march_a_stale_plan(jet):
    tf = TransferFunction.jet()
    caster = RayCaster(tf=tf, camera=Camera(image_size=(32, 32)))
    caster.render(jet)
    caster.camera = Camera(image_size=(32, 32), azimuth=120.0, elevation=-35.0)
    assert np.array_equal(caster.render(jet), render_volume(jet, tf, caster.camera))


def test_a_caster_keeps_a_bounded_number_of_plans(jet):
    """A box that moves every step (``cull=True``), or more bricks than
    the bound: each render is a cold one, the map does not grow, and the
    most recently used plans are the ones kept."""
    tf = TransferFunction.jet()
    caster = RayCaster(tf=tf, camera=Camera(image_size=(16, 16)))
    boxes = [((0.0, 0.0, 0.0), (0.5 + 0.004 * i, 1.0, 1.0)) for i in range(100)]
    for box in boxes:
        image = caster.render(jet, box)
        assert len(caster._plans) <= raycast._PLANS
    assert np.array_equal(image, render_volume(jet, tf, caster.camera, box=boxes[-1]))
    kept = [caster.plan(jet.shape, box) for box in boxes[-raycast._PLANS:]]
    assert [id(p) for p in kept] == [id(p) for p in caster._plans.values()]
    assert len(caster._plans) == raycast._PLANS


def test_march_scratch_does_not_grow_with_the_image():
    """More live rays in one step than ``_BATCH`` used to be classified in
    one pass, so the eight-corner gather block scaled with the image
    (63 MB at 512x512 against 16 MB at 256x256 for this volume).  Cut
    into passes, what is left to scale is per ray and per pixel: the
    image, and gathered copies of the plan's columns."""
    volume = turbulent_vortex(scale=0.5).volume(10)
    tf = TransferFunction.vortex()  # opaque everywhere: every ray is live
    peak, extra = {}, {}
    for size in (256, 512):
        caster = RayCaster(tf=tf, camera=Camera(image_size=(size, size)))
        plan = caster.plan(volume.shape)  # set-up is not the march
        assert plan.pix.size > raycast._BATCH
        tracemalloc.start()
        try:
            image = caster.render(volume)
            peak[size] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra[size] = image.nbytes + plan.nbytes
    assert peak[512] <= 1.1 * peak[256] + extra[512], (peak, extra)
