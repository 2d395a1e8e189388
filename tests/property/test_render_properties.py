"""Property-based tests on rendering and compositing invariants."""

from unittest import mock

import numpy as np
from dense_reference import render_volume_dense
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.render import (
    Camera,
    RayCaster,
    TransferFunction,
    decompose,
    over,
    raycast,
    render_volume,
)
from repro.render.image import assemble_tiles, split_tiles


def premultiplied_images(shape=(4, 4)):
    def build(seed):
        rng = np.random.default_rng(seed)
        alpha = rng.random(shape + (1,)).astype(np.float32)
        rgb = rng.random(shape + (3,)).astype(np.float32) * alpha
        return np.concatenate([rgb, alpha], axis=2)

    return st.integers(0, 2**31 - 1).map(build)


@given(a=premultiplied_images(), b=premultiplied_images())
@settings(max_examples=50, deadline=None)
def test_over_output_stays_premultiplied_and_bounded(a, b):
    out = over(a, b)
    assert (out >= -1e-6).all()
    assert (out[..., 3] <= 1.0 + 1e-5).all()
    assert (out[..., :3] <= out[..., 3:4] + 1e-5).all()


@given(a=premultiplied_images(), b=premultiplied_images(), c=premultiplied_images())
@settings(max_examples=50, deadline=None)
def test_over_associativity(a, b, c):
    left = over(over(a, b), c)
    right = over(a, over(b, c))
    assert np.allclose(left, right, atol=1e-5)


@given(a=premultiplied_images())
@settings(max_examples=25, deadline=None)
def test_over_identity_with_transparent(a):
    clear = np.zeros_like(a)
    assert np.allclose(over(clear, a), a, atol=1e-7)
    assert np.allclose(over(a, clear), a, atol=1e-7)


@given(
    nx=st.integers(4, 24),
    ny=st.integers(4, 24),
    nz=st.integers(4, 24),
    n=st.integers(1, 8),
)
@settings(max_examples=50, deadline=None)
def test_decompose_covers_and_balances(nx, ny, nz, n):
    shape = (nx, ny, nz)
    dec = decompose(shape, n)
    assert len(dec) == n
    cover = np.zeros(shape, dtype=np.int32)
    for brick in dec:
        assert all(0 <= a < b <= s for (a, b), s in zip(brick.index_ranges, shape))
        cover[brick.slices] += 1
    assert (cover >= 1).all()


@given(
    h=st.integers(2, 64),
    w=st.integers(1, 16),
    seed=st.integers(0, 2**31 - 1),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_split_assemble_inverse(h, w, seed, data):
    n = data.draw(st.integers(1, h))
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    assert np.array_equal(assemble_tiles(split_tiles(img, n)), img)


@given(az=st.floats(-360, 360), el=st.floats(-89, 89))
@settings(max_examples=50, deadline=None)
def test_camera_basis_always_orthonormal(az, el):
    cam = Camera(azimuth=az, elevation=el)
    right, up, fwd = cam.basis()
    eye = np.stack([right, up, fwd])
    assert np.allclose(eye @ eye.T, np.eye(3), atol=1e-9)


@given(
    seed=st.integers(0, 2**31 - 1),
    az=st.floats(0, 360),
    el=st.floats(-80, 80),
)
@settings(max_examples=10, deadline=None)
def test_render_alpha_never_exceeds_one(seed, az, el):
    rng = np.random.default_rng(seed)
    vol = rng.random((10, 10, 10)).astype(np.float32)
    img = render_volume(
        vol,
        TransferFunction.vortex(),
        Camera(image_size=(12, 12), azimuth=az, elevation=el),
    )
    assert img[..., 3].max() <= 1.0 + 1e-5
    assert (img >= -1e-6).all()


# -- empty-space skipping ------------------------------------------------------
#
# The coarse per-ray pass is conservative only while a segment is shorter
# than a macrocell, the per-sample pass only while a cell's [min, max]
# bounds every sample taken in it, whatever the transfer function does
# between them.  Everything the caller controls is drawn at random and the
# image held against two oracles: the same renderer with every macrocell
# reported occupied (must be identical) and the dense march in
# tests/dense_reference.py (must agree to float32 rounding).

CELL = raycast._CELL


@st.composite
def volumes(draw):
    # per axis: below one macrocell, exactly one, ragged -- or enough cells
    # that one cell and its neighbours are far from the whole brick, which
    # is where a segment that is too long gets to jump over data
    small = st.sampled_from([2, 3, CELL, CELL + 1, CELL + 2, 2 * CELL + 3])
    large = st.integers(4 * CELL + 1, 7 * CELL)
    dims = large if draw(st.booleans()) else st.one_of(small, large)
    shape = (draw(dims), draw(dims), draw(dims))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    kind = draw(st.sampled_from(
        ["noise", "constant", "out_of_range", "band_gap",
         "corner_voxel", "face_voxel", "lone_voxel", "slab", "slab"]
    ))
    if kind == "noise":
        vol = rng.random(shape) ** 3  # mostly low values, a few high
    elif kind == "constant":
        vol = np.full(shape, draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])))
    elif kind == "out_of_range":
        vol = rng.random(shape) * 4.0 - 1.5
    elif kind == "band_gap":
        # no voxel in (0.1, 0.9): only interpolated samples fall between
        vol = np.where(rng.random(shape) < 0.5, 0.1, 0.9)
    elif kind == "slab":
        # one voxel plane in empty space: every ray through the brick has
        # exactly one short stretch that must not be jumped over
        vol = np.zeros(shape)
        axis = int(rng.integers(0, 3))
        vol[(slice(None),) * axis + (int(rng.integers(0, shape[axis])),)] = 1.0
    else:
        vol = np.zeros(shape)
        at = [int(rng.integers(0, n)) for n in shape]
        if kind == "corner_voxel":  # where eight macrocells meet, if they do
            at = [min(CELL * int(rng.integers(1, 4)), n - 1) for n in shape]
        elif kind == "face_voxel":  # on a face of the brick
            axis = int(rng.integers(0, 3))
            at[axis] = int(rng.choice([0, shape[axis] - 1]))
        vol[tuple(at)] = 1.0
    return vol.astype(np.float32)


@st.composite
def transfer_functions(draw):
    if draw(st.booleans()):
        # band-pass: opaque on [0.4, 0.6] only
        a = draw(st.floats(0.05, 0.9))
        return TransferFunction(
            positions=(0.0, 0.39, 0.4, 0.6, 0.61, 1.0),
            colors=((0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, a), (1, 1, 0, a),
                    (1, 0, 0, 0), (1, 1, 1, 0)),
        )
    n = draw(st.integers(2, 6))
    cuts = sorted(draw(st.sets(st.integers(1, 99), min_size=n - 2, max_size=n - 2)))
    positions = (0.0,) + tuple(c / 100 for c in cuts) + (1.0,)
    colors = tuple(
        (
            draw(st.floats(0, 1)), draw(st.floats(0, 1)), draw(st.floats(0, 1)),
            # transparent stretches anywhere, not only at the low end
            draw(st.sampled_from([0.0, 0.0, 0.02, 0.3, 0.9])),
        )
        for _ in positions
    )
    return TransferFunction(positions=positions, colors=colors)


@st.composite
def boxes(draw):
    if draw(st.booleans()):
        return ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    lo = tuple(draw(st.floats(0.0, 0.6)) for _ in range(3))
    hi = tuple(l + draw(st.floats(0.1, 0.4)) for l in lo)
    return lo, hi


@given(
    volume=volumes(),
    tf=transfer_functions(),
    box=boxes(),
    # off the axes: an axis-aligned ray ends exactly on a sample and the
    # two marches may then disagree on whether that last one is inside
    quadrant=st.integers(0, 3),
    az=st.floats(3.0, 87.0),
    el=st.floats(3.0, 80.0),
    up=st.booleans(),
    projection=st.sampled_from(["orthographic", "perspective"]),
    zoom=st.floats(0.8, 2.5),
    step=st.one_of(st.none(), st.floats(0.01, 0.6)),
    early_termination=st.floats(0.2, 1.5),
    shading=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_skipping_never_changes_the_image(
    volume, tf, box, quadrant, az, el, up, projection, zoom, step,
    early_termination, shading,
):
    camera = Camera(
        image_size=(20, 24),
        azimuth=90.0 * quadrant + az,
        elevation=el if up else -el,
        projection=projection,
        zoom=zoom,
    )
    kwargs = dict(
        box=box, step=step, early_termination=early_termination, shading=shading
    )
    image = render_volume(volume, tf, camera, **kwargs)
    with mock.patch.object(raycast, "_occupancy", lambda vol, opaque: None):
        unskipped = render_volume(volume, tf, camera, **kwargs)
    assert np.array_equal(image, unskipped)
    dense = render_volume_dense(volume, tf, camera, **kwargs)
    assert np.abs(image - dense).max() <= 5e-4


# -- ray plans -----------------------------------------------------------------
#
# A caster marches the plan it built on its first render again on every
# later one, against whatever volume it is handed.  Nothing in the plan may
# depend on the voxels of the render that built it: the first (cold) and
# the later (warm) renders, each of a different volume, must be the images
# one-shot render_volume calls give.


@given(
    volume=volumes(),
    seed=st.integers(0, 2**31 - 1),
    tf=transfer_functions(),
    box=boxes(),
    quadrant=st.integers(0, 3),
    az=st.floats(3.0, 87.0),
    el=st.floats(-80.0, 80.0),
    projection=st.sampled_from(["orthographic", "perspective"]),
    zoom=st.floats(0.8, 2.5),
    step=st.one_of(st.none(), st.floats(0.01, 0.6)),
    early_termination=st.floats(0.2, 1.5),
    shading=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_a_caster_renders_what_one_shot_calls_render(
    volume, seed, tf, box, quadrant, az, el, projection, zoom, step,
    early_termination, shading,
):
    camera = Camera(
        image_size=(20, 24),
        azimuth=90.0 * quadrant + az,
        elevation=el,
        projection=projection,
        zoom=zoom,
    )
    caster = RayCaster(
        tf=tf, camera=camera, step=step,
        early_termination=early_termination, shading=shading,
    )
    rng = np.random.default_rng(seed)
    # the drawn volume builds the plan; a dense one (every ray runs until
    # it saturates) and the drawn one reversed (sparse where the first was
    # not) then march it
    later = [
        rng.random(volume.shape).astype(np.float32),
        np.ascontiguousarray(volume[::-1, ::-1, ::-1]),
    ]
    for v in [volume] + later:
        expected = render_volume(
            v, tf, camera, box=box, step=step,
            early_termination=early_termination, shading=shading,
        )
        assert np.array_equal(caster.render(v, box), expected)
    assert len(caster._plans) == 1
