"""The dense, step-synchronous ray march ``render_volume`` replaced, kept
as a test oracle.

Every live ray takes one sample per iteration and every sample is
interpolated, classified and composited -- nothing is skipped, nothing
is shared with ``repro.render.raycast`` except the box intersection.
Tests require the renderer's image to stay within float32 rounding of
this one.  Not collected by pytest (no ``test_`` prefix); import it as
``dense_reference`` (``tests/`` is on ``sys.path`` through conftest.py).
"""

from __future__ import annotations

import numpy as np

from repro.render.raycast import _intersect_box

LUT_SIZE = 1024


def trilinear_dense(vol, coords):
    """Eight separate taps at ``(n, 3)`` float64 voxel coordinates."""
    nx, ny, nz = vol.shape
    x = np.clip(coords[:, 0], 0.0, nx - 1)
    y = np.clip(coords[:, 1], 0.0, ny - 1)
    z = np.clip(coords[:, 2], 0.0, nz - 1)
    x0 = np.minimum(x.astype(np.int64), nx - 2)
    y0 = np.minimum(y.astype(np.int64), ny - 2)
    z0 = np.minimum(z.astype(np.int64), nz - 2)
    fx = (x - x0).astype(np.float32)
    fy = (y - y0).astype(np.float32)
    fz = (z - z0).astype(np.float32)
    c00 = vol[x0, y0, z0] * (1 - fz) + vol[x0, y0, z0 + 1] * fz
    c01 = vol[x0, y0 + 1, z0] * (1 - fz) + vol[x0, y0 + 1, z0 + 1] * fz
    c10 = vol[x0 + 1, y0, z0] * (1 - fz) + vol[x0 + 1, y0, z0 + 1] * fz
    c11 = vol[x0 + 1, y0 + 1, z0] * (1 - fz) + vol[x0 + 1, y0 + 1, z0 + 1] * fz
    c0 = c00 * (1 - fy) + c01 * fy
    c1 = c10 * (1 - fy) + c11 * fy
    return c0 * (1 - fx) + c1 * fx


def lambert_dense(vol, coords, scale, light, ambient):
    grad = np.empty((coords.shape[0], 3), dtype=np.float32)
    for axis in range(3):
        offset = np.zeros(3)
        offset[axis] = 1.0
        plus = trilinear_dense(vol, coords + offset)
        minus = trilinear_dense(vol, coords - offset)
        grad[:, axis] = (plus - minus) * (0.5 * scale[axis])
    norms = np.linalg.norm(grad, axis=1)
    diffuse = np.abs(grad @ light.astype(np.float32)) / np.maximum(norms, 1e-12)
    diffuse = np.where(norms < 1e-8, 1.0, diffuse)
    return (ambient + (1.0 - ambient) * diffuse).astype(np.float32)


def render_volume_dense(
    volume,
    tf,
    camera,
    *,
    box=((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
    step=None,
    early_termination=0.98,
    shading=False,
    light_direction=(-0.5, -0.3, -0.8),
    ambient=0.35,
):
    vol = np.ascontiguousarray(volume, dtype=np.float32)
    h, w = camera.image_size
    origins, direction = camera.rays()
    lo = np.asarray(box[0], dtype=np.float64)
    span = np.asarray(box[1], dtype=np.float64) - lo
    if step is None:
        step = float((span / np.maximum(np.asarray(vol.shape) - 1, 1)).min()) * 0.5
    t0, t1 = _intersect_box(origins, direction, box)
    rgb = np.zeros((origins.shape[0], 3), dtype=np.float32)
    alpha = np.zeros(origins.shape[0], dtype=np.float32)
    light = np.asarray(light_direction, dtype=np.float64)
    light = light / np.linalg.norm(light)

    per_ray = direction.ndim == 2
    active = np.flatnonzero(t1 > t0)
    if active.size:
        tcur = t0[active].copy()
        tend = t1[active]
        scale = (np.asarray(vol.shape, dtype=np.float64) - 1) / span
        lut = tf.sample(
            np.linspace(0.0, 1.0, LUT_SIZE + 1, dtype=np.float32), step=step
        ).astype(np.float32)
        while active.size:
            d = direction[active] if per_ray else direction[None, :]
            pos = origins[active] + tcur[:, None] * d
            coords = (pos - lo[None, :]) * scale[None, :]
            values = trilinear_dense(vol, coords)
            idx = np.rint(values * LUT_SIZE).astype(np.int64)
            np.clip(idx, 0, LUT_SIZE, out=idx)
            rgba = lut[idx]
            if shading:
                shade = lambert_dense(vol, coords, scale, light, ambient)
                rgba = rgba.copy()
                rgba[:, :3] *= shade[:, None]
            a_in = alpha[active]
            contrib = (1.0 - a_in) * rgba[:, 3]
            rgb[active] += contrib[:, None] * rgba[:, :3]
            alpha[active] = a_in + contrib
            tcur += step
            keep = (tcur < tend) & (alpha[active] < early_termination)
            if not keep.all():
                active = active[keep]
                tcur = tcur[keep]
                tend = tend[keep]

    out = np.concatenate([rgb, alpha[:, None]], axis=1)
    return out.reshape(h, w, 4)
