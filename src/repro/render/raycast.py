"""Vectorized ray-casting volume renderer.

The paper uses "a parallel ray-casting volume renderer [16] … reasonably
optimized and capable of generating high quality images".  This is that
renderer's algorithm in NumPy: per-pixel parallel rays, front-to-back
alpha compositing of trilinearly-interpolated samples, early ray
termination, and subvolume (brick) rendering for the parallel
decomposition — each processor renders its brick *independent of other
processors*, producing a premultiplied partial RGBA image.

The march never classifies a sample it can prove transparent.  Each call
builds a min/max macrocell grid over its (sub)volume and marks a cell
occupied iff some look-up-table entry reachable from the cell's value
range has non-zero opacity (:func:`_occupancy`).  Rays then advance in
segments shorter than a macrocell: a segment whose first cell has no
occupied neighbour is dropped whole (so are rays that never come near
data), the samples of the remaining segments are tested against their own
cell before the eight-tap gather, and samples that classify to zero
opacity leave before colour and shading.  A sample of opacity 0 adds
exactly ``0.0`` to colour and alpha, so none of this is an approximation:
the image is the one a dense march over the same sample lattice
``t0 + k·step`` with the same per-sample early termination produces.
Surviving samples are classified a batch of steps at a time and
composited front to back in step order; scratch scales with the live
samples of one batch, not with rays × steps, and there is no module-level
state, so concurrent calls (SPMD rank threads, pipelined groups) are safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.render.camera import Camera
from repro.render.transfer_function import TransferFunction

__all__ = [
    "render_volume",
    "sample_trilinear",
    "RayCaster",
    "cull_empty_space",
]

Box = tuple[tuple[float, float, float], tuple[float, float, float]]
_FULL_BOX: Box = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
_LUT_SIZE = 1024  # classification look-up-table resolution
_CELL_SHIFT = 2
_CELL = 1 << _CELL_SHIFT  # macrocell edge in voxel cells
_BATCH = 1 << 15  # samples classified per NumPy pass (arrays stay in L2)
_PIXEL = np.dtype((np.void, 16))  # a pixel's four float32 as one item


def _cells(c: np.ndarray, shape) -> tuple[np.ndarray, np.ndarray]:
    """Clamp ``(3, ...)`` voxel coordinates and find the voxel cell of each.

    Edge extension: a coordinate clamps to ``[0, n - 1]`` and its cell to
    ``n - 2``, so the last voxel plane is cell ``n - 2`` at fraction
    exactly 1 -- boundary samples are exact whatever the coordinate dtype.
    """
    n = np.reshape(shape, (3,) + (1,) * (c.ndim - 1))
    c = np.clip(c, 0.0, n - 1.0)
    return c, np.minimum(c.astype(np.intp), n - 2)


def _interp(vol: np.ndarray, c: np.ndarray, i: np.ndarray) -> np.ndarray:
    """Trilinear blend of contiguous ``vol`` at clamped coordinates ``c``
    in cells ``i`` (both ``(3, n)``, from :func:`_cells`)."""
    sx, sy = vol.shape[1] * vol.shape[2], vol.shape[2]
    f = (c - i).astype(np.float32)
    g = 1 - f
    # all eight corners in one gather: rows pair up for the z, then the
    # y, then the x blend
    corners = np.array([0, sx, sy, sx + sy, 1, sx + 1, sy + 1, sx + sy + 1])
    v = vol.reshape(-1).take((i[0] * sx + i[1] * sy + i[2]) + corners[:, None])
    v = v[:4] * g[2] + v[4:] * f[2]
    v = v[:2] * g[1] + v[2:] * f[1]
    return v[0] * g[0] + v[1] * f[0]


def sample_trilinear(volume: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of ``volume`` at ``(n, 3)`` voxel coords.

    Coordinates are clamped to the valid range (edge extension), matching
    a renderer that treats brick boundaries as repeated boundary voxels.
    """
    vol = np.ascontiguousarray(volume)
    c, i = _cells(np.asarray(coords).T, vol.shape)
    return _interp(vol, c, i)


def cull_empty_space(
    volume: np.ndarray, threshold: float = 0.0, box: Box = _FULL_BOX
) -> tuple[np.ndarray, Box] | None:
    """Crop a volume to the voxels that can contribute.

    Data-dependent cropping for sparse data (the jet's plume occupies a
    small fraction of its grid): returns ``(cropped_volume, tight_box)``
    where the cropped array spans exactly ``tight_box`` in world space —
    ready to pass straight to :func:`render_volume`.  It does not make a
    render faster: :func:`render_volume` skips empty space on its own,
    cell by cell, whatever box it is given.  What the crop buys is
    everything *around* the march — a smaller array to hold and
    distribute, and, in ``RemoteVisualizationSession(cull=True)``, a
    decomposition over the occupied box, so each rank's brick holds a
    like share of the data instead of some ranks owning only air.  The
    crop is padded by one voxel per side so trilinear support at the cut
    is preserved, and the transfer function must map values ≤
    ``threshold`` to zero opacity for the culled image to be exact.

    Returns ``None`` when nothing exceeds the threshold (a fully
    transparent frame).
    """
    vol = np.asarray(volume)
    if vol.ndim != 3:
        raise ValueError(f"volume must be 3-D, got {vol.shape}")
    occupied = vol > threshold
    if not occupied.any():
        return None
    lo_w = np.asarray(box[0], dtype=np.float64)
    hi_w = np.asarray(box[1], dtype=np.float64)
    span = hi_w - lo_w
    slices = []
    lo_idx = []
    hi_idx = []
    for axis in range(3):
        profile = occupied.any(axis=tuple(a for a in range(3) if a != axis))
        nz = np.flatnonzero(profile)
        a = max(int(nz[0]) - 1, 0)
        b = min(int(nz[-1]) + 1, vol.shape[axis] - 1)
        if b - a < 1:  # keep at least a 2-voxel slab for interpolation
            b = min(a + 1, vol.shape[axis] - 1)
            a = max(b - 1, 0)
        lo_idx.append(a)
        hi_idx.append(b)
        slices.append(slice(a, b + 1))
    denom = [max(n - 1, 1) for n in vol.shape]
    new_lo = tuple(
        float(lo_w[a] + span[a] * lo_idx[a] / denom[a]) for a in range(3)
    )
    new_hi = tuple(
        float(lo_w[a] + span[a] * hi_idx[a] / denom[a]) for a in range(3)
    )
    return np.ascontiguousarray(vol[tuple(slices)]), (new_lo, new_hi)


def _cell_reduce(a: np.ndarray, axis: int, ufunc) -> np.ndarray:
    """``ufunc``-reduce ``a`` per macrocell along ``axis``: cell ``m`` takes
    the planes ``m*_CELL .. (m+1)*_CELL`` inclusive, as far as they exist
    (neighbouring cells share a voxel plane)."""
    a = np.moveaxis(a, axis, 0)
    cells = a[0 : len(a) - 1 : _CELL].copy()
    for j in range(1, _CELL + 1):
        part = a[j::_CELL][: len(cells)]
        ufunc(cells[: len(part)], part, out=cells[: len(part)])
    return np.moveaxis(cells, 0, axis)


def _occupancy(vol: np.ndarray, opaque: np.ndarray) -> np.ndarray | None:
    """Which macrocells can hold a sample of non-zero opacity.

    Cell ``m`` of an axis covers the voxel cells ``m*_CELL ..
    m*_CELL + _CELL - 1``, so its min/max span the voxels ``m*_CELL ..
    (m+1)*_CELL`` inclusive (neighbouring cells share a voxel plane) and
    bound every trilinear sample taken in it.  ``opaque`` flags the LUT
    entries with alpha > 0; a cell is occupied iff any entry reachable
    from ``[min, max]``, widened by one bin for float32 lerp and ``rint``
    rounding, is flagged -- a range count on a prefix sum, so band-pass
    and non-monotonic transfer functions need no special case.

    Returns ``None`` when every cell is occupied (nothing to skip).
    """
    if opaque.all():
        return None
    lo = hi = vol
    for axis in range(3):
        lo = _cell_reduce(lo, axis, np.minimum)
        hi = _cell_reduce(hi, axis, np.maximum)
    with np.errstate(over="ignore"):
        lo = np.rint(lo * _LUT_SIZE) - 1
        hi = np.rint(hi * _LUT_SIZE) + 1
    # a cell holding NaN or inf voxels may classify into any bin
    wild = ~(np.isfinite(lo) & np.isfinite(hi))
    lo[wild], hi[wild] = 0, _LUT_SIZE
    below = np.concatenate(([0], np.cumsum(opaque)))  # flagged entries < i
    occupied = (
        below[np.clip(hi, 0, _LUT_SIZE).astype(np.intp) + 1]
        > below[np.clip(lo, 0, _LUT_SIZE).astype(np.intp)]
    )
    return None if occupied.all() else occupied


def _dilate(cells: np.ndarray) -> np.ndarray:
    """``cells`` OR-ed with their 26 neighbours."""
    for axis in range(3):
        a = np.moveaxis(cells, axis, 0)
        grown = a.copy()
        grown[:-1] |= a[1:]
        grown[1:] |= a[:-1]
        cells = np.moveaxis(grown, 0, axis)
    return cells


def _lambert(
    vol: np.ndarray, c: np.ndarray, scale: np.ndarray, light: np.ndarray, ambient: float
) -> np.ndarray:
    """Lambertian term at ``(3, n)`` voxel coordinates ``c`` from
    central-difference gradients.

    Gradients are taken in voxel space and rescaled to world space with
    ``scale`` so shading is consistent across anisotropic bricks; the
    absolute dot product lights both gradient orientations (volume data
    has no consistent surface orientation).
    """
    grad = np.empty((c.shape[1], 3), dtype=np.float32)
    for axis in range(3):
        offset = np.zeros((3, 1))
        offset[axis] = 1.0
        plus = _interp(vol, *_cells(c + offset, vol.shape))
        minus = _interp(vol, *_cells(c - offset, vol.shape))
        grad[:, axis] = (plus - minus) * (0.5 * scale[axis])
    norms = np.linalg.norm(grad, axis=1)
    safe = np.maximum(norms, 1e-12)
    diffuse = np.abs(grad @ light) / safe
    # flat regions (no gradient) shade fully ambient-to-diffuse neutral
    diffuse = np.where(norms < 1e-8, 1.0, diffuse)
    return (ambient + (1.0 - ambient) * diffuse).astype(np.float32)


def _intersect_box(
    origins: np.ndarray, direction: np.ndarray, box: Box
) -> tuple[np.ndarray, np.ndarray]:
    """Slab-method entry/exit distances of each ray with ``box``.

    ``direction`` is either a shared ``(3,)`` vector (orthographic) or a
    per-ray ``(N, 3)`` array (perspective).
    """
    lo = np.asarray(box[0], dtype=np.float64)
    hi = np.asarray(box[1], dtype=np.float64)
    n = origins.shape[0]
    t0 = np.zeros(n)
    t1 = np.full(n, np.inf)
    per_ray = direction.ndim == 2
    for axis in range(3):
        d = direction[:, axis] if per_ray else direction[axis]
        o = origins[:, axis]
        if not per_ray:
            if abs(d) < 1e-12:
                outside = (o < lo[axis]) | (o > hi[axis])
                t1 = np.where(outside, -np.inf, t1)
                continue
            ta = (lo[axis] - o) / d
            tb = (hi[axis] - o) / d
        else:
            parallel = np.abs(d) < 1e-12
            safe = np.where(parallel, 1.0, d)
            ta = (lo[axis] - o) / safe
            tb = (hi[axis] - o) / safe
            if parallel.any():
                outside = parallel & ((o < lo[axis]) | (o > hi[axis]))
                t1 = np.where(outside, -np.inf, t1)
                # inside-and-parallel rays impose no constraint this axis
                ta = np.where(parallel, -np.inf, ta)
                tb = np.where(parallel, np.inf, tb)
        near = np.minimum(ta, tb)
        far = np.maximum(ta, tb)
        t0 = np.maximum(t0, near)
        t1 = np.minimum(t1, far)
    return t0, t1


def render_volume(
    volume: np.ndarray,
    tf: TransferFunction,
    camera: Camera,
    *,
    box: Box = _FULL_BOX,
    step: float | None = None,
    early_termination: float = 0.98,
    shading: bool = False,
    light_direction: tuple[float, float, float] = (-0.5, -0.3, -0.8),
    ambient: float = 0.35,
) -> np.ndarray:
    """Render a (sub)volume into a premultiplied RGBA float32 image.

    Parameters
    ----------
    volume:
        3-D float32 scalar grid in [0, 1].  When ``box`` is not the unit
        cube, the grid spans exactly ``box`` in world space — the brick a
        processor was assigned by the data-input stage.
    tf, camera:
        Classification and view.
    step:
        World-space sampling distance; defaults to half the smallest voxel
        spacing of the *full* volume implied by ``box``.
    early_termination:
        Accumulated-opacity threshold past which a ray stops.
    shading:
        Lambertian gradient shading ("high quality images", at the cost
        of six extra gradient taps per sample): sample color is scaled by
        ``ambient + (1-ambient)·|∇f · L|``.
    light_direction, ambient:
        Directional light (world space, normalized internally) and the
        ambient floor of the shading term.

    Returns
    -------
    ``(H, W, 4)`` float32 premultiplied-alpha image; pixels whose rays
    miss ``box`` keep alpha 0, so partial images composite with ``over``.
    """
    if volume.ndim != 3:
        raise ValueError(f"volume must be 3-D, got shape {volume.shape}")
    vol = np.ascontiguousarray(volume, dtype=np.float32)
    h, w = camera.image_size
    origins, direction = camera.rays()

    lo = np.asarray(box[0], dtype=np.float64)
    hi = np.asarray(box[1], dtype=np.float64)
    span = hi - lo
    if np.any(span <= 0):
        raise ValueError(f"degenerate box {box}")
    if step is None:
        # voxel spacing along each axis in world units
        spacing = span / np.maximum(np.asarray(vol.shape) - 1, 1)
        step = float(spacing.min()) * 0.5
    if step <= 0:
        raise ValueError("step must be positive")

    t0, t1 = _intersect_box(origins, direction, box)
    out = np.zeros((origins.shape[0], 4), dtype=np.float32)
    # whole-pixel items: 1-D fancy assignment is several times faster
    # than scattering (n, 4) rows
    pixels = out.view(_PIXEL).reshape(-1)

    if shading:
        light = np.asarray(light_direction, dtype=np.float64)
        norm = np.linalg.norm(light)
        if norm < 1e-12 or not 0.0 <= ambient <= 1.0:
            raise ValueError("bad light_direction or ambient")
        light = (light / norm).astype(np.float32)

    pix = np.flatnonzero(t1 > t0)  # pixel of each ray that hits the box
    if pix.size:
        shape = vol.shape
        scale = (np.asarray(shape, dtype=np.float64) - 1) / span
        # Classification LUT: one opacity-corrected table lookup per
        # sample instead of four np.interp evaluations; 1/1024 scalar
        # quantization is far below voxel noise.  Opacity is gathered on
        # its own; the colour table carries 1 in its alpha slot so one
        # scaled add accumulates colour and opacity together.
        lut = tf.sample(
            np.linspace(0.0, 1.0, _LUT_SIZE + 1, dtype=np.float32), step=step
        ).astype(np.float32)
        lut_alpha = lut[:, 3].copy()
        lut[:, 3] = 1.0

        # Rays in voxel space, one row per axis: sample k of ray r sits
        # at c0[:, r] + k * dc[:, r] (dc is shared when rays are parallel).
        per_ray = direction.ndim == 2
        d = direction[pix] if per_ray else direction[None, :]
        c0 = np.ascontiguousarray(
            ((origins[pix] + t0[pix, None] * d - lo) * scale).T
        )
        dc = np.ascontiguousarray((d * (scale * step)).T)
        n = np.ceil((t1[pix] - t0[pix]) / step).astype(np.intp)  # samples per ray

        occupied = _occupancy(vol, lut_alpha > 0)
        if occupied is not None:
            cy, cz = occupied.shape[1:]
            nearby = _dilate(occupied).reshape(-1)
            occupied = occupied.reshape(-1)

            def cell_of(i):
                m = i >> _CELL_SHIFT
                return (m[0] * cy + m[1]) * cz + m[2]

        # Samples per segment.  Directions are unit vectors, so a sample
        # moves at most step * scale.max() voxels along any axis: the
        # segment spans less than one macrocell per axis and every sample
        # of it lies in the first sample's cell or one of its neighbours.
        seg = max(1, int(_CELL / (step * scale.max())))

        alive = np.arange(pix.size)
        for k0 in range(0, int(n.max()), seg):
            alive = alive[n.take(alive) > k0]
            if not alive.size:
                break
            rays = alive
            if occupied is not None:
                start = c0.take(rays, axis=1) + k0 * (
                    dc.take(rays, axis=1) if per_ray else dc
                )
                rays = rays[nearby.take(cell_of(_cells(start, shape)[1]))]
                if not rays.size:
                    continue
            ray_c0 = c0.take(rays, axis=1)[:, None, :]
            ray_dc = dc.take(rays, axis=1)[:, None, :] if per_ray else dc[:, :, None]
            ray_n = n.take(rays)
            ray_pix = pix.take(rays)
            batch = max(1, _BATCH // rays.size)
            for k1 in range(k0, k0 + seg, batch):
                ks = np.arange(k1, min(k1 + batch, k0 + seg))
                # (3, steps, rays) coordinates; survivors leave as flat lists
                c, i = _cells(ray_c0 + ks[None, :, None] * ray_dc, shape)
                live = ks[:, None] < ray_n
                if occupied is not None:
                    live &= occupied.take(cell_of(i))
                sel = np.flatnonzero(live)
                if not sel.size:
                    continue
                c, i = c.reshape(3, -1), i.reshape(3, -1)
                if sel.size < live.size:
                    c, i = c.take(sel, axis=1), i.take(sel, axis=1)
                values = _interp(vol, c, i)
                idx = np.rint(values * _LUT_SIZE).astype(np.int64)
                np.clip(idx, 0, _LUT_SIZE, out=idx)
                a = lut_alpha.take(idx)
                seen = np.flatnonzero(a > 0)
                if seen.size < sel.size:
                    sel, idx, a = sel.take(seen), idx.take(seen), a.take(seen)
                color = lut.take(idx, axis=0)
                if shading:
                    if seen.size < c.shape[1]:
                        c = c.take(seen, axis=1)
                    color[:, :3] *= _lambert(vol, c, scale, light, ambient)[:, None]
                # composite step by step: a ray appears once per step
                at_step = sel // rays.size
                p = ray_pix.take(sel - at_step * rays.size)
                ends = np.searchsorted(at_step, np.arange(ks.size + 1))
                for j in range(ks.size):
                    s = slice(ends[j], ends[j + 1])
                    if s.start == s.stop:
                        continue
                    acc = out.take(p[s], axis=0)
                    a_in = acc[:, 3]
                    contrib = (1.0 - a_in) * a[s]
                    if k1 + j:  # a ray's first sample is taken unconditionally
                        contrib[a_in >= early_termination] = 0.0
                    acc += contrib[:, None] * color[s]
                    pixels[p[s]] = acc.view(_PIXEL).reshape(-1)
            # saturated rays leave the march at the segment boundary
            n[rays[out.take(ray_pix, axis=0)[:, 3] >= early_termination]] = 0

    return out.reshape(h, w, 4)


@dataclass
class RayCaster:
    """A configured renderer: transfer function + camera + quality knobs.

    The per-frame entry point of the *local rendering* pipeline stage.
    ``render`` is :func:`render_volume` with these settings: which space
    it skips is worked out on every call from the brick it is given and
    ``tf``, so there is nothing to tune or invalidate, nothing is kept
    between calls, and one instance can be shared by all processors of a
    group and called from their threads at once.
    """

    tf: TransferFunction
    camera: Camera
    step: float | None = None
    early_termination: float = 0.98
    shading: bool = False

    def render(self, volume: np.ndarray, box: Box = _FULL_BOX) -> np.ndarray:
        return render_volume(
            volume,
            self.tf,
            self.camera,
            box=box,
            step=self.step,
            early_termination=self.early_termination,
            shading=self.shading,
        )
