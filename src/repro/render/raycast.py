"""Vectorized ray-casting volume renderer.

The paper uses "a parallel ray-casting volume renderer [16] … reasonably
optimized and capable of generating high quality images".  This is that
renderer's algorithm in NumPy: per-pixel parallel rays, front-to-back
alpha compositing of trilinearly-interpolated samples, early ray
termination, and subvolume (brick) rendering for the parallel
decomposition — each processor renders its brick *independent of other
processors*, producing a premultiplied partial RGBA image.

The march never classifies a sample it can prove transparent.  Each march
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
Surviving samples are classified at most ``_BATCH`` at a time and
composited front to back in step order; scratch scales with the live
samples of one pass, not with rays × steps or with the image.

What a march needs splits in two.  Everything the voxels do not decide --
which pixels hit the box, where their rays enter it, how many samples
they take, and which macrocell each segment of each ray starts in -- is
a :class:`RayPlan`, a function of ``(camera, box, grid shape, step)``.
Everything else (occupancy, classification, compositing) is redone for
every volume.  :func:`render_volume` is the stateless one-shot: it builds
a plan, marches it and forgets it.  A :class:`RayCaster` keeps the plans
of its view, a bounded few, for as long as it lives, so an animation from
a fixed view plans once per brick and marches once per time step.  That
is all the state there is: it belongs to the caster (none is
module-level), plans are read-only once built except for cell rows that
are filled under a lock the first time they are needed, and the per-march
scratch is local -- concurrent calls (SPMD rank threads, pipelined
groups), through one caster or none, are safe.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.render.camera import Camera
from repro.render.transfer_function import TransferFunction

__all__ = [
    "render_volume",
    "sample_trilinear",
    "RayCaster",
    "RayPlan",
    "cull_empty_space",
]

Box = tuple[tuple[float, float, float], tuple[float, float, float]]
_FULL_BOX: Box = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
_LUT_SIZE = 1024  # classification look-up-table resolution
_CELL_SHIFT = 2
_CELL = 1 << _CELL_SHIFT  # macrocell edge in voxel cells
_BATCH = 1 << 15  # samples classified per NumPy pass (arrays stay in L2)
_PLANS = 8  # plans a RayCaster keeps: the bricks of one group, whole or 2/4/8-way
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


class RayPlan:
    """What a march needs that the voxels do not decide.

    A pure function of ``(camera, box, grid shape, step)``: which pixels'
    rays hit ``box`` (``pix``, ascending), where each enters it in voxel
    coordinates (``c0``), how far one sample advances it (``dc``), how
    many samples it takes (``n``), the segment length ``seg`` of the
    coarse skip test and, per segment, the macrocell that holds the first
    sample of every ray still inside the box (:meth:`segments`).  An
    animation from a fixed view marches the same plan once per time step;
    only the occupancy the cells are looked up in changes.

    A segment's row is one array of cell ids, in the narrowest unsigned
    integer that holds the grid, aligned with the rays that reach the
    segment -- a list the march rebuilds from ``n`` as it goes, so no
    index list is stored beside the row.  A row is computed the first
    time a march asks for it (a volume with nothing to skip never does,
    and rays that all saturate early never reach the late ones) under the
    plan's lock, and is not touched again.  Every array the plan hands out
    is read-only, so any number of marches (SPMD rank threads, pipelined
    groups) share one plan.
    """

    def __init__(self, camera: Camera, box: Box, shape: tuple[int, int, int], step: float):
        self.camera, self.box, self.shape, self.step = camera, box, shape, step
        origins, direction = camera.rays()
        lo = np.asarray(box[0], dtype=np.float64)
        span = np.asarray(box[1], dtype=np.float64) - lo
        t0, t1 = _intersect_box(origins, direction, box)
        self.pix = pix = np.flatnonzero(t1 > t0)  # pixel of each ray that hits the box
        #: voxels per world unit along each axis
        self.scale = scale = (np.asarray(shape, dtype=np.float64) - 1) / span
        # Rays in voxel space, one row per axis: sample k of ray r sits
        # at c0[:, r] + k * dc[:, r] (dc is shared when rays are parallel).
        self.per_ray = direction.ndim == 2
        d = direction[pix] if self.per_ray else direction[None, :]
        self.c0 = np.ascontiguousarray(((origins[pix] + t0[pix, None] * d - lo) * scale).T)
        self.dc = np.ascontiguousarray((d * (scale * step)).T)
        #: samples per ray
        self.n = np.ceil((t1[pix] - t0[pix]) / step).astype(np.int32)
        # Samples per segment.  Directions are unit vectors, so a sample
        # moves at most step * scale.max() voxels along any axis: the
        # segment spans less than one macrocell per axis and every sample
        # of it lies in the first sample's cell or one of its neighbours.
        self.seg = max(1, int(_CELL / (step * scale.max())))
        #: macrocells per axis, as :func:`_occupancy` lays them out
        self.grid = tuple(-(-(m - 1) // _CELL) for m in shape)
        self._row_dtype = np.min_scalar_type(self.grid[0] * self.grid[1] * self.grid[2] - 1)
        for a in (self.pix, self.scale, self.c0, self.dc, self.n):
            a.flags.writeable = False
        self.n_segments = -(-int(self.n.max()) // self.seg) if pix.size else 0
        self._lock = threading.Lock()
        self._rows: list[np.ndarray | None] = [None] * self.n_segments  # guarded-by: _lock

    def describes(self, camera: Camera, box: Box, shape, step: float) -> bool:
        """Whether this is the plan of a march with these parameters."""
        return (camera, box, tuple(shape), step) == (
            self.camera, self.box, self.shape, self.step
        )

    def cell_ids(self, i: np.ndarray) -> np.ndarray:
        """Flat macrocell index of the ``(3, ...)`` voxel cells ``i``."""
        m = i >> _CELL_SHIFT
        return (m[0] * self.grid[1] + m[1]) * self.grid[2] + m[2]

    def segments(self, cells: bool):
        """Walk the segments front to back: ``(k0, reach, row)`` per
        segment, ``k0`` its first sample, ``reach`` the rays (ascending
        indices into ``pix``/``c0``/``n``) whose span of the box gets that
        far, and ``row`` the macrocell of sample ``k0`` of each of them --
        ``None`` when ``cells`` is false, for a march with nothing to skip.
        """
        reach = np.arange(self.pix.size)
        for k in range(self.n_segments):
            k0 = k * self.seg
            if k:
                reach = reach[self.n.take(reach) > k0]
            yield k0, reach, (self._row(k, reach) if cells else None)

    def _row(self, k: int, reach: np.ndarray) -> np.ndarray:
        with self._lock:
            row = self._rows[k]
            if row is None:
                dc = self.dc.take(reach, axis=1) if self.per_ray else self.dc
                start = self.c0.take(reach, axis=1) + (k * self.seg) * dc
                row = self.cell_ids(_cells(start, self.shape)[1]).astype(self._row_dtype)
                row.flags.writeable = False
                self._rows[k] = row
        return row

    @property
    def nbytes(self) -> int:
        """Bytes held now: the ray table plus the rows filled so far."""
        with self._lock:
            rows = sum(row.nbytes for row in self._rows if row is not None)
        return rows + sum(a.nbytes for a in (self.pix, self.c0, self.dc, self.n))


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
    plan: RayPlan | None = None,
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
    plan:
        The :class:`RayPlan` of ``(camera, box, volume.shape, step)``, for
        a caller that renders this view more than once
        (:class:`RayCaster` keeps them); built here when not given.  It
        saves work, not a decision: the image is the same either way, and
        a plan made for other parameters raises ``ValueError``.

    Returns
    -------
    ``(H, W, 4)`` float32 premultiplied-alpha image; pixels whose rays
    miss ``box`` keep alpha 0, so partial images composite with ``over``.
    """
    if volume.ndim != 3:
        raise ValueError(f"volume must be 3-D, got shape {volume.shape}")
    vol = np.ascontiguousarray(volume, dtype=np.float32)
    shape = vol.shape
    box, step = _resolve(box, shape, step)
    if plan is None:
        plan = RayPlan(camera, box, shape, step)
    elif not plan.describes(camera, box, shape, step):
        raise ValueError(
            f"plan is for {(plan.camera, plan.box, plan.shape, plan.step)}, "
            f"not for {(camera, box, shape, step)}"
        )
    h, w = camera.image_size
    out = np.zeros((h * w, 4), dtype=np.float32)
    # whole-pixel items: 1-D fancy assignment is several times faster
    # than scattering (n, 4) rows
    pixels = out.view(_PIXEL).reshape(-1)

    if shading:
        light = np.asarray(light_direction, dtype=np.float64)
        norm = np.linalg.norm(light)
        if norm < 1e-12 or not 0.0 <= ambient <= 1.0:
            raise ValueError("bad light_direction or ambient")
        light = (light / norm).astype(np.float32)

    if not plan.pix.size:
        return out.reshape(h, w, 4)

    # Classification LUT: one opacity-corrected table lookup per sample
    # instead of four np.interp evaluations; 1/1024 scalar quantization is
    # far below voxel noise.  Opacity is gathered on its own; the colour
    # table carries 1 in its alpha slot so one scaled add accumulates
    # colour and opacity together.
    lut = tf.sample(
        np.linspace(0.0, 1.0, _LUT_SIZE + 1, dtype=np.float32), step=step
    ).astype(np.float32)
    lut_alpha = lut[:, 3].copy()
    lut[:, 3] = 1.0

    occupied = _occupancy(vol, lut_alpha > 0)
    if occupied is not None:
        nearby = _dilate(occupied).reshape(-1)
        occupied = occupied.reshape(-1)

    pix, c0, dc, seg, scale = plan.pix, plan.c0, plan.dc, plan.seg, plan.scale
    n = plan.n.copy()  # this march's: a ray that saturates is cut short here
    for k0, reach, row in plan.segments(cells=occupied is not None):
        rays = reach if row is None else reach[nearby.take(row)]
        rays = rays[n.take(rays) > k0]
        if not rays.size:
            if row is None or not (n.take(reach) > k0).any():
                break  # every ray has left the box or saturated
            continue
        # At most _BATCH samples per pass, also when one step of the live
        # rays is more than that: scratch does not grow with the image,
        # and each pixel still meets its samples in step order.  A shaded
        # step is not cut: the last bits of _lambert's ``grad @ light``
        # (BLAS) depend on how many rows one call is given, and cutting
        # would change a shaded image.
        width = rays.size if shading else _BATCH
        for r0 in range(0, rays.size, width):
            part = rays[r0 : r0 + width]
            ray_c0 = c0.take(part, axis=1)[:, None, :]
            ray_dc = dc.take(part, axis=1)[:, None, :] if plan.per_ray else dc[:, :, None]
            ray_n = n.take(part)
            ray_pix = pix.take(part)
            batch = max(1, _BATCH // part.size)
            for k1 in range(k0, k0 + seg, batch):
                ks = np.arange(k1, min(k1 + batch, k0 + seg))
                # (3, steps, rays) coordinates; survivors leave as flat lists
                c, i = _cells(ray_c0 + ks[None, :, None] * ray_dc, shape)
                live = ks[:, None] < ray_n
                if occupied is not None:
                    live &= occupied.take(plan.cell_ids(i))
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
                at_step = sel // part.size
                p = ray_pix.take(sel - at_step * part.size)
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
        n[rays[out.take(pix.take(rays), axis=0)[:, 3] >= early_termination]] = 0

    return out.reshape(h, w, 4)


def _resolve(box: Box, shape, step: float | None) -> tuple[Box, float]:
    """``box`` as a hashable pair of float triples and the sampling
    distance ``step`` defaults to, both checked."""
    box = (tuple(map(float, box[0])), tuple(map(float, box[1])))
    span = np.subtract(box[1], box[0])
    if np.any(span <= 0):
        raise ValueError(f"degenerate box {box}")
    if step is None:
        # voxel spacing along each axis in world units
        spacing = span / np.maximum(np.asarray(shape) - 1, 1)
        step = float(spacing.min()) * 0.5
    if step <= 0:
        raise ValueError("step must be positive")
    return box, step


@dataclass
class RayCaster:
    """A configured renderer: transfer function + camera + quality knobs.

    The per-frame entry point of the *local rendering* pipeline stage, and
    the owner of its view's :class:`RayPlan` s.  ``render`` is
    :func:`render_volume` with these settings and the plan of the brick's
    ``(box, shape)``, built on the first frame and marched again on every
    later one: an animation from a fixed view pays for ray set-up and the
    coarse-test cell table once per brick, not once per time step.  The
    caster keeps the ``_PLANS`` most recently used plans and nothing else;
    a box that changes every step (a session's ``cull=True``), or more
    bricks than that, costs what the one-shot :func:`render_volume` costs
    and the map does not grow.  Plans are keyed by the camera and step
    they were built for, so assigning a new ``camera`` cannot march a
    stale one, and they are freed with the caster -- whoever changes the
    view for good drops the caster.  Which space a march skips is still
    worked out on every call from the brick and ``tf``.  One instance can
    be shared by all processors of a group and called from their threads
    at once: the map is locked, the plans are read-only.
    """

    tf: TransferFunction
    camera: Camera
    step: float | None = None
    early_termination: float = 0.98
    shading: bool = False

    def __post_init__(self):
        self._lock = threading.Lock()
        self._plans: OrderedDict[tuple, RayPlan] = OrderedDict()  # guarded-by: _lock

    def plan(self, shape: tuple[int, int, int], box: Box = _FULL_BOX) -> RayPlan:
        """The plan ``render`` marches for a brick of ``shape`` in ``box``."""
        box, step = _resolve(box, shape, self.step)
        key = (self.camera, box, tuple(shape), step)
        with self._lock:
            plan = self._plans.get(key)
        if plan is None:
            # built outside the lock: ranks setting up different bricks do
            # not wait for each other, and two that race for one brick
            # both build and keep the first
            plan = RayPlan(*key)
        with self._lock:
            plan = self._plans.setdefault(key, plan)
            self._plans.move_to_end(key)
            if len(self._plans) > _PLANS:
                self._plans.popitem(last=False)
        return plan

    def render(self, volume: np.ndarray, box: Box = _FULL_BOX) -> np.ndarray:
        return render_volume(
            volume,
            self.tf,
            self.camera,
            box=box,
            step=self.step,
            early_termination=self.early_termination,
            shading=self.shading,
            plan=self.plan(volume.shape, box),
        )
