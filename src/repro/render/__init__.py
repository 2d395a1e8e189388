"""Parallel volume rendering substrate.

Implements the renderer the paper builds on: a parallel ray-casting volume
renderer [16] with binary-swap compositing, plus the shear-warp baseline
[12] the paper discusses (and rejects for time-varying data because of its
per-time-step preprocessing cost).

Pipeline stage mapping (paper Figure 1):

- *data input* — :mod:`repro.render.partition` decomposes each volume into
  per-processor bricks;
- *local rendering* — :func:`repro.render.raycast.render_volume` renders a
  brick into a partial RGBA image;
- *global image compositing* — :mod:`repro.render.compositing` merges
  partials (sequential over, or binary-swap under :mod:`repro.machine`);
- *image output* — :mod:`repro.render.image` assembles tiles and converts
  to displayable RGB.
"""

from repro.render.camera import Camera
from repro.render.transfer_function import TransferFunction
from repro.render.raycast import RayCaster, RayPlan, cull_empty_space, render_volume
from repro.render.partition import BrickDecomposition, decompose
from repro.render.compositing import (
    binary_swap,
    composite_bricks,
    over,
    visibility_order,
)
from repro.render.image import assemble_tiles, split_tiles, to_display_rgb
from repro.render.shearwarp import ShearWarpRenderer
from repro.render.ibr import IBRClient, ViewSet, build_view_set
from repro.render.histogram import (
    opacity_profile,
    suggest_transfer_function,
    volume_histogram,
)

__all__ = [
    "Camera",
    "TransferFunction",
    "RayCaster",
    "RayPlan",
    "render_volume",
    "cull_empty_space",
    "BrickDecomposition",
    "decompose",
    "over",
    "binary_swap",
    "composite_bricks",
    "visibility_order",
    "assemble_tiles",
    "split_tiles",
    "to_display_rgb",
    "ShearWarpRenderer",
    "IBRClient",
    "ViewSet",
    "build_view_set",
    "volume_histogram",
    "opacity_profile",
    "suggest_transfer_function",
]
