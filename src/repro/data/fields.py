"""Procedural scalar/vector field generators.

Closed-form, fully vectorized stand-ins for the paper's CFD data.  Each
generator maps ``(shape, t)`` to a ``float32`` volume in [0, 1]; time enters
only through phases and advected feature positions, so any step can be
synthesized independently (random access in time, like files on disk).

The generators are deterministic: structure parameters are drawn once from
a seeded :class:`numpy.random.Generator` keyed by the dataset seed, never by
the time index, so a dataset is a coherent evolving animation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["jet_field", "vortex_field", "mixing_field", "normalized_grid"]


def normalized_grid(shape: tuple[int, int, int]) -> tuple[np.ndarray, ...]:
    """Open mesh of coordinates in [0, 1] along each axis of ``shape``."""
    axes = [np.linspace(0.0, 1.0, n, dtype=np.float32) for n in shape]
    return np.meshgrid(*axes, indexing="ij", sparse=True)


def jet_field(shape: tuple[int, int, int], t: float, seed: int = 7) -> np.ndarray:
    """Turbulent-jet vorticity: a narrow swirling plume along the z axis.

    Most of the volume is near zero — rendered images have low pixel
    coverage, which is why the paper's jet frames compress so well.
    """
    x, y, z = normalized_grid(shape)
    rng = np.random.default_rng(seed)
    n_modes = 6
    amp = rng.uniform(0.01, 0.045, n_modes).astype(np.float32)
    freq = rng.uniform(3.0, 11.0, n_modes).astype(np.float32)
    speed = rng.uniform(0.6, 1.4, n_modes).astype(np.float32)
    phase = rng.uniform(0.0, 2 * np.pi, n_modes).astype(np.float32)

    # Jet axis meanders with z and time (helical instability).
    cx = np.float32(0.5) + np.zeros_like(z)
    cy = np.float32(0.5) + np.zeros_like(z)
    for k in range(n_modes):
        arg = 2 * np.pi * freq[k] * z - speed[k] * t + phase[k]
        cx = cx + amp[k] * np.sin(arg)
        cy = cy + amp[k] * np.cos(1.3 * arg)

    # Plume widens downstream; vorticity decays radially and axially.
    width = np.float32(0.0025) + np.float32(0.028) * z**1.5
    # Puffs: traveling axial modulation makes discrete vortex rings.
    puffs = 0.62 + 0.38 * np.sin(2 * np.pi * (9.0 * z - 0.45 * t))
    inflow = np.clip(12.0 * z, 0.0, 1.0)  # quiet near the nozzle plane
    # cx, cy and width depend on z alone, so the radial Gaussian
    # exp(-((x-cx)^2 + (y-cy)^2)/width) is a product of an (nx, 1, nz)
    # and a (1, ny, nz) factor: two small exps and one full-grid pass
    # written straight into the result.  The axial terms ride on one factor.
    across_x = np.exp(-((x - cx) ** 2) / width)
    across_y = np.exp(-((y - cy) ** 2) / width) * (puffs * inflow * (1.15 - 0.45 * z))
    field = np.empty(shape, dtype=np.float32)
    np.multiply(across_x, across_y, out=field)
    return np.clip(field, 0.0, 1.0, out=field)


def vortex_field(shape: tuple[int, int, int], t: float, seed: int = 11) -> np.ndarray:
    """Vorticity magnitude of drifting coherent vortex worms.

    Dozens of overlapping anisotropic Gaussian tubes fill the domain, so
    rendered images have high pixel coverage (the paper: "Rendering of the
    turbulent vortex data set generally results in more pixel coverage …
    these images cannot be compressed as well").
    """
    x, y, z = normalized_grid(shape)
    rng = np.random.default_rng(seed)
    n_blobs = 48
    pos = rng.uniform(0.0, 1.0, (n_blobs, 3)).astype(np.float32)
    vel = rng.normal(0.0, 0.02, (n_blobs, 3)).astype(np.float32)
    axis = rng.normal(0.0, 1.0, (n_blobs, 3)).astype(np.float32)
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    width = rng.uniform(0.018, 0.06, n_blobs).astype(np.float32)
    elong = rng.uniform(3.0, 9.0, n_blobs).astype(np.float32)
    strength = rng.uniform(0.35, 1.0, n_blobs).astype(np.float32)

    field = np.zeros(shape, dtype=np.float32)
    for k in range(n_blobs):
        c = (pos[k] + vel[k] * t) % 1.0
        dx = x - c[0]
        dy = y - c[1]
        dz = z - c[2]
        # periodic wrap: nearest image
        dx = dx - np.rint(dx)
        dy = dy - np.rint(dy)
        dz = dz - np.rint(dz)
        par = dx * axis[k, 0] + dy * axis[k, 1] + dz * axis[k, 2]
        perp2 = dx * dx + dy * dy + dz * dz - par * par
        field += strength[k] * np.exp(
            -(perp2 / width[k] ** 2 + par**2 / (elong[k] * width[k]) ** 2)
        )
    # Broad background turbulence lifts coverage across the whole domain.
    background = 0.18 + 0.1 * np.sin(
        2 * np.pi * (2 * x + 3 * y + z) + 0.21 * t
    ) * np.cos(2 * np.pi * (x - 2 * y + 2 * z) - 0.17 * t)
    field = field + background
    return np.clip(field / 1.6, 0.0, 1.0).astype(np.float32)


def mixing_field(
    shape: tuple[int, int, int], t: float, n_steps: int = 265, seed: int = 13
) -> np.ndarray:
    """Shock/bubble mixing: density-like scalar on an elongated grid.

    A planar shock sweeps along x through an ambient medium containing a
    denser bubble; behind the shock, the bubble deforms and a turbulent
    mixing zone grows — matching the paper's NERSC dataset description.
    The returned scalar mimics the velocity-magnitude rendering cue.
    """
    x, y, z = normalized_grid(shape)
    rng = np.random.default_rng(seed)
    progress = np.float32(t / max(n_steps - 1, 1))

    shock_x = 0.05 + 0.9 * progress
    shock = 0.5 * (1.0 + np.tanh((shock_x - x) * 80.0))  # 1 behind the shock

    # Bubble: starts spherical at x=0.35, compresses and stretches after
    # shock passage.
    bx, by, bz = 0.35, 0.5, 0.5
    hit = np.clip((shock_x - bx) / 0.25, 0.0, 1.0)  # how long since impact
    stretch_x = 1.0 + 2.2 * hit
    r2 = (
        ((x - (bx + 0.28 * hit)) * stretch_x) ** 2
        + ((y - by) * (1.0 - 0.35 * hit)) ** 2 / 0.4
        + ((z - bz) * (1.0 - 0.35 * hit)) ** 2 / 0.4
    )
    bubble = 0.9 * np.exp(-r2 / 0.012)

    # Mixing-zone turbulence grows behind the bubble after impact.
    n_modes = 5
    kx = rng.integers(4, 14, n_modes)
    ky = rng.integers(4, 14, n_modes)
    kz = rng.integers(4, 14, n_modes)
    ph = rng.uniform(0, 2 * np.pi, n_modes).astype(np.float32)
    turb = np.zeros(shape, dtype=np.float32)
    for m in range(n_modes):
        turb += np.sin(
            2 * np.pi * (kx[m] * x + ky[m] * y + kz[m] * z) + ph[m] + 0.9 * t / 10
        ).astype(np.float32)
    turb = (turb / n_modes) * hit * shock * np.exp(-((x - bx - 0.3 * hit) ** 2) / 0.05)

    field = 0.25 * shock + bubble * (1.0 - 0.3 * hit) + 0.35 * np.abs(turb)
    return np.clip(field, 0.0, 1.0).astype(np.float32)
