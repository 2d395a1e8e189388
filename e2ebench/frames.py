"""The benchmark's own seeded frame generator.

The programs under test receive only what this module makes; nothing
here is imported from the scenario harnesses in ``repro.serve.fanout``.
Frames are smooth, animated and JPEG-friendly, so their encoded size is
typical of rendered volume frames (a few KB at 128x128).  The seed moves
phases and orbits, not directions or frequencies, so encoded size and
codec cost stay comparable from seed to seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["animated_frames"]


def animated_frames(rng: np.random.Generator, n_frames: int, size: int) -> list[np.ndarray]:
    """``n_frames`` distinct ``(size, size, 3)`` uint8 frames of one
    looping animation: drifting sinusoid sheets plus two orbiting blobs."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float32) / size
    phase = rng.uniform(0.0, 2 * np.pi, size=6)
    angle = (0.3, 1.2, 2.3)
    centre = rng.uniform(0.3, 0.7, size=(2, 2))
    frames = []
    for t in range(n_frames):
        turn = 2 * np.pi * t / n_frames
        planes = []
        for c in range(3):
            u = xx * np.cos(angle[c]) + yy * np.sin(angle[c])
            sheet = np.sin(2 * np.pi * (2 + c) * u + phase[c] + turn)
            ripple = np.cos(2 * np.pi * (4 - c) * (xx - yy) + phase[3 + c] - turn)
            planes.append(128 + 80 * sheet + 20 * ripple)
        img = np.stack(planes, axis=-1)
        for b in range(2):
            cx = centre[b, 0] + 0.2 * np.cos(turn + phase[b])
            cy = centre[b, 1] + 0.2 * np.sin(turn + phase[b + 2])
            blob = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / 0.008)
            img += (90 * blob)[..., None]
        frames.append(np.clip(img, 0, 255).astype(np.uint8))
    return frames
