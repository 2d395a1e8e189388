"""Codec-throughput smoke floors, the block-sort and Huffman-table ratios
and the render skipping ratio (``make bench-smoke``).

These run inside the normal unit suite but are additionally selectable with
``-m perf_smoke`` for a seconds-long guardrail.  The floors are set an
order of magnitude below what the vectorized decoders actually deliver, so
they only trip on a real fast-path regression (e.g. a per-symbol Python
loop sneaking back in), never on machine noise.
"""

import time

import numpy as np
import pytest

from repro.compress import get_codec

pytestmark = pytest.mark.perf_smoke

# (codec, decode-MB/s floor) — raw-image megabytes per decode second,
# set ~3-10x below what this frame actually measures on a laptop-class
# core so only structural regressions trip them.
FLOORS = [
    ("jpeg", 6.0),
    ("jpeg+lzo", 5.0),
    ("rle", 80.0),
    ("lzo", 4.0),
]

# (codec, encode-MB/s floor) — same philosophy for the vectorized encode
# path: the synthetic frame below measures jpeg ~74, jpeg+lzo ~52, rle ~43,
# lzo ~15 MB/s on a laptop-class core, and bzip 2.2 MB/s (1.5 before its
# block sort stopped re-sorting settled rotations) on a shared 2-vCPU Xeon
# VM, so these floors only trip when a per-token Python loop (or
# per-frame scratch churn) sneaks back in.
ENCODE_FLOORS = [
    ("jpeg", 15.0),
    ("jpeg+lzo", 10.0),
    ("rle", 10.0),
    ("lzo", 3.0),
    ("bzip", 0.7),
]


def _frame(size=192):
    yy, xx = np.mgrid[0:size, 0:size]
    r = np.sin(xx / 9.0) * np.cos(yy / 13.0) * 127 + 128
    g = (xx * 255) // size
    b = ((xx + yy) * 255) // (2 * size)
    return np.clip(np.stack([r, g, b], axis=-1), 0, 255).astype(np.uint8)


@pytest.mark.parametrize("name,floor", FLOORS, ids=[f[0] for f in FLOORS])
def test_decode_throughput_floor(name, floor):
    img = _frame()
    codec = get_codec(name)
    enc = codec.encode_image(img)
    codec.decode_image(enc)  # warm caches/LUTs outside the timed window
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        out = codec.decode_image(enc)
        best = min(best, time.perf_counter() - t0)
    assert out.shape == img.shape
    mbps = img.nbytes / best / 1e6
    assert mbps >= floor, f"{name}: {mbps:.1f} MB/s below {floor} MB/s floor"


@pytest.mark.parametrize(
    "name,floor", ENCODE_FLOORS, ids=[f[0] for f in ENCODE_FLOORS]
)
def test_encode_throughput_floor(name, floor):
    img = _frame()
    codec = get_codec(name)
    codec.encode_image(img)  # warm caches/LUTs outside the timed window
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        enc = codec.encode_image(img)
        best = min(best, time.perf_counter() - t0)
    assert len(enc) > 0
    mbps = img.nbytes / best / 1e6
    assert mbps >= floor, f"{name}: {mbps:.1f} MB/s below {floor} MB/s floor"


def test_block_sort_beats_the_per_byte_reference():
    """Block-sort guardrail, as ratios against ``codec_reference`` (the
    sort that re-sorted every rotation every pass and the inverse that
    walked one byte per Python iteration) on one dense block: the RLE1
    output of ``codec_wire``'s vortex frame at 256², 103 kB.  Measured
    4.6x forward and 7.6x inverse; under 2.5x / 3x means settled
    rotations are being re-sorted or the walk went per-byte again."""
    import codec_reference

    from repro.compress.bwt import bwt_forward, bwt_inverse
    from repro.compress.rle import RLECodec
    from repro.data import turbulent_vortex
    from repro.render import Camera, TransferFunction, render_volume, to_display_rgb

    camera = Camera(image_size=(256, 256), azimuth=30.0, elevation=20.0)
    volume = turbulent_vortex(scale=0.5).volume(10)
    image = to_display_rgb(render_volume(volume, TransferFunction.jet(), camera))
    block = RLECodec(min_run=4).encode(image.tobytes())
    last, primary = codec_reference.bwt_forward(block)
    assert bwt_forward(block) == (last, primary)
    stages = {
        "forward": (2.5, (block,), codec_reference.bwt_forward, bwt_forward),
        "inverse": (3.0, (last, primary), codec_reference.bwt_inverse, bwt_inverse),
    }
    best = {(stage, side): float("inf") for stage in stages for side in (0, 1)}

    def holds():
        return all(
            best[stage, 0] >= bound * best[stage, 1]
            for stage, (bound, *_) in stages.items()
        )

    # interleaved best of 3, and up to three rounds more while a bound is
    # missed: a shared host has slow moments longer than one sort
    for round_ in range(6):
        if round_ >= 3 and holds():
            break
        for stage, (_, args, *sides) in stages.items():
            for side, fn in enumerate(sides):
                t0 = time.perf_counter()
                fn(*args)
                best[stage, side] = min(best[stage, side], time.perf_counter() - t0)
    report = ", ".join(
        f"{stage} {best[stage, 0] * 1e3:.1f}/{best[stage, 1] * 1e3:.1f} ms "
        f"({best[stage, 0] / best[stage, 1]:.2f}x, bound {bound}x)"
        for stage, (bound, *_) in stages.items()
    )
    assert holds(), report + " (reference/change)"


def test_huffman_table_build_beats_the_per_symbol_reference():
    """Huffman-table guardrail, as a ratio against ``codec_reference``
    (heap of Python lists, per-symbol canonical loop, per-code LUT fill)
    on 64 JPEG-like tables -- DC over 16 symbols, AC over 256 with ~30
    used.  A build is code lengths, canonical codes and the packed decode
    LUT.  Measured 3.4x; under 2x means a per-symbol loop came back."""
    import codec_reference

    from repro.compress.huffman import build_code

    rng = np.random.default_rng(5)
    tables = []
    for alphabet, used in [(16, 8), (256, 30)] * 32:
        freqs = np.zeros(alphabet, dtype=np.int64)
        freqs[rng.choice(alphabet, used, replace=False)] = rng.integers(1, 500, used)
        tables.append(freqs)

    def reference():
        for freqs in tables:
            lengths = codec_reference.build_lengths(freqs)
            codes = codec_reference.canonical_codes(lengths)
            codec_reference.packed_decode_table(lengths, codes)

    def change():
        for freqs in tables:
            build_code(freqs).packed_decode_table()

    best = [float("inf"), float("inf")]
    # interleaved best of 3, and up to three rounds more while the bound
    # is missed: a shared host has slow moments longer than one batch
    for round_ in range(6):
        if round_ >= 3 and best[0] >= 2.0 * best[1]:
            break
        for side, fn in enumerate((reference, change)):
            t0 = time.perf_counter()
            fn()
            best[side] = min(best[side], time.perf_counter() - t0)
    per_table = [b / len(tables) * 1e6 for b in best]
    assert best[0] >= 2.0 * best[1], (
        f"reference {per_table[0]:.0f} us, change {per_table[1]:.0f} us per "
        f"table: {best[0] / best[1]:.2f}x, bound 2x"
    )


def test_sparse_frame_renders_faster_than_a_dense_one():
    """Empty-space skipping guardrail, as a ratio so the host cancels out:
    the benchmark's jet frame under its own transfer function (5.6% of
    the voxels visible) against the same volume and camera with nothing to
    skip -- the everywhere-opaque vortex function, early termination off.
    Measured 0.96 before the march skipped anything and about 6 with it;
    a ratio under 2 means rays are marching empty space again."""
    from repro.data import turbulent_jet
    from repro.render import Camera, TransferFunction, render_volume

    volume = turbulent_jet().volume(40)
    camera = Camera(image_size=(256, 256), azimuth=30.0, elevation=20.0)

    def best_of_3(tf, **kwargs):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            image = render_volume(volume, tf, camera, **kwargs)
            best = min(best, time.perf_counter() - t0)
        assert image[..., 3].max() > 0.5
        return best

    sparse = best_of_3(TransferFunction.jet())
    dense = best_of_3(TransferFunction.vortex(), early_termination=1.1)
    assert dense >= 2.0 * sparse, (
        f"sparse frame {sparse * 1e3:.0f} ms, dense {dense * 1e3:.0f} ms: "
        f"only {dense / sparse:.2f}x apart"
    )


def test_a_kept_ray_plan_pays_and_a_new_one_costs_nothing_extra():
    """Ray-plan guardrail, as ratios of renders of the same inputs.  A
    caster on its second frame (plan and cell rows in hand) must beat the
    one-shot ``render_volume``, which plans every call: 1.3x on the
    benchmark's jet frame, 1.0x before plans were kept.  A caster on its
    first frame -- a user dragging the view -- must cost what the one-shot
    costs, on the jet and on a dense volume that never needs a cell row:
    1.0x, where a plan that filled every row up front measured 1.7x."""
    from repro.data import turbulent_jet, turbulent_vortex
    from repro.render import Camera, RayCaster, TransferFunction, render_volume

    camera = Camera(image_size=(256, 256), azimuth=30.0, elevation=20.0)

    def holds(best, dense):
        return best["cold"] <= 1.10 * best["one_shot"] and (
            dense or best["one_shot"] >= 1.15 * best["warm"]
        )

    def best_of_3(volume, tf, dense):
        warm = RayCaster(tf=tf, camera=camera)
        warm.render(volume)
        renders = {
            "one_shot": lambda: render_volume(volume, tf, camera),
            "cold": lambda: RayCaster(tf=tf, camera=camera).render(volume),
            "warm": lambda: warm.render(volume),
        }
        best = dict.fromkeys(renders, float("inf"))
        # interleaved, so a slow moment hits all three; a shared host has
        # slow moments longer than a render, so up to three rounds more
        # while a bound is still missed
        for round_ in range(6):
            if round_ >= 3 and holds(best, dense):
                break
            for name, render in renders.items():
                t0 = time.perf_counter()
                image = render()
                best[name] = min(best[name], time.perf_counter() - t0)
                assert image[..., 3].max() > 0.5
        return best

    jet = best_of_3(turbulent_jet().volume(40), TransferFunction.jet(), dense=False)
    dense = best_of_3(turbulent_vortex().volume(10), TransferFunction.vortex(), dense=True)
    report = ", ".join(
        f"{name} {one['one_shot'] * 1e3:.0f}/{one['cold'] * 1e3:.0f}/{one['warm'] * 1e3:.0f} ms"
        for name, one in (("jet", jet), ("dense", dense))
    ) + " (one-shot/cold/warm)"
    assert holds(jet, dense=False) and holds(dense, dense=True), report
