"""Codec throughput — the speed claims behind the §4.2 codec choices.

"LZO … offers fast compression and very fast decompression"; "BZIP has
very good lossless compression … better than gzip" (slower but tighter);
JPEG trades quality for size.  This bench measures encode/decode
throughput of every codec on a real 256² jet frame with pytest-benchmark
statistics (these are also the numbers a user needs to budget their own
display pipeline).

Run as a script for machine-readable results tracked across PRs::

    PYTHONPATH=src python benchmarks/bench_codec_throughput.py --json

writes/updates ``BENCH_codec.json`` at the repo root, merging the run
under ``--label`` (default ``"current"``) so a pre-change ``baseline``
entry and the post-change numbers live side by side, along with the
decode speedup of every method against the baseline.  Each run also
measures the dense 512² vortex frame the end-to-end ``codec_wire``
workload sends, under ``"dense"`` beside the jet numbers: the sparse jet
frame flatters the lossless codecs (bzip encodes 3x and decodes 5x faster
there).  ``--check-floors`` gates on the jet frame alone.
"""

import pytest

from repro.compress import get_codec

METHODS = ("rle", "lzo", "deflate", "bzip", "jpeg", "jpeg+lzo")


@pytest.mark.parametrize("method", METHODS)
def test_encode_throughput(benchmark, jet_frames, method):
    frame = jet_frames[256]
    codec = get_codec(method)
    payload = benchmark(codec.encode_image, frame)
    assert len(payload) > 0
    benchmark.extra_info["ratio"] = frame.nbytes / len(payload)


@pytest.mark.parametrize("method", METHODS)
def test_decode_throughput(benchmark, jet_frames, method):
    frame = jet_frames[256]
    codec = get_codec(method)
    payload = codec.encode_image(frame)
    out = benchmark(codec.decode_image, payload)
    assert out.shape == frame.shape


def test_lzo_decodes_faster_than_bzip(benchmark, jet_frames):
    """The paper's stated reason for offering LZO at all."""
    import time

    frame = jet_frames[256]
    lzo = get_codec("lzo")
    bzip = get_codec("bzip")
    lzo_payload = lzo.encode_image(frame)
    bzip_payload = bzip.encode_image(frame)

    def clock(fn, *args, repeat=3):
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            fn(*args)
            best = min(best, time.perf_counter() - t0)
        return best

    def compare():
        return (
            clock(lzo.decode_image, lzo_payload),
            clock(bzip.decode_image, bzip_payload),
        )

    t_lzo, t_bzip = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert t_lzo < t_bzip
    # and BZIP compresses tighter, the other side of the trade-off
    assert len(bzip_payload) < len(lzo_payload)


# -- machine-readable mode (perf trajectory across PRs) -----------------------

JSON_METHODS = ("rle", "lzo", "deflate", "bzip", "jpeg", "jpeg+lzo", "jpeg+bzip")


def _bench_frame(size: int = 256):
    """Render one real jet frame (same content as the ``jet_frames`` fixture)."""
    from repro.data import turbulent_jet
    from repro.render import Camera, TransferFunction, render_volume, to_display_rgb

    vol = turbulent_jet().volume(40)
    cam = Camera(image_size=(size, size))
    return to_display_rgb(render_volume(vol, TransferFunction.jet(), cam))


DENSE_SIZE = 512


def _dense_frame():
    """``codec_wire``'s first frame: the turbulent vortex (scale 0.5, step
    10) under the jet transfer function at 512², dense, so it compresses
    poorly; at the workload's nominal camera (each run jitters it)."""
    from repro.data import turbulent_vortex
    from repro.render import Camera, TransferFunction, render_volume, to_display_rgb

    vol = turbulent_vortex(scale=0.5).volume(10)
    cam = Camera(image_size=(DENSE_SIZE, DENSE_SIZE), azimuth=30.0, elevation=20.0)
    return to_display_rgb(render_volume(vol, TransferFunction.jet(), cam))


def _clock(fn, *args, repeat: int = 5, warmup: int = 2) -> float:
    """Best-of-``repeat`` wall time, after ``warmup`` untimed iterations.

    The warmup runs populate every lazily-built cache on the path
    (context scratch, memoized Huffman LUTs, numpy's internal buffers)
    so the measured window sees only steady-state cost — mixing the
    first cold call into the timed set skews the JSON numbers the PR
    trajectory is judged on.
    """
    import time

    for _ in range(warmup):
        fn(*args)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _measure_frame(frame, size: int, repeat: int) -> dict:
    """Encode/decode MB/s and ratio per codec on one frame."""
    mb = frame.nbytes / 1e6
    results = {}
    for method in JSON_METHODS:
        codec = get_codec(method)
        payload = codec.encode_image(frame)
        enc_s = _clock(codec.encode_image, frame, repeat=repeat)
        dec_s = _clock(codec.decode_image, payload, repeat=repeat)
        results[method] = {
            "encode_MBps": round(mb / enc_s, 3),
            "decode_MBps": round(mb / dec_s, 3),
            "ratio": round(frame.nbytes / len(payload), 3),
        }
    return {"image_size": size, "frame_MB": round(mb, 3), "methods": results}


def measure_throughput(size: int = 256, repeat: int = 5) -> dict:
    """Encode/decode MB/s per codec on a real rendered jet frame, with the
    dense ``codec_wire`` frame's numbers beside it under ``"dense"``."""
    doc = _measure_frame(_bench_frame(size), size, repeat)
    doc["dense"] = _measure_frame(_dense_frame(), DENSE_SIZE, repeat)
    return doc


def write_json(path, label: str, size: int, repeat: int) -> dict:
    import json
    from pathlib import Path

    path = Path(path)
    doc = {}
    if path.exists():
        doc = json.loads(path.read_text())
    doc[label] = measure_throughput(size=size, repeat=repeat)
    base = doc.get("baseline")
    if base is not None and label != "baseline":
        for direction in ("decode", "encode"):
            speedups = {}
            for method, row in doc[label]["methods"].items():
                ref = base["methods"].get(method)
                if ref and ref.get(f"{direction}_MBps"):
                    speedups[method] = round(
                        row[f"{direction}_MBps"] / ref[f"{direction}_MBps"], 2
                    )
            doc[f"{label}_{direction}_speedup_vs_baseline"] = speedups
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


# Encode floors on the 256² jet frame: the vectorized-encode multipliers
# over the pre-vectorization baseline (jpeg 3x of 45.141, lzo 2x of 9.372,
# bzip 2x of 2.478 MB/s).  ``--check-floors`` gates on these and prints a
# markdown delta table for the CI job summary.
ENCODE_FLOORS_MBPS = {"jpeg": 135.4, "lzo": 18.744, "bzip": 4.956}


def check_floors(size: int = 256, repeat: int = 5) -> bool:
    """Print measured encode throughput vs floor; True if all floors hold.

    Only the floored codecs are measured (each best-of-``repeat`` after
    warmup, back to back) so the jpeg number is not taken in the cache
    shadow of the full seven-method sweep.
    """
    frame = _bench_frame(size)
    mb = frame.nbytes / 1e6
    ok = True
    print("| codec | encode MB/s | floor | delta |")
    print("|---|---|---|---|")
    for method, floor in ENCODE_FLOORS_MBPS.items():
        codec = get_codec(method)
        mbps = mb / _clock(codec.encode_image, frame, repeat=repeat)
        delta = mbps - floor
        ok &= mbps >= floor
        print(f"| {method} | {mbps:.2f} | {floor:.2f} | {delta:+.2f} |")
    return ok


def main(argv=None) -> None:
    import argparse
    from pathlib import Path

    repo_root = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", action="store_true", help="write BENCH_codec.json")
    ap.add_argument(
        "--check-floors",
        action="store_true",
        help="gate on the encode floors; prints a markdown delta table",
    )
    ap.add_argument("--out", default=str(repo_root / "BENCH_codec.json"))
    ap.add_argument("--label", default="current")
    ap.add_argument("--size", type=int, default=256)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args(argv)
    if args.check_floors:
        raise SystemExit(0 if check_floors(args.size, args.repeat) else 1)
    if not args.json:
        ap.error("nothing to do: pass --json")
    doc = write_json(args.out, args.label, args.size, args.repeat)
    jet = doc[args.label]
    sections = ((f"jet {args.size}²", jet), (f"dense {DENSE_SIZE}²", jet["dense"]))
    for title, section in sections:
        print(title)
        for method, row in sorted(section["methods"].items()):
            print(
                f"  {method:<14} encode {row['encode_MBps']:>9.2f} MB/s   "
                f"decode {row['decode_MBps']:>9.2f} MB/s   ratio {row['ratio']:.2f}"
            )


if __name__ == "__main__":
    main()
