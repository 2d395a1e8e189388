"""The four workloads; each module has ``run(run) -> Outcome``.  Why each
was chosen is in ``BENCHMARK.json`` and in ``README.md``."""

NAMES = ("render_stream", "codec_wire", "fanout_live", "relay_replay")
