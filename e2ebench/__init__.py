"""End-to-end, layer-attributed benchmark of the real frame path.

render -> codec -> wire -> serve -> relay, driven only through the public
API of ``repro`` and timed from outside.  See ``README.md`` in this
directory for the metric and workload tables; ``BENCHMARK.json`` at the
repository root is the machine-readable contract.

The package is not installed: the benchmark runs from a bare checkout, so
importing it puts the checkout's ``src/`` on ``sys.path``.
"""

import os
import sys
from pathlib import Path

# One BLAS thread per caller, set before numpy loads its BLAS.  The
# program's parallelism is its own (SPMD ranks, pipelined groups, encode
# workers) and every workload runs on one processor, where a BLAS pool
# under each of them only adds threads that spin for it.  Even with both
# cores, two ranks times two BLAS threads made ``render_stream`` slower and
# far less repeatable (frame_ms_p50 499-605 ms over six runs, against
# 466-490 ms with this).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def workload_command(workload: str, seed: int, seconds: float, trace: int) -> list[str]:
    """The command line that runs one workload in a process of its own."""
    return [
        sys.executable, "-m", "e2ebench", "run", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
