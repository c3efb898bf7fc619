"""Command-line entry of the serving benchmark.

Run from the repository root::

    python3 servebench/run.py --workload chat --seed 1 --seconds 20 --trace 0

``--trace 0`` serves the workload once and reports the end-to-end metrics.
``--trace 1`` serves it again on a fresh engine with a span around every
layer's public entry points and reports the per-layer metrics.  Progress goes
to stderr; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when a request failed or a sampled greedy stream differs from the same prompt
served alone, and 2 when the checkout holds no ``src/repro`` to benchmark.
``servebench/README.md`` describes the workloads and the metrics.
"""

import time

PROCESS_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"servebench: no package at {source / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import bench

    return bench.main(sys.argv[1:], ROOT, PROCESS_START)


if __name__ == "__main__":
    sys.exit(main())
