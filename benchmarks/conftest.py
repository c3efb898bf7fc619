"""Shared pytest-benchmark configuration for the paper-experiment benchmarks.

Every benchmark regenerates one table or figure of the paper.  The heavy
accuracy experiments are run once per benchmark (``rounds=1``) — the quantity
of interest is the experiment's *result*, which each benchmark also attaches
to ``benchmark.extra_info`` so the numbers appear in the saved benchmark JSON.

The serving benchmarks additionally record their headline trajectory numbers
(tokens/s, page-pool hit rate, padded-waste fraction, …) through the
``serve_trajectory`` fixture; the session writes them to
``benchmarks/BENCH_serve.json`` so CI can archive one small artifact per run
and future PRs can diff the serving perf trajectory without parsing the full
pytest-benchmark output.
"""

import json
import math
import os
import platform
import statistics
import time

import numpy as np
import pytest

from repro.nn import functional as F

_SERVE_TRAJECTORY = {}
_TRAJECTORY_PATH = os.path.join(os.path.dirname(__file__), "BENCH_serve.json")


@pytest.fixture
def run_once(benchmark):
    """Run a callable exactly once under pytest-benchmark and return its result."""

    def _run(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run


@pytest.fixture
def best_of():
    """Best-of-N wall-clock timer shared by the perf-assertion benchmarks."""

    def _best(func, repeats):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            func()
            best = min(best, time.perf_counter() - start)
        return best

    return _best


@pytest.fixture
def paired_ratio():
    """Noise-robust candidate/baseline wall-clock ratio for overhead pins.

    Separate best-of-N runs of the two sides sample machine noise
    *independently*, so a tight pin (e.g. 1.02×) can report 0.94 one run and
    1.05 the next on identical code.  This fixture instead runs the two
    callables as **paired interleaved trials** — alternating which side goes
    first each trial, so drift hits both symmetrically — and compares the
    **medians** (robust to a single descheduled trial, unlike min or mean).

    Returns ``(ratio, candidate_median_seconds, baseline_median_seconds)``.
    """

    def _ratio(candidate, baseline, trials=9, warmup=1):
        for _ in range(warmup):
            baseline()
            candidate()
        candidate_times, baseline_times = [], []
        for trial in range(trials):
            pair = ((candidate, candidate_times), (baseline, baseline_times))
            if trial % 2:
                pair = pair[::-1]
            for func, sink in pair:
                start = time.perf_counter()
                func()
                sink.append(time.perf_counter() - start)
        candidate_median = statistics.median(candidate_times)
        baseline_median = statistics.median(baseline_times)
        return candidate_median / baseline_median, candidate_median, baseline_median

    return _ratio


def _padded_attend(attention, q, kvs, prefixes=None):
    """Padded round attend: the baseline the per-slot attend is timed against.

    Copies every slot's K/V into one buffer padded to the round's longest
    sequence, masks the padding (causally inside the appended block when
    ``t_new > 1``) and attends all slots as one batched op, in the queries'
    dtype.  Signature-compatible with ``MultiHeadAttention._attend``, so a
    bench can swap it in for a whole decode; it has no shared-prefix path,
    so ``prefixes`` must be ``None``.
    """
    if prefixes is not None:
        raise ValueError("the padded attend baseline does not read shared prefixes")
    num_seqs, num_heads, t_new, head_dim = q.shape
    lengths = [k.shape[1] for k, _ in kvs]
    max_len = max(lengths)
    k_pad = np.zeros((num_seqs, num_heads, max_len, head_dim), q.dtype)
    v_pad = np.zeros((num_seqs, num_heads, max_len, head_dim), q.dtype)
    mask = np.full((num_seqs, 1, t_new, max_len), -np.inf, q.dtype)
    for i, (k, v) in enumerate(kvs):
        k_pad[i, :, : lengths[i]] = k
        v_pad[i, :, : lengths[i]] = v
        for j in range(t_new):
            mask[i, 0, j, : lengths[i] - t_new + 1 + j] = 0.0
    scores = q @ k_pad.transpose(0, 1, 3, 2) / math.sqrt(attention.head_dim) + mask
    return F.softmax(scores, axis=-1) @ v_pad


@pytest.fixture
def padded_attend():
    """The padded round-attend baseline (see :func:`_padded_attend`)."""
    return _padded_attend


@pytest.fixture
def serve_trajectory():
    """Record headline serving-perf numbers into the BENCH_serve.json artifact.

    Usage: ``serve_trajectory("section", metric=value, ...)`` — sections merge
    across benchmarks, so each bench contributes its own block.
    """

    def _record(section, **metrics):
        _SERVE_TRAJECTORY.setdefault(str(section), {}).update(metrics)

    return _record


@pytest.fixture
def serve_phase_report():
    """Attach a tracer's per-phase round breakdown to BENCH_serve.json.

    Usage: ``serve_phase_report("section", report)`` with a
    :class:`repro.serve.telemetry.PhaseReport` — the report's ``as_dict()``
    (rounds, round wall, named-phase coverage, per-phase count/total/self/
    share) lands under the section's ``phase_report`` key, so CI archives
    where round wall-clock goes alongside the throughput trajectory.
    """

    def _record(section, report):
        _SERVE_TRAJECTORY.setdefault(str(section), {})["phase_report"] = report.as_dict()

    return _record


def pytest_sessionfinish(session, exitstatus):
    """Write the serving trajectory artifact when any serve bench recorded one.

    Sections from an existing ``BENCH_serve.json`` are carried over so the
    benches can run as *separate* pytest sessions (CI budgets the scaled-tier
    wall-clock bench as its own step) and still produce one merged artifact;
    sections recorded by this session overwrite their stale counterparts.
    """
    if not _SERVE_TRAJECTORY:
        return
    sections = {}
    try:
        with open(_TRAJECTORY_PATH) as handle:
            sections.update(json.load(handle).get("sections", {}))
    except (OSError, ValueError):
        pass
    sections.update(_SERVE_TRAJECTORY)
    payload = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "exit_status": int(exitstatus),
        "sections": sections,
    }
    with open(_TRAJECTORY_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
