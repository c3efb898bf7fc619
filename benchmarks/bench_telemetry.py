"""Benchmark: telemetry overhead and the traced-round phase breakdown.

Two perf properties guard the observability layer:

* **off means free** — serving with a disabled ``Tracer`` (the instrumented
  hot path hitting its ``enabled`` checks and the shared null span) must
  stay within 2% of serving with a bench-local stand-in that does nothing;
* **on means cheap** — the fully-enabled tracer's overhead on a speculative
  serving run is reported informationally, and its phase report must name at
  least 90% of where the round wall-clock went (the report is useless if
  most of the round is unattributed).

The enabled run's phase breakdown is attached to ``BENCH_serve.json`` via the
``serve_phase_report`` fixture, so CI archives the round profile alongside
the throughput trajectory.
"""

import contextlib
import json

import numpy as np

from repro.serve import (
    HealthConfig,
    InferenceRequest,
    KVCacheConfig,
    ModelRepository,
    SamplingParams,
    ServingEngine,
    SLOClass,
    SpeculativeConfig,
    Tracer,
    WorkloadFamily,
    validate_chrome_trace,
)

MODEL = "gpt2-xl"
VOCAB = 96

SPEC = SpeculativeConfig(
    num_speculative_tokens=2,
    calibration_sequences=6,
    calibration_tokens=12,
    calibration_prompt_len=4,
)


def lm_requests(seed, count=4, seq_len=8, max_new_tokens=12):
    rng = np.random.default_rng(seed)
    return [
        InferenceRequest(
            MODEL,
            WorkloadFamily.LM,
            rng.integers(0, VOCAB, size=seq_len),
            sampling=SamplingParams(max_new_tokens=max_new_tokens),
        )
        for _ in range(count)
    ]


class _AbsentTracer:
    """The least a tracer can be: never enabled, every call a no-op.

    The baseline of the disabled-tracer pin, so the pin compares a real
    ``Tracer(enabled=False)`` with tracing that costs nothing at all.
    """

    enabled = False
    _NOOP = contextlib.nullcontext()

    def span(self, name, cat="phase", attrs=None):
        return self._NOOP

    def lifecycle_begin(self, track, name, attrs=None):
        pass

    def lifecycle_end(self, track, attrs=None):
        pass


def make_engine(repository, tracer=None):
    engine = ServingEngine(
        repository,
        num_slots=4,
        kv_cache_config=KVCacheConfig(bits=4, page_size=16),
        speculative=SPEC,
        tracer=tracer,
    )
    return engine


def test_bench_disabled_tracer_is_free(run_once, paired_ratio, benchmark, serve_trajectory):
    """Serving with ``Tracer(enabled=False)`` must match do-nothing tracing.

    The baseline engine carries an :class:`_AbsentTracer`.  Every
    instrumented call site pays only an ``enabled`` attribute check on the
    disabled ``Tracer``, so the regression budget is 2%.  Both engines also run
    with the health layer at its default (``health=None``), so the pin
    covers the disabled-health step path too.  The measurement is paired
    interleaved median-of-k trials (alternating order each trial): separate
    best-of-N runs sample noise independently and routinely report ratios
    like 0.94 — noise wider than the 1.02 gate itself.  A trial serves one
    slot-full of requests (20-30 ms on a 2-CPU box), and that box's noise
    comes in bursts that slow whole trials by up to 60%, so the medians
    are taken over 201 trials.  At 9 trials a burst moved one side's
    median by up to 20% and the pin failed 3 of 10 reruns; at 201 the
    ratio stayed within 0.99-1.013 over 10 reruns.
    """
    repository = ModelRepository(bits=4, seed=0)
    absent = make_engine(repository, tracer=_AbsentTracer())
    disabled = make_engine(repository, tracer=Tracer(enabled=False))
    for engine in (absent, disabled):
        engine.warm(MODEL, WorkloadFamily.LM)
        engine.warm_speculative(MODEL)
        engine.serve(lm_requests(0))  # warm pools, caches, code paths

    ratio, disabled_seconds, absent_seconds = paired_ratio(
        lambda: disabled.serve(lm_requests(1)),
        lambda: absent.serve(lm_requests(1)),
        trials=201,
    )

    results = run_once(disabled.serve, lm_requests(2))
    assert len(results) == 4
    assert disabled.tracer.num_spans == 0  # recorded nothing
    assert disabled.chrome_trace()["traceEvents"] == []

    benchmark.extra_info.update(
        {
            "absent_ms": round(absent_seconds * 1e3, 2),
            "disabled_ms": round(disabled_seconds * 1e3, 2),
            "disabled_over_absent": round(ratio, 4),
        }
    )
    serve_trajectory(
        "telemetry",
        disabled_over_absent=round(ratio, 4),
        absent_ms=round(absent_seconds * 1e3, 2),
        disabled_ms=round(disabled_seconds * 1e3, 2),
    )
    assert ratio <= 1.02, (
        f"disabled tracer costs {ratio:.3f}x over no tracer (budget 1.02x)"
    )


def test_bench_health_monitor_overhead(run_once, paired_ratio, benchmark, serve_trajectory):
    """Continuous SLO evaluation cost, worst case (informational).

    The *default* path (``health=None``) is covered by the disabled-tracer
    pin above — both of its engines run health-disabled.  Here the monitor
    evaluates after **every** engine step (``evaluation_interval_seconds=0``,
    far more often than the 1 s production default) to bound what continuous
    evaluation costs; the number is recorded in the trajectory artifact, not
    pinned, because the serve under test is only a few milliseconds long.
    """
    repository = ModelRepository(bits=4, seed=0)
    plain = make_engine(repository)
    monitored = ServingEngine(
        repository,
        num_slots=4,
        kv_cache_config=KVCacheConfig(bits=4, page_size=16),
        speculative=SPEC,
        health=HealthConfig(
            classes=(SLOClass(),),
            evaluation_interval_seconds=0.0,
        ),
    )
    for engine in (plain, monitored):
        engine.warm(MODEL, WorkloadFamily.LM)
        engine.warm_speculative(MODEL)
        engine.serve(lm_requests(0))

    ratio, monitored_seconds, plain_seconds = paired_ratio(
        lambda: monitored.serve(lm_requests(5)),
        lambda: plain.serve(lm_requests(5)),
        trials=9,
    )
    results = run_once(monitored.serve, lm_requests(6))
    assert len(results) == 4
    report = monitored.health_report()
    assert report["slo"]["default"]["availability"]["events"] > 0

    benchmark.extra_info.update(
        {
            "health_every_step_over_absent": round(ratio, 4),
            "monitored_ms": round(monitored_seconds * 1e3, 2),
            "plain_ms": round(plain_seconds * 1e3, 2),
            "status": report["status"],
        }
    )
    serve_trajectory(
        "health",
        health_every_step_over_absent=round(ratio, 4),
        monitored_ms=round(monitored_seconds * 1e3, 2),
    )


def test_bench_enabled_tracer_overhead_and_coverage(
    run_once, best_of, benchmark, serve_trajectory, serve_phase_report
):
    """Enabled-tracer overhead (informational) + phase-report coverage gate."""
    repository = ModelRepository(bits=4, seed=0)
    baseline = make_engine(repository)
    tracer = Tracer()
    traced = make_engine(repository, tracer=tracer)
    for engine in (baseline, traced):
        engine.warm(MODEL, WorkloadFamily.LM)
        engine.warm_speculative(MODEL)
        engine.serve(lm_requests(0))

    baseline_seconds = best_of(lambda: baseline.serve(lm_requests(3)), repeats=5)

    def traced_serve():
        tracer.reset()
        traced.serve(lm_requests(3))

    enabled_seconds = best_of(traced_serve, repeats=5)
    enabled_ratio = enabled_seconds / baseline_seconds

    tracer.reset()
    results = run_once(traced.serve, lm_requests(4))
    assert [r.output.finish_reason for r in results] == ["length"] * 4

    report = traced.phase_report()
    assert report.rounds > 0
    assert report.coverage >= 0.9, (
        f"phase report names only {report.coverage:.1%} of the round wall"
    )
    counts = validate_chrome_trace(json.dumps(traced.chrome_trace()))
    assert counts["B"] == counts["E"] > 0

    benchmark.extra_info.update(
        {
            "enabled_over_absent": round(enabled_ratio, 3),
            "enabled_ms": round(enabled_seconds * 1e3, 2),
            "spans_per_serve": tracer.num_spans,
            "phase_coverage": round(report.coverage, 4),
            "round_ms": round(report.round_ms, 2),
        }
    )
    serve_trajectory(
        "telemetry",
        enabled_over_absent=round(enabled_ratio, 3),
        spans_per_serve=tracer.num_spans,
        phase_coverage=round(report.coverage, 4),
    )
    serve_phase_report("telemetry", report)
