"""Telemetry demo: trace a speculative serving run and profile its rounds.

Run with ``python examples/telemetry_demo.py``.  The demo

1. serves a greedy speculative request stream under an enabled
   :class:`~repro.serve.telemetry.Tracer` — every decode round records its
   phase spans (admit, draft_propose, verify_batch, per-layer attend,
   kv_append, sample, retire) and every request records its lifecycle
   (queued -> prefill -> decode -> finish);
2. prints the per-phase wall-clock breakdown (``phase_report``) and an
   excerpt of the Prometheus metrics exposition (``metrics_text``);
3. writes the Chrome ``trace_event`` JSON to
   ``artifacts/telemetry_trace.json`` — load it at chrome://tracing or
   https://ui.perfetto.dev — and validates it (balanced B/E events,
   per-track monotone timestamps).

Set ``REPRO_ARTIFACTS_DIR`` to redirect the output directory; it is
created on demand and ignored by git (CI uploads it instead).
"""

import json
import os

import numpy as np

from repro.serve import (
    InferenceRequest,
    KVCacheConfig,
    ModelRepository,
    SamplingParams,
    ServingEngine,
    SpeculativeConfig,
    Tracer,
    WorkloadFamily,
    validate_chrome_trace,
)

MODEL = "gpt2-xl"
NUM_REQUESTS = 8
NEW_TOKENS = 24
ARTIFACTS_DIR = os.environ.get(
    "REPRO_ARTIFACTS_DIR",
    os.path.join(os.path.dirname(__file__), "..", "artifacts"),
)
TRACE_PATH = os.path.join(ARTIFACTS_DIR, "telemetry_trace.json")


def requests():
    rng = np.random.default_rng(42)
    return [
        InferenceRequest(
            MODEL,
            WorkloadFamily.LM,
            rng.integers(0, 96, size=8),
            sampling=SamplingParams(max_new_tokens=NEW_TOKENS),
        )
        for _ in range(NUM_REQUESTS)
    ]


def main():
    tracer = Tracer()
    engine = ServingEngine(
        ModelRepository(bits=4, seed=0),
        num_slots=4,
        kv_cache_config=KVCacheConfig(bits=4, page_size=16),
        speculative=SpeculativeConfig(),
        tracer=tracer,
    )
    engine.warm(MODEL, WorkloadFamily.LM)
    engine.warm_speculative(MODEL)
    tracer.reset()  # profile serving, not the one-off draft calibration

    print("== traced speculative serve")
    results = engine.serve(requests())
    summary = engine.stats.summary()
    print(f"   requests: {summary.requests}, decode rounds: {summary.decode_rounds}, "
          f"generated: {summary.generated_tokens}")
    print(f"   draft acceptance: {summary.draft_acceptance_rate:.1%}")

    print("\n== per-phase round breakdown (phase_report)")
    report = engine.phase_report()
    print(report.table())

    print("\n== metrics exposition excerpt (metrics_text)")
    for line in engine.metrics_text().splitlines():
        if line.startswith(("serve_decode_rounds_total", "serve_generated_tokens_total",
                            "serve_draft_acceptance_ratio", "serve_pool_hit_rate",
                            "serve_requests_finished_total")):
            print(f"   {line}")

    trace_path = os.path.normpath(TRACE_PATH)
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    tracer.write_chrome_trace(trace_path)
    with open(trace_path, "r", encoding="utf-8") as handle:
        counts = validate_chrome_trace(handle.read())
    print(f"\n== chrome trace written to {trace_path}")
    print(f"   events: {counts} (balanced, monotone; open at chrome://tracing)")

    lifecycle_tracks = {entry[0] for entry in tracer.lifecycles()}
    assert len(results) == NUM_REQUESTS
    assert lifecycle_tracks == {r.request_id for r in results}
    assert report.coverage >= 0.9, f"phase coverage {report.coverage:.1%} < 90%"
    assert counts["B"] == counts["E"] > 0
    print(f"== named-phase coverage {report.coverage:.1%} (>= 90% required)")


if __name__ == "__main__":
    main()
