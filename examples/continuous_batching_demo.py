"""Continuous-batching demo: mixed-length LM generation over OVP KV caches.

Run with ``python examples/continuous_batching_demo.py``.  The demo submits a
stream of LM generation requests with wildly mixed token budgets and shows

1. sequences being **admitted and retired mid-flight** — every time a short
   sequence finishes, a queued request takes over its slot in the very next
   decode round instead of idling until the longest sequence finishes;
2. the **KV-cache memory story**: each sequence's K/V pages are sealed into
   memory-aligned OVP byte streams as it decodes, printed next to the bytes
   an fp32 cache would need for the same tokens;
3. the generation throughput of the stream.

It exits non-zero unless every request retires with ``stop`` or ``length``
and the stats summary counts exactly the tokens the retired requests carry.
"""

import sys
import time

import numpy as np

from repro.serve import (
    FinishReason,
    InferenceRequest,
    KVCacheConfig,
    SamplingParams,
    ServingEngine,
    WorkloadFamily,
)

MODEL = "gpt2-xl"
NUM_SLOTS = 4
KV_CONFIG = KVCacheConfig(bits=4, page_size=8)


def make_stream(seed: int = 0):
    """Mixed-length generation stream: stragglers riding with quick ones."""
    rng = np.random.default_rng(seed)
    budgets = [48, 4, 8, 4, 40, 4, 8, 4, 48, 8, 4, 4]
    return [
        InferenceRequest(
            MODEL,
            WorkloadFamily.LM,
            rng.integers(0, 96, size=8),
            sampling=SamplingParams(max_new_tokens=budget),
        )
        for budget in budgets
    ]


def watch_rounds(engine: ServingEngine, requests):
    """Drive the engine round by round, narrating admissions/retirements.

    Returns the wall time and every result the rounds retired."""
    for request in requests:
        engine.submit(request)
    scheduler = engine.lm_scheduler
    print(f"== {len(requests)} generation requests over {NUM_SLOTS} slots ==")
    print(f"{'round':>5} {'active':>6} {'queued':>6} {'done':>4}  "
          f"{'KV packed':>10} {'KV fp32':>10}  retired this round")
    rounds = 0
    results = []
    start = time.perf_counter()
    while engine.pending:
        retired = engine.step(force=True)
        results.extend(retired)
        rounds += 1
        if rounds % 8 == 0 or retired:
            names = ", ".join(
                f"{r.request_id}(+{len(r.output.token_ids)} tok)"
                for r in retired
            )
            print(f"{rounds:>5} {scheduler.num_active:>6} {scheduler.num_queued:>6} "
                  f"{scheduler.retired:>4}  {scheduler.kv_cache_bytes:>9,}B "
                  f"{scheduler.kv_fp32_bytes:>9,}B  {names}")
    return time.perf_counter() - start, results


def main() -> int:
    engine = ServingEngine(
        max_batch_size=NUM_SLOTS,
        max_wait=0.0,
        num_slots=NUM_SLOTS,
        kv_cache_config=KV_CONFIG,
    )
    print("== warm: quantize the model once into packed OVP streams ==")
    entry = engine.warm(MODEL, WorkloadFamily.LM)
    print(f"  {MODEL}: {entry.num_weight_tensors} weight tensors, "
          f"{entry.packed_bytes / 1e3:.0f} kB packed "
          f"({entry.compression_ratio:.1f}x vs fp32)\n")

    requests = make_stream()
    continuous_seconds, results = watch_rounds(engine, requests)
    summary = engine.stats.summary()
    generated = summary.generated_tokens
    retired_tokens = sum(len(r.output.token_ids) for r in results)
    finished = sorted(r.request_id for r in results) == sorted(
        r.request_id for r in requests
    ) and all(
        r.output.finish_reason in (FinishReason.STOP, FinishReason.LENGTH)
        for r in results
    )

    print("\n== KV cache memory (before/after OVP packing) ==")
    print(f"  fp32 cache at peak   : {summary.kv_fp32_bytes_peak:,} bytes")
    print(f"  OVP-paged cache      : {summary.kv_cache_bytes_peak:,} bytes "
          f"({summary.kv_compression:.1f}x smaller)")
    print(f"  mean slot occupancy  : {summary.mean_slot_occupancy * 100:.0f}%")
    print(f"  throughput           : {generated / continuous_seconds:.0f} tokens/s "
          f"({continuous_seconds * 1e3:.0f} ms)")
    print(f"  every request retired with stop/length: {finished}, "
          f"tokens counted {generated} / retired {retired_tokens}")
    return 0 if finished and generated == retired_tokens else 1


if __name__ == "__main__":
    sys.exit(main())
