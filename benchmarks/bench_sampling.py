"""Benchmark: sampled decode-round overhead over greedy at batch 8.

The sampling pipeline (temperature warp, top-k/top-p filters, one
``Generator`` draw per token) runs per slot per round on the decode hot
path.  The model forward dominates a round, so the pipeline must stay in
the noise: sampled decode is pinned to **≤ 10% overhead over greedy** at
batch 8.  The greedy path itself is pinned to equivalence — the
``SamplingParams(temperature=0)`` stream must be token-for-token what the
legacy ``max_new_tokens=`` kwargs produce.

The headline numbers land in the ``BENCH_serve.json`` trajectory artifact
(section ``sampling``).
"""

import numpy as np

from repro.serve import (
    InferenceRequest,
    KVCacheConfig,
    ModelRepository,
    SamplingParams,
    WorkloadFamily,
)
from repro.serve.scheduler import ContinuousBatchingScheduler

MODEL = "gpt2-xl"
BATCH = 8
SEQ_LEN = 24
NEW_TOKENS = 16


def _requests(params_for):
    rng = np.random.default_rng(123)
    prompts = [rng.integers(0, 96, size=SEQ_LEN) for _ in range(BATCH)]
    return [
        InferenceRequest(MODEL, WorkloadFamily.LM, prompt, sampling=params_for(i))
        for i, prompt in enumerate(prompts)
    ]


def test_bench_sampled_decode_overhead_within_10pct(
    run_once, best_of, benchmark, serve_trajectory
):
    """Sampled decode rounds vs greedy on the same batch-8 stream."""
    repository = ModelRepository(bits=4, seed=0)
    repository.get(MODEL, WorkloadFamily.LM)  # build outside the timer

    def drain(params_for):
        # Prefix sharing off: every run prefills cold, so the comparison
        # times the decode rounds, not the second run's page-pool hits.
        scheduler = ContinuousBatchingScheduler(
            repository,
            num_slots=BATCH,
            cache_config=KVCacheConfig(bits=4, page_size=8, prefix_sharing=False),
        )
        for request in _requests(params_for):
            scheduler.submit(request)
        return scheduler.run_until_idle()

    def greedy_params(i):
        return SamplingParams(temperature=0, max_new_tokens=NEW_TOKENS)

    def sampled_params(i):
        return SamplingParams(
            temperature=0.8, top_k=40, top_p=0.95, seed=i, max_new_tokens=NEW_TOKENS
        )

    # Machine noise (turbo, GC, co-tenants) dwarfs the few-percent overhead
    # under test, so compare *adjacent* greedy/sampled pairs — a load spike
    # hits both sides of its pair — alternating the order within each pair,
    # and judge the cleanest pair.
    drain(greedy_params)  # warm everything outside the comparison
    pairs = []
    for repeat in range(5):
        if repeat % 2 == 0:
            greedy = best_of(lambda: drain(greedy_params), 1)
            sampled = best_of(lambda: drain(sampled_params), 1)
        else:
            sampled = best_of(lambda: drain(sampled_params), 1)
            greedy = best_of(lambda: drain(greedy_params), 1)
        pairs.append((sampled / greedy, greedy, sampled))
    _, greedy_seconds, sampled_seconds = min(pairs)

    # Equivalence: the explicit temperature=0 params are the legacy greedy path.
    greedy_results = {r.request_id: r.output.token_ids for r in drain(greedy_params)}
    legacy = ContinuousBatchingScheduler(
        repository,
        num_slots=BATCH,
        cache_config=KVCacheConfig(bits=4, page_size=8, prefix_sharing=False),
    )
    rng = np.random.default_rng(123)
    legacy_ids = [
        legacy.submit(
            InferenceRequest(
                MODEL,
                WorkloadFamily.LM,
                rng.integers(0, 96, size=SEQ_LEN),
                sampling=SamplingParams(max_new_tokens=NEW_TOKENS),
            )
        )
        for _ in range(BATCH)
    ]
    legacy_results = {r.request_id: r.output.token_ids for r in legacy.run_until_idle()}
    assert list(greedy_results.values()) == [
        legacy_results[request_id] for request_id in legacy_ids
    ]

    overhead = sampled_seconds / greedy_seconds - 1.0
    assert sampled_seconds <= greedy_seconds * 1.10, (
        f"sampled decode is {overhead:+.1%} over greedy "
        f"({sampled_seconds * 1e3:.1f}ms vs {greedy_seconds * 1e3:.1f}ms); "
        "the pipeline must stay within 10%"
    )

    run_once(drain, sampled_params)
    benchmark.extra_info.update(
        {
            "batch": BATCH,
            "new_tokens_per_request": NEW_TOKENS,
            "greedy_ms": round(greedy_seconds * 1e3, 2),
            "sampled_ms": round(sampled_seconds * 1e3, 2),
            "sampled_overhead_pct": round(overhead * 100, 2),
        }
    )
    serve_trajectory(
        "sampling",
        greedy_ms=round(greedy_seconds * 1e3, 2),
        sampled_ms=round(sampled_seconds * 1e3, 2),
        sampled_overhead_pct=round(overhead * 100, 2),
    )
