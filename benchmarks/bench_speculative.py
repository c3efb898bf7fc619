"""Benchmark: self-speculative decoding vs plain greedy decode.

What is pinned
--------------
The pinned quantities are **deterministic** (seeded models, seeded prompts,
greedy decode), so this benchmark cannot flake on shared CI runners:

* **exactness** — the speculative token streams are identical to the
  non-speculative streams, request for request;
* **acceptance** — the draft's proposals are accepted at a rate ≥ 0.6;
* **modeled decode throughput** — ≥ 1.3× fewer target decode rounds per
  generated token.  On the paper's weight-streaming accelerator each decode
  round streams the packed target weights from DRAM once, so rounds/token is
  the memory-bound decode-throughput proxy this repo's methodology models
  (the same convention as the DRAM-byte accounting in ``repro.serve.stats``
  and the Fig. 9/10 simulators).  The draft adds **zero packed weight
  bytes**: it is the target's own first layers, so warming speculation adds
  no repository entry and no packed bytes (asserted below), and its
  per-round reads reuse the round's resident weight working set.

Wall-clock numbers are also measured and reported (``extra_info`` and the
``BENCH_serve.json`` trajectory) but not pinned: at the zoo's hidden-64
scale, NumPy per-call overhead — not weight bandwidth — dominates a round,
which caps what any speculation scheme can show in wall time here.
"""

import time

import numpy as np

from repro.serve import (
    ContinuousBatchingScheduler,
    InferenceRequest,
    KVCacheConfig,
    ModelRepository,
    SamplingParams,
    SpeculativeConfig,
    SpeculativeDecoder,
    WorkloadFamily,
)
from repro.serve.stats import ServingStats

MODEL = "gpt2-xl"
VOCAB = 96
NUM_SLOTS = 8
NUM_REQUESTS = 24       # 3× the slots: retired slots refill mid-flight
SEQ_LEN = 8
NEW_TOKENS = 48
CACHE = KVCacheConfig(bits=4, page_size=32, prefix_sharing=False)
SPEC = SpeculativeConfig(
    num_speculative_tokens=2,
    first_margin_threshold=2.0,
    margin_threshold=3.0,
)

MIN_STREAM_SPEEDUP = 1.3
MIN_ACCEPTANCE = 0.6


def _requests(seed=123):
    rng = np.random.default_rng(seed)
    return [
        InferenceRequest(
            MODEL,
            WorkloadFamily.LM,
            rng.integers(0, VOCAB, size=SEQ_LEN),
            sampling=SamplingParams(max_new_tokens=NEW_TOKENS),
        )
        for _ in range(NUM_REQUESTS)
    ]


def _drain(repository, speculative=None):
    stats = ServingStats()
    scheduler = ContinuousBatchingScheduler(
        repository,
        num_slots=NUM_SLOTS,
        cache_config=CACHE,
        stats=stats,
        speculative=speculative,
    )
    ids = [scheduler.submit(request) for request in _requests()]
    start = time.perf_counter()
    outputs = {r.request_id: list(r.output.token_ids) for r in scheduler.run_until_idle()}
    elapsed = time.perf_counter() - start
    return [outputs[request_id] for request_id in ids], stats.summary(), elapsed


def test_bench_speculative_decode(run_once, best_of, benchmark, serve_trajectory):
    repository = ModelRepository(bits=4, seed=0)
    target = repository.get(MODEL, WorkloadFamily.LM)
    decoder = SpeculativeDecoder(repository, SPEC, target_cache_config=CACHE)
    packed_bytes = target.packed_bytes
    decoder.warm(MODEL)  # calibrate the heads outside the timers

    # The draft streams no new packed bytes: it is the target's own first
    # layers, so warming adds no repository entry and no packed bytes.
    assert repository.cached_entries() == [target]
    assert target.packed_bytes == packed_bytes

    plain_tokens, plain_summary, _ = _drain(repository)
    spec_tokens, spec_summary, _ = _drain(repository, speculative=decoder)

    # Exactness: speculative greedy decode is token-for-token the plain decode.
    assert spec_tokens == plain_tokens

    acceptance = spec_summary.draft_acceptance_rate
    assert acceptance >= MIN_ACCEPTANCE, (
        f"draft acceptance {acceptance:.3f} below {MIN_ACCEPTANCE}"
    )

    # Modeled weight-streaming decode throughput: one packed-target stream
    # per decode round, identical tokens generated on both sides.
    plain_rounds = plain_summary.decode_rounds
    spec_rounds = spec_summary.decode_rounds
    stream_speedup = plain_rounds / spec_rounds
    assert stream_speedup >= MIN_STREAM_SPEEDUP, (
        f"speculative decode used {spec_rounds} rounds vs {plain_rounds} "
        f"plain ({stream_speedup:.2f}x); needs ≥ {MIN_STREAM_SPEEDUP}x"
    )

    # Wall-clock (informational): best-of adjacent pairs, like bench_sampling.
    pairs = []
    for repeat in range(3):
        if repeat % 2 == 0:
            plain_s = best_of(lambda: _drain(repository), 1)
            spec_s = best_of(lambda: _drain(repository, speculative=decoder), 1)
        else:
            spec_s = best_of(lambda: _drain(repository, speculative=decoder), 1)
            plain_s = best_of(lambda: _drain(repository), 1)
        pairs.append((spec_s / plain_s, plain_s, spec_s))
    _, plain_seconds, spec_seconds = min(pairs)

    run_once(_drain, repository, decoder)
    generated = spec_summary.generated_tokens
    numbers = {
        "generated_tokens": generated,
        "draft_acceptance_rate": round(acceptance, 4),
        "draft_proposed_tokens": spec_summary.draft_proposed_tokens,
        "draft_accepted_tokens": spec_summary.draft_accepted_tokens,
        "plain_decode_rounds": plain_rounds,
        "speculative_decode_rounds": spec_rounds,
        "weight_stream_speedup": round(stream_speedup, 3),
        "target_packed_kib": round(target.packed_bytes / 1024, 1),
        "plain_wall_ms": round(plain_seconds * 1e3, 1),
        "speculative_wall_ms": round(spec_seconds * 1e3, 1),
        "wall_ratio": round(plain_seconds / spec_seconds, 3),
    }
    benchmark.extra_info.update(numbers)
    serve_trajectory("speculative", **numbers)
