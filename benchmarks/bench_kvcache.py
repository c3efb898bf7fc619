"""Benchmark: OVP-paged KV caches and incremental decode.

Two perf/memory properties guard the LM serving stack:

* incremental decode through a packed KV cache must beat full-prefix
  recomputation on long-prefix generation;
* a (mostly sealed) 4-bit OVP cache must be at least 4x smaller than the
  fp32 cache holding the same tokens.
"""

import numpy as np

from repro.serve import KVCacheConfig, ModelRepository, WorkloadFamily
from repro.serve.kvcache import cache_for_model

MODEL = "gpt2-xl"


def _generate_full_recompute(model, prompt, new_tokens):
    tokens = list(prompt)
    for _ in range(new_tokens):
        log_probs = model.log_probs(np.asarray(tokens)[None])[0, -1]
        tokens.append(int(np.argmax(log_probs)))
    return tokens[len(prompt):]


def _generate_incremental(model, prompt, new_tokens, config):
    cache = cache_for_model(model, config)
    log_probs = model.log_probs_incremental(np.asarray(prompt)[None], [cache])
    tokens = [int(np.argmax(log_probs[0, -1]))]
    for _ in range(new_tokens - 1):
        log_probs = model.log_probs_incremental(np.array([[tokens[-1]]]), [cache])
        tokens.append(int(np.argmax(log_probs[0, -1])))
    return tokens, cache


def test_bench_incremental_decode_beats_full_recompute(run_once, best_of, benchmark):
    repository = ModelRepository(bits=4)
    model = repository.get(MODEL, WorkloadFamily.LM).model
    prompt = np.random.default_rng(0).integers(0, 96, size=24)
    new_tokens = 32  # long prefix: sequence grows to 56 of 64 positions
    config = KVCacheConfig(bits=4, page_size=8)

    full_seconds = best_of(
        lambda: _generate_full_recompute(model, prompt, new_tokens), repeats=3
    )
    incremental_seconds = best_of(
        lambda: _generate_incremental(model, prompt, new_tokens, config), repeats=3
    )
    packed_tokens, cache = run_once(
        _generate_incremental, model, prompt, new_tokens, config
    )
    # The fp32-mode cache must reproduce full recompute token for token.
    fp_tokens, _ = _generate_incremental(
        model, prompt, new_tokens, KVCacheConfig(quantize=False)
    )
    assert fp_tokens == _generate_full_recompute(model, prompt, new_tokens)
    assert len(packed_tokens) == new_tokens

    speedup = full_seconds / incremental_seconds
    benchmark.extra_info.update(
        {
            "full_recompute_ms": round(full_seconds * 1e3, 2),
            "incremental_ms": round(incremental_seconds * 1e3, 2),
            "incremental_speedup": round(speedup, 2),
            "final_seq_len": int(cache.seq_len),
        }
    )
    assert speedup > 1.3, f"incremental decode only {speedup:.2f}x faster"


def test_bench_packed_cache_4x_smaller_than_fp32(run_once, benchmark):
    repository = ModelRepository(bits=4)
    model = repository.get(MODEL, WorkloadFamily.LM).model
    prompt = np.random.default_rng(1).integers(0, 96, size=32)
    config = KVCacheConfig(bits=4, page_size=8)

    # 32 prompt + 24 fed tokens = 56 cached steps = 7 fully sealed pages.
    _, cache = run_once(_generate_incremental, model, prompt, 25, config)
    summary = cache.memory_summary()
    compression = cache.compression_ratio
    benchmark.extra_info.update(
        {
            "kv_fp32_bytes": summary["kv_fp32_bytes"],
            "kv_cache_bytes": summary["kv_cache_bytes"],
            "kv_compression": round(compression, 2),
            "sealed_pages": summary["sealed_pages"],
        }
    )
    # 56 cached steps: 56 sealed (page 8) at 0.5 B/elem -> 8x; the bound
    # asserts >= 4x so a partially open page never flakes the build.
    assert summary["kv_cache_bytes"] * 4 <= summary["kv_fp32_bytes"], (
        f"packed KV cache only {compression:.2f}x smaller than fp32"
    )

