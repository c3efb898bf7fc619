"""Benchmark: seal-time K/V rows, prefix-shared prefill, per-slot attend.

These perf properties guard the paged-attention hot paths:

* a decode round over long cached histories must be ≥2× faster reading the
  caches' own rows (each sealed page's dequantized values, written when it
  sealed) than a baseline that re-decodes every sealed page through the
  page pool and concatenates every round, at 256+ cached tokens per slot;
* prefix-shared prefill of a common prompt must be ≥1.5× faster than cold
  prefill (the shared pages attach instead of re-running the model);
* a cold wave of four requests on one document must be ≥2× faster with
  prefix sharing, whose followers wait for the first request's sealed pages
  and prefill only their questions, than with every request prefilling the
  document (prefill tokens counted exactly on both sides);
* the round attend, which attends each slot over its own K/V rows in place,
  must be no slower than a padded attend on uniform lengths and faster on
  mixed lengths;
* a decode round whose slots share document prefixes must be ≥1.3× faster
  attending each shared block once for all its holders (cascade attention)
  than attending every slot over its own copy of the prefix rows.

Every comparison also checks the fast path is *equivalent*: the decoded
rows are bitwise identical to a fresh decode, prefix sharing reproduces the
cold path's greedy tokens (in the cold wave too), the round attend matches
the padded baseline's outputs, and the cascade round matches the per-slot
round within 1e-12.
"""

import numpy as np

from repro.nn.attention import MultiHeadAttention
from repro.serve import (
    InferenceRequest,
    KVCacheConfig,
    ModelRepository,
    SamplingParams,
    WorkloadFamily,
)
from repro.serve.kvcache import LayerKVCache, PagePool
from repro.serve.scheduler import ContinuousBatchingScheduler

MODEL = "gpt2-xl"
HEADS, DIM = 8, 32


def _filled_caches(lengths, config, rng):
    """One standalone layer cache per slot, sealed to the requested lengths."""
    caches = []
    for length in lengths:
        cache = LayerKVCache(HEADS, DIM, config)
        kv = rng.normal(size=(2, HEADS, length, DIM))
        cache.append(kv[0], kv[1])
        caches.append(cache)
    return caches


def _redecode_round(caches):
    """The re-decode-every-round baseline: one batched pool decode of every
    slot's sealed pages, then each slot's K/V concatenated from the pages
    and its open rows."""
    handles = [h for cache in caches for h in cache._sealed_k + cache._sealed_v]
    pages = caches[0].pool.decoded_many(handles, caches[0].codec)
    kvs, offset = [], 0
    for cache in caches:
        count = len(cache._sealed_k)
        sealed = count * cache.config.page_size
        k_rows, v_rows = cache.kv()
        kvs.append(
            (
                np.concatenate(pages[offset:offset + count] + [k_rows[:, sealed:]], axis=1),
                np.concatenate(
                    pages[offset + count:offset + 2 * count] + [v_rows[:, sealed:]],
                    axis=1,
                ),
            )
        )
        offset += 2 * count
    return kvs


def test_bench_pool_decode_reuse_2x_over_redecode(
    run_once, best_of, benchmark, serve_trajectory
):
    """Decode rounds reading the decoded rows vs re-decoding every round."""
    lengths = [288, 288, 288, 288]  # 256+ cached tokens per slot, fully sealed
    rounds = 8
    rng = np.random.default_rng(0)
    config = KVCacheConfig(bits=4, page_size=16)
    pool = PagePool()
    caches = [
        LayerKVCache(HEADS, DIM, config, pool=pool, capacity=length)
        for length in lengths
    ]
    for cache, length in zip(caches, lengths):
        kv = rng.normal(size=(2, HEADS, length, DIM))
        cache.append(kv[0], kv[1])

    def rows_rounds():
        for _ in range(rounds):
            kvs = LayerKVCache.kv_many(caches)
        return kvs

    def redecode_rounds():
        for _ in range(rounds):
            kvs = _redecode_round(caches)
        return kvs

    pooled_seconds = best_of(rows_rounds, repeats=3)
    baseline_seconds = best_of(redecode_rounds, repeats=3)
    # Equivalence: the decoded rows must be bitwise what a fresh decode gives.
    before = pool.counters()
    pooled_kvs = rows_rounds()
    assert pool.counters() == before  # reading the rows decodes nothing
    for (k_a, v_a), (k_b, v_b) in zip(pooled_kvs, redecode_rounds()):
        np.testing.assert_array_equal(k_a, k_b)
        np.testing.assert_array_equal(v_a, v_b)
    run_once(LayerKVCache.kv_many, caches)

    speedup = baseline_seconds / pooled_seconds
    cached_tokens = sum(lengths)
    benchmark.extra_info.update(
        {
            "cached_tokens": cached_tokens,
            "redecode_ms": round(baseline_seconds * 1e3, 2),
            "pooled_ms": round(pooled_seconds * 1e3, 2),
            "pool_speedup": round(speedup, 2),
        }
    )
    serve_trajectory(
        "pool_decode",
        cached_tokens=cached_tokens,
        pool_speedup=round(speedup, 2),
    )
    assert speedup >= 2.0, f"decoded rows only {speedup:.2f}x over re-decode"


def test_bench_prefix_shared_prefill_1_5x_over_cold(
    run_once, best_of, benchmark, serve_trajectory
):
    """Admitting a known prompt attaches sealed pages instead of re-prefilling."""
    repository = ModelRepository(bits=4)
    repository.get(MODEL, WorkloadFamily.LM)
    prompt = np.random.default_rng(1).integers(0, 96, size=60)

    def request():
        return InferenceRequest(
            MODEL, WorkloadFamily.LM, prompt, sampling=SamplingParams(max_new_tokens=2)
        )

    def make_scheduler(prefix_sharing):
        return ContinuousBatchingScheduler(
            repository,
            num_slots=2,
            cache_config=KVCacheConfig(
                bits=4, page_size=8, prefix_sharing=prefix_sharing
            ),
        )

    warm = make_scheduler(prefix_sharing=True)
    warm.submit(request())
    warm_tokens = warm.run_until_idle()[0].output.token_ids

    def serve_one(scheduler):
        scheduler.submit(request())
        return scheduler.run_until_idle()[0]

    cold = make_scheduler(prefix_sharing=False)
    shared_seconds = best_of(lambda: serve_one(warm), repeats=5)
    cold_seconds = best_of(lambda: serve_one(cold), repeats=5)

    # Equivalence: the shared path generates the cold path's greedy tokens.
    shared_result = run_once(serve_one, warm)
    cold_result = serve_one(cold)
    assert shared_result.output.token_ids == warm_tokens
    assert shared_result.output.token_ids == cold_result.output.token_ids
    # 60-token prompt, page 8: 7 pages = 56 tokens attach, 4 prefill.
    assert shared_result.output.kv_cache["prefix_shared_tokens"] == 56

    speedup = cold_seconds / shared_seconds
    benchmark.extra_info.update(
        {
            "prompt_tokens": int(prompt.size),
            "cold_prefill_ms": round(cold_seconds * 1e3, 2),
            "shared_prefill_ms": round(shared_seconds * 1e3, 2),
            "prefix_speedup": round(speedup, 2),
        }
    )
    serve_trajectory("prefix_sharing", prefix_speedup=round(speedup, 2))
    assert speedup >= 1.5, f"prefix-shared prefill only {speedup:.2f}x over cold"


def test_bench_inflight_prefix_wave(run_once, paired_ratio, benchmark, serve_trajectory):
    """A cold wave on one document: followers wait for the leader's pages.

    Four requests on a document nobody has indexed arrive together, on the
    scaled tier at servebench's page size.  With prefix sharing the first
    prefills the document and the other three wait for its sealed pages,
    then prefill only their questions; without it every request prefills
    the whole document.
    """
    model = "gpt2-xl-scaled"
    page_size = 32
    repository = ModelRepository(bits=4)
    repository.get(model, WorkloadFamily.LM)
    rng = np.random.default_rng(6)
    document = rng.integers(0, 96, size=8 * page_size)
    prompts = [np.concatenate([document, rng.integers(0, 96, size=16)]) for _ in range(4)]

    def serve_wave(prefix_sharing):
        scheduler = ContinuousBatchingScheduler(
            repository,
            num_slots=len(prompts),
            cache_config=KVCacheConfig(
                bits=4, page_size=page_size, prefix_sharing=prefix_sharing
            ),
        )
        for prompt in prompts:
            scheduler.submit(
                InferenceRequest(
                    model, WorkloadFamily.LM, prompt, sampling=SamplingParams(max_new_tokens=2)
                )
            )
        results = scheduler.run_until_idle()
        assert len(results) == len(prompts)
        registry = scheduler.stats.registry
        prefilled = (
            registry.get("serve_tokens_total").value()
            - registry.get("serve_generated_tokens_total").value()
        )
        streams = sorted(result.output.token_ids for result in results)
        return streams, prefilled

    ratio, shared_s, cold_s = paired_ratio(
        lambda: serve_wave(True), lambda: serve_wave(False), trials=9
    )
    shared_streams, shared_prefilled = run_once(serve_wave, True)
    cold_streams, cold_prefilled = serve_wave(False)
    # Equivalence: the followers generate the cold wave's greedy tokens.
    assert shared_streams == cold_streams
    questions = sum(prompt.size - document.size for prompt in prompts)
    assert shared_prefilled == document.size + questions
    assert cold_prefilled == sum(prompt.size for prompt in prompts)

    speedup = 1.0 / ratio
    benchmark.extra_info.update(
        {
            "shared_prefill_tokens": int(shared_prefilled),
            "cold_prefill_tokens": int(cold_prefilled),
            "shared_wave_ms": round(shared_s * 1e3, 2),
            "cold_wave_ms": round(cold_s * 1e3, 2),
            "wave_speedup": round(speedup, 2),
        }
    )
    serve_trajectory(
        "inflight_prefix",
        shared_prefill_tokens=int(shared_prefilled),
        cold_prefill_tokens=int(cold_prefilled),
        wave_speedup=round(speedup, 2),
    )
    assert speedup >= 2.0, f"in-flight prefix wave only {speedup:.2f}x over cold"


def test_bench_round_attend_vs_padded(
    run_once, best_of, benchmark, serve_trajectory, padded_attend
):
    """Per-slot round attend: no slower on uniform lengths, faster on mixed."""
    mha = MultiHeadAttention(HEADS * DIM, HEADS, rng=np.random.default_rng(2))
    layers_per_round = 4

    def inputs(lengths):
        # Fresh fixed-seed rng per call: both sides see identical K/V and q.
        rng = np.random.default_rng(3)
        config = KVCacheConfig(quantize=False, page_size=16)
        kvs = LayerKVCache.kv_many(_filled_caches(lengths, config, rng))
        return rng.normal(size=(len(lengths), HEADS, 1, DIM)), kvs

    def kernel_seconds(lengths, mode):
        q, kvs = inputs(lengths)

        def run():
            for _ in range(layers_per_round):
                if mode == "padded":
                    out = padded_attend(mha, q, kvs)
                else:
                    out = mha._attend(q, kvs)
            return out

        return best_of(run, repeats=5), run()

    uniform = [384] * 8
    mixed = [16] * 6 + [384] * 2

    uniform_padded_s, uniform_padded = kernel_seconds(uniform, "padded")
    uniform_round_s, uniform_round = kernel_seconds(uniform, "round")
    mixed_padded_s, mixed_padded = kernel_seconds(mixed, "padded")
    mixed_round_s, mixed_round = kernel_seconds(mixed, "round")

    # Equivalence: same attended outputs (and the same winner per slot/head).
    np.testing.assert_allclose(uniform_round, uniform_padded, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(mixed_round, mixed_padded, rtol=1e-9, atol=1e-12)
    np.testing.assert_array_equal(
        mixed_round.argmax(axis=-1), mixed_padded.argmax(axis=-1)
    )

    # Share of the padded K/V cells that hold masked padding; the round
    # attend reads only each slot's own rows, so it has none.
    padded_waste = 1.0 - sum(mixed) / (len(mixed) * max(mixed))
    mixed_speedup = mixed_padded_s / mixed_round_s
    uniform_ratio = uniform_round_s / uniform_padded_s
    benchmark.extra_info.update(
        {
            "uniform_padded_ms": round(uniform_padded_s * 1e3, 3),
            "uniform_round_ms": round(uniform_round_s * 1e3, 3),
            "mixed_padded_ms": round(mixed_padded_s * 1e3, 3),
            "mixed_round_ms": round(mixed_round_s * 1e3, 3),
            "mixed_speedup": round(mixed_speedup, 2),
            "padded_waste_fraction": round(padded_waste, 4),
        }
    )
    serve_trajectory(
        "round_attend",
        mixed_speedup=round(mixed_speedup, 2),
        padded_waste_fraction=round(padded_waste, 4),
    )
    # The padded side also pays the pad copies; allow scheduling noise.
    assert uniform_ratio <= 1.15, (
        f"round attend {uniform_ratio:.2f}x slower than padded on uniform lengths"
    )
    assert mixed_speedup > 1.0, (
        f"round attend {mixed_speedup:.2f}x did not beat padded on mixed lengths"
    )

    run_once(mha._attend, *inputs(mixed))


def test_bench_shared_prefix_decode_round(
    run_once, paired_ratio, benchmark, serve_trajectory
):
    """Cascade decode round over shared document blocks vs per-slot copies."""
    heads, dim = 8, 64  # the scaled tier's attention geometry
    mha = MultiHeadAttention(heads * dim, heads, rng=np.random.default_rng(4))
    config = KVCacheConfig(bits=4, page_size=32)
    layers_per_round = 4
    documents = (512, 384, 640)
    holders = (0, 0, 0, 1, 1, 2, 2, 2)  # 8 slots over the three documents
    rng = np.random.default_rng(5)
    pool = PagePool()
    owners = []
    for length in documents:
        owner = LayerKVCache(heads, dim, config, pool=pool, capacity=length)
        kv = rng.normal(size=(2, heads, length, dim))
        owner.append(kv[0], kv[1])
        owners.append(owner)
    slots = []
    for doc in holders:
        owner = owners[doc]
        cache = LayerKVCache(heads, dim, config, pool=pool, capacity=documents[doc] + 64)
        cache.attach(owner._sealed_k, owner._sealed_v, documents[doc])
        question = int(rng.integers(8, 40))  # own rows: question + one decode step
        kv = rng.normal(size=(2, heads, question, dim))
        cache.append(kv[0], kv[1])
        slots.append(cache)
    assert pool.num_blocks == len(documents)
    q = rng.normal(size=(len(slots), heads, 1, dim))
    own = LayerKVCache.kv_many(slots)
    prefixes = [cache.shared_kv() for cache in slots]
    # The per-slot layout: every slot holds its whole history in its own rows.
    copies = [tuple(np.ascontiguousarray(a) for a in cache.kv()) for cache in slots]

    def cascade_round():
        for _ in range(layers_per_round):
            out = mha._attend(q, own, prefixes)
        return out

    def per_slot_round():
        for _ in range(layers_per_round):
            out = mha._attend(q, copies)
        return out

    # Interleaved paired trials: independent best-of-N runs of each side
    # sample machine noise independently (see conftest.paired_ratio).
    ratio, cascade_s, per_slot_s = paired_ratio(cascade_round, per_slot_round, trials=31)
    cascade, per_slot = cascade_round(), per_slot_round()
    assert np.abs(cascade - per_slot).max() <= 1e-12
    np.testing.assert_array_equal(cascade.argmax(axis=-1), per_slot.argmax(axis=-1))
    run_once(cascade_round)

    speedup = 1.0 / ratio
    benchmark.extra_info.update(
        {
            "slots": len(slots),
            "shared_kv_tokens": sum(documents),
            "per_slot_ms": round(per_slot_s * 1e3, 3),
            "cascade_ms": round(cascade_s * 1e3, 3),
            "cascade_speedup": round(speedup, 2),
        }
    )
    serve_trajectory(
        "shared_prefix_attend",
        slots=len(slots),
        shared_kv_tokens=sum(documents),
        cascade_speedup=round(speedup, 2),
    )
    assert speedup >= 1.3, f"cascade round only {speedup:.2f}x over per-slot copies"
