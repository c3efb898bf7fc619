"""Prefix-sharing demo: one system prompt, many requests, pages decoded at most once.

Run with ``python examples/prefix_sharing_demo.py``.  The demo serves a wave
of LM generation requests that all start with the same long "system prompt"
followed by a short user-specific suffix — the classic chat-serving shape —
and shows

1. **prefix sharing**: the first request prefills and seals the system
   prompt's KV pages; every later request's prompt hashes to those sealed
   pages and *attaches* to them copy-on-write instead of re-running (and
   re-quantizing) the prefill, so admission cost drops to the suffix;
2. **decode-once paging**: a sealing page quantizes its own rows in place
   (the encoder writes them back, nothing decodes), and a sealed page is
   OVP-decoded once when a request attaches it and no live request holds
   the prompt's shared block yet — so decode rounds never re-decode a page;
3. **shared blocks**: a second wave arrives all at once, so several live
   requests hold the system prompt together; they read one decoded block
   (pool hits, no decode) and attend it once per round for all of them;
4. **in-flight followers**: a third wave arrives all at once on a system
   prompt nobody has seen; the first admitted request prefills it while the
   others wait for its sealed pages, then prefill only their suffixes, so
   the new prompt is prefilled once;
5. the pool's accounting: pages decoded at prefix attach next to pages
   served by a live shared block, prefix pages attached, live pages.

The demo exits 1 when any greedy stream differs from the cold run's, or
when the cold wave prefilled its system prompt more than once.
"""

import sys
import time

import numpy as np

from repro.serve import (
    InferenceRequest,
    KVCacheConfig,
    SamplingParams,
    ServingEngine,
    WorkloadFamily,
)

MODEL = "gpt2-xl"
SYSTEM_PROMPT_LEN = 48
SUFFIX_LEN = 8
NUM_REQUESTS = 6
KV_CONFIG = KVCacheConfig(bits=4, page_size=8)  # pool + prefix sharing on


def make_requests(system_prompt, seed: int = 1):
    """Same system prompt, different user suffixes (and one exact repeat)."""
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(NUM_REQUESTS):
        suffix = rng.integers(0, 96, size=SUFFIX_LEN)
        requests.append(
            InferenceRequest(
                MODEL,
                WorkloadFamily.LM,
                np.concatenate([system_prompt, suffix]),
                sampling=SamplingParams(max_new_tokens=6),
            )
        )
    return requests


def serve_one_by_one(engine, requests):
    """Serve sequentially so each admission can hit the prior prompts' pages."""
    results = []
    start = time.perf_counter()
    for request in requests:
        results.extend(engine.serve([request]))
    return results, time.perf_counter() - start


def serve_together(engine, requests):
    """Serve a wave at once: its requests hold the shared prefix together."""
    start = time.perf_counter()
    results = engine.serve(requests)
    return results, time.perf_counter() - start


def prefilled_tokens(engine) -> int:
    """Prompt tokens the engine's scheduler has run through the model."""
    registry = engine.stats.registry
    return int(
        registry.get("serve_tokens_total").value()
        - registry.get("serve_generated_tokens_total").value()
    )


def main() -> int:
    system_prompt = np.random.default_rng(0).integers(0, 96, size=SYSTEM_PROMPT_LEN)
    new_prompt = np.random.default_rng(3).integers(0, 96, size=SYSTEM_PROMPT_LEN)

    engine = ServingEngine(max_batch_size=4, max_wait=0.0, kv_cache_config=KV_CONFIG)
    print("== warm: quantize the model once into packed OVP streams ==")
    engine.warm(MODEL, WorkloadFamily.LM)

    print(f"\n== {NUM_REQUESTS} requests sharing a {SYSTEM_PROMPT_LEN}-token "
          f"system prompt (+{SUFFIX_LEN}-token suffixes) ==")
    results, shared_seconds = serve_one_by_one(engine, make_requests(system_prompt))
    for result in results:
        kv = result.output.kv_cache
        # Cached steps = prompt + generated - 1 (the last token is returned
        # but never fed back), so recover the prompt length for display.
        prompt_len = kv["seq_len"] - (len(result.output.token_ids) - 1)
        print(f"  {result.request_id}: prefix-shared {kv['prefix_shared_tokens']:>2} "
              f"of {prompt_len} prompt tokens, "
              f"{kv['shared_pages']} shared pages in its cache")

    pool = engine.page_pool
    stats = pool.stats()
    print("\n== page pool after the one-by-one wave ==")
    print(f"  pages decoded / served by a live block at prefix attach: "
          f"{stats['decode_misses']} / {stats['decode_hits']} "
          f"({stats['prefix_pages_attached']} attached; "
          f"{stats['pages_registered']} sealed)")

    print(f"\n== {NUM_REQUESTS} more requests arriving together ==")
    before = pool.counters()
    together, together_seconds = serve_together(engine, make_requests(system_prompt, 2))
    after = pool.stats()
    print(f"  pages decoded / served by a live block at prefix attach: "
          f"{after['decode_misses'] - before['decode_misses']} / "
          f"{after['decode_hits'] - before['decode_hits']} "
          f"({after['prefix_pages_attached'] - before['prefix_pages_attached']} attached)")
    print(f"  live pages / nodes / shared blocks: {after['entries']} / "
          f"{after['prefix_nodes']} / {after['shared_blocks']}")

    print(f"\n== {NUM_REQUESTS} requests arriving together on an unseen "
          f"{SYSTEM_PROMPT_LEN}-token system prompt ==")
    before_tokens = prefilled_tokens(engine)
    cold_wave, _ = serve_together(engine, make_requests(new_prompt, 3))
    cold_wave_tokens = prefilled_tokens(engine) - before_tokens
    once = SYSTEM_PROMPT_LEN + NUM_REQUESTS * SUFFIX_LEN
    print(f"  prompt tokens prefilled: {cold_wave_tokens} "
          f"(system prompt once + every suffix = {once}; "
          f"{NUM_REQUESTS * (SYSTEM_PROMPT_LEN + SUFFIX_LEN)} without sharing)")
    prefilled_once = cold_wave_tokens == once

    cold_engine = ServingEngine(
        repository=engine.repository,
        max_batch_size=4,
        max_wait=0.0,
        kv_cache_config=KVCacheConfig(bits=4, page_size=8, prefix_sharing=False),
    )
    cold_results, cold_seconds = serve_one_by_one(
        cold_engine, make_requests(system_prompt)
    )
    cold_together, _ = serve_one_by_one(cold_engine, make_requests(system_prompt, 2))
    cold_new, _ = serve_one_by_one(cold_engine, make_requests(new_prompt, 3))

    same_tokens = all(
        a.output.token_ids == b.output.token_ids
        for a, b in zip(
            results + together + cold_wave, cold_results + cold_together + cold_new
        )
    )
    print("\n== shared pool vs cold (no prefix sharing) ==")
    print(f"  shared pool : {shared_seconds * 1e3:6.0f} ms one by one, "
          f"{together_seconds * 1e3:6.0f} ms together")
    print(f"  cold        : {cold_seconds * 1e3:6.0f} ms one by one")
    print(f"  speedup     : {cold_seconds / shared_seconds:.2f}x, "
          f"greedy tokens identical in all three waves: {same_tokens}, "
          f"unseen prompt prefilled once: {prefilled_once}")
    return 0 if same_tokens and prefilled_once else 1


if __name__ == "__main__":
    sys.exit(main())
