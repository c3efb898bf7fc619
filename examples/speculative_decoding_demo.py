"""Speculative decoding demo: a layer-prefix draft verified in batched rounds.

Run with ``python examples/speculative_decoding_demo.py``.  The demo

1. pairs the served ``gpt2-xl`` analogue with its own first decoder layer
   as the draft and calibrates the speculative heads (one-off, at
   ``warm_speculative`` time);
2. serves the same greedy request stream with and without speculation and
   shows the streams are **token-for-token identical** — every emitted
   token is sampled from the target's own verified distribution;
3. prints the speculative telemetry: proposed/accepted draft tokens, the
   acceptance rate, and the decode-round reduction (each round streams the
   packed target weights once on the modeled accelerator, and the draft is
   the target's own first layer — speculation adds no weight bytes).
"""

import numpy as np

from repro.serve import (
    InferenceRequest,
    KVCacheConfig,
    ModelRepository,
    SamplingParams,
    ServingEngine,
    SpeculativeConfig,
    WorkloadFamily,
)

MODEL = "gpt2-xl"
NUM_REQUESTS = 12
NEW_TOKENS = 32


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


def serve(speculative):
    engine = ServingEngine(
        ModelRepository(bits=4, seed=0),
        num_slots=4,
        kv_cache_config=KVCacheConfig(bits=4, page_size=16),
        speculative=speculative,
    )
    engine.warm(MODEL, WorkloadFamily.LM)
    if speculative is not None:
        engine.warm_speculative(MODEL)
    results = engine.serve(requests())
    return [list(r.output.token_ids) for r in results], engine.stats.summary()


def main():
    print("== plain greedy decode")
    plain_tokens, plain = serve(None)
    print(f"   decode rounds: {plain.decode_rounds}, "
          f"generated: {plain.generated_tokens}")

    print("== speculative decode (draft: the target's first layer, calibrated heads)")
    spec_tokens, spec = serve(SpeculativeConfig())
    print(f"   decode rounds: {spec.decode_rounds}, "
          f"generated: {spec.generated_tokens}")
    print(f"   proposed draft tokens: {spec.draft_proposed_tokens}, "
          f"accepted: {spec.draft_accepted_tokens} "
          f"(acceptance rate {spec.draft_acceptance_rate:.1%})")

    identical = spec_tokens == plain_tokens
    print(f"== token streams identical: {identical}")
    rounds_ratio = plain.decode_rounds / spec.decode_rounds
    print(f"== target decode rounds reduced {rounds_ratio:.2f}x "
          f"(one packed weight stream per round on the modeled accelerator)")
    assert identical, "speculative greedy decode must match plain greedy"
    sample = spec_tokens[0][:10]
    print(f"   first stream, first 10 tokens: {sample}")


if __name__ == "__main__":
    main()
