"""Serving demo: batched quantized inference over packed OVP weights.

Run with ``python examples/serving_demo.py``.  The demo walks through the
serving subsystem end to end:

1. a :class:`~repro.serve.repository.ModelRepository` quantizes three zoo
   models once and caches them as memory-aligned packed byte streams;
2. the synchronous :class:`~repro.serve.engine.ServingEngine` micro-batches a
   mixed stream of classification, span-extraction and LM requests;
3. the asyncio front-end serves the same traffic from concurrent client
   coroutines;
4. the stats layer reports throughput, p50/p95 latency, batch fill and the
   modelled DRAM traffic.
"""

import asyncio

import numpy as np

from repro.serve import (
    AsyncServer,
    InferenceRequest,
    SamplingParams,
    ServingEngine,
    WorkloadFamily,
)

MODELS = {
    WorkloadFamily.CLASSIFY: "bert-base",
    WorkloadFamily.SPAN: "bert-large",
    WorkloadFamily.LM: "gpt2-xl",
}


def make_traffic(num_requests: int, seq_len: int = 32, seed: int = 0):
    """A shuffled mixed-workload request stream."""
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(num_requests):
        family = list(MODELS)[i % len(MODELS)]
        requests.append(
            InferenceRequest(
                model=MODELS[family],
                family=family,
                token_ids=rng.integers(0, 96, size=seq_len),
                sampling=SamplingParams(logprobs=3),
            )
        )
    rng.shuffle(requests)
    return requests


def print_summary(title: str, engine: ServingEngine) -> None:
    summary = engine.stats.summary()
    print(f"\n== {title} ==")
    print(f"  requests / batches     : {summary.requests} / {summary.batches}")
    print(f"  throughput             : {summary.throughput_rps:.0f} req/s, "
          f"{summary.tokens_per_second:.0f} tokens/s")
    print(f"  latency p50 / p95      : {summary.latency_p50_ms:.2f} / "
          f"{summary.latency_p95_ms:.2f} ms")
    print(f"  mean batch fill        : {summary.mean_batch_fill * 100:.0f}%")
    print(f"  packed weights streamed: {summary.weight_stream_bytes / 1e6:.2f} MB")
    print(f"  modelled DRAM traffic  : {summary.dram_bytes / 1e6:.2f} MB")


def sync_demo() -> None:
    engine = ServingEngine(max_batch_size=8, max_wait=0.002)
    print("== model repository (quantize once, serve many) ==")
    for family, model in MODELS.items():
        entry = engine.warm(model, family)
        print(f"  {model:<11} {family:<9}: {entry.num_weight_tensors} packed tensors, "
              f"{entry.packed_bytes / 1e3:.0f} kB packed "
              f"({entry.compression_ratio:.1f}x vs fp32), "
              f"quantized in {entry.quantize_seconds * 1e3:.0f} ms, "
              f"decoded in {entry.decode_seconds * 1e3:.1f} ms")

    results = engine.serve(make_traffic(48))
    by_family = {}
    for result in results:
        by_family.setdefault(result.family, result)
    print("\n== sample results ==")
    sample = by_family[WorkloadFamily.CLASSIFY]
    print(f"  classify: label={sample.output['label']} "
          f"probs={[round(p, 3) for p in sample.output['probs']]}")
    sample = by_family[WorkloadFamily.SPAN]
    print(f"  span    : [{sample.output['start']}, {sample.output['end']}] "
          f"score={sample.output['score']:.2f}")
    sample = by_family[WorkloadFamily.LM]
    print(f"  lm      : next_tokens={sample.output.next_tokens}")
    print_summary("synchronous serving", engine)
    print(f"  repository             : {engine.repository.stats}")


def async_demo() -> None:
    async def main():
        engine = ServingEngine(max_batch_size=8, max_wait=0.002)
        for family, model in MODELS.items():
            engine.warm(model, family)
        async with AsyncServer(engine) as server:
            results = await asyncio.gather(
                *(server.infer(r) for r in make_traffic(48, seed=1))
            )
        sizes = sorted({r.batch_size for r in results})
        print_summary("asyncio serving (48 concurrent clients)", engine)
        print(f"  observed batch sizes   : {sizes}")

    asyncio.run(main())


if __name__ == "__main__":
    sync_demo()
    async_demo()
