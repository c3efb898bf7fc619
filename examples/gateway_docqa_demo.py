"""Multi-tenant gateway + document-QA demo.

Run with ``python examples/gateway_docqa_demo.py``.  Four short acts walk
the new serving front door end to end:

1. **tenancy** — two tenants (an interactive chat tenant and a
   long-document tenant) authenticate with API keys; bad keys get a typed
   401 envelope, bursts beyond the token bucket a retryable 429, and
   traffic beyond the concurrency quota a retryable 429 that clears as
   requests finish;
2. **chunked prefill** — the document tenant's 56-token prompt absorbs one
   page-aligned 8-token chunk per round, so the interactive tenant's short
   request settles while the document is still prefilling (and the greedy
   tokens match an unchunked run exactly);
3. **trace replay** — a seeded bursty multi-tenant trace replays through
   the gateway on a virtual clock; the per-tenant report (counts, latency,
   SLO attainment) is byte-identical on every run of the same trace;
4. **document QA** — questions fan out across overlapping document chunks
   through the gateway's span family, answers aggregate by normalized span
   confidence, and every question clears its confidence floor.

It exits non-zero unless the document-QA harness passes.
"""

import sys

import numpy as np

from repro.serve import (
    Gateway,
    GatewayConfig,
    InferenceRequest,
    KVCacheConfig,
    LoadRunner,
    ModelRepository,
    SamplingParams,
    ServingEngine,
    TenantConfig,
    TenantLoad,
    TraceConfig,
    VirtualClock,
    WorkloadFamily,
    generate_trace,
)
from repro.workloads.docqa import DocQAPipeline, ExpectedAnswer, Question, run_harness

MODEL = "gpt2-xl"
VOCAB = 96
CACHE = KVCacheConfig(bits=4, page_size=8, prefix_sharing=True)

INTERACTIVE_KEY = "demo-key-interactive"
DOCUMENTS_KEY = "demo-key-documents"
DOCQA_KEY = "demo-key-docqa"


def tenancy():
    return GatewayConfig(
        tenants=(
            TenantConfig(
                name="interactive",
                api_key=INTERACTIVE_KEY,
                priority=10,
                requests_per_second=2.0,
                burst=2,
            ),
            TenantConfig(
                name="documents",
                api_key=DOCUMENTS_KEY,
                priority=0,
                max_concurrent=2,
            ),
        ),
        max_queue_depth=16,
        preempt=True,
    )


def build_gateway(repo, clock=None, prefill_chunk_tokens=8, config=None):
    config = config or tenancy()
    kwargs = {} if clock is None else {"clock": clock}
    engine = ServingEngine(
        repo,
        kv_cache_config=CACHE,
        num_slots=4,
        admission=config.admission_policy(),
        health=config.health_config(),
        prefill_chunk_tokens=prefill_chunk_tokens,
        **kwargs,
    )
    return Gateway(engine, config)


def request(seq_len, max_new_tokens, seed):
    rng = np.random.default_rng(seed)
    return InferenceRequest(
        MODEL,
        WorkloadFamily.LM,
        rng.integers(0, VOCAB, size=seq_len),
        sampling=SamplingParams(max_new_tokens=max_new_tokens),
    )


def act_1_tenancy(repo):
    print("=== act 1: tenants, keys, limits ===")
    clock = VirtualClock()
    gateway = build_gateway(repo, clock=clock)

    bad = gateway.submit("wrong-key", request(8, 2, 1))
    print(f"bad key          -> {bad.status} {bad.error.code}")

    first = gateway.submit(INTERACTIVE_KEY, request(8, 2, 2))
    second = gateway.submit(INTERACTIVE_KEY, request(8, 2, 3))
    burst = gateway.submit(INTERACTIVE_KEY, request(8, 2, 4))
    print(f"burst of 3 at 2 rps (burst 2) -> {first.status}, "
          f"{second.status}, {burst.status} ({burst.error.code}, "
          f"retryable={burst.error.retryable})")
    clock.advance(1.0)
    refilled = gateway.submit(INTERACTIVE_KEY, request(8, 2, 5))
    print(f"1s later          -> {refilled.status} (bucket refilled)")

    quota = [gateway.submit(DOCUMENTS_KEY, request(12, 2, 10 + i))
             for i in range(3)]
    print(f"documents quota 2 -> {[e.status for e in quota]} "
          f"({quota[-1].error.code})")
    gateway.run_until_idle()
    after = gateway.submit(DOCUMENTS_KEY, request(12, 2, 20))
    print(f"after drain       -> {after.status} (quota released)")
    gateway.run_until_idle()


def act_2_chunked_prefill(repo):
    print("\n=== act 2: chunked prefill keeps interactive latency flat ===")

    def interleave(chunk):
        gateway = build_gateway(repo, prefill_chunk_tokens=chunk)
        doc = request(56, 2, 100)
        probe = request(7, 2, 200)
        gateway.submit(DOCUMENTS_KEY, doc)
        gateway.submit(INTERACTIVE_KEY, probe)
        waiting = {doc.request_id, probe.request_id}
        order, rounds = [], 0
        while waiting:
            for envelope in gateway.step(force=True):
                order.append(envelope.request_id)
                waiting.discard(envelope.request_id)
            rounds += 1
            if rounds > 200:
                raise AssertionError("did not drain")
        tokens = gateway.poll(doc.request_id).body["token_ids"]
        return order, rounds, tokens

    chunked_order, chunked_rounds, chunked_tokens = interleave(8)
    _, unchunked_rounds, unchunked_tokens = interleave(None)
    print(f"chunked:   {chunked_rounds} rounds; interactive settled first "
          f"({chunked_order[0]} before {chunked_order[-1]})")
    print(f"unchunked: {unchunked_rounds} rounds (whole 56-token prefill in one)")
    print(f"document tokens identical chunked vs unchunked: "
          f"{chunked_tokens == unchunked_tokens}")


def act_3_trace_replay(repo):
    print("\n=== act 3: seeded trace replay, per-tenant SLO report ===")
    trace = generate_trace(TraceConfig(
        tenants=(
            TenantLoad(
                name="interactive",
                arrivals_per_round=0.6,
                burst_rounds=3,
                idle_rounds=3,
                prompt_tokens=(6, 14),
                max_new_tokens=3,
                turns_range=(1, 3),
            ),
            TenantLoad(
                name="documents",
                arrivals_per_round=0.3,
                prompt_tokens=(40, 56),
                max_new_tokens=2,
            ),
        ),
        rounds=16,
        seed=7,
    ))
    reports = []
    for _ in range(2):
        clock = VirtualClock()
        gateway = build_gateway(repo, clock=clock)
        runner = LoadRunner(gateway, clock, seconds_per_round=0.05)
        runner.run(trace)
        reports.append(runner.report_json())
    report = runner.report()
    print(f"{len(trace)} trace events over {report['rounds']} rounds")
    for name, tenant in sorted(report["tenants"].items()):
        slo = tenant.get("slo", {})
        availability = slo.get("availability", {}).get("attainment")
        print(f"  {name:<12} submitted={tenant['submitted']:<3} "
              f"accepted={tenant['accepted']:<3} rejected={tenant['rejected']:<3} "
              f"completed={tenant['completed']:<3} availability={availability}")
    print(f"report byte-identical across replays: {reports[0] == reports[1]}")


def act_4_document_qa(repo):
    print("\n=== act 4: document QA with confidence floors ===")
    repo.get("bert-base", WorkloadFamily.SPAN)
    config = GatewayConfig(tenants=(
        TenantConfig(name="docqa", api_key=DOCQA_KEY, max_concurrent=64),
    ))
    rng = np.random.default_rng(42)
    document = [int(t) for t in rng.integers(0, VOCAB, size=120)]
    questions = [
        Question(f"q{i}", tuple(int(t) for t in rng.integers(0, VOCAB, size=6)))
        for i in range(3)
    ]

    def pipeline():
        gateway = build_gateway(repo, config=config, prefill_chunk_tokens=None)
        return DocQAPipeline(gateway, DOCQA_KEY, model="bert-base",
                             chunk_tokens=48, overlap=8)

    reference = pipeline().ask(questions, document)
    expectations = [
        ExpectedAnswer(qid, min_confidence=round(r.confidence * 0.9, 6),
                       expected_span=r.span)
        for qid, r in reference.items()
    ]
    report = run_harness(pipeline(), questions, expectations, document)
    for qid, entry in sorted(report["questions"].items()):
        print(f"  {qid}: span={entry['span']} confidence={entry['confidence']:.4f} "
              f"(floor {entry['min_confidence']:.4f}) "
              f"ok={entry['confidence_ok'] and entry['span_ok']}")
    print(f"harness passed: {report['passed']}")
    return report["passed"]


def main():
    repo = ModelRepository(bits=4, seed=0)
    repo.get(MODEL, WorkloadFamily.LM)
    act_1_tenancy(repo)
    act_2_chunked_prefill(repo)
    act_3_trace_replay(repo)
    return 0 if act_4_document_qa(repo) else 1


if __name__ == "__main__":
    sys.exit(main())
