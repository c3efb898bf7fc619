"""``repro.serve`` — batched quantized-inference serving.

The serving subsystem turns the repo's one-shot experiment scripts into a
request/response engine:

* :mod:`repro.serve.repository` — quantize-once/serve-many model store
  holding weights as memory-aligned packed OVP byte streams;
* :mod:`repro.serve.batcher` — dynamic micro-batching with a max-batch /
  max-wait policy;
* :mod:`repro.serve.engine` — batched forward passes for the three workload
  families (GLUE classification, SQuAD span extraction, LM next-token) plus
  the synchronous scheduler;
* :mod:`repro.serve.kvcache` — per-sequence paged KV caches whose sealed
  pages are memory-aligned OVP byte streams (quantize-on-append) held in a
  shared refcounted :class:`~repro.serve.kvcache.PagePool` with a
  prompt-prefix index for copy-on-write page sharing; a sealing page's
  dequantized values land in K/V rows the sequence owns in the same encoder
  pass, and an attached page decodes once into those rows (or a shared
  block), so attention reads views of those rows;
* :mod:`repro.serve.sampling` — the generation API surface:
  :class:`~repro.serve.sampling.SamplingParams` (temperature / top-k / top-p /
  stop tokens / seed) and :class:`~repro.serve.sampling.Sampler`, plus the
  typed streamed/final outputs :class:`~repro.serve.sampling.TokenChunk` and
  :class:`~repro.serve.sampling.RequestOutput`;
* :mod:`repro.serve.scheduler` — slot-level continuous batching that admits
  and retires generation sequences mid-flight, samples per-slot with
  per-request seeded generators, honors stop tokens mid-round and cancels
  in-flight sequences on demand;
* :mod:`repro.serve.spec` — self-speculative decoding: the target's own
  first layers with calibrated multi-position speculative heads propose
  ``k`` tokens per slot per round, confidence-gated, and the target
  verifies all ``k + 1`` positions in one batched multi-token pass
  (greedy outputs stay token-for-token identical);
* :mod:`repro.serve.aio` — asyncio front-end for concurrent clients
  (``infer`` / ``stream`` / ``cancel``);
* :mod:`repro.serve.stats` — throughput, p50/p95 latency, batch fill,
  DRAM-byte, KV-cache/slot-occupancy, finish-reason and streamed-token
  latency (TTFT / inter-token) accounting aligned with the performance
  simulators;
* :mod:`repro.serve.telemetry` — span-based request-lifecycle tracing and
  per-phase round profiling (:class:`~repro.serve.telemetry.Tracer`; each
  engine builds a disabled one unless given a tracer, and
  ``engine.tracer.enable()`` traces it in place) plus the Prometheus-style
  :class:`~repro.serve.telemetry.MetricsRegistry`; exports Chrome
  ``trace_event`` JSON, JSONL span logs and ``phase_report()`` wall-clock
  breakdowns;
* :mod:`repro.serve.health` — the serving health layer: declarative
  :class:`~repro.serve.health.SLOClass` objectives (TTFT / latency /
  availability per traffic class) evaluated continuously against the
  telemetry instruments, a multi-window burn-rate alert engine with
  hysteresis emitting correlation-id'd
  :class:`~repro.serve.health.HealthEvent` records, and the
  ``health_report()`` / ``event_log()`` snapshots on
  :class:`~repro.serve.engine.ServingEngine` and
  :class:`~repro.serve.aio.AsyncServer`;
* :mod:`repro.serve.admission` — overload resilience:
  :class:`~repro.serve.admission.AdmissionPolicy` bounds the queue with
  typed rejections, orders admission by per-class priority, enforces
  request deadlines / queue timeouts (terminal
  ``finish_reason="deadline"``), lets higher-priority arrivals preempt
  lower-priority active slots (the slot re-queues itself without its KV
  cache; sealed pages re-attach copy-on-write via the prefix index, so
  resume re-prefills only the unsealed suffix), and
  optionally sheds below-floor traffic while burn-rate alerts fire;
* :mod:`repro.serve.errors` — the retryable/terminal
  :class:`~repro.serve.requests.ServingError` taxonomy, paired with the
  bounded jittered-backoff :class:`~repro.serve.aio.RetryPolicy` on
  :class:`~repro.serve.aio.AsyncServer`;
* :mod:`repro.serve.faultinject` — deterministic, seeded fault-injection
  harness (phase errors, pool-decode failures, clock jumps, queue-pressure
  bursts) driving chaos suites that assert the scheduler's refcount /
  stream / terminal-finish invariants under every schedule;
* :mod:`repro.serve.gateway` — the multi-tenant front door: per-tenant API
  keys, token-bucket rate limits and concurrent-request quotas mapped onto
  admission priorities, JSON-shaped request/response/error envelopes with
  HTTP-ish status codes, and a ``tenant`` label threaded through the
  scheduler into ``serve_requests_*_total{tenant,...}`` and the per-tenant
  SLO gauges (each tenant's ``slo_class`` defaults to its own name);
* :mod:`repro.serve.loadgen` — seeded trace-driven load generation: bursty
  on/off arrivals per tenant, multi-turn conversations that re-walk shared
  prefixes, a replayable JSON trace format and a virtual-round
  :class:`~repro.serve.loadgen.LoadRunner` whose per-tenant SLO-attainment
  report is byte-identical across runs of the same trace.

The scheduler prefills every admission through one **chunked prefill**
loop (``prefill_chunk_tokens=`` on :class:`~repro.serve.engine.ServingEngine`
/ :class:`~repro.serve.scheduler.ContinuousBatchingScheduler`): long prompts
append K/V one bounded, page-aligned chunk per round, interleaved with
decode, so a single long document cannot stall interactive streams for a
whole prompt-length prefill pass — greedy outputs stay token-identical.
``None`` (the default) means one chunk holding the whole un-shared suffix.
"""

from repro.serve.admission import AdmissionPolicy
from repro.serve.aio import AsyncServer, RetryPolicy
# Not exported, but ``from repro.serve import MicroBatcher`` keeps resolving.
from repro.serve.batcher import MicroBatcher  # noqa: F401
from repro.serve.errors import AdmissionRejectedError, InjectedFault, QueueFullError
from repro.serve.faultinject import FaultInjector, FaultSchedule, FaultSpec
from repro.serve.engine import ServingEngine
from repro.serve.gateway import (
    ErrorEnvelope,
    Gateway,
    GatewayConfig,
    ResponseEnvelope,
    TenantConfig,
)
from repro.serve.loadgen import (
    LoadRunner,
    TenantLoad,
    TraceConfig,
    VirtualClock,
    generate_trace,
)
from repro.serve.health import HealthConfig, HealthEvent, HealthMonitor, SLOClass
from repro.serve.sampling import (
    FinishReason,
    RequestOutput,
    Sampler,
    SamplingParams,
    TokenChunk,
)
from repro.serve.spec import SpeculativeConfig, SpeculativeDecoder
from repro.serve.kvcache import (
    KVCacheConfig,
    LayerKVCache,
    PagePool,
    SequenceKVCache,
    cache_for_model,
)
from repro.serve.repository import ModelRepository
from repro.serve.requests import (
    InferenceRequest,
    ServingError,
    WorkloadFamily,
)
from repro.serve.scheduler import ContinuousBatchingScheduler
from repro.serve.stats import ServingStats
from repro.serve.telemetry import (
    MetricsRegistry,
    PhaseReport,
    Span,
    Tracer,
    validate_chrome_trace,
)

__all__ = [
    "AdmissionPolicy",
    "AdmissionRejectedError",
    "AsyncServer",
    "ContinuousBatchingScheduler",
    "ErrorEnvelope",
    "FaultInjector",
    "FaultSchedule",
    "FaultSpec",
    "FinishReason",
    "Gateway",
    "GatewayConfig",
    "HealthConfig",
    "HealthEvent",
    "HealthMonitor",
    "InferenceRequest",
    "InjectedFault",
    "KVCacheConfig",
    "LayerKVCache",
    "LoadRunner",
    "MetricsRegistry",
    "ModelRepository",
    "PagePool",
    "PhaseReport",
    "QueueFullError",
    "RequestOutput",
    "ResponseEnvelope",
    "RetryPolicy",
    "SLOClass",
    "Sampler",
    "SamplingParams",
    "SequenceKVCache",
    "Span",
    "SpeculativeConfig",
    "SpeculativeDecoder",
    "ServingEngine",
    "ServingError",
    "ServingStats",
    "TenantConfig",
    "TenantLoad",
    "TokenChunk",
    "TraceConfig",
    "Tracer",
    "VirtualClock",
    "WorkloadFamily",
    "cache_for_model",
    "generate_trace",
    "validate_chrome_trace",
]
