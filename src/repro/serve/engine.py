"""Batched quantized-inference engine and the synchronous serving scheduler.

:class:`InferenceEngine` turns one homogeneous micro-batch into per-request
results: it stacks the token-id rows, fetches the packed model from the
repository and runs a single batched forward pass through the quantized NumPy
transformer — one pass per batch, however many requests rode along.

:class:`ServingEngine` is the synchronous front door: ``submit`` queues
requests into the micro-batcher, ``step`` processes one ready batch, and
``serve`` is the submit-all/drain-all convenience used by benchmarks and
tests.  The asyncio front-end (:mod:`repro.serve.aio`) wraps the same engine
for concurrent clients.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.hardware.memory import gemm_traffic
from repro.nn import functional as F
from repro.nn.layers import Linear
from repro.serve.admission import AdmissionPolicy
from repro.serve.batcher import MicroBatcher, QueuedRequest
from repro.serve.errors import QueueFullError
from repro.serve.health import (
    HealthConfig,
    HealthMonitor,
    SLOClass,
    unified_event_log,
)
from repro.serve.kvcache import KVCacheConfig, PagePool
from repro.serve.repository import ModelRepository, PackedModel
from repro.serve.requests import (
    InferenceRequest,
    InferenceResult,
    ServingError,
    WorkloadFamily,
)
from repro.serve.sampling import FinishReason, RequestOutput, TokenChunk
from repro.serve.scheduler import ContinuousBatchingScheduler, greedy_top_k
from repro.serve.stats import BatchRecord, ServingStats
from repro.serve.telemetry import Tracer

__all__ = ["InferenceEngine", "ServingEngine"]


class InferenceEngine:
    """Run batched forward passes: classify, span and score-only LM.

    LM generation never comes here; it runs on the continuous-batching
    scheduler.
    """

    def __init__(self, repository: ModelRepository) -> None:
        self.repository = repository

    # ------------------------------------------------------------------ #
    # Batch execution
    # ------------------------------------------------------------------ #
    def run_batch(
        self,
        batch: Sequence[QueuedRequest],
        clock=time.monotonic,
        max_batch_size: Optional[int] = None,
    ):
        """Execute one homogeneous batch; returns ``(results, BatchRecord)``.

        All requests must share one ``batch_key`` (the micro-batcher
        guarantees this); mixing keys is a programming error, and so is a
        generation request (``sampling.max_new_tokens > 0``).
        """
        if not batch:
            raise ServingError("cannot run an empty batch")
        keys = {q.request.batch_key for q in batch}
        if len(keys) != 1:
            raise ServingError(f"batch mixes incompatible requests: {sorted(keys)}")
        for q in batch:
            if q.request.sampling.max_new_tokens > 0:
                raise ServingError(
                    f"request {q.request.request_id!r} generates tokens; "
                    "generation runs on the continuous-batching scheduler"
                )
        first = batch[0].request
        entry = self.repository.get(first.model, first.family, first.num_classes)
        inputs = np.stack([q.request.token_ids for q in batch])

        start = clock()
        if first.family == WorkloadFamily.CLASSIFY:
            outputs = self._run_classify(entry, inputs, first.num_classes)
        elif first.family == WorkloadFamily.SPAN:
            outputs = self._run_span(entry, inputs)
        else:
            outputs = self._run_lm(entry, inputs, [q.request for q in batch])
        compute_seconds = clock() - start

        completed_at = clock()
        results = [
            InferenceResult(
                request_id=q.request.request_id,
                model=first.model,
                family=first.family,
                output=output,
                batch_size=len(batch),
                enqueued_at=q.enqueued_at,
                completed_at=completed_at,
                scheme=entry.scheme,
            )
            for q, output in zip(batch, outputs)
        ]
        record = BatchRecord(
            batch_size=len(batch),
            max_batch_size=int(max_batch_size or len(batch)),
            compute_seconds=compute_seconds,
            tokens=int(inputs.size),
            weight_stream_bytes=entry.packed_bytes,
            dram_bytes=self._dram_bytes(entry, int(inputs.size)),
            latencies=tuple(completed_at - q.enqueued_at for q in batch),
            latency_classes=tuple(q.request.slo_class for q in batch),
        )
        return results, record

    # ------------------------------------------------------------------ #
    # Families
    # ------------------------------------------------------------------ #
    @staticmethod
    def _run_classify(entry: PackedModel, inputs: np.ndarray, num_classes: int) -> List[dict]:
        logits = np.asarray(entry.model(inputs))
        if num_classes == 1:
            return [{"score": float(row[0])} for row in logits]
        probs = F.softmax(logits, axis=-1)
        labels = np.argmax(logits, axis=-1)
        return [
            {"label": int(label), "probs": [float(p) for p in prob_row]}
            for label, prob_row in zip(labels, probs)
        ]

    @staticmethod
    def _run_span(entry: PackedModel, inputs: np.ndarray) -> List[dict]:
        start_logits, end_logits = entry.model(inputs)
        start_logits = np.asarray(start_logits)
        end_logits = np.asarray(end_logits)
        outputs = []
        for s_row, e_row in zip(start_logits, end_logits):
            start = int(np.argmax(s_row))
            end_candidates = e_row.copy()
            end_candidates[:start] = -np.inf
            end = int(np.argmax(end_candidates))
            # Normalized span probability: how much mass the argmax span
            # holds vs every valid (start, end >= start) alternative.
            s_probs = np.asarray(F.softmax(s_row[None, :], axis=-1))[0]
            e_probs = np.asarray(F.softmax(end_candidates[None, :], axis=-1))[0]
            confidence = float(s_probs[start] * e_probs[end])
            outputs.append(
                {
                    "start": start,
                    "end": end,
                    "score": float(s_row[start] + end_candidates[end]),
                    "confidence": confidence,
                }
            )
        return outputs

    @staticmethod
    def _run_lm(
        entry: PackedModel, inputs: np.ndarray, requests: Sequence[InferenceRequest]
    ) -> List[RequestOutput]:
        """Score-only rows: the final position's top candidates per request."""
        log_probs = np.asarray(entry.model.log_probs(inputs))[:, -1, :]
        outputs = []
        for row_lp, request in zip(log_probs, requests):
            top = greedy_top_k(row_lp, max(1, request.sampling.logprobs))
            outputs.append(
                RequestOutput(
                    request_id=request.request_id,
                    next_tokens=top["next_tokens"],
                    log_probs=top["log_probs"],
                )
            )
        return outputs

    # ------------------------------------------------------------------ #
    # Traffic accounting (ties into the repro.sim memory model)
    # ------------------------------------------------------------------ #
    def _dram_bytes(self, entry: PackedModel, batch_tokens: int) -> float:
        """Modelled DRAM traffic of one batched pass at the served precision.

        Every Linear GEMM is charged with the tile-reuse DRAM model the
        performance simulators use; operands are byte-aligned OVP streams
        (``bits/8`` bytes per element), outputs FP16.  Head layers that see
        fewer than ``batch_tokens`` rows are charged at the full row count,
        making this a slight over-estimate.
        """
        operand_bytes = self.repository.bits / 8.0
        total = 0.0
        for _, module in entry.model.named_modules():
            if not isinstance(module, Linear):
                continue
            m, k, n = module.gemm_shape(batch_tokens)
            total += gemm_traffic(
                m, k, n, activation_bytes=operand_bytes, weight_bytes=operand_bytes
            ).dram_bytes
        return total


class ServingEngine:
    """Synchronous serving scheduler: micro-batcher + engine + stats.

    LM generation requests (``sampling.max_new_tokens > 0``) are routed to a
    slot-level continuous-batching scheduler, which admits and retires
    sequences mid-flight over per-sequence OVP-paged KV caches; everything
    else goes through the micro-batcher.

    Generation requests stream: :meth:`stream` iterates the request's
    :class:`~repro.serve.sampling.TokenChunk`'s as decode rounds produce
    them, and :meth:`cancel` aborts an in-flight request, freeing its slot
    and KV pages immediately (``finish_reason="aborted"``).
    Only prefill-sealed KV pages serve other requests from the page pool's
    prefix index, so a follow-up conversation turn (``prompt + generated +
    new``) attaches the previous turn's prompt pages and prefills the rest.
    ``speculative=SpeculativeConfig(...)`` turns on self-speculative
    decoding (:mod:`repro.serve.spec`): slots propose draft tokens each
    round and verify them in one batched multi-token target pass, leaving
    greedy outputs token-for-token unchanged.

    ``health=`` turns on the SLO/burn-rate health layer
    (:mod:`repro.serve.health`): ``True`` for the default class, an
    :class:`~repro.serve.health.SLOClass` (or sequence of them) for named
    classes, a full :class:`~repro.serve.health.HealthConfig`, or an
    existing :class:`~repro.serve.health.HealthMonitor` (which must share
    this engine's metrics registry).  The monitor re-evaluates at most once
    per configured interval after each :meth:`step`;
    :meth:`health_report` returns the ``/healthz``-shaped snapshot and
    :meth:`event_log` the unified span + health-event JSONL.  ``None``
    (the default) keeps the health layer entirely out of the step path.

    ``admission=`` attaches an
    :class:`~repro.serve.admission.AdmissionPolicy`: both queues become
    bounded (``max_queue_depth``; :meth:`submit` raises
    :class:`~repro.serve.errors.QueueFullError` past the cap), the
    continuous scheduler admits by class/request priority, expires queue
    timeouts and per-request deadlines (``finish_reason="deadline"``), can
    preempt low-priority slots for queued high-priority work, and — with
    ``shed_on_burn_rate`` and ``health=`` both set — sheds below-floor
    traffic while burn-rate alerts fire.

    ``prefill_chunk_tokens=`` bounds the prompt tokens a slot prefills per
    round on the continuous scheduler: long prompts append K/V one chunk per
    round, interleaved with decode, so a single long document cannot stall
    every interactive stream for a whole prompt-length pass.  ``None``
    (default) makes the chunk the whole un-shared suffix, through the same
    path (token-identical greedy output either way; see
    :class:`~repro.serve.scheduler.ContinuousBatchingScheduler`).
    """

    def __init__(
        self,
        repository: Optional[ModelRepository] = None,
        max_batch_size: int = 8,
        max_wait: float = 0.005,
        clock=time.monotonic,
        result_buffer: int = 4096,
        num_slots: Optional[int] = None,
        kv_cache_config: Optional[KVCacheConfig] = None,
        speculative=None,
        tracer=None,
        health=None,
        admission: Optional[AdmissionPolicy] = None,
        prefill_chunk_tokens: Optional[int] = None,
    ) -> None:
        self.repository = repository or ModelRepository()
        self.clock = clock
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.admission = admission
        self.batcher = MicroBatcher(
            max_batch_size=max_batch_size,
            max_wait=max_wait,
            clock=clock,
            max_queue_depth=admission.max_queue_depth if admission is not None else None,
        )
        self.kv_cache_config = kv_cache_config or KVCacheConfig(bits=self.repository.bits)
        # One page pool for every generation slot: sealed pages and the
        # prefix index are shared across sequences.
        self.page_pool = PagePool()
        self.engine = InferenceEngine(self.repository)
        self.stats = ServingStats(clock=clock)
        # The monitor builds before the scheduler so the admission policy's
        # shed-on-burn-rate mode can consult its firing alerts at submit time.
        self.health = self._build_health(health)
        self.lm_scheduler = ContinuousBatchingScheduler(
            self.repository,
            num_slots=int(num_slots) if num_slots is not None else int(max_batch_size),
            cache_config=self.kv_cache_config,
            clock=clock,
            stats=self.stats,
            page_pool=self.page_pool,
            speculative=speculative,
            tracer=self.tracer,
            admission=admission,
            health_monitor=self.health,
            prefill_chunk_tokens=prefill_chunk_tokens,
        )
        # step() also returns its results, so callers that consume the return
        # value never call result(); the registries are therefore bounded
        # (oldest evicted first) to keep long-running serving loops leak-free.
        self.result_buffer = int(result_buffer)
        self._completed: "OrderedDict[str, InferenceResult]" = OrderedDict()
        self._failed: "OrderedDict[str, Exception]" = OrderedDict()
        # Streamed TokenChunks per request, drained by stream()/next_chunk();
        # bounded like the registries (oldest request's stream evicted first).
        self._chunks: "OrderedDict[str, deque]" = OrderedDict()

    def _build_health(self, health) -> Optional[HealthMonitor]:
        """Normalize the ``health=`` argument into a monitor (or None).

        The monitor evaluates against this engine's metrics registry under
        this engine's clock, so SLO windows line up with scheduler time.
        """
        if health is None or health is False:
            return None
        if isinstance(health, HealthMonitor):
            if health.registry is not self.stats.registry:
                raise ServingError(
                    "a shared HealthMonitor must use this engine's metrics "
                    "registry (pass health=HealthConfig(...) to build one here)"
                )
            return health
        if health is True:
            config = HealthConfig()
        elif isinstance(health, HealthConfig):
            config = health
        elif isinstance(health, SLOClass):
            config = HealthConfig(classes=(health,))
        elif isinstance(health, (list, tuple)):
            config = HealthConfig(classes=tuple(health))
        else:
            raise ServingError(
                "health must be None, True, an SLOClass (or sequence), "
                "a HealthConfig, or a HealthMonitor"
            )
        return HealthMonitor(self.stats.registry, config, clock=self.clock)

    # ------------------------------------------------------------------ #
    # Request lifecycle
    # ------------------------------------------------------------------ #
    def submit(self, request: InferenceRequest) -> str:
        """Queue a request; returns its id for :meth:`result` lookup.

        LM generation requests go to the continuous-batching scheduler;
        everything else goes to the micro-batcher.  With an
        admission policy attached, either queue may reject the submission
        with a retryable :class:`~repro.serve.errors.QueueFullError` /
        :class:`~repro.serve.errors.AdmissionRejectedError`.
        """
        if request.sampling.max_new_tokens > 0:
            return self.lm_scheduler.submit(request)
        try:
            self.batcher.submit(request)
        except QueueFullError:
            # The scheduler path records its own rejections; mirror that
            # accounting for micro-batcher traffic before re-raising.
            self.stats.record_rejection(
                "queue_full", request.slo_class, request.tenant
            )
            raise
        self.stats.record_submitted(request.tenant, request.slo_class)
        return request.request_id

    def warm(self, model: str, family: str, num_classes: int = 2) -> PackedModel:
        """Pre-quantize a model so first-request latency excludes the build."""
        return self.repository.get(model, family, num_classes)

    def warm_speculative(self, model: str) -> None:
        """Calibrate ``model``'s speculative pairing now.

        Like :meth:`warm`, but for the draft side: the one-off head
        calibration otherwise lands on the first request's decode latency.
        Requires ``ServingEngine(speculative=...)``.
        """
        self.lm_scheduler.warm_speculative(model)

    def step(self, force: bool = False) -> List[InferenceResult]:
        """Process at most one ready micro-batch plus one decode round.

        A batch that fails to execute (unknown model, malformed input that
        slipped past request validation, …) does not take the scheduler
        down: its requests are marked failed and the error re-raises from
        :meth:`result` (or resolves the client future on the async path).
        The continuous-batching scheduler advances one round per step, so
        generation and micro-batched traffic interleave fairly.
        """
        results: List[InferenceResult] = []
        batch = self.batcher.next_batch(force=force)
        if batch is not None:
            try:
                with self.tracer.span("batch"):
                    batch_results, record = self.engine.run_batch(
                        batch,
                        clock=self.clock,
                        max_batch_size=self.batcher.max_batch_size,
                    )
            except Exception as exc:
                for queued in batch:
                    self._record_failure(queued.request.request_id, exc)
            else:
                self.stats.record_batch(record)
                results.extend(batch_results)
        try:
            results.extend(self.lm_scheduler.step())
        except Exception:
            # A decode-round error (e.g. a model without a positional limit
            # outgrowing its table) must not lose the micro-batch results
            # above or wedge the engine.  The failed round already ended its
            # in-flight sequences in error; their failures drain just below.
            pass
        for request_id, exc in self.lm_scheduler.take_failures():
            self._record_failure(request_id, exc)
        self._buffer_chunks()
        if self.health is not None:
            self.health.maybe_evaluate()
        for result in results:
            self._completed[result.request_id] = result
        while len(self._completed) > self.result_buffer:
            self._completed.popitem(last=False)
        return results

    def _record_failure(self, request_id: str, exc: Exception) -> None:
        self._failed[request_id] = exc
        while len(self._failed) > self.result_buffer:
            self._failed.popitem(last=False)

    # ------------------------------------------------------------------ #
    # Streaming and cancellation
    # ------------------------------------------------------------------ #
    def _buffer_chunks(self) -> None:
        """Move the scheduler's freshly emitted TokenChunks into the buffer.

        When the bounded buffer overflows, the oldest request's remaining
        stream is dropped — visibly: the
        ``serve_stream_chunks_evicted_total`` counter and a
        ``stream_evicted`` tracer event record which stream lost how many
        chunks, so a consumer seeing a truncated stream can tell eviction
        from a scheduler bug.
        """
        with self.tracer.span("emit"):
            for chunk in self.lm_scheduler.take_chunks():
                queue = self._chunks.get(chunk.request_id)
                if queue is None:
                    queue = self._chunks[chunk.request_id] = deque()
                queue.append(chunk)
            while len(self._chunks) > self.result_buffer:
                request_id, dropped = self._chunks.popitem(last=False)
                self.stats.record_chunks_evicted(len(dropped))
                with self.tracer.span(
                    "stream_evicted",
                    attrs={"request_id": request_id, "chunks": len(dropped)},
                ):
                    pass

    def next_chunk(self, request_id: str) -> Optional[TokenChunk]:
        """Pop the oldest buffered chunk of ``request_id`` (None when empty).

        The buffer entry is forgotten once its terminal chunk (the one
        carrying a ``finish_reason``) has been consumed.
        """
        queue = self._chunks.get(request_id)
        if not queue:
            return None
        chunk = queue.popleft()
        if not queue and chunk.finish_reason is not None:
            del self._chunks[request_id]
        return chunk

    def stream(self, request_id: str) -> Iterator[TokenChunk]:
        """Iterate the :class:`TokenChunk`'s of an in-flight generation request.

        Drives the engine (``step(force=True)``) whenever no chunk is
        buffered, so plain ``for chunk in engine.stream(rid)`` works without a
        separate serving loop; co-batched requests progress alongside.  The
        iterator ends after the chunk whose ``finish_reason`` is set
        (``stop``/``length``/``aborted``/``error``/``deadline``); chunk
        ``token_id``'s concatenate to exactly the non-streamed
        ``output.token_ids``.  A request that fails after taking a slot (its
        prefill or a round raised) ends with an ``error`` chunk; only one
        rejected before a slot (unknown model, token budget) raises
        :class:`ServingError`.
        """
        while True:
            chunk = self.next_chunk(request_id)
            if chunk is not None:
                yield chunk
                if chunk.finish_reason is not None:
                    return
                continue
            failure = self._failed.get(request_id)
            if failure is not None:
                del self._failed[request_id]
                raise ServingError(
                    f"request {request_id!r} failed: {failure}"
                ) from failure
            if not self.lm_scheduler.has_request(request_id):
                raise ServingError(
                    f"no streaming request {request_id!r} in flight"
                )
            self.step(force=True)

    def cancel(self, request_id: str) -> Optional[InferenceResult]:
        """Abort an in-flight request; returns its ``aborted`` result (or None).

        A generation request queued or decoding in the continuous scheduler
        retires immediately — its KV cache and page-pool references are
        released before this method returns — and both the returned result
        and the buffered stream end with ``finish_reason="aborted"``.  A
        request still waiting in the micro-batcher is simply removed and gets
        an aborted result with no output payload.  Returns ``None`` when the
        request is unknown (already completed, or never submitted).
        """
        result = self.lm_scheduler.cancel(request_id)
        if result is None:
            queued = self.batcher.cancel(request_id)
            if queued is None:
                return None
            result = InferenceResult(
                request_id=request_id,
                model=queued.request.model,
                family=queued.request.family,
                output=RequestOutput(
                    request_id=request_id, finish_reason=FinishReason.ABORTED
                ),
                batch_size=0,
                enqueued_at=queued.enqueued_at,
                completed_at=self.clock(),
            )
        self._buffer_chunks()
        self._completed[result.request_id] = result
        while len(self._completed) > self.result_buffer:
            self._completed.popitem(last=False)
        return result

    def run_until_idle(self) -> List[InferenceResult]:
        """Drain the queues completely (forcing partial batches)."""
        results: List[InferenceResult] = []
        while self.pending:
            results.extend(self.step(force=True))
        return results

    def take_failures(self) -> List:
        """Pop and return ``(request_id, exception)`` pairs of failed requests."""
        failures = list(self._failed.items())
        self._failed.clear()
        return failures

    def serve(self, requests: Sequence[InferenceRequest]) -> List[InferenceResult]:
        """Submit, batch and run a request list; results in request order.

        Results are collected as batches complete (not via the bounded
        :meth:`result` registry), so the request list may be arbitrarily
        large.  A failed request raises :class:`ServingError` here.
        """
        for request in requests:
            self.submit(request)
        collected = {}
        while self.pending:
            for result in self.step(force=True):
                collected[result.request_id] = result
        output = []
        for request in requests:
            result = collected.get(request.request_id)
            if result is None:
                result = self.result(request.request_id)  # raises for failures
            else:
                self.discard_result(request.request_id)
            output.append(result)
        return output

    def discard_result(self, request_id: str, drop_chunks: bool = True) -> None:
        """Drop a stored result/failure without raising (async path cleanup).

        ``drop_chunks=False`` keeps the request's buffered TokenChunks — the
        async server passes it while a ``stream()`` consumer still needs the
        tail of the stream; every other caller frees them here so non-streamed
        generation traffic does not pin its full chunk history in the buffer.
        """
        self._completed.pop(request_id, None)
        self._failed.pop(request_id, None)
        if drop_chunks:
            self._chunks.pop(request_id, None)

    def result(self, request_id: str) -> InferenceResult:
        """Fetch (and forget) the result of a completed request.

        Raises :class:`ServingError` (chained to the original exception) when
        the request's batch failed to execute.
        """
        self._chunks.pop(request_id, None)  # fetch-and-forget covers the stream
        failure = self._failed.pop(request_id, None)
        if failure is not None:
            raise ServingError(f"request {request_id!r} failed: {failure}") from failure
        try:
            return self._completed.pop(request_id)
        except KeyError as exc:
            raise ServingError(f"no completed result for request {request_id!r}") from exc

    def failure(self, request_id: str) -> Optional[Exception]:
        """Peek the recorded failure of ``request_id`` without consuming it.

        :meth:`result` raises (and forgets) a failed request; the gateway's
        poll path needs to *distinguish* failed from still-pending without
        destroying the record, so this read is non-destructive.
        """
        return self._failed.get(request_id)

    @property
    def pending(self) -> int:
        """Requests queued or decoding but not yet completed."""
        return len(self.batcher) + len(self.lm_scheduler)

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def metrics_text(self) -> str:
        """Prometheus text exposition of the engine's serving metrics."""
        return self.stats.metrics_text()

    def phase_report(self, root: str = "round"):
        """Wall-clock breakdown of traced decode rounds (see the tracer)."""
        return self.tracer.phase_report(root=root)

    def chrome_trace(self) -> dict:
        """Chrome ``trace_event`` dict (``{"traceEvents": [...], ...}``) of
        everything traced so far; ``json.dumps`` it to write a trace file."""
        return self.tracer.chrome_trace()

    def health_report(self) -> dict:
        """``/healthz``-shaped snapshot: status, per-objective SLO attainment,
        open alerts, and live resource accounting.

        Always carries ``resources`` (queue depth, slot occupancy, per-slot
        KV bytes, pool sealed bytes vs. decoded K/V rows, top KV
        consumers); the ``slo``/``alerts`` sections are filled — after a
        fresh evaluation — only when the engine was built with
        ``health=``.  ``status`` is ``"ok"`` unless a burn-rate alert is
        currently firing (``"degraded"``).
        """
        resources = self.lm_scheduler.resource_snapshot()
        resources["batcher_depth"] = len(self.batcher)
        report = {"status": "ok", "slo": {}, "alerts": [], "resources": resources}
        if self.health is not None:
            self.health.evaluate()
            report.update(self.health.report())
            report["resources"] = resources
        return report

    def event_log(self) -> str:
        """Unified JSONL: tracer spans/lifecycles + correlation-id'd health
        events, time-ordered on one shared epoch."""
        return unified_event_log(self.tracer, self.health)

    def write_event_log(self, path) -> int:
        """Write :meth:`event_log` to ``path``; returns the line count."""
        log = self.event_log()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(log)
        return len(log.splitlines())
