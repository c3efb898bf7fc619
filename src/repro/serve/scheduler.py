"""Slot-level continuous batching for LM generation.

The micro-batcher (:mod:`repro.serve.batcher`) releases *whole* batches: every
request in a batch completes before any slot is reused.  For multi-token LM
generation that wastes capacity — a batch with one long sequence ends up
decoding at occupancy 1 while finished slots sit idle.  The continuous
scheduler here keeps a fixed pool of ``num_slots`` decode slots and
admits/retires sequences *mid-flight*:

* **admit** — whenever a slot is free and a request is queued, the request
  takes the slot with a fresh per-sequence OVP-paged KV cache
  (:mod:`repro.serve.kvcache`) and its prompt is prefilled through the
  model's incremental path, producing the first generated token; prompts
  whose page-aligned token prefix hashes to pages another request already
  sealed *attach* to those pool entries copy-on-write and prefill only the
  remaining suffix.  A prompt whose prefix another slot is still
  prefilling *follows* that slot instead of prefilling the prefix again:
  its cache stays empty and it runs no chunk until the leader has sealed
  the shared pages (or stopped prefilling), then it attaches what the index
  holds.  So a wave of requests on an unseen document prefills it once;
* **decode round** — all active slots advance one token in a single batched
  incremental forward (the Linear/FFN/head GEMMs stack across slots; only
  the attention core runs per-slot, since every sequence has its own past).
  Each slot *samples* its token with its request's
  :class:`~repro.serve.sampling.SamplingParams` — a per-request seeded
  generator, so co-batched sequences never perturb each other's draws — and
  stop tokens end a sequence mid-round;
* **retire** — a sequence that finishes (``stop`` or ``length``) releases its
  slot immediately, so the next queued request joins the very next round;
* **cancel** — :meth:`ContinuousBatchingScheduler.cancel` retires an
  in-flight (or still-queued) sequence *now*: its KV cache and page-pool
  references are released immediately, the freed slot admits a queued request
  the same step, and the client sees ``finish_reason="aborted"``;
* **speculate** — with ``speculative=`` set, slots first collect draft-token
  proposals (:mod:`repro.serve.spec`) and verify all of them in one batched
  multi-token round, emitting several tokens per slot per round while
  staying token-for-token identical to plain decode; un-proposed slots ride
  the same round as ordinary one-token rows;
* **admit control / deadlines / preemption** — with an
  :class:`~repro.serve.admission.AdmissionPolicy` attached, the queue is
  bounded (:class:`~repro.serve.errors.QueueFullError` past the cap, with an
  optional shed-on-burn-rate mode consulting the health monitor), requests
  carrying ``deadline_s`` (or hitting the policy's queue timeout) terminate
  with ``finish_reason="deadline"`` exactly like :meth:`cancel`, and a
  queued higher-priority request may *preempt* the lowest-priority active
  slot.  Eviction is cheap: the victim's sealed pages are already packed OVP
  bytes, so they are registered under the prefix index, the slot drops its
  cache and re-queues itself, stream state and all, and re-admission
  re-attaches the pages copy-on-write and prefills only the open-page
  suffix — greedy output is token-identical to an uninterrupted run;
* **chunked prefill** — every admission takes its slot at once and appends
  its un-shared suffix's K/V through one prefill loop, one chunk per round,
  interleaved with the other slots' decode steps; intermediate chunks skip
  the LM-head GEMM entirely.  ``prefill_chunk_tokens=None`` makes the chunk
  the whole suffix (one pass, the first token in the admitting round); a set
  chunk bounds how long one tenant's long document delays each decode round.
  Greedy output is token-identical either way (chunk boundaries are
  page-aligned for quantized caches, so every position attends the same
  quantized/fp32 past).

Every sampled token is also emitted as a
:class:`~repro.serve.sampling.TokenChunk` (drained by the engine's
``stream()``), and every round is recorded as a
:class:`~repro.serve.stats.DecodeRoundRecord` — slot occupancy, tokens and
resident KV bytes.  Request outcomes (time to first token, inter-token gaps,
finishes, preemptions) go to :class:`~repro.serve.stats.ServingStats` the
moment they happen.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.serve.admission import AdmissionPolicy
from repro.serve.batcher import QueuedRequest
from repro.serve.errors import AdmissionRejectedError, QueueFullError
from repro.serve.kvcache import (
    KVCacheConfig,
    PagePool,
    SequenceKVCache,
    cache_for_model,
    validate_token_budget,
)
from repro.serve.repository import ModelRepository, PackedModel
from repro.serve.requests import (
    InferenceRequest,
    InferenceResult,
    ServingError,
    WorkloadFamily,
    normalized_num_classes,
)
from repro.serve.sampling import (
    FinishReason,
    RequestOutput,
    Sampler,
    TokenChunk,
    top_k_candidates,
)
from repro.serve.spec import SpeculativeConfig, SpeculativeDecoder
from repro.serve.stats import DecodeRoundRecord, ServingStats
from repro.serve.telemetry import Tracer

__all__ = ["ContinuousBatchingScheduler", "greedy_top_k"]


def greedy_top_k(log_probs: np.ndarray, top_k: int) -> dict:
    """Top-k next-token candidates of one vocabulary distribution.

    Runs on every retired request and every scored prompt.  Selection and
    ordering go through :func:`~repro.serve.sampling.top_k_candidates`, which
    re-derives the winner set from the k-th value and stable-sorts it —
    ``np.argpartition`` alone leaves ties unspecified across NumPy versions.
    ``top_k < 1`` is a caller bug (a bare ``[:0]`` slice would silently
    return no candidates) and is rejected up front.
    """
    top = top_k_candidates(log_probs, top_k)
    return {
        "next_tokens": [int(t) for t in top],
        "log_probs": [float(log_probs[t]) for t in top],
    }


def _fed_chain(request: InferenceRequest, generated: List[int]) -> np.ndarray:
    """``prompt + generated[:-1]``: the tokens whose K/V a sequence's cache holds.

    The final generated token was emitted but never fed back, so its K/V does
    not exist yet; a resumed slot feeds it in its first decode round, exactly
    as the uninterrupted run would have.  This is the chain a fresh request
    prefills (its prompt) and a resumed one re-attaches.
    """
    if not generated:
        return request.token_ids
    return np.concatenate(
        [request.token_ids, np.asarray(generated[:-1], dtype=np.int64)]
    )


@dataclass(eq=False)
class _Slot:
    """One sequence: its request, KV cache and decode progress.

    A preempted slot re-queues as itself (``QueuedRequest.resume``) minus its
    ``entry`` and ``cache``, so the queue pins no K/V rows; re-admission gives
    it fresh ones, and its stream state carries over, generator included (a
    seeded sampled request keeps drawing from the same stream).

    Slots compare by identity: the generated field-wise ``__eq__`` would
    compare numpy fields and raise.
    """

    queued: QueuedRequest
    entry: Optional[PackedModel] = None
    cache: Optional[SequenceKVCache] = None
    sampler: Optional[Sampler] = None
    generator: Optional[np.random.Generator] = None
    generated: List[int] = field(default_factory=list)
    logprobs: List[float] = field(default_factory=list)
    top_logprobs: List[Tuple[Tuple[int, float], ...]] = field(default_factory=list)
    last_log_probs: Optional[np.ndarray] = None
    finish_reason: Optional[str] = None
    last_token_at: Optional[float] = None
    prefill_tokens: int = 0   # prompt tokens actually prefilled (suffix only
    shared_tokens: int = 0    # ... when shared_tokens came from the page pool)
    # The chain tokens not yet appended to the cache (None once prefill
    # completed) and the full chain for prefix registration.
    pending_tokens: Optional[np.ndarray] = None
    chain: Optional[np.ndarray] = None
    preempted_at: Optional[float] = None  # the queue timeout restarts here
    # A follower waits, with an empty cache, for ``leader`` to seal the
    # first ``follow_pages`` pages of its chain (None: the slot computes).
    leader: Optional["_Slot"] = None
    follow_pages: int = 0

    @property
    def prefilling(self) -> bool:
        """True while the slot still owes prompt chunks (no decode yet)."""
        return self.pending_tokens is not None

    @property
    def request(self) -> InferenceRequest:
        return self.queued.request

    @property
    def done(self) -> bool:
        return self.finish_reason is not None


class ContinuousBatchingScheduler:
    """Admit/retire LM generation sequences over a fixed slot pool.

    Each admitted sequence gets a KV cache whose K/V rows are reserved for
    ``prompt + max_new_tokens`` timesteps.  A sealing page quantizes its
    rows in place, and a page attached from the prefix index decodes once,
    so a decode round attends each
    slot over views of those rows in place, without touching the page pool
    and without padding or copying them.

    Pages enter the prefix index after every prefill chunk and at
    preemption (for the evicted slot's own resume), never at retirement;
    :meth:`~repro.serve.kvcache.PagePool.register_prefix` says why.

    Parameters
    ----------
    repository:
        The packed-model store; admitted requests fetch their entry from it.
    num_slots:
        Concurrent decode slots (the continuous-batching analogue of
        ``max_batch_size``).
    cache_config:
        KV-cache precision/paging; defaults to the repository's bit width.
    stats:
        The :class:`~repro.serve.stats.ServingStats` that receives one
        :class:`~repro.serve.stats.DecodeRoundRecord` per non-empty round and
        every request outcome; by default the scheduler builds its own.
    page_pool:
        Optional shared :class:`~repro.serve.kvcache.PagePool`; by default the
        scheduler builds its own.
    speculative:
        Enable self-speculative decoding: a
        :class:`~repro.serve.spec.SpeculativeConfig` (the scheduler builds
        its own :class:`~repro.serve.spec.SpeculativeDecoder`) or an
        existing decoder instance to share calibrated pairs across
        schedulers.  Slots then propose up to ``k`` draft tokens per round
        and verify them in one batched multi-token target pass; slots whose
        model cannot be paired keep decoding plainly.
    admission:
        Optional :class:`~repro.serve.admission.AdmissionPolicy` bounding
        the queue, ordering admission by priority, expiring queue-timeout
        waits, and (with ``preempt=True``) letting queued higher-priority
        requests evict lower-priority active slots.  ``None`` preserves the
        pre-admission behaviour exactly (unbounded FIFO, no preemption).
    health_monitor:
        Optional :class:`~repro.serve.health.HealthMonitor` consulted by the
        policy's shed-on-burn-rate mode: while any burn-rate alert is
        firing, below-floor-priority submissions are rejected.
    prefill_chunk_tokens:
        The most prompt tokens a slot prefills per :meth:`step`.  Every
        admission appends its un-shared suffix through the same chunk loop,
        one chunk per round, interleaved with the other slots' decode rounds
        — so one tenant's long document cannot monopolise a round and
        starve interactive streams.  ``None`` (default) makes the chunk the
        whole suffix: one pass, which emits the first token in the admitting
        round.  Greedy output is token-identical for every chunk size; with
        quantized caches the chunk size must be a multiple of ``page_size``
        (chunk boundaries then land exactly on page seals, so every position
        attends the same mix of quantized/fp32 past either way).
    """

    def __init__(
        self,
        repository: ModelRepository,
        num_slots: int = 4,
        cache_config: Optional[KVCacheConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        stats: Optional[ServingStats] = None,
        page_pool: Optional[PagePool] = None,
        speculative=None,
        tracer=None,
        admission: Optional[AdmissionPolicy] = None,
        health_monitor=None,
        prefill_chunk_tokens: Optional[int] = None,
    ) -> None:
        if num_slots < 1:
            raise ServingError("num_slots must be >= 1")
        self.repository = repository
        self.num_slots = int(num_slots)
        self.cache_config = cache_config or KVCacheConfig(bits=repository.bits)
        if prefill_chunk_tokens is not None:
            prefill_chunk_tokens = int(prefill_chunk_tokens)
            if prefill_chunk_tokens < 1:
                raise ServingError("prefill_chunk_tokens must be >= 1")
            if (
                self.cache_config.quantize
                and prefill_chunk_tokens % self.cache_config.page_size
            ):
                raise ServingError(
                    "prefill_chunk_tokens must be a multiple of page_size "
                    f"({self.cache_config.page_size}) for quantized caches: "
                    "chunk boundaries must land on page seals to keep chunked "
                    "prefill token-identical to unchunked"
                )
        self.prefill_chunk_tokens = prefill_chunk_tokens
        self.clock = clock
        self.stats = stats if stats is not None else ServingStats(clock=clock)
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        if speculative is None:
            self.spec = None
        elif isinstance(speculative, SpeculativeDecoder):
            self.spec = speculative
        elif isinstance(speculative, SpeculativeConfig):
            self.spec = SpeculativeDecoder(
                repository,
                speculative,
                target_cache_config=self.cache_config,
                tracer=self.tracer,
            )
        else:
            raise ServingError(
                "speculative must be a SpeculativeConfig or SpeculativeDecoder"
            )
        # One shared pool for every admitted sequence: sealed pages are
        # refcounted here and the prefix index lives here.
        self.page_pool = page_pool if page_pool is not None else PagePool()
        if tracer is not None or page_pool is None:
            # A passed-in pool adopts only an explicitly passed tracer, so a
            # shared pool's tracer is never clobbered with a disabled default.
            self.page_pool.tracer = self.tracer
        self._queue: Deque[QueuedRequest] = deque()
        self._slots: List[Optional[_Slot]] = [None] * self.num_slots
        self._failed: List[Tuple[str, Exception]] = []
        self._chunks: List[TokenChunk] = []
        # Draft tokens proposed / accepted in the current round.
        self._proposed = self._accepted = 0
        # Deadline-expired results a failed round could not deliver; the
        # next step() call returns them first (see the round's except path).
        self._expired_stash: List[InferenceResult] = []
        self.admission = admission
        self.health_monitor = health_monitor
        # Deadline scanning costs a queue+slot sweep per step; only pay it
        # once a deadline-carrying request (or a queue-timeout policy) shows
        # up, so the deadline-free hot path stays inside the telemetry pin.
        self._deadline_watch = bool(
            admission is not None and admission.queue_timeout_s is not None
        )
        self.retired = 0
        self.cancelled = 0
        self.preempted = 0
        self.rejected = 0
        self.deadline_expired = 0

    # ------------------------------------------------------------------ #
    # Queueing
    # ------------------------------------------------------------------ #
    def submit(self, request: InferenceRequest) -> str:
        """Queue one LM generation request; returns its id.

        With an admission policy attached this may raise
        :class:`~repro.serve.errors.QueueFullError` (bounded queue at
        capacity) or :class:`~repro.serve.errors.AdmissionRejectedError`
        (shed-on-burn-rate active and the request's priority is below the
        floor).  Both are retryable; the request took no slot, cache or pool
        reference.
        """
        if request.family != WorkloadFamily.LM:
            raise ServingError("the continuous scheduler serves LM requests only")
        if request.sampling.max_new_tokens < 1:
            raise ServingError(
                "continuous batching schedules generation requests; "
                "use the micro-batcher for score-only LM requests"
            )
        self._check_admission(request)
        if request.deadline_s is not None:
            self._deadline_watch = True
        self._queue.append(QueuedRequest(request=request, enqueued_at=self.clock()))
        self.stats.record_submitted(request.tenant, request.slo_class)
        self.tracer.lifecycle_begin(
            request.request_id, "queued", {"model": request.model}
        )
        return request.request_id

    def _check_admission(self, request: InferenceRequest) -> None:
        """Reject the submission when the admission policy says to."""
        policy = self.admission
        if policy is None:
            return
        if (
            policy.max_queue_depth is not None
            and len(self._queue) >= policy.max_queue_depth
        ):
            self.rejected += 1
            self.stats.record_rejection("queue_full", request.slo_class, request.tenant)
            raise QueueFullError(
                f"scheduler queue full "
                f"({len(self._queue)}/{policy.max_queue_depth}); "
                f"rejecting {request.request_id!r}"
            )
        if (
            policy.shed_on_burn_rate
            and self.health_monitor is not None
            and self.health_monitor.firing
            and policy.priority_of(request) < policy.shed_priority_floor
        ):
            self.rejected += 1
            self.stats.record_rejection("shed", request.slo_class, request.tenant)
            raise AdmissionRejectedError(
                f"shedding {request.request_id!r} "
                f"(class {request.slo_class!r}, priority "
                f"{policy.priority_of(request)} < floor "
                f"{policy.shed_priority_floor}) while burn-rate alerts fire"
            )

    def __len__(self) -> int:
        return len(self._queue) + self.num_active

    @property
    def num_queued(self) -> int:
        """Requests waiting for a free slot."""
        return len(self._queue)

    @property
    def num_active(self) -> int:
        """Sequences currently holding a slot."""
        return sum(1 for slot in self._slots if slot is not None)

    @property
    def slot_occupancy(self) -> float:
        """Fraction of slots currently held."""
        return self.num_active / self.num_slots

    def has_request(self, request_id: str) -> bool:
        """True while ``request_id`` is queued or holding a slot."""
        if any(q.request.request_id == request_id for q in self._queue):
            return True
        return any(
            slot is not None and slot.request.request_id == request_id
            for slot in self._slots
        )

    def take_failures(self) -> List[Tuple[str, Exception]]:
        """Pop ``(request_id, exception)`` pairs of failed admissions."""
        failures = self._failed
        self._failed = []
        return failures

    def take_chunks(self) -> List[TokenChunk]:
        """Pop the :class:`TokenChunk`'s emitted since the last call."""
        chunks = self._chunks
        self._chunks = []
        return chunks

    def warm_speculative(self, model: str) -> None:
        """Calibrate ``model``'s draft pairing now instead of on first decode.

        Raises :class:`ServingError` when speculation is not enabled, and
        re-raises the pairing error when ``model`` cannot be paired.
        """
        if self.spec is None:
            raise ServingError(
                "speculative decoding is not enabled on this scheduler"
            )
        self.spec.warm(model)

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def step(self) -> List[InferenceResult]:
        """Run one round: expire deadlines, admit, decode, retire finished.

        Returns the results of sequences retired (or deadline-expired) this
        round.  A plain round generates at most one token per active slot (a
        speculative verify round up to ``k + 1``), so callers interleave
        rounds with micro-batch steps without starving either path.
        """
        expired = self._expired_stash
        self._expired_stash = []
        if self._deadline_watch:
            expired.extend(self._expire_deadlines())
        if not len(self):
            return expired
        start = self.clock()
        pool_before = self.page_pool.counters()
        chunk_mark = len(self._chunks)
        self._proposed = self._accepted = 0
        try:
            with self.tracer.span("round"):
                self._admit()
                # Prefilling slots advance one chunk per round; a fresh slot
                # whose final chunk lands emits its first token there, so it
                # skips this round's decode.  A resumed slot produced nothing
                # new and decodes at once (preemption costs zero rounds).
                prefill_tokens, fresh = self._advance_prefills()
                decoded = self._decode_round(exclude=fresh)
                results = self._retire()
        except BaseException as exc:
            # A raised round must be atomic for still-live slots: discard
            # the chunks it streamed for them and roll the slots back to the
            # delivered prefix, then end each in ``error`` with its terminal
            # at that index.  Stepping a rolled-back slot again would re-feed
            # K/V its cache already holds (or read a token it never kept).
            # Chunks of slots _retire already freed stay — their salvaged
            # results are delivered next call, as are deadline expiries
            # computed before the round: no terminal outcome is ever lost
            # to the error.
            self._rollback_round_chunks(chunk_mark)
            for index, slot in enumerate(self._slots):
                if slot is not None:
                    self._end_slot(index, FinishReason.ERROR, exc=exc)
            self._expired_stash = expired + self._expired_stash
            raise
        self._record_round(
            prefill_tokens, len(fresh), decoded, results, start, pool_before
        )
        return expired + results

    def _rollback_round_chunks(self, mark: int) -> None:
        """Undo the failed round's stream effects for still-active slots.

        A slot may have sampled its final token (emitting a chunk that
        carries ``finish_reason``) before a later phase of the same round
        raised.  The slot is still occupied and :meth:`step` ends it with a
        terminal — keeping the round's chunks would double-terminate the
        stream and desync its indices.
        Chunks for requests no longer in a slot (retired or expired within
        the round) are preserved.
        """
        tail = self._chunks[mark:]
        if not tail:
            return
        live = {
            slot.request.request_id: slot
            for slot in self._slots
            if slot is not None
        }
        kept = []
        dropped: Dict[str, int] = {}
        for chunk in tail:
            if chunk.request_id in live:
                if chunk.is_token:
                    dropped[chunk.request_id] = dropped.get(chunk.request_id, 0) + 1
            else:
                kept.append(chunk)
        del self._chunks[mark:]
        self._chunks.extend(kept)
        for request_id, count in dropped.items():
            slot = live[request_id]
            keep = len(slot.generated) - count
            del slot.generated[keep:]
            del slot.logprobs[keep:]
            del slot.top_logprobs[keep:]
            slot.finish_reason = None

    def _record_round(
        self,
        prefill_tokens: int,
        admitted: int,
        decoded: int,
        results: List[InferenceResult],
        start: float,
        pool_before: Dict[str, int],
    ) -> None:
        compute_seconds = self.clock() - start
        active = self.num_active + len(results)
        if not active:
            return
        pool_after = self.page_pool.counters()
        slot_kv_bytes = tuple(
            slot.cache.cache_bytes if slot is not None else 0
            for slot in self._slots
        )
        self.stats.record_decode_round(
            DecodeRoundRecord(
                active_slots=active,
                num_slots=self.num_slots,
                new_tokens=prefill_tokens + admitted + decoded,
                generated_tokens=admitted + decoded,
                compute_seconds=compute_seconds,
                kv_cache_bytes=sum(slot_kv_bytes),
                kv_fp32_bytes=self.kv_fp32_bytes,
                pool_hits=pool_after["decode_hits"] - pool_before["decode_hits"],
                pool_misses=pool_after["decode_misses"] - pool_before["decode_misses"],
                prefix_pages_attached=(
                    pool_after["prefix_pages_attached"]
                    - pool_before["prefix_pages_attached"]
                ),
                shared_pages=self.page_pool.num_shared_pages,
                draft_proposed_tokens=self._proposed,
                draft_accepted_tokens=self._accepted,
                queue_depth=len(self._queue),
                slot_kv_bytes=slot_kv_bytes,
                pool_sealed_bytes=self.page_pool.sealed_bytes,
                kv_decoded_bytes=self.page_pool.decoded_cache_bytes,
            )
        )

    def run_until_idle(self) -> List[InferenceResult]:
        """Drain queue and slots completely."""
        results: List[InferenceResult] = []
        while len(self):
            results.extend(self.step())
        return results

    # ------------------------------------------------------------------ #
    # KV accounting (across all active slots)
    # ------------------------------------------------------------------ #
    @property
    def kv_cache_bytes(self) -> int:
        """Resident KV bytes: packed sealed pages + fp32 open pages."""
        return sum(slot.cache.cache_bytes for slot in self._slots if slot is not None)

    @property
    def kv_fp32_bytes(self) -> int:
        """Bytes fp32 caches would need for the same cached tokens."""
        return sum(slot.cache.fp32_bytes for slot in self._slots if slot is not None)

    def resource_snapshot(self) -> Dict[str, object]:
        """Live resource accounting for ``health_report()`` / dashboards.

        Everything here is a point-in-time gauge read: queue depth, slot
        occupancy, resident KV bytes per slot, the shared pool's sealed
        pages vs. the decoded K/V rows the slots attend, and the top KV
        consumers (largest resident caches first) so the memory-pressure
        question "who is holding the bytes?" has an answer before eviction
        policy work needs it.
        """
        consumers = []
        for index, slot in enumerate(self._slots):
            if slot is None:
                continue
            consumers.append(
                {
                    "slot": index,
                    "request_id": slot.request.request_id,
                    "slo_class": slot.request.slo_class,
                    "tenant": slot.request.tenant,
                    "kv_bytes": slot.cache.cache_bytes,
                    "kv_fp32_bytes": slot.cache.fp32_bytes,
                    "prompt_tokens": slot.request.seq_len,
                    "generated_tokens": len(slot.generated),
                }
            )
        consumers.sort(key=lambda c: (-c["kv_bytes"], c["slot"]))
        # Queue depth broken down the way operators triage it: which SLO
        # class / priority / tenant is the backlog, not just how deep.
        by_class: Dict[str, int] = {}
        by_priority: Dict[str, int] = {}
        by_tenant: Dict[str, int] = {}
        for queued in self._queue:
            request = queued.request
            by_class[request.slo_class] = by_class.get(request.slo_class, 0) + 1
            by_tenant[request.tenant] = by_tenant.get(request.tenant, 0) + 1
            if self.admission is not None:
                prio = str(self.admission.priority_of(request))
                by_priority[prio] = by_priority.get(prio, 0) + 1
        return {
            "queue_depth": len(self._queue),
            "queue_depth_by_class": by_class,
            "queue_depth_by_priority": by_priority,
            "queue_depth_by_tenant": by_tenant,
            "active_slots": self.num_active,
            "num_slots": self.num_slots,
            "slot_occupancy": self.slot_occupancy,
            "kv_cache_bytes": self.kv_cache_bytes,
            "kv_fp32_bytes": self.kv_fp32_bytes,
            "pool": {
                "entries": self.page_pool.num_entries,
                "sealed_bytes": self.page_pool.sealed_bytes,
                "kv_decoded_bytes": self.page_pool.decoded_cache_bytes,
                "shared_pages": self.page_pool.num_shared_pages,
                "prefix_nodes": self.page_pool.num_prefix_nodes,
            },
            "top_consumers": consumers[:5],
        }

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _admit(self) -> None:
        """Fill free slots from the queue (preempting when policy allows).

        Each admitted request takes its slot at once (:meth:`_stage`); its
        prefill forward runs in :meth:`_advance_prefills` this same round.
        """
        with self.tracer.span("admit"):
            free = [index for index, slot in enumerate(self._slots) if slot is None]
            free.extend(self._preempt_for_queue(len(free)))
            while free and self._queue:
                queued = self._pop_next()
                self.tracer.lifecycle_begin(queued.request.request_id, "prefill")
                prepared = self._prepare(queued)
                if prepared is not None:
                    self._stage(free.pop(0), queued, *prepared)

    def _stage(
        self,
        index: int,
        queued: QueuedRequest,
        entry: PackedModel,
        cache: SequenceKVCache,
    ) -> None:
        """Occupy slot ``index`` for ``queued`` without running the model yet.

        The request's token *chain* — the prompt for a fresh request, prompt
        plus already-generated tokens for a preempted one resuming — either
        attaches the pages the prefix index already holds, or, when a live
        slot is still prefilling more of the same chain, makes this slot
        that slot's *follower* (:meth:`_share_prefix`).  A resumed request
        re-admits its own slot, so a cancel or deadline landing mid-prefill
        still reports everything delivered before its eviction.
        """
        slot = queued.resume
        if slot is None:
            sampler = Sampler(queued.request.sampling)
            slot = _Slot(
                queued=queued,
                entry=entry,
                cache=cache,
                sampler=sampler,
                generator=sampler.make_generator(),
            )
        else:
            slot.entry, slot.cache = entry, cache
            slot.prefill_tokens = slot.shared_tokens = 0
            slot.pending_tokens = slot.chain = slot.finish_reason = None
        self._slots[index] = slot
        slot.chain = _fed_chain(queued.request, slot.generated)
        self._share_prefix(index, slot)

    def _share_prefix(self, index: int, slot: _Slot) -> None:
        """Follow a live leader of ``slot``'s chain, or attach what is indexed.

        A slot still prefilling (and not itself following) *leads* when it
        will seal whole pages of this chain that it has not sealed yet:
        this slot then follows the leader sharing the most pages, its cache
        stays empty and it runs no chunk while it waits.  Otherwise the
        pages the prefix index already holds attach copy-on-write and the
        un-appended rest parks on the slot as ``pending_tokens`` for
        :meth:`_advance_prefills`.  Followers never lead, so no cycle forms.
        """
        slot.leader, slot.follow_pages = self._find_leader(slot)
        if slot.leader is not None:
            slot.pending_tokens = slot.chain  # still owed: the cache is empty
            return
        shared = self._lookup_prefix(slot.request, slot.chain)
        if shared is not None:
            num_pages, layers_k, layers_v = shared
            slot.shared_tokens = num_pages * self.cache_config.page_size
            try:
                slot.cache.attach_prefix(layers_k, layers_v, slot.shared_tokens)
            except Exception as exc:
                # Releasing the cache drops any layers the attach already took.
                self._end_slot(index, FinishReason.ERROR, exc=exc)
                return
        slot.pending_tokens = slot.chain[slot.cache.seq_len:]

    def _find_leader(self, slot: _Slot) -> Tuple[Optional[_Slot], int]:
        """``(leader, pages)``: the live slot to wait for, or ``(None, 0)``.

        Shared pages are capped as :meth:`_lookup_prefix` caps them.  A
        candidate whose first page differs is dismissed before anything else,
        so slots sharing nothing cost one short comparison each.
        """
        size = self.cache_config.page_size
        chain = slot.chain
        max_pages = (int(chain.size) - 1) // size
        if not self.cache_config.prefix_sharing or max_pages < 1:
            return None, 0
        key = self._prefix_key(slot.request)
        best, best_pages = None, 0
        for other in self._slots:
            if (
                other is None
                or other is slot
                or other.leader is not None
                or not other.prefilling
                or not np.array_equal(other.chain[:size], chain[:size])
                or self._prefix_key(other.request) != key
            ):
                continue
            span = min(chain.size, other.chain.size)
            mismatch = np.flatnonzero(chain[:span] != other.chain[:span])
            pages = min(max_pages, (int(mismatch[0]) if mismatch.size else span) // size)
            if pages > max(best_pages, other.cache.seq_len // size):
                best, best_pages = other, pages
        return best, best_pages

    def _still_leads(self, slot: _Slot) -> bool:
        """True while ``slot``'s leader is live and short of its shared pages."""
        leader = slot.leader
        return (
            leader.leader is None
            and leader.prefilling
            and any(other is leader for other in self._slots)
            and leader.cache.seq_len // self.cache_config.page_size < slot.follow_pages
        )

    def _advance_prefills(self) -> Tuple[int, List[_Slot]]:
        """Feed every prefilling slot its next chunk.

        A chunk is at most ``prefill_chunk_tokens`` tokens (the whole pending
        suffix when that is ``None``).  Slots sharing a model entry, chunk
        length and finality advance in one batched incremental pass.
        Intermediate chunks run the backbone only — their hidden states are
        never consumed, so the O(t × vocab) LM-head GEMM is skipped.  After
        every chunk the chain's sealed pages register under the prefix
        index.  The final chunk runs the full ``last_only`` pass: a fresh
        request emits its first token (a resumed one discards the output —
        its next token was already delivered before eviction — and rejoins
        decode this same round).

        Followers run no chunk.  Before the chunk groups form, each one whose
        leader has sealed its shared pages, or has stopped prefilling
        (finished, cancelled, preempted or failed), shares again
        (:meth:`_share_prefix`): it attaches whatever the index now holds
        and prefills only the rest, or follows another leader — the first
        follower of a lost leader takes over, and the others follow it.

        Returns ``(chunk_tokens_appended, fresh_slots_completed)``.
        """
        for index, slot in enumerate(self._slots):
            if slot is not None and slot.leader is not None and not self._still_leads(slot):
                self._share_prefix(index, slot)
        pending = [
            slot
            for slot in self._slots
            if slot is not None
            and slot.prefilling
            and slot.leader is None
            and not slot.done
        ]
        if not pending:
            return 0, []
        chunk = self.prefill_chunk_tokens
        groups: Dict[Tuple[int, int, bool], List[_Slot]] = {}
        for slot in pending:
            left = int(slot.pending_tokens.size)
            take = left if chunk is None else min(chunk, left)
            groups.setdefault((id(slot.entry), take, take == left), []).append(slot)
        tokens = 0
        completed_fresh: List[_Slot] = []
        with self.tracer.span("prefill"):
            for (_, take, final), slots in groups.items():
                completed, appended = self._prefill_chunk(slots, take, final)
                tokens += appended
                completed_fresh.extend(completed)
        return tokens, completed_fresh

    def _prefill_chunk(
        self, slots: List[_Slot], take: int, final: bool
    ) -> Tuple[List[_Slot], int]:
        """Run one ``take``-token chunk for ``slots`` (one batched pass).

        On a failed pass a multi-slot group rolls every cache back to its
        length before the pass (the forward appends layer by layer, so a
        fault at layer L left this chunk's rows in layers 0…L) and retries
        slot by slot, so one bad sequence cannot fail its co-batched
        neighbours; a single slot's failure ends it in ``error``.  Returns
        the fresh slots whose prefill completed (first token emitted) and
        the tokens actually appended.
        """
        entry = slots[0].entry
        step_tokens = np.stack([slot.pending_tokens[:take] for slot in slots])
        caches = [slot.cache for slot in slots]
        base_lengths = [cache.seq_len for cache in caches]
        try:
            if final:
                log_probs = entry.model.log_probs_incremental(
                    step_tokens, caches, last_only=True, tracer=self.tracer
                )[:, -1, :]
            else:
                entry.model.backbone.forward_incremental(
                    step_tokens, caches, tracer=self.tracer
                )
        except Exception as exc:
            if len(slots) == 1:
                self._end_slot(self._slots.index(slots[0]), FinishReason.ERROR, exc=exc)
                return [], 0
            completed: List[_Slot] = []
            appended = 0
            for cache, length in zip(caches, base_lengths):
                cache.truncate_to(length)
            for slot in slots:
                done, tokens = self._prefill_chunk([slot], take, final)
                completed.extend(done)
                appended += tokens
            return completed, appended
        now = self.clock()
        completed = []
        for row, slot in enumerate(slots):
            slot.prefill_tokens += take
            if self.cache_config.prefix_sharing:
                # Every chunk ends on a seal (quantized chunks are page
                # multiples), so followers find each chunk's pages at once.
                self.page_pool.register_prefix(
                    self._prefix_key(slot.request),
                    slot.chain[: slot.cache.seq_len],
                    slot.cache,
                )
            if not final:
                slot.pending_tokens = slot.pending_tokens[take:]
                continue
            slot.pending_tokens = None
            # A slot that already emitted tokens is a resumed one: its next
            # token was delivered before eviction.
            resumed = bool(slot.generated)
            if not resumed:
                self._emit_token(slot, log_probs[row], now)
                completed.append(slot)
            self.tracer.lifecycle_begin(
                slot.request.request_id,
                "decode",
                {"resumed": True} if resumed else None,
            )
        return completed, take * len(slots)

    def _pop_next(self) -> QueuedRequest:
        """Pop the next request to admit: highest priority, FIFO among ties."""
        policy = self.admission
        if policy is None:
            return self._queue.popleft()
        best_pos = 0
        best_prio = None
        for pos, queued in enumerate(self._queue):
            prio = policy.priority_of(queued.request)
            if best_prio is None or prio > best_prio:
                best_pos, best_prio = pos, prio
        queued = self._queue[best_pos]
        del self._queue[best_pos]
        return queued

    # ------------------------------------------------------------------ #
    # Preemption
    # ------------------------------------------------------------------ #
    def _preempt_for_queue(self, num_free: int) -> List[int]:
        """Evict low-priority active slots for queued higher-priority work.

        Only the queued demand that will *not* fit the free slots shops for
        victims (best-priority first), and a victim must rank strictly
        below the queued request — equal-priority traffic never preempts,
        so a saturating single-class workload cannot thrash.  Returns the
        freed slot indices.
        """
        policy = self.admission
        freed: List[int] = []
        if policy is None or not policy.preempt or not self._queue:
            return freed
        demand = sorted(
            (policy.priority_of(q.request) for q in self._queue), reverse=True
        )
        for prio in demand[num_free:]:
            victim = self._preemption_victim(prio)
            if victim is None:
                break
            self._preempt(victim)
            freed.append(victim)
        return freed

    def _preemption_victim(self, priority: int) -> Optional[int]:
        """Slot index to evict for a ``priority`` request (None when none ranks below).

        Among strictly-lower-priority active slots, picks the lowest
        priority, breaking ties toward the *youngest* (latest enqueue):
        older sequences are closer to finishing and have the most sunk
        prefill cost, so evicting the newcomer wastes the least work.
        """
        best = None
        best_key = None
        for index, slot in enumerate(self._slots):
            if slot is None:
                continue
            prio = self.admission.priority_of(slot.request)
            if prio >= priority:
                continue
            key = (prio, -slot.queued.enqueued_at)
            if best_key is None or key < best_key:
                best, best_key = index, key
        return best

    def _preempt(self, index: int) -> None:
        """Evict one active slot and re-queue it for resume.

        Eviction is cheap: the sequence's sealed pages are *already* packed
        OVP bytes, so registering them under the prefix index (taking index
        references) and dropping the cache costs no re-quantization; only
        the open page's rows (< page_size tokens) will be re-prefilled at
        resume.  The slot itself re-queues as ``QueuedRequest.resume``,
        carrying its stream state.  No terminal chunk is emitted — the
        stream simply pauses and continues at the same index after resume,
        preserving the exactly-one-terminal-marker invariant.
        """
        slot = self._slots[index]
        request = slot.request
        if self.cache_config.prefix_sharing:
            # Mid-prefill only the appended part of the chain exists; index
            # exactly that, so the resume re-attaches it and re-prefills only
            # the rest.
            chain = _fed_chain(request, slot.generated)[: slot.cache.seq_len]
            self.page_pool.register_prefix(self._prefix_key(request), chain, slot.cache)
        # Drop the cache, not just its page references: release() keeps the
        # row buffers, sized for prompt + max_new_tokens, and a queued
        # request must not pin them.
        slot.cache.release()
        slot.cache = slot.entry = None
        slot.preempted_at = self.clock()
        self._slots[index] = None
        self.preempted += 1
        self.stats.record_preemption(request.slo_class)
        # A fresh request evicted before its prefill completed has emitted
        # nothing and drawn nothing from its generator: it re-queues as if
        # never admitted (the indexed pages still make its next admission
        # cheap).
        resume = None if slot.prefilling and not slot.generated else slot
        self._queue.append(
            QueuedRequest(
                request=request, enqueued_at=slot.queued.enqueued_at, resume=resume
            )
        )
        self.tracer.lifecycle_begin(
            request.request_id,
            "queued",
            {"preempted": True, "tokens": len(slot.generated)},
        )

    def _prefix_key(self, request: InferenceRequest) -> tuple:
        """Prefix-index scope: one model's pages never serve another model.

        Repository models are built deterministically from (name, family,
        num_classes, bits, seed), so the request-level identity is a stable
        key even across entry rebuilds after LRU eviction.
        """
        return (
            request.model,
            request.family,
            normalized_num_classes(request.family, request.num_classes),
        )

    def _lookup_prefix(
        self, request: InferenceRequest, chain: np.ndarray
    ) -> Optional[tuple]:
        """Longest sealed-page run matching ``chain``'s page-aligned prefix.

        At least one token is always left for prefill — the model must still
        run the final position to produce the admission pass's output (and
        the batched prefill kernel needs a non-empty suffix) — so sharing is
        capped at ``(len(chain) - 1) // page_size`` pages.  For a resumed
        request the chain extends past the prompt into the generated tokens,
        so the pages its own eviction registered are found here.
        """
        if not self.cache_config.prefix_sharing:
            return None
        max_pages = (int(chain.size) - 1) // self.cache_config.page_size
        if max_pages < 1:
            return None
        found = self.page_pool.lookup_prefix(
            self._prefix_key(request),
            chain,
            self.cache_config.page_size,
            max_pages,
        )
        return found if found[0] else None

    def _prepare(
        self, queued: QueuedRequest
    ) -> Optional[Tuple[PackedModel, SequenceKVCache]]:
        """Fetch the request's model entry, check its token budget, build its cache.

        The cache is an empty pooled one with rows reserved for
        ``prompt + max_new_tokens``: the budget ``validate_token_budget``
        admitted and speculative proposals are capped to, so the rows never
        move.  A request failing here never takes a slot: it is recorded
        failed, with no stream chunk.
        """
        request = queued.request
        try:
            entry = self.repository.get(request.model, request.family, request.num_classes)
            validate_token_budget(entry.model, request)
            cache = cache_for_model(
                entry.model,
                self.cache_config,
                pool=self.page_pool,
                capacity=request.seq_len + request.sampling.max_new_tokens,
            )
        except Exception as exc:
            self._failed.append((request.request_id, exc))
            self.tracer.lifecycle_end(
                request.request_id, {"reason": FinishReason.ERROR}
            )
            return None
        return entry, cache

    # ------------------------------------------------------------------ #
    # Cancellation
    # ------------------------------------------------------------------ #
    def cancel(self, request_id: str) -> Optional[InferenceResult]:
        """Abort one request *now*; returns its ``finish_reason="aborted"`` result.

        A queued request is removed before it ever takes a slot.  An active
        sequence retires immediately: its slot frees for the next queued
        request the very next step, and its KV cache / page-pool references
        are released before this method returns (refcounts drop back to
        their pre-admission values).  Returns ``None`` when ``request_id``
        is not queued or in flight here.
        """
        now = self.clock()
        for position, queued in enumerate(self._queue):
            if queued.request.request_id == request_id:
                del self._queue[position]
                self.cancelled += 1
                return self._queued_terminal_result(queued, now, FinishReason.ABORTED)
        for index, slot in enumerate(self._slots):
            if slot is None or slot.request.request_id != request_id:
                continue
            self.cancelled += 1
            return self._end_slot(index, FinishReason.ABORTED, now)
        return None

    def _end_slot(
        self,
        index: int,
        reason: str,
        now: Optional[float] = None,
        exc: Optional[Exception] = None,
    ) -> Optional[InferenceResult]:
        """Terminate the slot at ``index`` *now* with ``reason``.

        Releases the KV cache and page-pool references before returning —
        the sequence's memory is reclaimable immediately, not at the next
        step — and ends the stream (:meth:`_end_stream`).
        """
        slot = self._slots[index]
        result = self._end_stream(slot, reason, now, exc)
        slot.cache.release()
        self._slots[index] = None
        return result

    def _queued_terminal_result(
        self, queued: QueuedRequest, now: float, reason: str
    ) -> InferenceResult:
        """End the stream of a request that holds no slot (:meth:`_end_stream`).

        A preempted request reports through its own re-queued slot, so a
        cancel/deadline that lands mid-requeue delivers every token emitted
        before eviction and its terminal chunk continues the stream at the
        next index.  A request never admitted reports through a bare slot:
        nothing produced, terminal chunk at index 0.
        """
        slot = queued.resume or _Slot(queued)
        return self._end_stream(slot, reason, now)

    def _end_stream(
        self,
        slot: _Slot,
        reason: str,
        now: Optional[float] = None,
        exc: Optional[Exception] = None,
    ) -> Optional[InferenceResult]:
        """End ``slot``'s stream early (cancel, deadline or error) with ``reason``.

        Records the finish, emits the terminal marker chunk and closes the
        request's lifecycle.  A cancel or deadline expiry (no ``exc``)
        returns the result built at ``now`` from whatever the stream
        produced so far; a failure records ``exc`` for :meth:`take_failures`
        instead and returns ``None``.
        """
        request = slot.request
        slot.finish_reason = reason
        result = None
        if exc is None:
            result = self._build_result(slot, now, self.num_active)
        else:
            self._failed.append((request.request_id, exc))
        self.stats.record_finish(
            reason, request.slo_class, request.tenant, result.latency if result else None
        )
        self._chunks.append(
            TokenChunk(
                request_id=request.request_id,
                index=len(slot.generated),
                token_id=None,
                finish_reason=reason,
            )
        )
        self.tracer.lifecycle_end(
            request.request_id, {"reason": reason, "tokens": len(slot.generated)}
        )
        return result

    # ------------------------------------------------------------------ #
    # Deadlines
    # ------------------------------------------------------------------ #
    def _expire_deadlines(self) -> List[InferenceResult]:
        """Terminate every request past its deadline or queue timeout.

        Runs at the top of :meth:`step`, before admission — an expired
        queued request must not waste a prefill, and an expired active slot
        must free before this round's admissions look for space.  Deadlines
        are end-to-end (measured from the original enqueue, spanning any
        preemption); the policy queue timeout measures *waiting* only, so a
        preempted request's wait restarts at its eviction.
        """
        now = self.clock()
        policy = self.admission
        timeout = policy.queue_timeout_s if policy is not None else None
        expired: List[InferenceResult] = []
        survivors: Deque[QueuedRequest] = deque()
        while self._queue:
            queued = self._queue.popleft()
            request = queued.request
            over_deadline = (
                request.deadline_s is not None
                and now - queued.enqueued_at >= request.deadline_s
            )
            waiting_since = (
                queued.resume.preempted_at
                if queued.resume is not None
                else queued.enqueued_at
            )
            over_timeout = timeout is not None and now - waiting_since >= timeout
            if not (over_deadline or over_timeout):
                survivors.append(queued)
                continue
            expired.append(
                self._queued_terminal_result(queued, now, FinishReason.DEADLINE)
            )
        self._queue = survivors
        for index, slot in enumerate(self._slots):
            if slot is None or slot.request.deadline_s is None:
                continue
            if now - slot.queued.enqueued_at >= slot.request.deadline_s:
                expired.append(self._end_slot(index, FinishReason.DEADLINE, now))
        self.deadline_expired += len(expired)
        return expired

    # ------------------------------------------------------------------ #
    # Token emission
    # ------------------------------------------------------------------ #
    def _emit_token(self, slot: _Slot, log_probs: np.ndarray, now: float) -> None:
        """Sample one token for ``slot``, stream it, and settle finish state."""
        sampled = slot.sampler.sample(log_probs, slot.generator)
        slot.last_log_probs = log_probs
        index = len(slot.generated)
        slot.generated.append(sampled.token_id)
        slot.logprobs.append(sampled.logprob)
        if sampled.top_logprobs:
            slot.top_logprobs.append(sampled.top_logprobs)
        if index == 0:
            self.stats.record_first_token(
                now - slot.queued.enqueued_at, slot.request.slo_class
            )
        elif slot.last_token_at is not None:
            self.stats.record_token_gap(now - slot.last_token_at)
        slot.last_token_at = now
        if slot.sampler.is_stop(sampled.token_id):
            slot.finish_reason = FinishReason.STOP
        elif len(slot.generated) >= slot.request.sampling.max_new_tokens:
            slot.finish_reason = FinishReason.LENGTH
        self._chunks.append(
            TokenChunk(
                request_id=slot.request.request_id,
                index=index,
                token_id=sampled.token_id,
                logprob=sampled.logprob,
                top_logprobs=sampled.top_logprobs,
                finish_reason=slot.finish_reason,
            )
        )

    def _decode_round(self, exclude: List[_Slot]) -> int:
        """One batched incremental step for every unfinished slot.

        With speculation enabled, each slot first gets a (possibly empty)
        draft proposal; slots sharing a model entry and proposal depth
        verify all their ``k + 1`` positions in one batched multi-token
        pass, while un-proposed slots advance one token exactly as before —
        speculative and plain slots mix freely in the same round.
        """
        skip = {id(slot) for slot in exclude}
        active = [
            slot
            for slot in self._slots
            if slot is not None
            and not slot.done
            and not slot.prefilling
            and id(slot) not in skip
        ]
        if not active:
            return 0
        # All zoo LMs of one model name share the entry object, but a round
        # may mix models; group so each batched forward uses one model.
        by_entry = {}
        for slot in active:
            by_entry.setdefault(id(slot.entry), []).append(slot)
        decoded = 0
        for slots in by_entry.values():
            proposals = self._plan_speculation(slots)
            if any(proposals):
                decoded += self._verify_round(slots, proposals)
            else:
                # No slot speculates this round: the classic single-token
                # path, numerically untouched.
                decoded += self._plain_round(slots)
        return decoded

    def _plain_round(self, slots: List[_Slot]) -> int:
        """Advance ``slots`` one token in a single batched incremental pass."""
        tracer = self.tracer
        with tracer.span("plain_round"):
            step_tokens = np.array(
                [[slot.generated[-1]] for slot in slots], dtype=np.int64
            )
            caches = [slot.cache for slot in slots]
            log_probs = slots[0].entry.model.log_probs_incremental(
                step_tokens,
                caches,
                tracer=tracer,
            )
            now = self.clock()
            with tracer.span("sample"):
                for row, slot in enumerate(slots):
                    self._emit_token(slot, log_probs[row, -1], now)
            return len(slots)

    def _plan_speculation(self, slots: List[_Slot]) -> List[List[int]]:
        """Draft proposals for one entry group (all empty when not speculating).

        Each slot's proposal depth is capped so a fully accepted round —
        ``k`` drafts plus the bonus token — never overruns the request's
        ``max_new_tokens`` (which also keeps the verify pass inside the
        positional budget the admission check validated).

        Quantized caches add a page-boundary cap: a slot's *kept* verify
        tokens must not complete a KV page under deferred seals, because
        eager plain decode attends a page quantized from the moment it
        seals, while the deferred window sees its own in-flight rows in
        full precision.  Speculation therefore stops one token short of
        every boundary; the boundary token itself still rides the verify
        batch, just with eager sealing (see ``_verify_batch``), keeping
        speculative greedy decode token-for-token identical to the
        non-speculative path.
        """
        if self.spec is None:
            return [[] for _ in slots]
        cap = self.spec.config.num_speculative_tokens
        page_size = self.cache_config.page_size
        max_tokens = []
        for slot in slots:
            if slot.prefilling or not slot.generated:
                # A slot mid-prefill has no emitted token to extend
                # and its cache holds only a prompt prefix: it must neither
                # receive draft proposals nor join a verify batch.  The
                # round loop already filters prefilling slots, but plan()
                # would otherwise read slot.generated[-1] after paying the
                # calibration cost — guard here so every caller is safe.
                max_tokens.append(0)
                continue
            depth = min(
                cap, slot.request.sampling.max_new_tokens - len(slot.generated) - 1
            )
            if self.cache_config.quantize:
                room = page_size - 1 - slot.cache.seq_len % page_size
                depth = min(depth, room - 1)
            max_tokens.append(depth)
        with self.tracer.span("draft_propose"):
            return self.spec.plan(slots, max_tokens)

    def _verify_round(self, slots: List[_Slot], proposals: List[List[int]]) -> int:
        """Verify one entry group's proposals in as few target passes as possible.

        Proposal depths are ragged, but per-depth sub-passes would fragment
        the round into several tiny forwards, wasting the batching the
        scheduler exists to provide.  Instead every slot's verify row pads to
        the group's deepest proposal (repeating its last token): the padded
        positions ride the same batched pass, their log-probs are simply
        never consumed, and their K/V roll back with the rejected suffix.
        Un-proposed slots join the same pass as plain one-token rows.  Only
        a slot whose positional table cannot absorb the padding (possible
        right at the context limit) drops to an exact-depth sub-pass.
        """
        entry = slots[0].entry
        max_positions = getattr(
            getattr(entry.model, "config", None), "max_positions", None
        )
        page_size = self.cache_config.page_size
        width = 1 + max(len(proposal) for proposal in proposals)
        padded: List[Tuple[_Slot, List[int]]] = []
        leftover: Dict[int, List[Tuple[_Slot, List[int]]]] = {}
        eager: List[_Slot] = []
        for slot, proposal in zip(slots, proposals):
            at_boundary = (
                self.cache_config.quantize
                and slot.cache.seq_len % page_size == page_size - 1
            )
            if at_boundary and width > page_size:
                # Padding would spill past the fresh page and seal garbage;
                # only possible when page_size < k + 1.  Decode plainly.
                eager.append(slot)
            elif max_positions is None or slot.cache.seq_len + width <= max_positions:
                padded.append((slot, proposal))
            else:
                leftover.setdefault(len(proposal), []).append((slot, proposal))
        emitted = 0
        if eager:
            emitted += self._plain_round(eager)
        if padded:
            emitted += self._verify_batch(entry, padded, width)
        for depth, group in sorted(leftover.items()):
            emitted += self._verify_batch(entry, group, depth + 1)
        return emitted

    def _verify_batch(
        self, entry: PackedModel, group: List[Tuple[_Slot, List[int]]], width: int
    ) -> int:
        """One batched ``width``-token verify pass over ``group``.

        Feeds ``[last_token, d_1 … d_k, pad…]`` per slot through one
        multi-token round (seals deferred so the rollback below is
        exact), then samples each verified position with the slot's own
        sampler: the sampled token is always emitted, and the row keeps
        consuming positions while the sample matches the draft's proposal —
        ending with a correction, the post-acceptance bonus token, or the
        stop/length finish.  The rejected (and padded) suffix of the
        optimistic K/V append rolls back with ``truncate_to``; pool-shared
        sealed pages stay untouched.
        """
        tracer = self.tracer
        page_size = self.cache_config.page_size
        rows = []
        for slot, proposal in group:
            fed = [slot.generated[-1], *proposal]
            fed.extend(fed[-1:] * (width - len(fed)))
            rows.append(fed)
        step_tokens = np.array(rows, dtype=np.int64)
        caches = [slot.cache for slot, _ in group]
        base_lengths = [cache.seq_len for cache in caches]
        with tracer.span(
            "verify_batch",
            attrs={"slots": len(group), "width": width} if tracer.enabled else None,
        ):
            for (slot, proposal), cache in zip(group, caches):
                # A slot whose next token completes a KV page must seal it
                # *during the append* — eager plain decode attends a
                # just-sealed page quantized, and deferring the seal would
                # attend it in full precision and could emit a different
                # token.  Such a slot never carries proposals (the
                # page-boundary cap in _plan_speculation zeroed them), so its
                # only consumed row seals exactly the boundary page from
                # correct rows, the padding lands in the fresh open page, and
                # the rollback below drops it without reopening anything.
                # Every other slot defers seals so the rejected-suffix
                # rollback is exact.
                boundary = (
                    self.cache_config.quantize
                    and not proposal
                    and cache.seq_len % page_size == page_size - 1
                    and width <= page_size
                )
                if not boundary:
                    cache.hold_seals()
            log_probs = entry.model.log_probs_incremental(
                step_tokens,
                caches,
                batched_rounds=True,
                tracer=tracer,
            )
            now = self.clock()
            emitted_total = 0
            with tracer.span("sample"):
                for row, (slot, proposal) in enumerate(group):
                    emitted = 0
                    accepted = 0
                    for position in range(len(proposal) + 1):
                        self._emit_token(slot, log_probs[row, position], now)
                        emitted += 1
                        matched = (
                            position < len(proposal)
                            and slot.generated[-1] == proposal[position]
                        )
                        if matched:
                            accepted += 1
                        if slot.done or not matched:
                            break
                    with tracer.span("kv_rollback"):
                        slot.cache.truncate_to(base_lengths[row] + emitted)
                        slot.cache.flush_seals()
                    self._proposed += len(proposal)
                    self._accepted += accepted
                    emitted_total += emitted
            return emitted_total

    def _build_result(
        self, slot: _Slot, completed_at: float, occupancy_now: int
    ) -> InferenceResult:
        """Assemble the typed output of a finished (or cancelled) slot."""
        request = slot.request
        if slot.last_log_probs is None:
            # Terminated mid-prefill: no position was ever scored,
            # so there is no final distribution to report candidates from.
            top = {"next_tokens": [], "log_probs": []}
        else:
            top = greedy_top_k(slot.last_log_probs, max(1, request.sampling.logprobs))
        kv_summary = None
        if slot.cache is not None:
            kv_summary = slot.cache.memory_summary()
            kv_summary["prefix_shared_tokens"] = slot.shared_tokens
        output = RequestOutput(
            request_id=request.request_id,
            finish_reason=slot.finish_reason,
            token_ids=list(slot.generated),
            logprobs=list(slot.logprobs),
            top_logprobs=list(slot.top_logprobs),
            next_tokens=top["next_tokens"],
            log_probs=top["log_probs"],
            kv_cache=kv_summary,
        )
        return InferenceResult(
            request_id=request.request_id,
            model=request.model,
            family=request.family,
            output=output,
            batch_size=occupancy_now,
            enqueued_at=slot.queued.enqueued_at,
            completed_at=completed_at,
            scheme=slot.entry.scheme if slot.entry is not None else None,
        )

    def _retire(self) -> List[InferenceResult]:
        """Free slots whose sequences finished (stop token or token budget)."""
        with self.tracer.span("retire"):
            completed_at = self.clock()
            results: List[InferenceResult] = []
            occupancy_now = self.num_active
            try:
                for index, slot in enumerate(self._slots):
                    if slot is None or not slot.done:
                        continue
                    result = self._build_result(slot, completed_at, occupancy_now)
                    results.append(result)
                    self.stats.record_finish(
                        slot.finish_reason,
                        slot.request.slo_class,
                        slot.request.tenant,
                        result.latency,
                    )
                    self.tracer.lifecycle_end(
                        slot.request.request_id,
                        {
                            "reason": slot.finish_reason,
                            "tokens": len(slot.generated),
                        },
                    )
                    # Retirement releases the sequence's page references;
                    # pages kept alive by the prefix index go on serving
                    # later requests.
                    slot.cache.release()
                    self._slots[index] = None
                    self.retired += 1
            except BaseException:
                # Slots freed before the raise already released their pages
                # and left the slot table; losing the local list would erase
                # their terminal outcome.  Stash the completed results so
                # the next step() delivers them.
                self._expired_stash.extend(results)
                raise
            return results
