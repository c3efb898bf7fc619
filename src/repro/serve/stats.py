"""Serving metrics: latency percentiles, throughput, batch fill, bytes served.

Every processed batch is recorded with its size, duration, token count and
traffic estimate; :meth:`ServingStats.summary` reduces the log into the
numbers a serving dashboard would show.  The byte accounting uses the same
tile-reuse DRAM model as the performance simulators
(:func:`repro.hardware.memory.gemm_traffic`), so requests/sec and decode GB/s
line up with the paper's memory-traffic methodology.

Request outcomes (first token, token gap, finish, preemption) are recorded
by one call each at the moment they happen: the registry sees them at once,
and the window files them with the next decode round.
"""

from __future__ import annotations

import copy
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.serve.telemetry import MetricsRegistry, exponential_buckets

__all__ = ["BatchRecord", "DecodeRoundRecord", "ServingSummary", "ServingStats"]

#: Request-scale latencies (enqueue → completion, TTFT): 0.1 ms … ~6.5 s.
_LATENCY_BUCKETS = exponential_buckets(1e-4, 2.0, 16)
#: Token-scale gaps (inter-token, decode rounds): 10 µs … ~82 ms.
_TOKEN_BUCKETS = exponential_buckets(1e-5, 2.0, 14)

#: SLO class used for observations recorded without a class annotation.
_DEFAULT_CLASS = "default"

#: Tenant label used for observations recorded without a tenant annotation
#: (direct-to-engine traffic that never passed through the gateway).
_DEFAULT_TENANT = "-"


def _request_instruments(registry: MetricsRegistry) -> tuple:
    """``(ttft, latency, finished)``: the instruments of request outcomes.

    :class:`ServingStats` writes them and
    :class:`~repro.serve.health.HealthMonitor` reads them, and the registry
    keeps the help text of whichever attaches first, so both take them from
    this one declaration.
    """
    return (
        registry.histogram(
            "serve_ttft_seconds", "Enqueue to first streamed token",
            _LATENCY_BUCKETS, labels=("slo_class",),
        ),
        registry.histogram(
            "serve_request_latency_seconds", "Enqueue-to-completion latency",
            _LATENCY_BUCKETS, labels=("slo_class",),
        ),
        registry.counter(
            "serve_requests_finished_total",
            "Finished generation requests",
            labels=("reason", "slo_class", "tenant"),
        ),
    )


def _finite(values) -> np.ndarray:
    """The finite float values of ``values`` (drops NaN/Inf measurements).

    A single wild measurement — a clock hiccup, an aborted round stamped
    with NaN — must degrade one sample, not poison every aggregate of the
    window with NaN.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size and not np.all(np.isfinite(arr)):
        arr = arr[np.isfinite(arr)]
    return arr


def _pct_ms(values: np.ndarray, q: float) -> float:
    """Percentile in milliseconds; an exact ``0.0`` float for empty pools.

    All percentile fields of :class:`ServingSummary` funnel through here so
    the no-completed-requests window reports NaN-free zeros that round (and
    JSON-encode) the same way everywhere.
    """
    if not values.size:
        return 0.0
    return float(np.percentile(values, q) * 1e3)


def _first_finite(value: float) -> float:
    """``value`` when finite, else ``0.0`` (guards the window-start stamp)."""
    value = float(value)
    return value if np.isfinite(value) else 0.0


@dataclass(frozen=True)
class BatchRecord:
    """Measurements of one processed micro-batch."""

    batch_size: int
    max_batch_size: int
    compute_seconds: float
    tokens: int
    weight_stream_bytes: int   # packed OVP bytes streamed for this batch
    dram_bytes: float          # modelled DRAM traffic (weights + activations)
    latencies: tuple           # per-request seconds, enqueue → completion
    latency_classes: tuple = ()  # per-request SLO class, parallel to latencies

    @property
    def fill(self) -> float:
        """Fraction of the batch budget used."""
        return self.batch_size / self.max_batch_size if self.max_batch_size else 0.0


@dataclass(frozen=True)
class DecodeRoundRecord:
    """Measurements of one continuous-batching decode round.

    A round is one pass of the slot scheduler: admissions (prefill) plus one
    incremental decode step for every active slot.  KV-cache bytes are the
    totals across all active slots *at the end of the round* — the resident
    packed footprint next to what an fp32 cache would need for the same
    tokens.
    """

    active_slots: int
    num_slots: int
    new_tokens: int            # prompt tokens prefilled + tokens generated
    generated_tokens: int      # tokens generated this round
    compute_seconds: float
    kv_cache_bytes: int        # OVP-packed pages + fp32 open pages, all slots
    kv_fp32_bytes: int         # fp32 cache footprint for the same tokens
    # Page-pool activity this round (deltas of the pool's counters).
    pool_hits: int = 0                 # pages served without a decode (live shared block)
    pool_misses: int = 0               # sealed pages OVP-decoded (prefix attach)
    prefix_pages_attached: int = 0     # pages adopted from the prefix index
    shared_pages: int = 0              # pool pages with >1 holder at round end
    # Speculative decoding this round (zero when no slot speculated).
    draft_proposed_tokens: int = 0     # draft tokens fed to the verify pass
    draft_accepted_tokens: int = 0     # draft tokens the target emitted
    # Resource accounting at round end (zero when the scheduler predates it).
    queue_depth: int = 0               # requests waiting for a slot
    slot_kv_bytes: tuple = ()          # resident KV bytes per slot (idle = 0)
    pool_sealed_bytes: int = 0         # live sealed pages in the shared pool
    kv_decoded_bytes: int = 0          # decoded sealed K/V rows of live caches

    @property
    def occupancy(self) -> float:
        """Fraction of slots doing work this round."""
        return self.active_slots / self.num_slots if self.num_slots else 0.0

    @property
    def draft_acceptance_rate(self) -> float:
        """Fraction of proposed draft tokens the target accepted this round."""
        return (
            self.draft_accepted_tokens / self.draft_proposed_tokens
            if self.draft_proposed_tokens
            else 0.0
        )


@dataclass
class _Outcomes:
    """Request outcome values filed with one window entry.

    Only the values: the registry took their class and tenant labels when
    they were recorded.
    """

    ttfts: List[float] = field(default_factory=list)
    gaps: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    finishes: List[str] = field(default_factory=list)
    preemptions: int = 0


@dataclass(frozen=True)
class ServingSummary:
    """Aggregated serving metrics over a stats window."""

    requests: int
    batches: int
    wall_seconds: float
    compute_seconds: float
    tokens: int
    throughput_rps: float
    tokens_per_second: float
    latency_mean_ms: float
    latency_p50_ms: float
    latency_p95_ms: float
    mean_batch_fill: float
    weight_stream_bytes: int
    dram_bytes: float
    # Continuous-batching decode metrics (zero when no LM generation ran).
    decode_rounds: int = 0
    generated_tokens: int = 0
    decode_seconds: float = 0.0
    mean_slot_occupancy: float = 0.0
    kv_cache_bytes_peak: int = 0
    kv_fp32_bytes_peak: int = 0
    # Generation finish reasons over the window (zero when nothing finished).
    finish_stop: int = 0
    finish_length: int = 0
    finish_aborted: int = 0
    finish_error: int = 0
    finish_deadline: int = 0
    # Requests preempted (slot evicted, re-queued) over the window.
    preemptions: int = 0
    # Streamed-token latencies over the window (zero when nothing streamed).
    ttft_p50_ms: float = 0.0
    ttft_p95_ms: float = 0.0
    inter_token_p50_ms: float = 0.0
    inter_token_p95_ms: float = 0.0
    # Speculative decoding over the window (zero when nothing speculated).
    draft_proposed_tokens: int = 0
    draft_accepted_tokens: int = 0

    @property
    def draft_acceptance_rate(self) -> float:
        """Fraction of proposed draft tokens the target model accepted."""
        return (
            self.draft_accepted_tokens / self.draft_proposed_tokens
            if self.draft_proposed_tokens
            else 0.0
        )

    @property
    def kv_compression(self) -> float:
        """fp32-cache footprint / resident packed footprint at the KV peak."""
        return (
            self.kv_fp32_bytes_peak / self.kv_cache_bytes_peak
            if self.kv_cache_bytes_peak
            else 0.0
        )

    @property
    def finish_reasons(self) -> Dict[str, int]:
        """Finish-reason counts as one dict (dashboard convenience)."""
        return {
            "stop": self.finish_stop,
            "length": self.finish_length,
            "aborted": self.finish_aborted,
            "error": self.finish_error,
            "deadline": self.finish_deadline,
        }

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view (for logging / benchmark extra_info)."""
        return {
            "requests": self.requests,
            "batches": self.batches,
            "wall_seconds": round(self.wall_seconds, 6),
            "compute_seconds": round(self.compute_seconds, 6),
            "tokens": self.tokens,
            "throughput_rps": round(self.throughput_rps, 2),
            "tokens_per_second": round(self.tokens_per_second, 1),
            "latency_mean_ms": round(self.latency_mean_ms, 3),
            "latency_p50_ms": round(self.latency_p50_ms, 3),
            "latency_p95_ms": round(self.latency_p95_ms, 3),
            "mean_batch_fill": round(self.mean_batch_fill, 4),
            "weight_stream_bytes": self.weight_stream_bytes,
            "dram_bytes": round(self.dram_bytes, 1),
            "decode_rounds": self.decode_rounds,
            "generated_tokens": self.generated_tokens,
            "decode_seconds": round(self.decode_seconds, 6),
            "mean_slot_occupancy": round(self.mean_slot_occupancy, 4),
            "kv_cache_bytes_peak": self.kv_cache_bytes_peak,
            "kv_fp32_bytes_peak": self.kv_fp32_bytes_peak,
            "kv_compression": round(self.kv_compression, 2),
            "finish_stop": self.finish_stop,
            "finish_length": self.finish_length,
            "finish_aborted": self.finish_aborted,
            "finish_error": self.finish_error,
            "finish_deadline": self.finish_deadline,
            "preemptions": self.preemptions,
            "ttft_p50_ms": round(self.ttft_p50_ms, 3),
            "ttft_p95_ms": round(self.ttft_p95_ms, 3),
            "inter_token_p50_ms": round(self.inter_token_p50_ms, 3),
            "inter_token_p95_ms": round(self.inter_token_p95_ms, 3),
            "draft_proposed_tokens": self.draft_proposed_tokens,
            "draft_accepted_tokens": self.draft_accepted_tokens,
            "draft_acceptance_rate": round(self.draft_acceptance_rate, 4),
        }


class ServingStats:
    """Thread-safe accumulator of per-batch serving measurements.

    The record log is a sliding window bounded by ``max_records`` (oldest
    batches evicted first), so a long-running serving loop neither leaks
    memory nor makes :meth:`summary` cost grow with server lifetime; the
    summary covers the retained window.  Request outcomes recorded between
    two decode rounds are filed with the later round, so they leave the
    window with it; the summary also counts those no round has filed yet.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        max_records: int = 4096,
        registry: MetricsRegistry = None,
    ) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        # (recorded_at, record) pairs; timestamps make the wall-clock window
        # well-defined even after old records have been evicted.
        self._records: Deque[Tuple[float, BatchRecord]] = deque(maxlen=int(max_records))
        self._rounds: Deque[Tuple[float, DecodeRoundRecord, _Outcomes]] = deque(
            maxlen=int(max_records)
        )
        self._pending = _Outcomes()
        # Cumulative named metrics, updated in lock-step with the windowed
        # records.  Counters never reset with the window, so a registry
        # shared between several ServingStats instances (sharded workers)
        # rolls their totals up automatically.
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self._m_batches = r.counter("serve_batches_total", "Micro-batches executed")
        self._m_tokens = r.counter("serve_tokens_total", "Prompt + generated tokens processed")
        self._m_weight_bytes = r.counter(
            "serve_weight_stream_bytes_total", "Packed OVP weight bytes streamed"
        )
        self._m_dram_bytes = r.counter(
            "serve_dram_bytes_total", "Modelled DRAM traffic (weights + activations)"
        )
        self._m_rounds = r.counter("serve_decode_rounds_total", "Continuous-batching decode rounds")
        self._m_generated = r.counter(
            "serve_generated_tokens_total", "Tokens generated by decode rounds"
        )
        self._m_pool_hits = r.counter(
            "serve_pool_hits_total", "Pages served without a decode (live shared block)"
        )
        self._m_pool_misses = r.counter(
            "serve_pool_misses_total", "Sealed pages OVP-decoded at prefix attach"
        )
        self._m_prefix_pages = r.counter(
            "serve_prefix_pages_attached_total", "Pages adopted from the prefix index"
        )
        self._m_ttft, self._m_latency, self._m_finished = _request_instruments(r)
        # Tenant-facing counters (gateway front door; "-" = untenanted).
        self._m_submitted = r.counter(
            "serve_requests_submitted_total",
            "Requests accepted into the serving engine",
            labels=("tenant", "slo_class"),
        )
        # Resilience counters (admission control / deadlines / preemption).
        self._m_rejected = r.counter(
            "serve_requests_rejected_total",
            "Requests rejected at admission",
            labels=("reason", "slo_class", "tenant"),
        )
        self._m_preemptions = r.counter(
            "serve_preemptions_total",
            "Active slots evicted and re-queued for higher-priority work",
            labels=("slo_class",),
        )
        self._m_deadline_misses = r.counter(
            "serve_deadline_misses_total",
            "Requests terminated by deadline/queue-timeout expiry",
            labels=("slo_class",),
        )
        self._m_chunks_evicted = r.counter(
            "serve_stream_chunks_evicted_total",
            "Buffered stream chunks dropped by the engine's bounded buffer",
        )
        self._m_proposed = r.counter(
            "serve_draft_proposed_tokens_total", "Draft tokens fed to the verify pass"
        )
        self._m_accepted = r.counter(
            "serve_draft_accepted_tokens_total", "Draft tokens the target emitted"
        )
        self._m_gap = r.histogram(
            "serve_inter_token_seconds", "Gap between consecutive streamed tokens", _TOKEN_BUCKETS
        )
        self._m_round_seconds = r.histogram(
            "serve_round_seconds", "Wall time of one decode round", _TOKEN_BUCKETS
        )
        self._m_kv_bytes = r.gauge(
            "serve_kv_cache_bytes", "Resident packed KV footprint, last round"
        )
        self._m_kv_fp32 = r.gauge(
            "serve_kv_fp32_bytes", "fp32 KV footprint for the same tokens, last round"
        )
        self._m_occupancy = r.gauge("serve_slot_occupancy", "Active-slot fraction, last round")
        self._m_shared = r.gauge("serve_shared_pages", "Pool pages with >1 holder, last round")
        self._m_fill = r.gauge("serve_batch_fill", "Fill of the last micro-batch")
        self._m_accept_ratio = r.gauge(
            "serve_draft_acceptance_ratio", "Accepted / proposed draft tokens, cumulative"
        )
        self._m_hit_rate = r.gauge(
            "serve_pool_hit_rate", "Pool hits / fetches, cumulative"
        )
        # Resource-accounting gauges (health layer / memory-pressure view).
        self._m_queue_depth = r.gauge(
            "serve_queue_depth", "Requests waiting for a scheduler slot"
        )
        self._m_pool_sealed = r.gauge(
            "serve_pool_sealed_bytes", "Live sealed-page bytes in the shared pool"
        )
        self._m_kv_decoded = r.gauge(
            "serve_kv_decoded_bytes", "Decoded sealed K/V rows held by live caches"
        )
        self._m_slot_kv = r.gauge(
            "serve_slot_kv_bytes", "Resident KV bytes per scheduler slot",
            labels=("slot",),
        )

    def record_batch(self, record: BatchRecord) -> None:
        """Append one batch record (stamps the wall-clock window)."""
        now = self.clock()
        with self._lock:
            self._records.append((now, record))
        self._m_batches.inc()
        self._m_tokens.inc(record.tokens)
        self._m_weight_bytes.inc(record.weight_stream_bytes)
        self._m_dram_bytes.inc(max(record.dram_bytes, 0.0))
        self._m_fill.set(record.fill)
        classes = record.latency_classes or (_DEFAULT_CLASS,) * len(record.latencies)
        for latency, cls in zip(record.latencies, classes):
            self._m_latency.observe(latency, slo_class=cls)

    def record_decode_round(self, record: DecodeRoundRecord) -> None:
        """Append one decode-round record, filing the outcomes recorded since the last."""
        now = self.clock()
        with self._lock:
            self._rounds.append((now, record, self._pending))
            self._pending = _Outcomes()
        self._m_rounds.inc()
        self._m_tokens.inc(record.new_tokens)
        self._m_generated.inc(record.generated_tokens)
        self._m_round_seconds.observe(record.compute_seconds)
        self._m_pool_hits.inc(record.pool_hits)
        self._m_pool_misses.inc(record.pool_misses)
        self._m_prefix_pages.inc(record.prefix_pages_attached)
        self._m_proposed.inc(record.draft_proposed_tokens)
        self._m_accepted.inc(record.draft_accepted_tokens)
        self._m_kv_bytes.set(record.kv_cache_bytes)
        self._m_kv_fp32.set(record.kv_fp32_bytes)
        self._m_occupancy.set(record.occupancy)
        self._m_shared.set(record.shared_pages)
        self._m_queue_depth.set(record.queue_depth)
        self._m_pool_sealed.set(record.pool_sealed_bytes)
        self._m_kv_decoded.set(record.kv_decoded_bytes)
        for slot_index, nbytes in enumerate(record.slot_kv_bytes):
            self._m_slot_kv.set(nbytes, slot=str(slot_index))

    def record_first_token(self, seconds: float, slo_class: str = _DEFAULT_CLASS) -> None:
        """One request's time to first token (enqueue → first streamed token)."""
        self._m_ttft.observe(seconds, slo_class=slo_class)
        with self._lock:
            self._pending.ttfts.append(seconds)

    def record_token_gap(self, seconds: float) -> None:
        """The gap between two consecutive streamed tokens of one request."""
        self._m_gap.observe(seconds)
        with self._lock:
            self._pending.gaps.append(seconds)

    def record_finish(
        self,
        reason: str,
        slo_class: str = _DEFAULT_CLASS,
        tenant: str = _DEFAULT_TENANT,
        latency: Optional[float] = None,
    ) -> None:
        """One request's terminal outcome, with its latency when it has one."""
        self._m_finished.inc(reason=reason, slo_class=slo_class, tenant=tenant)
        if reason == "deadline":
            self._m_deadline_misses.inc(slo_class=slo_class)
        if latency is not None:
            self._m_latency.observe(latency, slo_class=slo_class)
        with self._lock:
            self._pending.finishes.append(reason)
            if latency is not None:
                self._pending.latencies.append(latency)

    def record_preemption(self, slo_class: str = _DEFAULT_CLASS) -> None:
        """One active slot evicted and re-queued for higher-priority work."""
        self._m_preemptions.inc(slo_class=slo_class)
        with self._lock:
            self._pending.preemptions += 1

    def record_submitted(
        self, tenant: str = _DEFAULT_TENANT, slo_class: str = _DEFAULT_CLASS
    ) -> None:
        """Count one request accepted into the engine (post-admission)."""
        self._m_submitted.inc(tenant=str(tenant), slo_class=str(slo_class))

    def record_rejection(
        self,
        reason: str,
        slo_class: str = _DEFAULT_CLASS,
        tenant: str = _DEFAULT_TENANT,
    ) -> None:
        """Count one admission rejection (``queue_full`` / ``shed`` / ...).

        Rejections never enter the windowed record log: a rejected request
        does no work, so it must not perturb latency/throughput aggregates —
        only the dedicated counter (and the watchdog reading it) sees it.
        """
        self._m_rejected.inc(
            reason=str(reason), slo_class=str(slo_class), tenant=str(tenant)
        )

    def record_chunks_evicted(self, count: int) -> None:
        """Count stream chunks dropped by the engine's bounded result buffer."""
        if count > 0:
            self._m_chunks_evicted.inc(int(count))

    def metrics_text(self) -> str:
        """Prometheus text exposition of the metrics registry.

        Ratio gauges are refreshed from the cumulative counters at scrape
        time, so they stay consistent with the `_total` samples beside them.
        """
        proposed = self._m_proposed.value()
        self._m_accept_ratio.set(
            self._m_accepted.value() / proposed if proposed else 0.0
        )
        fetches = self._m_pool_hits.value() + self._m_pool_misses.value()
        self._m_hit_rate.set(self._m_pool_hits.value() / fetches if fetches else 0.0)
        return self.registry.render()

    def reset(self) -> None:
        """Clear the window."""
        with self._lock:
            self._records.clear()
            self._rounds.clear()
            self._pending = _Outcomes()

    @property
    def num_batches(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def num_decode_rounds(self) -> int:
        with self._lock:
            return len(self._rounds)

    def summary(self) -> ServingSummary:
        """Reduce the retained record window into aggregate metrics."""
        with self._lock:
            stamped = list(self._records)
            stamped_rounds = list(self._rounds)
            pending = copy.deepcopy(self._pending)
        if not stamped and not stamped_rounds and pending == _Outcomes():
            return ServingSummary(
                requests=0, batches=0, wall_seconds=0.0, compute_seconds=0.0,
                tokens=0, throughput_rps=0.0, tokens_per_second=0.0,
                latency_mean_ms=0.0, latency_p50_ms=0.0, latency_p95_ms=0.0,
                mean_batch_fill=0.0, weight_stream_bytes=0, dram_bytes=0.0,
            )
        records = [record for _, record in stamped]
        rounds = [record for _, record, _ in stamped_rounds]
        outcomes = [entry[2] for entry in stamped_rounds] + [pending]
        # The window opens when the first retained batch/round *started*
        # computing and closes when the last one was recorded.  Compute
        # durations, latencies and streamed-token timings all pass through
        # _finite(): one non-finite measurement degrades one sample instead
        # of turning wall_seconds/throughput/percentiles into NaN.
        starts, ends = [], []
        if stamped:
            starts.append(stamped[0][0] - _first_finite(stamped[0][1].compute_seconds))
            ends.append(stamped[-1][0])
        if stamped_rounds:
            starts.append(
                stamped_rounds[0][0]
                - _first_finite(stamped_rounds[0][1].compute_seconds)
            )
            ends.append(stamped_rounds[-1][0])
        latencies = _finite(
            [s for r in records for s in r.latencies]
            + [s for o in outcomes for s in o.latencies]
        )
        if not starts:
            # Only outcomes no round has filed (cancels or expiries on an
            # idle scheduler): the window spans at least the longest request.
            starts, ends = [0.0], [float(np.max(latencies, initial=0.0))]
        started_at = min(starts)
        last_at = max(ends)
        requests = int(latencies.size)
        tokens = sum(r.tokens for r in records) + sum(r.new_tokens for r in rounds)
        compute = float(_finite(r.compute_seconds for r in records).sum())
        decode_seconds = float(_finite(r.compute_seconds for r in rounds).sum())
        wall = max(float(last_at - started_at), compute + decode_seconds, 1e-12)
        # Report the KV footprint pair of the round holding the most cached
        # tokens, so the compression ratio compares like with like.
        kv_peak = max(rounds, key=lambda r: r.kv_fp32_bytes, default=None)
        reasons = [reason for o in outcomes for reason in o.finishes]
        ttfts = _finite(s for o in outcomes for s in o.ttfts)
        gaps = _finite(s for o in outcomes for s in o.gaps)
        return ServingSummary(
            requests=requests,
            batches=len(records),
            wall_seconds=wall,
            compute_seconds=compute,
            tokens=tokens,
            throughput_rps=requests / wall,
            tokens_per_second=tokens / wall,
            latency_mean_ms=float(np.mean(latencies) * 1e3) if requests else 0.0,
            latency_p50_ms=_pct_ms(latencies, 50),
            latency_p95_ms=_pct_ms(latencies, 95),
            mean_batch_fill=float(np.mean([r.fill for r in records])) if records else 0.0,
            weight_stream_bytes=sum(r.weight_stream_bytes for r in records),
            dram_bytes=sum(r.dram_bytes for r in records),
            decode_rounds=len(rounds),
            generated_tokens=sum(r.generated_tokens for r in rounds),
            decode_seconds=decode_seconds,
            mean_slot_occupancy=(
                float(np.mean([r.occupancy for r in rounds])) if rounds else 0.0
            ),
            kv_cache_bytes_peak=kv_peak.kv_cache_bytes if kv_peak else 0,
            kv_fp32_bytes_peak=kv_peak.kv_fp32_bytes if kv_peak else 0,
            finish_stop=reasons.count("stop"),
            finish_length=reasons.count("length"),
            finish_aborted=reasons.count("aborted"),
            finish_error=reasons.count("error"),
            finish_deadline=reasons.count("deadline"),
            preemptions=sum(o.preemptions for o in outcomes),
            ttft_p50_ms=_pct_ms(ttfts, 50),
            ttft_p95_ms=_pct_ms(ttfts, 95),
            inter_token_p50_ms=_pct_ms(gaps, 50),
            inter_token_p95_ms=_pct_ms(gaps, 95),
            draft_proposed_tokens=sum(r.draft_proposed_tokens for r in rounds),
            draft_accepted_tokens=sum(r.draft_accepted_tokens for r in rounds),
        )
