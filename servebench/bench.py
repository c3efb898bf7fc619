"""The serving benchmark proper: deploy, drive, check and report.

``run.py`` puts the checkout's ``src`` on the import path and calls
:func:`main`.  Everything inside the timed window goes through the public
``ServingEngine`` API (``submit``, ``step`` and ``next_chunk``), and token
arrival times are read the way a client reads them, after each ``step()``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.serve import (
    FinishReason,
    InferenceRequest,
    KVCacheConfig,
    ModelRepository,
    SamplingParams,
    ServingEngine,
    ServingError,
    SpeculativeConfig,
    SpeculativeDecoder,
    Tracer,
    WorkloadFamily,
)

import layers
import traffic

MODEL = "gpt2-xl-scaled"
SLOTS = 8
PREFILL_CHUNK = 128
CACHE = KVCacheConfig(bits=4, page_size=32)
#: The speculation recipe of benchmarks/bench_scaled_decode.py.
SPEC = SpeculativeConfig(
    draft_layers=1,
    num_speculative_tokens=1,
    feature_width=0,
    calibration_sequences=24,
    calibration_tokens=40,
    calibration_prompt_len=8,
    first_margin_threshold=0.25,
    margin_threshold=1.0,
)
#: token_match's oracle: one slot, no speculation, chunking or prefix sharing.
REFERENCE_CACHE = KVCacheConfig(bits=4, page_size=32, prefix_sharing=False)
#: Fresh deployments per ``--trace 0`` run; setup_s reports their median.
SETUP_REPEATS = 3
#: Greedy requests per run that token_match re-serves alone.
MATCH_SAMPLE = 6
#: A reported percentile needs at least this many samples beyond it.
MIN_TAIL = 10
OK_FINISH = (FinishReason.STOP, FinishReason.LENGTH)
DRAFT_COUNTERS = ("serve_draft_proposed_tokens_total", "serve_draft_accepted_tokens_total")


def _log(message: str) -> None:
    print(f"servebench: {message}", file=sys.stderr, flush=True)


def _request(job: traffic.Job) -> InferenceRequest:
    sampling = SamplingParams(
        temperature=job.temperature,
        top_p=job.top_p,
        max_new_tokens=traffic.NEW_TOKENS,
        seed=job.seed,
    )
    return InferenceRequest(MODEL, WorkloadFamily.LM, job.prompt, sampling=sampling)


# --------------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------------- #
@dataclass
class Deployment:
    """The packed model, and for chat the calibrated draft, engines share."""

    repository: ModelRepository
    speculative: Optional[SpeculativeDecoder]
    build_s: float
    calibrate_s: float

    def engine(self, tracer: Optional[Tracer] = None) -> ServingEngine:
        """A fresh engine, warmed so lazy set-up stays out of the timed window."""
        engine = ServingEngine(
            self.repository,
            max_batch_size=SLOTS,
            num_slots=SLOTS,
            kv_cache_config=CACHE,
            speculative=self.speculative,
            prefill_chunk_tokens=PREFILL_CHUNK,
            tracer=tracer,
        )
        # Shorter than one KV page with its output, so it seals nothing.
        engine.serve([_request(traffic.Job(np.arange(8, dtype=np.int64)))])
        if tracer is not None:
            tracer.reset()
        return engine


def deploy(speculative: bool) -> Tuple[Deployment, ServingEngine, float]:
    """Quantize the model, calibrate speculation when deployed, build an engine."""
    start = time.perf_counter()
    repository = ModelRepository(bits=4, seed=0)
    repository.get(MODEL, WorkloadFamily.LM)
    built = time.perf_counter()
    decoder, calibrate_s = None, 0.0
    if speculative:
        decoder = SpeculativeDecoder(repository, SPEC, target_cache_config=CACHE)
        decoder.warm(MODEL)
        calibrate_s = time.perf_counter() - built
    deployment = Deployment(repository, decoder, built - start, calibrate_s)
    engine = deployment.engine()
    return deployment, engine, time.perf_counter() - start


# --------------------------------------------------------------------------- #
# The load generator
# --------------------------------------------------------------------------- #
@dataclass
class Stream:
    """What one client saw of one request."""

    job: traffic.Job
    due: float
    submitted: float
    tokens: List[int] = field(default_factory=list)
    arrivals: List[float] = field(default_factory=list)
    finish: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.finish in OK_FINISH


@dataclass
class Pass:
    """One serve of a workload: the client streams plus per-step samples."""

    streams: List[Stream] = field(default_factory=list)
    busy: float = 0.0                 # seconds inside ServingEngine.step
    active: List[int] = field(default_factory=list)
    queued: List[int] = field(default_factory=list)
    sealed_bytes: List[int] = field(default_factory=list)
    lru_bytes: List[int] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(not stream.ok for stream in self.streams)


def drive(
    engine: ServingEngine, workload: traffic.Workload, spans: Optional[layers.Spans] = None
) -> Pass:
    """Serve ``workload`` through ``engine``, timing each request as its client.

    Open loop: a job is due at its offset from the window start and goes in at
    the first loop turn at or after that.  Closed loop: a client's next job is
    due the moment its previous one completed.  A token has arrived when the
    ``step()`` that streamed it returns.
    """
    clock = time.perf_counter
    jobs = workload.jobs
    requests = [_request(job) for job in jobs]
    served = Pass()
    live: Dict[str, Stream] = {}
    window = spans.open(layers.WINDOW) if spans is not None else None
    start = clock()
    ready = deque([start] * workload.clients) if workload.clients else None

    def finish(stream: Stream, reason: str, now: float) -> None:
        stream.finish = reason
        if ready is not None:
            ready.append(now)

    sent = 0
    while True:
        now = clock()
        while sent < len(jobs):
            if ready is None:
                due = start + jobs[sent].due
                if due > now:
                    break
            elif ready:
                due = ready.popleft()
            else:
                break
            stream = Stream(jobs[sent], due, submitted=now)
            served.streams.append(stream)
            sent += 1
            try:
                live[engine.submit(requests[sent - 1])] = stream
            except ServingError:
                finish(stream, "refused", now)
        if engine.pending:
            before = clock()
            engine.step()
            now = clock()
            served.busy += now - before
            for request_id, _ in engine.take_failures():
                if request_id in live:
                    finish(live.pop(request_id), FinishReason.ERROR, now)
            for request_id in list(live):
                stream = live[request_id]
                chunk = engine.next_chunk(request_id)
                while chunk is not None:
                    if chunk.token_id is not None:
                        stream.tokens.append(chunk.token_id)
                        stream.arrivals.append(now)
                    if chunk.finish_reason is not None:
                        del live[request_id]
                        finish(stream, chunk.finish_reason, now)
                    chunk = engine.next_chunk(request_id)
            served.active.append(engine.lm_scheduler.num_active)
            served.queued.append(engine.lm_scheduler.num_queued)
            served.sealed_bytes.append(engine.page_pool.sealed_bytes)
            served.lru_bytes.append(engine.page_pool.decoded_cache_bytes)
        elif live:
            # The engine went idle without finishing these streams.
            for stream in live.values():
                finish(stream, "lost", now)
            live.clear()
        elif sent < len(jobs):
            idle = spans.open(layers.IDLE) if spans is not None else None
            time.sleep(max(0.0, start + jobs[sent].due - clock()))
            if idle is not None:
                spans.close(idle)
        else:
            break
    if window is not None:
        spans.close(window)
    return served


# --------------------------------------------------------------------------- #
# Correctness and metrics
# --------------------------------------------------------------------------- #
def token_match(deployment: Deployment, served: Pass) -> float:
    """Share of sampled greedy streams equal to their prompt served alone."""
    greedy = [stream for stream in served.streams if stream.job.temperature == 0.0]
    picks = np.unique(np.linspace(0, len(greedy) - 1, MATCH_SAMPLE).round().astype(int))
    reference = ServingEngine(
        deployment.repository,
        max_batch_size=1,
        num_slots=1,
        kv_cache_config=REFERENCE_CACHE,
    )
    matched = 0
    for index in picks:
        stream = greedy[index]
        [result] = reference.serve([_request(stream.job)])
        matched += list(result.output.token_ids) == stream.tokens
    return matched / len(picks)


def _pct(values: List[float], q: float) -> float:
    """The ``q``-th percentile, refused unless MIN_TAIL samples lie beyond it."""
    if len(values) * (100 - q) / 100 < MIN_TAIL:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has fewer than {MIN_TAIL} beyond it"
        )
    return float(np.percentile(values, q))


def end_to_end(served: Pass, setup_s: float, match: float) -> layers.Metrics:
    """The metrics a client of the engine sees, timed from each due time.

    Per-request TTFT, TPOT and latency are reported as means: over the 24-40
    requests of one run, whose fates are correlated, the means repeat about
    twice as closely as the medians.  The inter-token gap, with hundreds of
    samples per run, reports its tail.
    """
    done = [stream for stream in served.streams if stream.ok]
    gaps = [b - a for s in done for a, b in zip(s.arrivals, s.arrivals[1:])]
    span = max(s.arrivals[-1] for s in done) - min(s.due for s in served.streams)
    tpot = [(s.arrivals[-1] - s.arrivals[0]) / (len(s.arrivals) - 1) for s in done]
    return {
        "setup_s": (setup_s, "s"),
        "output_tok_per_s": (sum(len(s.tokens) for s in done) / span, "tok/s"),
        "ttft_mean_ms": (np.mean([s.arrivals[0] - s.due for s in done]) * 1e3, "ms"),
        "tpot_mean_ms": (np.mean(tpot) * 1e3, "ms"),
        "itl_p90_ms": (_pct(gaps, 90) * 1e3, "ms"),
        "latency_mean_ms": (np.mean([s.arrivals[-1] - s.due for s in done]) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "token_match": (match, "ratio"),
    }


def _draft_counters(engine: ServingEngine) -> Tuple[float, float]:
    registry = engine.stats.registry
    return tuple(registry.get(name).value() for name in DRAFT_COUNTERS)


def per_layer(
    deployment: Deployment,
    plain: Pass,
    traced: Pass,
    spans: layers.Spans,
    engine: ServingEngine,
    tracer: Tracer,
    drafts_before: Tuple[float, float],
) -> layers.Metrics:
    gemm_peak, copy_peak = layers.machine_peaks()
    prompt_tokens = sum(int(stream.job.prompt.size) for stream in traced.streams)
    metrics = layers.span_metrics(spans, prompt_tokens, gemm_peak, copy_peak)
    pool = engine.page_pool.counters()
    fetches = pool["decode_hits"] + pool["decode_misses"]
    waits = [
        (end - start) * 1e3
        for _, phase, start, end, _ in tracer.lifecycles()
        if phase == "queued"
    ]
    proposed, accepted = (
        int(after - before)
        for after, before in zip(_draft_counters(engine), drafts_before)
    )
    late = [(stream.submitted - stream.due) * 1e3 for stream in traced.streams]
    metrics.update(
        {
            "scheduler.active_slots_mean": (float(np.mean(traced.active)), "slots"),
            "scheduler.queue_depth_mean": (float(np.mean(traced.queued)), "requests"),
            "scheduler.queue_wait_ms_p50": (layers.percentile(waits, 50), "ms"),
            "scheduler.queue_wait_ms_p90": (layers.percentile(waits, 90), "ms"),
            "kvcache.pages_sealed": (pool["pages_registered"], "pages"),
            "kvcache.pool_hit_ratio": (layers.ratio(pool["decode_hits"], fetches), "ratio"),
            "kvcache.prefix_pages_attached": (pool["prefix_pages_attached"], "pages"),
            "kvcache.sealed_bytes_peak": (max(traced.sealed_bytes), "bytes"),
            "kvcache.decoded_lru_bytes_peak": (max(traced.lru_bytes), "bytes"),
            "spec.proposed_tokens": (proposed, "tokens"),
            "spec.accepted_tokens": (accepted, "tokens"),
            "spec.acceptance_ratio": (layers.ratio(accepted, proposed), "ratio"),
            "spec.calibrate_s": (deployment.calibrate_s, "s"),
            "repository.build_s": (deployment.build_s, "s"),
            "driver.sent": (len(traced.streams), "requests"),
            "driver.ok": (len(traced.streams) - traced.failed, "requests"),
            "driver.failed": (traced.failed, "requests"),
            "driver.late_ms_p90": (layers.percentile(late, 90), "ms"),
            "trace.overhead_ratio": (traced.busy / plain.busy, "ratio"),
            "machine.gemm_gflop_per_s": (gemm_peak, "GFLOP/s"),
            "machine.copy_gb_per_s": (copy_peak, "GB/s"),
        }
    )
    return metrics


def _number(value):
    return int(value) if isinstance(value, (int, np.integer)) else float(value)


# --------------------------------------------------------------------------- #
# Entry
# --------------------------------------------------------------------------- #
def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="servebench", description="Serving benchmark on gpt2-xl-scaled."
    )
    parser.add_argument("--workload", required=True, choices=sorted(traffic.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: List[str], root: Path, process_start: float) -> int:
    imported = time.perf_counter() - process_start
    args = _parse(argv)
    workload = traffic.WORKLOADS[args.workload](args.seed, args.seconds)
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        deployment = engine = None  # let the previous deployment go first
        deployment, engine, seconds = deploy(workload.speculative)
        setups.append(seconds)
    _log(f"{workload.name}: {len(workload.jobs)} requests; set-up {setups} s")
    plain = drive(engine, workload)
    match = token_match(deployment, plain)
    served = [plain]
    if args.trace:
        spans = layers.Spans()
        tracer = Tracer()
        traced_engine = deployment.engine(tracer=tracer)
        drafts = _draft_counters(traced_engine)
        with layers.instrument(spans):
            traced = drive(traced_engine, workload, spans)
        served.append(traced)
        metrics = per_layer(deployment, plain, traced, spans, traced_engine, tracer, drafts)
        spans.write(root / ".servebench" / f"{workload.name}-seed{args.seed}-spans.json")
        print(layers.report(spans))
    else:
        metrics = end_to_end(plain, imported + statistics.median(setups), match)
    failed = sum(one.failed for one in served)
    correct = failed == 0 and match == 1.0
    _log(f"token_match {match}; failed {failed}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(len(one.streams) for one in served),
                "failed": failed,
                "metrics": {
                    name: {"value": _number(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1
