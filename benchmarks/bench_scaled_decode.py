"""Benchmark: scaled-tier decode — the modeled speedups, in wall-clock.

The toy zoo pins speculation and the round attend *semantically* (token
identity, rounds/token) but cannot show them in wall time: at hidden 64 a
NumPy decode round is per-call-overhead-bound.  ``gpt2-xl-scaled`` (hidden
512, 4 layers, 8 heads, 1024 positions) is large enough that a round is
dominated by GEMMs and page decode, so the two serving optimisations this
repo models must — and here, must *provably* — pay for themselves:

* **speculative_wall_ratio** — plain greedy wall over speculative wall on
  the same workload, > 1.0 pinned.  The scaled tier's layer-convergent
  residual stream (``AnalogueConfig.residual_decay``) gives its 1-layer
  draft prefix the predictive power trained LMs give theirs, and the
  single-token speculation depth keeps the verify GEMMs in the
  weight-streaming regime where extra rows are nearly free.
* **padded_over_round_attend_wall_ratio** — decode wall with a padded
  attend swapped in over decode wall with the production round attend
  (each slot attended over its own K/V rows in place) on a bimodal-length
  batch (short chats next to long documents), > 1.0 pinned.  Padding every
  slot to the round's longest KV length wastes attend GEMM rows and copies
  every slot's K/V each layer; at 700+-token contexts both are
  wall-visible.

Both comparisons also assert token identity, so the speedups cannot come
from decoding different (shorter, easier) streams.  Ratios are medians of
paired interleaved trials (see ``paired_ratio``) and are recorded in the
``scaled_decode`` section of ``BENCH_serve.json``, where the regression
watchdog enforces the > 1.0 floors and flags drift.

A third measurement bounds what serving in float32 costs in accuracy:

* **cross_precision** — fixed prompts served greedily by the float32 entry
  and by the same packed model cast back to float64
  (``Module.astype(np.float64)``).  ``token_agreement`` is the share of
  generated tokens before each prompt's first divergence (floor 0.95) and
  ``max_logprob_delta`` the largest |Δ logprob| over those tokens (ceiling
  1e-3); the watchdog enforces both.

And one kernel measurement reads the projection GEMMs against their plain
NumPy form:

* **small_gemm** — ``repro.nn.functional.linear`` against ``x @ W.T`` over
  the five ``gpt2-xl-scaled`` projection shapes in float32, at 2 rows (a
  speculative verify), 8 rows (a full decode round) and the row threshold up
  to which ``linear`` runs ``W @ x.T``.  Both sides compute the same bits;
  each ``*_speedup`` is the plain time over ``linear``'s, floored at 1.2 at
  8 rows and 0.95 at the threshold (the watchdog enforces both).
"""

import statistics
import time

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.attention import MultiHeadAttention
from repro.serve import (
    ContinuousBatchingScheduler,
    InferenceRequest,
    KVCacheConfig,
    ModelRepository,
    SamplingParams,
    SpeculativeConfig,
    SpeculativeDecoder,
    WorkloadFamily,
)
from repro.serve.stats import ServingStats

MODEL = "gpt2-xl-scaled"
VOCAB = 96
CACHE = KVCacheConfig(bits=4, page_size=32, prefix_sharing=False)

# Speculation recipe for the scaled tier: the 1-layer draft keeps the
# proposal pass at ~a quarter of a target round, single-token depth keeps
# the verify batch narrow, and the low first-margin gate proposes on most
# rounds — acceptance comes from the calibrated head, not from gating.
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

SPEC_SLOTS = 2
SPEC_REQUESTS = 4
SPEC_SEQ_LEN = 24
SPEC_NEW_TOKENS = 64

MIXED_SLOTS = 8
MIXED_LENGTHS = (16, 24, 24, 32, 700, 720, 740, 760)
MIXED_NEW_TOKENS = 32

MIN_WALL_RATIO = 1.0
MIN_ACCEPTANCE = 0.6
MIN_STREAM_SPEEDUP = 1.3
PAIRED_TRIALS = 5

AGREEMENT_SLOTS = 4
AGREEMENT_PROMPTS = 12
AGREEMENT_NEW_TOKENS = 16
MIN_TOKEN_AGREEMENT = 0.95
MAX_LOGPROB_DELTA = 1e-3

# (out, in) of the fused QKV, attention, FFN up/down and LM-head GEMMs.
SMALL_GEMM_SHAPES = ((1536, 512), (512, 512), (1024, 512), (512, 1024), (96, 512))
SMALL_GEMM_REPEATS = 20
MIN_SMALL_GEMM_SPEEDUP = {"rows_8_speedup": 1.2, "threshold_rows_speedup": 0.95}


def _spec_requests():
    requests = []
    for index in range(SPEC_REQUESTS):
        rng = np.random.default_rng(100 + index)
        requests.append(
            InferenceRequest(
                MODEL,
                WorkloadFamily.LM,
                rng.integers(0, VOCAB, size=SPEC_SEQ_LEN),
                sampling=SamplingParams(max_new_tokens=SPEC_NEW_TOKENS),
            )
        )
    return requests


def _drain(repository, speculative=None):
    """Serve the speculative workload; returns (ordered tokens, summary)."""
    stats = ServingStats()
    scheduler = ContinuousBatchingScheduler(
        repository,
        num_slots=SPEC_SLOTS,
        cache_config=CACHE,
        stats=stats,
        speculative=speculative,
    )
    requests = _spec_requests()
    for request in requests:
        scheduler.submit(request)
    outputs = {
        r.request_id: list(r.output.token_ids)
        for r in scheduler.run_until_idle()
    }
    return [outputs[request.request_id] for request in requests], stats.summary()


def _mixed_decode(repository, attend=None):
    """Prefill the bimodal batch untimed, then time the decode drain.

    ``attend`` replaces ``MultiHeadAttention._attend`` for the run (``None``
    keeps the production round attend).
    """
    previous = MultiHeadAttention._attend
    if attend is not None:
        MultiHeadAttention._attend = attend
    try:
        scheduler = ContinuousBatchingScheduler(
            repository, num_slots=MIXED_SLOTS, cache_config=CACHE
        )
        requests = []
        for index, length in enumerate(MIXED_LENGTHS):
            rng = np.random.default_rng(300 + index)
            requests.append(
                InferenceRequest(
                    MODEL,
                    WorkloadFamily.LM,
                    rng.integers(0, VOCAB, size=length),
                    sampling=SamplingParams(max_new_tokens=MIXED_NEW_TOKENS),
                )
            )
        for request in requests:
            scheduler.submit(request)
        scheduler.step()  # admit + prefill every slot outside the timer
        start = time.perf_counter()
        outputs = {
            r.request_id: list(r.output.token_ids)
            for r in scheduler.run_until_idle()
        }
        elapsed = time.perf_counter() - start
        return [outputs[request.request_id] for request in requests], elapsed
    finally:
        MultiHeadAttention._attend = previous


def _greedy_streams(repository):
    """Greedy ``(tokens, logprobs)`` of the fixed agreement prompts (48-108
    tokens, so every stream attends sealed pages), in prompt order."""
    scheduler = ContinuousBatchingScheduler(
        repository, num_slots=AGREEMENT_SLOTS, cache_config=CACHE
    )
    requests = []
    for index in range(AGREEMENT_PROMPTS):
        rng = np.random.default_rng(500 + index)
        requests.append(
            InferenceRequest(
                MODEL,
                WorkloadFamily.LM,
                rng.integers(0, VOCAB, size=48 + 5 * index),
                sampling=SamplingParams(max_new_tokens=AGREEMENT_NEW_TOKENS),
            )
        )
    for request in requests:
        scheduler.submit(request)
    outputs = {r.request_id: r.output for r in scheduler.run_until_idle()}
    streams = [outputs[request.request_id] for request in requests]
    return [(list(out.token_ids), np.asarray(out.logprobs)) for out in streams]


def test_bench_cross_precision_agreement(repository, serve_trajectory):
    entry = repository.get(MODEL, WorkloadFamily.LM)
    assert {p.data.dtype for p in entry.model.parameters()} == {np.dtype(np.float32)}
    served = _greedy_streams(repository)
    try:
        entry.model.astype(np.float64)
        reference = _greedy_streams(repository)
    finally:
        entry.model.astype(np.float32)  # float32 -> float64 -> float32 is exact
    agreed, total, delta = 0, 0, 0.0
    for (tokens, logprobs), (ref_tokens, ref_logprobs) in zip(served, reference):
        same = 0
        while same < len(ref_tokens) and tokens[same] == ref_tokens[same]:
            same += 1
        agreed += same
        total += len(ref_tokens)
        gap = np.abs(logprobs[:same] - ref_logprobs[:same]).max(initial=0.0)
        delta = max(delta, float(gap))
    agreement = agreed / total
    assert agreement >= MIN_TOKEN_AGREEMENT, (
        f"float32 serving agrees with float64 on {agreed}/{total} greedy tokens"
    )
    assert delta <= MAX_LOGPROB_DELTA, f"max |Δ logprob| {delta:.3g} > {MAX_LOGPROB_DELTA}"
    serve_trajectory(
        "cross_precision",
        prompts=AGREEMENT_PROMPTS,
        compared_tokens=total,
        agreed_tokens=agreed,
        token_agreement=round(agreement, 4),
        max_logprob_delta=float(f"{delta:.3g}"),
    )


def test_bench_small_gemm(paired_ratio, serve_trajectory):
    rng = np.random.default_rng(0)
    weights = [rng.standard_normal(shape).astype(np.float32) for shape in SMALL_GEMM_SHAPES]
    numbers = {"threshold_rows": F._WXT_MAX_ROWS}
    for name, rows in (
        ("rows_2_speedup", 2),
        ("rows_8_speedup", 8),
        ("threshold_rows_speedup", F._WXT_MAX_ROWS),
    ):
        inputs = [
            rng.standard_normal((rows, weight.shape[1])).astype(np.float32)
            for weight in weights
        ]
        for weight, x in zip(weights, inputs):
            np.testing.assert_array_equal(F.linear(x, weight), x @ weight.T)

        def kernel():
            for _ in range(SMALL_GEMM_REPEATS):
                for weight, x in zip(weights, inputs):
                    F.linear(x, weight)

        def plain():
            for _ in range(SMALL_GEMM_REPEATS):
                for weight, x in zip(weights, inputs):
                    x @ weight.T

        _, kernel_seconds, plain_seconds = paired_ratio(kernel, plain)
        numbers[name] = round(plain_seconds / kernel_seconds, 3)
    for name, floor in MIN_SMALL_GEMM_SPEEDUP.items():
        assert numbers[name] >= floor, f"small_gemm {name} {numbers[name]} < {floor}"
    serve_trajectory("small_gemm", **numbers)


@pytest.fixture(scope="module")
def repository():
    repository = ModelRepository(bits=4, seed=0)
    repository.get(MODEL, WorkloadFamily.LM)
    return repository


def test_bench_scaled_decode(
    repository, run_once, paired_ratio, benchmark, serve_trajectory, padded_attend
):
    decoder = SpeculativeDecoder(repository, SPEC, target_cache_config=CACHE)
    decoder.warm(MODEL)  # calibrate the heads outside the timers

    # ---------------- speculative decode, wall-clock ---------------- #
    plain_tokens, plain_summary = _drain(repository)
    spec_tokens, spec_summary = _drain(repository, speculative=decoder)
    assert spec_tokens == plain_tokens  # identical greedy streams

    acceptance = spec_summary.draft_acceptance_rate
    assert acceptance >= MIN_ACCEPTANCE, (
        f"draft acceptance {acceptance:.3f} below {MIN_ACCEPTANCE}"
    )
    stream_speedup = plain_summary.decode_rounds / spec_summary.decode_rounds
    assert stream_speedup >= MIN_STREAM_SPEEDUP

    spec_ratio, plain_seconds, spec_seconds = paired_ratio(
        lambda: _drain(repository),
        lambda: _drain(repository, speculative=decoder),
        trials=PAIRED_TRIALS,
    )
    assert spec_ratio > MIN_WALL_RATIO, (
        f"speculative decode is not wall-clock faster at the scaled tier: "
        f"plain {plain_seconds * 1e3:.0f}ms vs speculative "
        f"{spec_seconds * 1e3:.0f}ms ({spec_ratio:.3f}x)"
    )

    # ---------------- round attend vs padded, wall-clock ---------------- #
    # The identity drains double as the warmup pair; the timed trials then
    # interleave the two attends (paired_ratio's scheme) but compare the
    # *decode-only* window `_mixed_decode` times internally — the bimodal
    # prefill is identical on both sides and would only dilute the ratio.
    round_tokens, _ = _mixed_decode(repository)
    padded_tokens, _ = _mixed_decode(repository, padded_attend)
    assert round_tokens == padded_tokens  # identical greedy streams

    padded_times, round_times = [], []
    for trial in range(PAIRED_TRIALS):
        order = ((padded_attend, padded_times), (None, round_times))
        if trial % 2:
            order = order[::-1]
        for attend, sink in order:
            sink.append(_mixed_decode(repository, attend)[1])
    padded_seconds = statistics.median(padded_times)
    round_seconds = statistics.median(round_times)
    attend_ratio = padded_seconds / round_seconds
    assert attend_ratio > MIN_WALL_RATIO, (
        f"round attend is not wall-clock faster than padded at the scaled "
        f"tier: padded {padded_seconds * 1e3:.0f}ms vs round "
        f"{round_seconds * 1e3:.0f}ms ({attend_ratio:.3f}x)"
    )

    run_once(_drain, repository, decoder)
    generated = spec_summary.generated_tokens
    numbers = {
        "generated_tokens": generated,
        "draft_acceptance_rate": round(acceptance, 4),
        "plain_decode_rounds": plain_summary.decode_rounds,
        "speculative_decode_rounds": spec_summary.decode_rounds,
        "weight_stream_speedup": round(stream_speedup, 3),
        "plain_wall_ms": round(plain_seconds * 1e3, 1),
        "speculative_wall_ms": round(spec_seconds * 1e3, 1),
        "speculative_wall_ratio": round(spec_ratio, 3),
        "decode_tokens_per_s": round(generated / spec_seconds, 1),
        "padded_wall_ms": round(padded_seconds * 1e3, 1),
        "round_attend_wall_ms": round(round_seconds * 1e3, 1),
        "padded_over_round_attend_wall_ratio": round(attend_ratio, 3),
    }
    benchmark.extra_info.update(numbers)
    serve_trajectory("scaled_decode", **numbers)
