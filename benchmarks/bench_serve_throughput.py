"""Benchmark: serving throughput and the vectorized OVP codec hot path.

Three perf properties guard the serving subsystem:

* the vectorized codec must decode a 1M-element int4 tensor at least 20x
  faster than the scalar per-pair oracle (decode-on-demand viability), and
  encode it in at most 1.5x the vectorized decode time (KV pages are encoded
  once per seal, on the prefill path);
* the quantizer's threshold sweep must beat the per-candidate reference loop,
  with bitwise-identical fits, both on toy serving-sized weights and on the
  25 ``gpt2-xl-scaled`` weights every servebench deployment fits.  That fit
  is most of a ``ModelRepository`` build, so it sets each workload's
  ``setup_s``; the sweep runs in one preallocated workspace per fit, and the
  scaled fit time and its speedup are recorded under ``quantizer_fit``;
* the serving engine must sustain batched traffic across all three workload
  families and report latency/throughput stats.
"""

import time

import numpy as np

from repro.core.abfloat import ABFLOAT_E2M1
from repro.core.dtypes import INT4
from repro.core.ovp import OVPairCodec
from repro.core.quantizer import OVPQuantizerConfig, OVPTensorQuantizer
from repro.models.zoo import build_causal_lm
from repro.nn.layers import Linear
from repro.serve import InferenceRequest, ModelRepository, ServingEngine, WorkloadFamily


def test_bench_codec_decode_speedup(run_once, best_of, benchmark, serve_trajectory):
    codec = OVPairCodec(INT4, ABFLOAT_E2M1, bias=2)
    rng = np.random.default_rng(0)
    tensor = rng.normal(0.0, 2.5, size=1_000_000)
    tensor[::300] *= 15.0  # transformer-style outliers
    packed = codec.encode_tensor(tensor, scale=1.0, threshold=7.0)

    vec_seconds = best_of(lambda: codec.decode_tensor(packed), repeats=5)
    scalar_seconds = best_of(lambda: codec.decode_tensor_scalar(packed), repeats=2)
    speedup = scalar_seconds / vec_seconds
    decoded_gb_per_s = tensor.size * 8 / vec_seconds / 1e9  # float64 produced

    encode_vec = best_of(lambda: codec.encode_tensor(tensor, 1.0, 7.0), repeats=3)
    encode_over_decode = encode_vec / vec_seconds
    result = run_once(codec.decode_tensor, packed)
    np.testing.assert_array_equal(result, codec.decode_tensor_scalar(packed))

    benchmark.extra_info.update(
        {
            "decode_speedup_vs_scalar": round(speedup, 1),
            "decode_ms_1m_elements": round(vec_seconds * 1e3, 2),
            "decode_gb_per_s_f64_out": round(decoded_gb_per_s, 2),
            "encode_ms_1m_elements": round(encode_vec * 1e3, 2),
            "encode_over_decode_ratio": round(encode_over_decode, 3),
        }
    )
    serve_trajectory("codec", encode_over_decode_ratio=round(encode_over_decode, 3))
    assert speedup >= 20.0, f"vectorized decode only {speedup:.1f}x faster than scalar"
    assert encode_over_decode <= 1.5, (
        f"vectorized encode takes {encode_over_decode:.2f}x the decode time (budget 1.5x)"
    )


def test_bench_quantizer_fit_vectorized_sweep(
    run_once, best_of, paired_ratio, benchmark, serve_trajectory
):
    """The in-place threshold sweep must beat the per-candidate loop.

    The workload mirrors what ``warm()`` pays at model-load time: one MSE
    threshold search per Linear weight, first on toy serving-sized weights,
    then on the 25 ``gpt2-xl-scaled`` weights a servebench deployment
    (``ModelRepository(bits=4, seed=0)``) fits, timed in paired interleaved
    trials.  Identical results are asserted alongside the timing so the fast
    path can never drift.
    """
    rng = np.random.default_rng(0)
    weights = [
        rng.normal(0.0, 1.0 / np.sqrt(shape[1]), size=shape).ravel()
        for shape in [(64, 64)] * 12 + [(128, 64), (64, 128), (96, 64), (160, 80)]
    ]
    quantizer = OVPTensorQuantizer(OVPQuantizerConfig(search_points=12))

    vectorized_seconds = best_of(
        lambda: [quantizer._fit_flat(w) for w in weights], repeats=7
    )
    reference_seconds = best_of(
        lambda: [quantizer._fit_flat_reference(w) for w in weights], repeats=7
    )
    fits = run_once(lambda: [quantizer._fit_flat(w) for w in weights])
    assert fits == [quantizer._fit_flat_reference(w) for w in weights]

    speedup = reference_seconds / vectorized_seconds

    repository = ModelRepository(bits=4, seed=0)
    scaled_quantizer = repository._make_quantizer()
    scaled = [
        module.weight.data.ravel()
        for _, module in build_causal_lm("gpt2-xl-scaled", seed=repository.seed).named_modules()
        if isinstance(module, Linear)
    ]
    assert len(scaled) == 25
    scaled_fits = [scaled_quantizer._fit_flat(w) for w in scaled]
    assert scaled_fits == [scaled_quantizer._fit_flat_reference(w) for w in scaled]
    _, scaled_seconds, scaled_reference_seconds = paired_ratio(
        lambda: [scaled_quantizer._fit_flat(w) for w in scaled],
        lambda: [scaled_quantizer._fit_flat_reference(w) for w in scaled],
        trials=5,
    )
    scaled_speedup = scaled_reference_seconds / scaled_seconds

    engine = ServingEngine(max_batch_size=8)
    warm_start = time.perf_counter()
    entry = engine.warm("gpt2-xl", WorkloadFamily.LM)
    warm_seconds = time.perf_counter() - warm_start
    benchmark.extra_info.update(
        {
            "fit_sweep_speedup": round(speedup, 2),
            "fit_vectorized_ms": round(vectorized_seconds * 1e3, 2),
            "fit_reference_ms": round(reference_seconds * 1e3, 2),
            "warm_gpt2xl_ms": round(warm_seconds * 1e3, 1),
            "warm_quantize_ms": round(entry.quantize_seconds * 1e3, 1),
            "scaled_fit_ms": round(scaled_seconds * 1e3, 1),
            "scaled_reference_fit_ms": round(scaled_reference_seconds * 1e3, 1),
            "scaled_speedup": round(scaled_speedup, 2),
        }
    )
    serve_trajectory(
        "quantizer_fit",
        scaled_fit_ms=round(scaled_seconds * 1e3, 1),
        scaled_speedup=round(scaled_speedup, 2),
    )
    assert speedup >= 1.05, f"stacked sweep only {speedup:.2f}x vs per-candidate loop"


def test_bench_serve_mixed_workloads(run_once, benchmark):
    engine = ServingEngine(max_batch_size=8, max_wait=0.002)
    models = {
        WorkloadFamily.CLASSIFY: "bert-base",
        WorkloadFamily.SPAN: "bert-base",
        WorkloadFamily.LM: "gpt2-xl",
    }
    for family, model in models.items():
        engine.warm(model, family)

    rng = np.random.default_rng(1)
    requests = [
        InferenceRequest(
            model=models[family],
            family=family,
            token_ids=rng.integers(0, 96, size=32),
        )
        for _ in range(16)
        for family in models
    ]

    results = run_once(engine.serve, requests)

    assert len(results) == len(requests)
    assert {r.family for r in results} == set(models)
    summary = engine.stats.summary()
    assert summary.requests == len(requests)
    assert summary.throughput_rps > 0
    assert summary.latency_p95_ms >= summary.latency_p50_ms > 0
    assert summary.mean_batch_fill > 0.5
    benchmark.extra_info.update(summary.as_dict())


def test_bench_repository_quantize_once(run_once, benchmark):
    engine = ServingEngine(max_batch_size=8, max_wait=0.0)
    entry = engine.warm("bert-base", WorkloadFamily.CLASSIFY)

    rng = np.random.default_rng(2)
    requests = [
        InferenceRequest("bert-base", WorkloadFamily.CLASSIFY, rng.integers(0, 96, 32))
        for _ in range(32)
    ]
    run_once(engine.serve, requests)

    stats = engine.repository.stats
    assert stats.misses == 1  # quantized exactly once
    assert stats.hits >= 4
    benchmark.extra_info.update(
        {
            "quantize_seconds": round(entry.quantize_seconds, 3),
            "decode_seconds": round(entry.decode_seconds, 4),
            "packed_kb": round(entry.packed_bytes / 1e3, 1),
            "compression_vs_fp32": round(entry.compression_ratio, 2),
            "cache_hit_rate": round(stats.hit_rate, 3),
        }
    )
