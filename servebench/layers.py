"""Per-layer tracing for the serving benchmark's ``--trace 1`` run.

The traced run wraps the public entry points of each layer from this file,
never inside ``repro``, and keeps one span (name, start, end, parent) per call
in memory.  A span's self time is its duration minus the part its child spans
cover, so the self times of every span under the driver's root span add up to
the traced wall.  Span names are ``<layer>.<entry point>``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.ovp import OVPairCodec
from repro.models.zoo import CausalLM
from repro.nn import functional
from repro.nn.attention import MultiHeadAttention
from repro.nn.heads import LMHead
from repro.nn.layers import Linear
from repro.nn.transformer import FeedForward, TransformerDecoder
from repro.serve import (
    LayerKVCache,
    PagePool,
    Sampler,
    SequenceKVCache,
    ServingEngine,
    SpeculativeDecoder,
)

#: ``name -> (value, unit)`` as the benchmark prints them.
Metrics = Dict[str, Tuple[float, str]]

#: The driver's root span and its idle waits between open-loop arrivals.
WINDOW = "driver.window"
IDLE = "idle"


class Spans:
    """Span log kept as parallel lists, so recording a call is a few appends."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.values: List[object] = []
        self._open: List[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self.values.append(None)
        self._open.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._open.pop()

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover."""
        duration = self.durations()
        parents = np.asarray(self.parents, dtype=np.int64)
        nested = parents >= 0
        covered = np.zeros_like(duration)
        np.add.at(covered, parents[nested], duration[nested])
        return duration - covered

    def write(self, path: Path) -> None:
        """Dump the spans as JSON, times in seconds from the first span."""
        origin = self.starts[0] if self.starts else 0.0
        payload = {
            "name": self.names,
            "start": [t - origin for t in self.starts],
            "end": [t - origin for t in self.ends],
            "parent": self.parents,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


# --------------------------------------------------------------------------- #
# Entry points and what each call measures besides its time
# --------------------------------------------------------------------------- #
def _model_call(args, kwargs, result) -> Tuple[str, int]:
    """``(phase, tokens)`` of a ``CausalLM.log_probs_incremental`` call."""
    if kwargs.get("last_only"):
        phase = "prefill"
    elif kwargs.get("batched_rounds"):
        phase = "verify"
    else:
        phase = "decode"
    return phase, int(np.size(args[1]))


def _backbone_call(args, kwargs, result) -> Tuple[str, int]:
    """A backbone call outside a model call is an intermediate prefill chunk."""
    return "prefill", int(np.size(args[1]))


def _linear_flops(args, kwargs, result) -> int:
    linear = args[0]
    m, k, n = linear.gemm_shape(result.size // linear.out_features)
    return 2 * m * k * n


def _kv_many_bytes(args, kwargs, result) -> int:
    return sum(k.nbytes + v.nbytes for k, v in result)


def _kv_bytes(args, kwargs, result) -> int:
    return result[0].nbytes + result[1].nbytes


def _attached_tokens(args, kwargs, result) -> int:
    return int(args[3] if len(args) > 3 else kwargs["num_tokens"])


def _encoded(args, kwargs, result) -> Tuple[int, int]:
    return len(result), sum(np.asarray(page).nbytes for page in args[1])


def _decoded(args, kwargs, result) -> Tuple[int, int]:
    return len(result), int(result.nbytes)


Measure = Optional[Callable[[tuple, dict, object], object]]

ENTRY_POINTS: Tuple[Tuple[object, str, str, Measure], ...] = (
    (ServingEngine, "step", "scheduler.step", None),
    (CausalLM, "log_probs_incremental", "nn.model", _model_call),
    (TransformerDecoder, "forward_incremental", "nn.backbone", _backbone_call),
    (MultiHeadAttention, "forward_incremental", "nn.attention", None),
    (FeedForward, "forward", "nn.ffn", None),
    (Linear, "forward", "nn.linear", _linear_flops),
    (functional, "gelu", "nn.gelu", None),
    (LMHead, "log_probs", "nn.lm_head", None),
    (LayerKVCache, "append", "kvcache.append", None),
    (LayerKVCache, "kv_many", "kvcache.kv_many", _kv_many_bytes),
    (LayerKVCache, "kv", "kvcache.kv", _kv_bytes),
    (PagePool, "decoded_many", "kvcache.pool_decode", None),
    (PagePool, "lookup_prefix", "kvcache.prefix_lookup", None),
    (SequenceKVCache, "attach_prefix", "kvcache.prefix_attach", _attached_tokens),
    (OVPairCodec, "encode_tensor_batch", "ovp.encode", _encoded),
    (OVPairCodec, "decode_tensor_batch", "ovp.decode", _decoded),
    (SpeculativeDecoder, "plan", "spec.plan", None),
    (Sampler, "sample", "sampling.sample", None),
)


def _traced(spans: Spans, name: str, func, measure: Measure):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        index = spans.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            spans.close(index)
        if measure is not None:
            spans.values[index] = measure(args, kwargs, result)
        return result

    return wrapper


@contextlib.contextmanager
def instrument(spans: Spans) -> Iterator[Spans]:
    """Record a span for every call to an entry point inside the block."""
    patched = []
    try:
        for owner, attr, name, measure in ENTRY_POINTS:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapper = classmethod(_traced(spans, name, original.__func__, measure))
            else:
                wrapper = _traced(spans, name, original, measure)
            setattr(owner, attr, wrapper)
            patched.append((owner, attr, original))
        yield spans
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# --------------------------------------------------------------------------- #
# Per-layer metrics
# --------------------------------------------------------------------------- #
def percentile(values, q: float) -> float:
    """The ``q``-th percentile of a diagnostic sample, 0.0 when empty."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def ratio(amount: float, base: float) -> float:
    """``amount / base``, 0.0 when nothing was measured."""
    return amount / base if base > 0 else 0.0


def span_metrics(
    spans: Spans, prompt_tokens: int, gemm_peak: float, copy_peak: float
) -> Metrics:
    """Every per-layer metric the span log alone determines."""
    names = np.asarray(spans.names)
    duration = spans.durations()
    self_time = spans.self_times()

    def indices(name: str) -> np.ndarray:
        return np.flatnonzero(names == name)

    def seconds(name: str) -> float:
        return float(duration[names == name].sum())

    def self_seconds(name: str) -> float:
        return float(self_time[names == name].sum())

    def total(name: str, part: Optional[int] = None) -> int:
        values = (spans.values[i] for i in indices(name))
        return sum(v if part is None else v[part] for v in values)

    phases = {phase: [0, 0, 0.0] for phase in ("prefill", "decode", "verify")}
    for index in np.flatnonzero((names == "nn.model") | (names == "nn.backbone")):
        parent = spans.parents[index]
        own = parent >= 0 and names[parent] in ("nn.model", "spec.plan")
        if names[index] == "nn.backbone" and own:
            continue  # a model call's own backbone, or the speculative draft
        phase, tokens = spans.values[index]
        phases[phase][0] += 1
        phases[phase][1] += tokens
        phases[phase][2] += float(duration[index])

    rounds = duration[names == "scheduler.step"] * 1e3
    linear_s = seconds("nn.linear")
    linear_gflops = ratio(total("nn.linear") / 1e9, linear_s)
    assembled = total("kvcache.kv_many") + total("kvcache.kv")
    copy_gbps = ratio(
        assembled / 1e9, self_seconds("kvcache.kv_many") + self_seconds("kvcache.kv")
    )
    encode_s, decode_s = seconds("ovp.encode"), seconds("ovp.decode")
    window = seconds(WINDOW)

    metrics: Metrics = {
        "scheduler.rounds": (len(rounds), "count"),
        "scheduler.round_ms_p50": (percentile(rounds, 50), "ms"),
        "scheduler.round_ms_p90": (percentile(rounds, 90), "ms"),
        "scheduler.self_ms": (self_seconds("scheduler.step") * 1e3, "ms"),
    }
    for phase, (calls, tokens, phase_s) in phases.items():
        metrics[f"nn.{phase}_calls"] = (calls, "count")
        metrics[f"nn.{phase}_tokens"] = (tokens, "tokens")
        metrics[f"nn.{phase}_ms"] = (phase_s * 1e3, "ms")
    metrics.update(
        {
            "nn.linear_ms": (linear_s * 1e3, "ms"),
            "nn.linear_gflop_per_s": (linear_gflops, "GFLOP/s"),
            "nn.linear_peak_frac": (ratio(linear_gflops, gemm_peak), "ratio"),
            "nn.gelu_ms": (seconds("nn.gelu") * 1e3, "ms"),
            "nn.attention_self_ms": (self_seconds("nn.attention") * 1e3, "ms"),
            "nn.ffn_ms": (seconds("nn.ffn") * 1e3, "ms"),
            "nn.lm_head_ms": (seconds("nn.lm_head") * 1e3, "ms"),
            "kvcache.append_ms": (seconds("kvcache.append") * 1e3, "ms"),
            "kvcache.kv_many_ms": (seconds("kvcache.kv_many") * 1e3, "ms"),
            "kvcache.kv_ms": (seconds("kvcache.kv") * 1e3, "ms"),
            "kvcache.kv_bytes_assembled": (assembled, "bytes"),
            "kvcache.copy_peak_frac": (ratio(copy_gbps, copy_peak), "ratio"),
            "kvcache.pool_decode_ms": (seconds("kvcache.pool_decode") * 1e3, "ms"),
            "kvcache.prefix_lookup_ms": (seconds("kvcache.prefix_lookup") * 1e3, "ms"),
            "kvcache.prefix_attach_ms": (seconds("kvcache.prefix_attach") * 1e3, "ms"),
            "kvcache.prefix_hit_ratio": (
                ratio(total("kvcache.prefix_attach"), prompt_tokens),
                "ratio",
            ),
            "ovp.encode_calls": (len(indices("ovp.encode")), "count"),
            "ovp.encode_pages": (total("ovp.encode", 0), "pages"),
            "ovp.encode_ms": (encode_s * 1e3, "ms"),
            "ovp.encode_mb_per_s": (ratio(total("ovp.encode", 1) / 1e6, encode_s), "MB/s"),
            "ovp.decode_calls": (len(indices("ovp.decode")), "count"),
            "ovp.decode_pages": (total("ovp.decode", 0), "pages"),
            "ovp.decode_ms": (decode_s * 1e3, "ms"),
            "ovp.decode_mb_per_s": (ratio(total("ovp.decode", 1) / 1e6, decode_s), "MB/s"),
            "spec.plan_ms": (seconds("spec.plan") * 1e3, "ms"),
            "sampling.sample_ms": (seconds("sampling.sample") * 1e3, "ms"),
            "trace.self_sum_ratio": (ratio(float(self_time.sum()), window), "ratio"),
        }
    )
    return metrics


def report(spans: Spans) -> str:
    """Self time per layer (the span name's part before the first dot),
    largest first, against the traced wall."""
    totals: Dict[str, float] = {}
    for name, seconds in zip(spans.names, spans.self_times()):
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + float(seconds)
    ranked = sorted(totals.items(), key=lambda item: -item[1])
    wall = float(spans.durations()[np.asarray(spans.names) == WINDOW].sum())
    lines = [f"traced wall {wall * 1e3:.1f} ms; self time by layer:"]
    for layer, seconds in ranked:
        lines.append(f"  {layer:<12}{seconds * 1e3:12.1f} ms {seconds / wall:8.1%}")
    top = [layer for layer, _ in ranked if layer not in ("driver", IDLE)][:3]
    lines.append("largest self-time layers: " + ", ".join(top))
    return "\n".join(lines)


def machine_peaks() -> Tuple[float, float]:
    """Best-of-5 float64 GEMM GFLOP/s and stream-copy GB/s.

    The GEMM is a 512-row prefill-chunk shape against a 512 x 2048 FFN
    weight; the copy moves 64 MiB.  Both are computed from wall time and
    operation counts, not read from hardware counters.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((512, 512))
    b = rng.standard_normal((512, 2048))
    out = np.empty((512, 2048))
    src = np.ones(8 << 20)
    dst = np.empty_like(src)
    gemm = copy = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        np.matmul(a, b, out=out)
        middle = time.perf_counter()
        np.copyto(dst, src)
        end = time.perf_counter()
        gemm = min(gemm, middle - start)
        copy = min(copy, end - middle)
    return 2 * 512 * 512 * 2048 / gemm / 1e9, src.nbytes / copy / 1e9
