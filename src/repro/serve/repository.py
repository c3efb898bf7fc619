"""Packed-weight model repository: quantize once, serve many.

The repository is the serving engine's model store.  The first request for a
``(model, family)`` pair builds the full-precision analogue from
:mod:`repro.models.zoo`, fits one OVP quantizer per Linear weight and encodes
every weight into a memory-aligned :class:`~repro.core.ovp.PackedOVPTensor`
byte stream — the form the paper's accelerator keeps weights in DRAM.  The
packed streams are then decoded through the vectorized codec into the served
model's weights (the "on-chip" dequantized view) and the whole entry is
cached, so every later request pays neither the MSE threshold search nor the
encode cost again.

Embeddings, LayerNorms and biases stay in full precision: the paper quantizes
the GEMM operands, which for weight streaming are exactly the Linear weights.

The served model computes in float32: once its weights are packed and
decoded, the whole entry is cast to float32, so every activation and KV row
it produces is float32 as well.  The zoo builds float64 models, and the
paper experiments, which never pass through the repository, compute in
float64.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.core.ovp import PackedOVPTensor
from repro.core.quantizer import OVPQuantizerConfig, OVPTensorQuantizer
from repro.models.zoo import (
    build_causal_lm,
    build_classifier,
    build_span_model,
)
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.serve.requests import ServingError, WorkloadFamily, normalized_num_classes

__all__ = ["PackedModel", "RepositoryStats", "ModelRepository"]

#: Compute dtype of every served model (and so of its activations and KV rows).
SERVING_DTYPE = np.float32


@dataclass
class PackedModel:
    """One cached serving entry: packed weight streams + the decoded model.

    Attributes
    ----------
    model:
        The servable module, in float32; its Linear weights hold the values
        decoded from the packed streams (i.e. exactly what the hardware would
        compute on), rounded to float32.
    packed_weights:
        Dotted weight name → memory-aligned OVP byte stream.
    quantize_seconds / decode_seconds:
        Build-time cost split: threshold search + encode vs. packed decode.
    """

    name: str
    family: str
    scheme: str
    model: Module
    packed_weights: Dict[str, PackedOVPTensor]
    quantize_seconds: float
    decode_seconds: float
    built_at: float = field(default_factory=time.time)

    @property
    def packed_bytes(self) -> int:
        """Total bytes of the packed weight streams (the DRAM footprint)."""
        return sum(p.nbytes for p in self.packed_weights.values())

    @property
    def fp32_bytes(self) -> int:
        """Footprint the same weights would need at float32."""
        return sum(p.num_elements * 4 for p in self.packed_weights.values())

    @property
    def compression_ratio(self) -> float:
        """fp32 footprint / packed footprint (≈8 for 4-bit OVP)."""
        packed = self.packed_bytes
        return self.fp32_bytes / packed if packed else 0.0

    @property
    def num_weight_tensors(self) -> int:
        """Number of packed Linear weight tensors."""
        return len(self.packed_weights)


@dataclass
class RepositoryStats:
    """Cache behaviour counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


_FAMILY_BUILDERS = {
    WorkloadFamily.CLASSIFY: "_build_classifier",
    WorkloadFamily.SPAN: "_build_span",
    WorkloadFamily.LM: "_build_lm",
}


class ModelRepository:
    """Thread-safe cache of OVP-packed serving models keyed by (model, scheme).

    Parameters
    ----------
    bits:
        OVP precision: 4 (int4 + E2M1) or 8 (int8 + E4M3).
    seed:
        Zoo seed; a given (model, seed) is bit-identical across processes.
    search_points:
        MSE threshold-search resolution used when fitting weight quantizers.
        The default is coarser than the experiment default because the search
        runs once per weight tensor at model-load time.
    max_entries:
        Upper bound on cached entries; the least recently used entry is
        evicted when the bound is exceeded.
    """

    def __init__(
        self,
        bits: int = 4,
        seed: int = 0,
        search_points: int = 12,
        max_entries: int = 16,
    ) -> None:
        if bits not in (4, 8):
            raise ServingError("the serving repository supports 4- and 8-bit OVP only")
        if max_entries < 1:
            raise ServingError("max_entries must be >= 1")
        self.bits = int(bits)
        self.seed = int(seed)
        self.search_points = int(search_points)
        self.max_entries = int(max_entries)
        self.scheme = f"olive-{bits}bit"
        self._cache: Dict[Tuple[str, str, int], PackedModel] = {}
        self._lock = threading.Lock()
        self.stats = RepositoryStats()

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def get(self, name: str, family: str, num_classes: int = 2) -> PackedModel:
        """Return the cached entry for ``(name, family)``, building it once."""
        if family not in WorkloadFamily.ALL:
            raise ServingError(f"unknown workload family {family!r}")
        key = (name, family, normalized_num_classes(family, num_classes))
        with self._lock:
            entry = self._cache.pop(key, None)
            if entry is not None:
                self._cache[key] = entry  # refresh LRU position
                self.stats.hits += 1
                return entry
        # Build outside the lock: quantization is the slow part and two
        # concurrent first requests at worst duplicate work, not corrupt state.
        entry = self._build_entry(name, family, num_classes)
        with self._lock:
            existing = self._cache.get(key)
            if existing is not None:
                self.stats.hits += 1
                return existing
            self.stats.misses += 1
            self._cache[key] = entry
            while len(self._cache) > self.max_entries:
                self._cache.pop(next(iter(self._cache)))
                self.stats.evictions += 1
        return entry

    def cached_entries(self) -> List[PackedModel]:
        """Snapshot of the currently cached entries (LRU order, oldest first)."""
        with self._lock:
            return list(self._cache.values())

    def evict(self, name: str, family: str, num_classes: int = 2) -> bool:
        """Drop one entry; returns True when something was evicted."""
        key = (name, family, normalized_num_classes(family, num_classes))
        with self._lock:
            found = self._cache.pop(key, None) is not None
            if found:
                self.stats.evictions += 1
            return found

    def clear(self) -> None:
        """Drop every cached entry."""
        with self._lock:
            self.stats.evictions += len(self._cache)
            self._cache.clear()

    @property
    def packed_bytes(self) -> int:
        """Total packed footprint of all cached entries."""
        with self._lock:
            return sum(e.packed_bytes for e in self._cache.values())

    # ------------------------------------------------------------------ #
    # Building
    # ------------------------------------------------------------------ #
    def _build_entry(self, name: str, family: str, num_classes: int) -> PackedModel:
        builder = getattr(self, _FAMILY_BUILDERS[family])
        model = builder(name, num_classes)
        quantize_seconds, decode_seconds, packed = self._pack_linear_weights(model)
        model.astype(SERVING_DTYPE)
        return PackedModel(
            name=name,
            family=family,
            scheme=self.scheme,
            model=model,
            packed_weights=packed,
            quantize_seconds=quantize_seconds,
            decode_seconds=decode_seconds,
        )

    def _build_classifier(self, name: str, num_classes: int) -> Module:
        return build_classifier(name, num_classes=max(int(num_classes), 1), seed=self.seed)

    def _build_span(self, name: str, num_classes: int) -> Module:
        return build_span_model(name, seed=self.seed)

    def _build_lm(self, name: str, num_classes: int) -> Module:
        return build_causal_lm(name, seed=self.seed)

    def _make_quantizer(self) -> OVPTensorQuantizer:
        normal_dtype = "int4" if self.bits == 4 else "int8"
        return OVPTensorQuantizer(
            OVPQuantizerConfig(normal_dtype=normal_dtype, search_points=self.search_points)
        )

    def _pack_linear_weights(
        self, model: Module
    ) -> Tuple[float, float, Dict[str, PackedOVPTensor]]:
        """Quantize, pack and decode-in-place every Linear weight of ``model``."""
        packed: Dict[str, PackedOVPTensor] = {}
        quantize_seconds = 0.0
        decode_seconds = 0.0
        for module_name, module in model.named_modules():
            if not isinstance(module, Linear):
                continue
            weight_name = f"{module_name}.weight" if module_name else "weight"
            quantizer = self._make_quantizer()
            t0 = time.perf_counter()
            stream = quantizer.encode(module.weight.data)
            t1 = time.perf_counter()
            decoded = quantizer.decode(stream)
            t2 = time.perf_counter()
            module.weight.copy_(decoded)
            packed[weight_name] = stream
            quantize_seconds += t1 - t0
            decode_seconds += t2 - t1
        if not packed:
            raise ServingError("model has no Linear weights to pack")
        return quantize_seconds, decode_seconds, packed
