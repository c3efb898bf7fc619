"""Synthetic model zoo.

Builds deterministic, outlier-bearing analogues of the models evaluated in the
paper (see ``DESIGN.md`` §2 for the substitution rationale).  Every builder is
seeded, so a given ``(model name, seed)`` always yields bit-identical weights.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.models.configs import (
    AnalogueConfig,
    ModelFamily,
    RESNET18_CONV_SHAPES,
    analogue_config,
)
from repro.models.outliers import inject_model_outliers, inject_tensor_outliers
from repro.nn.attention import _NULL_SPAN
from repro.nn.heads import ClassificationHead, LMHead, SpanHead
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.transformer import (
    TransformerDecoder,
    TransformerEncoder,
    TransformerEncoderDecoder,
)

__all__ = [
    "SequenceClassifier",
    "SpanExtractor",
    "CausalLM",
    "build_backbone",
    "build_classifier",
    "build_span_model",
    "build_causal_lm",
    "model_weight_tensors",
    "resnet18_tensors",
    "transformer_analogue_tensors",
]


class SequenceClassifier(Module):
    """Backbone + pooled classification head (GLUE-style tasks)."""

    def __init__(self, backbone: Module, head: ClassificationHead, config: AnalogueConfig) -> None:
        super().__init__()
        self.backbone = backbone
        self.head = head
        self.config = config

    def forward(self, token_ids: np.ndarray) -> np.ndarray:
        return self.head(self.backbone(token_ids))


class SpanExtractor(Module):
    """Backbone + start/end span head (SQuAD-style tasks)."""

    def __init__(self, backbone: Module, head: SpanHead, config: AnalogueConfig) -> None:
        super().__init__()
        self.backbone = backbone
        self.head = head
        self.config = config

    def forward(self, token_ids: np.ndarray):
        return self.head(self.backbone(token_ids))


class CausalLM(Module):
    """Decoder backbone + LM head (perplexity evaluation)."""

    def __init__(self, backbone: Module, head: LMHead, config: AnalogueConfig) -> None:
        super().__init__()
        self.backbone = backbone
        self.head = head
        self.config = config

    def forward(self, token_ids: np.ndarray) -> np.ndarray:
        return self.head(self.backbone(token_ids))

    def log_probs(self, token_ids: np.ndarray) -> np.ndarray:
        """Log-probabilities over the vocabulary at every position."""
        return self.head.log_probs(self.backbone(token_ids))

    def log_probs_incremental(
        self,
        token_ids: np.ndarray,
        caches,
        last_only: bool = False,
        batched_rounds: Optional[bool] = None,
        tracer=None,
    ) -> np.ndarray:
        """Log-probabilities of new tokens only, via per-sequence KV caches.

        ``token_ids`` is ``(num_seqs, t_new)`` (or 1-D for one sequence) and
        ``caches`` one :class:`~repro.serve.kvcache.SequenceKVCache` per row;
        the prefix K/V come from the caches instead of being recomputed.
        ``last_only`` runs the LM head on the final position alone — what a
        prefill needs for next-token selection — skipping an
        O(prompt × vocab) head GEMM; the returned array then has one
        position.  ``batched_rounds=True`` projects Q/K/V with one fused GEMM
        per layer — the speculative verify pass uses it to advance ``m``
        tokens per slot in one batched pass.  ``tracer`` (duck-typed,
        optional — the serving tracer's span protocol) records per-phase
        spans down the forward path.
        """
        hidden = self.backbone.forward_incremental(
            token_ids, caches, batched_rounds=batched_rounds, tracer=tracer
        )
        if last_only:
            hidden = hidden[:, -1:]
        traced = tracer is not None and tracer.enabled
        with tracer.span("lm_head") if traced else _NULL_SPAN:
            return self.head.log_probs(hidden)


def build_backbone(config: AnalogueConfig, rng: np.random.Generator) -> Module:
    """Build the transformer backbone matching the analogue's family."""
    kwargs = dict(
        vocab_size=config.vocab_size,
        hidden_size=config.hidden_size,
        num_layers=config.num_layers,
        num_heads=config.num_heads,
        intermediate_size=config.intermediate_size,
        max_positions=config.max_positions,
        rng=rng,
    )
    if config.family == ModelFamily.ENCODER:
        return TransformerEncoder(**kwargs)
    if config.family == ModelFamily.DECODER:
        return TransformerDecoder(**kwargs)
    if config.family == ModelFamily.ENCODER_DECODER:
        return TransformerEncoderDecoder(**kwargs)
    raise ValueError(f"unknown model family {config.family!r}")


def _finalise(model: Module, config: AnalogueConfig, seed: int) -> Module:
    """Inject the model's outlier profile after construction."""
    return inject_model_outliers(
        model,
        ratio=config.outlier_ratio,
        max_sigma=config.outlier_max_sigma,
        activation_channels=config.activation_outlier_channels,
        seed=seed + 1,
        activation_gain=config.activation_outlier_gain,
    )


def build_classifier(name: str, num_classes: int, seed: int = 0) -> SequenceClassifier:
    """Build a GLUE-style classifier analogue of ``name``."""
    config = analogue_config(name)
    rng = np.random.default_rng(seed)
    backbone = build_backbone(config, rng)
    head = ClassificationHead(config.hidden_size, num_classes, rng=rng)
    model = SequenceClassifier(backbone, head, config)
    return _finalise(model, config, seed)


def build_span_model(name: str, seed: int = 0) -> SpanExtractor:
    """Build a SQuAD-style span extraction analogue of ``name``."""
    config = analogue_config(name)
    rng = np.random.default_rng(seed)
    backbone = build_backbone(config, rng)
    head = SpanHead(config.hidden_size, rng=rng)
    model = SpanExtractor(backbone, head, config)
    return _finalise(model, config, seed)


def build_causal_lm(name: str, seed: int = 0) -> CausalLM:
    """Build a causal-LM analogue of ``name`` with a sharpened LM head."""
    config = analogue_config(name)
    rng = np.random.default_rng(seed)
    decoder_config = config
    if config.family != ModelFamily.DECODER:
        raise ValueError(f"model {name!r} is not a decoder-only LLM analogue")
    backbone = build_backbone(decoder_config, rng)
    _apply_residual_decay(backbone, config.residual_decay)
    head = LMHead(
        config.hidden_size, config.vocab_size, temperature=config.lm_temperature, rng=rng
    )
    model = CausalLM(backbone, head, config)
    return _finalise(model, config, seed)


def _apply_residual_decay(backbone: Module, decay: float) -> None:
    """Scale layer ``i``'s block outputs by ``decay**i`` (no-op at 1.0).

    Trained LMs refine the residual stream in progressively smaller steps
    — the layer-wise convergence that early exit and layer-prefix drafts
    rely on.  Random analogue weights lack it, so the scaled tier opts in
    via ``AnalogueConfig.residual_decay``.  Scaling the attention/FFN
    *output* projections scales each block's entire residual contribution
    while leaving its internal statistics (and the outlier profile injected
    afterwards, which is proportional to each matrix) untouched.
    """
    if decay == 1.0:
        return
    for index in range(backbone.num_layers):
        layer = getattr(backbone, f"layer_{index}")
        gain = decay ** index
        for linear in (layer.self_attention.out_proj, layer.ffn.fc_out):
            linear.weight.data = linear.weight.data * gain
            if linear.bias is not None:
                linear.bias.data = linear.bias.data * gain


def model_weight_tensors(model: Module) -> Dict[str, np.ndarray]:
    """Collect every Linear weight tensor of ``model`` keyed by dotted name.

    These are the GEMM operands the paper analyses and quantizes.
    """
    tensors: Dict[str, np.ndarray] = {}
    for name, module in model.named_modules():
        if isinstance(module, Linear):
            tensors[f"{name}.weight" if name else "weight"] = module.weight.data
    return tensors


def resnet18_tensors(seed: int = 0) -> Dict[str, np.ndarray]:
    """Synthetic ResNet-18 convolution weights (CNN side of Fig. 2).

    CNN weights are close to Gaussian with maxima around 8–28σ (paper Fig. 2a),
    an order of magnitude smaller than transformer outliers.
    """
    rng = np.random.default_rng(seed)
    config = analogue_config("resnet-18")
    tensors: Dict[str, np.ndarray] = {}
    for i, (out_c, in_c, kh, kw) in enumerate(RESNET18_CONV_SHAPES):
        weight = rng.normal(0.0, 0.05, size=(out_c, in_c, kh, kw))
        max_sigma = float(rng.uniform(3.5, config.outlier_max_sigma * 1.5))
        weight = inject_tensor_outliers(
            weight, ratio=config.outlier_ratio, max_sigma=max_sigma, rng=rng, min_sigma=3.5
        )
        tensors[f"conv_{i}.weight"] = weight
    return tensors


def transformer_analogue_tensors(name: str, seed: int = 0) -> Dict[str, np.ndarray]:
    """Linear weight tensors of the analogue model ``name`` (Fig. 2 / Table 2 input)."""
    config = analogue_config(name)
    rng = np.random.default_rng(seed)
    backbone = build_backbone(config, rng)
    _finalise(backbone, config, seed)
    return model_weight_tensors(backbone)
