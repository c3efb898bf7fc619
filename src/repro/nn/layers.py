"""Basic layers of the NumPy transformer substrate: Linear, LayerNorm, Embedding."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn.module import Module, Parameter

__all__ = ["Linear", "LayerNorm", "Embedding", "PositionalEmbedding"]


class Linear(Module):
    """Affine transform ``y = x @ W.T + b``.

    Weights are stored as ``(out_features, in_features)`` to mirror the usual
    deep-learning convention; this is also the tensor the GEMM simulators and
    quantizers operate on.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        rng = rng or np.random.default_rng(0)
        std = 1.0 / np.sqrt(in_features)
        self.weight = Parameter(rng.normal(0.0, std, size=(out_features, in_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: np.ndarray) -> np.ndarray:
        bias = None if self.bias is None else self.bias.data
        return F.linear(x, self.weight.data, bias)

    def gemm_shape(self, batch_tokens: int) -> tuple:
        """``(M, K, N)`` of the GEMM this layer performs on ``batch_tokens`` rows."""
        return (batch_tokens, self.in_features, self.out_features)


class LayerNorm(Module):
    """Layer normalisation with learnable gain and bias."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.normalized_shape = int(normalized_shape)
        self.eps = float(eps)
        self.gamma = Parameter(np.ones(normalized_shape))
        self.beta = Parameter(np.zeros(normalized_shape))

    def forward(self, x: np.ndarray) -> np.ndarray:
        return F.layer_norm(x, self.gamma.data, self.beta.data, self.eps)


class Embedding(Module):
    """Token embedding lookup table."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.num_embeddings = int(num_embeddings)
        self.embedding_dim = int(embedding_dim)
        rng = rng or np.random.default_rng(0)
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(num_embeddings, embedding_dim)))

    def forward(self, token_ids: np.ndarray) -> np.ndarray:
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if np.any(token_ids < 0) or np.any(token_ids >= self.num_embeddings):
            raise ValueError("token id out of vocabulary range")
        return self.weight.data[token_ids]


class PositionalEmbedding(Module):
    """Learned absolute positional embedding."""

    def __init__(
        self,
        max_positions: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.max_positions = int(max_positions)
        self.embedding_dim = int(embedding_dim)
        rng = rng or np.random.default_rng(0)
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(max_positions, embedding_dim)))

    def forward(self, seq_len: int, offset: int = 0) -> np.ndarray:
        if offset < 0:
            raise ValueError("position offset must be >= 0")
        if offset + seq_len > self.max_positions:
            raise ValueError(
                f"sequence length {offset + seq_len} exceeds max positions "
                f"{self.max_positions}"
            )
        return self.weight.data[offset:offset + seq_len]

    def at(self, positions: np.ndarray) -> np.ndarray:
        """Embedding rows of explicit ``positions`` (incremental decode path).

        Each sequence of a decode round sits at a different past length, so
        the batched incremental step gathers one position row per sequence.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and (
            int(positions.min()) < 0 or int(positions.max()) >= self.max_positions
        ):
            raise ValueError(
                f"position index out of range [0, {self.max_positions}); "
                "the sequence outgrew the model's positional table"
            )
        return self.weight.data[positions]
