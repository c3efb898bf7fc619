"""Transformer encoder/decoder stacks for the NumPy substrate.

Three architectures are provided, matching the model families evaluated in
the paper:

* :class:`TransformerEncoder` — BERT-style bidirectional encoder;
* :class:`TransformerDecoder` — GPT/OPT/BLOOM-style causal decoder;
* :class:`TransformerEncoderDecoder` — BART-style encoder-decoder.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.nn import functional as F
from repro.nn.attention import _NULL_SPAN, MultiHeadAttention
from repro.nn.layers import Embedding, LayerNorm, Linear, PositionalEmbedding
from repro.nn.module import Module

__all__ = [
    "FeedForward",
    "TransformerEncoderLayer",
    "TransformerDecoderLayer",
    "TransformerEncoder",
    "TransformerDecoder",
    "TransformerEncoderDecoder",
]


class FeedForward(Module):
    """Two-layer position-wise feed-forward block with GELU."""

    def __init__(
        self,
        hidden_size: int,
        intermediate_size: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.fc_in = Linear(hidden_size, intermediate_size, rng=rng)
        self.fc_out = Linear(intermediate_size, hidden_size, rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.fc_out(F.gelu(self.fc_in(x)))


class TransformerEncoderLayer(Module):
    """Pre-norm encoder layer: self-attention + feed-forward with residuals."""

    def __init__(
        self,
        hidden_size: int,
        num_heads: int,
        intermediate_size: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.attention = MultiHeadAttention(hidden_size, num_heads, rng=rng)
        self.ffn = FeedForward(hidden_size, intermediate_size, rng=rng)
        self.norm_attn = LayerNorm(hidden_size)
        self.norm_ffn = LayerNorm(hidden_size)

    def forward(self, x: np.ndarray, attention_mask: Optional[np.ndarray] = None) -> np.ndarray:
        x = x + self.attention(self.norm_attn(x), attention_mask=attention_mask)
        x = x + self.ffn(self.norm_ffn(x))
        return x


class TransformerDecoderLayer(Module):
    """Pre-norm decoder layer with optional cross-attention."""

    def __init__(
        self,
        hidden_size: int,
        num_heads: int,
        intermediate_size: int,
        cross_attention: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.self_attention = MultiHeadAttention(hidden_size, num_heads, rng=rng)
        self.cross_attention = (
            MultiHeadAttention(hidden_size, num_heads, rng=rng) if cross_attention else None
        )
        self.ffn = FeedForward(hidden_size, intermediate_size, rng=rng)
        self.norm_self = LayerNorm(hidden_size)
        self.norm_cross = LayerNorm(hidden_size) if cross_attention else None
        self.norm_ffn = LayerNorm(hidden_size)

    def forward(
        self,
        x: np.ndarray,
        encoder_hidden: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        x = x + self.self_attention(self.norm_self(x), causal=True)
        if self.cross_attention is not None:
            if encoder_hidden is None:
                raise ValueError("cross-attention layer requires encoder_hidden")
            x = x + self.cross_attention(self.norm_cross(x), context=encoder_hidden)
        x = x + self.ffn(self.norm_ffn(x))
        return x

    def forward_incremental(
        self,
        x: np.ndarray,
        layer_caches: Sequence,
        batched_rounds: Optional[bool] = None,
        tracer=None,
    ) -> np.ndarray:
        """Decode new tokens against per-sequence KV caches (decoder-only).

        ``x`` is ``(num_seqs, t_new, hidden)`` with one cache per row; see
        :meth:`MultiHeadAttention.forward_incremental`.  ``batched_rounds``
        forces the fused QKV projection (speculative verify rounds feed
        ``m`` tokens per slot through it); ``tracer`` (duck-typed, optional)
        records attend/FFN phase spans.
        """
        if self.cross_attention is not None:
            raise ValueError(
                "incremental decode supports decoder-only layers; "
                "cross-attention layers recompute against encoder states"
            )
        x = x + self.self_attention.forward_incremental(
            self.norm_self(x), layer_caches, batched_rounds=batched_rounds, tracer=tracer
        )
        traced = tracer is not None and tracer.enabled
        with tracer.span("ffn") if traced else _NULL_SPAN:
            return x + self.ffn(self.norm_ffn(x))


class _EmbeddingFrontend(Module):
    """Shared token + positional embedding with a final LayerNorm."""

    def __init__(
        self,
        vocab_size: int,
        hidden_size: int,
        max_positions: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.token_embedding = Embedding(vocab_size, hidden_size, rng=rng)
        self.position_embedding = PositionalEmbedding(max_positions, hidden_size, rng=rng)
        self.norm = LayerNorm(hidden_size)

    def forward(
        self,
        token_ids: np.ndarray,
        position_offsets: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if position_offsets is None:
            positional = self.position_embedding(token_ids.shape[-1])
        else:
            # Incremental decode: row i of the batch continues at position
            # offsets[i], so each row gathers its own positional rows.
            offsets = np.asarray(position_offsets, dtype=np.int64)
            positions = offsets[:, None] + np.arange(token_ids.shape[-1])
            positional = self.position_embedding.at(positions)
        hidden = self.token_embedding(token_ids) + positional
        return self.norm(hidden)


class TransformerEncoder(Module):
    """BERT-style encoder producing per-token hidden states."""

    def __init__(
        self,
        vocab_size: int,
        hidden_size: int,
        num_layers: int,
        num_heads: int,
        intermediate_size: int,
        max_positions: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.embeddings = _EmbeddingFrontend(vocab_size, hidden_size, max_positions, rng=rng)
        self.hidden_size = hidden_size
        for i in range(num_layers):
            setattr(
                self,
                f"layer_{i}",
                TransformerEncoderLayer(hidden_size, num_heads, intermediate_size, rng=rng),
            )
        self.num_layers = num_layers
        self.final_norm = LayerNorm(hidden_size)

    def forward(self, token_ids: np.ndarray) -> np.ndarray:
        hidden = self.embeddings(token_ids)
        for i in range(self.num_layers):
            hidden = getattr(self, f"layer_{i}")(hidden)
        return self.final_norm(hidden)


class TransformerDecoder(Module):
    """GPT-style causal decoder producing per-token hidden states."""

    def __init__(
        self,
        vocab_size: int,
        hidden_size: int,
        num_layers: int,
        num_heads: int,
        intermediate_size: int,
        max_positions: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.embeddings = _EmbeddingFrontend(vocab_size, hidden_size, max_positions, rng=rng)
        self.hidden_size = hidden_size
        for i in range(num_layers):
            setattr(
                self,
                f"layer_{i}",
                TransformerDecoderLayer(hidden_size, num_heads, intermediate_size, rng=rng),
            )
        self.num_layers = num_layers
        self.final_norm = LayerNorm(hidden_size)

    def forward(self, token_ids: np.ndarray) -> np.ndarray:
        hidden = self.embeddings(token_ids)
        for i in range(self.num_layers):
            hidden = getattr(self, f"layer_{i}")(hidden)
        return self.final_norm(hidden)

    def forward_incremental(
        self,
        token_ids: np.ndarray,
        caches: Sequence,
        batched_rounds: Optional[bool] = None,
        tracer=None,
    ) -> np.ndarray:
        """Run only the new tokens, appending K/V to per-sequence caches.

        Parameters
        ----------
        token_ids:
            ``(num_seqs, t_new)`` new token ids (a 1-D array is treated as a
            single sequence).  All rows must share ``t_new``; sequences at
            different stages are handled by their caches' past lengths.
        caches:
            One :class:`~repro.serve.kvcache.SequenceKVCache` (or anything
            exposing ``seq_len``/``layer(i)``) per row.
        batched_rounds:
            Project each layer's Q/K/V with one fused GEMM.  Defaults to
            auto (single-token forwards only); a speculative verify
            round passes ``True`` so its ``m`` tokens per slot fuse too.
            Attention itself runs per sequence over each cache's own rows
            either way.

        Returns hidden states of the new positions, ``(num_seqs, t_new, h)``.
        Appending a whole sequence to an empty cache computes exactly what
        :meth:`forward` computes for that sequence.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim == 1:
            token_ids = token_ids[None, :]
        if token_ids.ndim != 2:
            raise ValueError("incremental decode expects (num_seqs, t_new) token ids")
        if len(caches) != token_ids.shape[0]:
            raise ValueError(
                f"got {token_ids.shape[0]} sequences but {len(caches)} caches"
            )
        offsets = np.array([cache.seq_len for cache in caches], dtype=np.int64)
        traced = tracer is not None and tracer.enabled
        with tracer.span("embed") if traced else _NULL_SPAN:
            hidden = self.embeddings(token_ids, position_offsets=offsets)
        for i in range(self.num_layers):
            layer_caches = [cache.layer(i) for cache in caches]
            hidden = getattr(self, f"layer_{i}").forward_incremental(
                hidden, layer_caches, batched_rounds=batched_rounds, tracer=tracer
            )
        return self.final_norm(hidden)


class TransformerEncoderDecoder(Module):
    """BART-style encoder-decoder producing decoder-side hidden states."""

    def __init__(
        self,
        vocab_size: int,
        hidden_size: int,
        num_layers: int,
        num_heads: int,
        intermediate_size: int,
        max_positions: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.encoder = TransformerEncoder(
            vocab_size, hidden_size, num_layers, num_heads, intermediate_size, max_positions, rng=rng
        )
        self.embeddings = _EmbeddingFrontend(vocab_size, hidden_size, max_positions, rng=rng)
        self.hidden_size = hidden_size
        for i in range(num_layers):
            setattr(
                self,
                f"decoder_layer_{i}",
                TransformerDecoderLayer(
                    hidden_size, num_heads, intermediate_size, cross_attention=True, rng=rng
                ),
            )
        self.num_layers = num_layers
        self.final_norm = LayerNorm(hidden_size)

    def forward(self, token_ids: np.ndarray, decoder_token_ids: Optional[np.ndarray] = None) -> np.ndarray:
        if decoder_token_ids is None:
            decoder_token_ids = token_ids
        encoder_hidden = self.encoder(token_ids)
        hidden = self.embeddings(decoder_token_ids)
        for i in range(self.num_layers):
            hidden = getattr(self, f"decoder_layer_{i}")(hidden, encoder_hidden=encoder_hidden)
        return self.final_norm(hidden)
