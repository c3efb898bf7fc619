"""Multi-head attention for the NumPy transformer substrate."""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import Linear
from repro.nn.module import Module

__all__ = ["MultiHeadAttention"]


class _NullSpan:
    """No-op span shared by the untraced forward and every disabled tracer."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class MultiHeadAttention(Module):
    """Multi-head scaled dot-product attention.

    Supports self-attention (``context is None``), cross-attention (BART-style
    decoder) and causal masking (GPT-style decoding).  The four projection
    matrices (Q, K, V, output) are ordinary :class:`Linear` layers, which is
    exactly where the OliVe quantization framework attaches its fake-quant
    wrappers.
    """

    def __init__(
        self,
        hidden_size: int,
        num_heads: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if hidden_size % num_heads != 0:
            raise ValueError("hidden_size must be divisible by num_heads")
        self.hidden_size = int(hidden_size)
        self.num_heads = int(num_heads)
        self.head_dim = hidden_size // num_heads
        rng = rng or np.random.default_rng(0)
        self.q_proj = Linear(hidden_size, hidden_size, rng=rng)
        self.k_proj = Linear(hidden_size, hidden_size, rng=rng)
        self.v_proj = Linear(hidden_size, hidden_size, rng=rng)
        self.out_proj = Linear(hidden_size, hidden_size, rng=rng)
        # ``(W_qkv, b_qkv)`` once fused: the storage the Q/K/V projections'
        # weights and biases are row views of (see _fused_qkv_operands).
        self._qkv = None

    def _fused_qkv_operands(self):
        """``(W_qkv, b_qkv)`` for the fused round projection.

        ``W_qkv`` is the ``(3 * hidden, hidden)`` row concatenation of the Q,
        K and V weights, in the ``(out, in)`` layout
        :func:`repro.nn.functional.linear` takes, and ``b_qkv`` their biases.

        The fused arrays are the storage, not a copy: the first call
        concatenates them and rebinds each projection's ``weight.data`` and
        ``bias.data`` to contiguous row views of them, so the separate
        arrays are freed.  Later calls return them while every projection
        still views them (``.base``); a pass that binds a projection a new
        array (``Parameter.copy_``, ``Module.astype``, ``copy.deepcopy``)
        makes the next call fuse again from the current rows.

        Only plain :class:`Linear` projections fuse — a quantization wrapper
        must keep running its own ``forward``, so any subclass falls back to
        the unfused path.
        """
        projections = (self.q_proj, self.k_proj, self.v_proj)
        for proj in projections:
            if type(proj) is not Linear or proj.bias is None:
                return None
        fused = self._qkv
        if fused is not None and all(
            proj.weight.data.base is fused[0] and proj.bias.data.base is fused[1]
            for proj in projections
        ):
            return fused
        weight = np.concatenate([proj.weight.data for proj in projections])
        bias = np.concatenate([proj.bias.data for proj in projections])
        for proj, rows, bias_rows in zip(
            projections, np.split(weight, 3), np.split(bias, 3)
        ):
            proj.weight.data, proj.bias.data = rows, bias_rows
        self._qkv = fused = (weight, bias)
        return fused

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        batch, seq, _ = x.shape
        x = x.reshape(batch, seq, self.num_heads, self.head_dim)
        return x.transpose(0, 2, 1, 3)  # (batch, heads, seq, head_dim)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        batch, heads, seq, dim = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, seq, heads * dim)

    def forward(
        self,
        hidden: np.ndarray,
        context: Optional[np.ndarray] = None,
        causal: bool = False,
        attention_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Run attention.

        Parameters
        ----------
        hidden:
            Query-side input of shape ``(batch, seq, hidden)``.
        context:
            Key/value-side input for cross-attention; defaults to ``hidden``.
        causal:
            Apply a lower-triangular mask (decoder self-attention).
        attention_mask:
            Optional additive mask broadcastable to ``(batch, heads, q, k)``.
        """
        hidden = F.as_float(hidden)
        kv_input = hidden if context is None else F.as_float(context)

        q = self._split_heads(self.q_proj(hidden))
        k = self._split_heads(self.k_proj(kv_input))
        v = self._split_heads(self.v_proj(kv_input))

        scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(self.head_dim)
        if causal:
            scores += F.causal_mask(scores.shape[-1]).astype(scores.dtype, copy=False)
        if attention_mask is not None:
            scores = scores + attention_mask
        weights = F.softmax(scores, axis=-1)
        attended = weights @ v
        return self.out_proj(self._merge_heads(attended))

    def forward_incremental(
        self,
        hidden: np.ndarray,
        layer_caches: Sequence,
        batched_rounds: Optional[bool] = None,
        tracer=None,
    ) -> np.ndarray:
        """Causal self-attention over cached K/V plus the new tokens.

        Parameters
        ----------
        hidden:
            New-token hidden states of shape ``(num_seqs, t_new, hidden)``.
            Each row is an independent sequence: row ``i``'s K/V are appended
            to ``layer_caches[i]`` and attention runs over that sequence's
            full cached history.  Prefill passes one row with the whole
            prompt; a continuous-batching decode round passes one single-token
            row per active slot; a speculative verify round passes ``m``
            tokens per slot.
        layer_caches:
            One per-sequence cache (``append``/``kv``/``seq_len``, e.g.
            :class:`~repro.serve.kvcache.LayerKVCache`) per row of ``hidden``.
        batched_rounds:
            Project Q/K/V with one fused GEMM.  Defaults to auto: every
            single-token forward fuses (one slot or many), everything else
            (prefill) runs the three separate projections.  Speculative
            verify passes ``True`` so its ``m``-token rows fuse too.
        tracer:
            Optional span tracer (``span(name, attrs=None)`` context-manager
            protocol, duck-typed so this module stays serve-agnostic).  The
            forward records ``qkv_proj``, ``kv_append``, one ``attend`` and
            ``out_proj`` spans; ``None`` (the default) keeps the hot path
            untouched.

        The projections run for the new tokens only — one GEMM across all
        rows — so a decode step costs O(1) GEMM work per token instead of
        recomputing the whole prefix.  Attention then runs per sequence over
        the views ``kv_many``/``kv`` return of the rows that sequence owns:
        nothing is padded or gathered, so a multi-slot round attends each
        unshared slot bitwise as a one-slot call would.  Caches that expose
        ``shared_kv()`` (a prefix block shared with other sequences) attend
        that prefix once per round for all its holders (see :meth:`_attend`).
        """
        hidden = F.as_float(hidden)
        if hidden.ndim != 3:
            raise ValueError("incremental attention expects (num_seqs, t_new, hidden)")
        if len(layer_caches) != hidden.shape[0]:
            raise ValueError(
                f"got {hidden.shape[0]} sequences but {len(layer_caches)} layer caches"
            )
        num_seqs, t_new = hidden.shape[0], hidden.shape[1]
        if batched_rounds is None:
            batched_rounds = t_new == 1
        # Fuse only rounds: prefill stays on the three separate projections
        # so the one-shot prefill path remains bitwise-equal to ``forward``.
        fused = self._fused_qkv_operands() if batched_rounds else None
        traced = tracer is not None and tracer.enabled
        with tracer.span("qkv_proj") if traced else _NULL_SPAN:
            if fused is not None:
                qkv = F.linear(hidden, *fused)
                size = self.hidden_size
                q = self._split_heads(qkv[..., :size])
                k_new = self._split_heads(qkv[..., size : 2 * size])
                v_new = self._split_heads(qkv[..., 2 * size :])
            else:
                q = self._split_heads(self.q_proj(hidden))
                k_new = self._split_heads(self.k_proj(hidden))
                v_new = self._split_heads(self.v_proj(hidden))
        with tracer.span("kv_append", attrs={"slots": num_seqs}) if traced else _NULL_SPAN:
            for i, cache in enumerate(layer_caches):
                cache.append(k_new[i], v_new[i])
        # Caches that support it fetch every slot's rows in one call and
        # name the shared prefix block in front of them (duck-typed so this
        # module stays serve-agnostic).
        kv_many = getattr(type(layer_caches[0]), "kv_many", None)
        if kv_many is not None:
            kvs = kv_many(layer_caches)
        else:
            kvs = [cache.kv() for cache in layer_caches]
        prefixes = None
        if getattr(type(layer_caches[0]), "shared_kv", None) is not None:
            prefixes = [cache.shared_kv() for cache in layer_caches]
            if all(prefix is None for prefix in prefixes):
                prefixes = None
        with tracer.span(
            "attend", attrs=self._attend_attrs(kvs, prefixes)
        ) if traced else _NULL_SPAN:
            attended = self._attend(q, kvs, prefixes)
        with tracer.span("out_proj") if traced else _NULL_SPAN:
            return self.out_proj(self._merge_heads(attended))

    @staticmethod
    def _attend_attrs(kvs: Sequence, prefixes: Optional[Sequence]) -> dict:
        """Span attributes of one attend: ``slots`` and the K/V tokens each
        slot attends in total (``kv_tokens``); a round with shared prefixes
        adds ``shared_slots`` and ``shared_kv_tokens`` (each distinct block
        prefix counted once, as it is attended once)."""
        attrs = {"slots": len(kvs), "kv_tokens": sum(k.shape[1] for k, _ in kvs)}
        if prefixes is not None:
            shared = [prefix for prefix in prefixes if prefix is not None]
            blocks = {(id(k_block), p): p for k_block, _, p in shared}
            attrs["kv_tokens"] += sum(p for _, _, p in shared)
            attrs["shared_slots"] = len(shared)
            attrs["shared_kv_tokens"] = sum(blocks.values())
        return attrs

    def _attend(
        self, q: np.ndarray, kvs: Sequence, prefixes: Optional[Sequence] = None
    ) -> np.ndarray:
        """Attend each sequence's queries over its ``(K, V)``.

        ``q`` is ``(num_seqs, heads, t_new, head_dim)`` and ``kvs[i]`` the
        ``(heads, len_i, head_dim)`` K/V of sequence ``i``, whose last
        ``t_new`` rows are the appended tokens; for ``t_new > 1`` (prefill,
        verify) those queries mask causally inside the appended block.  The
        expression is the one :meth:`forward` evaluates for a single
        sequence, so prefill into an empty cache is bitwise ``forward``.

        ``prefixes[i]``, when given and not ``None``, is ``(K_block,
        V_block, p)``: sequence ``i`` attends the block's rows ``[0, p)``
        before ``kvs[i]``.  Sequences sharing a block and ``p`` attend it
        together (:meth:`_attend_shared`); the rest take the plain path.
        """
        t_new = q.shape[2]
        attended = np.empty_like(q)
        groups = {}
        for i, (k, v) in enumerate(kvs):
            prefix = None if prefixes is None else prefixes[i]
            if prefix is not None:
                groups.setdefault((id(prefix[0]), prefix[2]), (prefix, []))[1].append(i)
                continue
            scores = q[i] @ k.transpose(0, 2, 1) / math.sqrt(self.head_dim)
            if t_new > 1:
                past = k.shape[1] - t_new
                mask = F.incremental_causal_mask(past, t_new)
                scores += mask.astype(scores.dtype, copy=False)
            attended[i] = F.softmax(scores, axis=-1) @ v
        for (k_block, v_block, p), slots in groups.values():
            self._attend_shared(
                q, kvs, k_block[:, :p], v_block[:, :p], slots, attended
            )
        return attended

    def _attend_shared(
        self,
        q: np.ndarray,
        kvs: Sequence,
        k_shared: np.ndarray,
        v_shared: np.ndarray,
        slots: Sequence[int],
        out: np.ndarray,
    ) -> None:
        """Cascade attend: ``slots`` over one shared prefix, then own rows.

        The slots' queries stack into one score GEMM and one ``P @ V`` GEMM
        over the shared K/V (no mask: every prefix row precedes every
        query).  Each slot's own rows ``kvs[i]`` then attend as in the plain
        path, and the two partial softmaxes merge by log-sum-exp: the shared
        part's exponentials, shifted by its own row max, are rescaled by
        ``exp(shared_max - joint_max)`` onto the own part's shift by the
        joint max.  The result equals one softmax over the concatenated K/V
        up to round-off in the scores' dtype, not bitwise.
        """
        heads, t_new, dim = q.shape[1:]
        scale = math.sqrt(dim)
        queries = q[slots].transpose(1, 0, 2, 3).reshape(heads, len(slots) * t_new, dim)
        shared = queries @ k_shared.transpose(0, 2, 1)
        shared /= scale
        shared_max = shared.max(axis=-1, keepdims=True)
        shared -= shared_max
        np.exp(shared, out=shared)
        shared_sum = shared.sum(axis=-1, keepdims=True)
        shared_out = shared @ v_shared
        for j, i in enumerate(slots):
            rows = slice(j * t_new, (j + 1) * t_new)
            k, v = kvs[i]
            scores = q[i] @ k.transpose(0, 2, 1) / scale
            if t_new > 1:
                mask = F.incremental_causal_mask(k.shape[1] - t_new, t_new)
                scores += mask.astype(scores.dtype, copy=False)
            joint_max = np.maximum(scores.max(axis=-1, keepdims=True), shared_max[:, rows])
            scores -= joint_max
            np.exp(scores, out=scores)
            rescale = np.exp(shared_max[:, rows] - joint_max)
            numerator = scores @ v
            numerator += shared_out[:, rows] * rescale
            denominator = scores.sum(axis=-1, keepdims=True)
            denominator += shared_sum[:, rows] * rescale
            out[i] = numerator / denominator
