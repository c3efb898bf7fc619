"""Stateless neural-network math used by the NumPy transformer substrate.

Every op computes in its input's floating dtype: a float32 serving model
stays in float32 end to end, while integer (and list) inputs promote to
float64, the dtype the paper-experiment models are built in.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = [
    "as_float",
    "linear",
    "softmax",
    "log_softmax",
    "gelu",
    "relu",
    "layer_norm",
    "cross_entropy",
    "one_hot",
    "causal_mask",
    "incremental_causal_mask",
]


def as_float(x) -> np.ndarray:
    """``x`` as an array of its own floating dtype; anything else becomes float64."""
    x = np.asarray(x)
    return x if x.dtype.kind == "f" else x.astype(np.float64)


#: Largest row count a float32 :func:`linear` computes as ``W @ x.T``.
_WXT_MAX_ROWS = 64


def linear(
    x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray] = None
) -> np.ndarray:
    """``x @ weight.T + bias`` as one flat GEMM over the last axis.

    ``weight`` is ``(out, in)``.  The leading axes of ``x`` flatten into the
    GEMM's rows: a 3-D ``(batch, seq, in) @ W.T`` would dispatch a
    *per-batch-row* GEMM loop that re-streams the whole weight matrix for
    every row, which at decode widths (1-4 tokens per slot) multiplies the
    weight traffic by the batch size.  One flat GEMM makes one weight pass
    whatever the batch shape.

    A float32 GEMM of at most ``_WXT_MAX_ROWS`` rows runs as ``W @ x.T``
    and returns its C-ordered transpose.  OpenBLAS computes the same bits
    either way, but for few rows this operand order is faster.  Summed over
    the five ``gpt2-xl-scaled`` projection shapes on a 2-CPU x86 box,
    ``x @ W.T`` takes 1.2 ms at 2 rows, 1.4 ms at 8 and 2.9 ms at 64,
    against 0.7, 0.8 and 2.6 ms for ``W @ x.T``.  Over the 17 projections
    of one 4-layer decode round, 8 rows take 6.4 ms against 4.5 ms.  The
    two tie between 64 and 128 rows, and a single row is a GEMV either way.
    Float64 (the paper path) always runs ``x @ W.T``: there ``W @ x.T`` was
    slower (1.3 → 1.4 ms at 2 rows, 7.6 → 10.1 ms at 128) and not always
    bitwise the same.
    """
    x = as_float(x)
    flat = x.reshape(-1, x.shape[-1])
    if x.dtype == weight.dtype == np.float32 and flat.shape[0] <= _WXT_MAX_ROWS:
        out = np.ascontiguousarray((weight @ flat.T).T)
    else:
        out = flat @ weight.T
    if bias is not None:
        out += bias
    return out.reshape(*x.shape[:-1], weight.shape[0])


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax.

    Shifts into one fresh array and finishes in place: bitwise the
    three-temporary ``exp(x - max) / sum`` form, with two fewer allocations.
    """
    x = as_float(x)
    out = x - np.max(x, axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= np.sum(out, axis=axis, keepdims=True)
    return out


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    x = as_float(x)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian error linear unit (tanh approximation, as used by BERT/GPT-2).

    ``0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))``, evaluated in place
    on one output buffer; the cube is two multiplies rather than a float
    power, which is both faster and within an ulp of ``x ** 3``.
    """
    x = as_float(x)
    out = np.multiply(x, x, out=np.empty_like(x))
    out *= x
    out *= 0.044715
    out += x
    out *= math.sqrt(2.0 / math.pi)
    np.tanh(out, out=out)
    out += 1.0
    out *= x
    out *= 0.5
    return out


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(as_float(x), 0.0)


def layer_norm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Layer normalisation over the last axis with affine parameters.

    Centres once and finishes in place: bitwise the ``(x - mean) /
    sqrt(var(x) + eps) * gamma + beta`` form, since ``np.var`` itself
    averages the squares of the same centred values.
    """
    x = as_float(x)
    out = x - np.mean(x, axis=-1, keepdims=True)
    std = np.mean(out * out, axis=-1, keepdims=True)
    std += eps
    np.sqrt(std, out=std)
    out /= std
    out *= gamma
    out += beta
    return out


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode integer indices along a new trailing axis."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros(indices.shape + (num_classes,), dtype=np.float64)
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy (natural log) of integer targets under ``logits``.

    ``logits`` has shape ``(..., num_classes)`` and ``targets`` the matching
    leading shape of integer class indices.
    """
    logp = log_softmax(logits, axis=-1)
    targets = np.asarray(targets, dtype=np.int64)
    gathered = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    return float(-np.mean(gathered))


def causal_mask(seq_len: int) -> np.ndarray:
    """Additive causal attention mask of shape ``(seq_len, seq_len)``.

    Future positions receive ``-inf`` so the softmax zeroes them out.
    """
    mask = np.triu(np.ones((seq_len, seq_len), dtype=np.float64), k=1)
    return np.where(mask > 0, -np.inf, 0.0)


def incremental_causal_mask(past_len: int, new_len: int) -> np.ndarray:
    """Additive causal mask for ``new_len`` tokens appended after ``past_len``.

    Shape ``(new_len, past_len + new_len)``: new token ``i`` (global position
    ``past_len + i``) may attend to every key up to its own position.  With
    ``past_len == 0`` this reduces to :func:`causal_mask`.
    """
    key_positions = np.arange(past_len + new_len)
    query_positions = past_len + np.arange(new_len)
    return np.where(key_positions[None, :] > query_positions[:, None], -np.inf, 0.0)
