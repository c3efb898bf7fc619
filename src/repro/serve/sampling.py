"""Sampling surface of the generation API.

This module is the bottom layer of the serving stack's generation redesign:

* :class:`SamplingParams` — one frozen, validated object describing *how* a
  request decodes (temperature, top-k/top-p filtering, stop tokens, token
  budget, reported logprobs, seed).  Every
  :class:`~repro.serve.requests.InferenceRequest` carries one.
* :class:`Sampler` — applies temperature, top-k and top-p in one sorted
  pass and draws one token with a caller-owned
  :class:`numpy.random.Generator` (one seeded generator per request, so
  co-batched sequences never perturb each other's draws).  The
  ``temperature=0`` path skips the filters entirely and is bitwise the
  ``int(np.argmax(log_probs))`` the pre-redesign greedy decoder ran.
* :class:`TokenChunk` / :class:`RequestOutput` — the typed streamed/final
  outputs of an LM request.

Determinism: every top-k selection here goes through
:func:`top_k_candidates`, which re-derives the winner set from the k-th value
and stable-sorts it — ``np.argpartition`` alone leaves both the *selection*
and the *order* among equal log-probs unspecified across NumPy versions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.serve.errors import ServingError

__all__ = [
    "FinishReason",
    "RequestOutput",
    "SampledToken",
    "Sampler",
    "SamplingParams",
    "TokenChunk",
    "top_k_candidates",
]


class FinishReason:
    """Why a generation stream ended."""

    STOP = "stop"          # a stop token was sampled
    LENGTH = "length"      # max_new_tokens reached
    ABORTED = "aborted"    # cancelled by the client
    ERROR = "error"        # the decode round failed
    DEADLINE = "deadline"  # the request's deadline/queue timeout expired

    ALL = (STOP, LENGTH, ABORTED, ERROR, DEADLINE)


@dataclass(frozen=True)
class SamplingParams:
    """How one request decodes.

    Parameters
    ----------
    temperature:
        ``0`` decodes greedily (argmax, bitwise the pre-sampling decoder);
        ``> 0`` softens/sharpens the distribution before drawing.
    top_k:
        Restrict sampling to the ``top_k`` highest-probability tokens
        (``0`` disables the filter).  Ties at the boundary are all kept, so
        the filter is deterministic across NumPy versions.
    top_p:
        Nucleus sampling: keep the smallest set of tokens whose cumulative
        probability reaches ``top_p`` (``1.0`` disables the filter).
    stop_token_ids:
        Sampling any of these ends the stream with ``finish_reason="stop"``;
        the stop token itself is included in the output (callers that hide it
        drop the final id).
    max_new_tokens:
        Token budget; hitting it ends the stream with
        ``finish_reason="length"``.  ``0`` scores the prompt only.
    logprobs:
        Number of top candidate ``(token, logprob)`` pairs reported per
        streamed token (and for the final scored position).  ``0`` reports
        the sampled token's logprob only.
    seed:
        Seed of the request's private :class:`numpy.random.Generator`.
        ``None`` draws fresh OS entropy (non-reproducible).
    """

    temperature: float = 0.0
    top_k: int = 0
    top_p: float = 1.0
    stop_token_ids: Tuple[int, ...] = ()
    max_new_tokens: int = 0
    logprobs: int = 0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ServingError("temperature must be >= 0")
        if self.top_k < 0:
            raise ServingError("top_k must be >= 0 (0 disables the filter)")
        if not 0.0 < self.top_p <= 1.0:
            raise ServingError("top_p must be in (0, 1]")
        if self.max_new_tokens < 0:
            raise ServingError("max_new_tokens must be >= 0")
        if self.logprobs < 0:
            raise ServingError("logprobs must be >= 0")
        stop = tuple(int(t) for t in self.stop_token_ids)
        object.__setattr__(self, "stop_token_ids", stop)

    @property
    def greedy(self) -> bool:
        """True when this request decodes deterministically by argmax."""
        return self.temperature == 0.0


# --------------------------------------------------------------------------- #
# Deterministic top-k selection
# --------------------------------------------------------------------------- #
def top_k_candidates(log_probs: np.ndarray, top_k: int) -> np.ndarray:
    """Indices of the ``top_k`` largest entries, deterministically ordered.

    ``np.argpartition`` preselects *some* k winners in O(V), but which equal
    values land inside the partition — and their order — is unspecified and
    has changed across NumPy releases.  The winner set is therefore re-derived
    from the k-th value (ties at the boundary resolved by ascending token id)
    and stable-sorted, so the result is descending by log-prob with equal
    log-probs in ascending token-id order on every NumPy version.
    """
    top_k = int(top_k)
    if top_k < 1:
        raise ServingError("top_k must be >= 1")
    log_probs = np.asarray(log_probs)
    vocab = log_probs.shape[-1]
    k = min(top_k, vocab)
    if k < vocab:
        partition = np.argpartition(log_probs, vocab - k)[vocab - k:]
        threshold = log_probs[partition].min()
        above = np.flatnonzero(log_probs > threshold)
        ties = np.flatnonzero(log_probs == threshold)
        candidates = np.concatenate([above, ties[: k - above.size]])
    else:
        candidates = np.arange(vocab)
    # Stable sort keeps the candidates' ascending-id order among equal values.
    order = np.argsort(-log_probs[candidates], kind="stable")
    return candidates[order]


def _top_logprob_pairs(log_probs: np.ndarray, k: int) -> Tuple[Tuple[int, float], ...]:
    ids = top_k_candidates(log_probs, k)
    return tuple((int(t), float(log_probs[t])) for t in ids)


# --------------------------------------------------------------------------- #
# Sampler
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SampledToken:
    """One drawn token: its id, the *model's* logprob, optional candidates."""

    token_id: int
    logprob: float
    top_logprobs: Tuple[Tuple[int, float], ...] = ()


class Sampler:
    """Draw tokens for one request from per-position log-prob vectors.

    Parameters
    ----------
    params:
        The request's :class:`SamplingParams`.  ``temperature=0``
        short-circuits to ``argmax``, so the greedy result is bitwise
        identical to the pre-sampling decoder.

    Speculative decoding (:mod:`repro.serve.spec`) relies on exactly this
    per-position contract: the verify round calls :meth:`sample` once per
    target position with the request's own generator, so every emitted token
    — accepted draft, correction or bonus — consumes one draw from the true
    target conditional, the same sequence of draws a plain decode performs.
    Greedy requests therefore accept a draft token iff it *is* the argmax
    (exact-prefix match).
    """

    def __init__(self, params: SamplingParams) -> None:
        self.params = params

    def make_generator(self) -> np.random.Generator:
        """The request's private generator (seeded when ``params.seed`` is)."""
        return np.random.default_rng(self.params.seed)

    def sample(
        self, log_probs: np.ndarray, generator: Optional[np.random.Generator] = None
    ) -> SampledToken:
        """Draw one token from a single ``(vocab,)`` log-prob vector.

        The reported ``logprob`` (and ``top_logprobs``) are read from the
        *unprocessed* model distribution — warping/filtering changes what is
        sampled, not what the model believed.
        """
        log_probs = np.asarray(log_probs)
        if generator is None:
            generator = self.make_generator()
        if self.params.greedy:
            token = int(np.argmax(log_probs))
        else:
            token = self._sample_default(log_probs, generator)
        top = (
            _top_logprob_pairs(log_probs, self.params.logprobs)
            if self.params.logprobs > 0
            else ()
        )
        return SampledToken(token, float(log_probs[token]), top)

    def _sample_default(
        self, log_probs: np.ndarray, generator: np.random.Generator
    ) -> int:
        """Temperature → top-k → top-p → draw, fused into one sorted pass.

        Top-k keeps every token tied with the k-th largest log-prob (the kept
        set never depends on how a partition orders ties); top-p keeps the
        smallest prefix of the descending order whose mass reaches ``top_p``.
        The draw is inverse-CDF: one uniform and a ``searchsorted``, much
        cheaper than ``Generator.choice(p=...)`` — this runs once per slot
        per decode round.
        """
        params = self.params
        lp = np.asarray(log_probs, dtype=np.float64)
        descending = -lp
        order = np.argsort(descending, kind="stable")
        sorted_lp = lp[order]
        warped = sorted_lp / params.temperature if params.temperature != 1.0 else sorted_lp
        keep = sorted_lp.size
        if 0 < params.top_k < keep:
            # Boundary ties all survive.
            keep = int(
                np.searchsorted(-sorted_lp, -sorted_lp[params.top_k - 1], "right")
            )
        probs = np.exp(warped[:keep] - warped[0])
        cdf = np.cumsum(probs)
        kept = keep
        if params.top_p < 1.0 and keep > 1:
            # Token i starts at cdf[i-1]; keep tokens starting inside the
            # nucleus (first always kept).
            kept = 1 + int(
                np.searchsorted(cdf[: keep - 1], params.top_p * cdf[-1], side="left")
            )
        draw = generator.random() * cdf[kept - 1]
        choice = min(int(np.searchsorted(cdf[:kept], draw, side="right")), kept - 1)
        return int(order[choice])

    def is_stop(self, token_id: int) -> bool:
        """True when ``token_id`` ends the stream."""
        return token_id in self.params.stop_token_ids


# --------------------------------------------------------------------------- #
# Streamed / final outputs
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TokenChunk:
    """One streamed generation event.

    ``token_id`` is ``None`` only on a terminal marker chunk (a cancellation
    or decode error that ends the stream between tokens); every other chunk
    carries exactly one sampled token.  The chunk that ends a stream — token
    or marker — has ``finish_reason`` set; earlier chunks carry ``None``.
    """

    request_id: str
    index: int                 # position in the generated stream
    token_id: Optional[int]
    logprob: float = 0.0
    top_logprobs: Tuple[Tuple[int, float], ...] = ()
    finish_reason: Optional[str] = None

    @property
    def is_token(self) -> bool:
        return self.token_id is not None


@dataclass
class RequestOutput:
    """Typed final output of one LM request.

    ``token_ids``/``logprobs`` are the generated stream (empty for score-only
    requests, whose ``finish_reason`` is ``None``); ``next_tokens`` /
    ``log_probs`` are the ``max(1, sampling.logprobs)`` top candidates of the
    final scored position.  Streamed :class:`TokenChunk`'s concatenate to
    exactly ``token_ids``.
    """

    request_id: str
    finish_reason: Optional[str] = None
    token_ids: List[int] = field(default_factory=list)
    logprobs: List[float] = field(default_factory=list)
    top_logprobs: List[Tuple[Tuple[int, float], ...]] = field(default_factory=list)
    next_tokens: List[int] = field(default_factory=list)
    log_probs: List[float] = field(default_factory=list)
    kv_cache: Optional[Dict[str, Any]] = None

    @property
    def num_generated(self) -> int:
        return len(self.token_ids)

    @property
    def aborted(self) -> bool:
        return self.finish_reason == FinishReason.ABORTED

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view of every typed field."""
        return {
            "request_id": self.request_id,
            "finish_reason": self.finish_reason,
            "token_ids": list(self.token_ids),
            "logprobs": list(self.logprobs),
            "top_logprobs": list(self.top_logprobs),
            "next_tokens": list(self.next_tokens),
            "log_probs": list(self.log_probs),
            "kv_cache": self.kv_cache,
        }
