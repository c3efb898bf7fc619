"""Self-speculative decoding for the continuous scheduler.

Decode rounds are latency-bound: every generated token pays one full pass of
the target model.  Speculative decoding breaks the one-token-per-pass wall by
pairing each served model with a *draft* — a cheaper proposer whose guesses
the target then verifies **in one batched multi-token pass** (a decode round
generalised from 1 to ``m`` tokens per slot, each slot attending its own
K/V rows):

* **draft** — the target's own first ``draft_layers`` decoder layers, an
  early exit of the target itself (self-speculative decoding): the target's
  embeddings, layers ``0..L-1`` and final norm run the slot's last emitted
  token over the target's own KV caches, with seals held, and the draft's
  one appended row is rolled back with
  :meth:`~repro.serve.kvcache.SequenceKVCache.truncate_to` before the verify
  pass appends it for real.  There is no second model, no draft KV memory
  and no state carried between rounds.
* **speculative heads** — at pairing time the decoder *calibrates* ``k``
  linear heads on the draft's hidden state (least squares against the target
  model's logits over seeded greedy rollouts; Medusa-style multi-position
  proposal, EAGLE-style token conditioning: head ``j`` also sees the
  embeddings of the ``j-1`` tokens proposed before it — at inference those
  inputs are only trusted when the earlier proposals were accepted, which is
  exactly the distribution the heads were fitted on).  One draft forward per
  round therefore proposes up to ``k`` tokens.
* **confidence gating** — each head's proposal is only used while its logit
  margin (top-1 minus top-2) clears a threshold, so the speculation depth
  adapts per slot per round: deep in a predictable stretch, shallow (or a
  plain round) when the draft is unsure.  This is what holds the acceptance
  rate up: doubtful tokens are never proposed.
* **verify** — the scheduler feeds ``[last_token, d_1 … d_k]`` through the
  target in one batched ``m``-token round, then *samples* each position with
  the request's own :class:`~repro.serve.sampling.Sampler`/generator.  A
  sampled token that matches the draft's proposal keeps the verified
  distributions valid for the next position; the first mismatch ends the
  round with the sampled token as the correction.  Greedy requests therefore
  emit exactly the argmax chain — token-for-token what non-speculative decode
  produces — and seeded sampled requests draw one Generator sample per
  emitted token from the true target conditionals, so the output law is the
  target model's, never the draft's.
* **rollback** — the target cache appended all ``m`` tokens optimistically;
  :meth:`~repro.serve.kvcache.SequenceKVCache.truncate_to` rolls the rejected
  suffix back (seals are deferred during the verify append, so reopened rows
  are exact full-precision values, and pool-shared sealed pages are never
  mutated).

The scheduler mixes speculative and plain slots in the same round: slots
whose model cannot be paired (not a decoder LM, too few layers), whose budget
leaves no headroom, or whose heads are all gated simply decode one token as
before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import functional as F
from repro.serve.errors import ServingError
from repro.serve.kvcache import KVCacheConfig, PagePool, SequenceKVCache, cache_for_model
from repro.serve.repository import ModelRepository, PackedModel
from repro.serve.requests import WorkloadFamily
from repro.serve.telemetry import Tracer

__all__ = ["SpeculativeConfig", "SpeculativeDecoder"]


@dataclass(frozen=True)
class SpeculativeConfig:
    """How the scheduler speculates.

    Parameters
    ----------
    draft_layers:
        How many of the target's own first decoder layers form the draft
        (must be smaller than the target's depth, else the model serves
        plainly).  One layer gives the cheapest proposer; acceptance comes
        from the calibrated heads, not from draft depth.
    num_speculative_tokens:
        ``k``: speculative heads fitted at calibration and the maximum
        tokens proposed per slot per round (the verify pass then covers
        ``k + 1`` positions).
    margin_threshold:
        Confidence gate for heads 2..k: a head's proposal is only used while
        its logit margin (top-1 − top-2) reaches this value.  Raising it
        trades emitted tokens per round for acceptance rate.
    first_margin_threshold:
        Gate for head 1 (``0`` proposes whenever budget allows).
    calibration_sequences:
        Greedy rollouts fitted against, split between short- and long-prompt
        groups.  More sequences sharpen the heads and slow the one-off
        pairing step.
    calibration_tokens:
        Tokens generated per calibration rollout (clamped to the target's
        positional budget).
    calibration_prompt_len:
        Prompt length of the short rollout group (the long group uses 3×).
    calibration_seed / feature_seed:
        Seeds of the rollout prompts and the random feature projection; the
        whole pairing is deterministic given the repository seed.
    feature_width:
        GELU random-feature expansion of the draft hidden state, in multiples
        of the hidden size (``0`` fits on the plain hidden state).
    """

    draft_layers: int = 1
    num_speculative_tokens: int = 3
    margin_threshold: float = 4.0
    first_margin_threshold: float = 2.0
    calibration_sequences: int = 24
    calibration_tokens: int = 40
    calibration_prompt_len: int = 8
    calibration_seed: int = 1234
    feature_seed: int = 99
    feature_width: int = 2

    def __post_init__(self) -> None:
        if self.draft_layers < 1:
            raise ServingError("draft_layers must be >= 1")
        if self.num_speculative_tokens < 1:
            raise ServingError("num_speculative_tokens must be >= 1")
        if self.margin_threshold < 0 or self.first_margin_threshold < 0:
            raise ServingError("margin thresholds must be >= 0")
        if self.calibration_sequences < 2:
            raise ServingError("calibration needs at least 2 sequences")
        if self.calibration_tokens < self.num_speculative_tokens + 2:
            raise ServingError(
                "calibration_tokens must exceed num_speculative_tokens + 1"
            )
        if self.calibration_prompt_len < 2:
            raise ServingError("calibration_prompt_len must be >= 2")
        if self.feature_width < 0:
            raise ServingError("feature_width must be >= 0")


@dataclass
class _DraftPair:
    """One calibrated pairing of a target with its layer-prefix draft."""

    heads: List[np.ndarray]            # head j: (features_j, vocab) weights
    feature_r: Optional[np.ndarray]    # (hidden, feature_width*hidden) or None
    emb: np.ndarray                    # token-embedding rows (vocab, hidden)
    vocab: int

    def head_logits(self, base: np.ndarray, chain: Sequence[np.ndarray]) -> np.ndarray:
        """Head ``len(chain)``'s logits over ``base`` features and the chain's tokens."""
        ones = np.ones((base.shape[0], 1), dtype=base.dtype)
        parts = [base] + [self.emb[tokens] for tokens in chain] + [ones]
        return np.concatenate(parts, axis=1) @ self.heads[len(chain)]


class SpeculativeDecoder:
    """Propose draft tokens for continuous-batching slots.

    Owned by one :class:`~repro.serve.scheduler.ContinuousBatchingScheduler`
    (or shared across schedulers of one repository — pairings are per model).
    The scheduler calls :meth:`plan` once per decode round with the slots of
    one model entry; slots whose model cannot be paired get an empty
    proposal and decode plainly.  The proposer is *stateless* per request:
    the draft is the target's own first layers over the target's own KV
    caches (see :meth:`_draft_hidden`), so there is nothing to create, sync
    or release as requests come and go.
    """

    def __init__(
        self,
        repository: ModelRepository,
        config: Optional[SpeculativeConfig] = None,
        target_cache_config: Optional[KVCacheConfig] = None,
        tracer=None,
    ) -> None:
        self.repository = repository
        self.config = config or SpeculativeConfig()
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        # Calibration rollouts decode through the same cache precision the
        # scheduler serves with, so the fitted heads see the on-policy
        # trajectories (quantized-KV greedy loops included), not an fp proxy.
        self.target_cache_config = target_cache_config or KVCacheConfig(
            bits=repository.bits
        )
        self._pairs: Dict[Tuple[str, str], Optional[_DraftPair]] = {}
        self.pair_errors: Dict[Tuple[str, str], Exception] = {}

    # ------------------------------------------------------------------ #
    # Pairing / calibration
    # ------------------------------------------------------------------ #
    def warm(self, model: str, family: str = WorkloadFamily.LM) -> _DraftPair:
        """Calibrate the pairing for ``model`` now; raises when unsupported.

        The scheduler pairs lazily on a request's first decode round, which
        puts the one-off calibration cost on that request's latency; warming
        moves it to deploy time (next to ``ServingEngine.warm``).
        """
        pair = self.pair_for(model, family, self.repository.get(model, family))
        if pair is None:
            raise self.pair_errors[(model, family)]
        return pair

    def pair_for(
        self, model: str, family: str, target_entry: PackedModel
    ) -> Optional[_DraftPair]:
        """The calibrated pair for ``model`` (``None`` when unsupported).

        A failed pairing (target too shallow, not a decoder LM, …) is
        remembered in :attr:`pair_errors` and the model serves plain decode —
        speculation must never take a model down.
        """
        key = (model, family)
        if key in self._pairs:
            return self._pairs[key]
        try:
            with self.tracer.span("spec_calibrate", attrs={"model": model}):
                pair = self._build_pair(model, family, target_entry)
        except Exception as exc:  # fall back to plain decode for this model
            self.pair_errors[key] = exc
            pair = None
        self._pairs[key] = pair
        return pair

    def _build_pair(
        self, model: str, family: str, target_entry: PackedModel
    ) -> _DraftPair:
        if family != WorkloadFamily.LM:
            raise ServingError("speculative decoding pairs LM models only")
        target = target_entry.model
        depth = target.backbone.num_layers
        if self.config.draft_layers >= depth:
            raise ServingError(
                f"a {self.config.draft_layers}-layer draft of {model!r} must be "
                f"smaller than the target ({depth} layers)"
            )
        vocab = int(target.config.vocab_size)
        hidden = int(target.config.hidden_size)
        feature_r = None
        emb = target.backbone.embeddings.token_embedding.weight.data
        if self.config.feature_width > 0:
            feature_r = np.random.default_rng(self.config.feature_seed).normal(
                0.0, 1.0 / np.sqrt(hidden), size=(hidden, self.config.feature_width * hidden)
            ).astype(emb.dtype, copy=False)
        rollouts = self._calibration_rollouts(target, vocab)
        heads = self._fit_heads(rollouts, feature_r, emb, vocab)
        return _DraftPair(heads=heads, feature_r=feature_r, emb=emb, vocab=vocab)

    def _draft_hidden(
        self, backbone, tokens: np.ndarray, caches: Sequence[SequenceKVCache]
    ) -> np.ndarray:
        """The draft's final hidden state for one new token per cache.

        The draft is ``backbone``'s first ``draft_layers`` layers: the
        embeddings, those layers as one batched single-token round over the
        target's own ``caches``, and the final norm.  Seals are held for the
        pass, so a draft row that fills a page leaves it open in full
        precision, and every cache is rolled back to its length before the
        pass (also when a layer raises): the cache then holds what it held
        before, and the verify pass appends the token for real.
        """
        bases = [cache.seq_len for cache in caches]
        for cache in caches:
            cache.hold_seals()
        try:
            hidden = backbone.embeddings(
                tokens, position_offsets=np.array(bases, dtype=np.int64)
            )
            for i in range(self.config.draft_layers):
                hidden = getattr(backbone, f"layer_{i}").forward_incremental(
                    hidden, [cache.layer(i) for cache in caches], batched_rounds=True
                )
            return backbone.final_norm(hidden)[:, -1, :]
        finally:
            for cache, base in zip(caches, bases):
                cache.truncate_to(base)
                cache.flush_seals()

    def _calibration_rollouts(
        self, target, vocab: int
    ) -> List[Tuple[np.ndarray, np.ndarray, int, np.ndarray]]:
        """Seeded greedy rollouts of the target — the on-policy fitting set.

        Two prompt-length groups (short prompts rolled long, longer prompts
        rolled shorter) cover both the early free-running positions and the
        deeper in-context ones.  Rollouts decode through incremental caches
        at the *serving* precision (``target_cache_config``), so both the
        trajectories and the recorded per-position log-probs are exactly what
        the scheduler's decode rounds will produce.

        The draft hidden states are captured the same way :meth:`plan` will
        produce them: one :meth:`_draft_hidden` pass per step over the
        target's caches at the serving precision.  A clean
        full-attention forward is **not** a substitute — quantize-on-append
        caches perturb the served hidden states enough to flip a third of
        greedy argmaxes, so heads fit on fp hidden states systematically
        mispredict the quantized trajectory they are scored against.

        Returns ``(sequences, log_probs, prompt_len, hiddens)`` per group,
        where ``log_probs[:, i]`` is the target's distribution at position
        ``prompt_len - 1 + i`` and ``hiddens[:, s]`` is the draft's
        hidden state after consuming generated token ``s``.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.calibration_seed)
        max_positions = getattr(getattr(target, "config", None), "max_positions", None)
        short = cfg.calibration_prompt_len
        long_prompt = 3 * short
        if max_positions is not None:
            long_prompt = min(long_prompt, max(short, max_positions // 2))
        pool = PagePool()
        groups: List[Tuple[np.ndarray, np.ndarray, int]] = []
        plans = (
            (short, (cfg.calibration_sequences + 1) // 2),
            (long_prompt, cfg.calibration_sequences // 2),
        )
        for prompt_len, count in plans:
            if count < 1:
                continue
            steps = cfg.calibration_tokens
            if max_positions is not None:
                steps = min(steps, max_positions - prompt_len)
            if steps < cfg.num_speculative_tokens + 2:
                raise ServingError(
                    "calibration rollouts too short for the configured "
                    "speculation depth; lower calibration_prompt_len or "
                    "num_speculative_tokens"
                )
            prompts = rng.integers(0, vocab, size=(count, prompt_len))
            caches = [
                cache_for_model(
                    target, self.target_cache_config, pool=pool,
                    capacity=prompt_len + steps,
                )
                for _ in range(count)
            ]
            try:
                log_probs = target.log_probs_incremental(
                    prompts, caches, last_only=True
                )[:, -1, :]
                columns = [prompts]
                distributions = [log_probs]
                hiddens = []
                for _ in range(steps):
                    step_tokens = np.argmax(log_probs, axis=-1).astype(np.int64)
                    columns.append(step_tokens[:, None])
                    # The draft sees this token exactly as plan() will:
                    # over the target's caches *before* the target has
                    # consumed it.
                    hiddens.append(
                        self._draft_hidden(target.backbone, step_tokens[:, None], caches)
                    )
                    log_probs = target.log_probs_incremental(
                        step_tokens[:, None], caches
                    )[:, -1, :]
                    distributions.append(log_probs)
            finally:
                for cache in caches:
                    cache.release()
            groups.append(
                (
                    np.concatenate(columns, axis=1),
                    np.stack(distributions, axis=1),
                    prompt_len,
                    np.stack(hiddens, axis=1),
                )
            )
        return groups

    def _fit_heads(
        self, rollouts, feature_r, emb, vocab: int
    ) -> List[np.ndarray]:
        """Least-squares heads: draft hidden (+ token conditioning) → target log-probs.

        Head ``j`` (1-based) maps the draft's hidden state
        after consuming generated token ``s`` — plus the embeddings of the
        ``j-1`` *true* intermediate tokens — onto the target's serving
        distribution for token ``s + j``.  At inference the intermediate
        tokens are the earlier heads' proposals; since head ``j`` is only
        consulted when those were accepted, and the hidden states come from
        the same pass over quantized pages ``plan()`` runs, the
        inference-time input distribution matches the calibration one
        exactly.
        """
        k = self.config.num_speculative_tokens
        x_rows: List[List[np.ndarray]] = [[] for _ in range(k)]
        y_rows: List[List[np.ndarray]] = [[] for _ in range(k)]
        for seqs, log_probs, prompt_len, hiddens in rollouts:
            seqs = np.asarray(seqs, dtype=np.int64)
            steps = hiddens.shape[1]
            # Shared row set: hidden after token ``s`` (s = 0..steps-k) so
            # every head has its target distribution and chain tokens.
            positions = np.arange(0, steps - k + 1)
            base = hiddens[:, positions].reshape(-1, hiddens.shape[-1])
            base = self._expand(base, feature_r)
            for j in range(k):
                parts = [base]
                for i in range(1, j + 1):
                    tokens = seqs[:, prompt_len + positions + i].reshape(-1)
                    parts.append(emb[tokens])
                parts.append(np.ones((base.shape[0], 1), dtype=base.dtype))
                x_rows[j].append(np.concatenate(parts, axis=1))
                y_rows[j].append(
                    log_probs[:, positions + 1 + j].reshape(-1, vocab)
                )
        heads = []
        for j in range(k):
            design = np.concatenate(x_rows[j], axis=0)
            targets = np.concatenate(y_rows[j], axis=0)
            weight, *_ = np.linalg.lstsq(design, targets, rcond=None)
            heads.append(weight)
        return heads

    @staticmethod
    def _expand(hidden: np.ndarray, feature_r: Optional[np.ndarray]) -> np.ndarray:
        """Hidden state plus its GELU random-feature expansion."""
        if feature_r is None:
            return hidden
        return np.concatenate([hidden, F.gelu(hidden @ feature_r)], axis=-1)

    # ------------------------------------------------------------------ #
    # Per-round proposal
    # ------------------------------------------------------------------ #
    def plan(self, slots: Sequence, max_tokens: Sequence[int]) -> List[List[int]]:
        """Propose draft tokens for one round of same-model slots.

        ``max_tokens[i]`` caps slot ``i``'s proposals (its remaining token
        budget minus the guaranteed correction/bonus token); ``< 1`` means
        the slot decodes plainly this round.  Each speculating slot's last
        emitted token runs through the target's first ``draft_layers``
        layers in one batched single-token pass over the target's own KV
        caches, rolled back afterwards (:meth:`_draft_hidden`) — then
        all ``k`` speculative heads read the final hidden state and their
        proposals are confidence-gated per slot.  Returns one (possibly
        empty) token list per slot, in slot order.
        """
        proposals: List[List[int]] = [[] for _ in slots]
        staged = [
            (index, slot) for index, slot in enumerate(slots) if max_tokens[index] >= 1
        ]
        if not staged:
            return proposals
        # The scheduler calls plan() per model-entry group, so one pairing
        # covers every staged slot.
        first = staged[0][1]
        pair = self.pair_for(first.request.model, first.request.family, first.entry)
        if pair is None:
            return proposals
        tokens = np.array([[slot.generated[-1]] for _, slot in staged], dtype=np.int64)
        hidden = self._draft_hidden(
            first.entry.model.backbone, tokens, [slot.cache for _, slot in staged]
        )
        self._propose(pair, hidden, [index for index, _ in staged], max_tokens, proposals)
        return proposals

    def _propose(self, pair, hidden, indices, max_tokens, proposals) -> None:
        """Run the speculative heads over one group and gate per slot."""
        cfg = self.config
        count = hidden.shape[0]
        base = self._expand(hidden, pair.feature_r)
        chain: List[np.ndarray] = []   # head j's proposed token per row
        rows = np.arange(count)
        for j in range(len(pair.heads)):
            if not any(
                len(proposals[index]) == j and j < max_tokens[index]
                for index in indices
            ):
                break  # every chain is gated closed; skip the deeper heads
            logits = pair.head_logits(base, chain)
            top = np.argmax(logits, axis=1)
            top_values = logits[rows, top]
            runner_up = np.partition(logits, -2, axis=1)[:, -2]
            margins = top_values - runner_up
            chain.append(top)
            threshold = cfg.first_margin_threshold if j == 0 else cfg.margin_threshold
            for row, index in enumerate(indices):
                if len(proposals[index]) != j:
                    continue  # an earlier head was gated; the chain is closed
                if j < max_tokens[index] and margins[row] >= threshold:
                    proposals[index].append(int(top[row]))
