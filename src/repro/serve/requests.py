"""Request/response types of the serving engine.

A request names a model from :mod:`repro.models.zoo`, one of the three
workload families the paper evaluates (GLUE-style classification, SQuAD-style
span extraction, LM next-token prediction) and a token-id sequence.  Requests
are only batchable together when their :attr:`InferenceRequest.batch_key`
matches: the micro-batcher never mixes models, families or sequence lengths
inside one forward pass.

LM decoding behaviour lives on :attr:`InferenceRequest.sampling` — a
:class:`~repro.serve.sampling.SamplingParams` describing temperature /
top-k / top-p filtering, stop tokens, token budget, reported logprobs and
seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.serve.errors import ServingError
from repro.serve.sampling import RequestOutput, SamplingParams

__all__ = [
    "ServingError",
    "WorkloadFamily",
    "InferenceRequest",
    "InferenceResult",
    "normalized_num_classes",
]


class WorkloadFamily:
    """The three workload families the serving engine supports."""

    CLASSIFY = "classify"   # GLUE-style sequence classification
    SPAN = "span"           # SQuAD-style span extraction
    LM = "lm"               # next-token prediction / scoring

    ALL = (CLASSIFY, SPAN, LM)


def normalized_num_classes(family: str, num_classes: int) -> int:
    """``num_classes`` shapes only classification models; normalize to 0 elsewhere.

    Shared by the request batch key and the repository cache key so the
    batcher's homogeneity rule and the model cache can never disagree.
    """
    return int(num_classes) if family == WorkloadFamily.CLASSIFY else 0


_REQUEST_COUNTER = itertools.count()


def _next_request_id() -> str:
    return f"req-{next(_REQUEST_COUNTER)}"


@dataclass
class InferenceRequest:
    """One inference request.

    Parameters
    ----------
    model:
        Zoo model name (e.g. ``"bert-base"`` or ``"gpt2-xl"``).
    family:
        One of :class:`WorkloadFamily`.
    token_ids:
        1-D array of input token ids.
    num_classes:
        Output classes for the classification family (ignored otherwise).
    sampling:
        The request's :class:`~repro.serve.sampling.SamplingParams`; the
        default scores the prompt only.  ``sampling.max_new_tokens > 0``
        (LM family only) generates, and ``max(1, sampling.logprobs)``
        candidates are reported for the final scored position.
    slo_class:
        The SLO traffic class this request's latency/TTFT/availability is
        accounted under (see :mod:`repro.serve.health`).  Purely an
        accounting label — it never fragments batches and unknown names are
        still recorded (just not evaluated unless a matching
        :class:`~repro.serve.health.SLOClass` is configured).
    deadline_s:
        Optional end-to-end deadline in seconds, measured from enqueue on the
        scheduler clock.  A request that exceeds it — queued or mid-decode —
        terminates with ``finish_reason="deadline"``, freeing its slot and KV
        pages exactly like :meth:`cancel`.  ``None`` means no deadline.
    priority:
        Optional explicit admission priority (higher wins).  Overrides the
        :class:`~repro.serve.admission.AdmissionPolicy` class-priority
        mapping for this one request; ``None`` defers to the policy.
    tenant:
        The tenant this request is billed to (see
        :mod:`repro.serve.gateway`).  Like ``slo_class`` it is purely an
        accounting label — it never fragments batches — but it is threaded
        through the scheduler into the
        ``serve_requests_{submitted,rejected,finished}_total`` counters so
        per-tenant traffic and rejection rates are observable.  The default
        ``"-"`` marks untenanted (direct-to-engine) traffic.
    """

    model: str
    family: str
    token_ids: np.ndarray
    num_classes: int = 2
    sampling: SamplingParams = field(default_factory=SamplingParams)
    request_id: str = field(default_factory=_next_request_id)
    slo_class: str = "default"
    deadline_s: Optional[float] = None
    priority: Optional[int] = None
    tenant: str = "-"

    def __post_init__(self) -> None:
        if not self.slo_class or not isinstance(self.slo_class, str):
            raise ServingError("slo_class must be a non-empty string")
        if not self.tenant or not isinstance(self.tenant, str):
            raise ServingError("tenant must be a non-empty string")
        if self.deadline_s is not None:
            self.deadline_s = float(self.deadline_s)
            if not self.deadline_s > 0:
                raise ServingError("deadline_s must be positive when set")
        if self.priority is not None:
            self.priority = int(self.priority)
        if self.family not in WorkloadFamily.ALL:
            raise ServingError(
                f"unknown workload family {self.family!r}; "
                f"expected one of {sorted(WorkloadFamily.ALL)}"
            )
        self.token_ids = np.asarray(self.token_ids, dtype=np.int64)
        if self.token_ids.ndim != 1 or self.token_ids.size == 0:
            raise ServingError("token_ids must be a non-empty 1-D array")
        if self.num_classes < 1:
            raise ServingError("num_classes must be >= 1")
        if not isinstance(self.sampling, SamplingParams):
            raise ServingError("sampling must be a SamplingParams")
        if self.sampling.max_new_tokens > 0 and self.family != WorkloadFamily.LM:
            raise ServingError("max_new_tokens applies to the LM family only")

    @property
    def seq_len(self) -> int:
        """Number of input tokens."""
        return int(self.token_ids.size)

    @property
    def batch_key(self) -> Tuple[str, str, int, int]:
        """Requests with equal keys can share one batched forward pass.

        ``num_classes`` is normalized through the same helper the model
        repository keys on, so span/LM batches are not fragmented by a field
        their families ignore.  Sampling parameters never fragment batches:
        each slot/row samples with its own generator.
        """
        num_classes = normalized_num_classes(self.family, self.num_classes)
        return (self.model, self.family, num_classes, self.seq_len)


@dataclass
class InferenceResult:
    """The answer to one :class:`InferenceRequest`.

    ``output`` is family-specific:

    * classify — ``label`` (int), ``probs`` (per-class list);
    * span — ``start``/``end`` (ints), ``score`` (float);
    * lm — a typed :class:`~repro.serve.sampling.RequestOutput` carrying the
      generated ``token_ids``/``logprobs``, the ``finish_reason``
      (``stop`` / ``length`` / ``aborted`` / ``error`` / ``deadline``;
      ``None`` for score-only requests) and the final position's top
      candidates.
    """

    request_id: str
    model: str
    family: str
    output: Union[Dict[str, Any], RequestOutput]
    batch_size: int
    enqueued_at: float
    completed_at: float
    scheme: Optional[str] = None

    @property
    def latency(self) -> float:
        """Seconds from enqueue to completion (queueing + compute)."""
        return self.completed_at - self.enqueued_at

    @property
    def finish_reason(self) -> Optional[str]:
        """The LM finish reason (``None`` for non-LM / score-only outputs)."""
        return getattr(self.output, "finish_reason", None)
