"""Admission control policy for the serving scheduler.

An :class:`AdmissionPolicy` bounds the work a scheduler accepts and orders
the work it holds:

* ``max_queue_depth`` caps the number of queued (not yet slotted) requests;
  submissions past the cap raise :class:`~repro.serve.errors.QueueFullError`
  instead of growing an unbounded deque.  A bounded queue is the difference
  between overload degrading tail latency for *everything* and overload
  shedding the excess while admitted traffic keeps its SLO.
* ``queue_timeout_s`` expires requests that waited too long *in the queue*
  (terminal ``finish_reason="deadline"``), complementing the per-request
  end-to-end :attr:`~repro.serve.requests.InferenceRequest.deadline_s`.
* ``class_priority`` maps ``slo_class`` names to integer priorities (higher
  wins).  With a policy attached the scheduler admits the highest-priority
  queued request first (FIFO among equals), and with ``preempt=True`` a
  queued request may evict a strictly lower-priority active slot: the
  victim's sealed KV pages are registered under the prefix index (already
  packed OVP bytes — eviction costs no re-quantization) and the victim's
  slot re-queues itself, minus its KV cache; resume re-attaches the pages
  copy-on-write and prefills only the open-page suffix.
* ``shed_on_burn_rate`` consults the :class:`~repro.serve.health
  .HealthMonitor`: while any burn-rate alert is firing, submissions whose
  priority falls below ``shed_priority_floor`` are rejected with
  :class:`~repro.serve.errors.AdmissionRejectedError` so the error budget is
  spent on the traffic that matters.

The policy is frozen (safe to share across schedulers) and pure accounting:
all enforcement lives in
:class:`~repro.serve.scheduler.ContinuousBatchingScheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.serve.errors import ServingError
from repro.serve.requests import InferenceRequest

__all__ = ["AdmissionPolicy"]


@dataclass(frozen=True)
class AdmissionPolicy:
    """How a scheduler bounds, orders, and sheds its admission queue.

    Parameters
    ----------
    max_queue_depth:
        Maximum queued requests; ``None`` leaves the queue unbounded.
    queue_timeout_s:
        Maximum seconds a request may wait in the queue before it expires
        with ``finish_reason="deadline"``; ``None`` disables the timeout.
        A preempted request's wait is measured from its preemption, not its
        original enqueue — being evicted must not eat its remaining budget.
    class_priority:
        ``slo_class -> priority`` (higher wins).  Classes not listed get
        ``default_priority``; an explicit ``request.priority`` overrides.
    default_priority:
        Priority for requests whose class is not in ``class_priority``.
    preempt:
        Allow a queued higher-priority request to evict the lowest-priority
        active slot when no free slot exists.
    shed_on_burn_rate:
        While the attached health monitor has a firing burn-rate alert,
        reject submissions with priority below ``shed_priority_floor``.
    shed_priority_floor:
        Minimum priority admitted during a firing alert.
    """

    max_queue_depth: Optional[int] = None
    queue_timeout_s: Optional[float] = None
    class_priority: Dict[str, int] = field(default_factory=dict)
    default_priority: int = 0
    preempt: bool = False
    shed_on_burn_rate: bool = False
    shed_priority_floor: int = 1

    def __post_init__(self) -> None:
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ServingError("max_queue_depth must be >= 1 when set")
        if self.queue_timeout_s is not None and not self.queue_timeout_s > 0:
            raise ServingError("queue_timeout_s must be positive when set")
        for name, prio in self.class_priority.items():
            if not isinstance(name, str) or not name:
                raise ServingError("class_priority keys must be non-empty strings")
            if not isinstance(prio, int):
                raise ServingError("class_priority values must be ints")

    def priority_of(self, request: InferenceRequest) -> int:
        """Effective admission priority for ``request`` (higher wins)."""
        if request.priority is not None:
            return int(request.priority)
        return int(self.class_priority.get(request.slo_class, self.default_priority))
