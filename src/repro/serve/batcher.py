"""Dynamic micro-batching of inference requests.

The batcher coalesces queued requests into batches of up to
``max_batch_size``, never mixing requests with different
:attr:`~repro.serve.requests.InferenceRequest.batch_key` values (different
models, workload families or sequence lengths cannot share a forward pass).
A partially filled group is released once its oldest request has waited
``max_wait`` seconds — the classic latency/throughput dial of dynamic
batching servers.

The batcher is synchronous and clock-injectable: the scheduler (or a test)
decides when time advances and when batches are taken.  The asyncio front-end
in :mod:`repro.serve.aio` drives the same object from an event loop.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Tuple

from repro.serve.errors import QueueFullError
from repro.serve.requests import InferenceRequest, ServingError

__all__ = ["QueuedRequest", "MicroBatcher"]


@dataclass
class QueuedRequest:
    """A request plus its enqueue timestamp (for latency accounting).

    ``resume`` is ``None`` for fresh submissions; the continuous-batching
    scheduler re-queues a preempted request with its own slot attached
    (stream state included, KV cache dropped), so admission re-admits that
    slot instead of restarting the request.
    """

    request: InferenceRequest
    enqueued_at: float
    resume: object = None


class MicroBatcher:
    """Coalesce requests into homogeneous micro-batches.

    Parameters
    ----------
    max_batch_size:
        Largest batch released to the engine.
    max_wait:
        Seconds a partially filled batch may wait for company before it is
        released anyway.
    clock:
        Monotonic time source; injectable for deterministic tests.
    max_queue_depth:
        Total queued requests (across all groups) past which :meth:`submit`
        raises :class:`~repro.serve.errors.QueueFullError` instead of
        growing the queue.  ``None`` (the default) keeps the pre-admission
        unbounded behaviour.
    """

    def __init__(
        self,
        max_batch_size: int = 8,
        max_wait: float = 0.005,
        clock: Callable[[], float] = time.monotonic,
        max_queue_depth: Optional[int] = None,
    ) -> None:
        if max_batch_size < 1:
            raise ServingError("max_batch_size must be >= 1")
        if max_wait < 0:
            raise ServingError("max_wait must be >= 0")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ServingError("max_queue_depth must be >= 1 when set")
        self.max_batch_size = int(max_batch_size)
        self.max_wait = float(max_wait)
        self.clock = clock
        self.max_queue_depth = None if max_queue_depth is None else int(max_queue_depth)
        self._queues: "OrderedDict[Tuple, Deque[QueuedRequest]]" = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Enqueue
    # ------------------------------------------------------------------ #
    def submit(self, request: InferenceRequest) -> QueuedRequest:
        """Queue one request and return its queue record.

        Raises :class:`~repro.serve.errors.QueueFullError` when a
        ``max_queue_depth`` bound is configured and already met.
        """
        queued = QueuedRequest(request=request, enqueued_at=self.clock())
        with self._lock:
            if self.max_queue_depth is not None:
                depth = sum(len(q) for q in self._queues.values())
                if depth >= self.max_queue_depth:
                    raise QueueFullError(
                        f"micro-batcher queue full "
                        f"({depth}/{self.max_queue_depth}); "
                        f"rejecting {request.request_id!r}"
                    )
            self._queues.setdefault(request.batch_key, deque()).append(queued)
        return queued

    def __len__(self) -> int:
        with self._lock:
            return sum(len(q) for q in self._queues.values())

    def cancel(self, request_id: str) -> Optional[QueuedRequest]:
        """Remove a still-queued request; returns its record (None if absent).

        A request already released in a batch cannot be cancelled here — the
        forward pass is not interruptible mid-GEMM.
        """
        with self._lock:
            for key, queue in self._queues.items():
                for position, queued in enumerate(queue):
                    if queued.request.request_id == request_id:
                        del queue[position]
                        if not queue:
                            del self._queues[key]
                        return queued
        return None

    @property
    def num_groups(self) -> int:
        """Number of distinct batch keys currently queued."""
        with self._lock:
            return len(self._queues)

    # ------------------------------------------------------------------ #
    # Dequeue
    # ------------------------------------------------------------------ #
    def next_batch(self, force: bool = False) -> Optional[List[QueuedRequest]]:
        """Release the next ready batch, oldest-request first.

        A group is *ready* when it holds ``max_batch_size`` requests or its
        oldest request has waited ``max_wait`` seconds.  With ``force=True``
        any non-empty group is ready (used to drain the queue at shutdown or
        in strictly synchronous serving loops).
        """
        now = self.clock()
        with self._lock:
            candidate_key = None
            candidate_age = -1.0
            for key, queue in self._queues.items():
                if not queue:
                    continue
                age = now - queue[0].enqueued_at
                ready = force or len(queue) >= self.max_batch_size or age >= self.max_wait
                if ready and age > candidate_age:
                    candidate_key = key
                    candidate_age = age
            if candidate_key is None:
                return None
            queue = self._queues[candidate_key]
            batch = [queue.popleft() for _ in range(min(self.max_batch_size, len(queue)))]
            if not queue:
                del self._queues[candidate_key]
            return batch

    def next_wait(self) -> Optional[float]:
        """Seconds until the oldest queued request hits ``max_wait`` (None if empty).

        Returns 0.0 when a batch is already ready.  The asyncio front-end
        sleeps exactly this long between scheduling passes.
        """
        now = self.clock()
        with self._lock:
            best: Optional[float] = None
            for queue in self._queues.values():
                if not queue:
                    continue
                if len(queue) >= self.max_batch_size:
                    return 0.0
                remaining = self.max_wait - (now - queue[0].enqueued_at)
                if remaining <= 0:
                    return 0.0
                if best is None or remaining < best:
                    best = remaining
            return best

    def drain(self) -> List[List[QueuedRequest]]:
        """Release every queued request as a list of forced batches."""
        batches: List[List[QueuedRequest]] = []
        while True:
            batch = self.next_batch(force=True)
            if batch is None:
                return batches
            batches.append(batch)
