"""asyncio front-end over the synchronous serving engine.

Concurrent client coroutines ``await server.infer(request)``; a single
scheduler task coalesces their requests through the shared
:class:`~repro.serve.batcher.MicroBatcher` and resolves one future per
request when its micro-batch completes.  Compute runs inline on the event
loop (the NumPy models are small and release-free), so ordering is
deterministic: requests queued within one ``max_wait`` window of the same
batch key share a forward pass.

LM generation requests additionally stream:
``async for chunk in server.stream(request)`` yields one
:class:`~repro.serve.sampling.TokenChunk` per sampled token as the decode
rounds produce them, ending with the chunk whose ``finish_reason`` is set;
``await server.cancel(request_id)`` aborts an in-flight request (its stream
terminates with ``finish_reason="aborted"`` and the KV pages free
immediately).

Usage::

    async with AsyncServer(ServingEngine(...)) as server:
        results = await asyncio.gather(*(server.infer(r) for r in requests))
        async for chunk in server.stream(gen_request):
            print(chunk.token_id, chunk.finish_reason)
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import AsyncIterator, Dict, Optional

import numpy as np

from repro.serve.engine import ServingEngine
from repro.serve.errors import is_retryable
from repro.serve.requests import InferenceRequest, InferenceResult, ServingError
from repro.serve.sampling import TokenChunk

__all__ = ["AsyncServer", "RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with jittered exponential backoff for transient failures.

    Applies to requests that fail with a *retryable* error (see
    :func:`repro.serve.errors.is_retryable` — injected faults, queue-full /
    shed admission rejections); terminal errors (malformed requests, unknown models)
    always propagate immediately, as do failures of streaming requests
    (tokens may already have been delivered, and replaying a stream from
    zero would emit duplicate chunks).

    Attempt ``n`` (0-based) waits ``backoff_base_s * backoff_multiplier**n``
    seconds, stretched by up to ``jitter`` (fraction) drawn from a generator
    seeded with ``seed`` — deterministic for tests, decorrelated between
    servers in real fleets that pass distinct seeds.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.01
    backoff_multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ServingError("max_retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_multiplier < 1 or self.jitter < 0:
            raise ServingError(
                "backoff_base_s/jitter must be >= 0 and backoff_multiplier >= 1"
            )

    def delay_for(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff before retry number ``attempt`` (0-based), jitter applied."""
        base = self.backoff_base_s * self.backoff_multiplier ** attempt
        return base * (1.0 + self.jitter * float(rng.random()))


class AsyncServer:
    """Async façade: one scheduler task, one future per in-flight request.

    ``retry=RetryPolicy(...)`` resubmits requests that fail with retryable
    errors (bounded attempts, jittered exponential backoff); ``None`` (the
    default) propagates every failure immediately.
    """

    def __init__(
        self,
        engine: Optional[ServingEngine] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.engine = engine or ServingEngine()
        self.retry = retry
        self._retry_rng = (
            np.random.default_rng(retry.seed) if retry is not None else None
        )
        self._futures: Dict[str, "asyncio.Future[InferenceResult]"] = {}
        # The original request objects and per-request attempt counts, kept
        # while in flight so a retryable failure can resubmit verbatim.
        self._requests: Dict[str, InferenceRequest] = {}
        self._attempts: Dict[str, int] = {}
        # Requests with an open stream() consumer: their buffered TokenChunks
        # must survive result delivery until the consumer drains them.
        self._streaming: set = set()
        self._wake: Optional[asyncio.Event] = None
        self._scheduler: Optional["asyncio.Task[None]"] = None

    def _forget(self, request_id: str) -> None:
        """Drop the retry bookkeeping of a resolved request."""
        self._requests.pop(request_id, None)
        self._attempts.pop(request_id, None)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "AsyncServer":
        """Start the scheduler task (idempotent)."""
        if self._scheduler is None:
            self._wake = asyncio.Event()
            self._scheduler = asyncio.get_running_loop().create_task(self._run())
        return self

    async def stop(self) -> None:
        """Drain outstanding requests, then cancel the scheduler."""
        if self._scheduler is None:
            return
        while self._futures:
            await asyncio.sleep(0)
            self._drain_ready(force=True)
        self._scheduler.cancel()
        try:
            await self._scheduler
        except asyncio.CancelledError:
            pass
        self._scheduler = None
        self._wake = None

    async def __aenter__(self) -> "AsyncServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # Client API
    # ------------------------------------------------------------------ #
    def _register(
        self, request: InferenceRequest, allow_retry: bool = True
    ) -> "asyncio.Future[InferenceResult]":
        if self._scheduler is None:
            raise ServingError("AsyncServer is not started; use 'async with' or start()")
        if request.request_id in self._futures:
            raise ServingError(
                f"request id {request.request_id!r} is already in flight"
            )
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[InferenceResult]" = loop.create_future()
        self._futures[request.request_id] = future
        self._requests[request.request_id] = request
        try:
            self.engine.submit(request)
        except Exception as exc:
            # A retryable admission rejection (queue full, shed) re-enters
            # through backoff when a retry policy is armed — clients racing a
            # bounded queue get absorbed instead of bounced.  Everything else
            # (and retry-less servers) surfaces synchronously: the request
            # never entered the engine.
            if not allow_retry or not self._schedule_retry(
                request.request_id, exc
            ):
                self._forget(request.request_id)
                del self._futures[request.request_id]
                raise
            return future
        self._wake.set()
        return future

    async def infer(self, request: InferenceRequest) -> InferenceResult:
        """Queue ``request`` and await its result."""
        return await self._register(request)

    async def stream(self, request: InferenceRequest) -> AsyncIterator[TokenChunk]:
        """Queue an LM generation request and yield its tokens as they decode.

        The generator ends after the chunk carrying a ``finish_reason``
        (``stop``/``length``/``aborted``/``error``/``deadline``); the
        yielded token ids concatenate to exactly the non-streamed
        ``output.token_ids``.  A request that fails before producing a
        terminal chunk raises the same :class:`ServingError` that
        :meth:`infer` would.
        """
        # Streams never retry (delivered chunks cannot be unsent), so an
        # admission rejection must surface here rather than enter backoff.
        future = self._register(request, allow_retry=False)
        request_id = request.request_id
        self._streaming.add(request_id)
        try:
            while True:
                chunk = self.engine.next_chunk(request_id)
                if chunk is not None:
                    yield chunk
                    if chunk.finish_reason is not None:
                        return
                    continue
                if future.done():
                    # Failure futures raise here; a completed future with no
                    # terminal chunk left means the buffer was evicted — end.
                    future.result()
                    return
                # Let the scheduler task advance a decode round.
                self._wake.set()
                await asyncio.sleep(0)
        finally:
            self._streaming.discard(request_id)
            self._forget(request_id)
            leftover = self._futures.pop(request_id, None)
            if leftover is not None and not leftover.done():
                # The client abandoned the stream mid-generation: abort the
                # sequence so its slot and KV pages free immediately.
                self.engine.cancel(request_id)
                leftover.cancel()
            if future.done() and not future.cancelled():
                # A decode-round failure surfaces as the terminal "error"
                # chunk, so the future's ServingError may go unread — mark it
                # retrieved, or asyncio logs a phantom traceback at GC.
                future.exception()
            self.engine.discard_result(request_id)

    async def cancel(self, request_id: str) -> Optional[InferenceResult]:
        """Abort an in-flight request; returns its ``aborted`` result (or None).

        The request's slot, KV cache and page-pool references are released
        before this returns; an open ``stream()`` of the same request ends
        with ``finish_reason="aborted"``, and a pending ``infer()`` resolves
        to the aborted result.
        """
        result = self.engine.cancel(request_id)
        if result is None:
            return None
        self.engine.discard_result(
            request_id, drop_chunks=request_id not in self._streaming
        )
        self._forget(request_id)
        future = self._futures.pop(request_id, None)
        if future is not None and not future.done():
            future.set_result(result)
        if self._wake is not None:
            self._wake.set()
        return result

    @property
    def in_flight(self) -> int:
        """Requests submitted but not yet resolved."""
        return len(self._futures)

    def metrics_text(self) -> str:
        """Prometheus text exposition of the engine's serving metrics.

        Synchronous and lock-protected — an HTTP ``/metrics`` handler can
        call it from any task without touching the scheduler.
        """
        return self.engine.metrics_text()

    def phase_report(self, root: str = "round"):
        """Wall-clock phase breakdown of the engine's traced decode rounds."""
        return self.engine.phase_report(root=root)

    def health_report(self) -> dict:
        """``/healthz``-shaped snapshot of the wrapped engine.

        Synchronous like :meth:`metrics_text` — an HTTP ``/healthz`` handler
        can call it from any task without touching the scheduler loop.
        """
        return self.engine.health_report()

    # ------------------------------------------------------------------ #
    # Scheduler
    # ------------------------------------------------------------------ #
    async def _run(self) -> None:
        while True:
            try:
                if self.engine.pending == 0:
                    self._wake.clear()
                    await self._wake.wait()
                # Let every coroutine that is ready to submit do so before the
                # batch window is measured — this is what coalesces concurrent
                # clients into one forward pass.
                await asyncio.sleep(0)
                wait = self.engine.batcher.next_wait()
                if wait:
                    await asyncio.sleep(wait)
                self._drain_ready(force=False)
                # Anything still queued is younger than max_wait; the loop
                # comes back around and sleeps out the rest of its window.
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                # A scheduler bug must never strand clients on futures that
                # will never resolve: fail everything in flight — with the
                # original exception chained as __cause__, so clients see
                # *what* broke, not just that something did — and carry on.
                for request_id, future in list(self._futures.items()):
                    if not future.done():
                        error = ServingError(f"serving scheduler error: {exc}")
                        error.__cause__ = exc
                        future.set_exception(error)
                    self._forget(request_id)
                self._futures.clear()

    def _drain_ready(self, force: bool) -> None:
        while True:
            results = self.engine.step(force=force)
            failures = self.engine.take_failures()
            if not results and not failures:
                return
            for result in results:
                # Pop from the sync registry too, so async serving does not
                # accumulate results nobody will fetch via engine.result();
                # an open stream() consumer still owns its buffered chunks.
                self.engine.discard_result(
                    result.request_id,
                    drop_chunks=result.request_id not in self._streaming,
                )
                self._forget(result.request_id)
                future = self._futures.pop(result.request_id, None)
                if future is not None and not future.done():
                    future.set_result(result)
            for request_id, exc in failures:
                self.engine.discard_result(
                    request_id, drop_chunks=request_id not in self._streaming
                )
                if self._schedule_retry(request_id, exc):
                    continue
                self._forget(request_id)
                future = self._futures.pop(request_id, None)
                if future is not None and not future.done():
                    error = ServingError(f"request {request_id!r} failed: {exc}")
                    error.__cause__ = exc
                    future.set_exception(error)

    # ------------------------------------------------------------------ #
    # Retry
    # ------------------------------------------------------------------ #
    def _schedule_retry(self, request_id: str, exc: Exception) -> bool:
        """Resubmit a retryably-failed request after backoff (True when scheduled).

        Streaming requests never retry: chunks already delivered cannot be
        unsent, and a replay would re-stream them from index zero.
        """
        policy = self.retry
        if policy is None or not is_retryable(exc):
            return False
        if request_id in self._streaming:
            return False
        future = self._futures.get(request_id)
        request = self._requests.get(request_id)
        if future is None or future.done() or request is None:
            return False
        attempt = self._attempts.get(request_id, 0)
        if attempt >= policy.max_retries:
            return False
        self._attempts[request_id] = attempt + 1
        delay = policy.delay_for(attempt, self._retry_rng)
        asyncio.get_running_loop().create_task(self._resubmit(request, delay))
        return True

    async def _resubmit(self, request: InferenceRequest, delay: float) -> None:
        await asyncio.sleep(delay)
        request_id = request.request_id
        future = self._futures.get(request_id)
        if future is None or future.done():
            return  # resolved (e.g. cancelled) while backing off
        try:
            self.engine.submit(request)
        except Exception as exc:
            # Rejected again at admission (queue still full) with the retry
            # budget line already consumed by _schedule_retry — loop back
            # through it for the remaining attempts, else fail the future.
            if self._schedule_retry(request_id, exc):
                return
            self._forget(request_id)
            self._futures.pop(request_id, None)
            error = ServingError(f"request {request_id!r} failed: {exc}")
            error.__cause__ = exc
            future.set_exception(error)
            return
        if self._wake is not None:
            self._wake.set()
