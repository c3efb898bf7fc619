"""Multi-tenant serving gateway: the HTTP-style front door over the engine.

PR 8 gave the *scheduler* overload discipline — bounded admission, class
priorities, preemption, deadlines — but nothing mapped **tenants** onto it.
This module is that front door:

``TenantConfig`` / ``GatewayConfig``
    Declarative tenancy: each tenant has an API key, an admission priority,
    an SLO class (default: the tenant's own name, so the health monitor's
    ``serve_slo_attainment{slo_class,...}`` gauges are per-tenant for free),
    a token-bucket rate limit (``requests_per_second`` + ``burst``) and a
    concurrent-request quota (``max_concurrent``).  ``GatewayConfig``
    derives the scheduler-level :class:`~repro.serve.admission
    .AdmissionPolicy` (tenant priorities become class priorities) and the
    :class:`~repro.serve.health.HealthConfig` (one
    :class:`~repro.serve.health.SLOClass` per tenant) so the whole stack is
    configured from one place.

``Gateway``
    The façade itself.  :meth:`Gateway.submit` authenticates the API key,
    charges the tenant's token bucket and quota, stamps
    ``request.tenant`` / ``request.slo_class``, and forwards to the
    :class:`~repro.serve.engine.ServingEngine` — every outcome is a typed,
    JSON-shaped :class:`ResponseEnvelope` with an HTTP-ish status code and,
    on failure, an :class:`ErrorEnvelope` naming the
    :mod:`repro.serve.errors` class and whether it is retryable:

    =======  =========================  =========================
    status   condition                  error code
    =======  =========================  =========================
    202      accepted / still pending   —
    200      completed (poll)           —
    400      malformed request          ``ServingError``
    401      unknown API key            ``AuthenticationError``
    404      unknown request id         ``not_found``
    429      bucket dry / quota full    ``RateLimitedError`` /
                                        ``QuotaExceededError``
    500      request failed mid-serve   ``ServingError``
    503      scheduler queue rejected   ``QueueFullError`` /
                                        ``AdmissionRejectedError``
    =======  =========================  =========================

    :meth:`Gateway.handle` is the wire-shaped entry point: it parses a
    plain-dict request envelope (``{"api_key", "model", "family",
    "token_ids", ...}``) so a trivial HTTP adapter only json-decodes and
    calls it.  Gateway-level rejections are recorded as
    ``serve_requests_rejected_total{reason="auth"|"rate_limit"|"quota",
    tenant,...}`` in the same registry the scheduler uses.

The gateway is synchronous and deterministic (driven by :meth:`step`, timed
by the engine's clock — an injected fake clock makes rate limits exactly
replayable, which the load generator and tests rely on).  For the asyncio
front-end, :meth:`infer_async` wraps :meth:`~repro.serve.aio.AsyncServer
.infer` with the same authenticate→charge→release discipline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.serve.admission import AdmissionPolicy
from repro.serve.errors import (
    AuthenticationError,
    QuotaExceededError,
    RateLimitedError,
    RetryableServingError,
    ServingError,
    is_retryable,
)
from repro.serve.health import HealthConfig, SLOClass
from repro.serve.requests import InferenceRequest, InferenceResult, WorkloadFamily
from repro.serve.sampling import RequestOutput, SamplingParams

__all__ = [
    "TenantConfig",
    "GatewayConfig",
    "ErrorEnvelope",
    "ResponseEnvelope",
    "Gateway",
]


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's identity, limits, and service objectives.

    Parameters
    ----------
    name:
        Tenant name; becomes the ``tenant`` metrics label.
    api_key:
        The shared secret presented with every request.
    priority:
        Admission priority of this tenant's traffic (higher wins; feeds the
        derived policy's ``class_priority``).
    slo_class:
        SLO class the tenant's requests are stamped with; defaults to the
        tenant name, giving each tenant its own attainment gauges.
    requests_per_second:
        Token-bucket refill rate; ``None`` disables rate limiting.
    burst:
        Bucket capacity — how many requests may land back-to-back after an
        idle spell before the refill rate gates.
    max_concurrent:
        Maximum in-flight (accepted, not yet finished) requests; ``None``
        disables the quota.
    ttft_target_seconds / latency_target_seconds / attainment_target:
        The tenant's :class:`~repro.serve.health.SLOClass` objectives
        (defaults match the health layer's defaults).
    """

    name: str
    api_key: str
    priority: int = 0
    slo_class: Optional[str] = None
    requests_per_second: Optional[float] = None
    burst: int = 1
    max_concurrent: Optional[int] = None
    ttft_target_seconds: float = 0.2048
    latency_target_seconds: float = 1.6384
    attainment_target: float = 0.99

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ServingError("TenantConfig.name must be a non-empty string")
        if not self.api_key or not isinstance(self.api_key, str):
            raise ServingError("TenantConfig.api_key must be a non-empty string")
        if self.slo_class is None:
            object.__setattr__(self, "slo_class", self.name)
        if self.requests_per_second is not None and self.requests_per_second <= 0:
            raise ServingError("requests_per_second must be positive when set")
        if self.burst < 1:
            raise ServingError("burst must be >= 1")
        if self.max_concurrent is not None and self.max_concurrent < 1:
            raise ServingError("max_concurrent must be >= 1 when set")

    def slo(self) -> SLOClass:
        """This tenant's health-layer objectives."""
        return SLOClass(
            name=self.slo_class,
            ttft_target_seconds=self.ttft_target_seconds,
            latency_target_seconds=self.latency_target_seconds,
            attainment_target=self.attainment_target,
        )


@dataclass(frozen=True)
class GatewayConfig:
    """The full tenancy map plus the scheduler bounds derived from it."""

    tenants: Tuple[TenantConfig, ...]
    max_queue_depth: Optional[int] = 64
    queue_timeout_s: Optional[float] = None
    preempt: bool = True
    default_priority: int = 0

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ServingError("GatewayConfig needs at least one tenant")
        object.__setattr__(self, "tenants", tuple(self.tenants))
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ServingError(f"duplicate tenant names: {sorted(names)}")
        keys = [t.api_key for t in self.tenants]
        if len(set(keys)) != len(keys):
            raise ServingError("tenant api_keys must be unique")

    def admission_policy(self, **overrides: Any) -> AdmissionPolicy:
        """The scheduler policy this tenancy implies (tenant → class priority)."""
        kwargs: Dict[str, Any] = dict(
            max_queue_depth=self.max_queue_depth,
            queue_timeout_s=self.queue_timeout_s,
            class_priority={t.slo_class: t.priority for t in self.tenants},
            default_priority=self.default_priority,
            preempt=self.preempt,
        )
        kwargs.update(overrides)
        return AdmissionPolicy(**kwargs)

    def health_config(self, **overrides: Any) -> HealthConfig:
        """One SLO class per tenant, ready for ``ServingEngine(health=...)``."""
        kwargs: Dict[str, Any] = dict(
            classes=tuple(t.slo() for t in self.tenants)
        )
        kwargs.update(overrides)
        return HealthConfig(**kwargs)


@dataclass(frozen=True)
class ErrorEnvelope:
    """The JSON-shaped error half of a response."""

    code: str          # errors.py class name (or "not_found")
    message: str
    retryable: bool

    def as_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "message": self.message,
            "retryable": self.retryable,
        }


@dataclass(frozen=True)
class ResponseEnvelope:
    """One gateway response: HTTP-ish status plus a JSON-shaped body."""

    status: int
    request_id: Optional[str] = None
    tenant: Optional[str] = None
    body: Optional[Dict[str, Any]] = None
    error: Optional[ErrorEnvelope] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"status": self.status}
        if self.request_id is not None:
            payload["request_id"] = self.request_id
        if self.tenant is not None:
            payload["tenant"] = self.tenant
        if self.body is not None:
            payload["body"] = self.body
        if self.error is not None:
            payload["error"] = self.error.as_dict()
        return payload

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


class _TokenBucket:
    """Deterministic token bucket on the gateway's clock."""

    def __init__(self, rate: float, burst: int) -> None:
        self.rate = float(rate)
        self.capacity = float(burst)
        self.tokens = float(burst)
        self.last: Optional[float] = None

    def try_take(self, now: float) -> bool:
        if self.last is None or now < self.last:
            # First take, or a clock that stepped backwards: the elapsed
            # time is unknowable, so charge the current balance and
            # re-anchor without refilling.
            self.last = now
        elif now > self.last:
            # Refill is clamped to capacity (= burst), so a forward clock
            # jump — real or injected via the fault-injection seam — mints
            # at most one burst of tokens, never an unbounded backlog.
            self.tokens = min(
                self.capacity, self.tokens + (now - self.last) * self.rate
            )
            self.last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


def _json_safe(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays for ``json.dumps``."""
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


class Gateway:
    """Authenticate, rate-limit and meter tenant traffic into an engine.

    Parameters
    ----------
    engine:
        The :class:`~repro.serve.engine.ServingEngine` to front.  Build it
        with ``admission=config.admission_policy()`` and
        ``health=config.health_config()`` (see :meth:`GatewayConfig`) so
        tenant priorities and SLO gauges line up with the gateway's labels.
    config:
        The tenancy map.
    """

    def __init__(self, engine, config: GatewayConfig) -> None:
        self.engine = engine
        self.config = config
        self._by_key: Dict[str, TenantConfig] = {
            t.api_key: t for t in config.tenants
        }
        self._by_name: Dict[str, TenantConfig] = {t.name: t for t in config.tenants}
        self._buckets: Dict[str, _TokenBucket] = {
            t.name: _TokenBucket(t.requests_per_second, t.burst)
            for t in config.tenants
            if t.requests_per_second is not None
        }
        self._inflight: Dict[str, set] = {t.name: set() for t in config.tenants}
        self._owner: Dict[str, str] = {}        # request_id -> tenant name
        self._settled: Dict[str, ResponseEnvelope] = {}

    @property
    def clock(self) -> Callable[[], float]:
        """The engine scheduler's *live* clock.

        Resolved per call rather than captured at construction: the
        fault-injection harness rebinds ``scheduler.clock`` in place (e.g.
        ``clock_jump`` adds a forward offset), and per-tenant rate
        accounting must tick on the same time base as the scheduler it
        fronts — a gateway frozen on the original clock would refill token
        buckets against a time the rest of the stack no longer uses.
        """
        scheduler = getattr(self.engine, "lm_scheduler", None)
        if scheduler is not None:
            return scheduler.clock
        return self.engine.clock

    # ------------------------------------------------------------------ #
    # Tenant bookkeeping
    # ------------------------------------------------------------------ #
    def tenant(self, name: str) -> TenantConfig:
        """The tenant named ``name`` (raises on unknown)."""
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise ServingError(f"unknown tenant {name!r}") from exc

    def inflight(self, name: str) -> int:
        """In-flight (accepted, unfinished) requests of tenant ``name``."""
        return len(self._inflight[self.tenant(name).name])

    def authenticate(self, api_key: str) -> TenantConfig:
        """The tenant owning ``api_key``; raises :class:`AuthenticationError`."""
        tenant = self._by_key.get(api_key)
        if tenant is None:
            # The metrics label must never echo an attacker-controlled key.
            self.engine.stats.record_rejection("auth", "default", "-")
            raise AuthenticationError("unknown API key")
        return tenant

    def admit(self, tenant: TenantConfig) -> None:
        """Charge ``tenant``'s token bucket and quota (raises when dry/full)."""
        bucket = self._buckets.get(tenant.name)
        if bucket is not None and not bucket.try_take(self.clock()):
            self.engine.stats.record_rejection(
                "rate_limit", tenant.slo_class, tenant.name
            )
            raise RateLimitedError(
                f"tenant {tenant.name!r} exceeded "
                f"{tenant.requests_per_second}/s (burst {tenant.burst})"
            )
        if (
            tenant.max_concurrent is not None
            and len(self._inflight[tenant.name]) >= tenant.max_concurrent
        ):
            self.engine.stats.record_rejection(
                "quota", tenant.slo_class, tenant.name
            )
            raise QuotaExceededError(
                f"tenant {tenant.name!r} at max_concurrent="
                f"{tenant.max_concurrent}"
            )

    def release(self, request_id: str) -> None:
        """Return ``request_id``'s quota slot (idempotent)."""
        owner = self._owner.pop(request_id, None)
        if owner is not None:
            self._inflight[owner].discard(request_id)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, api_key: str, request: InferenceRequest) -> ResponseEnvelope:
        """Authenticate → charge → stamp → enqueue; never raises.

        On acceptance (202) the request is in the engine with
        ``request.tenant`` / ``request.slo_class`` stamped from the tenant;
        every failure returns its typed envelope instead of raising, so a
        wire adapter maps this 1:1 onto an HTTP response.
        """
        try:
            tenant = self.authenticate(api_key)
        except AuthenticationError as exc:
            return self._error_envelope(401, exc, request_id=request.request_id)
        try:
            self.admit(tenant)
        except (RateLimitedError, QuotaExceededError) as exc:
            return self._error_envelope(
                429, exc, request_id=request.request_id, tenant=tenant.name
            )
        request.tenant = tenant.name
        request.slo_class = tenant.slo_class
        try:
            self.engine.submit(request)
        except RetryableServingError as exc:
            return self._error_envelope(
                503, exc, request_id=request.request_id, tenant=tenant.name
            )
        except ServingError as exc:
            return self._error_envelope(
                400, exc, request_id=request.request_id, tenant=tenant.name
            )
        self._owner[request.request_id] = tenant.name
        self._inflight[tenant.name].add(request.request_id)
        return ResponseEnvelope(
            status=202,
            request_id=request.request_id,
            tenant=tenant.name,
            body={"state": "accepted"},
        )

    def handle(self, payload: Dict[str, Any]) -> ResponseEnvelope:
        """Serve one wire-shaped request dict (the JSON an HTTP body carries).

        Required keys: ``api_key``, ``model``, ``token_ids``.  Optional:
        ``family`` (default ``"lm"``), ``max_new_tokens``, ``num_classes``,
        ``deadline_s``, ``request_id``.
        """
        if not isinstance(payload, dict):
            return self._error_envelope(
                400, ServingError("request payload must be a JSON object")
            )
        api_key = payload.get("api_key")
        if not api_key or not isinstance(api_key, str):
            return self._error_envelope(
                401, AuthenticationError("missing api_key")
            )
        try:
            kwargs: Dict[str, Any] = dict(
                model=payload["model"],
                family=payload.get("family", WorkloadFamily.LM),
                token_ids=np.asarray(payload["token_ids"], dtype=np.int64),
            )
            for key in ("num_classes", "deadline_s", "request_id"):
                if key in payload:
                    kwargs[key] = payload[key]
            if "max_new_tokens" in payload:
                kwargs["sampling"] = SamplingParams(
                    max_new_tokens=int(payload["max_new_tokens"])
                )
            request = InferenceRequest(**kwargs)
        except (KeyError, TypeError, ValueError, ServingError) as exc:
            return self._error_envelope(400, ServingError(f"bad request: {exc}"))
        return self.submit(api_key, request)

    # ------------------------------------------------------------------ #
    # Progress and results
    # ------------------------------------------------------------------ #
    def step(self, force: bool = False) -> List[ResponseEnvelope]:
        """Advance the engine one step and settle finished gateway requests.

        Each completed/failed gateway-submitted request releases its quota
        slot and parks its final envelope for :meth:`poll`; the freshly
        settled envelopes are also returned for push-style consumers.
        """
        results = self.engine.step(force=force)
        settled: List[ResponseEnvelope] = []
        for result in results:
            if result.request_id in self._owner:
                settled.append(self._settle_result(result))
        for request_id in [rid for rid in self._owner]:
            exc = self.engine.failure(request_id)
            if exc is not None:
                settled.append(self._settle_failure(request_id, exc))
        return settled

    def poll(self, request_id: str) -> ResponseEnvelope:
        """The request's current envelope: 200 settled, 202 pending, 404 unknown."""
        settled = self._settled.get(request_id)
        if settled is not None:
            return settled
        if request_id in self._owner:
            return ResponseEnvelope(
                status=202,
                request_id=request_id,
                tenant=self._owner[request_id],
                body={"state": "pending"},
            )
        return ResponseEnvelope(
            status=404,
            request_id=request_id,
            error=ErrorEnvelope(
                code="not_found",
                message=f"unknown request {request_id!r}",
                retryable=False,
            ),
        )

    def run_until_idle(self, max_steps: int = 100_000) -> List[ResponseEnvelope]:
        """Drive :meth:`step` until every gateway request settled."""
        settled: List[ResponseEnvelope] = []
        steps = 0
        while self._owner:
            settled.extend(self.step(force=True))
            steps += 1
            if steps >= max_steps:
                raise ServingError(
                    f"gateway did not drain within {max_steps} steps"
                )
        return settled

    # ------------------------------------------------------------------ #
    # Async front-end
    # ------------------------------------------------------------------ #
    async def infer_async(self, server, api_key: str, request: InferenceRequest):
        """Serve one request through an :class:`~repro.serve.aio.AsyncServer`.

        The same authenticate→charge discipline as :meth:`submit`, but the
        typed errors *raise* (natural for an async client awaiting a
        result) and the quota slot releases when the awaited result — or
        failure — lands.  The server must front the same engine.
        """
        tenant = self.authenticate(api_key)
        self.admit(tenant)
        request.tenant = tenant.name
        request.slo_class = tenant.slo_class
        self._owner[request.request_id] = tenant.name
        self._inflight[tenant.name].add(request.request_id)
        try:
            return await server.infer(request)
        finally:
            self.release(request.request_id)

    # ------------------------------------------------------------------ #
    # Envelope assembly
    # ------------------------------------------------------------------ #
    def _error_envelope(
        self,
        status: int,
        exc: ServingError,
        request_id: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> ResponseEnvelope:
        return ResponseEnvelope(
            status=status,
            request_id=request_id,
            tenant=tenant,
            error=ErrorEnvelope(
                code=type(exc).__name__,
                message=str(exc),
                retryable=is_retryable(exc),
            ),
        )

    def _result_body(self, result: InferenceResult) -> Dict[str, Any]:
        output = result.output
        if isinstance(output, RequestOutput):
            body: Dict[str, Any] = {
                "finish_reason": output.finish_reason,
                "token_ids": list(output.token_ids),
                "logprobs": list(output.logprobs),
                "next_tokens": list(output.next_tokens),
            }
        else:
            body = dict(output)
        body["latency_s"] = result.latency
        return _json_safe(body)

    def _park(self, envelope: ResponseEnvelope) -> ResponseEnvelope:
        self._settled[envelope.request_id] = envelope
        # Bound the settled buffer like the engine's result registries.
        while len(self._settled) > self.engine.result_buffer:
            self._settled.pop(next(iter(self._settled)))
        return envelope

    def _settle_result(self, result: InferenceResult) -> ResponseEnvelope:
        tenant = self._owner.get(result.request_id)
        self.release(result.request_id)
        self.engine.result(result.request_id)  # consume the engine-side record
        return self._park(
            ResponseEnvelope(
                status=200,
                request_id=result.request_id,
                tenant=tenant,
                body=self._result_body(result),
            )
        )

    def _settle_failure(self, request_id: str, exc: Exception) -> ResponseEnvelope:
        tenant = self._owner.get(request_id)
        self.release(request_id)
        try:
            self.engine.result(request_id)
        except ServingError:
            pass  # consuming the failure record is the point
        if not isinstance(exc, ServingError):
            exc = ServingError(str(exc))
        return self._park(
            self._error_envelope(500, exc, request_id=request_id, tenant=tenant)
        )
