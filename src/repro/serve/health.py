"""Serving health: declarative SLOs, burn-rate alerting, health reports.

PR 6 gave the serving stack raw signals (span tracer, phase profiler,
Prometheus-style registry); this module *interprets* them.  Three pieces:

``SLOClass`` / ``HealthConfig``
    Declarative objectives.  An :class:`SLOClass` names a traffic class (the
    ``slo_class`` field of :class:`~repro.serve.requests.InferenceRequest`)
    and its targets: TTFT and request-latency thresholds with an attainment
    fraction, plus an availability fraction over finish reasons.  A
    :class:`HealthConfig` bundles the classes with a
    :class:`BurnRatePolicy` and an evaluation interval.

``HealthMonitor``
    Evaluates the objectives continuously against the *existing* serving
    instruments — the ``serve_ttft_seconds`` / ``serve_request_latency_seconds``
    histograms (per ``slo_class`` label) and the
    ``serve_requests_finished_total{reason,slo_class,tenant}`` counter — exposing
    ``serve_slo_attainment{slo_class,objective}`` gauges, windowed
    ``serve_slo_burn_rate`` gauges and cumulative error-budget counters.
    Alerting follows the multi-window burn-rate recipe: an alert *fires*
    only when both the fast (1 m) and slow (30 m) windows burn error budget
    above ``fire_threshold`` — a brief spike cannot page — and *resolves*
    with hysteresis once the fast window cools below the (lower)
    ``resolve_threshold``, so a burn hovering between the two thresholds
    never flaps.  Transitions emit :class:`HealthEvent` records; the firing
    and resolving event of one alert share a ``correlation_id``.

``unified_event_log``
    Merges a tracer's span/lifecycle JSONL with the monitor's health events
    onto one shared time base — one correlation-id'd event log per engine
    (``ServingEngine.event_log()``).

Attainment is read from the histograms' cumulative bucket counts: the
fraction of observations at or below the first bucket bound >= the target
(buckets are fixed, so pick targets on bucket bounds for exact accounting; a
target beyond the largest finite bound clamps to it, which under-counts good
events — conservative).  Availability counts ``stop``/``length`` finishes as
good and ``error`` as bad; ``aborted`` (client-initiated cancels) is excluded.

The clock is injected (the scheduler's clock), so a fake clock drives the
burn-rate windows deterministically in tests.
"""

from __future__ import annotations

import bisect
import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.serve.errors import ServingError
from repro.serve.sampling import FinishReason
from repro.serve.stats import _request_instruments
from repro.serve.telemetry import MetricsRegistry

__all__ = [
    "SLOClass",
    "BurnRatePolicy",
    "HealthConfig",
    "HealthEvent",
    "HealthMonitor",
    "OBJECTIVES",
    "unified_event_log",
]

#: The three objectives every SLO class is evaluated on.
OBJECTIVES = ("ttft", "latency", "availability")

#: Finish reasons that count as good/bad availability events.  ``aborted``
#: is deliberately in neither set: a client cancelling its own request says
#: nothing about server health.  ``deadline`` counts as bad — a request the
#: server accepted but failed to finish in time spends error budget, which is
#: what lets burn-rate alerts (and shed-on-burn-rate admission) react to
#: overload before latency percentiles have fully drifted.
_GOOD_FINISHES = (FinishReason.STOP, FinishReason.LENGTH)
_BAD_FINISHES = (FinishReason.ERROR, FinishReason.DEADLINE)


@dataclass(frozen=True)
class SLOClass:
    """Objectives of one traffic class (``InferenceRequest.slo_class``)."""

    name: str = "default"
    ttft_target_seconds: float = 0.2048
    latency_target_seconds: float = 1.6384
    attainment_target: float = 0.99    # fraction of requests inside the targets
    availability_target: float = 0.999  # fraction of finishes that are not errors

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ServingError("SLOClass.name must be a non-empty string")
        if self.ttft_target_seconds <= 0 or self.latency_target_seconds <= 0:
            raise ServingError("SLO latency targets must be positive seconds")
        for target in (self.attainment_target, self.availability_target):
            if not 0.0 < target < 1.0:
                raise ServingError(
                    f"SLO targets must be in (0, 1); got {target} "
                    "(a target of exactly 1 leaves no error budget to burn)"
                )

    def objective_target(self, objective: str) -> float:
        """The attainment fraction this objective must meet."""
        if objective == "availability":
            return self.availability_target
        return self.attainment_target

    def threshold_seconds(self, objective: str) -> Optional[float]:
        """The latency bound of ``objective`` (None for availability)."""
        if objective == "ttft":
            return self.ttft_target_seconds
        if objective == "latency":
            return self.latency_target_seconds
        return None


@dataclass(frozen=True)
class BurnRatePolicy:
    """Multi-window burn-rate alerting thresholds.

    A burn rate of 1.0 consumes exactly the error budget over the SLO
    period; 14.4 (the classic fast-page threshold) exhausts a 30-day budget
    in two hours.  Firing requires *both* windows hot; resolving requires
    only the fast window cool (``resolve_threshold < fire_threshold`` is the
    hysteresis band).
    """

    fast_window_seconds: float = 60.0
    slow_window_seconds: float = 1800.0
    fire_threshold: float = 14.4
    resolve_threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.fast_window_seconds <= 0 or self.slow_window_seconds <= 0:
            raise ServingError("burn-rate windows must be positive seconds")
        if self.fast_window_seconds >= self.slow_window_seconds:
            raise ServingError("fast window must be shorter than the slow window")
        if self.fire_threshold <= 0:
            raise ServingError("fire_threshold must be positive")
        if not 0 <= self.resolve_threshold < self.fire_threshold:
            raise ServingError(
                "resolve_threshold must sit below fire_threshold (hysteresis)"
            )


@dataclass(frozen=True)
class HealthConfig:
    """Everything the monitor needs: classes, policy, evaluation cadence."""

    classes: Tuple[SLOClass, ...] = (SLOClass(),)
    policy: BurnRatePolicy = field(default_factory=BurnRatePolicy)
    evaluation_interval_seconds: float = 1.0
    max_events: int = 10_000

    def __post_init__(self) -> None:
        if not self.classes:
            raise ServingError("HealthConfig needs at least one SLOClass")
        classes = tuple(
            SLOClass(name=c) if isinstance(c, str) else c for c in self.classes
        )
        object.__setattr__(self, "classes", classes)
        names = [c.name for c in classes]
        if len(set(names)) != len(names):
            raise ServingError(f"duplicate SLO class names: {sorted(names)}")
        if self.evaluation_interval_seconds < 0:
            raise ServingError("evaluation_interval_seconds must be >= 0")
        if self.max_events < 1:
            raise ServingError("max_events must be >= 1")


@dataclass(frozen=True)
class HealthEvent:
    """One alert transition.  Fire/resolve pairs share ``correlation_id``."""

    correlation_id: str
    ts: float
    kind: str          # "slo_burn_rate"
    slo_class: str
    objective: str     # "ttft" | "latency" | "availability"
    state: str         # "firing" | "resolved"
    burn_fast: float
    burn_slow: float
    attainment: float
    target: float

    def as_dict(self, epoch: float = 0.0) -> Dict[str, Any]:
        return {
            "type": "event",
            "kind": self.kind,
            "correlation_id": self.correlation_id,
            "ts_us": round((self.ts - epoch) * 1e6, 3),
            "slo_class": self.slo_class,
            "objective": self.objective,
            "state": self.state,
            "burn_fast": round(self.burn_fast, 4),
            "burn_slow": round(self.burn_slow, 4),
            "attainment": round(self.attainment, 6),
            "target": self.target,
        }


class _ObjectiveState:
    """Rolling burn-rate state of one (class, objective) pair."""

    __slots__ = (
        "snapshots", "firing", "correlation_id", "last_bad",
        "burn_fast", "burn_slow", "attainment", "good", "total",
    )

    def __init__(self) -> None:
        # (ts, bad, total) cumulative snapshots, pruned to the slow window
        # (plus one older entry kept as the window base).
        self.snapshots: Deque[Tuple[float, float, float]] = deque()
        self.firing = False
        self.correlation_id: Optional[str] = None
        self.last_bad = 0.0
        self.burn_fast = 0.0
        self.burn_slow = 0.0
        self.attainment = 1.0
        self.good = 0.0
        self.total = 0.0


class HealthMonitor:
    """Continuously evaluate SLO classes against the serving instruments.

    The monitor *reads* the histograms/counters that
    :class:`~repro.serve.stats.ServingStats` keeps (pass the same registry)
    and *writes* the derived gauges, budget counters and
    :class:`HealthEvent` log.  ``evaluate()`` is cheap (a handful of dict
    lookups per class/objective); :meth:`maybe_evaluate` rate-limits it to
    the configured interval for per-step engine use.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        config: Optional[HealthConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.registry = registry
        self.config = config if config is not None else HealthConfig()
        self.clock = clock
        r = registry
        # The read-side instruments ServingStats populates; created here too
        # so a monitor can attach before (or without) any stats traffic.
        self._m_ttft, self._m_latency, self._m_finished = _request_instruments(r)
        # The write-side (derived) instruments.
        self._m_attainment = r.gauge(
            "serve_slo_attainment",
            "Fraction of events meeting the objective, cumulative",
            labels=("slo_class", "objective"),
        )
        self._m_burn = r.gauge(
            "serve_slo_burn_rate",
            "Error-budget burn rate over the alert windows",
            labels=("slo_class", "objective", "window"),
        )
        self._m_budget_used = r.counter(
            "serve_slo_budget_events_total",
            "Objective-violating events (error-budget consumption)",
            labels=("slo_class", "objective"),
        )
        self._m_firing = r.gauge(
            "serve_slo_alert_firing",
            "1 while the objective's burn-rate alert fires",
            labels=("slo_class", "objective"),
        )
        self._m_transitions = r.counter(
            "serve_health_events_total",
            "Burn-rate alert transitions",
            labels=("state",),
        )
        self._states: Dict[Tuple[str, str], _ObjectiveState] = {}
        self._events: List[HealthEvent] = []
        self._event_counter = 0
        self._last_eval: Optional[float] = None
        for cls in self.config.classes:
            for objective in OBJECTIVES:
                self._states[(cls.name, objective)] = _ObjectiveState()
                self._m_attainment.set(1.0, slo_class=cls.name, objective=objective)
                self._m_firing.set(0.0, slo_class=cls.name, objective=objective)

    # ------------------------------------------------------------------ #
    # Instrument reads
    # ------------------------------------------------------------------ #
    def _observed(self, cls: SLOClass, objective: str) -> Tuple[float, float]:
        """``(good, total)`` cumulative events of one class/objective."""
        if objective == "availability":
            # value_sum aggregates across the tenant label: availability is
            # per-class, whichever tenants contributed.
            good = sum(
                self._m_finished.value_sum(reason=reason, slo_class=cls.name)
                for reason in _GOOD_FINISHES
            )
            bad = sum(
                self._m_finished.value_sum(reason=reason, slo_class=cls.name)
                for reason in _BAD_FINISHES
            )
            return good, good + bad
        hist = self._m_ttft if objective == "ttft" else self._m_latency
        cumulative = hist.bucket_counts(slo_class=cls.name)
        total = cumulative[-1]
        if not total:
            return 0.0, 0.0
        target = cls.threshold_seconds(objective)
        idx = bisect.bisect_left(hist.buckets, target)
        # Beyond the largest finite bound the +Inf bucket would count *every*
        # observation as good; clamp to the largest finite bound instead
        # (conservative: over-long targets under-count good events).
        idx = min(idx, len(hist.buckets) - 1)
        return float(cumulative[idx]), float(total)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def maybe_evaluate(self, now: Optional[float] = None) -> bool:
        """Evaluate if the configured interval elapsed; True when it ran."""
        now = self.clock() if now is None else now
        interval = self.config.evaluation_interval_seconds
        if self._last_eval is not None and now - self._last_eval < interval:
            return False
        self.evaluate(now)
        return True

    def _burn_over(
        self, state: _ObjectiveState, now: float, window: float,
        bad: float, total: float, budget: float,
    ) -> float:
        """Error-budget burn over ``[now - window, now]`` (0 with no events)."""
        base_bad = base_total = 0.0
        for ts, snap_bad, snap_total in state.snapshots:
            if ts > now - window:
                break
            base_bad, base_total = snap_bad, snap_total
        delta_total = total - base_total
        if delta_total <= 0:
            return 0.0
        return ((bad - base_bad) / delta_total) / budget

    def evaluate(self, now: Optional[float] = None) -> List[HealthEvent]:
        """Evaluate every class/objective; returns the events emitted now."""
        now = self.clock() if now is None else now
        self._last_eval = now
        policy = self.config.policy
        emitted: List[HealthEvent] = []
        for cls in self.config.classes:
            for objective in OBJECTIVES:
                state = self._states[(cls.name, objective)]
                good, total = self._observed(cls, objective)
                bad = total - good
                target = cls.objective_target(objective)
                budget = 1.0 - target
                attainment = (good / total) if total else 1.0
                state.good, state.total, state.attainment = good, total, attainment
                self._m_attainment.set(
                    attainment, slo_class=cls.name, objective=objective
                )
                if bad > state.last_bad:
                    self._m_budget_used.inc(
                        bad - state.last_bad, slo_class=cls.name, objective=objective
                    )
                    state.last_bad = bad
                state.burn_fast = self._burn_over(
                    state, now, policy.fast_window_seconds, bad, total, budget
                )
                state.burn_slow = self._burn_over(
                    state, now, policy.slow_window_seconds, bad, total, budget
                )
                self._m_burn.set(
                    state.burn_fast,
                    slo_class=cls.name, objective=objective, window="fast",
                )
                self._m_burn.set(
                    state.burn_slow,
                    slo_class=cls.name, objective=objective, window="slow",
                )
                # Append the new snapshot, then prune everything older than
                # the slow window except the newest such entry (the base).
                state.snapshots.append((now, bad, total))
                horizon = now - policy.slow_window_seconds
                while len(state.snapshots) > 1 and state.snapshots[1][0] <= horizon:
                    state.snapshots.popleft()
                event = self._transition(cls, objective, state, now, target)
                if event is not None:
                    emitted.append(event)
        return emitted

    def _transition(
        self, cls: SLOClass, objective: str, state: _ObjectiveState,
        now: float, target: float,
    ) -> Optional[HealthEvent]:
        """Apply the fire/resolve state machine; returns the emitted event."""
        policy = self.config.policy
        if not state.firing:
            if (
                state.burn_fast >= policy.fire_threshold
                and state.burn_slow >= policy.fire_threshold
            ):
                state.firing = True
                self._event_counter += 1
                state.correlation_id = f"alert-{self._event_counter}"
                return self._emit(cls, objective, state, now, target, "firing")
            return None
        if state.burn_fast <= policy.resolve_threshold:
            state.firing = False
            event = self._emit(cls, objective, state, now, target, "resolved")
            state.correlation_id = None
            return event
        return None

    def _emit(
        self, cls: SLOClass, objective: str, state: _ObjectiveState,
        now: float, target: float, new_state: str,
    ) -> HealthEvent:
        event = HealthEvent(
            correlation_id=state.correlation_id,
            ts=now,
            kind="slo_burn_rate",
            slo_class=cls.name,
            objective=objective,
            state=new_state,
            burn_fast=state.burn_fast,
            burn_slow=state.burn_slow,
            attainment=state.attainment,
            target=target,
        )
        self._events.append(event)
        if len(self._events) > self.config.max_events:
            del self._events[: len(self._events) - self.config.max_events]
        self._m_firing.set(
            1.0 if new_state == "firing" else 0.0,
            slo_class=cls.name, objective=objective,
        )
        self._m_transitions.inc(state=new_state)
        return event

    # ------------------------------------------------------------------ #
    # Introspection / export
    # ------------------------------------------------------------------ #
    @property
    def firing(self) -> bool:
        """True while any objective's alert fires."""
        return any(state.firing for state in self._states.values())

    def events(self) -> List[HealthEvent]:
        return list(self._events)

    def alerts(self) -> List[HealthEvent]:
        """The firing event of every currently-firing alert."""
        open_ids = {
            state.correlation_id
            for state in self._states.values()
            if state.firing
        }
        return [
            event
            for event in self._events
            if event.state == "firing" and event.correlation_id in open_ids
        ]

    def report(self) -> Dict[str, Any]:
        """The SLO portion of a ``/healthz`` payload (call evaluate() first)."""
        slo: Dict[str, Dict[str, Any]] = {}
        for cls in self.config.classes:
            per_objective: Dict[str, Any] = {}
            for objective in OBJECTIVES:
                state = self._states[(cls.name, objective)]
                per_objective[objective] = {
                    "attainment": round(state.attainment, 6),
                    "target": cls.objective_target(objective),
                    "threshold_seconds": cls.threshold_seconds(objective),
                    "events": int(state.total),
                    "burn_fast": round(state.burn_fast, 4),
                    "burn_slow": round(state.burn_slow, 4),
                    "firing": state.firing,
                }
            slo[cls.name] = per_objective
        return {
            "status": "degraded" if self.firing else "ok",
            "slo": slo,
            "alerts": [event.as_dict() for event in self.alerts()],
        }

    def _epoch(self) -> Optional[float]:
        return self._events[0].ts if self._events else None

    def jsonl(self, epoch: Optional[float] = None) -> str:
        """One JSON object per health event (deterministic, sorted keys)."""
        if not self._events:
            return ""
        t0 = self._events[0].ts if epoch is None else epoch
        return "\n".join(
            json.dumps(event.as_dict(epoch=t0), sort_keys=True)
            for event in self._events
        ) + "\n"


def unified_event_log(tracer, monitor: Optional[HealthMonitor]) -> str:
    """Tracer spans/lifecycles and health events as one time-ordered JSONL.

    Both logs are re-based onto one shared epoch (the earliest timestamp
    either side recorded), so ``ts_us`` is comparable across line types:
    ``span`` / ``lifecycle`` lines come from the tracer, ``event`` lines
    from the monitor (each carrying its alert's ``correlation_id``).
    """
    epochs = []
    if tracer.num_spans or tracer.lifecycles():
        epochs.append(tracer._epoch())
    if monitor is not None and monitor._epoch() is not None:
        epochs.append(monitor._epoch())
    if not epochs:
        return ""
    epoch = min(epochs)
    lines = tracer.jsonl(epoch=epoch).splitlines()
    if monitor is not None:
        lines.extend(monitor.jsonl(epoch=epoch).splitlines())
    lines.sort(key=lambda line: json.loads(line)["ts_us"])
    return "\n".join(lines) + "\n"
