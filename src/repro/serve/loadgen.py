"""Trace-driven multi-tenant load generation for the serving gateway.

Benchmarking a multi-tenant gateway needs load that is *realistic* (bursty
arrivals, mixed tenants, multi-turn conversations that re-walk shared
prefixes) yet *replayable* — the same trace must produce the same schedule,
the same admissions, and byte-identical reports, or an overload regression
cannot be told apart from luck.  This module provides both halves:

``TraceConfig`` / ``generate_trace``
    A seeded generator.  Each :class:`TenantLoad` describes one tenant's
    traffic shape: mean arrivals per round, an on/off burst modulation
    (``burst_factor`` during bursts, idle otherwise), prompt/output length
    ranges, and multi-turn conversations (``turns_range``) whose follow-up
    turns *continue the previous prompt + its generated tokens* — exactly
    the shape the prefix-sharing cache accelerates.  The same
    ``TraceConfig`` always yields the same :class:`TraceEvent` list.

``save_trace`` / ``load_trace``
    The trace file format: one JSON object per event, sorted keys, so a
    trace recorded on one machine replays bit-for-bit on another.

``LoadRunner``
    The replay engine.  Time is **virtual rounds**: each round advances an
    injected :class:`VirtualClock` by ``seconds_per_round``, submits the
    events due that round through :meth:`Gateway.submit
    <repro.serve.gateway.Gateway.submit>`, then drives one
    ``gateway.step(force=True)``.  Turn *n > 0* of a conversation is
    scheduled ``think_rounds`` after turn *n-1* settles, with its prompt
    composed from the settled turn's prompt + generated tokens + the
    trace's new tokens.  Because everything — clock, arrivals, engine — is
    deterministic, :meth:`LoadRunner.report` (per-tenant counts, latencies
    and SLO attainment, serialized with sorted keys) is byte-identical
    across runs of the same trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.serve.errors import ServingError
from repro.serve.requests import InferenceRequest, WorkloadFamily
from repro.serve.sampling import SamplingParams

__all__ = [
    "TenantLoad",
    "TraceConfig",
    "TraceEvent",
    "VirtualClock",
    "generate_trace",
    "save_trace",
    "load_trace",
    "LoadRunner",
]


class VirtualClock:
    """A settable clock: inject into the engine, advance from the runner."""

    def __init__(self, start: float = 0.0) -> None:
        self.t = float(start)

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> float:
        if dt < 0:
            raise ServingError("VirtualClock cannot run backwards")
        self.t += dt
        return self.t


@dataclass(frozen=True)
class TenantLoad:
    """One tenant's traffic shape inside a :class:`TraceConfig`.

    ``arrivals_per_round`` is the mean Poisson rate while the tenant is in
    a burst; outside bursts the tenant is idle.  ``burst_rounds`` /
    ``idle_rounds`` set the mean on/off dwell times (geometric), so
    ``burst_rounds=None`` means always-on (no modulation).  Conversations
    draw ``turns_range`` turns; follow-up turns reuse the previous turn's
    full token stream as their prefix and arrive ``think_rounds`` after it
    finishes.
    """

    name: str
    arrivals_per_round: float = 0.5
    burst_rounds: Optional[int] = None
    idle_rounds: int = 4
    prompt_tokens: Tuple[int, int] = (8, 24)
    max_new_tokens: int = 4
    turns_range: Tuple[int, int] = (1, 1)
    think_rounds: int = 1
    vocab: int = 96

    def __post_init__(self) -> None:
        if not self.name:
            raise ServingError("TenantLoad.name must be non-empty")
        if self.arrivals_per_round <= 0:
            raise ServingError("arrivals_per_round must be positive")
        lo, hi = self.prompt_tokens
        if lo < 1 or hi < lo:
            raise ServingError("prompt_tokens must be a (lo, hi) range, lo >= 1")
        lo, hi = self.turns_range
        if lo < 1 or hi < lo:
            raise ServingError("turns_range must be a (lo, hi) range, lo >= 1")
        if self.max_new_tokens < 1:
            raise ServingError("max_new_tokens must be >= 1")


@dataclass(frozen=True)
class TraceConfig:
    """What :func:`generate_trace` needs: tenants, horizon, seed."""

    tenants: Tuple[TenantLoad, ...]
    rounds: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ServingError("TraceConfig needs at least one tenant")
        object.__setattr__(self, "tenants", tuple(self.tenants))
        if self.rounds < 1:
            raise ServingError("rounds must be >= 1")


@dataclass(frozen=True)
class TraceEvent:
    """One request in a trace.

    Turn 0 arrives at ``round``; turn *n > 0* arrives ``think_rounds``
    rounds after turn *n-1* of the same ``conversation`` settles (its
    ``round`` records the opening turn's arrival for bookkeeping).
    ``new_tokens`` are the tokens this turn *appends*; the runner prefixes
    them with the conversation's accumulated stream.
    """

    round: int
    tenant: str
    conversation: str
    turn: int
    new_tokens: Tuple[int, ...]
    max_new_tokens: int
    think_rounds: int = 1

    def as_dict(self) -> Dict[str, Any]:
        return {
            "round": self.round,
            "tenant": self.tenant,
            "conversation": self.conversation,
            "turn": self.turn,
            "new_tokens": list(self.new_tokens),
            "max_new_tokens": self.max_new_tokens,
            "think_rounds": self.think_rounds,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceEvent":
        return cls(
            round=int(data["round"]),
            tenant=str(data["tenant"]),
            conversation=str(data["conversation"]),
            turn=int(data["turn"]),
            new_tokens=tuple(int(t) for t in data["new_tokens"]),
            max_new_tokens=int(data["max_new_tokens"]),
            think_rounds=int(data.get("think_rounds", 1)),
        )


def generate_trace(config: TraceConfig) -> List[TraceEvent]:
    """The deterministic event list ``config`` describes.

    Each tenant gets its own child RNG stream (seeded from
    ``config.seed`` and the tenant's position), so adding a tenant to the
    mix never perturbs the others' schedules.
    """
    events: List[TraceEvent] = []
    for index, tenant in enumerate(config.tenants):
        rng = np.random.default_rng((config.seed, index))
        bursting = tenant.burst_rounds is None or bool(rng.integers(0, 2))
        conversations = 0
        for rnd in range(config.rounds):
            if tenant.burst_rounds is not None:
                # Geometric on/off dwell: flip with probability 1/mean.
                flip = 1.0 / (
                    tenant.burst_rounds if bursting else tenant.idle_rounds
                )
                if rng.random() < flip:
                    bursting = not bursting
            arrivals = (
                int(rng.poisson(tenant.arrivals_per_round)) if bursting else 0
            )
            for _ in range(arrivals):
                conversations += 1
                conv = f"{tenant.name}/c{conversations:04d}"
                turns = int(rng.integers(tenant.turns_range[0],
                                         tenant.turns_range[1] + 1))
                for turn in range(turns):
                    length = int(rng.integers(tenant.prompt_tokens[0],
                                              tenant.prompt_tokens[1] + 1))
                    tokens = tuple(
                        int(t)
                        for t in rng.integers(0, tenant.vocab, size=length)
                    )
                    events.append(TraceEvent(
                        round=rnd,
                        tenant=tenant.name,
                        conversation=conv,
                        turn=turn,
                        new_tokens=tokens,
                        max_new_tokens=tenant.max_new_tokens,
                        think_rounds=tenant.think_rounds,
                    ))
    # Stable order: by arrival round, then tenant, conversation, turn.
    events.sort(key=lambda e: (e.round, e.tenant, e.conversation, e.turn))
    return events


def save_trace(events: List[TraceEvent], path: str) -> None:
    """Write ``events`` as replayable JSON-lines (sorted keys)."""
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event.as_dict(), sort_keys=True) + "\n")


def load_trace(path: str) -> List[TraceEvent]:
    """Read a trace written by :func:`save_trace`."""
    events: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(TraceEvent.from_dict(json.loads(line)))
    return events


@dataclass
class _Conversation:
    """Replay state of one conversation: its stream and queued turns."""

    stream: Tuple[int, ...] = ()            # prompt + generated so far
    next_turn: int = 0
    queued: List[TraceEvent] = field(default_factory=list)
    inflight_request: Optional[str] = None


class LoadRunner:
    """Replay a trace against a gateway on a virtual-round clock.

    Parameters
    ----------
    gateway:
        The :class:`~repro.serve.gateway.Gateway` under load.  Its engine
        **must** run on the ``clock`` passed here, or rate limits and SLO
        measurements drift off the virtual schedule.
    clock:
        The shared :class:`VirtualClock`.
    api_keys:
        Tenant name → API key (defaults to the keys in the gateway's own
        config, which is what benchmarks want; pass explicitly to model a
        client using the wrong key).
    model:
        Model name each request targets.
    seconds_per_round:
        Virtual seconds one round advances the clock.
    """

    def __init__(
        self,
        gateway,
        clock: VirtualClock,
        api_keys: Optional[Dict[str, str]] = None,
        model: str = "gpt2-xl",
        seconds_per_round: float = 0.05,
    ) -> None:
        self.gateway = gateway
        self.clock = clock
        self.model = model
        self.seconds_per_round = float(seconds_per_round)
        if api_keys is None:
            api_keys = {t.name: t.api_key for t in gateway.config.tenants}
        self.api_keys = dict(api_keys)
        self._conversations: Dict[str, _Conversation] = {}
        self._schedule: Dict[int, List[Tuple[str, TraceEvent]]] = {}
        self._request_conv: Dict[str, str] = {}
        self._counts: Dict[str, Dict[str, int]] = {}
        self._latencies: Dict[str, List[float]] = {}
        self.round = 0

    # ------------------------------------------------------------------ #
    def _count(self, tenant: str, what: str) -> None:
        per = self._counts.setdefault(
            tenant,
            {"submitted": 0, "accepted": 0, "rejected": 0, "completed": 0,
             "failed": 0},
        )
        per[what] = per.get(what, 0) + 1

    def _submit_event(self, event: TraceEvent) -> None:
        conv = self._conversations.setdefault(event.conversation,
                                              _Conversation())
        tokens = conv.stream + event.new_tokens
        request = InferenceRequest(
            model=self.model,
            family=WorkloadFamily.LM,
            token_ids=np.asarray(tokens, dtype=np.int64),
            sampling=SamplingParams(max_new_tokens=event.max_new_tokens),
            request_id=f"{event.conversation}/t{event.turn}",
        )
        self._count(event.tenant, "submitted")
        envelope = self.gateway.submit(self.api_keys[event.tenant], request)
        if envelope.status == 202:
            self._count(event.tenant, "accepted")
            conv.stream = tokens
            conv.inflight_request = request.request_id
            self._request_conv[request.request_id] = event.conversation
        else:
            self._count(event.tenant, "rejected")
            # The conversation's later turns still replay (prefix unchanged).
            self._advance_conversation(event.conversation, self.round)

    def _advance_conversation(self, name: str, settle_round: int) -> None:
        conv = self._conversations[name]
        conv.next_turn += 1
        conv.inflight_request = None
        if conv.queued and conv.queued[0].turn == conv.next_turn:
            event = conv.queued.pop(0)
            due = settle_round + event.think_rounds
            self._schedule.setdefault(due, []).append((event.tenant, event))

    def _settle(self, envelopes) -> None:
        for envelope in envelopes:
            conv_name = self._request_conv.pop(envelope.request_id, None)
            if conv_name is None:
                continue
            tenant = envelope.tenant or "-"
            if envelope.status == 200:
                self._count(tenant, "completed")
                conv = self._conversations[conv_name]
                generated = tuple(
                    int(t) for t in envelope.body.get("token_ids", [])
                )
                conv.stream = conv.stream + generated
                self._latencies.setdefault(tenant, []).append(
                    float(envelope.body.get("latency_s", 0.0))
                )
            else:
                self._count(tenant, "failed")
            self._advance_conversation(conv_name, self.round)

    # ------------------------------------------------------------------ #
    def run(self, events: List[TraceEvent], max_rounds: int = 100_000) -> None:
        """Replay ``events`` to completion (arrivals, then drain)."""
        for event in events:
            if event.turn == 0:
                self._schedule.setdefault(event.round, []).append(
                    (event.tenant, event)
                )
            else:
                conv = self._conversations.setdefault(event.conversation,
                                                      _Conversation())
                conv.queued.append(event)
        for conv in self._conversations.values():
            conv.queued.sort(key=lambda e: e.turn)
        horizon = max((e.round for e in events), default=0)
        rounds = 0
        while (self._schedule or self._request_conv
               or self.round <= horizon):
            due = self._schedule.pop(self.round, [])
            for _, event in sorted(
                due, key=lambda pair: (pair[0], pair[1].conversation,
                                       pair[1].turn)
            ):
                self._submit_event(event)
            self._settle(self.gateway.step(force=True))
            self.clock.advance(self.seconds_per_round)
            self.round += 1
            rounds += 1
            if rounds >= max_rounds:
                raise ServingError(
                    f"trace did not drain within {max_rounds} rounds"
                )

    # ------------------------------------------------------------------ #
    def report(self) -> Dict[str, Any]:
        """Per-tenant counts, latency stats, and SLO attainment."""
        monitor = getattr(self.gateway.engine, "health", None)
        slo: Dict[str, Any] = {}
        if monitor is not None:
            monitor.evaluate()
            slo = monitor.report()["slo"]
        tenants: Dict[str, Any] = {}
        for tenant in sorted(self._counts):
            latencies = sorted(self._latencies.get(tenant, []))
            entry: Dict[str, Any] = dict(self._counts[tenant])
            if latencies:
                entry["latency_mean_s"] = round(
                    sum(latencies) / len(latencies), 9
                )
                entry["latency_p95_s"] = round(
                    latencies[min(len(latencies) - 1,
                                  int(0.95 * len(latencies)))], 9
                )
            cfg = self.gateway._by_name.get(tenant)
            if cfg is not None and cfg.slo_class in slo:
                entry["slo"] = {
                    objective: {
                        "attainment": values["attainment"],
                        "target": values["target"],
                    }
                    for objective, values in slo[cfg.slo_class].items()
                }
            tenants[tenant] = entry
        return {"rounds": self.round, "tenants": tenants}

    def report_json(self) -> str:
        """The report serialized byte-identically across runs."""
        return json.dumps(self.report(), sort_keys=True, indent=2) + "\n"
