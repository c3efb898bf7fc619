"""Deterministic fault injection for the serving stack.

Chaos testing only earns its keep when a failing schedule can be replayed
byte-for-byte, so everything here is seeded and counter-driven: a
:class:`FaultSchedule` is a plain list of :class:`FaultSpec` triggers
("raise at the 3rd ``round`` span", "jump the clock 2s at the 2nd
``admit``", "burst 4 extra submissions at round 5"), either written by
hand or generated from a seed, and a :class:`FaultInjector` arms it
against a live :class:`~repro.serve.scheduler.ContinuousBatchingScheduler`
through the seams the scheduler already exposes:

* the **tracer** — every phase the scheduler enters goes through
  ``tracer.span(name)``, and so does the page pool's work: a ``seal``
  span whenever a layer cache seals pages on append, a ``pool_decode``
  span whenever a prefix attach decodes packed pages.  Wrapping the
  scheduler's and the pool's tracers gives a precise, zero-new-hooks
  injection point for phase errors and clock jumps, mid-prefill and
  mid-round included;
* the **clock** — the scheduler reads ``self.clock()`` for every
  timestamp, so a wrapped clock with a forward-only offset simulates
  stalls and deadline pressure without sleeping.

Faults raise :class:`~repro.serve.errors.InjectedFault` (retryable), and
:func:`drive` mirrors the engine's recovery discipline — a fault escaping
``step()`` has already ended the round's in-flight slots in error, and
stepping continues — so the chaos suite can assert the serving invariants
(balanced refcounts, exactly one terminal finish reason per request, a
still-serving scheduler) under every schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serve.errors import InjectedFault, RetryableServingError, ServingError

__all__ = [
    "FaultSpec",
    "FaultSchedule",
    "FaultInjector",
    "drive",
    "check_refcounts",
]


@dataclass(frozen=True)
class FaultSpec:
    """One trigger: *kind* fires the *at_count*-th time its seam is crossed.

    Parameters
    ----------
    kind:
        ``"phase_error"`` raises :class:`InjectedFault` entering the
        *at_count*-th ``phase`` span; ``"clock_jump"`` advances the
        scheduler clock by ``jump_s`` entering the *at_count*-th ``phase``
        span; ``"queue_burst"`` tells :func:`drive` to submit ``burst``
        extra requests at round *at_count*.
    phase:
        Span name the counter watches (``phase_error`` / ``clock_jump``
        only).  The scheduler's phases are ``round``, ``admit``,
        ``prefill``, ``plain_round``, ``sample``, ``retire`` and the
        speculative ``draft_propose`` / ``verify_batch``; the page pool's
        are ``seal`` (a layer cache sealing pages) and ``pool_decode`` (a
        prefix attach decoding pages).
    at_count:
        1-based occurrence at which the fault fires.  Each spec fires at
        most once.
    jump_s:
        Seconds added to the clock offset (``clock_jump`` only).
    burst:
        Extra same-round submissions (``queue_burst`` only).
    """

    KINDS = ("phase_error", "clock_jump", "queue_burst")

    kind: str
    phase: str = "round"
    at_count: int = 1
    jump_s: float = 0.0
    burst: int = 0

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ServingError(
                f"unknown fault kind {self.kind!r}; expected one of {self.KINDS}"
            )
        if int(self.at_count) < 1:
            raise ServingError("at_count is 1-based and must be >= 1")
        object.__setattr__(self, "at_count", int(self.at_count))
        if self.kind == "clock_jump" and not float(self.jump_s) > 0:
            raise ServingError("clock_jump requires jump_s > 0")
        object.__setattr__(self, "jump_s", float(self.jump_s))
        if self.kind == "queue_burst" and int(self.burst) < 1:
            raise ServingError("queue_burst requires burst >= 1")
        object.__setattr__(self, "burst", int(self.burst))


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, immutable set of :class:`FaultSpec` triggers."""

    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise ServingError("FaultSchedule holds FaultSpec entries only")

    def __len__(self) -> int:
        return len(self.specs)

    @classmethod
    def generate(
        cls,
        seed: int,
        num_faults: int = 4,
        phases: Sequence[str] = (
            "round", "admit", "prefill", "sample", "seal", "pool_decode"
        ),
        max_round: int = 8,
        max_jump_s: float = 4.0,
        max_burst: int = 4,
    ) -> "FaultSchedule":
        """Seeded random schedule: same seed, same faults, every run."""
        rng = np.random.default_rng(seed)
        specs = []
        for _ in range(int(num_faults)):
            kind = FaultSpec.KINDS[int(rng.integers(0, len(FaultSpec.KINDS)))]
            at_count = int(rng.integers(1, max_round + 1))
            if kind == "clock_jump":
                specs.append(
                    FaultSpec(
                        kind,
                        phase=str(phases[int(rng.integers(0, len(phases)))]),
                        at_count=at_count,
                        jump_s=float(rng.uniform(0.1, max_jump_s)),
                    )
                )
            elif kind == "queue_burst":
                specs.append(
                    FaultSpec(
                        kind,
                        at_count=at_count,
                        burst=int(rng.integers(1, max_burst + 1)),
                    )
                )
            else:
                specs.append(
                    FaultSpec(
                        kind,
                        phase=str(phases[int(rng.integers(0, len(phases)))]),
                        at_count=at_count,
                    )
                )
        return cls(tuple(specs))


class _InjectingTracer:
    """Tracer proxy: counts span entries and lets the injector act on them.

    ``span()`` consults the injector *before* delegating, so a phase error
    raises before the span opens (no dangling open spans in the report).
    Everything else — ``enabled``, lifecycle tracks, report methods —
    passes through to the wrapped tracer untouched, so a disabled tracer
    stays free and an enabled tracer's output is unchanged apart from the
    injected behaviour.  Scheduler and page-pool spans are counted traced
    or not; the nn layers enter theirs only while the tracer is enabled.
    """

    def __init__(self, inner, injector: "FaultInjector") -> None:
        self._inner = inner
        self._injector = injector

    @property
    def enabled(self):
        return self._inner.enabled

    def span(self, name: str = "", cat: str = "phase", attrs=None):
        self._injector.on_span(name)
        return self._inner.span(name, cat=cat, attrs=attrs)

    def __getattr__(self, item):
        return getattr(self._inner, item)


class FaultInjector:
    """Arms a :class:`FaultSchedule` against a scheduler's seams.

    ``attach(scheduler)`` wraps the scheduler's tracer, its page pool's
    tracer and its clock in place; the scheduler itself is unmodified code
    running under instrumented dependencies.  Each spec fires at most once; ``fired``
    records the specs that actually triggered (a schedule may over-provision
    counts the run never reaches — that is fine, chaos schedules are
    upper bounds, not scripts).
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self._specs: List[FaultSpec] = list(schedule.specs)
        self.fired: List[FaultSpec] = []
        self._consumed: set = set()
        self._phase_counts: Dict[str, int] = {}
        self._clock_offset = 0.0

    def add(self, spec: FaultSpec) -> FaultSpec:
        """Arm one more spec mid-run (state-machine tests inject on demand)."""
        if not isinstance(spec, FaultSpec):
            raise ServingError("add() takes a FaultSpec")
        self._specs.append(spec)
        return spec

    def occurrences(self, phase: str) -> int:
        """How many times the ``phase`` span has been entered so far."""
        return self._phase_counts.get(phase, 0)

    def disarm(self) -> List[FaultSpec]:
        """Consume every still-pending spec so no further fault fires.

        The seams stay attached (and the clock keeps its accumulated
        forward offset — unwinding it would move time backwards); only the
        unfired schedule is cancelled.  Returns the specs that never fired,
        so a chaos run can report leftover faults before probing that the
        scheduler still serves.
        """
        leftover = [
            spec
            for position, spec in enumerate(self._specs)
            if position not in self._consumed
        ]
        self._consumed.update(range(len(self._specs)))
        return leftover

    # -------------------------------------------------------------- #
    # Arming
    # -------------------------------------------------------------- #
    def attach(self, scheduler) -> "FaultInjector":
        """Wrap ``scheduler``'s tracer, its pool's tracer and its clock in place.

        The pool keeps its own tracer underneath, so its ``seal`` and
        ``pool_decode`` spans still land wherever they did; every slot cache
        reads the pool's tracer at each seal and decode.
        """
        scheduler.tracer = _InjectingTracer(scheduler.tracer, self)
        pool = scheduler.page_pool
        pool.tracer = _InjectingTracer(pool.tracer, self)
        inner_clock = scheduler.clock
        scheduler.clock = lambda: inner_clock() + self._clock_offset
        return self

    # -------------------------------------------------------------- #
    # Seam callbacks
    # -------------------------------------------------------------- #
    def on_span(self, name: str) -> None:
        """Called on every span entry; fires matching clock/phase faults."""
        count = self._phase_counts.get(name, 0) + 1
        self._phase_counts[name] = count
        while True:
            spec = self._take("clock_jump", count, phase=name)
            if spec is None:
                break
            self._clock_offset += spec.jump_s
        spec = self._take("phase_error", count, phase=name)
        if spec is not None:
            raise InjectedFault(
                f"injected failure entering phase {name!r} "
                f"(occurrence {count}, spec {spec})"
            )

    def burst_at(self, round_index: int) -> int:
        """Extra submissions :func:`drive` should attempt at this round."""
        extra = 0
        while True:
            spec = self._take("queue_burst", round_index)
            if spec is None:
                return extra
            extra += spec.burst

    def _take(
        self, kind: str, count: int, phase: Optional[str] = None
    ) -> Optional[FaultSpec]:
        """Pop the first unconsumed spec of ``kind`` due at ``count``."""
        for position, spec in enumerate(self._specs):
            if position in self._consumed or spec.kind != kind:
                continue
            if phase is not None and spec.phase != phase:
                continue
            if spec.at_count == count:
                self._consumed.add(position)
                self.fired.append(spec)
                return spec
        return None


def drive(
    scheduler,
    injector: FaultInjector,
    requests: Sequence,
    max_rounds: int = 256,
) -> Dict[str, object]:
    """Run every request to a terminal state under the armed schedule.

    Submits one pending request per round (plus any ``queue_burst``
    extras), steps the scheduler, and absorbs faults exactly the way the
    engine does: admission rejections are recorded and dropped, and after an
    :class:`InjectedFault` escapes ``step()`` (which ends the round's
    in-flight slots with it) the loop keeps stepping.  ``aborted`` lists the
    requests a fault ended, ``failures`` every recorded failure.  Raises
    ``AssertionError`` if the scheduler fails to drain within
    ``max_rounds`` — a converging scheduler under chaos is itself one of
    the invariants.
    """
    pending = list(requests)
    results: List = []
    rejected: List[Tuple[str, Exception]] = []
    failures: List[Tuple[str, Exception]] = []
    aborted: List[str] = []
    round_index = 0
    while pending or len(scheduler):
        round_index += 1
        if round_index > max_rounds:
            raise AssertionError(
                f"fault-injection drive did not converge in {max_rounds} rounds"
            )
        want = 1 + injector.burst_at(round_index)
        while want and pending:
            want -= 1
            request = pending.pop(0)
            try:
                scheduler.submit(request)
            except RetryableServingError as exc:
                rejected.append((request.request_id, exc))
        try:
            results.extend(scheduler.step())
        except InjectedFault as exc:
            taken = scheduler.take_failures()
            failures.extend(taken)
            aborted.extend(rid for rid, error in taken if error is exc)
    failures.extend(scheduler.take_failures())
    return {
        "results": results,
        "rejected": rejected,
        "aborted": aborted,
        "rounds": round_index,
        "failures": failures,
    }


def check_refcounts(scheduler) -> None:
    """Assert every pool refcount equals its enumerable holders.

    The same balance check the invariant fuzz suite runs: each sealed page
    handle held by a live slot cache or a prefix-index node accounts for
    exactly one reference, and no pool entry carries references nobody
    holds.  Shared blocks balance the same way: each live block's holder
    count equals the slot layer caches reading it, no slot reads a block
    the pool has freed, and the decoded-row gauge equals the slots' own
    decoded pages plus each live block once.  The running gauges equal the
    sums they stand for: each layer cache's resident sealed bytes, and the
    pool's count of pages with more than one reference.  Raises
    ``AssertionError`` on imbalance.
    """
    from collections import Counter

    pool = scheduler.page_pool
    held = Counter()
    readers = Counter()
    own_bytes = 0
    for slot in scheduler._slots:
        if slot is None:
            continue
        for layer_index in range(slot.cache.num_layers):
            layer = slot.cache.layer(layer_index)
            sealed = layer._sealed_k + layer._sealed_v
            for handle in sealed:
                held[id(handle)] += 1
            resident = sum(handle.nbytes_resident for handle in sealed)
            assert layer._sealed_nbytes == resident, (
                f"sealed-bytes gauge {layer._sealed_nbytes} != {resident} held"
            )
            if layer._block is not None:
                readers[id(layer._block)] += 1
            own_pages = len(layer._sealed_k) - layer._shared // layer.config.page_size
            own_bytes += 2 * own_pages * layer._page_nbytes
    blocks = {id(block): block for block in pool._blocks.values()}
    for key, block in blocks.items():
        assert block.holders == readers[key], (
            f"shared block: {block.holders} holders != {readers[key]} reading caches"
        )
    assert set(readers) <= set(blocks), "a slot reads a freed shared block"
    decoded = own_bytes + sum(block.nbytes for block in blocks.values())
    assert pool.decoded_cache_bytes == decoded, (
        f"decoded-row gauge {pool.decoded_cache_bytes} != {decoded} held"
    )
    for node in pool._prefix_nodes.values():
        for handle in node.handles():
            held[id(handle)] += 1
    entries = {id(handle): handle for handle in pool._entries.values()}
    for key, handle in entries.items():
        assert handle.refcount == held[key], (
            f"page {handle.page_id}: refcount {handle.refcount} != "
            f"{held[key]} enumerated holders"
        )
    for key, count in held.items():
        assert key in entries and count > 0, "holder of an unregistered page"
    shared = sum(1 for handle in entries.values() if handle.shared)
    assert pool.num_shared_pages == shared, (
        f"shared-page gauge {pool.num_shared_pages} != {shared} shared pages"
    )
