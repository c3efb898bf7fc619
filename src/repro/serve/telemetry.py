"""Request-lifecycle tracing, per-phase round profiling, and serving metrics.

The serving stack models memory traffic with byte-level accounting; this
module gives *time* the same treatment.  Three pieces:

``Tracer``
    A span-based profiler with a low-overhead context-manager API.  Two kinds
    of spans are recorded:

    * **phase spans** — strictly nested ``with tracer.span("attend")`` blocks
      on the scheduler/engine thread (one logical track), reconstructed into a
      tree for :meth:`Tracer.phase_report`;
    * **lifecycle spans** — per-request phases (``queued -> prefill ->
      decode -> end``) keyed by an opaque track id (the request id), driven by
      :meth:`Tracer.lifecycle_begin` / :meth:`Tracer.lifecycle_end`.

    The clock is injected (like the scheduler's ``clock``) so tests can drive
    it deterministically.  A disabled tracer — ``Tracer(enabled=False)``, the
    default an engine, scheduler, speculative decoder or page pool builds for
    itself, or any tracer after :meth:`Tracer.disable` — records nothing and allocates
    nothing on the hot path: ``span()`` returns a shared no-op context
    manager and the ``lifecycle_*`` calls return at once.  Call sites call
    the tracer unconditionally; hot ones read ``tracer.enabled`` only to
    skip building span attributes.

``MetricsRegistry``
    Named counters, gauges, and histograms (fixed exponential buckets) with a
    Prometheus text exposition.  ``ServingStats`` keeps a registry in lock-step
    with its windowed records; sharing one registry across several
    ``ServingStats`` instances merges their counts (the sharded-worker rollup
    story).

Exporters
    :meth:`Tracer.chrome_trace` emits Chrome ``trace_event`` JSON (load it at
    ``chrome://tracing`` or https://ui.perfetto.dev), :meth:`Tracer.jsonl`
    emits one JSON object per span, and :meth:`Tracer.phase_report` renders a
    wall-clock breakdown table.  :func:`validate_chrome_trace` checks a trace
    for well-formedness (balanced B/E events, per-thread monotone timestamps).
"""

from __future__ import annotations

import bisect
import json
import math
import re
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.nn.attention import _NULL_SPAN

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseReport",
    "PhaseRow",
    "Span",
    "Tracer",
    "exponential_buckets",
    "validate_chrome_trace",
    "validate_exposition",
]


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


def exponential_buckets(start: float, factor: float, count: int) -> Tuple[float, ...]:
    """``count`` bucket upper bounds: ``start, start*factor, ...`` (ascending)."""
    if start <= 0.0:
        raise ValueError(f"start must be positive, got {start}")
    if factor <= 1.0:
        raise ValueError(f"factor must be > 1, got {factor}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return tuple(start * factor**i for i in range(count))


def _format_value(value: float) -> str:
    """Prometheus sample value: integers render bare, floats via repr."""
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(names: Tuple[str, ...], values: Tuple[str, ...]) -> str:
    if not names:
        return ""
    inner = ",".join(f'{n}="{_escape_label(v)}"' for n, v in zip(names, values))
    return "{" + inner + "}"


class _Metric:
    """Shared bookkeeping: name, help text, label names, registry lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Tuple[str, ...], lock: threading.Lock):
        self.name = name
        self.help = help
        self.label_names = label_names
        self._lock = lock

    def _key(self, labels: Dict[str, Any]) -> Tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[n]) for n in self.label_names)


class Counter(_Metric):
    """Monotonically increasing sample (optionally per label set)."""

    kind = "counter"

    def __init__(self, name, help, label_names, lock):
        super().__init__(name, help, label_names, lock)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters cannot decrease (inc {amount})")
        if not math.isfinite(amount):
            return  # never poison the exposition with NaN/Inf
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def value_sum(self, **labels: Any) -> float:
        """Sum over every series whose labels match the given subset.

        Readers that care about one dimension of a multi-label counter
        (e.g. per-``slo_class`` totals of a ``{reason,slo_class,tenant}``
        counter) aggregate here instead of enumerating the other label
        values, so adding a label never breaks them.  Unknown label names
        raise, exactly like :meth:`value` on a full mismatch.
        """
        unknown = set(labels) - set(self.label_names)
        if unknown:
            raise ValueError(
                f"{self.name}: unknown label(s) {sorted(unknown)}; "
                f"expected a subset of {list(self.label_names)}"
            )
        positions = [
            (i, str(labels[name]))
            for i, name in enumerate(self.label_names)
            if name in labels
        ]
        with self._lock:
            return sum(
                v
                for key, v in self._values.items()
                if all(key[i] == want for i, want in positions)
            )

    def _render(self, lines: List[str]) -> None:
        values = dict(self._values) or ({(): 0.0} if not self.label_names else {})
        for key in sorted(values):
            lines.append(
                f"{self.name}{_render_labels(self.label_names, key)} {_format_value(values[key])}"
            )


class Gauge(_Metric):
    """Last-observed sample (set to any finite value)."""

    kind = "gauge"

    def __init__(self, name, help, label_names, lock):
        super().__init__(name, help, label_names, lock)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels: Any) -> None:
        if not math.isfinite(value):
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def _render(self, lines: List[str]) -> None:
        values = dict(self._values) or ({(): 0.0} if not self.label_names else {})
        for key in sorted(values):
            lines.append(
                f"{self.name}{_render_labels(self.label_names, key)} {_format_value(values[key])}"
            )


class Histogram(_Metric):
    """Fixed-bucket histogram (cumulative ``le`` buckets, ``_sum``/``_count``).

    Like :class:`Counter`/:class:`Gauge`, a histogram may declare label
    names; every label set gets its own bucket counts, sum and count (one
    series per set, the ``le`` label appended last).  ``count``/``sum``
    aggregate across label sets; :meth:`bucket_counts`/:meth:`count_value`/
    :meth:`sum_value` take the label set they describe.
    """

    kind = "histogram"

    def __init__(self, name, help, buckets: Sequence[float], label_names, lock):
        super().__init__(name, help, label_names, lock)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"{name}: bucket bounds must be strictly ascending, got {bounds}")
        self.buckets = bounds
        # Per-label-set cells: key -> [per-bucket counts (+Inf last), sum, count].
        self._cells: Dict[Tuple[str, ...], list] = {}
        if not label_names:
            # An unlabeled histogram renders its (zeroed) series immediately.
            self._cells[()] = [[0] * (len(bounds) + 1), 0.0, 0]

    def _cell(self, key: Tuple[str, ...]) -> list:
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = [[0] * (len(self.buckets) + 1), 0.0, 0]
        return cell

    def observe(self, value: float, **labels: Any) -> None:
        if not math.isfinite(value):
            return
        key = self._key(labels)
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            cell = self._cell(key)
            cell[0][idx] += 1
            cell[1] += value
            cell[2] += 1

    @property
    def count(self) -> int:
        """Observations across every label set."""
        with self._lock:
            return sum(cell[2] for cell in self._cells.values())

    @property
    def sum(self) -> float:
        """Observed-value sum across every label set."""
        with self._lock:
            return sum(cell[1] for cell in self._cells.values())

    def count_value(self, **labels: Any) -> int:
        key = self._key(labels)
        with self._lock:
            cell = self._cells.get(key)
            return cell[2] if cell else 0

    def sum_value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            cell = self._cells.get(key)
            return cell[1] if cell else 0.0

    def bucket_counts(self, **labels: Any) -> Tuple[int, ...]:
        """Cumulative counts per bucket bound (plus +Inf), Prometheus-style."""
        key = self._key(labels)
        with self._lock:
            cell = self._cells.get(key)
            counts = list(cell[0]) if cell else [0] * (len(self.buckets) + 1)
        cumulative, total = [], 0
        for c in counts:
            total += c
            cumulative.append(total)
        return tuple(cumulative)

    def _render(self, lines: List[str]) -> None:
        with self._lock:
            cells = {key: (list(cell[0]), cell[1], cell[2]) for key, cell in self._cells.items()}
        for key in sorted(cells):
            counts, total_sum, total_count = cells[key]
            labels = ",".join(
                f'{n}="{_escape_label(v)}"' for n, v in zip(self.label_names, key)
            )
            prefix = labels + "," if labels else ""
            cumulative, running = [], 0
            for c in counts:
                running += c
                cumulative.append(running)
            for bound, count in zip(self.buckets, cumulative):
                lines.append(
                    f'{self.name}_bucket{{{prefix}le="{_format_value(bound)}"}} {count}'
                )
            lines.append(f'{self.name}_bucket{{{prefix}le="+Inf"}} {cumulative[-1]}')
            suffix_labels = "{" + labels + "}" if labels else ""
            lines.append(f"{self.name}_sum{suffix_labels} {_format_value(total_sum)}")
            lines.append(f"{self.name}_count{suffix_labels} {total_count}")


class MetricsRegistry:
    """Create-or-get named instruments; render Prometheus text exposition.

    Instrument creation is idempotent: asking for an existing name returns the
    existing instrument (so several ``ServingStats`` can share one registry);
    asking with a conflicting kind or label set raises.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, factory: Callable[[], _Metric]) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}, not {cls.kind}"
                    )
                return existing
            metric = factory()
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        label_names = tuple(labels)
        metric = self._get_or_create(
            Counter, name, lambda: Counter(name, help, label_names, self._lock)
        )
        if metric.label_names != label_names:
            raise ValueError(
                f"metric {name!r} registered with labels {metric.label_names}, not {label_names}"
            )
        return metric

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        label_names = tuple(labels)
        metric = self._get_or_create(
            Gauge, name, lambda: Gauge(name, help, label_names, self._lock)
        )
        if metric.label_names != label_names:
            raise ValueError(
                f"metric {name!r} registered with labels {metric.label_names}, not {label_names}"
            )
        return metric

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = (),
        labels: Sequence[str] = (),
    ) -> Histogram:
        bounds = tuple(buckets) or exponential_buckets(1e-4, 2.0, 14)
        label_names = tuple(labels)
        metric = self._get_or_create(
            Histogram, name, lambda: Histogram(name, help, bounds, label_names, self._lock)
        )
        if metric.buckets != tuple(float(b) for b in bounds):
            raise ValueError(f"metric {name!r} registered with different buckets")
        if metric.label_names != label_names:
            raise ValueError(
                f"metric {name!r} registered with labels {metric.label_names}, not {label_names}"
            )
        return metric

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._metrics)

    def render(self) -> str:
        """Prometheus text exposition (``# HELP`` / ``# TYPE`` / samples)."""
        with self._lock:
            metrics = list(self._metrics.values())
        lines: List[str] = []
        for metric in metrics:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            metric._render(lines)
        return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

_B = "B"
_E = "E"


@dataclass(frozen=True)
class Span:
    """A reconstructed phase span. ``end is None`` means still open."""

    name: str
    cat: str
    start: float
    end: Optional[float]
    depth: int
    index: int
    parent: Optional[int]
    attrs: Optional[Dict[str, Any]]

    @property
    def duration(self) -> float:
        return 0.0 if self.end is None else self.end - self.start


@dataclass(frozen=True)
class PhaseRow:
    name: str
    count: int
    total_ms: float  # inclusive (children counted)
    self_ms: float  # exclusive (children subtracted)
    share: float  # self_ms / total round wall


@dataclass(frozen=True)
class PhaseReport:
    """Per-phase wall-clock breakdown over all ``root`` spans."""

    rounds: int
    round_ms: float
    coverage: float  # fraction of round wall inside *named* child phases
    rows: Tuple[PhaseRow, ...]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rounds": self.rounds,
            "round_ms": round(self.round_ms, 4),
            "coverage": round(self.coverage, 4),
            "phases": {
                row.name: {
                    "count": row.count,
                    "total_ms": round(row.total_ms, 4),
                    "self_ms": round(row.self_ms, 4),
                    "share": round(row.share, 4),
                }
                for row in self.rows
            },
        }

    def table(self) -> str:
        """Human-readable breakdown, widest phases first."""
        header = f"{'phase':<16} {'count':>7} {'total ms':>10} {'self ms':>10} {'share':>7}"
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.name:<16} {row.count:>7} {row.total_ms:>10.2f} "
                f"{row.self_ms:>10.2f} {row.share:>6.1%}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"rounds: {self.rounds}  round wall: {self.round_ms:.2f} ms  "
            f"named-phase coverage: {self.coverage:.1%}"
        )
        return "\n".join(lines)


class _SpanHandle:
    """Shared context manager for an enabled tracer.

    Spans close strictly LIFO under ``with`` nesting, so one handle per
    tracer suffices: ``__exit__`` always closes the innermost open span.
    """

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self._tracer._end()
        return False


class Tracer:
    """Records phase spans (one nested track) and per-request lifecycle spans.

    ``clock`` must be monotonic; inject a fake for deterministic tests.  The
    event log is bounded by ``max_events`` — once full, new spans are silently
    dropped (balance is preserved: suppressed opens swallow their matching
    close).
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        max_events: int = 500_000,
        enabled: bool = True,
    ):
        self.clock = clock
        self.max_events = int(max_events)
        self.enabled = bool(enabled)
        self._handle = _SpanHandle(self)
        # Event log: ("B", ts, name, cat, attrs|None) / ("E", ts). Appending
        # tuples (not objects) keeps the enabled hot path to one allocation.
        self._events: List[tuple] = []
        self._depth = 0
        self._suppressed = 0
        # Closed lifecycle phases: (track, name, start, end, attrs|None).
        self._lifecycle: List[Tuple[Any, str, float, float, Optional[Dict[str, Any]]]] = []
        self._open_lifecycle: Dict[Any, list] = {}

    # -- control ------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self._events.clear()
        self._depth = 0
        self._suppressed = 0
        self._lifecycle.clear()
        self._open_lifecycle.clear()

    # -- phase spans --------------------------------------------------------

    def span(self, name: str, cat: str = "phase", attrs: Optional[Dict[str, Any]] = None):
        """Open a phase span; close it by exiting the returned context manager."""
        if not self.enabled:
            return _NULL_SPAN
        if len(self._events) >= self.max_events:
            self._suppressed += 1
            return self._handle
        self._events.append((_B, self.clock(), name, cat, attrs))
        self._depth += 1
        return self._handle

    def _end(self) -> None:
        if self._suppressed:
            self._suppressed -= 1
            return
        if self._depth == 0:
            return  # defensive: mismatched exit
        self._depth -= 1
        self._events.append((_E, self.clock()))

    # -- lifecycle spans ----------------------------------------------------

    def lifecycle_begin(self, track: Any, name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
        """Start lifecycle phase ``name`` on ``track``, closing any open phase."""
        if not self.enabled:
            return
        self.lifecycle_end(track)
        if len(self._lifecycle) >= self.max_events:
            return
        self._open_lifecycle[track] = [name, self.clock(), attrs]

    def lifecycle_end(self, track: Any, attrs: Optional[Dict[str, Any]] = None) -> None:
        """Close the open lifecycle phase on ``track`` (no-op when none)."""
        if not self.enabled:
            return
        open_phase = self._open_lifecycle.pop(track, None)
        if open_phase is None:
            return
        name, start, base = open_phase
        if attrs:
            base = {**(base or {}), **attrs}
        self._lifecycle.append((track, name, start, self.clock(), base))

    # -- introspection ------------------------------------------------------

    @property
    def num_spans(self) -> int:
        """Closed phase spans recorded so far."""
        return sum(1 for ev in self._events if ev[0] == _E)

    def spans(self) -> List[Span]:
        """Reconstruct phase spans (recording order); open spans have ``end=None``.

        ``parent`` indexes into this same list, so ancestry can be walked
        without a separate tree structure.
        """
        items: List[list] = []
        stack: List[int] = []
        for ev in self._events:
            if ev[0] == _B:
                parent = stack[-1] if stack else None
                items.append([ev[2], ev[3], ev[1], None, len(stack), len(items), parent, ev[4]])
                stack.append(len(items) - 1)
            elif stack:
                items[stack.pop()][3] = ev[1]
        return [Span(*item) for item in items]

    def lifecycles(self) -> List[Tuple[Any, str, float, float, Optional[Dict[str, Any]]]]:
        return list(self._lifecycle)

    # -- phase report -------------------------------------------------------

    def phase_report(self, root: str = "round") -> PhaseReport:
        """Aggregate wall time of every named phase inside ``root`` spans.

        ``self_ms`` excludes nested child spans, so the rows sum (with the
        root's own uninstrumented gap) to the total round wall; ``coverage``
        is the fraction of round wall accounted for by named child phases.
        """
        spans = self.spans()
        child_time = [0.0] * len(spans)
        inside = [False] * len(spans)
        for span in spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
                inside[span.index] = spans[span.parent].name == root or inside[span.parent]

        rounds = 0
        round_total = 0.0
        covered = 0.0
        agg: Dict[str, List[float]] = {}  # name -> [count, total, self]
        for span in spans:
            if span.end is None:
                continue
            if span.name == root and not inside[span.index]:
                rounds += 1
                round_total += span.duration
                covered += child_time[span.index]
            elif inside[span.index]:
                entry = agg.setdefault(span.name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += span.duration
                entry[2] += span.duration - child_time[span.index]

        scale = 1e3
        rows = tuple(
            sorted(
                (
                    PhaseRow(
                        name=name,
                        count=int(entry[0]),
                        total_ms=entry[1] * scale,
                        self_ms=entry[2] * scale,
                        share=(entry[2] / round_total) if round_total > 0 else 0.0,
                    )
                    for name, entry in agg.items()
                ),
                key=lambda row: (-row.self_ms, row.name),
            )
        )
        coverage = (covered / round_total) if round_total > 0 else 0.0
        return PhaseReport(
            rounds=rounds, round_ms=round_total * scale, coverage=coverage, rows=rows
        )

    # -- exporters ----------------------------------------------------------

    def _epoch(self) -> float:
        candidates = []
        if self._events:
            candidates.append(self._events[0][1])
        if self._lifecycle:
            candidates.append(min(entry[2] for entry in self._lifecycle))
        for open_phase in self._open_lifecycle.values():
            candidates.append(open_phase[1])
        return min(candidates) if candidates else 0.0

    def chrome_trace(self) -> Dict[str, Any]:
        """Chrome ``trace_event`` JSON: phase spans as B/E on tid 0, request
        lifecycles as X complete-events on one tid per request."""
        t0 = self._epoch()

        def us(t: float) -> float:
            return round((t - t0) * 1e6, 3)

        events: List[Dict[str, Any]] = []
        if self._events:
            events.append(
                {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0, "args": {"name": "rounds"}}
            )

        # Unmatched opens (still-open spans) are dropped so B/E stay balanced.
        stack: List[int] = []
        for pos, ev in enumerate(self._events):
            if ev[0] == _B:
                stack.append(pos)
            elif stack:
                stack.pop()
        unmatched = set(stack)

        tids: Dict[Any, int] = {}
        for entry in self._lifecycle:
            if entry[0] not in tids:
                tids[entry[0]] = len(tids) + 1
        for track, tid in tids.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                    "args": {"name": f"request {track}"},
                }
            )

        for pos, ev in enumerate(self._events):
            if ev[0] == _B:
                if pos in unmatched:
                    continue
                event: Dict[str, Any] = {
                    "name": ev[2],
                    "cat": ev[3],
                    "ph": _B,
                    "ts": us(ev[1]),
                    "pid": 0,
                    "tid": 0,
                }
                if ev[4]:
                    event["args"] = dict(ev[4])
                events.append(event)
            else:
                events.append({"ph": _E, "ts": us(ev[1]), "pid": 0, "tid": 0})

        lifecycle = sorted(self._lifecycle, key=lambda entry: (tids[entry[0]], entry[2]))
        for track, name, start, end, attrs in lifecycle:
            event = {
                "name": name,
                "cat": "request",
                "ph": "X",
                "ts": us(start),
                "dur": round((end - start) * 1e6, 3),
                "pid": 0,
                "tid": tids[track],
                "args": {"track": str(track), **(attrs or {})},
            }
            events.append(event)

        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def jsonl(self, epoch: Optional[float] = None) -> str:
        """One JSON object per closed span (phase spans, then lifecycles).

        Deterministic byte-for-byte given a deterministic clock: keys are
        sorted and timestamps are rounded microseconds relative to the first
        event (or to ``epoch``, letting callers merge several logs — health
        events, spans — onto one shared time base).
        """
        t0 = self._epoch() if epoch is None else epoch

        def us(t: float) -> float:
            return round((t - t0) * 1e6, 3)

        lines = []
        for span in self.spans():
            if span.end is None:
                continue
            lines.append(
                {
                    "type": "span",
                    "name": span.name,
                    "cat": span.cat,
                    "ts_us": us(span.start),
                    "dur_us": round(span.duration * 1e6, 3),
                    "depth": span.depth,
                    "attrs": span.attrs or {},
                }
            )
        for track, name, start, end, attrs in self._lifecycle:
            lines.append(
                {
                    "type": "lifecycle",
                    "track": str(track),
                    "name": name,
                    "ts_us": us(start),
                    "dur_us": round((end - start) * 1e6, 3),
                    "attrs": attrs or {},
                }
            )
        if not lines:
            return ""
        return "\n".join(json.dumps(line, sort_keys=True) for line in lines) + "\n"

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.jsonl())


def validate_chrome_trace(payload) -> Dict[str, int]:
    """Validate Chrome ``trace_event`` JSON; raise ``ValueError`` on violation.

    Checks: the payload parses (str input) and has a ``traceEvents`` list;
    every event carries a known phase; timestamps are non-negative and
    monotone non-decreasing per tid; B/E events balance (per tid, LIFO);
    X events carry a non-negative ``dur``.  Returns event counts by phase.
    """
    if isinstance(payload, (str, bytes)):
        payload = json.loads(payload)
    if not isinstance(payload, dict) or not isinstance(payload.get("traceEvents"), list):
        raise ValueError("trace payload must be an object with a traceEvents list")
    stacks: Dict[Any, List[str]] = {}
    last_ts: Dict[Any, float] = {}
    counts = {"B": 0, "E": 0, "X": 0, "M": 0}
    for i, event in enumerate(payload["traceEvents"]):
        if not isinstance(event, dict):
            raise ValueError(f"event {i}: not an object")
        ph = event.get("ph")
        if ph not in counts:
            raise ValueError(f"event {i}: unknown phase {ph!r}")
        counts[ph] += 1
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or not math.isfinite(ts) or ts < 0:
            raise ValueError(f"event {i}: bad ts {ts!r}")
        tid = event.get("tid", 0)
        if ts < last_ts.get(tid, 0.0):
            raise ValueError(f"event {i}: ts {ts} not monotone on tid {tid}")
        last_ts[tid] = ts
        if ph == "B":
            stacks.setdefault(tid, []).append(event.get("name", ""))
        elif ph == "E":
            if not stacks.get(tid):
                raise ValueError(f"event {i}: E without matching B on tid {tid}")
            stacks[tid].pop()
        elif ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or not math.isfinite(dur) or dur < 0:
                raise ValueError(f"event {i}: bad dur {dur!r}")
    for tid, stack in stacks.items():
        if stack:
            raise ValueError(f"unbalanced B events on tid {tid}: {stack}")
    return counts


_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _parse_exposition_labels(raw: str, where: str) -> Tuple[Tuple[str, str], ...]:
    """Parse ``name="value",...`` (the text between ``{`` and ``}``)."""
    pairs: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(raw):
        eq = raw.find('="', pos)
        if eq < 0:
            raise ValueError(f"{where}: malformed labels {raw!r}")
        name = raw[pos:eq]
        if not _LABEL_NAME_RE.match(name):
            raise ValueError(f"{where}: bad label name {name!r}")
        # Scan the quoted value, honouring backslash escapes.
        value_chars: List[str] = []
        i = eq + 2
        while i < len(raw):
            ch = raw[i]
            if ch == "\\":
                if i + 1 >= len(raw):
                    raise ValueError(f"{where}: dangling escape in {raw!r}")
                value_chars.append(raw[i:i + 2])
                i += 2
                continue
            if ch == '"':
                break
            value_chars.append(ch)
            i += 1
        else:
            raise ValueError(f"{where}: unterminated label value in {raw!r}")
        pairs.append((name, "".join(value_chars)))
        pos = i + 1
        if pos < len(raw):
            if raw[pos] != ",":
                raise ValueError(f"{where}: expected ',' between labels in {raw!r}")
            pos += 1
    return tuple(pairs)


def validate_exposition(text: str) -> Dict[str, int]:
    """Validate a Prometheus text exposition; raise ``ValueError`` on violation.

    Checks every non-comment line parses as ``name[{labels}] value``; every
    sample belongs to a metric declared by a preceding ``# TYPE`` line of a
    known kind; values are finite (counters non-negative); no series repeats;
    histogram series carry ascending ``le`` bounds with monotone cumulative
    counts, a ``+Inf`` bucket, and ``_sum``/``_count`` samples whose count
    matches the ``+Inf`` bucket.  Returns metric counts by kind plus the
    total number of sample lines (``"samples"``).
    """
    kinds: Dict[str, str] = {}
    seen_series = set()
    # (metric, non-le labels) -> {"le": [(bound, count)], "sum": x, "count": n}
    hist_series: Dict[Tuple[str, Tuple], Dict[str, Any]] = {}
    samples = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        where = f"line {lineno}"
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) != 4 or not _METRIC_NAME_RE.match(parts[2]):
                raise ValueError(f"{where}: malformed TYPE line {line!r}")
            name, kind = parts[2], parts[3]
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise ValueError(f"{where}: unknown metric kind {kind!r}")
            if name in kinds:
                raise ValueError(f"{where}: duplicate TYPE for {name!r}")
            kinds[name] = kind
            continue
        if line.startswith("#"):
            continue  # HELP / comments
        brace = line.find("{")
        if brace >= 0:
            close = line.rfind("}")
            if close < brace:
                raise ValueError(f"{where}: unbalanced braces in {line!r}")
            name = line[:brace]
            labels = _parse_exposition_labels(line[brace + 1:close], where)
            rest = line[close + 1:]
        else:
            name, _, rest = line.partition(" ")
            rest = " " + rest if rest else ""
            labels = ()
        if not _METRIC_NAME_RE.match(name):
            raise ValueError(f"{where}: bad metric name {name!r}")
        if not rest.startswith(" ") or " " in rest[1:].strip():
            raise ValueError(f"{where}: expected 'name value', got {line!r}")
        raw_value = rest.strip()
        try:
            value = float(raw_value)
        except ValueError as exc:
            raise ValueError(f"{where}: bad sample value {raw_value!r}") from exc
        if math.isnan(value):
            raise ValueError(f"{where}: NaN sample value in {line!r}")
        base = name
        suffix = ""
        if base not in kinds:
            for candidate in ("_bucket", "_sum", "_count"):
                trimmed = name[: -len(candidate)] if name.endswith(candidate) else None
                if trimmed and kinds.get(trimmed) == "histogram":
                    base, suffix = trimmed, candidate
                    break
        kind = kinds.get(base)
        if kind is None:
            raise ValueError(f"{where}: sample {name!r} has no preceding TYPE line")
        if kind == "histogram" and not suffix:
            raise ValueError(
                f"{where}: histogram {base!r} samples must be _bucket/_sum/_count"
            )
        if kind != "histogram" and suffix:
            raise ValueError(f"{where}: {name!r} is not a histogram series")
        if (kind in ("counter", "histogram")) and value < 0:
            raise ValueError(f"{where}: negative {kind} sample in {line!r}")
        series = (name, labels)
        if series in seen_series:
            raise ValueError(f"{where}: duplicate series {name}{dict(labels)!r}")
        seen_series.add(series)
        samples += 1
        if kind == "histogram":
            plain = tuple(pair for pair in labels if pair[0] != "le")
            entry = hist_series.setdefault(
                (base, plain), {"le": [], "sum": None, "count": None}
            )
            if suffix == "_bucket":
                le = dict(labels).get("le")
                if le is None:
                    raise ValueError(f"{where}: histogram bucket without le label")
                bound = math.inf if le == "+Inf" else float(le)
                entry["le"].append((bound, value))
            elif suffix == "_sum":
                entry["sum"] = value
            else:
                entry["count"] = value
    for (base, plain), entry in hist_series.items():
        where = f"histogram {base!r} {dict(plain)!r}"
        bounds = [b for b, _ in entry["le"]]
        if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"{where}: le bounds not strictly ascending")
        if not bounds or bounds[-1] != math.inf:
            raise ValueError(f"{where}: missing +Inf bucket")
        counts = [c for _, c in entry["le"]]
        if counts != sorted(counts):
            raise ValueError(f"{where}: cumulative bucket counts decrease")
        if entry["sum"] is None or entry["count"] is None:
            raise ValueError(f"{where}: missing _sum/_count samples")
        if entry["count"] != counts[-1]:
            raise ValueError(
                f"{where}: _count {entry['count']} != +Inf bucket {counts[-1]}"
            )
    report = {"samples": samples}
    for kind in ("counter", "gauge", "histogram"):
        report[kind] = sum(1 for k in kinds.values() if k == kind)
    return report
