"""Telemetry tests: metrics registry, tracer determinism, exporters, end-to-end.

The load-bearing guarantees are **determinism** (a fake clock yields
byte-identical exports across runs, so traces are diffable artifacts) and
**zero cost when off** (a disabled tracer records no events and allocates
nothing on the span hot path — the serving stack is instrumented
unconditionally, so the null path must be free).
"""

import asyncio
import json
import sys
import threading

import numpy as np
import pytest

from repro.serve import (
    AsyncServer,
    ContinuousBatchingScheduler,
    InferenceRequest,
    KVCacheConfig,
    ModelRepository,
    SamplingParams,
    ServingEngine,
    SpeculativeConfig,
    Tracer,
    WorkloadFamily,
)
from repro.serve.stats import ServingStats
from repro.serve.telemetry import (
    MetricsRegistry,
    exponential_buckets,
    validate_chrome_trace,
)

MODEL = "gpt2-xl"
VOCAB = 96

TEST_SPEC = SpeculativeConfig(
    num_speculative_tokens=2,
    calibration_sequences=6,
    calibration_tokens=12,
    calibration_prompt_len=4,
)


class FakeClock:
    def __init__(self, now=100.0, tick=0.0):
        self.now = now
        self.tick = tick  # auto-advance per reading (keeps timestamps distinct)

    def __call__(self):
        value = self.now
        self.now += self.tick
        return value


def lm_requests(rng_seed, count=3, seq_len=6, max_new_tokens=8):
    rng = np.random.default_rng(rng_seed)
    return [
        InferenceRequest(
            MODEL,
            WorkloadFamily.LM,
            rng.integers(0, VOCAB, size=seq_len),
            sampling=SamplingParams(max_new_tokens=max_new_tokens),
        )
        for _ in range(count)
    ]


# --------------------------------------------------------------------------- #
# Metrics registry
# --------------------------------------------------------------------------- #
class TestExponentialBuckets:
    def test_bounds_are_geometric(self):
        assert exponential_buckets(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)

    @pytest.mark.parametrize(
        "kwargs", [dict(start=0.0), dict(factor=1.0), dict(factor=0.5), dict(count=0)]
    )
    def test_bad_arguments_raise(self, kwargs):
        args = dict(start=1.0, factor=2.0, count=4)
        args.update(kwargs)
        with pytest.raises(ValueError):
            exponential_buckets(**args)


class TestCounter:
    def test_inc_and_value(self):
        counter = MetricsRegistry().counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == pytest.approx(3.5)

    def test_labels_partition_the_count(self):
        counter = MetricsRegistry().counter("c_total", labels=("reason",))
        counter.inc(reason="stop")
        counter.inc(reason="stop")
        counter.inc(reason="length")
        assert counter.value(reason="stop") == 2.0
        assert counter.value(reason="length") == 1.0
        assert counter.value(reason="aborted") == 0.0

    def test_negative_increment_raises(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_non_finite_increment_is_dropped(self):
        counter = MetricsRegistry().counter("c_total")
        counter.inc(float("nan"))
        counter.inc(float("inf"))
        assert counter.value() == 0.0

    def test_wrong_label_set_raises(self):
        counter = MetricsRegistry().counter("c_total", labels=("reason",))
        with pytest.raises(ValueError):
            counter.inc(model="x")
        with pytest.raises(ValueError):
            counter.inc()  # missing the declared label


class TestGauge:
    def test_set_overwrites(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(4.0)
        gauge.set(2.0)
        assert gauge.value() == 2.0

    def test_non_finite_set_is_dropped(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(1.0)
        gauge.set(float("nan"))
        assert gauge.value() == 1.0


class TestHistogram:
    def test_cumulative_bucket_counts(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            hist.observe(value)
        # bisect_left: a value equal to a bound lands in that bound's bucket.
        hist.observe(2.0)
        assert hist.bucket_counts() == (1, 3, 4, 5)
        assert hist.count == 5
        assert hist.sum == pytest.approx(0.5 + 1.5 + 3.0 + 100.0 + 2.0)

    def test_non_finite_observation_is_dropped(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0,))
        hist.observe(float("inf"))
        assert hist.count == 0

    def test_non_ascending_buckets_raise(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("h2", buckets=(2.0, 1.0))


class TestRegistry:
    def test_create_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", help="help")
        second = registry.counter("c_total")
        assert first is second
        assert registry.get("c_total") is first
        assert registry.names() == ("c_total",)

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError):
            registry.gauge("m")
        with pytest.raises(ValueError):
            registry.histogram("m")

    def test_label_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("m", labels=("a",))
        with pytest.raises(ValueError):
            registry.counter("m", labels=("b",))

    def test_bucket_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_render_exposition_format(self):
        registry = MetricsRegistry()
        counter = registry.counter("req_total", help="Requests", labels=("reason",))
        counter.inc(3, reason="stop")
        hist = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        text = registry.render()
        lines = text.splitlines()
        assert "# HELP req_total Requests" in lines
        assert "# TYPE req_total counter" in lines
        assert 'req_total{reason="stop"} 3' in lines
        assert "# TYPE lat_seconds histogram" in lines
        assert 'lat_seconds_bucket{le="0.1"} 1' in lines
        assert 'lat_seconds_bucket{le="1"} 1' in lines
        assert 'lat_seconds_bucket{le="+Inf"} 2' in lines
        assert "lat_seconds_count 2" in lines
        assert text.endswith("\n")

    def test_render_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labels=("name",)).inc(name='a"b\nc\\d')
        assert 'c_total{name="a\\"b\\nc\\\\d"} 1' in registry.render()

    def test_unlabeled_counter_renders_zero_before_first_inc(self):
        registry = MetricsRegistry()
        registry.counter("c_total")
        assert "c_total 0" in registry.render().splitlines()

    def test_shared_registry_merges_counts(self):
        # Two ServingStats over one registry = the sharded-worker rollup.
        registry = MetricsRegistry()
        worker_a = ServingStats(registry=registry)
        worker_b = ServingStats(registry=registry)
        assert worker_a.registry is worker_b.registry
        counter = registry.counter("serve_decode_rounds_total")
        before = counter.value()
        assert before == 0.0

    def test_concurrent_increments_do_not_drop(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        hist = registry.histogram("h", buckets=(0.5,))

        def work():
            for _ in range(1000):
                counter.inc()
                hist.observe(0.1)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value() == 4000.0
        assert hist.count == 4000


# --------------------------------------------------------------------------- #
# Tracer core
# --------------------------------------------------------------------------- #
class TestTracerSpans:
    def test_nested_spans_reconstruct_parent_and_depth(self):
        clock = FakeClock(tick=1.0)
        tracer = Tracer(clock=clock)
        with tracer.span("round"):
            with tracer.span("attend", attrs={"bucket": 16}):
                pass
            with tracer.span("sample"):
                pass
        spans = tracer.spans()
        assert [s.name for s in spans] == ["round", "attend", "sample"]
        root, attend, sample = spans
        assert root.parent is None and root.depth == 0
        assert attend.parent == root.index and attend.depth == 1
        assert sample.parent == root.index and sample.depth == 1
        assert attend.attrs == {"bucket": 16}
        # tick=1: round opens at 100, attend 101..102, sample 103..104, round closes at 105
        assert root.start == 100.0 and root.end == 105.0 and root.duration == 5.0
        assert attend.duration == 1.0 and sample.duration == 1.0

    def test_open_span_has_no_end(self):
        tracer = Tracer(clock=FakeClock(tick=1.0))
        tracer.span("round").__enter__()
        (span,) = tracer.spans()
        assert span.end is None and span.duration == 0.0
        assert tracer.num_spans == 0

    def test_span_survives_exceptions(self):
        tracer = Tracer(clock=FakeClock(tick=1.0))
        with pytest.raises(RuntimeError):
            with tracer.span("round"):
                with tracer.span("attend"):
                    raise RuntimeError("boom")
        assert tracer.num_spans == 2
        assert all(s.end is not None for s in tracer.spans())

    def test_reset_clears_everything(self):
        tracer = Tracer(clock=FakeClock(tick=1.0))
        with tracer.span("round"):
            pass
        tracer.lifecycle_begin("r0", "queued")
        tracer.reset()
        assert tracer.num_spans == 0
        assert tracer.spans() == []
        assert tracer.lifecycles() == []

    def test_max_events_preserves_balance(self):
        tracer = Tracer(clock=FakeClock(tick=1.0), max_events=4)
        for _ in range(10):
            with tracer.span("round"):
                with tracer.span("attend"):
                    pass
        begins = sum(1 for s in tracer.spans())
        assert begins == tracer.num_spans == 2  # 4 events = 2 closed spans
        # A fresh span after suppression would still be suppressed (log full),
        # but the depth bookkeeping must not have drifted.
        assert tracer._depth == 0

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("round", attrs=None):
            with tracer.span("attend"):
                pass
        tracer.lifecycle_begin("r0", "queued")
        tracer.lifecycle_end("r0")
        assert tracer.num_spans == 0
        assert tracer.spans() == []
        assert tracer.lifecycles() == []
        assert tracer.phase_report().rounds == 0
        assert tracer.chrome_trace()["traceEvents"] == []
        assert tracer.jsonl() == ""
        tracer.enable()
        with tracer.span("round"):
            pass
        assert tracer.num_spans == 1

    def test_disabling_mid_lifecycle_records_nothing_more(self):
        tracer = Tracer(clock=FakeClock(tick=1.0))
        tracer.lifecycle_begin("r0", "queued")
        tracer.disable()
        tracer.lifecycle_end("r0")
        tracer.lifecycle_begin("r1", "queued")
        assert tracer.lifecycles() == []
        tracer.enable()
        tracer.lifecycle_end("r0")
        assert [entry[:2] for entry in tracer.lifecycles()] == [("r0", "queued")]

    def test_disabled_span_allocates_nothing(self):
        tracer = Tracer(enabled=False)
        for _ in range(64):  # warm up caches (method binding, loop ints)
            with tracer.span("x"):
                pass
        before = sys.getallocatedblocks()
        for _ in range(512):
            with tracer.span("x"):
                pass
        after = sys.getallocatedblocks()
        assert after - before <= 2  # shared _NULL_SPAN: no per-span objects


class TestLifecycle:
    def test_begin_end_records_phase(self):
        clock = FakeClock(tick=1.0)
        tracer = Tracer(clock=clock)
        tracer.lifecycle_begin("r0", "queued", {"model": MODEL})
        tracer.lifecycle_end("r0", {"reason": "stop"})
        ((track, name, start, end, attrs),) = tracer.lifecycles()
        assert (track, name) == ("r0", "queued")
        assert end - start == 1.0
        assert attrs == {"model": MODEL, "reason": "stop"}

    def test_begin_auto_closes_previous_phase(self):
        tracer = Tracer(clock=FakeClock(tick=1.0))
        tracer.lifecycle_begin("r0", "queued")
        tracer.lifecycle_begin("r0", "prefill")
        tracer.lifecycle_begin("r0", "decode")
        tracer.lifecycle_end("r0")
        names = [entry[1] for entry in tracer.lifecycles()]
        assert names == ["queued", "prefill", "decode"]
        # Phases tile the track: each begins one clock read after the
        # previous ended (the auto-close and the open each read the clock).
        entries = tracer.lifecycles()
        for prev, cur in zip(entries, entries[1:]):
            assert prev[3] <= cur[2] <= prev[3] + 1.0

    def test_end_without_open_phase_is_noop(self):
        tracer = Tracer(clock=FakeClock())
        tracer.lifecycle_end("never-began")
        assert tracer.lifecycles() == []

    def test_tracks_are_independent(self):
        tracer = Tracer(clock=FakeClock(tick=1.0))
        tracer.lifecycle_begin("r0", "decode")
        tracer.lifecycle_begin("r1", "queued")
        tracer.lifecycle_end("r0")
        assert [entry[0] for entry in tracer.lifecycles()] == ["r0"]
        tracer.lifecycle_end("r1")
        assert [entry[0] for entry in tracer.lifecycles()] == ["r0", "r1"]


# --------------------------------------------------------------------------- #
# Phase report
# --------------------------------------------------------------------------- #
class TestPhaseReport:
    def _build(self):
        clock = FakeClock(now=0.0)
        tracer = Tracer(clock=clock)
        # round [0, 10): a [1, 4) containing b [2, 3); c [5, 9).
        clock.now = 0.0
        with tracer.span("round"):
            clock.now = 1.0
            with tracer.span("a"):
                clock.now = 2.0
                with tracer.span("b"):
                    clock.now = 3.0
                clock.now = 4.0
            clock.now = 5.0
            with tracer.span("c"):
                clock.now = 9.0
            clock.now = 10.0
        return tracer

    def test_inclusive_exclusive_and_coverage(self):
        report = self._build().phase_report()
        assert report.rounds == 1
        assert report.round_ms == pytest.approx(10_000.0)
        # Coverage counts the round's *direct* children: a (3 s) + c (4 s).
        assert report.coverage == pytest.approx(0.7)
        rows = {row.name: row for row in report.rows}
        assert rows["a"].total_ms == pytest.approx(3000.0)
        assert rows["a"].self_ms == pytest.approx(2000.0)  # minus b's 1 s
        assert rows["b"].self_ms == pytest.approx(1000.0)
        assert rows["c"].self_ms == pytest.approx(4000.0)
        assert rows["c"].share == pytest.approx(0.4)
        # Widest self time first.
        assert [row.name for row in report.rows] == ["c", "a", "b"]

    def test_spans_outside_root_are_excluded(self):
        clock = FakeClock(now=0.0)
        tracer = Tracer(clock=clock)
        with tracer.span("calibrate"):  # not inside any "round"
            clock.now = 5.0
        with tracer.span("round"):
            clock.now = 7.0
        report = tracer.phase_report()
        assert report.rounds == 1
        assert report.round_ms == pytest.approx(2000.0)
        assert all(row.name != "calibrate" for row in report.rows)

    def test_as_dict_and_table_render(self):
        report = self._build().phase_report()
        payload = report.as_dict()
        assert payload["rounds"] == 1
        assert payload["phases"]["c"]["share"] == pytest.approx(0.4)
        json.dumps(payload)  # artifact-safe
        table = report.table()
        assert "named-phase coverage: 70.0%" in table
        assert table.splitlines()[2].startswith("c")

    def test_empty_tracer_reports_zero(self):
        report = Tracer(clock=FakeClock()).phase_report()
        assert report.rounds == 0
        assert report.round_ms == 0.0
        assert report.coverage == 0.0
        assert report.rows == ()


# --------------------------------------------------------------------------- #
# Exporters
# --------------------------------------------------------------------------- #
class TestExporters:
    def _traced(self):
        clock = FakeClock(now=50.0, tick=0.5)
        tracer = Tracer(clock=clock)
        tracer.lifecycle_begin("r0", "queued")
        with tracer.span("round"):
            with tracer.span("attend", attrs={"bucket": 8}):
                pass
        tracer.lifecycle_begin("r0", "decode")
        tracer.lifecycle_end("r0", {"reason": "stop"})
        return tracer

    def test_chrome_trace_validates_and_round_trips(self):
        trace = self._traced().chrome_trace()
        counts = validate_chrome_trace(json.dumps(trace))
        assert counts["B"] == counts["E"] == 2
        assert counts["X"] == 2  # two lifecycle phases
        assert counts["M"] == 2  # rounds track + one request track

    def test_chrome_trace_timestamps_are_relative_microseconds(self):
        trace = self._traced().chrome_trace()
        ts = [e["ts"] for e in trace["traceEvents"] if e["ph"] != "M"]
        assert min(ts) == 0.0  # epoch-relative
        assert max(ts) == pytest.approx(3.0e6)  # 6 clock ticks of 0.5 s

    def test_chrome_trace_drops_unmatched_open_spans(self):
        tracer = Tracer(clock=FakeClock(tick=1.0))
        tracer.span("round").__enter__()  # never closed
        with tracer.span("inner"):
            pass
        counts = validate_chrome_trace(json.dumps(tracer.chrome_trace()))
        assert counts["B"] == counts["E"] == 1

    def test_exports_are_byte_identical_across_runs(self):
        first, second = self._traced(), self._traced()
        assert json.dumps(first.chrome_trace(), sort_keys=True) == json.dumps(
            second.chrome_trace(), sort_keys=True
        )
        assert first.jsonl() == second.jsonl()

    def test_jsonl_one_object_per_span(self):
        lines = [json.loads(line) for line in self._traced().jsonl().splitlines()]
        kinds = [(line["type"], line["name"]) for line in lines]
        assert ("span", "round") in kinds
        assert ("span", "attend") in kinds
        assert ("lifecycle", "queued") in kinds
        assert ("lifecycle", "decode") in kinds
        attend = next(l for l in lines if l["name"] == "attend")
        assert attend["attrs"] == {"bucket": 8}

    def test_write_exporters(self, tmp_path):
        tracer = self._traced()
        trace_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "spans.jsonl"
        tracer.write_chrome_trace(trace_path)
        tracer.write_jsonl(jsonl_path)
        validate_chrome_trace(trace_path.read_text())
        assert jsonl_path.read_text() == tracer.jsonl()

    def test_validate_rejects_malformed_traces(self):
        with pytest.raises(ValueError):
            validate_chrome_trace("[]")  # no traceEvents object
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "Q", "ts": 0}]})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "B", "name": "a", "ts": 1.0, "tid": 0}]}
            )  # unbalanced
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {
                    "traceEvents": [
                        {"ph": "B", "name": "a", "ts": 5.0, "tid": 0},
                        {"ph": "E", "ts": 1.0, "tid": 0},  # non-monotone
                    ]
                }
            )
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "name": "a", "ts": 0.0, "dur": -1.0}]}
            )


# --------------------------------------------------------------------------- #
# End-to-end through the serving stack
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def traced_run():
    """One speculative serve() under a real-clock tracer, shared across tests."""
    tracer = Tracer()
    engine = ServingEngine(
        ModelRepository(bits=4, seed=0),
        num_slots=4,
        kv_cache_config=KVCacheConfig(bits=4, page_size=8),
        speculative=TEST_SPEC,
        tracer=tracer,
    )
    engine.warm(MODEL, WorkloadFamily.LM)
    engine.warm_speculative(MODEL)
    tracer.reset()  # profile serving, not the one-off calibration
    results = engine.serve(lm_requests(7, count=3, max_new_tokens=8))
    return engine, tracer, results


class TestEndToEnd:
    def test_round_spans_nest_the_speculative_phases(self, traced_run):
        _, tracer, _ = traced_run
        spans = tracer.spans()
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        for name in ("round", "admit", "draft_propose", "verify_batch",
                     "attend", "kv_append", "sample", "retire"):
            assert by_name.get(name), f"missing {name} spans"
        # Every verify_batch nests inside a round; kv_rollback inside sample.
        def ancestor_names(span):
            names = set()
            while span.parent is not None:
                span = spans[span.parent]
                names.add(span.name)
            return names

        for span in by_name["verify_batch"]:
            assert "round" in ancestor_names(span)
        for span in by_name.get("kv_rollback", []):
            assert {"sample", "verify_batch", "round"} <= ancestor_names(span)
        assert all(s.end is not None for s in spans)

    def test_each_round_layer_records_one_attend_span(self, traced_run):
        owners = ("prefill", "plain_round", "verify_batch")
        engine, tracer, _ = traced_run
        spans = tracer.spans()
        layers = engine.repository.get(MODEL, WorkloadFamily.LM).model.backbone.num_layers
        attends = {}
        for span in spans:
            if span.name != "attend":
                continue
            assert set(span.attrs) == {"slots", "kv_tokens"}
            assert span.attrs["kv_tokens"] >= span.attrs["slots"] >= 1
            owner = spans[span.parent]
            while owner.name not in owners:
                owner = spans[owner.parent]
            attends[owner.index] = attends.get(owner.index, 0) + 1
        # The run's prompts share one length, so each ``prefill`` span holds
        # one batched pass, like each ``plain_round`` and ``verify_batch``.
        passes = [s.index for s in spans if s.name in owners]
        assert {spans[index].name for index in passes} == set(owners)
        assert attends == {index: layers for index in passes}

    def test_request_lifecycles_cover_queued_prefill_decode(self, traced_run):
        _, tracer, results = traced_run
        phases = {}
        for track, name, start, end, attrs in tracer.lifecycles():
            phases.setdefault(track, []).append((name, start, end, attrs))
        assert len(phases) == len(results)
        for result in results:
            names = [p[0] for p in phases[result.request_id]]
            assert names == ["queued", "prefill", "decode"]
            final = phases[result.request_id][-1]
            assert final[3]["reason"] == result.output.finish_reason
            assert final[3]["tokens"] == len(result.output.token_ids)
            # Contiguous: each phase starts where the previous ended.
            spans = phases[result.request_id]
            for prev, cur in zip(spans, spans[1:]):
                assert cur[1] == pytest.approx(prev[2])

    def test_phase_report_covers_the_round_wall(self, traced_run):
        _, tracer, _ = traced_run
        report = tracer.phase_report()
        assert report.rounds > 0
        assert report.coverage >= 0.9  # acceptance criterion: >= 90 % named
        # Self times never exceed the round wall.
        assert sum(row.self_ms for row in report.rows) <= report.round_ms * 1.001

    def test_chrome_trace_round_trips_and_validates(self, traced_run):
        engine, _, _ = traced_run
        payload = json.dumps(engine.chrome_trace())
        counts = validate_chrome_trace(payload)
        assert counts["B"] == counts["E"] > 0
        assert counts["X"] > 0

    def test_metrics_text_matches_summary(self, traced_run):
        engine, _, results = traced_run
        summary = engine.stats.summary()
        text = engine.metrics_text()
        lines = text.splitlines()

        def sample(name):
            for line in lines:
                if line.startswith(name + " "):
                    return float(line.split()[-1])
            raise AssertionError(f"no sample {name!r} in metrics text")

        assert sample("serve_decode_rounds_total") == summary.decode_rounds
        assert sample("serve_generated_tokens_total") == summary.generated_tokens
        assert sample("serve_draft_proposed_tokens_total") == summary.draft_proposed_tokens
        assert sample("serve_draft_accepted_tokens_total") == summary.draft_accepted_tokens
        assert sample("serve_draft_acceptance_ratio") == pytest.approx(
            summary.draft_acceptance_rate
        )
        finished = sum(
            float(line.split()[-1])
            for line in lines
            if line.startswith("serve_requests_finished_total{")
        )
        assert finished == len(results)
        assert (
            'serve_requests_finished_total'
            '{reason="length",slo_class="default",tenant="-"}'
        ) in text
        assert "serve_ttft_seconds_bucket" in text
        assert "serve_request_latency_seconds_count" in text

    def test_seal_spans_sum_to_the_pages_sealed(self):
        tracer = Tracer()
        engine = ServingEngine(
            ModelRepository(bits=4, seed=0),
            num_slots=2,
            kv_cache_config=KVCacheConfig(bits=4, page_size=8),
            tracer=tracer,
        )
        engine.warm(MODEL, WorkloadFamily.LM)
        tracer.reset()
        registered = engine.page_pool.pages_registered
        # 20-token prompts seal two pages per layer in prefill, one more in decode.
        engine.serve(lm_requests(17, count=2, seq_len=20, max_new_tokens=6))
        spans = tracer.spans()
        seals = [span for span in spans if span.name == "seal"]
        assert seals
        # Prefill and round appends both run inside per-layer ``kv_append``.
        assert {spans[span.parent].name for span in seals} == {"kv_append"}
        sealed = engine.page_pool.pages_registered - registered
        assert sealed > 0
        assert sum(span.attrs["pages"] for span in seals) == sealed
        assert "seal" in {row.name for row in tracer.phase_report().rows}

    def test_untraced_engine_records_no_spans(self):
        engine = ServingEngine(
            ModelRepository(bits=4, seed=0),
            num_slots=2,
            kv_cache_config=KVCacheConfig(bits=4, page_size=8),
        )
        assert engine.tracer.enabled is False
        results = engine.serve(lm_requests(11, count=2, max_new_tokens=4))
        assert all(r.output.finish_reason == "length" for r in results)
        assert engine.phase_report().rounds == 0
        assert engine.chrome_trace()["traceEvents"] == []

    def test_traced_and_untraced_streams_are_identical(self):
        def run(tracer):
            engine = ServingEngine(
                ModelRepository(bits=4, seed=0),
                num_slots=4,
                kv_cache_config=KVCacheConfig(bits=4, page_size=8),
                speculative=TEST_SPEC,
                tracer=tracer,
            )
            results = engine.serve(lm_requests(13, count=3, max_new_tokens=6))
            return [list(r.output.token_ids) for r in results]

        assert run(None) == run(Tracer())

    def test_enabling_an_untraced_engine_traces_it_in_place(self):
        def build():
            return ServingEngine(
                ModelRepository(bits=4, seed=0),
                num_slots=4,
                kv_cache_config=KVCacheConfig(bits=4, page_size=8),
                speculative=TEST_SPEC,
            )

        def serve_twice(engine, enable_between):
            engine.serve(lm_requests(11, count=1, max_new_tokens=4))
            if enable_between:
                assert engine.tracer.num_spans == 0
                assert engine.tracer.lifecycles() == []
                engine.tracer.enable()
            results = engine.serve(lm_requests(13, count=3, max_new_tokens=6))
            return [list(r.output.token_ids) for r in results], results

        traced = build()
        streams, results = serve_twice(traced, enable_between=True)
        assert streams == serve_twice(build(), enable_between=False)[0]
        names = {span.name for span in traced.tracer.spans()}
        # Scheduler, nn and page-pool spans all land on the engine's tracer.
        assert {"round", "attend", "seal"} <= names
        assert traced.phase_report().rounds > 0
        phases = {}
        for track, name, *_ in traced.tracer.lifecycles():
            phases.setdefault(track, []).append(name)
        assert set(phases) == {r.request_id for r in results}
        assert all(seq[:3] == ["queued", "prefill", "decode"] for seq in phases.values())
        validate_chrome_trace(json.dumps(traced.chrome_trace()))

    def test_enabling_a_standalone_scheduler_traces_its_own_pool(self):
        scheduler = ContinuousBatchingScheduler(
            ModelRepository(bits=4, seed=0),
            num_slots=2,
            cache_config=KVCacheConfig(bits=4, page_size=8),
        )
        scheduler.tracer.enable()
        (request,) = lm_requests(19, count=1, seq_len=20, max_new_tokens=4)
        scheduler.submit(request)
        scheduler.run_until_idle()
        assert scheduler.page_pool.pages_registered > 0
        assert {"round", "seal"} <= {span.name for span in scheduler.tracer.spans()}

    def test_cancelled_request_lifecycle_ends_aborted(self):
        tracer = Tracer()
        engine = ServingEngine(
            ModelRepository(bits=4, seed=0),
            num_slots=2,
            kv_cache_config=KVCacheConfig(bits=4, page_size=8),
            tracer=tracer,
        )
        (request,) = lm_requests(17, count=1, max_new_tokens=32)
        engine.submit(request)
        engine.step(force=True)  # admit + first round
        result = engine.cancel(request.request_id)
        assert result.output.finish_reason == "aborted"
        final = [entry for entry in tracer.lifecycles() if entry[0] == request.request_id][-1]
        assert final[4]["reason"] == "aborted"
        validate_chrome_trace(json.dumps(tracer.chrome_trace()))

    def test_async_server_exposes_metrics_and_phase_report(self):
        tracer = Tracer()
        engine = ServingEngine(
            ModelRepository(bits=4, seed=0),
            num_slots=2,
            kv_cache_config=KVCacheConfig(bits=4, page_size=8),
            tracer=tracer,
        )

        async def main():
            async with AsyncServer(engine) as server:
                (request,) = lm_requests(19, count=1, max_new_tokens=4)
                result = await server.infer(request)
                return result, server.metrics_text(), server.phase_report()

        result, text, report = asyncio.run(main())
        assert result.output.finish_reason == "length"
        assert "serve_decode_rounds_total" in text
        assert report.rounds > 0
