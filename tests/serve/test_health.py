"""Health-layer tests: SLO objectives, burn-rate alerting, resource accounting.

The load-bearing guarantees:

* **Determinism** — under a fake clock, a synthetic TTFT degradation fires a
  fast-window burn-rate ``HealthEvent`` at a reproducible evaluation and later
  resolves with hysteresis; the firing and resolving events share a
  ``correlation_id``.
* **Registry consistency** — the SLO layer *reads* the same instruments
  ``ServingStats`` writes, so attainment/availability always agree with the
  mirrored counters, including on the abort/cancel paths.
* **Resource accounting** — pool sealed/decoded-LRU bytes, per-slot KV bytes,
  queue depth and slot occupancy are live gauges in ``metrics_text()`` and in
  ``health_report()["resources"]``.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.serve import (
    AsyncServer,
    HealthConfig,
    HealthMonitor,
    InferenceRequest,
    KVCacheConfig,
    MetricsRegistry,
    ModelRepository,
    PagePool,
    SamplingParams,
    SLOClass,
    ServingEngine,
    ServingError,
    Tracer,
    WorkloadFamily,
)
from repro.serve.health import BurnRatePolicy, unified_event_log
from repro.serve.stats import DecodeRoundRecord, ServingStats
from repro.serve.telemetry import validate_exposition

MODEL = "gpt2-xl"
VOCAB = 96

#: A bucket bound of stats._LATENCY_BUCKETS (1e-4 * 2**11), so synthetic
#: 0.01 s observations are unambiguously good and 1.0 s ones unambiguously bad.
TTFT_TARGET = 0.2048

FAST_POLICY = BurnRatePolicy(
    fast_window_seconds=60.0,
    slow_window_seconds=1800.0,
    fire_threshold=14.4,
    resolve_threshold=1.0,
)


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def lm_requests(rng_seed, count=3, seq_len=6, max_new_tokens=8, slo_class="default"):
    rng = np.random.default_rng(rng_seed)
    return [
        InferenceRequest(
            MODEL,
            WorkloadFamily.LM,
            rng.integers(0, VOCAB, size=seq_len),
            sampling=SamplingParams(max_new_tokens=max_new_tokens),
            slo_class=slo_class,
        )
        for _ in range(count)
    ]


def record_round(stats, ttfts=(), finishes=(), slo_class="default"):
    """Record one round's worth of the outcomes the SLO layer reads."""
    for ttft in ttfts:
        stats.record_first_token(ttft, slo_class)
    for reason in finishes:
        stats.record_finish(reason, slo_class)
    stats.record_decode_round(
        DecodeRoundRecord(
            active_slots=1, num_slots=4, new_tokens=len(ttfts),
            generated_tokens=len(ttfts), compute_seconds=0.001,
            kv_cache_bytes=0, kv_fp32_bytes=0,
        )
    )


def monitored_stats(clock, classes=None, policy=FAST_POLICY, interval=1.0):
    """A (stats, monitor) pair sharing one registry under ``clock``."""
    stats = ServingStats(clock=clock)
    config = HealthConfig(
        classes=classes or (SLOClass(name="default", ttft_target_seconds=TTFT_TARGET),),
        policy=policy,
        evaluation_interval_seconds=interval,
    )
    return stats, HealthMonitor(stats.registry, config, clock=clock)


# --------------------------------------------------------------------------- #
# Config validation
# --------------------------------------------------------------------------- #
class TestConfigValidation:
    def test_slo_class_rejects_bad_targets(self):
        with pytest.raises(ServingError):
            SLOClass(attainment_target=1.0)  # no budget left to burn
        with pytest.raises(ServingError):
            SLOClass(availability_target=0.0)
        with pytest.raises(ServingError):
            SLOClass(ttft_target_seconds=0.0)
        with pytest.raises(ServingError):
            SLOClass(name="")

    def test_policy_rejects_inverted_windows_and_thresholds(self):
        with pytest.raises(ServingError):
            BurnRatePolicy(fast_window_seconds=60, slow_window_seconds=60)
        with pytest.raises(ServingError):
            BurnRatePolicy(fire_threshold=1.0, resolve_threshold=2.0)
        with pytest.raises(ServingError):
            BurnRatePolicy(fast_window_seconds=-1)

    def test_config_rejects_duplicate_class_names(self):
        with pytest.raises(ServingError):
            HealthConfig(classes=(SLOClass(name="a"), SLOClass(name="a")))
        with pytest.raises(ServingError):
            HealthConfig(classes=())

    def test_config_coerces_string_classes(self):
        config = HealthConfig(classes=("gold", SLOClass(name="bulk")))
        assert [c.name for c in config.classes] == ["gold", "bulk"]
        assert all(isinstance(c, SLOClass) for c in config.classes)

    def test_request_rejects_empty_slo_class(self):
        with pytest.raises(ServingError):
            InferenceRequest(MODEL, WorkloadFamily.LM, np.arange(1, 5), slo_class="")


# --------------------------------------------------------------------------- #
# Attainment from the shared instruments
# --------------------------------------------------------------------------- #
class TestAttainment:
    def test_shared_instruments_render_the_same_whoever_attaches_first(self):
        names = (
            "serve_ttft_seconds",
            "serve_request_latency_seconds",
            "serve_requests_finished_total",
        )

        def headers(monitor_first):
            registry = MetricsRegistry()
            if monitor_first:
                HealthMonitor(registry)
                ServingStats(registry=registry)
            else:
                ServingStats(registry=registry)
                HealthMonitor(registry)
            return sorted(
                line
                for line in registry.render().splitlines()
                if line.startswith(("# HELP", "# TYPE")) and line.split()[2] in names
            )

        monitor_first = headers(True)
        assert len(monitor_first) == 2 * len(names)
        assert monitor_first == headers(False)

    def test_ttft_attainment_reads_histogram_buckets(self):
        clock = FakeClock()
        stats, monitor = monitored_stats(clock)
        record_round(stats, ttfts=(0.01, 0.01, 0.01, 1.0))
        monitor.evaluate()
        report = monitor.report()
        ttft = report["slo"]["default"]["ttft"]
        assert ttft["attainment"] == pytest.approx(0.75)
        assert ttft["events"] == 4
        assert ttft["threshold_seconds"] == TTFT_TARGET

    def test_availability_counts_errors_not_aborts(self):
        clock = FakeClock()
        stats, monitor = monitored_stats(clock)
        record_round(stats, finishes=("stop", "length", "error", "aborted"))
        monitor.evaluate()
        availability = monitor.report()["slo"]["default"]["availability"]
        # 2 good (stop+length), 1 bad (error); aborted is client-initiated.
        assert availability["events"] == 3
        assert availability["attainment"] == pytest.approx(2 / 3)

    def test_unconfigured_class_is_recorded_but_not_evaluated(self):
        clock = FakeClock()
        stats, monitor = monitored_stats(clock)
        record_round(stats, ttfts=(1.0,), slo_class="mystery")
        monitor.evaluate()
        assert "mystery" not in monitor.report()["slo"]
        # The observation still exists in the labeled histogram.
        hist = stats.registry.get("serve_ttft_seconds")
        assert hist.count_value(slo_class="mystery") == 1

    def test_attainment_gauges_render_per_class_and_objective(self):
        clock = FakeClock()
        stats, monitor = monitored_stats(
            clock,
            classes=(
                SLOClass(name="default", ttft_target_seconds=TTFT_TARGET),
                SLOClass(name="gold", ttft_target_seconds=TTFT_TARGET),
            ),
        )
        record_round(stats, ttfts=(0.01,), slo_class="gold")
        monitor.evaluate()
        text = stats.metrics_text()
        assert 'serve_slo_attainment{slo_class="gold",objective="ttft"} 1' in text
        assert 'serve_slo_attainment{slo_class="default",objective="latency"} 1' in text
        assert 'serve_slo_burn_rate{slo_class="gold",objective="ttft",window="fast"}' in text
        validate_exposition(text)


# --------------------------------------------------------------------------- #
# Burn-rate alerting: fire, hysteresis, resolve (the acceptance criterion)
# --------------------------------------------------------------------------- #
class TestBurnRateAlerting:
    def run_traffic(self, stats, monitor, clock, ttft, rounds, step_seconds=6.0,
                    per_round=10):
        """Record ``rounds`` rounds of uniform traffic; returns emitted events."""
        events = []
        for _ in range(rounds):
            record_round(stats, ttfts=(ttft,) * per_round)
            clock.advance(step_seconds)
            events.extend(monitor.evaluate())
        return events

    def test_degradation_fires_and_recovery_resolves_with_hysteresis(self):
        clock = FakeClock()
        stats, monitor = monitored_stats(clock)
        # Healthy prelude: no events.
        assert self.run_traffic(stats, monitor, clock, 0.01, rounds=10) == []
        assert not monitor.firing
        # Synthetic TTFT degradation: every first token takes 1 s.
        fired = self.run_traffic(stats, monitor, clock, 1.0, rounds=10)
        assert len(fired) == 1 and fired[0].state == "firing"
        assert fired[0].objective == "ttft" and fired[0].slo_class == "default"
        assert fired[0].burn_fast >= FAST_POLICY.fire_threshold
        assert fired[0].burn_slow >= FAST_POLICY.fire_threshold
        assert monitor.firing
        assert monitor.report()["status"] == "degraded"
        assert monitor.report()["alerts"][0]["correlation_id"] == fired[0].correlation_id
        # Recovery: good traffic cools the fast window below resolve_threshold
        # (1.0) even though the slow window is still hot — hysteresis resolves
        # on the fast window only.
        resolved = self.run_traffic(stats, monitor, clock, 0.01, rounds=40)
        assert len(resolved) == 1 and resolved[0].state == "resolved"
        assert resolved[0].correlation_id == fired[0].correlation_id
        assert resolved[0].burn_fast <= FAST_POLICY.resolve_threshold
        assert resolved[0].burn_slow > FAST_POLICY.resolve_threshold
        assert not monitor.firing
        assert monitor.report()["status"] == "ok"
        assert monitor.report()["alerts"] == []

    def test_determinism_same_traffic_same_events(self):
        def run():
            clock = FakeClock()
            stats, monitor = monitored_stats(clock)
            self.run_traffic(stats, monitor, clock, 0.01, rounds=5)
            self.run_traffic(stats, monitor, clock, 1.0, rounds=12)
            self.run_traffic(stats, monitor, clock, 0.01, rounds=30)
            return monitor.jsonl()

        first, second = run(), run()
        assert first == second
        assert len(first.splitlines()) == 2  # exactly one fire + one resolve

    def test_alert_does_not_flap_inside_the_hysteresis_band(self):
        clock = FakeClock()
        stats, monitor = monitored_stats(clock)
        self.run_traffic(stats, monitor, clock, 1.0, rounds=10)
        assert monitor.firing
        # 5 % bad traffic keeps the fast burn ~5 — above resolve (1.0), below
        # fire (14.4): the alert must neither resolve nor re-fire.
        events = []
        for _ in range(30):
            record_round(stats, ttfts=(0.01,) * 19 + (1.0,))
            clock.advance(6.0)
            events.extend(monitor.evaluate())
        assert events == []
        assert monitor.firing

    def test_refire_gets_a_fresh_correlation_id(self):
        clock = FakeClock()
        stats, monitor = monitored_stats(clock)
        first = self.run_traffic(stats, monitor, clock, 1.0, rounds=10)
        self.run_traffic(stats, monitor, clock, 0.01, rounds=40)
        # Second incident: the slow window must heat past the threshold again.
        second = self.run_traffic(stats, monitor, clock, 1.0, rounds=60)
        fire_ids = [e.correlation_id for e in first + second if e.state == "firing"]
        assert len(fire_ids) == 2 and fire_ids[0] != fire_ids[1]

    def test_brief_spike_does_not_page(self):
        clock = FakeClock()
        stats, monitor = monitored_stats(clock)
        # A long healthy history, then one bad burst: the fast window burns
        # hot but the slow window (diluted by history) stays cold.
        self.run_traffic(stats, monitor, clock, 0.01, rounds=300)
        events = self.run_traffic(stats, monitor, clock, 1.0, rounds=1, per_round=100)
        assert events == []
        assert not monitor.firing
        state = monitor.report()["slo"]["default"]["ttft"]
        assert state["burn_fast"] >= FAST_POLICY.fire_threshold
        assert state["burn_slow"] < FAST_POLICY.fire_threshold

    def test_maybe_evaluate_rate_limits(self):
        clock = FakeClock()
        stats, monitor = monitored_stats(clock, interval=10.0)
        assert monitor.maybe_evaluate() is True
        assert monitor.maybe_evaluate() is False
        clock.advance(10.0)
        assert monitor.maybe_evaluate() is True

    def test_budget_counter_accumulates_bad_events(self):
        clock = FakeClock()
        stats, monitor = monitored_stats(clock)
        self.run_traffic(stats, monitor, clock, 1.0, rounds=3, per_round=5)
        used = stats.registry.get("serve_slo_budget_events_total")
        assert used.value(slo_class="default", objective="ttft") == 15


# --------------------------------------------------------------------------- #
# Unified event log
# --------------------------------------------------------------------------- #
class TestUnifiedEventLog:
    def test_merges_spans_and_events_time_ordered(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        stats, monitor = monitored_stats(clock)
        with tracer.span("round"):
            clock.advance(0.5)
        for _ in range(10):
            record_round(stats, ttfts=(1.0,) * 10)
            clock.advance(6.0)
            monitor.evaluate()
        with tracer.span("round"):
            clock.advance(0.5)
        log = unified_event_log(tracer, monitor)
        lines = [json.loads(line) for line in log.splitlines()]
        kinds = {line["type"] for line in lines}
        assert "span" in kinds and "event" in kinds
        stamps = [line["ts_us"] for line in lines]
        assert stamps == sorted(stamps)
        # Shared epoch: the earliest line sits at zero.
        assert stamps[0] == 0.0
        event = next(line for line in lines if line["type"] == "event")
        assert event["correlation_id"].startswith("alert-")

    def test_empty_sides_yield_empty_log(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        stats, monitor = monitored_stats(clock)
        assert unified_event_log(tracer, monitor) == ""
        assert unified_event_log(tracer, None) == ""


# --------------------------------------------------------------------------- #
# Resource accounting
# --------------------------------------------------------------------------- #
class TestResourceAccounting:
    def test_pool_sealed_bytes_tracks_register_and_release(self):
        pool = PagePool()
        payload = np.zeros((2, 4), dtype=np.float32)
        handle = pool.register(payload)
        assert pool.sealed_bytes == handle.nbytes_resident > 0
        pool.incref(handle)
        assert pool.sealed_bytes == handle.nbytes_resident  # refs don't double-count
        pool.release(handle)
        assert pool.sealed_bytes == handle.nbytes_resident
        pool.release(handle)
        assert pool.sealed_bytes == 0
        # Resurrection through the prefix-index path re-admits the bytes.
        pool.incref(handle)
        assert pool.sealed_bytes == handle.nbytes_resident
        pool.release(handle)
        assert pool.sealed_bytes == 0
        assert "sealed_bytes" in pool.stats()

    def test_mid_flight_snapshot_names_top_consumers(self):
        engine = ServingEngine(
            ModelRepository(bits=4, seed=0),
            num_slots=2,
            kv_cache_config=KVCacheConfig(bits=4, page_size=8),
        )
        engine.warm(MODEL, WorkloadFamily.LM)
        for request in lm_requests(3, count=3, max_new_tokens=16, slo_class="gold"):
            engine.submit(request)
        for _ in range(4):
            engine.step(force=True)
        snapshot = engine.lm_scheduler.resource_snapshot()
        assert snapshot["active_slots"] == snapshot["num_slots"] == 2
        assert snapshot["queue_depth"] == 1
        assert snapshot["kv_cache_bytes"] > 0
        assert snapshot["pool"]["sealed_bytes"] > 0
        top = snapshot["top_consumers"]
        assert len(top) == 2
        assert top[0]["kv_bytes"] >= top[1]["kv_bytes"] > 0
        assert all(c["slo_class"] == "gold" for c in top)
        # The same accounting reaches the gauges once a round is recorded.
        text = engine.metrics_text()
        assert "serve_queue_depth 1" in text
        assert "serve_pool_sealed_bytes" in text
        assert 'serve_slot_kv_bytes{slot="0"}' in text
        engine.run_until_idle()
        end = engine.lm_scheduler.resource_snapshot()
        assert end["active_slots"] == 0 and end["top_consumers"] == []


# --------------------------------------------------------------------------- #
# Engine / AsyncServer integration
# --------------------------------------------------------------------------- #
class TestEngineIntegration:
    def test_health_report_shape_and_exposition_self_check(self):
        engine = ServingEngine(
            ModelRepository(bits=4, seed=0),
            num_slots=2,
            kv_cache_config=KVCacheConfig(bits=4, page_size=8),
            health=True,
        )
        engine.warm(MODEL, WorkloadFamily.LM)
        engine.serve(lm_requests(11, count=3, max_new_tokens=6))
        report = engine.health_report()
        assert set(report) == {"status", "slo", "alerts", "resources"}
        assert report["status"] in ("ok", "degraded")
        ttft = report["slo"]["default"]["ttft"]
        assert set(ttft) == {
            "attainment", "target", "threshold_seconds", "events",
            "burn_fast", "burn_slow", "firing",
        }
        assert ttft["events"] == 3
        assert report["resources"]["num_slots"] == 2
        assert report["resources"]["batcher_depth"] == 0
        # Acceptance criterion: SLO gauges and resource gauges render, and
        # the whole exposition passes the format self-check.
        text = engine.metrics_text()
        assert "serve_slo_attainment{" in text
        assert "serve_pool_sealed_bytes" in text
        assert "serve_kv_cache_bytes" in text
        counts = validate_exposition(text)
        assert counts["samples"] > 50

    def test_engine_without_health_still_reports_resources(self):
        engine = ServingEngine(
            ModelRepository(bits=4, seed=0),
            num_slots=2,
            kv_cache_config=KVCacheConfig(bits=4, page_size=8),
        )
        assert engine.health is None
        report = engine.health_report()
        assert report["status"] == "ok" and report["slo"] == {}
        assert report["resources"]["active_slots"] == 0

    def test_impossible_ttft_target_degrades_the_engine(self):
        # The smallest bucket bound (0.1 ms) is unreachable for a real decode
        # round, so every TTFT observation burns budget and the alert fires
        # on the first evaluation (both windows agree from a cold start).
        engine = ServingEngine(
            ModelRepository(bits=4, seed=0),
            num_slots=2,
            kv_cache_config=KVCacheConfig(bits=4, page_size=8),
            health=SLOClass(name="default", ttft_target_seconds=1e-4),
        )
        engine.warm(MODEL, WorkloadFamily.LM)
        engine.serve(lm_requests(13, count=2, max_new_tokens=4))
        report = engine.health_report()
        assert report["status"] == "degraded"
        assert report["slo"]["default"]["ttft"]["firing"] is True
        assert report["slo"]["default"]["ttft"]["attainment"] == 0.0
        assert report["alerts"][0]["objective"] == "ttft"
        log = engine.event_log()
        assert any(
            json.loads(line)["type"] == "event" for line in log.splitlines()
        )

    def test_shared_monitor_must_share_the_registry(self):
        foreign = HealthMonitor(ServingStats().registry)
        with pytest.raises(ServingError):
            ServingEngine(ModelRepository(bits=4, seed=0), health=foreign)
        with pytest.raises(ServingError):
            ServingEngine(ModelRepository(bits=4, seed=0), health=object())

    def test_write_event_log(self, tmp_path):
        engine = ServingEngine(
            ModelRepository(bits=4, seed=0),
            num_slots=2,
            kv_cache_config=KVCacheConfig(bits=4, page_size=8),
            tracer=Tracer(),
            health=SLOClass(name="default", ttft_target_seconds=1e-4),
        )
        engine.warm(MODEL, WorkloadFamily.LM)
        engine.serve(lm_requests(17, count=2, max_new_tokens=4))
        path = tmp_path / "events.jsonl"
        lines = engine.write_event_log(path)
        assert lines == len(path.read_text().splitlines()) > 0

    def test_async_server_health_report(self):
        async def main():
            engine = ServingEngine(
                ModelRepository(bits=4, seed=0),
                num_slots=2,
                kv_cache_config=KVCacheConfig(bits=4, page_size=8),
                max_wait=0.001,
                health=True,
            )
            engine.warm(MODEL, WorkloadFamily.LM)
            async with AsyncServer(engine) as server:
                await asyncio.gather(
                    *(server.infer(r) for r in lm_requests(19, count=2, max_new_tokens=4))
                )
                return server.health_report()

        report = asyncio.run(main())
        assert report["slo"]["default"]["availability"]["events"] == 2
        assert report["resources"]["active_slots"] == 0


# --------------------------------------------------------------------------- #
# Registry mirroring on the abort/cancel paths
# --------------------------------------------------------------------------- #
class TestRegistryMirrorOnCancel:
    def finished_by_reason(self, registry):
        counter = registry.get("serve_requests_finished_total")
        return {
            reason: counter.value_sum(reason=reason, slo_class="default")
            for reason in ("stop", "length", "aborted", "error", "deadline")
        }

    def test_cancel_mid_round_keeps_registry_and_summary_consistent(self):
        engine = ServingEngine(
            ModelRepository(bits=4, seed=0),
            num_slots=4,
            kv_cache_config=KVCacheConfig(bits=4, page_size=8),
        )
        engine.warm(MODEL, WorkloadFamily.LM)
        requests = lm_requests(23, count=3, max_new_tokens=12)
        for request in requests:
            engine.submit(request)
        # A few rounds in, every slot has streamed at least its first token.
        for _ in range(3):
            engine.step(force=True)
        cancelled = engine.cancel(requests[1].request_id)
        assert cancelled.finish_reason == "aborted"
        engine.run_until_idle()

        summary = engine.stats.summary()
        mirrored = self.finished_by_reason(engine.stats.registry)
        assert mirrored == summary.finish_reasons
        assert mirrored["aborted"] == 1
        assert sum(mirrored.values()) == len(requests)
        # TTFT was observed once per request that produced a first token —
        # the cancelled one included — and latency once per finished request.
        registry = engine.stats.registry
        assert registry.get("serve_ttft_seconds").count == len(requests)
        assert registry.get("serve_request_latency_seconds").count == len(requests)
        assert summary.requests == len(requests)

    def test_cancel_while_queued_mirrors_without_ttft(self):
        engine = ServingEngine(
            ModelRepository(bits=4, seed=0),
            num_slots=1,
            kv_cache_config=KVCacheConfig(bits=4, page_size=8),
        )
        engine.warm(MODEL, WorkloadFamily.LM)
        active, queued = lm_requests(29, count=2, max_new_tokens=6)
        engine.submit(active)
        engine.submit(queued)
        engine.step(force=True)  # `active` takes the only slot
        engine.cancel(queued.request_id)
        engine.run_until_idle()
        summary = engine.stats.summary()
        mirrored = self.finished_by_reason(engine.stats.registry)
        assert mirrored == summary.finish_reasons
        assert mirrored["aborted"] == 1
        # The queued request never decoded: exactly one TTFT observation, but
        # two completion latencies (cancellation is a completion).
        registry = engine.stats.registry
        assert registry.get("serve_ttft_seconds").count == 1
        assert registry.get("serve_request_latency_seconds").count == 2

    def test_abandoned_async_stream_mirrors_as_aborted(self):
        async def main():
            engine = ServingEngine(
                ModelRepository(bits=4, seed=0),
                num_slots=2,
                kv_cache_config=KVCacheConfig(bits=4, page_size=8),
                max_wait=0.001,
            )
            engine.warm(MODEL, WorkloadFamily.LM)
            async with AsyncServer(engine) as server:
                request = lm_requests(31, count=1, max_new_tokens=32)[0]
                seen = 0
                async for chunk in server.stream(request):
                    seen += 1
                    if seen == 2:
                        break  # abandon mid-generation
            return engine, seen

        engine, seen = asyncio.run(main())
        assert seen == 2
        summary = engine.stats.summary()
        mirrored = TestRegistryMirrorOnCancel.finished_by_reason(self, engine.stats.registry)
        assert mirrored == summary.finish_reasons
        assert mirrored["aborted"] == 1 and summary.finish_aborted == 1
        # The stream produced tokens before abandonment, so TTFT exists and
        # stays consistent between the histogram and the summary window.
        registry = engine.stats.registry
        assert registry.get("serve_ttft_seconds").count == 1
        assert registry.get("serve_request_latency_seconds").count == 1
        assert summary.ttft_p95_ms > 0
