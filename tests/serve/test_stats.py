"""Serving-stats aggregation tests (synthetic batch records, fake clock)."""

import sys
import threading

import pytest

from repro.serve.stats import BatchRecord, ServingStats


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def record(batch_size=4, compute=0.010, latencies=(0.011, 0.012, 0.013, 0.014)):
    return BatchRecord(
        batch_size=batch_size,
        max_batch_size=8,
        compute_seconds=compute,
        tokens=batch_size * 16,
        weight_stream_bytes=1000,
        dram_bytes=5000.0,
        latencies=latencies[:batch_size],
    )


class TestSummary:
    def test_empty_summary_is_zeroed(self):
        summary = ServingStats().summary()
        assert summary.requests == 0
        assert summary.throughput_rps == 0.0
        assert summary.latency_p95_ms == 0.0

    def test_aggregation(self):
        clock = FakeClock()
        stats = ServingStats(clock=clock)
        stats.record_batch(record())
        clock.now += 0.05
        stats.record_batch(record(batch_size=2, latencies=(0.020, 0.030)))
        summary = stats.summary()
        assert summary.requests == 6
        assert summary.batches == 2
        assert summary.tokens == 6 * 16
        assert summary.compute_seconds == pytest.approx(0.020)
        # Window: first record back-dates its compute time, then +0.05 s.
        assert summary.wall_seconds == pytest.approx(0.060)
        assert summary.throughput_rps == pytest.approx(6 / 0.060)
        assert summary.mean_batch_fill == pytest.approx((4 / 8 + 2 / 8) / 2)
        assert summary.weight_stream_bytes == 2000
        assert summary.dram_bytes == pytest.approx(10000.0)

    def test_percentiles_ordered(self):
        stats = ServingStats(clock=FakeClock())
        stats.record_batch(record(latencies=(0.001, 0.002, 0.003, 0.100)))
        summary = stats.summary()
        assert summary.latency_p50_ms < summary.latency_p95_ms
        assert summary.latency_mean_ms == pytest.approx(26.5)

    def test_record_window_is_bounded(self):
        clock = FakeClock()
        stats = ServingStats(clock=clock, max_records=3)
        for _ in range(10):
            clock.now += 0.01
            stats.record_batch(record(batch_size=2, latencies=(0.01, 0.02)))
        assert stats.num_batches == 3  # oldest evicted
        summary = stats.summary()
        assert summary.batches == 3
        assert summary.requests == 6
        # Window spans the three retained records only: 2 × 0.01 s gaps plus
        # the first retained record's compute time.
        assert summary.wall_seconds == pytest.approx(0.02 + 0.010)

    def test_reset_clears_window(self):
        stats = ServingStats(clock=FakeClock())
        stats.record_batch(record())
        stats.reset()
        assert stats.summary().requests == 0
        assert stats.num_batches == 0

    def test_as_dict_round_trips_fields(self):
        stats = ServingStats(clock=FakeClock())
        stats.record_batch(record())
        d = stats.summary().as_dict()
        assert d["requests"] == 4
        assert d["batches"] == 1
        assert d["mean_batch_fill"] == 0.5


class TestPercentileHardening:
    """Regression: percentile fields are NaN-free zeros and round
    consistently when no completed requests exist, and one non-finite
    measurement never poisons the window aggregates."""

    def _round(self, **overrides):
        from repro.serve.stats import DecodeRoundRecord

        base = dict(
            active_slots=2, num_slots=4, new_tokens=10, generated_tokens=2,
            compute_seconds=0.01, kv_cache_bytes=100, kv_fp32_bytes=800,
        )
        base.update(overrides)
        return DecodeRoundRecord(**base)

    @staticmethod
    def _assert_finite(summary):
        import json

        import numpy as np

        payload = summary.as_dict()
        for key, value in payload.items():
            if isinstance(value, float):
                assert np.isfinite(value), f"{key} is not finite: {value}"
        json.dumps(payload, allow_nan=False)  # raises on NaN/Inf

    def test_no_completed_requests_reports_exact_zero_percentiles(self):
        stats = ServingStats(clock=FakeClock())
        stats.record_decode_round(self._round())  # in-flight, nothing retired
        summary = stats.summary()
        for field in (
            "latency_mean_ms", "latency_p50_ms", "latency_p95_ms",
            "ttft_p50_ms", "ttft_p95_ms",
            "inter_token_p50_ms", "inter_token_p95_ms",
        ):
            value = getattr(summary, field)
            assert isinstance(value, float) and value == 0.0
        assert summary.requests == 0
        self._assert_finite(summary)

    def test_non_finite_measurements_do_not_poison_the_window(self):
        stats = ServingStats(clock=FakeClock())
        stats.record_finish("length", latency=float("nan"))
        stats.record_finish("length", latency=0.02)
        stats.record_first_token(float("inf"))
        stats.record_first_token(0.001)
        stats.record_token_gap(float("nan"))
        stats.record_decode_round(self._round(compute_seconds=float("nan")))
        summary = stats.summary()
        self._assert_finite(summary)
        assert summary.requests == 1          # the finite latency survives
        assert summary.latency_p50_ms == pytest.approx(20.0)
        assert summary.ttft_p50_ms == pytest.approx(1.0)
        assert summary.inter_token_p50_ms == 0.0

    def test_outcomes_no_round_filed_span_their_longest_request(self):
        stats = ServingStats(clock=FakeClock())
        stats.record_finish("aborted", latency=0.5)
        stats.record_finish("deadline", latency=0.25)
        summary = stats.summary()
        assert summary.decode_rounds == 0
        assert summary.finish_aborted == summary.finish_deadline == 1
        assert summary.wall_seconds == pytest.approx(0.5)
        assert summary.throughput_rps == pytest.approx(4.0)
        self._assert_finite(summary)

    def test_non_finite_batch_compute_keeps_wall_finite(self):
        stats = ServingStats(clock=FakeClock())
        stats.record_batch(
            BatchRecord(
                batch_size=1, max_batch_size=4, compute_seconds=float("nan"),
                tokens=4, weight_stream_bytes=0, dram_bytes=0.0,
                latencies=(0.005,),
            )
        )
        summary = stats.summary()
        self._assert_finite(summary)
        assert summary.wall_seconds > 0.0


class TestThreadSafety:
    """Regression: recording and summarising from different threads must not
    corrupt the windows or the metrics registry — the async server reads
    ``metrics_text()`` from request handlers while the scheduler records."""

    def test_two_thread_hammer_record_vs_summary(self):
        from repro.serve.stats import DecodeRoundRecord

        stats = ServingStats()
        rounds = 500
        errors = []
        start = threading.Barrier(2)

        def writer():
            start.wait()
            try:
                for i in range(rounds):
                    stats.record_batch(record())
                    stats.record_first_token(0.001)
                    stats.record_token_gap(0.0005)
                    stats.record_finish("length", latency=0.01)
                    stats.record_decode_round(
                        DecodeRoundRecord(
                            active_slots=1 + i % 4, num_slots=4, new_tokens=4,
                            generated_tokens=4, compute_seconds=0.0001,
                            kv_cache_bytes=100, kv_fp32_bytes=800,
                        )
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reader():
            start.wait()
            try:
                for _ in range(rounds):
                    summary = stats.summary()
                    assert summary.requests >= 0
                    assert "serve_decode_rounds_total" in stats.metrics_text()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Nothing dropped: the cumulative counters saw every round.
        registry = stats.registry
        assert registry.get("serve_decode_rounds_total").value() == rounds
        assert registry.get("serve_batches_total").value() == rounds
        assert registry.get("serve_requests_finished_total").value_sum(
            reason="length", slo_class="default"
        ) == rounds
        final = stats.summary()
        assert final.decode_rounds == stats.num_decode_rounds


    def test_outcomes_from_many_threads_are_all_counted(self):
        """Outcomes recorded while other threads file rounds: the summary
        and the registry each count every one exactly once."""
        from repro.serve.stats import DecodeRoundRecord

        writers, per_writer = 8, 1500
        stats = ServingStats(max_records=writers * per_writer)
        start = threading.Barrier(writers)

        def writer():
            start.wait()
            for _ in range(per_writer):
                stats.record_finish("length", latency=0.01)
                stats.record_preemption()
                stats.record_decode_round(
                    DecodeRoundRecord(
                        active_slots=1, num_slots=4, new_tokens=1,
                        generated_tokens=1, compute_seconds=0.0001,
                        kv_cache_bytes=0, kv_fp32_bytes=0,
                    )
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer) for _ in range(writers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        total = writers * per_writer
        summary = stats.summary()
        assert summary.finish_length == summary.requests == total
        assert summary.decode_rounds == summary.preemptions == total
        finished = stats.registry.get("serve_requests_finished_total")
        assert finished.value_sum(reason="length") == total


class TestMetricsText:
    def test_metrics_text_tracks_summary(self):
        from repro.serve.stats import DecodeRoundRecord

        stats = ServingStats(clock=FakeClock())
        stats.record_batch(record())
        stats.record_decode_round(
            DecodeRoundRecord(
                active_slots=2, num_slots=4, new_tokens=6, generated_tokens=3,
                compute_seconds=0.01, kv_cache_bytes=128, kv_fp32_bytes=1024,
                pool_hits=3, pool_misses=1,
                draft_proposed_tokens=4, draft_accepted_tokens=2,
            )
        )
        text = stats.metrics_text()
        lines = text.splitlines()
        assert "serve_batches_total 1" in lines
        assert "serve_decode_rounds_total 1" in lines
        assert "serve_generated_tokens_total 3" in lines
        assert "serve_pool_hits_total 3" in lines
        assert "serve_kv_cache_bytes 128" in lines
        assert "serve_draft_acceptance_ratio 0.5" in lines
        assert "serve_pool_hit_rate 0.75" in lines

    def test_shared_registry_rolls_up_two_workers(self):
        from repro.serve.stats import DecodeRoundRecord
        from repro.serve.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        workers = [ServingStats(registry=registry) for _ in range(2)]
        for worker in workers:
            worker.record_decode_round(
                DecodeRoundRecord(
                    active_slots=1, num_slots=2, new_tokens=2, generated_tokens=2,
                    compute_seconds=0.001, kv_cache_bytes=0, kv_fp32_bytes=0,
                )
            )
        assert registry.get("serve_decode_rounds_total").value() == 2
        # Each worker's windowed summary stays its own.
        assert all(w.summary().decode_rounds == 1 for w in workers)


class TestDraftCounters:
    def test_acceptance_rate_aggregates_over_rounds(self):
        from repro.serve.stats import DecodeRoundRecord

        stats = ServingStats(clock=FakeClock())
        for proposed, accepted in ((4, 3), (2, 0), (0, 0)):
            stats.record_decode_round(
                DecodeRoundRecord(
                    active_slots=1, num_slots=2, new_tokens=1, generated_tokens=1,
                    compute_seconds=0.001, kv_cache_bytes=0, kv_fp32_bytes=0,
                    draft_proposed_tokens=proposed, draft_accepted_tokens=accepted,
                )
            )
        summary = stats.summary()
        assert summary.draft_proposed_tokens == 6
        assert summary.draft_accepted_tokens == 3
        assert summary.draft_acceptance_rate == pytest.approx(0.5)
        assert summary.as_dict()["draft_acceptance_rate"] == pytest.approx(0.5)

    def test_acceptance_rate_zero_when_nothing_proposed(self):
        from repro.serve.stats import DecodeRoundRecord

        record = DecodeRoundRecord(
            active_slots=1, num_slots=2, new_tokens=1, generated_tokens=1,
            compute_seconds=0.001, kv_cache_bytes=0, kv_fp32_bytes=0,
        )
        assert record.draft_acceptance_rate == 0.0
        stats = ServingStats(clock=FakeClock())
        stats.record_decode_round(record)
        assert stats.summary().draft_acceptance_rate == 0.0
