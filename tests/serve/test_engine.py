"""Inference-engine and synchronous scheduler tests for all three families."""

import numpy as np
import pytest

from repro.serve.batcher import QueuedRequest
from repro.serve.engine import InferenceEngine, ServingEngine
from repro.serve.repository import ModelRepository
from repro.serve.requests import InferenceRequest, ServingError, WorkloadFamily
from repro.serve.sampling import SamplingParams


@pytest.fixture(scope="module")
def repo():
    return ModelRepository(bits=4, seed=0)


@pytest.fixture(scope="module")
def engine(repo):
    return InferenceEngine(repo)


def make_requests(n, model, family, seq_len=16, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    return [
        InferenceRequest(model, family, rng.integers(0, 96, size=seq_len), **kwargs)
        for _ in range(n)
    ]


def queued(requests):
    return [QueuedRequest(request=r, enqueued_at=0.0) for r in requests]


class TestFamilies:
    def test_classify_outputs(self, engine):
        requests = make_requests(3, "bert-base", WorkloadFamily.CLASSIFY, num_classes=3)
        results, record = engine.run_batch(queued(requests))
        assert len(results) == 3
        for result in results:
            assert 0 <= result.output["label"] < 3
            assert len(result.output["probs"]) == 3
            assert sum(result.output["probs"]) == pytest.approx(1.0)
        assert record.batch_size == 3
        assert record.tokens == 3 * 16

    def test_regression_outputs_score(self, engine):
        requests = make_requests(2, "bert-base", WorkloadFamily.CLASSIFY, num_classes=1)
        results, _ = engine.run_batch(queued(requests))
        for result in results:
            assert isinstance(result.output["score"], float)

    def test_span_outputs(self, engine):
        requests = make_requests(3, "bert-base", WorkloadFamily.SPAN, seq_len=24)
        results, _ = engine.run_batch(queued(requests))
        for result in results:
            assert 0 <= result.output["start"] <= result.output["end"] < 24

    def test_lm_outputs(self, engine):
        requests = make_requests(
            2, "gpt2-xl", WorkloadFamily.LM, sampling=SamplingParams(logprobs=5)
        )
        results, _ = engine.run_batch(queued(requests))
        for result in results:
            assert len(result.output.next_tokens) == 5
            log_probs = result.output.log_probs
            assert all(b <= a for a, b in zip(log_probs, log_probs[1:]))

    def test_num_classes_does_not_fragment_lm_batches(self):
        rng = np.random.default_rng(12)
        tokens = rng.integers(0, 96, size=16)
        a = InferenceRequest("gpt2-xl", WorkloadFamily.LM, tokens, num_classes=2)
        b = InferenceRequest("gpt2-xl", WorkloadFamily.LM, tokens, num_classes=5)
        assert a.batch_key == b.batch_key
        # ...while classifiers with different heads stay separate.
        c = InferenceRequest("bert-base", WorkloadFamily.CLASSIFY, tokens, num_classes=2)
        d = InferenceRequest("bert-base", WorkloadFamily.CLASSIFY, tokens, num_classes=5)
        assert c.batch_key != d.batch_key

    def test_lm_top_k_is_per_request_within_a_batch(self, engine):
        """Different logprobs values batch together and each gets its own k."""
        rng = np.random.default_rng(9)
        tokens = rng.integers(0, 96, size=16)
        requests = [
            InferenceRequest(
                "gpt2-xl", WorkloadFamily.LM, tokens, sampling=SamplingParams(logprobs=k)
            )
            for k in (1, 5, 3)
        ]
        assert len({r.batch_key for r in requests}) == 1  # still one batch
        results, record = engine.run_batch(queued(requests))
        assert record.batch_size == 3
        assert [len(r.output.next_tokens) for r in results] == [1, 5, 3]
        # Same input row: the top-1 candidate must agree across k values.
        assert results[0].output.next_tokens[0] == results[1].output.next_tokens[0]

    def test_batched_equals_unbatched(self, engine):
        """Batch membership must not change any request's answer.

        The served model computes in float32, where GEMMs over different row
        counts round differently: probabilities agree within 1e-6 (1.8e-7
        measured), labels exactly.
        """
        requests = make_requests(4, "bert-base", WorkloadFamily.CLASSIFY, seed=3)
        batched, _ = engine.run_batch(queued(requests))
        for request, batched_result in zip(requests, batched):
            solo, _ = engine.run_batch(queued([request]))
            assert solo[0].output["label"] == batched_result.output["label"]
            np.testing.assert_allclose(
                solo[0].output["probs"], batched_result.output["probs"], atol=1e-6
            )

    def test_empty_batch_rejected(self, engine):
        with pytest.raises(ServingError):
            engine.run_batch([])

    def test_mixed_batch_rejected(self, engine):
        mixed = queued(
            make_requests(1, "bert-base", WorkloadFamily.CLASSIFY)
            + make_requests(1, "bert-base", WorkloadFamily.SPAN)
        )
        with pytest.raises(ServingError):
            engine.run_batch(mixed)

    def test_generation_request_rejected(self, engine):
        """Generation runs on the scheduler; the micro-batch path refuses it."""
        requests = make_requests(
            1, "gpt2-xl", WorkloadFamily.LM, sampling=SamplingParams(max_new_tokens=2)
        )
        with pytest.raises(ServingError, match="generates tokens"):
            engine.run_batch(queued(requests))

    def test_traffic_accounting_positive(self, engine):
        requests = make_requests(2, "bert-base", WorkloadFamily.CLASSIFY)
        _, record = engine.run_batch(queued(requests))
        assert record.weight_stream_bytes > 0
        assert record.dram_bytes > record.weight_stream_bytes


class TestServingEngine:
    def test_serve_returns_results_in_request_order(self):
        serving = ServingEngine(max_batch_size=4, max_wait=0.0)
        requests = make_requests(6, "bert-base", WorkloadFamily.CLASSIFY, seed=1)
        results = serving.serve(requests)
        assert [r.request_id for r in results] == [r.request_id for r in requests]
        assert {r.batch_size for r in results} == {4, 2}

    def test_mixed_workloads_served_together(self):
        serving = ServingEngine(max_batch_size=4, max_wait=0.0)
        requests = (
            make_requests(3, "bert-base", WorkloadFamily.CLASSIFY, seed=2)
            + make_requests(3, "bert-base", WorkloadFamily.SPAN, seed=3)
            + make_requests(3, "gpt2-xl", WorkloadFamily.LM, seed=4)
        )
        results = serving.serve(requests)
        assert [r.family for r in results] == [r.family for r in requests]
        summary = serving.stats.summary()
        assert summary.requests == 9
        assert summary.batches == 3
        assert summary.throughput_rps > 0
        assert summary.latency_p95_ms >= summary.latency_p50_ms > 0

    def test_step_without_ready_batch_is_noop(self):
        serving = ServingEngine(max_batch_size=4, max_wait=10.0)
        assert serving.step() == []
        serving.submit(make_requests(1, "bert-base", WorkloadFamily.CLASSIFY)[0])
        assert serving.step() == []          # still inside the wait window
        assert len(serving.step(force=True)) == 1

    def test_result_is_fetch_once(self):
        serving = ServingEngine(max_batch_size=2, max_wait=0.0)
        request = make_requests(1, "bert-base", WorkloadFamily.CLASSIFY)[0]
        serving.submit(request)
        serving.run_until_idle()
        assert serving.result(request.request_id).request_id == request.request_id
        with pytest.raises(ServingError):
            serving.result(request.request_id)

    def test_failed_batch_marks_requests_not_scheduler(self):
        """An unknown model fails its own requests; the engine keeps serving."""
        serving = ServingEngine(max_batch_size=4, max_wait=0.0)
        bad = make_requests(1, "bert-huge", WorkloadFamily.CLASSIFY)[0]
        serving.submit(bad)
        assert serving.step(force=True) == []
        with pytest.raises(ServingError):
            serving.result(bad.request_id)
        good = serving.serve(make_requests(2, "bert-base", WorkloadFamily.CLASSIFY))
        assert len(good) == 2

    def test_take_failures_pops(self):
        serving = ServingEngine(max_batch_size=4, max_wait=0.0)
        bad = make_requests(1, "bert-huge", WorkloadFamily.CLASSIFY)[0]
        serving.submit(bad)
        serving.run_until_idle()
        failures = serving.take_failures()
        assert [rid for rid, _ in failures] == [bad.request_id]
        assert serving.take_failures() == []

    def test_result_registry_is_bounded(self):
        """Sync loops that consume step() returns must not leak results."""
        serving = ServingEngine(max_batch_size=4, max_wait=0.0, result_buffer=4)
        requests = make_requests(12, "bert-base", WorkloadFamily.CLASSIFY, seed=7)
        for request in requests:
            serving.submit(request)
        returned = serving.run_until_idle()
        assert len(returned) == 12
        assert len(serving._completed) == 4  # oldest evicted, bound respected

    def test_serve_handles_more_requests_than_result_buffer(self):
        serving = ServingEngine(max_batch_size=4, max_wait=0.0, result_buffer=2)
        requests = make_requests(10, "bert-base", WorkloadFamily.CLASSIFY, seed=8)
        results = serving.serve(requests)
        assert [r.request_id for r in results] == [r.request_id for r in requests]
        assert len(serving._completed) == 0  # serve() drains its own results

    def test_warm_prebuilds_model(self):
        serving = ServingEngine()
        serving.warm("bert-base", WorkloadFamily.CLASSIFY)
        assert serving.repository.stats.misses == 1
        serving.serve(make_requests(2, "bert-base", WorkloadFamily.CLASSIFY))
        assert serving.repository.stats.misses == 1  # served from cache
