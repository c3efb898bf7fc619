"""Continuous-batching scheduler tests: admit/retire, wiring, failures."""

import numpy as np
import pytest

from repro.serve.admission import AdmissionPolicy
from repro.serve.engine import ServingEngine
from repro.serve.faultinject import check_refcounts
from repro.serve.kvcache import KVCacheConfig
from repro.serve.loadgen import VirtualClock
from repro.serve.repository import ModelRepository
from repro.serve.requests import InferenceRequest, ServingError, WorkloadFamily
from repro.serve.sampling import SamplingParams
from repro.serve.scheduler import ContinuousBatchingScheduler
from repro.serve.stats import ServingStats


@pytest.fixture(scope="module")
def repo():
    repository = ModelRepository(bits=4, seed=0)
    repository.get("gpt2-xl", WorkloadFamily.LM)  # warm once for the module
    return repository


def gen_request(seq_len=8, max_new_tokens=4, seed=0, model="gpt2-xl", **kwargs):
    rng = np.random.default_rng(seed)
    return InferenceRequest(
        model,
        WorkloadFamily.LM,
        rng.integers(0, 96, size=seq_len),
        sampling=SamplingParams(max_new_tokens=max_new_tokens),
        **kwargs,
    )


class TestRequestValidation:
    def test_generation_requires_lm_family(self):
        with pytest.raises(ServingError):
            InferenceRequest(
                "bert-base",
                WorkloadFamily.CLASSIFY,
                [1, 2],
                sampling=SamplingParams(max_new_tokens=3),
            )

    def test_negative_max_new_tokens_rejected(self):
        with pytest.raises(ServingError):
            SamplingParams(max_new_tokens=-1)

    def test_scheduler_rejects_score_only_requests(self, repo):
        scheduler = ContinuousBatchingScheduler(repo, num_slots=2)
        with pytest.raises(ServingError):
            scheduler.submit(gen_request(max_new_tokens=0))


class TestSlotLifecycle:
    def test_admit_decode_retire(self, repo):
        scheduler = ContinuousBatchingScheduler(repo, num_slots=2)
        for seed, tokens in enumerate((1, 3, 2)):
            scheduler.submit(gen_request(max_new_tokens=tokens, seed=seed))
        assert scheduler.num_queued == 3 and scheduler.num_active == 0

        first = scheduler.step()  # admits 2, prefill = first token each
        # The 1-token request completes straight from prefill and retires.
        assert [len(r.output.token_ids) for r in first] == [1]
        assert scheduler.num_active == 1  # 3-token request still decoding
        assert scheduler.num_queued == 1

        second = scheduler.step()  # backfills the freed slot mid-flight
        assert scheduler.num_active == 2
        assert second == []

        remaining = scheduler.run_until_idle()
        assert len(remaining) == 2
        assert len(scheduler) == 0
        assert scheduler.retired == 3
        lengths = {r.request_id: len(r.output.token_ids) for r in first + remaining}
        assert sorted(lengths.values()) == [1, 2, 3]

    def test_generated_tokens_match_one_slot_reference(self, repo):
        """Multi-slot serving emits exactly the stream of a 1-slot scheduler
        with every feature off."""
        budgets = (6, 2, 4, 3, 5)
        engine = ServingEngine(repository=repo, max_batch_size=2, max_wait=0.0)
        results = engine.serve([gen_request(max_new_tokens=n, seed=n) for n in budgets])
        reference = ContinuousBatchingScheduler(
            repo, num_slots=1, cache_config=KVCacheConfig(bits=4, prefix_sharing=False)
        )
        for n, result in zip(budgets, results):
            reference.submit(gen_request(max_new_tokens=n, seed=n))
            [expected] = reference.run_until_idle()
            assert result.output.token_ids == expected.output.token_ids

    def test_kv_accounting_exposed(self, repo):
        scheduler = ContinuousBatchingScheduler(
            repo, num_slots=2, cache_config=KVCacheConfig(bits=4, page_size=4)
        )
        scheduler.submit(gen_request(seq_len=12, max_new_tokens=4))
        scheduler.step()
        assert scheduler.kv_fp32_bytes > 0
        assert 0 < scheduler.kv_cache_bytes < scheduler.kv_fp32_bytes
        result = scheduler.run_until_idle()[0]
        assert result.output.kv_cache["kv_fp32_bytes"] > 0


class TestPrefixSharing:
    def test_second_identical_prompt_attaches_shared_pages(self, repo):
        config = KVCacheConfig(bits=4, page_size=4)
        scheduler = ContinuousBatchingScheduler(repo, num_slots=2, cache_config=config)
        prompt = np.random.default_rng(40).integers(0, 96, size=16)

        def request():
            return InferenceRequest(
                "gpt2-xl",
                WorkloadFamily.LM,
                prompt,
                sampling=SamplingParams(max_new_tokens=3),
            )

        scheduler.submit(request())
        first = scheduler.run_until_idle()[0]
        assert first.output.kv_cache["prefix_shared_tokens"] == 0
        scheduler.submit(request())
        second = scheduler.run_until_idle()[0]
        # 16-token prompt, page 4: at most (16-1)//4 = 3 pages shareable.
        assert second.output.kv_cache["prefix_shared_tokens"] == 12
        assert second.output.token_ids == first.output.token_ids

    def test_prefix_sharing_disabled_by_config(self, repo):
        config = KVCacheConfig(bits=4, page_size=4, prefix_sharing=False)
        scheduler = ContinuousBatchingScheduler(repo, num_slots=2, cache_config=config)
        prompt = np.random.default_rng(41).integers(0, 96, size=16)
        for _ in range(2):
            scheduler.submit(
                InferenceRequest(
                    "gpt2-xl",
                    WorkloadFamily.LM,
                    prompt,
                    sampling=SamplingParams(max_new_tokens=2),
                )
            )
            result = scheduler.run_until_idle()[0]
            assert result.output.kv_cache["prefix_shared_tokens"] == 0
        assert scheduler.page_pool.num_prefix_nodes == 0

    def test_shared_and_cold_paths_generate_identical_tokens(self, repo):
        """Prefix-shared decode must reproduce the cold path token for token."""
        prompt = np.random.default_rng(42).integers(0, 96, size=20)
        outputs = {}
        for sharing in (True, False):
            config = KVCacheConfig(bits=4, page_size=4, prefix_sharing=sharing)
            scheduler = ContinuousBatchingScheduler(
                repo, num_slots=2, cache_config=config
            )
            tokens = []
            for _ in range(2):  # second submission hits the prefix when sharing
                scheduler.submit(
                    InferenceRequest(
                        "gpt2-xl",
                        WorkloadFamily.LM,
                        prompt,
                        sampling=SamplingParams(max_new_tokens=4),
                    )
                )
                tokens.append(scheduler.run_until_idle()[0].output.token_ids)
            outputs[sharing] = tokens
        assert outputs[True] == outputs[False]

    def test_retire_releases_slot_references(self, repo):
        config = KVCacheConfig(bits=4, page_size=4)
        scheduler = ContinuousBatchingScheduler(repo, num_slots=2, cache_config=config)
        scheduler.submit(gen_request(seq_len=12, max_new_tokens=2, seed=43))
        scheduler.run_until_idle()
        pool = scheduler.page_pool
        # Only prefix-indexed pages survive retirement, each singly held.
        assert pool.num_entries == pool.num_prefix_nodes * 2 * 3  # K/V × layers
        assert pool.num_shared_pages == 0

    def test_pool_counters_reach_registry(self, repo):
        engine = ServingEngine(
            repository=repo,
            max_batch_size=4,
            max_wait=0.0,
            kv_cache_config=KVCacheConfig(bits=4, page_size=4),
        )
        prompt = np.random.default_rng(45).integers(0, 96, size=12)
        for _ in range(2):
            engine.serve(
                [
                    InferenceRequest(
                        "gpt2-xl",
                        WorkloadFamily.LM,
                        prompt,
                        sampling=SamplingParams(max_new_tokens=6),
                    )
                ]
            )
        pool = engine.page_pool
        # Only a prefix attach decodes (a seal writes its rows back from the
        # encoder's codes): an attached page decodes once into a shared
        # block or is served by a live one (a hit).
        assert pool.pages_registered > 0
        assert pool.prefix_pages_attached > 0
        assert pool.decode_hits == 0
        assert pool.decode_misses == pool.prefix_pages_attached
        # The registry's pool counters sum the per-round deltas of the
        # pool's own counters.
        registry = engine.stats.registry
        counters = pool.counters()
        assert registry.get("serve_pool_hits_total").value() == counters["decode_hits"]
        assert (
            registry.get("serve_pool_misses_total").value()
            == counters["decode_misses"]
        )
        assert (
            registry.get("serve_prefix_pages_attached_total").value()
            == counters["prefix_pages_attached"]
        )


class TestEngineWiring:
    def test_mixed_traffic_and_stats(self, repo):
        engine = ServingEngine(
            repository=repo,
            max_batch_size=4,
            max_wait=0.0,
            kv_cache_config=KVCacheConfig(bits=4, page_size=4),
        )
        rng = np.random.default_rng(1)
        requests = [
            gen_request(max_new_tokens=3, seed=11),
            InferenceRequest("gpt2-xl", WorkloadFamily.LM, rng.integers(0, 96, 8)),
            gen_request(max_new_tokens=5, seed=12),
        ]
        results = {r.request_id: r for r in engine.serve(requests)}
        assert len(results) == 3
        gen_out = results[requests[0].request_id].output
        assert len(gen_out.token_ids) == 3
        score_out = results[requests[1].request_id].output
        assert score_out.finish_reason is None and not score_out.token_ids
        assert score_out.next_tokens
        summary = engine.stats.summary()
        assert summary.decode_rounds > 0
        assert summary.generated_tokens == 8
        assert 0 < summary.mean_slot_occupancy <= 1.0
        assert summary.kv_fp32_bytes_peak > summary.kv_cache_bytes_peak > 0
        assert summary.kv_compression > 1.0
        # generation latencies feed the same percentile pool
        assert summary.requests == 3

    def test_failed_admission_reported_not_fatal(self, repo):
        engine = ServingEngine(repository=repo, max_batch_size=2, max_wait=0.0)
        bad = gen_request(max_new_tokens=4, model="no-such-model")
        good = gen_request(max_new_tokens=2, seed=5)
        engine.submit(bad)
        engine.submit(good)
        results = engine.run_until_idle()
        assert [r.request_id for r in results] == [good.request_id]
        with pytest.raises(ServingError):
            engine.result(bad.request_id)

    def test_position_budget_enforced_per_request(self, repo):
        engine = ServingEngine(repository=repo, max_batch_size=2, max_wait=0.0)
        config = repo.get("gpt2-xl", WorkloadFamily.LM).model.config
        too_long = gen_request(
            seq_len=config.max_positions - 1, max_new_tokens=8, seed=6
        )
        fine = gen_request(max_new_tokens=2, seed=7)
        engine.submit(too_long)
        engine.submit(fine)
        results = engine.run_until_idle()
        assert [r.request_id for r in results] == [fine.request_id]
        with pytest.raises(ServingError, match="positions"):
            engine.result(too_long.request_id)

    def test_position_budget_boundary_request_is_served(self, repo):
        """The last generated token is never embedded, so a full-table prompt
        can still generate exactly one token."""
        engine = ServingEngine(repository=repo, max_batch_size=2, max_wait=0.0)
        config = repo.get("gpt2-xl", WorkloadFamily.LM).model.config
        request = gen_request(seq_len=config.max_positions, max_new_tokens=1, seed=8)
        results = engine.serve([request])
        assert len(results[0].output.token_ids) == 1

    @pytest.mark.parametrize("chunk", [None, 8])
    def test_out_of_vocabulary_prompt_fails_only_that_request(self, repo, chunk):
        """The bad prompt sits in the second slot of the batched prefill (its
        first chunk, when chunked), so the per-slot retry must find it there
        and fail only it.  It ends one way with or without chunking: an
        ``error`` terminal chunk, one ``error`` finish in the stats, and
        ``result()`` raising."""
        engine = ServingEngine(
            repository=repo,
            max_batch_size=4,
            max_wait=0.0,
            kv_cache_config=KVCacheConfig(bits=4, page_size=8),
            prefill_chunk_tokens=chunk,
        )
        good = gen_request(seq_len=12, max_new_tokens=2, seed=9)
        bad = InferenceRequest(
            "gpt2-xl",
            WorkloadFamily.LM,
            np.array([1, 2, 10_000] + [3] * 9),
            sampling=SamplingParams(max_new_tokens=2),
        )
        engine.submit(good)
        engine.submit(bad)
        chunks = list(engine.stream(bad.request_id))
        assert [(c.token_id, c.finish_reason) for c in chunks] == [(None, "error")]
        engine.run_until_idle()
        assert engine.result(good.request_id).output.finish_reason == "length"
        assert engine.stats.summary().finish_reasons["error"] == 1
        with pytest.raises(ServingError, match="out of vocabulary"):
            engine.result(bad.request_id)

    def test_decode_round_crash_aborts_sequences_not_engine(self, repo):
        """A mid-decode exception fails the in-flight requests, frees the
        slots, and leaves the engine (and co-stepped micro-batches) alive."""
        engine = ServingEngine(repository=repo, max_batch_size=2, max_wait=0.0)
        doomed = gen_request(max_new_tokens=6, seed=20)
        engine.submit(doomed)
        engine.step(force=True)  # admitted and decoding
        assert engine.lm_scheduler.num_active == 1

        original = engine.lm_scheduler._decode_round
        engine.lm_scheduler._decode_round = lambda exclude: (_ for _ in ()).throw(
            RuntimeError("kv page corrupted")
        )
        score = InferenceRequest(
            "gpt2-xl", WorkloadFamily.LM, np.arange(4), request_id="score-alive"
        )
        engine.submit(score)
        results = engine.run_until_idle()
        engine.lm_scheduler._decode_round = original

        # The co-batched scoring request still completed...
        assert [r.request_id for r in results] == ["score-alive"]
        # ...the doomed sequence failed cleanly and its slot was freed...
        with pytest.raises(ServingError, match="kv page corrupted"):
            engine.result(doomed.request_id)
        assert engine.lm_scheduler.num_active == 0
        # ...and later generation traffic is served normally.
        revived = engine.serve([gen_request(max_new_tokens=2, seed=21)])
        assert len(revived[0].output.token_ids) == 2

    def test_score_request_logits_independent_of_cobatched_generation(self, repo):
        """A score-only LM request's logits must not change when generation
        requests are served alongside it (their decode rounds interleave with
        its micro-batch)."""
        prompt = np.random.default_rng(30).integers(0, 96, size=8)

        def score_request():
            return InferenceRequest(
                "gpt2-xl", WorkloadFamily.LM, prompt, sampling=SamplingParams(logprobs=3)
            )

        alone = ServingEngine(repository=repo, max_batch_size=2, max_wait=0.0)
        solo = alone.serve([score_request()])[0]
        mixed_engine = ServingEngine(repository=repo, max_batch_size=2, max_wait=0.0)
        mixed = mixed_engine.serve(
            [
                gen_request(max_new_tokens=4, seed=31),
                score_request(),
                gen_request(max_new_tokens=2, seed=32),
            ]
        )
        [scored] = [r for r in mixed if not r.output.token_ids]
        assert len(solo.output.next_tokens) == 3
        assert scored.output.next_tokens == solo.output.next_tokens
        assert scored.output.log_probs == solo.output.log_probs

    def test_pending_counts_scheduler_sequences(self, repo):
        engine = ServingEngine(repository=repo, max_batch_size=2, max_wait=0.0)
        engine.submit(gen_request(max_new_tokens=3, seed=10))
        assert engine.pending == 1
        engine.run_until_idle()
        assert engine.pending == 0


class RecordingStats(ServingStats):
    """ServingStats that also keeps every decode-round record it receives."""

    def __init__(self):
        super().__init__()
        self.records = []

    def record_decode_round(self, record):
        self.records.append(record)
        super().record_decode_round(record)


class TestOutcomeRecording:
    """Every first token, token gap, finish and preemption reaches the stats
    exactly once, when it happens, with its class and tenant."""

    def _scheduler(self, repo, num_slots, **kwargs):
        stats = RecordingStats()
        scheduler = ContinuousBatchingScheduler(
            repo, num_slots=num_slots, stats=stats, **kwargs
        )
        return scheduler, stats

    @staticmethod
    def _finished(stats, **labels):
        return stats.registry.get("serve_requests_finished_total").value_sum(**labels)

    def test_every_finish_recorded_once_with_class_and_tenant(self, repo):
        scheduler, stats = self._scheduler(repo, num_slots=2)
        labels = [("interactive", "acme"), ("batch", "globex"), ("batch", "acme")]
        for seed, (slo_class, tenant) in enumerate(labels):
            scheduler.submit(
                gen_request(
                    max_new_tokens=seed + 1,
                    seed=40 + seed,
                    slo_class=slo_class,
                    tenant=tenant,
                )
            )
        scheduler.run_until_idle()
        summary = stats.summary()
        assert summary.finish_reasons["length"] == summary.requests == 3
        assert self._finished(stats) == 3
        for slo_class, tenant in labels:
            assert self._finished(
                stats, reason="length", slo_class=slo_class, tenant=tenant
            ) == 1
        latency = stats.registry.get("serve_request_latency_seconds")
        assert latency.count_value(slo_class="batch") == 2
        assert latency.count_value(slo_class="interactive") == 1

    def test_token_timings_recorded_once_per_token(self, repo):
        scheduler, stats = self._scheduler(repo, num_slots=2)
        budgets = (3, 1, 4)
        for seed, budget in enumerate(budgets):
            scheduler.submit(
                gen_request(max_new_tokens=budget, seed=50 + seed, slo_class="c%d" % seed)
            )
        scheduler.run_until_idle()
        ttft = stats.registry.get("serve_ttft_seconds")
        assert [ttft.count_value(slo_class="c%d" % i) for i in range(3)] == [1, 1, 1]
        gaps = stats.registry.get("serve_inter_token_seconds")
        assert gaps.count == sum(budget - 1 for budget in budgets)
        assert stats.summary().inter_token_p50_ms > 0.0

    def test_queued_cancel_recorded_when_it_happens(self, repo):
        scheduler, stats = self._scheduler(repo, num_slots=1)
        scheduler.submit(gen_request(max_new_tokens=3, seed=60))
        doomed = gen_request(max_new_tokens=3, seed=61, slo_class="gone", tenant="t1")
        scheduler.submit(doomed)
        scheduler.step()
        recorded = len(stats.records)
        assert scheduler.cancel(doomed.request_id) is not None
        # Recorded at once, with no round of its own.
        assert len(stats.records) == recorded
        assert self._finished(stats, reason="aborted", slo_class="gone", tenant="t1") == 1
        latency = stats.registry.get("serve_request_latency_seconds")
        assert latency.count_value(slo_class="gone") == 1
        assert stats.summary().finish_aborted == 1
        scheduler.run_until_idle()
        assert stats.summary().finish_aborted == 1
        assert self._finished(stats, reason="aborted") == 1

    def test_cancel_that_empties_scheduler_adds_no_round(self, repo):
        scheduler, stats = self._scheduler(repo, num_slots=1)
        request = gen_request(max_new_tokens=5, seed=62, tenant="t2")
        scheduler.submit(request)
        scheduler.step()
        recorded = len(stats.records)
        rounds = stats.summary().decode_rounds
        scheduler.cancel(request.request_id)
        assert len(stats.records) == recorded
        summary = stats.summary()
        assert summary.decode_rounds == rounds
        assert summary.finish_aborted == 1
        assert self._finished(stats, reason="aborted", tenant="t2") == 1

    def test_idle_step_records_nothing(self, repo):
        scheduler, stats = self._scheduler(repo, num_slots=1)
        scheduler.submit(gen_request(max_new_tokens=2, seed=63))
        scheduler.run_until_idle()
        recorded = len(stats.records)
        assert scheduler.step() == []
        assert len(stats.records) == recorded
        assert stats.summary().finish_reasons["length"] == 1
        assert self._finished(stats) == 1

    def test_terminal_outcomes_visible_before_the_next_step(self, repo):
        """A preemption, a cancel, a deadline expiry and an error each reach
        the registry and the summary before another step() runs."""
        clock = VirtualClock()
        scheduler, stats = self._scheduler(
            repo,
            num_slots=1,
            clock=clock,
            admission=AdmissionPolicy(class_priority={"gold": 5}, preempt=True),
        )
        preemptions = stats.registry.get("serve_preemptions_total")
        low = gen_request(max_new_tokens=6, seed=64, slo_class="bronze", tenant="tb")
        scheduler.submit(low)
        scheduler.step()
        high = gen_request(max_new_tokens=8, seed=65, slo_class="gold", tenant="tg")
        scheduler.submit(high)
        scheduler.step()  # the gold request preempts the bronze one
        assert preemptions.value(slo_class="bronze") == 1
        assert stats.summary().preemptions == 1

        assert scheduler.cancel(low.request_id) is not None  # re-queued victim
        assert self._finished(stats, reason="aborted", slo_class="bronze", tenant="tb") == 1
        assert stats.summary().finish_aborted == 1

        late = gen_request(max_new_tokens=4, seed=66, slo_class="silver", tenant="ts",
                           deadline_s=1.0)
        scheduler.submit(late)
        clock.advance(2.0)
        expired = scheduler.step()
        assert [r.request_id for r in expired] == [late.request_id]
        assert self._finished(stats, reason="deadline", slo_class="silver", tenant="ts") == 1
        misses = stats.registry.get("serve_deadline_misses_total")
        assert misses.value(slo_class="silver") == 1
        assert stats.summary().finish_deadline == 1

        fail_next_retire(scheduler)
        with pytest.raises(RuntimeError):
            scheduler.step()
        assert scheduler.num_active == 0
        assert [rid for rid, _ in scheduler.take_failures()] == [high.request_id]
        assert self._finished(stats, reason="error", slo_class="gold", tenant="tg") == 1
        summary = stats.summary()
        assert summary.finish_error == 1
        assert summary.preemptions == 1
        assert self._finished(stats) == 3


def fail_next_retire(scheduler):
    """Make the scheduler's next ``_retire`` raise, once."""
    original = scheduler._retire

    def boom():
        scheduler._retire = original
        raise RuntimeError("retire failed")

    scheduler._retire = boom


class TestFailedRound:
    """A round that raises ends every slot still live in it, in ``error``,
    with one terminal chunk at the delivered index; stepping again runs
    nothing stale."""

    def _fail_round(self, repo, decode_rounds_first):
        scheduler = ContinuousBatchingScheduler(
            repo, num_slots=1, cache_config=KVCacheConfig(bits=4, page_size=4)
        )
        request = gen_request(max_new_tokens=8, seed=67)
        scheduler.submit(request)
        delivered = 0
        for _ in range(decode_rounds_first):
            scheduler.step()
            delivered += sum(c.is_token for c in scheduler.take_chunks())
        fail_next_retire(scheduler)
        with pytest.raises(RuntimeError):
            scheduler.step()
        return scheduler, request, delivered

    @pytest.mark.parametrize("rounds_first", [0, 2], ids=["prefill", "decode"])
    def test_failed_round_ends_its_live_slot(self, repo, rounds_first):
        scheduler, request, delivered = self._fail_round(repo, rounds_first)
        # Stepping again neither raises (a completed prefill rolled back to
        # no token) nor re-feeds a decoded token whose K/V the cache holds.
        assert scheduler.step() == []
        chunks = scheduler.take_chunks()
        assert [(c.index, c.token_id, c.finish_reason) for c in chunks] == [
            (delivered, None, "error")
        ]
        assert scheduler.num_active == 0
        assert [rid for rid, _ in scheduler.take_failures()] == [request.request_id]
        check_refcounts(scheduler)
        probe = gen_request(max_new_tokens=2, seed=68)
        scheduler.submit(probe)
        (result,) = scheduler.run_until_idle()
        assert result.request_id == probe.request_id
        assert result.output.finish_reason == "length"
