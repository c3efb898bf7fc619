"""Overload-resilience tests: admission control, deadlines, preemption.

Covers the :class:`~repro.serve.admission.AdmissionPolicy` surface end to
end — bounded queues with typed rejections, shed-on-burn-rate, request
deadlines and queue timeouts (terminal ``finish_reason="deadline"``),
priority admission ordering, and preemption with packed-page
evict/resume.  The load-bearing property is exactness: a preempted and
resumed request must produce **token-identical** output to an
uninterrupted run, in both packed-OVP and full-precision reference
caches, because resume re-attaches the victim's already-sealed pages via
the prefix index and re-prefills only the unsealed suffix.
"""

import gc
from collections import defaultdict, deque

import numpy as np
import pytest

from repro.serve import (
    AdmissionPolicy,
    AdmissionRejectedError,
    ContinuousBatchingScheduler,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    FinishReason,
    InferenceRequest,
    InjectedFault,
    KVCacheConfig,
    LayerKVCache,
    MicroBatcher,
    ModelRepository,
    QueueFullError,
    SamplingParams,
    SequenceKVCache,
    ServingEngine,
    ServingError,
    ServingStats,
    Tracer,
    WorkloadFamily,
)
from repro.serve.faultinject import check_refcounts

MODEL = "gpt2-xl"
VOCAB = 96


@pytest.fixture(scope="module")
def repository():
    repo = ModelRepository(bits=4, seed=0)
    repo.get(MODEL, WorkloadFamily.LM)
    return repo


def packed_config(**kwargs):
    return KVCacheConfig(bits=4, page_size=4, prefix_sharing=True, **kwargs)


def lm_request(prompt, max_new_tokens=4, slo_class="default", seed=3, **kwargs):
    sampling_kwargs = {}
    if "temperature" in kwargs:
        sampling_kwargs["temperature"] = kwargs.pop("temperature")
    return InferenceRequest(
        MODEL,
        WorkloadFamily.LM,
        np.asarray(prompt),
        sampling=SamplingParams(
            max_new_tokens=max_new_tokens, seed=seed, **sampling_kwargs
        ),
        slo_class=slo_class,
        **kwargs,
    )


def drain(scheduler, limit=80):
    results = []
    for _ in range(limit):
        if not len(scheduler):
            return results
        results.extend(scheduler.step())
    raise AssertionError("scheduler did not drain")


class _ChunkLedger:
    """Stream discipline: gapless indices, exactly one terminal, then silence."""

    def __init__(self):
        self.expected = defaultdict(int)
        self.finished = {}

    def consume(self, chunks):
        for chunk in chunks:
            rid = chunk.request_id
            assert rid not in self.finished, f"{rid} spoke after its terminal"
            assert chunk.index == self.expected[rid]
            if chunk.is_token:
                self.expected[rid] += 1
            if chunk.finish_reason is not None:
                self.finished[rid] = chunk.finish_reason


# --------------------------------------------------------------------------- #
# AdmissionPolicy surface
# --------------------------------------------------------------------------- #
class TestAdmissionPolicy:
    def test_validation(self):
        with pytest.raises(ServingError):
            AdmissionPolicy(max_queue_depth=0)
        with pytest.raises(ServingError):
            AdmissionPolicy(queue_timeout_s=0.0)
        with pytest.raises(ServingError):
            AdmissionPolicy(class_priority={"": 1})
        with pytest.raises(ServingError):
            AdmissionPolicy(class_priority={"x": "high"})

    def test_priority_of_explicit_override_beats_class_map(self):
        policy = AdmissionPolicy(class_priority={"interactive": 5}, default_priority=1)
        by_class = lm_request(np.arange(4), slo_class="interactive")
        explicit = lm_request(np.arange(4), slo_class="interactive", priority=-3)
        unknown = lm_request(np.arange(4), slo_class="mystery")
        assert policy.priority_of(by_class) == 5
        assert policy.priority_of(explicit) == -3
        assert policy.priority_of(unknown) == 1

    def test_request_field_validation(self):
        with pytest.raises(ServingError):
            lm_request(np.arange(4), deadline_s=0.0)
        with pytest.raises(ServingError):
            lm_request(np.arange(4), deadline_s=-1.0)


# --------------------------------------------------------------------------- #
# Bounded queues
# --------------------------------------------------------------------------- #
class TestBoundedQueue:
    def test_scheduler_queue_full_is_typed_and_takes_no_references(self, repository):
        stats = ServingStats()
        scheduler = ContinuousBatchingScheduler(
            repository,
            num_slots=1,
            cache_config=packed_config(),
            stats=stats,
            admission=AdmissionPolicy(max_queue_depth=2),
        )
        for _ in range(2):
            scheduler.submit(lm_request(np.arange(5)))
        with pytest.raises(QueueFullError):
            scheduler.submit(lm_request(np.arange(5), slo_class="batch"))
        assert scheduler.rejected == 1
        # The rejection never touched slots, caches or the pool.
        assert scheduler.num_active == 0
        assert scheduler.page_pool.num_entries == 0
        counter = stats.registry.get("serve_requests_rejected_total")
        assert counter.value_sum(reason="queue_full", slo_class="batch") == 1
        # The bound is on the queue, not the system: draining readmits.
        drain(scheduler)
        scheduler.submit(lm_request(np.arange(5)))
        assert len(drain(scheduler)) == 1

    def test_queue_full_is_retryable(self):
        from repro.serve.errors import is_retryable

        assert is_retryable(QueueFullError("full"))
        assert is_retryable(AdmissionRejectedError("shed"))
        assert not is_retryable(ServingError("bad request"))

    def test_micro_batcher_bounded_depth(self):
        batcher = MicroBatcher(max_batch_size=4, max_wait=10.0, max_queue_depth=2)
        classify = [
            InferenceRequest(MODEL, WorkloadFamily.CLASSIFY, np.arange(6), num_classes=2)
            for _ in range(3)
        ]
        batcher.submit(classify[0])
        batcher.submit(classify[1])
        with pytest.raises(QueueFullError):
            batcher.submit(classify[2])
        assert len(batcher) == 2

    def test_engine_records_batcher_rejections(self, repository):
        engine = ServingEngine(
            repository,
            kv_cache_config=packed_config(),
            admission=AdmissionPolicy(max_queue_depth=1),
        )
        first = InferenceRequest(
            MODEL, WorkloadFamily.CLASSIFY, np.arange(6), num_classes=2
        )
        second = InferenceRequest(
            MODEL, WorkloadFamily.CLASSIFY, np.arange(6), num_classes=2
        )
        engine.submit(first)
        with pytest.raises(QueueFullError):
            engine.submit(second)
        counter = engine.stats.registry.get("serve_requests_rejected_total")
        assert counter.value_sum(reason="queue_full", slo_class="default") == 1


class _FakeMonitor:
    def __init__(self, firing):
        self.firing = firing


class TestShedOnBurnRate:
    def test_below_floor_traffic_sheds_while_alerts_fire(self, repository):
        stats = ServingStats()
        policy = AdmissionPolicy(
            class_priority={"interactive": 5},
            shed_on_burn_rate=True,
            shed_priority_floor=1,
        )
        scheduler = ContinuousBatchingScheduler(
            repository,
            num_slots=2,
            cache_config=packed_config(),
            stats=stats,
            admission=policy,
            health_monitor=_FakeMonitor(firing=True),
        )
        with pytest.raises(AdmissionRejectedError):
            scheduler.submit(lm_request(np.arange(5), slo_class="batch"))
        # Above-floor traffic still admits while shedding.
        scheduler.submit(lm_request(np.arange(5), slo_class="interactive"))
        assert scheduler.num_queued == 1
        counter = stats.registry.get("serve_requests_rejected_total")
        assert counter.value_sum(reason="shed", slo_class="batch") == 1

    def test_no_shedding_when_alerts_clear(self, repository):
        policy = AdmissionPolicy(shed_on_burn_rate=True, shed_priority_floor=1)
        scheduler = ContinuousBatchingScheduler(
            repository,
            num_slots=2,
            cache_config=packed_config(),
            admission=policy,
            health_monitor=_FakeMonitor(firing=False),
        )
        scheduler.submit(lm_request(np.arange(5), slo_class="batch"))
        assert scheduler.num_queued == 1


# --------------------------------------------------------------------------- #
# Deadlines and queue timeouts
# --------------------------------------------------------------------------- #
class TestDeadlines:
    def test_active_deadline_expires_mid_generation(self, repository):
        now = [0.0]
        stats = ServingStats(clock=lambda: now[0])
        scheduler = ContinuousBatchingScheduler(
            repository,
            num_slots=1,
            cache_config=packed_config(),
            clock=lambda: now[0],
            stats=stats,
        )
        request = lm_request(np.arange(6), max_new_tokens=50, deadline_s=3.0)
        scheduler.submit(request)
        ledger = _ChunkLedger()
        assert scheduler.step() == []
        ledger.consume(scheduler.take_chunks())
        now[0] = 4.0
        results = scheduler.step()
        ledger.consume(scheduler.take_chunks())
        assert [r.request_id for r in results] == [request.request_id]
        assert results[0].output.finish_reason == FinishReason.DEADLINE
        # Partial output is delivered, not discarded.
        assert len(results[0].output.token_ids) > 0
        assert ledger.finished[request.request_id] == FinishReason.DEADLINE
        assert scheduler.deadline_expired == 1
        assert scheduler.num_active == 0
        check_refcounts(scheduler)
        counter = stats.registry.get("serve_deadline_misses_total")
        assert counter.value(slo_class="default") == 1
        assert stats.summary().finish_deadline == 1

    def test_queue_timeout_expires_waiting_request(self, repository):
        now = [0.0]
        scheduler = ContinuousBatchingScheduler(
            repository,
            num_slots=1,
            cache_config=packed_config(),
            clock=lambda: now[0],
            admission=AdmissionPolicy(queue_timeout_s=5.0),
        )
        hog = lm_request(np.arange(6), max_new_tokens=50)
        waiter = lm_request(np.arange(4), max_new_tokens=2)
        scheduler.submit(hog)
        scheduler.submit(waiter)
        assert scheduler.step() == []
        now[0] = 6.0
        results = scheduler.step()
        assert [r.request_id for r in results] == [waiter.request_id]
        assert results[0].output.finish_reason == FinishReason.DEADLINE
        assert results[0].output.token_ids == []
        # Terminal chunk at index 0: the stream never produced a token.
        chunks = [c for c in scheduler.take_chunks() if c.request_id == waiter.request_id]
        assert len(chunks) == 1 and chunks[0].index == 0
        assert chunks[0].finish_reason == FinishReason.DEADLINE
        # The hog keeps generating — expiry freed nothing it holds.
        assert scheduler.num_active == 1
        scheduler.cancel(hog.request_id)
        check_refcounts(scheduler)

    def test_deadline_expired_in_queue_before_any_slot(self, repository):
        now = [0.0]
        scheduler = ContinuousBatchingScheduler(
            repository,
            num_slots=1,
            cache_config=packed_config(),
            clock=lambda: now[0],
        )
        hog = lm_request(np.arange(6), max_new_tokens=50)
        doomed = lm_request(np.arange(4), deadline_s=1.0)
        scheduler.submit(hog)
        scheduler.submit(doomed)
        now[0] = 2.0
        results = scheduler.step()
        assert [r.request_id for r in results] == [doomed.request_id]
        assert results[0].output.finish_reason == FinishReason.DEADLINE
        assert scheduler.page_pool.num_entries >= 0
        scheduler.cancel(hog.request_id)
        check_refcounts(scheduler)


# --------------------------------------------------------------------------- #
# Priority admission and preemption
# --------------------------------------------------------------------------- #
def preemption_policy():
    return AdmissionPolicy(
        class_priority={"interactive": 10, "batch": 0}, preempt=True
    )


class TestPriorityAdmission:
    def test_higher_priority_jumps_the_queue(self, repository):
        scheduler = ContinuousBatchingScheduler(
            repository,
            num_slots=1,
            cache_config=packed_config(),
            admission=AdmissionPolicy(class_priority={"interactive": 10}),
        )
        hog = lm_request(np.arange(6), max_new_tokens=3)
        batch = lm_request(np.arange(5), slo_class="batch", max_new_tokens=2)
        gold = lm_request(np.arange(4), slo_class="interactive", max_new_tokens=2)
        scheduler.submit(hog)
        scheduler.step()  # hog takes the slot
        scheduler.submit(batch)
        scheduler.submit(gold)
        order = [r.request_id for r in drain(scheduler)]
        # Without preempt=True the hog finishes first, then gold outranks batch.
        assert order.index(gold.request_id) < order.index(batch.request_id)

    def test_no_preemption_without_flag(self, repository):
        scheduler = ContinuousBatchingScheduler(
            repository,
            num_slots=1,
            cache_config=packed_config(),
            admission=AdmissionPolicy(class_priority={"interactive": 10}),
        )
        scheduler.submit(lm_request(np.arange(6), slo_class="batch", max_new_tokens=6))
        scheduler.step()
        scheduler.submit(lm_request(np.arange(4), slo_class="interactive"))
        drain(scheduler)
        assert scheduler.preempted == 0

    def test_equal_priority_never_preempts(self, repository):
        scheduler = ContinuousBatchingScheduler(
            repository,
            num_slots=1,
            cache_config=packed_config(),
            admission=preemption_policy(),
        )
        scheduler.submit(lm_request(np.arange(6), slo_class="batch", max_new_tokens=6))
        scheduler.step()
        scheduler.submit(lm_request(np.arange(4), slo_class="batch"))
        drain(scheduler)
        assert scheduler.preempted == 0


class TestPreemptResume:
    @pytest.mark.parametrize("quantize", [True, False], ids=["packed", "fp32"])
    @pytest.mark.parametrize("temperature", [0.0, 0.9], ids=["greedy", "sampled"])
    def test_resume_is_token_identical(self, repository, quantize, temperature):
        cfg = packed_config(quantize=quantize)
        prompt_low = np.arange(9) % VOCAB
        prompt_high = (np.arange(5) + 40) % VOCAB

        def low():
            return lm_request(
                prompt_low, max_new_tokens=8, slo_class="batch",
                temperature=temperature,
            )

        baseline_scheduler = ContinuousBatchingScheduler(
            repository, num_slots=1, cache_config=cfg
        )
        baseline_scheduler.submit(low())
        baseline = drain(baseline_scheduler)[0]

        stats = ServingStats()
        scheduler = ContinuousBatchingScheduler(
            repository,
            num_slots=1,
            cache_config=cfg,
            stats=stats,
            admission=preemption_policy(),
        )
        victim = low()
        scheduler.submit(victim)
        ledger = _ChunkLedger()
        for _ in range(3):
            assert scheduler.step() == []
            ledger.consume(scheduler.take_chunks())
        tokens_before = ledger.expected[victim.request_id]
        assert tokens_before > 0
        scheduler.submit(lm_request(prompt_high, max_new_tokens=2, slo_class="interactive"))
        results = {}
        for _ in range(60):
            for result in scheduler.step():
                results[result.request_id] = result
            ledger.consume(scheduler.take_chunks())
            check_refcounts(scheduler)
            if not len(scheduler):
                break
        assert scheduler.preempted == 1
        resumed = results[victim.request_id]
        assert list(resumed.output.token_ids) == list(baseline.output.token_ids)
        assert resumed.output.finish_reason == baseline.output.finish_reason
        if quantize and temperature == 0.0:
            # The resume re-attaches its own sealed pages as a shared prefix
            # block, and the split (cascade) softmax agrees with the one-pass
            # softmax to float64 round-off, not bitwise.
            delta = np.abs(
                np.asarray(resumed.output.logprobs) - np.asarray(baseline.output.logprobs)
            )
            assert delta.max() <= 1e-12
        # Resume re-attached the evicted sealed pages copy-on-write instead
        # of re-prefilling them.
        kv = resumed.output.kv_cache
        assert kv["prefix_shared_tokens"] > 0
        assert kv["shared_pages"] > 0
        assert scheduler.page_pool.prefix_pages_attached > 0
        # Stream discipline held across the pause: one terminal per request,
        # indices gapless through the preemption.
        assert ledger.finished[victim.request_id] == baseline.output.finish_reason
        assert ledger.expected[victim.request_id] == len(baseline.output.token_ids)
        counter = stats.registry.get("serve_preemptions_total")
        assert counter.value(slo_class="batch") == 1
        assert stats.summary().preemptions == 1

    def test_victim_is_lowest_priority_youngest(self, repository):
        policy = AdmissionPolicy(
            class_priority={"interactive": 10, "batch": 0, "bulk": -5},
            preempt=True,
        )
        scheduler = ContinuousBatchingScheduler(
            repository, num_slots=2, cache_config=packed_config(), admission=policy
        )
        batch = lm_request(np.arange(6), slo_class="batch", max_new_tokens=8)
        bulk = lm_request(np.arange(5), slo_class="bulk", max_new_tokens=8)
        scheduler.submit(batch)
        scheduler.submit(bulk)
        scheduler.step()
        scheduler.submit(lm_request(np.arange(4), slo_class="interactive"))
        scheduler.step()
        assert scheduler.preempted == 1
        active = {
            slot.request.slo_class
            for slot in scheduler._slots
            if slot is not None
        }
        # bulk (priority -5) was evicted, batch (priority 0) kept its slot.
        assert active == {"batch", "interactive"}
        drain(scheduler)
        check_refcounts(scheduler)

    def test_cancel_while_preempted_in_queue(self, repository):
        scheduler = ContinuousBatchingScheduler(
            repository,
            num_slots=1,
            cache_config=packed_config(),
            admission=preemption_policy(),
        )
        victim = lm_request(np.arange(9), slo_class="batch", max_new_tokens=8)
        scheduler.submit(victim)
        ledger = _ChunkLedger()
        for _ in range(3):
            scheduler.step()
            ledger.consume(scheduler.take_chunks())
        scheduler.submit(lm_request(np.arange(5), slo_class="interactive", max_new_tokens=4))
        scheduler.step()
        ledger.consume(scheduler.take_chunks())
        assert scheduler.preempted == 1
        delivered = ledger.expected[victim.request_id]
        result = scheduler.cancel(victim.request_id)
        ledger.consume(scheduler.take_chunks())
        assert result.output.finish_reason == FinishReason.ABORTED
        # The tokens streamed before eviction are in the result, and the
        # terminal chunk lands exactly where the stream paused.
        assert len(result.output.token_ids) == delivered
        assert ledger.finished[victim.request_id] == FinishReason.ABORTED
        drain(scheduler)
        check_refcounts(scheduler)

    def test_preempted_request_deadline_spans_requeue(self, repository):
        now = [0.0]
        scheduler = ContinuousBatchingScheduler(
            repository,
            num_slots=1,
            cache_config=packed_config(),
            clock=lambda: now[0],
            admission=preemption_policy(),
        )
        victim = lm_request(
            np.arange(9), slo_class="batch", max_new_tokens=40, deadline_s=10.0
        )
        scheduler.submit(victim)
        scheduler.step()
        scheduler.submit(
            lm_request(np.arange(5), slo_class="interactive", max_new_tokens=50)
        )
        scheduler.step()
        assert scheduler.preempted == 1
        # The end-to-end deadline keeps ticking while re-queued.
        now[0] = 11.0
        results = scheduler.step()
        expired = [r for r in results if r.request_id == victim.request_id]
        assert expired and expired[0].output.finish_reason == FinishReason.DEADLINE
        assert len(expired[0].output.token_ids) > 0
        scheduler.cancel(
            next(s.request.request_id for s in scheduler._slots if s is not None)
        )
        check_refcounts(scheduler)


def reachable_kv_caches(roots):
    """Every KV cache reachable from ``roots`` through containers and repro objects."""
    seen, found, stack = set(), [], list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (SequenceKVCache, LayerKVCache)):
            found.append(obj)
        if isinstance(obj, (dict, list, tuple, set, deque)) or type(
            obj
        ).__module__.startswith("repro."):
            stack.extend(gc.get_referents(obj))
    return found


class TestTerminalWhileRequeued:
    """A cancel or deadline that lands on a preempted, re-queued request.

    The result must carry everything the stream delivered before eviction,
    report no KV summary or scheme (the request holds no cache), measure
    latency from the original enqueue, and end the stream exactly once.
    """

    PROMPT = np.arange(9) % VOCAB

    def victim_request(self, **kwargs):
        return InferenceRequest(
            MODEL,
            WorkloadFamily.LM,
            self.PROMPT,
            sampling=SamplingParams(max_new_tokens=8, seed=3, logprobs=2),
            slo_class="batch",
            **kwargs,
        )

    def reference(self, repository, steps):
        """The same request alone, cancelled after the same number of rounds."""
        scheduler = ContinuousBatchingScheduler(
            repository, num_slots=1, cache_config=packed_config()
        )
        request = self.victim_request()
        scheduler.submit(request)
        for _ in range(steps):
            assert scheduler.step() == []
        return scheduler.cancel(request.request_id)

    def preempted(self, repository, now, **victim_kwargs):
        """A victim that streamed tokens, then was evicted and re-queued."""
        stats = ServingStats(clock=lambda: now[0])
        scheduler = ContinuousBatchingScheduler(
            repository,
            num_slots=1,
            cache_config=packed_config(),
            clock=lambda: now[0],
            stats=stats,
            admission=preemption_policy(),
        )
        victim = self.victim_request(**victim_kwargs)
        scheduler.submit(victim)
        chunks = []
        for tick in range(3):
            now[0] = float(tick)
            assert scheduler.step() == []
            chunks.extend(scheduler.take_chunks())
        now[0] = 3.0
        scheduler.submit(
            lm_request(np.arange(5), slo_class="interactive", max_new_tokens=20)
        )
        assert scheduler.step() == []
        chunks.extend(scheduler.take_chunks())
        assert scheduler.preempted == 1
        assert scheduler.num_queued == 1 and scheduler.has_request(victim.request_id)
        # Preemption freed the victim's memory: nothing queued pins a KV
        # cache (its row buffers are sized for prompt + max_new_tokens).
        assert reachable_kv_caches(scheduler._queue) == []
        return scheduler, stats, victim, chunks

    def check_terminal(self, repository, scheduler, stats, victim, chunks, result,
                       reason, completed_at):
        streamed = [c for c in chunks if c.request_id == victim.request_id]
        tokens = [c for c in streamed if c.is_token]
        terminal = [c for c in streamed if c.finish_reason is not None]
        assert len(tokens) == 3
        assert len(terminal) == 1 and terminal[0] is streamed[-1]
        assert terminal[0].finish_reason == reason
        assert terminal[0].index == len(tokens)

        expected = self.reference(repository, steps=3)
        output = result.output
        assert output.finish_reason == reason
        assert output.token_ids == [c.token_id for c in tokens]
        assert output.token_ids == expected.output.token_ids
        assert output.logprobs == expected.output.logprobs
        assert output.top_logprobs == expected.output.top_logprobs
        assert len(output.top_logprobs) == 3
        assert output.next_tokens == expected.output.next_tokens
        assert output.log_probs == expected.output.log_probs
        assert len(output.next_tokens) == 2
        assert output.kv_cache is None
        assert result.scheme is None
        assert result.batch_size == scheduler.num_active == 1
        assert result.enqueued_at == 0.0
        assert result.completed_at == completed_at
        assert result.latency == completed_at

        drain(scheduler)
        assert not [
            c for c in scheduler.take_chunks() if c.request_id == victim.request_id
        ]
        counter = stats.registry.get("serve_requests_finished_total")
        assert counter.value_sum(slo_class="batch") == 1
        assert counter.value_sum(reason=reason, slo_class="batch") == 1
        check_refcounts(scheduler)

    def test_cancel_while_requeued(self, repository):
        now = [0.0]
        scheduler, stats, victim, chunks = self.preempted(repository, now)
        now[0] = 5.0
        result = scheduler.cancel(victim.request_id)
        chunks.extend(scheduler.take_chunks())
        assert scheduler.cancelled == 1
        self.check_terminal(
            repository, scheduler, stats, victim, chunks, result,
            FinishReason.ABORTED, 5.0,
        )

    def test_deadline_while_requeued(self, repository):
        now = [0.0]
        scheduler, stats, victim, chunks = self.preempted(
            repository, now, deadline_s=6.0
        )
        now[0] = 5.0
        assert scheduler.step() == []
        chunks.extend(scheduler.take_chunks())
        now[0] = 7.0
        results = scheduler.step()
        chunks.extend(scheduler.take_chunks())
        (result,) = [r for r in results if r.request_id == victim.request_id]
        assert scheduler.deadline_expired == 1
        self.check_terminal(
            repository, scheduler, stats, victim, chunks, result,
            FinishReason.DEADLINE, 7.0,
        )


# --------------------------------------------------------------------------- #
# Satellite: bounded chunk-buffer eviction is observable
# --------------------------------------------------------------------------- #
class TestChunkEviction:
    def test_eviction_counts_and_traces(self, repository):
        tracer = Tracer()
        engine = ServingEngine(
            repository,
            kv_cache_config=packed_config(),
            num_slots=2,
            result_buffer=1,
            tracer=tracer,
        )
        for prompt in (np.arange(6), np.arange(5) + 20):
            engine.submit(lm_request(prompt, max_new_tokens=4))
        engine.run_until_idle()
        counter = engine.stats.registry.get("serve_stream_chunks_evicted_total")
        assert counter.value() > 0
        evicted = [s for s in tracer.spans() if s.name == "stream_evicted"]
        assert evicted and evicted[0].attrs["chunks"] > 0


# --------------------------------------------------------------------------- #
# A raised round: refcount, pool and registry-mirror coverage
# --------------------------------------------------------------------------- #
class TestFailedRound:
    def test_mid_flight_failure_balances_pool_and_mirror(self, repository):
        stats = ServingStats()
        scheduler = ContinuousBatchingScheduler(
            repository,
            num_slots=2,
            cache_config=packed_config(),
            stats=stats,
        )
        FaultInjector(
            FaultSchedule((FaultSpec("phase_error", phase="round", at_count=4),))
        ).attach(scheduler)
        ids = [
            scheduler.submit(lm_request(np.arange(7) + i, max_new_tokens=10))
            for i in range(2)
        ]
        for _ in range(3):
            scheduler.step()
        assert scheduler.num_active == 2
        with pytest.raises(InjectedFault) as raised:
            scheduler.step()
        assert scheduler.num_active == 0
        # Every page either died with its cache or lives under the prefix
        # index with a matching refcount — nothing leaked, nothing double-freed.
        check_refcounts(scheduler)
        pool = scheduler.page_pool
        assert pool.num_entries == pool.num_prefix_nodes * 2 * 3  # K/V × layers
        assert pool.num_shared_pages == 0
        failures = dict(scheduler.take_failures())
        assert set(failures) == set(ids)
        assert all(exc is raised.value for exc in failures.values())
        # Terminal "error" chunks, one per failed stream.
        terminal = [c for c in scheduler.take_chunks() if c.finish_reason is not None]
        assert sorted(c.request_id for c in terminal) == sorted(ids)
        assert all(c.finish_reason == FinishReason.ERROR for c in terminal)
        # The error finishes reached the registry when they happened, and
        # the summary agrees without another step.
        counter = stats.registry.get("serve_requests_finished_total")
        assert counter.value_sum(reason="error", slo_class="default") == 2
        assert stats.summary().finish_error == 2
        # The scheduler still serves.
        scheduler.submit(lm_request(np.arange(4), max_new_tokens=2))
        results = drain(scheduler)
        assert results[0].output.finish_reason in (
            FinishReason.STOP,
            FinishReason.LENGTH,
        )
        check_refcounts(scheduler)
