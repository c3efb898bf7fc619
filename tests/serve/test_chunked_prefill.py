"""Chunked prefill: token identity with unchunked, interleaving, lifecycle."""

import numpy as np
import pytest

from repro.serve.admission import AdmissionPolicy
from repro.serve.engine import ServingEngine
from repro.serve.faultinject import (
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    check_refcounts,
)
from repro.serve.kvcache import KVCacheConfig
from repro.serve.repository import ModelRepository
from repro.serve.requests import InferenceRequest, ServingError, WorkloadFamily
from repro.serve.sampling import SamplingParams
from repro.serve.scheduler import ContinuousBatchingScheduler
from repro.serve.spec import SpeculativeConfig, SpeculativeDecoder
from repro.serve.telemetry import Tracer


@pytest.fixture(scope="module")
def repo():
    repository = ModelRepository(bits=4, seed=0)
    repository.get("gpt2-xl", WorkloadFamily.LM)
    return repository


# Full-precision K/V pages (quantize=False): the bit-exact reference mode
# where chunk boundaries need not be page-aligned.
FP32_CACHE = KVCacheConfig(bits=4, page_size=8, quantize=False)


def gen_request(seq_len=8, max_new_tokens=4, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    return InferenceRequest(
        "gpt2-xl",
        WorkloadFamily.LM,
        rng.integers(0, 96, size=seq_len),
        sampling=SamplingParams(max_new_tokens=max_new_tokens),
        **kwargs,
    )


def run_to_completion(scheduler, requests, max_steps=500):
    outputs = {}
    for request in requests:
        scheduler.submit(request)
    steps = 0
    while scheduler.num_queued or scheduler.num_active:
        for result in scheduler.step():
            outputs[result.request_id] = list(result.output.token_ids)
        steps += 1
        assert steps < max_steps, "scheduler did not drain"
    return outputs


class TestTokenIdentity:
    """Greedy output must not depend on the prefill chunking."""

    @pytest.mark.parametrize("chunk", [5, 7, 8, 13, 16])
    def test_fp32_any_chunk_size(self, repo, chunk):
        def run(chunk_tokens):
            scheduler = ContinuousBatchingScheduler(
                repo, num_slots=2, cache_config=FP32_CACHE,
                prefill_chunk_tokens=chunk_tokens,
            )
            requests = [gen_request(seq_len=37, max_new_tokens=6, seed=s)
                        for s in range(2)]
            outputs = run_to_completion(scheduler, requests)
            return [outputs[r.request_id] for r in requests]

        assert run(chunk) == run(None)

    @pytest.mark.parametrize("chunk", [8, 16, 24])
    def test_packed_page_aligned_chunks(self, repo, chunk):
        """Quantized caches seal pages; chunk boundaries land on them."""
        config = KVCacheConfig(bits=4, page_size=8)
        prompts = [np.random.default_rng(s).integers(0, 96, size=37)
                   for s in range(2)]

        def run(chunk_tokens):
            scheduler = ContinuousBatchingScheduler(
                repo, num_slots=2, cache_config=config,
                prefill_chunk_tokens=chunk_tokens,
            )
            params = SamplingParams(max_new_tokens=6)
            reqs = [InferenceRequest("gpt2-xl", WorkloadFamily.LM, p, sampling=params)
                    for p in prompts]
            out = run_to_completion(scheduler, reqs)
            return [out[r.request_id] for r in reqs]

        assert run(chunk) == run(None)

    def test_cross_page_boundary_prompt(self, repo):
        """A prompt spanning several pages chunks without corrupting K/V."""
        config = KVCacheConfig(bits=4, page_size=4)
        prompt = np.random.default_rng(3).integers(0, 96, size=29)

        def run(chunk_tokens):
            scheduler = ContinuousBatchingScheduler(
                repo, num_slots=1, cache_config=config,
                prefill_chunk_tokens=chunk_tokens,
            )
            request = InferenceRequest("gpt2-xl", WorkloadFamily.LM, prompt,
                                       sampling=SamplingParams(max_new_tokens=5))
            return run_to_completion(scheduler, [request])[request.request_id]

        assert run(4) == run(None) == run(12)


class TestInterleaving:
    def test_short_request_decodes_during_long_prefill(self, repo):
        """Chunking bounds the prefill work per round, so short requests
        finish while the long document is still absorbing chunks."""
        scheduler = ContinuousBatchingScheduler(
            repo, num_slots=2,
            cache_config=KVCacheConfig(bits=4, page_size=8),
            prefill_chunk_tokens=8,
        )
        long_request = gen_request(seq_len=56, max_new_tokens=2, seed=1)
        short_request = gen_request(seq_len=6, max_new_tokens=2, seed=2)
        scheduler.submit(long_request)
        scheduler.submit(short_request)
        finished_order = []
        steps = 0
        while scheduler.num_queued or scheduler.num_active:
            for result in scheduler.step():
                finished_order.append(result.request_id)
            steps += 1
            assert steps < 100
        assert finished_order[0] == short_request.request_id
        # The 56-token prompt at 8 tokens/round needs ~7 chunk rounds.
        assert steps >= 7

    def test_prefilling_slot_counts_as_active(self, repo):
        scheduler = ContinuousBatchingScheduler(
            repo, num_slots=1,
            cache_config=KVCacheConfig(bits=4, page_size=8),
            prefill_chunk_tokens=8,
        )
        scheduler.submit(gen_request(seq_len=40, max_new_tokens=1))
        scheduler.step()
        assert scheduler.num_active == 1  # mid-prefill, holds its slot


class TestLifecycle:
    def test_cancel_mid_prefill(self, repo):
        scheduler = ContinuousBatchingScheduler(
            repo, num_slots=1,
            cache_config=KVCacheConfig(bits=4, page_size=8),
            prefill_chunk_tokens=8,
        )
        request = gen_request(seq_len=56, max_new_tokens=2)
        scheduler.submit(request)
        scheduler.step()  # first chunk only
        result = scheduler.cancel(request.request_id)
        assert result is not None
        assert result.output.finish_reason == "aborted"
        assert result.output.token_ids == []
        assert scheduler.num_active == 0

    def test_deadline_mid_prefill(self, repo):
        clock = {"t": 0.0}
        scheduler = ContinuousBatchingScheduler(
            repo, num_slots=1, clock=lambda: clock["t"],
            cache_config=KVCacheConfig(bits=4, page_size=8),
            prefill_chunk_tokens=8,
        )
        request = gen_request(seq_len=56, max_new_tokens=2, deadline_s=1.0)
        scheduler.submit(request)
        scheduler.step()
        clock["t"] = 5.0  # expire while still prefilling
        results = scheduler.step()
        expired = [r for r in results if r.request_id == request.request_id]
        assert expired and expired[0].output.finish_reason == "deadline"

    def test_validation(self, repo):
        with pytest.raises(ServingError):
            ContinuousBatchingScheduler(repo, num_slots=1,
                                        prefill_chunk_tokens=0)
        with pytest.raises(ServingError):
            # Quantized caches require page-aligned chunks.
            ContinuousBatchingScheduler(
                repo, num_slots=1,
                cache_config=KVCacheConfig(bits=4, page_size=8),
                prefill_chunk_tokens=6,
            )

    def test_engine_threads_chunk_size(self, repo):
        engine = ServingEngine(
            repo, kv_cache_config=KVCacheConfig(bits=4, page_size=8),
            num_slots=2, prefill_chunk_tokens=16,
        )
        assert engine.lm_scheduler.prefill_chunk_tokens == 16
        request = gen_request(seq_len=40, max_new_tokens=2)
        engine.submit(request)
        results = []
        for _ in range(100):
            results += engine.step(force=True)
            if results:
                break
        assert results[0].output.finish_reason == "length"


class TestPrefixSharingWithChunks:
    def test_chunked_prefill_registers_full_prefix(self, repo):
        """After a chunked prefill completes, a same-prefix follow-up reuses
        the cached pages instead of re-prefilling."""
        from repro.serve.stats import ServingStats

        config = KVCacheConfig(bits=4, page_size=8, prefix_sharing=True)
        scheduler = ContinuousBatchingScheduler(
            repo, num_slots=2, cache_config=config, prefill_chunk_tokens=8,
            stats=ServingStats(),
        )
        prompt = np.random.default_rng(9).integers(0, 96, size=40)
        first = InferenceRequest("gpt2-xl", WorkloadFamily.LM, prompt,
                                 sampling=SamplingParams(max_new_tokens=2))
        out_first = run_to_completion(scheduler, [first])[first.request_id]
        follow = InferenceRequest("gpt2-xl", WorkloadFamily.LM, prompt,
                                  sampling=SamplingParams(max_new_tokens=2))
        out_follow = run_to_completion(scheduler, [follow])[follow.request_id]
        # The follow-up adopted sealed pages instead of re-prefilling.
        assert scheduler.page_pool.prefix_pages_attached > 0
        assert out_follow == out_first


#: Cheap calibration: the draft heads only need to exist and propose.
SPEC_CONFIG = SpeculativeConfig(
    num_speculative_tokens=2,
    calibration_sequences=6,
    calibration_tokens=12,
    calibration_prompt_len=4,
)


class TestSpeculationDuringChunkedPrefill:
    """A slot mid-chunked-prefill must never join the speculative path.

    Its cache holds only a prompt prefix and it has emitted no token to
    extend, so draft proposals for it would read ``slot.generated[-1]``
    (IndexError pre-guard) and a verify batch would attend a half-built
    prefix.  The guard lives in ``_plan_speculation`` so *every* caller is
    safe, not just the round loop's prefilling-slot filter.
    """

    @pytest.fixture(scope="class")
    def decoder(self, repo):
        config = KVCacheConfig(bits=4, page_size=8, prefix_sharing=False)
        decoder = SpeculativeDecoder(
            repo, SPEC_CONFIG, target_cache_config=config
        )
        decoder.warm("gpt2-xl")
        return decoder

    def test_mid_prefill_slot_gets_no_proposals(self, repo, decoder):
        scheduler = ContinuousBatchingScheduler(
            repo, num_slots=1,
            cache_config=KVCacheConfig(bits=4, page_size=8,
                                       prefix_sharing=False),
            prefill_chunk_tokens=8,
            speculative=decoder,
        )
        scheduler.submit(gen_request(seq_len=56, max_new_tokens=8))
        scheduler.step()  # first chunk only
        slot = next(s for s in scheduler._slots if s is not None)
        assert slot.prefilling and not slot.generated
        # Direct call: the guard must hand back an empty proposal list
        # instead of raising on the slot's empty ``generated`` history.
        assert scheduler._plan_speculation([slot]) == [[]]

    def test_chunked_speculative_token_identity(self, repo, decoder):
        """Chunked prefill × speculation = plain unchunked greedy output."""
        config = KVCacheConfig(bits=4, page_size=8, prefix_sharing=False)
        prompts = [np.random.default_rng(s).integers(0, 96, size=37)
                   for s in (21, 22)]

        def run(chunk_tokens, speculative):
            scheduler = ContinuousBatchingScheduler(
                repo, num_slots=2, cache_config=config,
                prefill_chunk_tokens=chunk_tokens, speculative=speculative,
            )
            params = SamplingParams(max_new_tokens=10)
            reqs = [InferenceRequest("gpt2-xl", WorkloadFamily.LM, p, sampling=params)
                    for p in prompts]
            out = run_to_completion(scheduler, reqs)
            return [out[r.request_id] for r in reqs]

        assert run(8, decoder) == run(None, None)


class TestInflightFollowers:
    """A request whose prefix another slot is still prefilling waits for it.

    The follower's cache stays empty and it runs no chunk until its leader
    has sealed the shared pages (or stopped prefilling); it then attaches
    what the prefix index holds and prefills only the rest.  Every stream
    must equal the one-slot, no-sharing reference's, and every round must
    leave the pool's refcounts balanced.
    """

    PAGE = 8
    DOC = 40  # five pages

    def prompts(self, seed, suffixes=(3, 5, 7)):
        rng = np.random.default_rng(seed)
        doc = rng.integers(0, 96, size=self.DOC)
        return [np.concatenate([doc, rng.integers(0, 96, size=n)]) for n in suffixes]

    def requests(self, prompts, **kwargs):
        return [
            InferenceRequest("gpt2-xl", WorkloadFamily.LM, prompt,
                             sampling=SamplingParams(max_new_tokens=6), **kwargs)
            for prompt in prompts
        ]

    def reference(self, repo, prompts):
        scheduler = ContinuousBatchingScheduler(
            repo, num_slots=1,
            cache_config=KVCacheConfig(bits=4, page_size=self.PAGE, prefix_sharing=False),
        )
        outputs = run_to_completion(scheduler, self.requests(prompts))
        return sorted(outputs.values())

    def drain(self, scheduler, outputs, max_steps=200):
        """Step to idle, checking refcounts every round."""
        for _ in range(max_steps):
            if not len(scheduler):
                break
            for result in scheduler.step():
                outputs[result.request_id] = result.output
            check_refcounts(scheduler)
        assert not len(scheduler), "scheduler did not drain"
        pool = scheduler.page_pool
        assert pool.num_blocks == 0 and pool.decoded_cache_bytes == 0
        # No sequence holds a page any more: each is its index node's alone.
        assert all(handle.refcount == 1 for handle in pool._entries.values())
        return outputs

    @staticmethod
    def prefilled(scheduler):
        registry = scheduler.stats.registry
        return (registry.get("serve_tokens_total").value()
                - registry.get("serve_generated_tokens_total").value())

    @pytest.mark.parametrize("chunk", [None, 8, 16])
    def test_cold_wave_prefills_the_document_once(self, repo, chunk):
        prompts = self.prompts(seed=30)
        scheduler = ContinuousBatchingScheduler(
            repo, num_slots=3, cache_config=KVCacheConfig(bits=4, page_size=self.PAGE),
            prefill_chunk_tokens=chunk,
        )
        requests = self.requests(prompts)
        for request in requests:
            scheduler.submit(request)
        scheduler.step()
        # The two later requests wait on the first with empty caches.
        followers = [slot for slot in scheduler._slots if slot.leader is not None]
        assert len(followers) == 2
        assert all(slot.cache.seq_len == 0 and slot.prefill_tokens == 0
                   for slot in followers)
        outputs = self.drain(scheduler, {})
        got = [outputs[request.request_id] for request in requests]
        assert sorted(list(out.token_ids) for out in got) == self.reference(repo, prompts)
        assert [out.kv_cache["prefix_shared_tokens"] for out in got] == [0, 40, 40]
        suffixes = sum(prompt.size - self.DOC for prompt in prompts)
        assert self.prefilled(scheduler) == self.DOC + suffixes

    @pytest.mark.parametrize(
        "ending, chunk",
        # Unchunked, a leader finishes its prefill in the round that stages
        # it, so only a failing forward loses it mid-prefill.
        [("cancel", 8), ("preempt", 8), ("error", 8), ("error", None)],
    )
    def test_follower_takes_over_from_a_lost_leader(self, repo, ending, chunk):
        """The leader stops mid-prefill; one follower takes over from the
        last indexed page and the other follows it."""
        prompts = self.prompts(seed=31)
        scheduler = ContinuousBatchingScheduler(
            repo, num_slots=3, cache_config=KVCacheConfig(bits=4, page_size=self.PAGE),
            prefill_chunk_tokens=chunk,
            admission=AdmissionPolicy(
                class_priority={"interactive": 10, "batch": 5, "bulk": 0}, preempt=True
            ),
            tracer=Tracer() if ending == "error" else None,
        )
        if ending == "error":
            # Fail the leader's second forward (unchunked, its only one).
            # Its followers run no forward while they wait, so every embed
            # span before the fault is the leader's.
            at = 2 if chunk else 1
            FaultInjector(
                FaultSchedule([FaultSpec("phase_error", phase="embed", at_count=at)])
            ).attach(scheduler)
        [leader] = self.requests(
            prompts[:1], slo_class="bulk" if ending == "preempt" else "batch"
        )
        followers = self.requests(prompts[1:], slo_class="batch")
        scheduler.submit(leader)
        if ending == "preempt":
            # Admission pops the best priority first: let the low-priority
            # leader start alone, so the followers stage behind it.
            scheduler.step()
        for request in followers:
            scheduler.submit(request)
        outputs = {}
        for result in scheduler.step():
            outputs[result.request_id] = result.output
        check_refcounts(scheduler)
        assert all(slot.leader is not None for slot in scheduler._slots[1:])
        # The leader's chunks so far are indexed (nothing when the unchunked
        # leader failed).
        indexed = scheduler.page_pool.num_prefix_nodes * self.PAGE
        assert 0 < indexed < self.DOC if chunk else indexed == 0
        late = []
        if ending == "cancel":
            scheduler.cancel(leader.request_id)
        elif ending == "preempt":
            late = self.requests(
                [np.random.default_rng(32).integers(0, 96, size=12)],
                slo_class="interactive",
            )
            scheduler.submit(late[0])
        self.drain(scheduler, outputs)
        served = [*followers, *late] + ([leader] if ending == "preempt" else [])
        want = self.reference(repo, [r.token_ids for r in served])
        assert sorted(list(outputs[r.request_id].token_ids) for r in served) == want
        if ending == "preempt":
            assert scheduler.preempted == 1
        if ending == "error":
            assert [rid for rid, _ in scheduler.take_failures()] == [leader.request_id]
        shared = sorted(outputs[r.request_id].kv_cache["prefix_shared_tokens"]
                        for r in followers)
        assert shared == [indexed, self.DOC]
        suffixes = sum(prompt.size - self.DOC for prompt in prompts[1:])
        if ending != "preempt":  # a preempted leader resumes and prefills too
            assert self.prefilled(scheduler) == self.DOC + suffixes

    @pytest.mark.parametrize("chunk", [None, 8])
    def test_follower_deadline_passes_while_it_waits(self, repo, chunk):
        clock = {"t": 0.0}
        scheduler = ContinuousBatchingScheduler(
            repo, num_slots=2, clock=lambda: clock["t"],
            cache_config=KVCacheConfig(bits=4, page_size=self.PAGE),
            prefill_chunk_tokens=chunk,
        )
        prompts = self.prompts(seed=33, suffixes=(3, 5))
        [leader] = self.requests(prompts[:1])
        [follower] = self.requests(prompts[1:], deadline_s=1.0)
        scheduler.submit(leader)
        scheduler.submit(follower)
        scheduler.step()
        waiting = next(s for s in scheduler._slots if s.request is follower)
        assert waiting.leader is not None and waiting.cache.seq_len == 0
        scheduler.take_chunks()
        clock["t"] = 5.0
        results = {r.request_id: r.output for r in scheduler.step()}
        check_refcounts(scheduler)
        expired = results[follower.request_id]
        assert expired.finish_reason == "deadline" and expired.token_ids == []
        mine = [c for c in scheduler.take_chunks() if c.request_id == follower.request_id]
        assert [c.token_id for c in mine] == [None]
        assert waiting.prefill_tokens == 0
        outputs = self.drain(scheduler, {})
        assert list(outputs[leader.request_id].token_ids) == self.reference(repo, prompts[:1])[0]
