"""Generation-API tests: SamplingParams, sampler filters, streaming, cancel."""

import asyncio

import numpy as np
import pytest

from repro.serve import (
    AsyncServer,
    FinishReason,
    KVCacheConfig,
    ModelRepository,
    RequestOutput,
    Sampler,
    SamplingParams,
    ServingEngine,
)
from repro.serve.kvcache import cache_for_model
from repro.serve.requests import InferenceRequest, ServingError, WorkloadFamily
from repro.serve.sampling import top_k_candidates
from repro.serve.scheduler import ContinuousBatchingScheduler, greedy_top_k


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


def sampled_request(params, seq_len=8, seed=0, model="gpt2-xl"):
    rng = np.random.default_rng(seed)
    return InferenceRequest(
        model, WorkloadFamily.LM, rng.integers(0, 96, size=seq_len), sampling=params
    )


class TestSamplingParams:
    def test_defaults_are_greedy(self):
        params = SamplingParams()
        assert params.greedy
        assert params.stop_token_ids == ()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"temperature": -0.1},
            {"top_k": -1},
            {"top_p": 0.0},
            {"top_p": 1.5},
            {"max_new_tokens": -1},
            {"logprobs": -2},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ServingError):
            SamplingParams(**kwargs)

    def test_frozen(self):
        params = SamplingParams()
        with pytest.raises(AttributeError):
            params.temperature = 1.0

    def test_stop_token_ids_normalized(self):
        params = SamplingParams(stop_token_ids=[np.int64(3), 7])
        assert params.stop_token_ids == (3, 7)


class TestRequestSampling:
    def test_default_sampling_scores_prompt_only(self):
        request = InferenceRequest("gpt2-xl", WorkloadFamily.LM, np.arange(4))
        assert request.sampling == SamplingParams()
        assert request.sampling.max_new_tokens == 0

    def test_request_keeps_its_sampling_params(self):
        params = SamplingParams(temperature=0.7, max_new_tokens=6, logprobs=2, seed=1)
        assert sampled_request(params).sampling is params

    def test_non_sampling_params_rejected(self):
        with pytest.raises(ServingError, match="SamplingParams"):
            InferenceRequest(
                "gpt2-xl", WorkloadFamily.LM, np.arange(4), sampling={"max_new_tokens": 2}
            )


class TestDeterministicTopK:
    def test_all_equal_breaks_ties_by_token_id(self):
        top = top_k_candidates(np.zeros(16), 3)
        assert top.tolist() == [0, 1, 2]

    def test_boundary_ties_are_deterministic(self):
        log_probs = np.array([0.5, 1.0, 0.5, 2.0, 0.5, 1.0])
        top = top_k_candidates(log_probs, 4)
        # Descending value; ascending token id among equals (1 before 5,
        # and of the three 0.5 ties only the lowest id survives).
        assert top.tolist() == [3, 1, 5, 0]

    def test_greedy_top_k_wrapper(self):
        log_probs = np.array([0.1, 0.9, 0.9, 0.2])
        out = greedy_top_k(log_probs, 3)
        assert out["next_tokens"] == [1, 2, 3]
        assert out["log_probs"] == [0.9, 0.9, pytest.approx(0.2)]
        with pytest.raises(ServingError):
            greedy_top_k(log_probs, 0)

    def test_first_candidate_matches_argmax(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            log_probs = rng.normal(size=50)
            assert top_k_candidates(log_probs, 5)[0] == int(np.argmax(log_probs))


def draw_support(params, log_probs, draws=400):
    """The set of token ids ``draws`` seeded samples from ``log_probs`` hit."""
    sampler = Sampler(params)
    generator = sampler.make_generator()
    return {sampler.sample(log_probs, generator).token_id for _ in range(draws)}


class TestSamplerFilters:
    def test_top_k_keeps_boundary_ties(self):
        log_probs = np.array([1.0, 3.0, 1.0, 2.0, 2.0])
        # k-th largest is 2.0; both 2.0 ties survive, both 1.0s are masked.
        params = SamplingParams(temperature=1.0, top_k=2, seed=5)
        assert draw_support(params, log_probs) == {1, 3, 4}

    def test_top_p_keeps_minimal_nucleus(self):
        log_probs = np.log(np.array([0.6, 0.3, 0.08, 0.02]))
        # 0.6 < 0.7 so the second token is still needed; the tail is cut.
        params = SamplingParams(temperature=1.0, top_p=0.7, seed=6)
        assert draw_support(params, log_probs) == {0, 1}

    def test_greedy_is_argmax_and_draws_nothing(self):
        sampler = Sampler(SamplingParams(top_k=1, top_p=0.5, seed=7))
        generator = sampler.make_generator()
        state = generator.bit_generator.state
        sampled = sampler.sample(np.array([0.1, 0.9, 0.3]), generator)
        assert sampled.token_id == 1
        assert sampled.logprob == pytest.approx(0.9)
        assert generator.bit_generator.state == state

    def test_seeded_sampling_reproducible(self):
        params = SamplingParams(temperature=0.8, top_k=20, seed=7)
        log_probs = np.random.default_rng(0).normal(size=64)
        sampler = Sampler(params)
        draws_a = [
            sampler.sample(log_probs, sampler.make_generator()).token_id
            for _ in range(5)
        ]
        draws_b = [
            sampler.sample(log_probs, sampler.make_generator()).token_id
            for _ in range(5)
        ]
        assert draws_a == draws_b

    def test_reported_logprob_is_unwarped(self):
        params = SamplingParams(temperature=0.25, seed=3, logprobs=2)
        log_probs = np.log(np.array([0.7, 0.2, 0.1]))
        sampled = Sampler(params).sample(log_probs, np.random.default_rng(3))
        assert sampled.logprob == pytest.approx(float(log_probs[sampled.token_id]))
        assert sampled.top_logprobs[0] == (0, pytest.approx(float(log_probs[0])))


class TestGreedyEquivalence:
    @pytest.mark.parametrize("quantize", [True, False], ids=["packed", "fp32"])
    def test_temperature_zero_matches_manual_argmax_decode(self, repo, quantize):
        """SamplingParams(temperature=0) must be token-for-token the
        pre-redesign greedy path on fp32 and packed KV configs."""
        config = KVCacheConfig(bits=4, page_size=4, quantize=quantize)
        prompt = np.random.default_rng(50).integers(0, 96, size=10)
        max_new = 5
        # Hand-rolled pre-redesign greedy loop straight on the model.
        entry = repo.get("gpt2-xl", WorkloadFamily.LM)
        cache = cache_for_model(entry.model, config)
        lp = entry.model.log_probs_incremental(
            prompt[None, :], [cache], last_only=True
        )[:, -1, :]
        expected = [int(np.argmax(lp[0]))]
        for _ in range(max_new - 1):
            lp = entry.model.log_probs_incremental(
                np.array([[expected[-1]]]), [cache]
            )[:, -1, :]
            expected.append(int(np.argmax(lp[0])))
        cache.release()

        scheduler = ContinuousBatchingScheduler(repo, num_slots=2, cache_config=config)
        scheduler.submit(
            InferenceRequest(
                "gpt2-xl",
                WorkloadFamily.LM,
                prompt,
                sampling=SamplingParams(temperature=0, max_new_tokens=max_new),
            )
        )
        result = scheduler.run_until_idle()[0]
        assert result.output.token_ids == expected
        assert result.output.finish_reason == FinishReason.LENGTH

    def test_seeded_sampling_matches_one_slot_reference(self, repo):
        """A seeded sampled stream co-batched with another request equals the
        1-slot, all-features-off scheduler's stream."""
        params = SamplingParams(temperature=0.9, top_k=30, seed=11, max_new_tokens=6)
        engine = ServingEngine(repository=repo, max_batch_size=2, max_wait=0.0)
        served = engine.serve(
            [sampled_request(params, seed=4), gen_request(max_new_tokens=6, seed=5)]
        )[0]
        reference = ContinuousBatchingScheduler(
            repo, num_slots=1, cache_config=KVCacheConfig(bits=4, prefix_sharing=False)
        )
        reference.submit(sampled_request(params, seed=4))
        expected = reference.run_until_idle()[0]
        assert served.output.token_ids == expected.output.token_ids
        assert len(served.output.token_ids) == 6

    def test_sampled_run_is_reproducible_per_seed(self, repo):
        params = SamplingParams(temperature=1.2, top_p=0.95, seed=21, max_new_tokens=5)
        runs = []
        for _ in range(2):
            engine = ServingEngine(repository=repo, max_batch_size=2, max_wait=0.0)
            runs.append(engine.serve([sampled_request(params, seed=5)])[0].output.token_ids)
        assert runs[0] == runs[1]


class TestStopTokens:
    def test_stop_token_finishes_mid_round(self, repo):
        # Learn the greedy stream first, then stop on its second token.
        probe = ServingEngine(repository=repo, max_batch_size=2, max_wait=0.0)
        free_run = probe.serve([gen_request(max_new_tokens=6, seed=6)])[0]
        tokens = free_run.output.token_ids
        assert free_run.output.finish_reason == FinishReason.LENGTH

        engine = ServingEngine(repository=repo, max_batch_size=2, max_wait=0.0)
        stopped = engine.serve(
            [
                sampled_request(
                    SamplingParams(
                        max_new_tokens=6, stop_token_ids=(tokens[1],)
                    ),
                    seed=6,
                )
            ]
        )[0]
        assert stopped.output.finish_reason == FinishReason.STOP
        # The stream ends at the first occurrence of the stop token (the
        # greedy stream may repeat tokens, so locate it rather than assume).
        first_stop = tokens.index(tokens[1])
        assert stopped.output.token_ids == tokens[: first_stop + 1]
        summary = engine.stats.summary()
        assert summary.finish_stop == 1
        assert summary.finish_reasons["stop"] == 1


class TestStreaming:
    def test_chunks_concatenate_to_generated_tokens(self, repo):
        engine = ServingEngine(repository=repo, max_batch_size=2, max_wait=0.0)
        reference = engine.serve([gen_request(max_new_tokens=5, seed=8)])[0]

        streamer = ServingEngine(repository=repo, max_batch_size=2, max_wait=0.0)
        request = gen_request(max_new_tokens=5, seed=8)
        streamer.submit(request)
        chunks = list(streamer.stream(request.request_id))
        assert [c.token_id for c in chunks] == reference.output.token_ids
        assert [c.index for c in chunks] == list(range(5))
        assert [c.finish_reason for c in chunks[:-1]] == [None] * 4
        assert chunks[-1].finish_reason == FinishReason.LENGTH
        summary = streamer.stats.summary()
        assert summary.ttft_p50_ms >= 0.0
        assert summary.finish_length == 1

    def test_streamed_logprobs_reported(self, repo):
        engine = ServingEngine(repository=repo, max_batch_size=2, max_wait=0.0)
        request = sampled_request(
            SamplingParams(max_new_tokens=3, logprobs=4), seed=9
        )
        engine.submit(request)
        chunks = list(engine.stream(request.request_id))
        for chunk in chunks:
            assert len(chunk.top_logprobs) == 4
            assert chunk.top_logprobs[0][1] >= chunk.top_logprobs[-1][1]
            assert chunk.logprob == pytest.approx(
                dict(chunk.top_logprobs).get(chunk.token_id, chunk.logprob)
            )

    def test_stream_unknown_request_raises(self, repo):
        engine = ServingEngine(repository=repo, max_batch_size=2, max_wait=0.0)
        with pytest.raises(ServingError, match="no streaming request"):
            next(engine.stream("req-does-not-exist"))

    def test_stream_failed_admission_raises(self, repo):
        engine = ServingEngine(repository=repo, max_batch_size=2, max_wait=0.0)
        request = gen_request(max_new_tokens=3, model="no-such-model")
        engine.submit(request)
        with pytest.raises(ServingError, match="failed"):
            list(engine.stream(request.request_id))


class TestCancellation:
    def test_cancel_mid_decode_releases_all_pool_references(self, repo):
        config = KVCacheConfig(bits=4, page_size=4)
        scheduler = ContinuousBatchingScheduler(repo, num_slots=2, cache_config=config)
        pool = scheduler.page_pool
        scheduler.submit(gen_request(seq_len=12, max_new_tokens=32, seed=60))
        scheduler.step()  # admitted and decoding
        assert scheduler.num_active == 1
        result = scheduler.cancel(scheduler._slots[0].request.request_id)
        assert result.output.finish_reason == FinishReason.ABORTED
        assert result.finish_reason == FinishReason.ABORTED
        assert scheduler.num_active == 0
        # Refcounts return to pre-admission values: only prefix-indexed pages
        # survive, each held exactly once (by its index node).
        assert pool.num_entries == pool.num_prefix_nodes * 2 * 3  # K/V × layers
        assert pool.num_shared_pages == 0
        assert scheduler.cancelled == 1

    def test_cancel_frees_slot_for_queued_request_same_step(self, repo):
        scheduler = ContinuousBatchingScheduler(repo, num_slots=1)
        first = gen_request(max_new_tokens=32, seed=61)
        second = gen_request(max_new_tokens=2, seed=62)
        scheduler.submit(first)
        scheduler.submit(second)
        scheduler.step()
        assert scheduler.num_active == 1 and scheduler.num_queued == 1
        scheduler.cancel(first.request_id)
        scheduler.step()  # the freed slot admits the queued request now
        assert scheduler.num_active == 1
        assert scheduler._slots[0].request.request_id == second.request_id

    def test_cancel_never_perturbs_cobatched_sequences(self, repo):
        solo_engine = ServingEngine(repository=repo, max_batch_size=4, max_wait=0.0)
        survivor_solo = solo_engine.serve([gen_request(max_new_tokens=6, seed=63)])[0]

        engine = ServingEngine(repository=repo, max_batch_size=4, max_wait=0.0)
        doomed = gen_request(max_new_tokens=32, seed=64)
        survivor = gen_request(max_new_tokens=6, seed=63)
        engine.submit(doomed)
        engine.submit(survivor)
        engine.step(force=True)
        engine.step(force=True)
        assert engine.cancel(doomed.request_id) is not None
        results = {r.request_id: r for r in engine.run_until_idle()}
        assert (
            results[survivor.request_id].output.token_ids
            == survivor_solo.output.token_ids
        )
        aborted = engine.result(doomed.request_id)
        assert aborted.output.finish_reason == FinishReason.ABORTED
        assert 0 < len(aborted.output.token_ids) < 32
        summary = engine.stats.summary()
        assert summary.finish_aborted == 1

    def test_cancel_queued_request_before_admission(self, repo):
        scheduler = ContinuousBatchingScheduler(repo, num_slots=1)
        scheduler.submit(gen_request(max_new_tokens=8, seed=65))
        waiting = gen_request(max_new_tokens=8, seed=66)
        scheduler.submit(waiting)
        scheduler.step()
        result = scheduler.cancel(waiting.request_id)
        assert result.output.finish_reason == FinishReason.ABORTED
        assert result.output.token_ids == []
        assert scheduler.num_queued == 0

    def test_cancel_unknown_returns_none(self, repo):
        engine = ServingEngine(repository=repo, max_batch_size=2, max_wait=0.0)
        assert engine.cancel("req-unknown") is None

    def test_cancel_terminates_stream(self, repo):
        engine = ServingEngine(repository=repo, max_batch_size=2, max_wait=0.0)
        request = gen_request(max_new_tokens=48, seed=67)
        engine.submit(request)
        stream = engine.stream(request.request_id)
        first = next(stream)
        assert first.is_token
        engine.cancel(request.request_id)
        rest = list(stream)
        assert rest[-1].finish_reason == FinishReason.ABORTED
        assert not rest[-1].is_token

    def test_cancel_micro_batched_request(self, repo):
        engine = ServingEngine(repository=repo, max_batch_size=4, max_wait=10.0)
        request = InferenceRequest("gpt2-xl", WorkloadFamily.LM, np.arange(6))
        engine.submit(request)
        result = engine.cancel(request.request_id)
        assert result.output.finish_reason == FinishReason.ABORTED
        assert engine.pending == 0


#: (model, page size, turn-1 prompt length, turn-1 max_new_tokens): each
#: first turn seals at least one page during decode, past its prompt pages.
FOLLOW_UP_TIERS = [
    ("gpt2-xl", 4, 10, 8),
    ("gpt2-xl", 8, 12, 10),
    ("gpt2-xl-scaled", 32, 60, 12),
]


class TestFollowUpTurn:
    """A follow-up turn re-prompts ``prompt + generated + new`` tokens; it
    attaches only the first turn's prefill-sealed pages and prefills the
    rest, so it serves exactly what a cold engine serves."""

    @staticmethod
    def turn(scheduler, model, prompt, max_new_tokens):
        scheduler.submit(
            InferenceRequest(
                model,
                WorkloadFamily.LM,
                prompt,
                sampling=SamplingParams(max_new_tokens=max_new_tokens),
            )
        )
        [result] = scheduler.run_until_idle()
        return result.output

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "model,page_size,prompt_len,max_new_tokens",
        FOLLOW_UP_TIERS,
        ids=[f"{model}-page{page}" for model, page, _, _ in FOLLOW_UP_TIERS],
    )
    def test_follow_up_attaches_prompt_pages_and_matches_cold_engine(
        self, repo, model, page_size, prompt_len, max_new_tokens, seed
    ):
        config = KVCacheConfig(bits=4, page_size=page_size)
        scheduler = ContinuousBatchingScheduler(repo, num_slots=2, cache_config=config)
        rng = np.random.default_rng(70 + seed)
        prompt = rng.integers(0, 96, size=prompt_len)
        first = self.turn(scheduler, model, prompt, max_new_tokens)
        # prompt + generated[:-1] tokens cached: decode sealed pages too.
        assert first.kv_cache["seq_len"] // page_size > prompt_len // page_size
        follow_up = np.concatenate(
            [prompt, np.asarray(first.token_ids, dtype=np.int64), rng.integers(0, 96, size=5)]
        )
        second = self.turn(scheduler, model, follow_up, 6)
        assert second.kv_cache["prefix_shared_tokens"] == prompt_len // page_size * page_size
        cold = ContinuousBatchingScheduler(
            repo,
            num_slots=2,
            cache_config=KVCacheConfig(bits=4, page_size=page_size, prefix_sharing=False),
        )
        reference = self.turn(cold, model, follow_up, 6)
        assert second.token_ids == reference.token_ids
        np.testing.assert_allclose(second.logprobs, reference.logprobs, rtol=0, atol=1e-3)

    def test_registers_prompt_pages_only(self, repo):
        config = KVCacheConfig(bits=4, page_size=4)
        scheduler = ContinuousBatchingScheduler(repo, num_slots=2, cache_config=config)
        prompt = np.random.default_rng(71).integers(0, 96, size=16)
        scheduler.submit(
            InferenceRequest(
                "gpt2-xl",
                WorkloadFamily.LM,
                prompt,
                sampling=SamplingParams(max_new_tokens=8),
            )
        )
        scheduler.run_until_idle()
        # Only the 4 prompt pages are indexed (per layer pair), none generated.
        assert scheduler.page_pool.num_prefix_nodes == 4


class TestRequestOutput:
    def test_score_only_output(self, repo):
        engine = ServingEngine(repository=repo, max_batch_size=2, max_wait=0.0)
        request = InferenceRequest(
            "gpt2-xl", WorkloadFamily.LM, np.arange(8), sampling=SamplingParams(logprobs=3)
        )
        output = engine.serve([request])[0].output
        assert isinstance(output, RequestOutput)
        assert output.finish_reason is None
        assert output.token_ids == [] and output.kv_cache is None
        assert len(output.next_tokens) == len(output.log_probs) == 3

    def test_generation_output(self, repo):
        engine = ServingEngine(repository=repo, max_batch_size=2, max_wait=0.0)
        result = engine.serve([gen_request(max_new_tokens=3, seed=80)])[0]
        output = result.output
        assert output.kv_cache["seq_len"] > 0
        assert output.finish_reason == FinishReason.LENGTH
        assert output.num_generated == 3
        assert len(output.logprobs) == 3
        assert output.next_tokens
        as_dict = output.as_dict()
        assert as_dict["token_ids"] == output.token_ids
        assert as_dict["finish_reason"] == FinishReason.LENGTH

    def test_stats_latency_fields_populated(self, repo):
        engine = ServingEngine(repository=repo, max_batch_size=4, max_wait=0.0)
        engine.serve([gen_request(max_new_tokens=5, seed=81)])
        summary = engine.stats.summary()
        assert summary.finish_length == 1
        assert summary.ttft_p95_ms >= summary.ttft_p50_ms >= 0.0
        assert summary.inter_token_p95_ms >= summary.inter_token_p50_ms > 0.0
        as_dict = summary.as_dict()
        for key in ("ttft_p50_ms", "inter_token_p95_ms", "finish_length"):
            assert key in as_dict


class TestAsyncStreaming:
    def test_async_stream_matches_infer(self, repo):
        async def scenario():
            reference_engine = ServingEngine(
                repository=repo, max_batch_size=2, max_wait=0.0
            )
            async with AsyncServer(reference_engine) as server:
                reference = await server.infer(gen_request(max_new_tokens=4, seed=90))
            engine = ServingEngine(repository=repo, max_batch_size=2, max_wait=0.0)
            async with AsyncServer(engine) as server:
                chunks = []
                async for chunk in server.stream(gen_request(max_new_tokens=4, seed=90)):
                    chunks.append(chunk)
            return reference, chunks

        reference, chunks = asyncio.run(scenario())
        assert [c.token_id for c in chunks] == reference.output.token_ids
        assert chunks[-1].finish_reason == FinishReason.LENGTH

    def test_async_cancel_resolves_infer_future(self, repo):
        async def scenario():
            engine = ServingEngine(repository=repo, max_batch_size=2, max_wait=0.0)
            async with AsyncServer(engine) as server:
                request = gen_request(max_new_tokens=48, seed=91)
                task = asyncio.ensure_future(server.infer(request))
                # Let a couple of decode rounds run before aborting.
                for _ in range(20):
                    await asyncio.sleep(0)
                cancelled = await server.cancel(request.request_id)
                result = await task
                return cancelled, result

        cancelled, result = asyncio.run(scenario())
        assert cancelled is not None
        assert result.output.finish_reason == FinishReason.ABORTED
        assert len(result.output.token_ids) < 48
