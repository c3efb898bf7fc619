"""Self-speculative decoding: the draft pass, pairing, equivalence, lifecycle.

The load-bearing guarantee is **exactness**: speculative greedy decode must
be token-for-token identical to non-speculative greedy decode — fp32 and
packed caches alike — because every emitted token is sampled from the
target's own verified distribution and the rejected suffix of the optimistic
KV append rolls back losslessly (seals deferred during verify, page-boundary
tokens routed through eager sealing).
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.nn.transformer import TransformerDecoderLayer
from repro.serve import (
    ContinuousBatchingScheduler,
    InferenceRequest,
    KVCacheConfig,
    ModelRepository,
    SamplingParams,
    ServingEngine,
    ServingError,
    SpeculativeConfig,
    SpeculativeDecoder,
    WorkloadFamily,
)
from repro.serve.kvcache import LayerKVCache, PagePool, cache_for_model
from repro.serve.stats import ServingStats

MODEL = "gpt2-xl"
VOCAB = 96

#: Cheap calibration for tests: the heads only need to exist and propose,
#: not to maximize acceptance.
TEST_SPEC = SpeculativeConfig(
    num_speculative_tokens=2,
    calibration_sequences=6,
    calibration_tokens=12,
    calibration_prompt_len=4,
)
#: A draft as deep as the 3-layer toy target: it cannot be paired with it.
TOO_DEEP = dataclasses.replace(TEST_SPEC, draft_layers=3)
#: A 4-layer target the too-deep draft still pairs with.
DEEP_MODEL = "gpt2-xl-scaled"


@pytest.fixture(scope="module")
def repository():
    repo = ModelRepository(bits=4, seed=0)
    repo.get(MODEL, WorkloadFamily.LM)
    return repo


@pytest.fixture(scope="module")
def packed_config():
    return KVCacheConfig(bits=4, page_size=8, prefix_sharing=False)


@pytest.fixture(scope="module")
def fp_config():
    return KVCacheConfig(bits=4, page_size=8, prefix_sharing=False, quantize=False)


@pytest.fixture(scope="module")
def packed_decoder(repository, packed_config):
    decoder = SpeculativeDecoder(repository, TEST_SPEC, target_cache_config=packed_config)
    decoder.warm(MODEL)
    return decoder


@pytest.fixture(scope="module")
def fp_decoder(repository, fp_config):
    decoder = SpeculativeDecoder(repository, TEST_SPEC, target_cache_config=fp_config)
    decoder.warm(MODEL)
    return decoder


def drain(repository, cache_config, requests, speculative=None, num_slots=4):
    """Submit ``requests`` and drain; returns (token lists in submit order, summary)."""
    stats = ServingStats()
    scheduler = ContinuousBatchingScheduler(
        repository,
        num_slots=num_slots,
        cache_config=cache_config,
        stats=stats,
        speculative=speculative,
    )
    ids = [scheduler.submit(request) for request in requests]
    outputs = {r.request_id: list(r.output.token_ids) for r in scheduler.run_until_idle()}
    return [outputs[request_id] for request_id in ids], stats.summary(), scheduler


def lm_requests(rng_seed, count=4, seq_len=8, max_new_tokens=16, model=MODEL, **sampling):
    rng = np.random.default_rng(rng_seed)
    return [
        InferenceRequest(
            model,
            WorkloadFamily.LM,
            rng.integers(0, VOCAB, size=seq_len),
            sampling=SamplingParams(max_new_tokens=max_new_tokens, **sampling),
        )
        for _ in range(count)
    ]


# --------------------------------------------------------------------------- #
# The draft pass: the target's own first layers over the target's caches
# --------------------------------------------------------------------------- #
def cache_state(cache):
    """Everything the draft pass may touch in one target cache, per layer."""
    state = []
    for index in range(cache.num_layers):
        layer = cache.layer(index)
        own = layer.seq_len - layer._shared
        state.append(
            (
                layer.seq_len,
                layer._k[:, :own].copy(),
                layer._v[:, :own].copy(),
                [(h, h.refcount) for h in layer._sealed_k + layer._sealed_v],
                layer._block,
                layer._hold_seals,
            )
        )
    return state


def pool_state(pool):
    return (
        pool.counters(),
        pool.decoded_cache_bytes,
        pool.num_entries,
        [(block, block.holders) for block in pool._blocks.values()],
    )


def assert_restored(before, caches, pool, pool_before):
    for state, cache in zip(before, caches):
        for was, now in zip(state, cache_state(cache)):
            assert now[0] == was[0]
            np.testing.assert_array_equal(now[1], was[1])
            np.testing.assert_array_equal(now[2], was[2])
            assert now[3] == was[3] and now[4] is was[4]
            assert not now[5]  # no seal left held
    assert pool_state(pool) == pool_before


@pytest.fixture(
    params=[
        KVCacheConfig(bits=4, page_size=8),
        KVCacheConfig(bits=8, page_size=8),
        KVCacheConfig(page_size=8, quantize=False),
    ],
    ids=["packed4", "packed8", "fp32"],
)
def draft_slots(repository, request):
    """Three prefilled slots on one pool: one a token short of a page
    boundary, so its draft row would fill the page, and two reading one
    shared prefix block (so the draft attends it as a cascade)."""
    entry = repository.get(MODEL, WorkloadFamily.LM)
    model = entry.model
    config = request.param
    size = config.page_size
    pool = PagePool()
    rng = np.random.default_rng(3)

    def prefilled(prompt, cache=None):
        cache = cache or cache_for_model(model, config, pool=pool)
        model.log_probs_incremental(prompt[None], [cache], last_only=True)
        return cache

    document = rng.integers(0, VOCAB, size=2 * size)
    leader = prefilled(document)
    pool.register_prefix(MODEL, document, leader)
    caches = [prefilled(rng.integers(0, VOCAB, size=2 * size - 1))]
    for suffix in (3, 5):
        cache = cache_for_model(model, config, pool=pool)
        pages, layers_k, layers_v = pool.lookup_prefix(MODEL, document, size, 2)
        cache.attach_prefix(layers_k, layers_v, pages * size)
        caches.append(prefilled(rng.integers(0, VOCAB, size=suffix), cache))
    assert caches[0].seq_len % size == size - 1
    assert all(cache.layer(0).shared_kv() is not None for cache in caches[1:])
    slots = [
        SimpleNamespace(
            request=InferenceRequest(MODEL, WorkloadFamily.LM, document),
            entry=entry,
            generated=[int(token)],
            cache=cache,
        )
        for token, cache in zip(rng.integers(0, VOCAB, size=3), caches)
    ]
    return slots, pool


class TestDraftPass:
    def test_warm_adds_no_repository_entry(self):
        repository = ModelRepository(bits=4, seed=0)
        target = repository.get(MODEL, WorkloadFamily.LM)
        packed_bytes = target.packed_bytes
        SpeculativeDecoder(repository, TEST_SPEC).warm(MODEL)
        assert repository.cached_entries() == [target]
        assert target.packed_bytes == packed_bytes

    def test_draft_as_deep_as_target_is_a_pairing_error(self, repository):
        decoder = SpeculativeDecoder(repository, TOO_DEEP)
        with pytest.raises(ServingError, match="smaller than the target"):
            decoder.warm(MODEL)
        assert (MODEL, WorkloadFamily.LM) in decoder.pair_errors

    def test_plan_restores_every_cache(self, packed_decoder, draft_slots, monkeypatch):
        slots, pool = draft_slots
        caches = [slot.cache for slot in slots]
        before = [cache_state(cache) for cache in caches]
        pool_before = pool_state(pool)
        lengths = []
        append = LayerKVCache.append

        def recording_append(self, k_new, v_new):
            append(self, k_new, v_new)
            lengths.append(self.seq_len)

        monkeypatch.setattr(LayerKVCache, "append", recording_append)
        proposals = packed_decoder.plan(slots, [2] * len(slots))
        assert len(proposals) == len(slots)
        # The draft really appended one row per slot to its one layer,
        # filling the first slot's page under held seals.
        assert lengths == [cache.seq_len + 1 for cache in caches]
        assert lengths[0] % 8 == 0
        assert_restored(before, caches, pool, pool_before)

    def test_failed_draft_layer_restores_every_cache(
        self, packed_decoder, draft_slots, monkeypatch
    ):
        slots, pool = draft_slots
        caches = [slot.cache for slot in slots]
        before = [cache_state(cache) for cache in caches]
        pool_before = pool_state(pool)
        forward = TransformerDecoderLayer.forward_incremental

        def failing_layer(self, *args, **kwargs):
            forward(self, *args, **kwargs)  # appends this layer's rows first
            raise RuntimeError("draft layer failed")

        monkeypatch.setattr(TransformerDecoderLayer, "forward_incremental", failing_layer)
        with pytest.raises(RuntimeError, match="draft layer failed"):
            packed_decoder.plan(slots, [2] * len(slots))
        assert_restored(before, caches, pool, pool_before)


# --------------------------------------------------------------------------- #
# Greedy equivalence — the acceptance-critical property
# --------------------------------------------------------------------------- #
class TestGreedyEquivalence:
    @pytest.mark.parametrize("seed", [11, 29])
    def test_packed_tokens_identical(self, repository, packed_config, packed_decoder, seed):
        requests = lm_requests(seed)
        plain, _, _ = drain(repository, packed_config, lm_requests(seed))
        spec, summary, _ = drain(
            repository, packed_config, requests, speculative=packed_decoder
        )
        assert spec == plain
        assert summary.draft_proposed_tokens > 0

    @pytest.mark.parametrize("seed", [11, 29])
    def test_fp32_tokens_identical(self, repository, fp_config, fp_decoder, seed):
        plain, _, _ = drain(repository, fp_config, lm_requests(seed))
        spec, summary, _ = drain(
            repository, fp_config, lm_requests(seed), speculative=fp_decoder
        )
        assert spec == plain
        assert summary.draft_proposed_tokens > 0

    def test_mixed_sequence_lengths_identical(self, repository, packed_config, packed_decoder):
        rng = np.random.default_rng(5)

        def build():
            return [
                InferenceRequest(
                    MODEL,
                    WorkloadFamily.LM,
                    np.random.default_rng(100 + i).integers(0, VOCAB, size=length),
                    sampling=SamplingParams(max_new_tokens=12 + i),
                )
                for i, length in enumerate((3, 9, 17, 6))
            ]

        plain, _, _ = drain(repository, packed_config, build())
        spec, _, _ = drain(repository, packed_config, build(), speculative=packed_decoder)
        assert spec == plain

    def test_stop_tokens_respected(self, repository, packed_config, packed_decoder):
        plain, _, _ = drain(repository, packed_config, lm_requests(7))
        stop = plain[0][4]  # a token the greedy stream actually emits

        def build():
            return lm_requests(7, stop_token_ids=(stop,))

        plain_stop, _, _ = drain(repository, packed_config, build())
        spec_stop, _, _ = drain(
            repository, packed_config, build(), speculative=packed_decoder
        )
        assert spec_stop == plain_stop
        assert plain_stop[0][-1] == stop
        assert len(plain_stop[0]) <= len(plain[0])

    @pytest.mark.parametrize("max_new", [1, 2])
    def test_tiny_budgets(self, repository, packed_config, packed_decoder, max_new):
        plain, _, _ = drain(
            repository, packed_config, lm_requests(3, max_new_tokens=max_new)
        )
        spec, _, _ = drain(
            repository,
            packed_config,
            lm_requests(3, max_new_tokens=max_new),
            speculative=packed_decoder,
        )
        assert spec == plain
        assert all(len(tokens) == max_new for tokens in spec)


# --------------------------------------------------------------------------- #
# Scheduler integration
# --------------------------------------------------------------------------- #
class TestSchedulerIntegration:
    def test_acceptance_counters_consistent(self, repository, packed_config, packed_decoder):
        _, summary, _ = drain(
            repository, packed_config, lm_requests(13), speculative=packed_decoder
        )
        assert 0 <= summary.draft_accepted_tokens <= summary.draft_proposed_tokens
        assert 0.0 <= summary.draft_acceptance_rate <= 1.0
        assert summary.generated_tokens == 4 * 16

    def test_unpairable_model_falls_back_to_plain(self, repository, packed_config):
        # A draft as deep as the target cannot be paired; the model must
        # still decode correctly (plain path), and the error is recorded.
        decoder = SpeculativeDecoder(
            repository, TOO_DEEP, target_cache_config=packed_config
        )
        plain, _, _ = drain(
            repository, packed_config, lm_requests(17, count=2, max_new_tokens=6)
        )
        spec, summary, _ = drain(
            repository,
            packed_config,
            lm_requests(17, count=2, max_new_tokens=6),
            speculative=decoder,
        )
        assert spec == plain
        assert summary.draft_proposed_tokens == 0
        assert (MODEL, WorkloadFamily.LM) in decoder.pair_errors

    def test_mixed_pairable_and_unpairable_slots(self, repository, packed_config):
        # The 3-layer draft pairs with the 4-layer model only: the toy
        # model's slots decode plainly beside the speculating ones.
        decoder = SpeculativeDecoder(
            repository, TOO_DEEP, target_cache_config=packed_config
        )

        def build():
            return lm_requests(19, count=2, model=DEEP_MODEL, max_new_tokens=8) + (
                lm_requests(23, count=2, max_new_tokens=8)
            )

        plain, _, _ = drain(repository, packed_config, build())
        spec, summary, _ = drain(
            repository, packed_config, build(), speculative=decoder
        )
        assert spec == plain
        assert summary.draft_proposed_tokens > 0
        assert set(decoder.pair_errors) == {(MODEL, WorkloadFamily.LM)}

    def test_cancel_with_speculation_releases_pages(self, repository, packed_config, packed_decoder):
        scheduler = ContinuousBatchingScheduler(
            repository,
            num_slots=2,
            cache_config=packed_config,
            speculative=packed_decoder,
        )
        requests = lm_requests(31, count=3, max_new_tokens=24)
        for request in requests:
            scheduler.submit(request)
        for _ in range(3):
            scheduler.step()
        cancelled = scheduler.cancel(requests[0].request_id)
        assert cancelled.output.finish_reason == "aborted"
        scheduler.run_until_idle()
        assert scheduler.page_pool.num_entries == 0
        assert scheduler.num_active == 0

    def test_seeded_sampled_spec_is_deterministic(self, repository, packed_config, packed_decoder):
        def build():
            return lm_requests(37, temperature=0.8, top_k=20, seed=9)

        first, _, _ = drain(repository, packed_config, build(), speculative=packed_decoder)
        second, _, _ = drain(repository, packed_config, build(), speculative=packed_decoder)
        assert first == second
        assert all(len(tokens) == 16 for tokens in first)

    def test_streamed_chunks_match_final_tokens(self, repository, packed_config, packed_decoder):
        scheduler = ContinuousBatchingScheduler(
            repository,
            num_slots=2,
            cache_config=packed_config,
            speculative=packed_decoder,
        )
        requests = lm_requests(41, count=2, max_new_tokens=10)
        for request in requests:
            scheduler.submit(request)
        chunks = {request.request_id: [] for request in requests}
        results = []
        while len(scheduler):
            results.extend(scheduler.step())
            for chunk in scheduler.take_chunks():
                if chunk.is_token:
                    chunks[chunk.request_id].append(chunk.token_id)
        outputs = {r.request_id: list(r.output.token_ids) for r in results}
        for request in requests:
            assert chunks[request.request_id] == outputs[request.request_id]

    def test_warm_speculative_requires_speculation(self, repository, packed_config):
        scheduler = ContinuousBatchingScheduler(
            repository, num_slots=2, cache_config=packed_config
        )
        with pytest.raises(ServingError):
            scheduler.warm_speculative(MODEL)

    def test_invalid_speculative_argument(self, repository):
        with pytest.raises(ServingError):
            ContinuousBatchingScheduler(repository, speculative=object())

    def test_serving_engine_end_to_end(self, repository, packed_decoder, packed_config):
        def engine(speculative):
            return ServingEngine(
                repository,
                kv_cache_config=packed_config,
                speculative=speculative,
            )

        plain_engine = engine(None)
        spec_engine = engine(packed_decoder)
        spec_engine.warm_speculative(MODEL)
        plain = plain_engine.serve(lm_requests(43, count=3, max_new_tokens=8))
        spec = spec_engine.serve(lm_requests(43, count=3, max_new_tokens=8))
        assert [list(r.output.token_ids) for r in spec] == [
            list(r.output.token_ids) for r in plain
        ]
        assert spec_engine.stats.summary().draft_proposed_tokens > 0


# --------------------------------------------------------------------------- #
# Config validation
# --------------------------------------------------------------------------- #
class TestSpeculativeConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"draft_layers": 0},
            {"num_speculative_tokens": 0},
            {"margin_threshold": -1.0},
            {"first_margin_threshold": -0.5},
            {"calibration_sequences": 1},
            {"calibration_tokens": 2, "num_speculative_tokens": 3},
            {"calibration_prompt_len": 1},
            {"feature_width": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ServingError):
            SpeculativeConfig(**kwargs)

    def test_gating_tightens_acceptance(self, repository, packed_config):
        """Higher margins must never propose more tokens than lower margins."""
        loose = SpeculativeDecoder(
            repository,
            dataclasses.replace(TEST_SPEC, first_margin_threshold=0.0, margin_threshold=0.0),
            target_cache_config=packed_config,
        )
        tight = SpeculativeDecoder(
            repository,
            dataclasses.replace(TEST_SPEC, first_margin_threshold=6.0, margin_threshold=8.0),
            target_cache_config=packed_config,
        )
        _, loose_summary, _ = drain(
            repository, packed_config, lm_requests(47), speculative=loose
        )
        _, tight_summary, _ = drain(
            repository, packed_config, lm_requests(47), speculative=tight
        )
        assert tight_summary.draft_proposed_tokens <= loose_summary.draft_proposed_tokens
