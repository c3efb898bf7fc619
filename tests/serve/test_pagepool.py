"""Page-pool tests: refcounts, seal-time rows, prefix sharing, release."""

import numpy as np
import pytest

from repro.core.ovp import OVPairCodec
from repro.models.zoo import build_causal_lm
from repro.serve.kvcache import (
    KVCacheConfig,
    LayerKVCache,
    PagePool,
    cache_for_model,
)
from repro.serve.requests import ServingError
from repro.serve.scheduler import greedy_top_k

HEADS, DIM = 4, 16


def step(rng, t=1, scale=1.0):
    return rng.normal(0.0, scale, size=(HEADS, t, DIM))


def sealed_cache(rng, pool=None, t=16, **config_kwargs):
    config_kwargs.setdefault("bits", 4)
    config_kwargs.setdefault("page_size", 4)
    cache = LayerKVCache(HEADS, DIM, KVCacheConfig(**config_kwargs), pool=pool)
    cache.append(step(rng, t), step(rng, t))
    return cache


class TestRefcounts:
    def test_register_incref_release(self):
        pool = PagePool()
        handle = pool.register(np.zeros((2, 2)))
        assert handle.refcount == 1 and pool.num_entries == 1
        pool.incref(handle)
        assert handle.refcount == 2 and handle.shared
        pool.release(handle)
        assert pool.num_entries == 1 and not handle.shared
        pool.release(handle)
        assert pool.num_entries == 0 and pool.pages_dropped == 1

    def test_over_release_rejected(self):
        pool = PagePool()
        handle = pool.register(np.zeros(2))
        pool.release(handle)
        with pytest.raises(ServingError):
            pool.release(handle)

    def test_cache_release_drops_pages_and_decoded_entries(self):
        pool = PagePool()
        cache = sealed_cache(np.random.default_rng(0), pool=pool)
        assert pool.num_entries == cache.num_sealed_pages == 8
        # 16 sealed timesteps of K and V, decoded float64 rows.
        assert pool.decoded_cache_bytes == 2 * HEADS * 16 * DIM * 8
        cache.release()
        assert pool.num_entries == 0
        assert pool.decoded_cache_bytes == 0
        assert cache.seq_len == 0
        with pytest.raises(ServingError):
            cache.kv()


class TestDecodeOnce:
    def test_pages_decode_once_and_hits_are_bitwise_identical(self):
        pool = PagePool()
        cache = sealed_cache(np.random.default_rng(1), pool=pool)
        # A seal writes its rows back from the encoder's codes: no decode.
        assert pool.pages_registered == 8
        assert pool.decode_misses == 0 and pool.decode_hits == 0
        k_first, v_first = cache.kv()
        k_again, v_again = cache.kv()
        assert pool.decode_misses == 0 and pool.decode_hits == 0
        np.testing.assert_array_equal(k_first, k_again)
        np.testing.assert_array_equal(v_first, v_again)

    @pytest.mark.parametrize("bits", [4, 8])
    def test_prefill_that_attaches_nothing_decodes_nothing(self, monkeypatch, bits):
        calls = []
        decode_batch = OVPairCodec.decode_tensor_batch

        def counted(self, packed_list):
            calls.append(len(packed_list))
            return decode_batch(self, packed_list)

        monkeypatch.setattr(OVPairCodec, "decode_tensor_batch", counted)
        model = build_causal_lm("gpt2-xl", seed=0)
        pool = PagePool()
        cache = cache_for_model(model, KVCacheConfig(bits=bits, page_size=8), pool=pool)
        tokens = np.random.default_rng(5).integers(0, 96, size=40)
        # Prefill seals four pages per layer; the decode steps seal a fifth.
        model.log_probs_incremental(tokens[None, :35], [cache])
        for position in range(35, 40):
            model.log_probs_incremental(tokens[None, position:position + 1], [cache])
        assert pool.pages_registered == 2 * 5 * cache.num_layers
        assert calls == []
        assert pool.decode_misses == 0

    def test_decoded_values_match_direct_codec_decode(self):
        pool = PagePool()
        cache = sealed_cache(np.random.default_rng(2), pool=pool)
        k_pool, _ = cache.kv()
        direct = np.concatenate(
            [cache.codec.decode_tensor(h.payload) for h in cache._sealed_k], axis=1
        )
        np.testing.assert_array_equal(k_pool, direct)

    def test_reference_mode_passes_through_without_decode(self):
        pool = PagePool()
        cache = sealed_cache(np.random.default_rng(6), pool=pool, quantize=False)
        cache.kv()
        assert pool.decode_hits == 0 and pool.decode_misses == 0


class TestKvManyValidation:
    def test_empty_cache_list_rejected(self):
        with pytest.raises(ServingError, match="at least one cache"):
            LayerKVCache.kv_many([])

    def test_mixed_quantize_modes_rejected(self):
        rng = np.random.default_rng(7)
        packed = sealed_cache(rng)
        reference = sealed_cache(rng, quantize=False)
        with pytest.raises(ServingError, match="mix quantized and reference"):
            LayerKVCache.kv_many([packed, reference])

    def test_mixed_ovp_widths_rejected(self):
        rng = np.random.default_rng(8)
        four = sealed_cache(rng, bits=4)
        eight = sealed_cache(rng, bits=8)
        with pytest.raises(ServingError, match="mix OVP widths"):
            LayerKVCache.kv_many([four, eight])

    def test_empty_member_cache_rejected(self):
        rng = np.random.default_rng(9)
        full = sealed_cache(rng)
        empty = LayerKVCache(HEADS, DIM, KVCacheConfig(bits=4, page_size=4))
        with pytest.raises(ServingError, match="empty"):
            LayerKVCache.kv_many([full, empty])

    def test_kv_many_spans_private_pools(self):
        # Standalone caches each own a pool; kv_many still reassembles all.
        rng = np.random.default_rng(10)
        caches = [sealed_cache(rng, t=t) for t in (3, 9, 17)]
        assert len({id(c.pool) for c in caches}) == 3
        for cache, (k_b, v_b) in zip(caches, LayerKVCache.kv_many(caches)):
            k, v = cache.kv()
            np.testing.assert_array_equal(k_b, k)
            np.testing.assert_array_equal(v_b, v)


class TestPrefixSharing:
    @pytest.fixture(scope="class")
    def model(self):
        return build_causal_lm("gpt2-xl", seed=0)

    def prefilled(self, model, tokens, pool, config):
        cache = cache_for_model(model, config, pool=pool)
        model.log_probs_incremental(np.asarray(tokens)[None], [cache])
        return cache

    @pytest.mark.parametrize("quantize", [True, False])
    def test_attached_prefix_is_bitwise_equal_to_donor(self, model, quantize):
        config = KVCacheConfig(bits=4, page_size=8, quantize=quantize)
        pool = PagePool()
        tokens = np.random.default_rng(11).integers(0, 96, size=35)
        donor = self.prefilled(model, tokens, pool, config)
        pool.register_prefix("m", tokens, donor)

        num_pages, layers_k, layers_v = pool.lookup_prefix("m", tokens, 8, max_pages=4)
        assert num_pages == 4
        twin = cache_for_model(model, config, pool=pool)
        twin.attach_prefix(layers_k, layers_v, num_pages * 8)
        assert twin.seq_len == 32
        for layer in range(donor.num_layers):
            k_donor, v_donor = donor.layer(layer).kv()
            k_twin, v_twin = twin.layer(layer).kv()
            np.testing.assert_array_equal(k_twin, k_donor[:, :32])
            np.testing.assert_array_equal(v_twin, v_donor[:, :32])
            assert donor.layer(layer)._sealed_k[0] is twin.layer(layer)._sealed_k[0]

    def test_prefix_index_keeps_pages_alive_after_donor_release(self, model):
        config = KVCacheConfig(bits=4, page_size=8)
        pool = PagePool()
        tokens = np.random.default_rng(12).integers(0, 96, size=24)
        donor = self.prefilled(model, tokens, pool, config)
        pool.register_prefix("m", tokens, donor)
        indexed = 3 * 2 * donor.num_layers  # 3 pages × K/V × layers
        donor.release()
        assert pool.num_entries == indexed
        num_pages, layers_k, layers_v = pool.lookup_prefix("m", tokens, 8, max_pages=2)
        assert num_pages == 2
        twin = cache_for_model(model, config, pool=pool)
        twin.attach_prefix(layers_k, layers_v, 16)
        k, _ = twin.layer(0).kv()
        assert k.shape == (twin.layer(0).num_heads, 16, twin.layer(0).head_dim)

    def test_lookup_scoped_by_key_and_alignment(self, model):
        config = KVCacheConfig(bits=4, page_size=8)
        pool = PagePool()
        tokens = np.random.default_rng(13).integers(0, 96, size=24)
        donor = self.prefilled(model, tokens, pool, config)
        pool.register_prefix("model-a", tokens, donor)
        assert pool.lookup_prefix("model-b", tokens, 8, max_pages=2)[0] == 0
        different = tokens.copy()
        different[0] += 1  # first page differs -> whole chain misses
        assert pool.lookup_prefix("model-a", different, 8, max_pages=2)[0] == 0
        # A longer prompt sharing the pages matches only the sealed chain.
        longer = np.concatenate([tokens, np.array([1, 2, 3], dtype=np.int64)])
        assert pool.lookup_prefix("model-a", longer, 8, max_pages=3)[0] == 3

    def test_prefix_eviction_releases_references(self, model):
        config = KVCacheConfig(bits=4, page_size=8)
        pool = PagePool(prefix_capacity=2)
        tokens = np.random.default_rng(14).integers(0, 96, size=40)
        donor = self.prefilled(model, tokens, pool, config)
        pool.register_prefix("m", tokens, donor)  # 5 pages -> 3 evicted
        assert pool.num_prefix_nodes == 2
        donor.release()
        # Only the two retained nodes' pages stay alive.
        assert pool.num_entries == 2 * 2 * donor.num_layers

    def test_attach_rejects_geometry_and_state_mismatches(self, model):
        config = KVCacheConfig(bits=4, page_size=8)
        pool = PagePool()
        tokens = np.random.default_rng(15).integers(0, 96, size=16)
        donor = self.prefilled(model, tokens, pool, config)
        pool.register_prefix("m", tokens, donor)
        _, layers_k, layers_v = pool.lookup_prefix("m", tokens, 8, max_pages=2)
        occupied = cache_for_model(model, config, pool=pool)
        model.log_probs_incremental(tokens[None, :4], [occupied])
        with pytest.raises(ServingError, match="empty"):
            occupied.attach_prefix(layers_k, layers_v, 16)
        twin = cache_for_model(model, config, pool=pool)
        with pytest.raises(ServingError, match="does not fill"):
            twin.attach_prefix(layers_k, layers_v, 15)
        small = LayerKVCache(2, 4, config, pool=pool)
        with pytest.raises(ServingError, match="geometry"):
            small.attach(layers_k[0], layers_v[0], 16)


class TestSharedBlocks:
    """One decoded block per live shared chain, refcounted by its holders."""

    def holders(self, owner, count, pages):
        caches = []
        for _ in range(count):
            cache = LayerKVCache(HEADS, DIM, owner.config, pool=owner.pool, capacity=40)
            cache.attach(owner._sealed_k[:pages], owner._sealed_v[:pages], 4 * pages)
            caches.append(cache)
        return caches

    def test_concurrent_holders_decode_a_chain_once(self):
        owner = sealed_cache(np.random.default_rng(30))  # 4 pages per side
        pool = owner.pool
        before = pool.counters()
        caches = self.holders(owner, 3, pages=4)
        assert pool.decode_misses - before["decode_misses"] == 8  # the first holder
        assert pool.decode_hits - before["decode_hits"] == 2 * 8
        assert pool.num_blocks == 1
        blocks = {id(cache.shared_kv()[0]) for cache in caches}
        assert len(blocks) == 1
        k_owner, v_owner = owner.kv()
        for cache in caches:
            k, v = cache.kv()
            np.testing.assert_array_equal(k, k_owner)
            np.testing.assert_array_equal(v, v_owner)
        # Decoded rows: the owner's 8 pages plus one 8-page block, not 4 x 8.
        assert pool.decoded_cache_bytes == 2 * 8 * HEADS * 4 * DIM * 8

    def test_shorter_chain_reads_the_block_and_longer_chain_decodes_its_tail(self):
        owner = sealed_cache(np.random.default_rng(31))
        pool = owner.pool
        [first] = self.holders(owner, 1, pages=2)
        before = pool.counters()
        [shorter] = self.holders(owner, 1, pages=1)
        [longer] = self.holders(owner, 1, pages=3)
        assert pool.decode_hits - before["decode_hits"] == 2 * (1 + 2)
        assert pool.decode_misses - before["decode_misses"] == 2  # page 2, K and V
        assert shorter.shared_kv()[2] == 4 and longer.shared_kv()[2] == 8
        k_owner, _ = owner.kv()
        np.testing.assert_array_equal(longer.kv()[0], k_owner[:, :12])
        np.testing.assert_array_equal(shorter.kv()[0], k_owner[:, :4])
        for cache in (first, shorter, longer):
            cache.release()
        assert pool.num_blocks == 0

    def test_blocks_and_gauge_return_to_zero_after_every_holder_releases(self):
        owner = sealed_cache(np.random.default_rng(32))
        pool = owner.pool
        caches = self.holders(owner, 3, pages=3)
        rng = np.random.default_rng(33)
        for cache in caches:
            cache.append(step(rng, 6), step(rng, 6))  # seals one own page
        block = caches[0]._block
        owner.release()
        for cache in caches[:2]:
            cache.release()
            assert pool.num_blocks == 1 and block.holders == 1 + (cache is caches[0])
        caches[2].release()
        assert pool.num_blocks == 0 and pool._blocks == {}
        assert pool.decoded_cache_bytes == 0
        assert pool.num_entries == 0
        with pytest.raises(ServingError, match="released more times"):
            pool.release_block(block)

    def test_truncate_into_shared_prefix_raises_and_changes_nothing(self):
        owner = sealed_cache(np.random.default_rng(34))
        pool = owner.pool
        cache, twin = self.holders(owner, 2, pages=3)
        rng = np.random.default_rng(35)
        cache.append(step(rng, 5), step(rng, 5))  # seals one own page
        block = cache._block
        before_k, before_v = (a.copy() for a in cache.kv())
        seq_len = cache.seq_len
        refcounts = [h.refcount for h in cache._sealed_k + cache._sealed_v]
        holders, decoded = block.holders, pool.decoded_cache_bytes
        for cut in (0, 6, 11):  # below the 12-token shared prefix
            with pytest.raises(ServingError, match="shared prefix"):
                cache.truncate_to(cut)
        assert cache.seq_len == seq_len
        k, v = cache.kv()
        np.testing.assert_array_equal(k, before_k)
        np.testing.assert_array_equal(v, before_v)
        assert [h.refcount for h in cache._sealed_k + cache._sealed_v] == refcounts
        assert cache._block is block and block.holders == holders == 2
        assert pool.decoded_cache_bytes == decoded
        cache.truncate_to(12)  # down to the shared prefix is a rollback
        assert cache.shared_kv()[2] == 12 and twin.shared_kv()[0] is block.k
        for holder in (cache, twin, owner):
            holder.release()
        assert pool.num_blocks == 0 and pool.decoded_cache_bytes == 0


def _resident_bytes(cache):
    """``cache_bytes`` recomputed from the held pages and the open rows."""
    sealed = sum(h.nbytes_resident for h in cache._sealed_k + cache._sealed_v)
    open_len = cache.seq_len - len(cache._sealed_k) * cache.config.page_size
    return sealed + 2 * cache.num_heads * open_len * cache.head_dim * 4


def _shared_pages(pool):
    return sum(1 for handle in pool._entries.values() if handle.refcount > 1)


class TestRunningGauges:
    """``cache_bytes`` and ``num_shared_pages`` are running totals: after any
    seal, attach, truncate, preemption or release they equal the sums over
    the pages held."""

    @staticmethod
    def assert_balanced(pool, caches):
        for cache in caches:
            assert cache.cache_bytes == _resident_bytes(cache)
        assert pool.num_shared_pages == _shared_pages(pool)

    @pytest.mark.parametrize("quantize", [True, False], ids=["packed", "reference"])
    def test_seal_attach_truncate_release(self, quantize):
        rng = np.random.default_rng(40)
        owner = sealed_cache(rng, quantize=quantize)  # 4 pages per side
        pool = owner.pool
        caches = [owner]
        for pages in (3, 2):
            cache = LayerKVCache(HEADS, DIM, owner.config, pool=pool, capacity=40)
            cache.attach(owner._sealed_k[:pages], owner._sealed_v[:pages], 4 * pages)
            caches.append(cache)
            self.assert_balanced(pool, caches)
        assert pool.num_shared_pages == 2 * 3
        sharer, shorter = caches[1:]
        sharer.append(step(rng, 6), step(rng, 6))  # seals one own page
        self.assert_balanced(pool, caches)
        sharer.hold_seals()
        sharer.append(step(rng, 5), step(rng, 5))
        sharer.truncate_to(sharer.seq_len - 3)  # a rejected draft
        sharer.flush_seals()
        self.assert_balanced(pool, caches)
        sharer.truncate_to(14)  # into its own sealed pages
        self.assert_balanced(pool, caches)
        for cache in caches:
            cache.release()
            self.assert_balanced(pool, caches)
        assert pool.num_shared_pages == 0 and pool.num_entries == 0
        assert [cache.cache_bytes for cache in caches] == [0, 0, 0]

    def test_scheduler_rounds_with_prefix_sharing_and_preemption(self):
        from repro.serve import (
            AdmissionPolicy,
            ContinuousBatchingScheduler,
            InferenceRequest,
            ModelRepository,
            SamplingParams,
            WorkloadFamily,
        )

        def request(prompt, slo_class):
            return InferenceRequest(
                "gpt2-xl", WorkloadFamily.LM, np.asarray(prompt) % 96,
                sampling=SamplingParams(max_new_tokens=8), slo_class=slo_class,
            )

        scheduler = ContinuousBatchingScheduler(
            ModelRepository(bits=4, seed=0),
            num_slots=2,
            cache_config=KVCacheConfig(bits=4, page_size=4),
            admission=AdmissionPolicy(
                class_priority={"interactive": 10, "batch": 0}, preempt=True
            ),
        )
        pool = scheduler.page_pool

        def assert_balanced():
            layers = [
                slot.cache.layer(index)
                for slot in scheduler._slots
                if slot is not None
                for index in range(slot.cache.num_layers)
            ]
            self.assert_balanced(pool, layers)
            assert scheduler.kv_cache_bytes == sum(map(_resident_bytes, layers))

        document = np.arange(12)
        for suffix in (50, 60):
            scheduler.submit(request(np.r_[document, suffix, suffix + 1], "batch"))
        for _ in range(3):
            scheduler.step()
            assert_balanced()
        scheduler.submit(request(np.r_[document, 70], "interactive"))
        for _ in range(80):
            if not len(scheduler):
                break
            scheduler.step()
            assert_balanced()
        assert scheduler.preempted == 1
        assert pool.prefix_pages_attached > 0
        assert pool.num_shared_pages == _shared_pages(pool)


class TestRowDtype:
    """Rows, blocks and decoded pages hold the dtype of the appended K/V, and
    the decoded-row gauge counts their true bytes."""

    @pytest.mark.parametrize("quantize", [True, False], ids=["packed", "reference"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gauge_counts_true_bytes_and_balances(self, dtype, quantize):
        rng = np.random.default_rng(40)
        config = KVCacheConfig(bits=4, page_size=4, quantize=quantize)
        owner = LayerKVCache(HEADS, DIM, config, capacity=16)
        owner.append(step(rng, 14).astype(dtype), step(rng, 14).astype(dtype))
        pool = owner.pool
        assert owner._k.dtype == owner._v.dtype == dtype
        assert {h.dtype for h in owner._sealed_k} == {np.dtype(dtype)}
        k, v = owner.kv()
        assert pool.decoded_cache_bytes == k[:, :12].nbytes + v[:, :12].nbytes
        # A holder of a 2-page block seals one own page past it.
        holder = LayerKVCache(HEADS, DIM, config, pool=pool, capacity=16)
        holder.attach(owner._sealed_k[:2], owner._sealed_v[:2], 8)
        holder.append(step(rng, 5).astype(dtype), step(rng, 5).astype(dtype))
        k_block, v_block, _ = holder.shared_kv()
        assert k_block.dtype == v_block.dtype == holder._k.dtype == dtype
        own_k, own_v = holder.kv_many([holder])[0]
        assert pool.decoded_cache_bytes == (
            k[:, :12].nbytes + v[:, :12].nbytes
            + k_block.nbytes + v_block.nbytes
            + own_k[:, :4].nbytes + own_v[:, :4].nbytes
        )
        holder.release()
        owner.release()
        assert pool.decoded_cache_bytes == 0 and pool.num_blocks == 0

    def test_decoded_pages_take_the_dtype_they_sealed_from(self):
        rng = np.random.default_rng(41)
        config = KVCacheConfig(bits=4, page_size=4)
        pool = PagePool()
        caches = []
        for dtype in (np.float32, np.float64):
            cache = LayerKVCache(HEADS, DIM, config, pool=pool)
            cache.append(step(rng, 4).astype(dtype), step(rng, 4).astype(dtype))
            caches.append(cache)
        handles = [cache._sealed_k[0] for cache in caches]
        pages = pool.decoded_many(handles, caches[0].codec)
        assert [page.dtype for page in pages] == [np.float32, np.float64]
        for cache, handle, page in zip(caches, handles, pages):
            direct = cache.codec.decode_tensor(handle.payload)
            np.testing.assert_array_equal(page, direct.astype(page.dtype))
            np.testing.assert_array_equal(cache.kv()[0], page)

    def test_empty_cache_takes_the_appended_dtype(self):
        rng = np.random.default_rng(42)
        cache = LayerKVCache(HEADS, DIM, KVCacheConfig(bits=4, page_size=4))
        cache.append(step(rng, 2).astype(np.float32), step(rng, 2).astype(np.float32))
        assert cache._k.dtype == np.float32
        cache.append(step(rng, 3), step(rng, 3))  # float64 rows cast in
        assert cache.kv()[0].dtype == np.float32
        cache.release()
        cache.append(np.ones((HEADS, 1, DIM), int), np.ones((HEADS, 1, DIM), int))
        assert cache._k.dtype == np.float64


class TestGreedyTopK:
    def test_matches_full_sort(self):
        rng = np.random.default_rng(16)
        log_probs = rng.normal(size=200)
        expected = np.argsort(log_probs)[::-1][:5]
        assert greedy_top_k(log_probs, 5)["next_tokens"] == [int(t) for t in expected]

    def test_top_k_clamped_to_vocab(self):
        log_probs = np.array([0.1, 0.9, 0.5])
        out = greedy_top_k(log_probs, 10)
        assert out["next_tokens"] == [1, 2, 0]

    def test_invalid_top_k_rejected(self):
        with pytest.raises(ServingError, match="top_k"):
            greedy_top_k(np.zeros(4), 0)
        with pytest.raises(ServingError, match="top_k"):
            greedy_top_k(np.zeros(4), -3)

    def test_log_probs_sorted_descending(self):
        rng = np.random.default_rng(17)
        out = greedy_top_k(rng.normal(size=500), 8)
        assert out["log_probs"] == sorted(out["log_probs"], reverse=True)
