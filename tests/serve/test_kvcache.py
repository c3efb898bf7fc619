"""Tests for the OVP-paged KV cache: paging, accounting, decode fidelity."""

import numpy as np
import pytest

from repro.core.ovp import PackedOVPTensor
from repro.models.zoo import build_causal_lm, build_classifier
from repro.serve.kvcache import (
    KVCacheConfig,
    LayerKVCache,
    SequenceKVCache,
    cache_for_model,
)
from repro.serve.requests import ServingError

HEADS, DIM = 4, 16


def step(rng, t=1, scale=1.0):
    return rng.normal(0.0, scale, size=(HEADS, t, DIM))


class TestConfig:
    def test_bits_validated(self):
        with pytest.raises(ServingError):
            KVCacheConfig(bits=6)

    def test_page_size_validated(self):
        with pytest.raises(ServingError):
            KVCacheConfig(page_size=0)

    def test_codec_matches_bits(self):
        assert KVCacheConfig(bits=4).make_codec().normal_dtype.bits == 4
        assert KVCacheConfig(bits=8).make_codec().normal_dtype.bits == 8


class TestLayerCache:
    def test_append_and_roundtrip_fp_mode_is_exact(self):
        rng = np.random.default_rng(0)
        cache = LayerKVCache(HEADS, DIM, KVCacheConfig(quantize=False, page_size=4))
        ks, vs = [], []
        for t in (3, 1, 1, 6, 1):
            k, v = step(rng, t), step(rng, t)
            ks.append(k)
            vs.append(v)
            cache.append(k, v)
        k_all, v_all = cache.kv()
        np.testing.assert_array_equal(k_all, np.concatenate(ks, axis=1))
        np.testing.assert_array_equal(v_all, np.concatenate(vs, axis=1))
        assert cache.seq_len == 12

    def test_pages_seal_as_packed_byte_streams(self):
        rng = np.random.default_rng(1)
        cache = LayerKVCache(HEADS, DIM, KVCacheConfig(bits=4, page_size=4))
        cache.append(step(rng, 10), step(rng, 10))
        # 10 steps with page_size 4 -> 2 sealed pages each for K and V.
        assert cache.num_sealed_pages == 4
        assert all(isinstance(h.payload, PackedOVPTensor) for h in cache._sealed_k)
        assert all(h.refcount == 1 for h in cache._sealed_k + cache._sealed_v)
        k_all, v_all = cache.kv()
        assert k_all.shape == (HEADS, 10, DIM)
        assert v_all.shape == (HEADS, 10, DIM)

    def test_quantized_kv_close_to_source(self):
        rng = np.random.default_rng(2)
        cache = LayerKVCache(HEADS, DIM, KVCacheConfig(bits=8, page_size=4))
        k, v = step(rng, 8), step(rng, 8)
        cache.append(k, v)
        k_all, _ = cache.kv()
        # RMS (not max): OVP prunes the victim next to each outlier to zero,
        # so a handful of elements carry their full magnitude as error.
        rms = float(np.sqrt(np.mean((k_all - k) ** 2)))
        assert rms < 0.1 * float(np.std(k))

    def test_bytes_accounting(self):
        rng = np.random.default_rng(3)
        cache = LayerKVCache(HEADS, DIM, KVCacheConfig(bits=4, page_size=4))
        cache.append(step(rng, 8), step(rng, 8))  # fully sealed
        elements = 2 * HEADS * 8 * DIM
        assert cache.kv_elements == elements
        assert cache.fp32_bytes == elements * 4
        assert cache.cache_bytes == elements // 2  # 4 bits = 1/2 byte/element
        cache.append(step(rng, 1), step(rng, 1))  # one open fp32 step
        assert cache.cache_bytes == elements // 2 + 2 * HEADS * DIM * 4

    def test_shape_mismatch_rejected(self):
        cache = LayerKVCache(HEADS, DIM, KVCacheConfig())
        rng = np.random.default_rng(0)
        with pytest.raises(ServingError):
            cache.append(step(rng, 1), rng.normal(size=(HEADS, 1, DIM + 1)))
        with pytest.raises(ServingError):
            cache.append(rng.normal(size=(HEADS + 1, 1, DIM)), step(rng, 1))

    def test_empty_cache_attend_rejected(self):
        cache = LayerKVCache(HEADS, DIM, KVCacheConfig())
        with pytest.raises(ServingError):
            cache.kv()

    def test_kv_many_matches_individual_kv(self):
        rng = np.random.default_rng(4)
        caches = []
        for t in (3, 9, 17):
            cache = LayerKVCache(HEADS, DIM, KVCacheConfig(bits=4, page_size=4))
            cache.append(step(rng, t), step(rng, t))
            caches.append(cache)
        batched = LayerKVCache.kv_many(caches)
        for cache, (k_b, v_b) in zip(caches, batched):
            k, v = cache.kv()
            np.testing.assert_array_equal(k_b, k)
            np.testing.assert_array_equal(v_b, v)


class TestDecodedRows:
    """Sealed pages decode once into the cache's own K/V rows; attending
    reads views of those rows."""

    def test_kv_views_share_memory_across_calls(self):
        rng = np.random.default_rng(20)
        cache = LayerKVCache(HEADS, DIM, KVCacheConfig(bits=4, page_size=4))
        cache.append(step(rng, 10), step(rng, 10))
        k_first, v_first = cache.kv()
        k_again, v_again = cache.kv()
        assert np.shares_memory(k_first, k_again)
        assert np.shares_memory(v_first, v_again)
        [(k_many, v_many)] = LayerKVCache.kv_many([cache])
        assert np.shares_memory(k_many, k_first)
        assert np.shares_memory(v_many, v_first)

    def test_kv_many_rounds_make_no_pool_calls(self):
        rng = np.random.default_rng(21)
        caches = []
        for t in (5, 12, 33):
            cache = LayerKVCache(HEADS, DIM, KVCacheConfig(bits=4, page_size=4))
            cache.append(step(rng, t), step(rng, t))
            caches.append(cache)
        pools = [cache.pool for cache in caches]
        before = [pool.counters() for pool in pools]
        first = LayerKVCache.kv_many(caches)
        for _ in range(10):
            rounds = LayerKVCache.kv_many(caches)
        assert [pool.counters() for pool in pools] == before
        for (k_a, v_a), (k_b, v_b) in zip(first, rounds):
            assert np.shares_memory(k_a, k_b) and np.shares_memory(v_a, v_b)

    def test_sealed_rows_hold_the_codec_decode(self):
        rng = np.random.default_rng(22)
        k_src, v_src = step(rng, 11), step(rng, 11)
        cache = LayerKVCache(HEADS, DIM, KVCacheConfig(bits=4, page_size=4))
        cache.append(k_src, v_src)
        k, v = cache.kv()
        for page, (hk, hv) in enumerate(zip(cache._sealed_k, cache._sealed_v)):
            rows = slice(4 * page, 4 * page + 4)
            np.testing.assert_array_equal(k[:, rows], cache.codec.decode_tensor(hk.payload))
            np.testing.assert_array_equal(v[:, rows], cache.codec.decode_tensor(hv.payload))
        # The open rows stay full precision.
        np.testing.assert_array_equal(k[:, 8:], k_src[:, 8:])
        np.testing.assert_array_equal(v[:, 8:], v_src[:, 8:])

    def test_reserved_rows_never_move_and_growth_keeps_them(self):
        rng = np.random.default_rng(23)
        config = KVCacheConfig(bits=4, page_size=4)
        cache = LayerKVCache(HEADS, DIM, config, capacity=10)  # 3 pages
        cache.append(step(rng, 5), step(rng, 5))
        k_first, _ = cache.kv()
        for _ in range(7):
            cache.append(step(rng, 1), step(rng, 1))
        k_full, _ = cache.kv()
        assert np.shares_memory(k_first, k_full)  # 12 rows fit the reservation
        kept = k_full.copy()
        cache.append(step(rng, 1), step(rng, 1))  # past capacity: rows grow
        k_grown, _ = cache.kv()
        assert not np.shares_memory(k_grown, k_full)
        np.testing.assert_array_equal(k_grown[:, :12], kept)

    def test_pool_gauge_counts_decoded_rows_of_live_caches(self):
        rng = np.random.default_rng(24)
        config = KVCacheConfig(bits=4, page_size=4)
        owner = LayerKVCache(HEADS, DIM, config)
        owner.append(step(rng, 9), step(rng, 9))  # 2 sealed pages per side
        page_bytes = HEADS * 4 * DIM * 8
        pool = owner.pool
        assert pool.decoded_cache_bytes == 4 * page_bytes
        borrower = LayerKVCache(HEADS, DIM, config, pool=pool)
        borrower.attach(owner._sealed_k, owner._sealed_v, 8)
        assert pool.decoded_cache_bytes == 8 * page_bytes
        owner.truncate_to(5)  # drops one page per side
        assert pool.decoded_cache_bytes == 6 * page_bytes
        owner.release()
        borrower.release()
        assert pool.decoded_cache_bytes == 0


class TestSequenceCache:
    def test_layers_and_compression(self):
        rng = np.random.default_rng(5)
        cache = SequenceKVCache(3, HEADS, DIM, KVCacheConfig(bits=4, page_size=4))
        for layer in range(3):
            cache.layer(layer).append(step(rng, 16), step(rng, 16))
        assert cache.seq_len == 16
        # Fully sealed 4-bit pages: 8x smaller than fp32.
        assert cache.compression_ratio == pytest.approx(8.0)
        summary = cache.memory_summary()
        assert summary["kv_fp32_bytes"] == 8 * summary["kv_cache_bytes"]
        assert summary["sealed_pages"] == 3 * 2 * 4

    def test_needs_layers(self):
        with pytest.raises(ServingError):
            SequenceKVCache(0, HEADS, DIM)


class TestCacheForModel:
    def test_builds_matching_geometry(self):
        model = build_causal_lm("gpt2-xl", seed=0)
        cache = cache_for_model(model, KVCacheConfig(bits=4))
        backbone = model.backbone
        assert cache.num_layers == backbone.num_layers
        layer = cache.layer(0)
        attn = backbone.layer_0.self_attention
        assert layer.num_heads == attn.num_heads
        assert layer.head_dim == attn.head_dim

    def test_rejects_non_decoder_models(self):
        model = build_classifier("bert-base", num_classes=2, seed=0)
        with pytest.raises(ServingError):
            cache_for_model(model)


class TestTruncateAndDeferredSeals:
    """Rollback support for speculative decoding: ``truncate_to`` and the
    deferred-seal append mode (``hold_seals``/``flush_seals``)."""

    def _filled(self, config, total, rng=None, pool=None):
        rng = rng or np.random.default_rng(0)
        cache = LayerKVCache(HEADS, DIM, config, pool=pool)
        values = step(rng, t=total)
        cache.append(values, values * 0.5)
        return cache, values

    def test_truncate_within_open_page(self):
        config = KVCacheConfig(quantize=False, page_size=4)
        cache, values = self._filled(config, 7)
        cache.truncate_to(5)
        assert cache.seq_len == 5
        k, _ = cache.kv()
        np.testing.assert_array_equal(k, values[:, :5])
        # the freed rows are rewritable
        cache.append(step(np.random.default_rng(9), t=1), step(np.random.default_rng(9), t=1))
        assert cache.seq_len == 6

    def test_truncate_to_current_length_is_noop(self):
        config = KVCacheConfig(bits=4, page_size=4)
        cache, _ = self._filled(config, 9)
        handles = list(cache._sealed_k)
        before = cache.pool.counters()
        cache.truncate_to(9)
        assert cache.seq_len == 9
        assert cache._sealed_k == handles
        assert cache.pool.counters() == before

    def test_truncate_bounds_validated(self):
        config = KVCacheConfig(bits=4, page_size=4)
        cache, _ = self._filled(config, 6)
        with pytest.raises(ServingError):
            cache.truncate_to(-1)
        with pytest.raises(ServingError):
            cache.truncate_to(7)

    @pytest.mark.parametrize("quantize", [False, True])
    def test_truncate_into_sealed_page_reopens_decoded_rows(self, quantize):
        config = KVCacheConfig(bits=4, page_size=4, quantize=quantize)
        cache, _ = self._filled(config, 10)  # 2 sealed pages + 2 open rows
        decoded = cache.pool.decoded_many([cache._sealed_k[1]], cache.codec)[0].copy()
        cache.truncate_to(6)  # cut inside sealed page 1
        assert cache.seq_len == 6
        assert len(cache._sealed_k) == 1
        k, _ = cache.kv()
        np.testing.assert_array_equal(k[:, 4:6], decoded[:, :2])

    def test_truncate_shared_page_is_copy_on_write(self):
        config = KVCacheConfig(bits=4, page_size=4)
        owner, _ = self._filled(config, 9)
        borrower = LayerKVCache(HEADS, DIM, config, pool=owner.pool)
        borrower.attach(owner._sealed_k[:2], owner._sealed_v[:2], 8)
        shared = owner._sealed_k[1]
        assert shared.refcount == 2
        before_k, before_v = borrower.kv()
        before_k, before_v = before_k.copy(), before_v.copy()
        owner.truncate_to(6)  # cuts inside the shared page
        # the other holder's view is untouched and the page stays alive
        after_k, after_v = borrower.kv()
        np.testing.assert_array_equal(after_k, before_k)
        np.testing.assert_array_equal(after_v, before_v)
        assert shared.refcount == 1
        assert owner.pool.num_entries > 0

    def test_truncate_releases_dropped_pages(self):
        config = KVCacheConfig(bits=4, page_size=4)
        cache, _ = self._filled(config, 12)  # 3 sealed pages
        dropped_before = cache.pool.pages_dropped
        cache.truncate_to(4)
        # pages 1 and 2 released: 2 K + 2 V pages dropped
        assert cache.pool.pages_dropped == dropped_before + 4
        assert cache.num_sealed_pages == 2  # one K + one V page

    @pytest.mark.parametrize("quantize", [False, True])
    def test_deferred_seals_match_eager_bitwise(self, quantize):
        """hold → append across page boundaries → flush = eager appends."""
        rng = np.random.default_rng(3)
        values = step(rng, t=11)
        config = KVCacheConfig(bits=4, page_size=4, quantize=quantize)
        eager = LayerKVCache(HEADS, DIM, config)
        for t in range(11):
            eager.append(values[:, t:t + 1], values[:, t:t + 1] * 0.5)
        deferred = LayerKVCache(HEADS, DIM, config)
        deferred.append(values[:, :5], values[:, :5] * 0.5)
        deferred.hold_seals()
        deferred.append(values[:, 5:], values[:, 5:] * 0.5)
        assert deferred.num_sealed_pages == 2  # only the pre-hold page pair
        deferred.flush_seals()
        assert deferred.num_sealed_pages == eager.num_sealed_pages
        for ours, theirs in zip(deferred._sealed_k, eager._sealed_k):
            if quantize:
                np.testing.assert_array_equal(ours.payload.data, theirs.payload.data)
            else:
                np.testing.assert_array_equal(ours.payload, theirs.payload)
        ek, ev = eager.kv()
        dk, dv = deferred.kv()
        np.testing.assert_array_equal(dk, ek)
        np.testing.assert_array_equal(dv, ev)

    def test_truncate_under_hold_matches_eager_appends(self):
        """The speculative pattern — hold, append m, truncate back, flush —
        leaves the cache bitwise identical to eagerly appending only the
        kept tokens (flush seals from the same full-precision rows)."""
        rng = np.random.default_rng(4)
        config = KVCacheConfig(bits=4, page_size=4)
        cache, values = self._filled(config, 6)
        cache.hold_seals()
        speculative = step(rng, t=5)
        cache.append(speculative, speculative * 0.5)
        assert cache.seq_len == 11
        cache.truncate_to(8)  # keep two speculative tokens
        cache.flush_seals()
        assert cache.seq_len == 8
        reference = LayerKVCache(HEADS, DIM, config)
        kept = np.concatenate([values, speculative[:, :2]], axis=1)
        reference.append(kept, kept * 0.5)
        rk, rv = reference.kv()
        k, v = cache.kv()
        np.testing.assert_array_equal(k, rk)
        np.testing.assert_array_equal(v, rv)

    def test_release_clears_hold_flag(self):
        config = KVCacheConfig(bits=4, page_size=4)
        cache, _ = self._filled(config, 6)
        cache.hold_seals()
        cache.release()
        assert not cache._hold_seals
        assert cache.seq_len == 0

    def test_sequence_cache_truncates_all_layers(self):
        model = build_causal_lm("gpt2-xl", seed=0)
        cache = cache_for_model(model, KVCacheConfig(bits=4, page_size=4))
        tokens = np.random.default_rng(0).integers(0, 96, size=10)
        model.log_probs_incremental(tokens[None], [cache])
        cache.truncate_to(7)
        assert cache.seq_len == 7
        for i in range(cache.num_layers):
            assert cache.layer(i).seq_len == 7
