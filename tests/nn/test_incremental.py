"""Incremental-decode equivalence: cached decode vs full recompute.

Three tiers of equivalence are pinned, property-tested over random prefix
lengths:

* **one-shot prefill** (whole sequence into an empty fp cache) runs the exact
  same shapes through the exact same ops as the full forward — bitwise equal;
* **stepwise fp32-mode decode** (prefill a random prefix, then feed one token
  at a time) is numerically exact: single-row GEMMs may take a different BLAS
  kernel path than the full-sequence GEMM (gemv vs gemm), which reorders
  floating-point accumulation by ~1 ulp, so logits are compared at float64
  round-off tolerance and the greedy argmax must match exactly;
* **OVP-packed caches** stay within quantization error: the next-token
  distribution is close in probability space, tighter at 8 than at 4 bits,
  and the greedy token stays inside the full-precision top-5.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models.zoo import build_causal_lm
from repro.nn.attention import attend_padding_waste, bucket_by_length
from repro.serve.kvcache import KVCacheConfig, cache_for_model

TOTAL_LEN = 24


@pytest.fixture(scope="module")
def model():
    return build_causal_lm("gpt2-xl", seed=0)


def set_ragged_attend(model, mode):
    for i in range(model.backbone.num_layers):
        getattr(model.backbone, f"layer_{i}").self_attention.ragged_attend = mode


def stepwise_log_probs(model, tokens, prefix_len, config, cache=None):
    """Prefill ``tokens[:prefix_len]`` then decode the rest one at a time."""
    cache = cache if cache is not None else cache_for_model(model, config)
    log_probs = model.log_probs_incremental(tokens[None, :prefix_len], [cache])
    for position in range(prefix_len, tokens.size):
        log_probs = model.log_probs_incremental(
            np.array([[tokens[position]]]), [cache]
        )
    return log_probs[0, -1], cache


class _RedecodeLayer:
    """A layer cache whose ``kv`` re-decodes every sealed page's packed bytes
    on every call, then appends the open rows: the re-decode oracle."""

    def __init__(self, layer):
        self._layer = layer

    @property
    def seq_len(self):
        return self._layer.seq_len

    def append(self, k_new, v_new):
        self._layer.append(k_new, v_new)

    def kv(self):
        layer = self._layer
        sealed = len(layer._sealed_k) * layer.config.page_size
        k_rows, v_rows = layer.kv()
        return tuple(
            np.concatenate(
                [layer.codec.decode_tensor(h.payload) for h in handles]
                + [rows[:, sealed:]],
                axis=1,
            )
            for handles, rows in ((layer._sealed_k, k_rows), (layer._sealed_v, v_rows))
        )


class _RedecodeCache:
    def __init__(self, cache):
        self._layers = [_RedecodeLayer(cache.layer(i)) for i in range(cache.num_layers)]

    @property
    def seq_len(self):
        return self._layers[0].seq_len

    def layer(self, index):
        return self._layers[index]


class TestFP32Equivalence:
    def test_one_shot_prefill_bitwise_equal(self, model):
        tokens = np.random.default_rng(0).integers(0, 96, size=TOTAL_LEN)
        full = model.log_probs(tokens[None])[0]
        cache = cache_for_model(model, KVCacheConfig(quantize=False))
        incremental = model.log_probs_incremental(tokens[None], [cache])[0]
        np.testing.assert_array_equal(incremental, full)

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        prefix_len=st.integers(min_value=1, max_value=TOTAL_LEN - 1),
        seed=st.integers(min_value=0, max_value=2**16),
        page_size=st.sampled_from([1, 3, 16]),
    )
    def test_stepwise_decode_exact_over_random_prefixes(
        self, model, prefix_len, seed, page_size
    ):
        tokens = np.random.default_rng(seed).integers(0, 96, size=TOTAL_LEN)
        full = model.log_probs(tokens[None])[0, -1]
        config = KVCacheConfig(quantize=False, page_size=page_size)
        incremental, cache = stepwise_log_probs(model, tokens, prefix_len, config)
        assert cache.seq_len == TOTAL_LEN
        np.testing.assert_allclose(incremental, full, rtol=1e-9, atol=1e-12)
        assert int(np.argmax(incremental)) == int(np.argmax(full))

    def test_greedy_generation_matches_full_recompute(self, model):
        """Token-by-token generation: cached decode = full-prefix recompute."""
        rng = np.random.default_rng(3)
        tokens = list(rng.integers(0, 96, size=8))
        cache = cache_for_model(model, KVCacheConfig(quantize=False, page_size=4))
        log_probs = model.log_probs_incremental(np.array(tokens)[None], [cache])
        cached_tokens = []
        for _ in range(12):
            nxt = int(np.argmax(log_probs[0, -1]))
            cached_tokens.append(nxt)
            log_probs = model.log_probs_incremental(np.array([[nxt]]), [cache])
        full_tokens, prefix = [], list(tokens)
        for _ in range(12):
            nxt = int(np.argmax(model.log_probs(np.array(prefix)[None])[0, -1]))
            full_tokens.append(nxt)
            prefix.append(nxt)
        assert cached_tokens == full_tokens


class TestPackedEquivalence:
    """Packed caches stay within quantization error of full recompute.

    OVP zeroes the victim partner of every outlier, so the distortion is
    real but bounded; the bounds below hold with ≥ 2× margin on the fixed
    seed set, aggregated over ten random (prefix, sequence) draws.
    """

    @pytest.fixture(scope="class")
    def packed_errors(self, model):
        errors = {}
        for bits in (4, 8):
            diffs, top5_hits = [], 0
            for seed in range(10):
                rng = np.random.default_rng(seed)
                prefix_len = int(rng.integers(1, TOTAL_LEN))
                tokens = rng.integers(0, 96, size=TOTAL_LEN)
                full = model.log_probs(tokens[None])[0, -1]
                packed, cache = stepwise_log_probs(
                    model, tokens, prefix_len, KVCacheConfig(bits=bits, page_size=4)
                )
                assert cache.compression_ratio > 1.0
                diffs.append(float(np.max(np.abs(np.exp(packed) - np.exp(full)))))
                top5 = set(np.argsort(full)[::-1][:5].tolist())
                top5_hits += int(np.argmax(packed)) in top5
            errors[bits] = (diffs, top5_hits)
        return errors

    def test_4bit_within_quantization_error(self, packed_errors):
        diffs, top5_hits = packed_errors[4]
        assert float(np.mean(diffs)) < 0.45
        assert top5_hits >= 8  # greedy token almost always inside fp top-5

    def test_8bit_within_quantization_error(self, packed_errors):
        diffs, top5_hits = packed_errors[8]
        assert max(diffs) < 0.45
        assert float(np.mean(diffs)) < 0.15
        assert top5_hits >= 9

    def test_fidelity_improves_with_bits(self, packed_errors):
        assert float(np.mean(packed_errors[8][0])) < float(np.mean(packed_errors[4][0]))


class TestIncrementalAPI:
    def test_decoder_layer_rejects_cross_attention(self, model):
        from repro.nn.transformer import TransformerDecoderLayer

        layer = TransformerDecoderLayer(32, 4, 64, cross_attention=True)
        with pytest.raises(ValueError):
            layer.forward_incremental(np.zeros((1, 1, 32)), [None])

    def test_cache_count_must_match_rows(self, model):
        cache = cache_for_model(model, KVCacheConfig(quantize=False))
        tokens = np.zeros((2, 4), dtype=np.int64)
        with pytest.raises(ValueError):
            model.backbone.forward_incremental(tokens, [cache])

    def test_position_overflow_raises(self, model):
        cache = cache_for_model(model, KVCacheConfig(quantize=False))
        max_positions = model.config.max_positions
        tokens = np.zeros((1, max_positions), dtype=np.int64)
        model.backbone.forward_incremental(tokens, [cache])
        with pytest.raises(ValueError):
            model.backbone.forward_incremental(
                np.zeros((1, 1), dtype=np.int64), [cache]
            )

    def test_bucketing_groups_by_power_of_two(self):
        buckets = bucket_by_length([5, 11, 19, 500, 16], min_bucket=16)
        assert buckets == [([0, 1, 4], 16), ([2], 19), ([3], 500)]

    def test_uniform_lengths_collapse_to_one_bucket(self):
        assert bucket_by_length([37, 37, 37]) == [([0, 1, 2], 37)]

    def test_padding_waste_accounting(self):
        padded, bucketed = attend_padding_waste([16, 16, 512], min_bucket=16)
        assert padded == pytest.approx(1 - 544 / 1536)
        assert bucketed == pytest.approx(0.0)
        uniform_padded, uniform_bucketed = attend_padding_waste([40, 40])
        assert uniform_padded == uniform_bucketed == pytest.approx(0.0)

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(
        lengths=st.lists(st.integers(min_value=1, max_value=50), min_size=2, max_size=6),
        quantize=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_bucketed_attend_matches_padded_oracle(self, model, lengths, quantize, seed):
        """Property: the length-bucketed decode round equals the padded oracle.

        Both kernels attend the same decoded pages with the same masked
        columns; only the GEMM padding width differs, so logits agree to
        float64 round-off (BLAS kernels may reduce in a different order) and
        the greedy token matches exactly — quantized and reference mode.
        """
        rng = np.random.default_rng(seed)
        prompts = [rng.integers(0, 96, size=n) for n in lengths]
        config = KVCacheConfig(bits=4, page_size=4, quantize=quantize)

        def decode_round(mode):
            caches = []
            for prompt in prompts:
                cache = cache_for_model(model, config)
                model.log_probs_incremental(prompt[None], [cache])
                caches.append(cache)
            step = rng.integers(0, 96, size=(len(prompts), 1))
            set_ragged_attend(model, mode)
            try:
                return model.log_probs_incremental(step, caches)
            finally:
                set_ragged_attend(model, "bucketed")

        rng_state = rng.bit_generator.state
        bucketed = decode_round("bucketed")
        rng.bit_generator.state = rng_state  # same step tokens for the oracle
        padded = decode_round("padded")
        np.testing.assert_allclose(bucketed, padded, rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(
            bucketed[:, -1].argmax(axis=-1), padded[:, -1].argmax(axis=-1)
        )

    def test_pool_decode_reuse_is_bitwise_equal_to_redecode(self, model):
        """Decoding each sealed page once into the cache's own rows must
        change nothing: logits are bitwise identical to re-decoding every
        sealed page from its packed bytes on every step."""
        tokens = np.random.default_rng(21).integers(0, 96, size=TOTAL_LEN)
        config = KVCacheConfig(bits=4, page_size=4)
        once, cache = stepwise_log_probs(model, tokens, 8, config)
        assert cache.pool.decode_misses == cache.pool.pages_registered
        assert cache.pool.decode_hits == 0
        redecode = _RedecodeCache(cache_for_model(model, config))
        redecoded, _ = stepwise_log_probs(model, tokens, 8, config, cache=redecode)
        np.testing.assert_array_equal(once, redecoded)

    def test_ragged_decode_round_matches_per_sequence(self, model):
        """A batched decode round over ragged slots equals row-by-row decode."""
        rng = np.random.default_rng(9)
        prompts = [rng.integers(0, 96, size=n) for n in (5, 11, 19)]
        config = KVCacheConfig(quantize=False, page_size=4)
        batched_caches = []
        for prompt in prompts:
            cache = cache_for_model(model, config)
            model.log_probs_incremental(prompt[None], [cache])
            batched_caches.append(cache)
        step_tokens = np.array([[1], [2], [3]], dtype=np.int64)
        batched = model.log_probs_incremental(step_tokens, batched_caches)
        for row, prompt in enumerate(prompts):
            cache = cache_for_model(model, config)
            model.log_probs_incremental(prompt[None], [cache])
            single = model.log_probs_incremental(step_tokens[row][None], [cache])
            np.testing.assert_allclose(
                batched[row], single[0], rtol=1e-9, atol=1e-12
            )


class TestMultiTokenRound:
    """The speculative verify round: ``m`` tokens per slot through the
    batched ragged kernel (``batched_rounds=True``)."""

    def _prefilled(self, model, prompts, config):
        caches = []
        for prompt in prompts:
            cache = cache_for_model(model, config)
            model.log_probs_incremental(prompt[None], [cache])
            caches.append(cache)
        return caches

    def test_m1_explicit_flag_bitwise_equal_to_auto_dispatch(self, model):
        """batched_rounds=True with one token per slot IS the decode round."""
        rng = np.random.default_rng(11)
        prompts = [rng.integers(0, 96, size=n) for n in (5, 12, 20)]
        config = KVCacheConfig(bits=4, page_size=4)
        step = rng.integers(0, 96, size=(3, 1))
        auto = model.log_probs_incremental(step, self._prefilled(model, prompts, config))
        explicit = model.log_probs_incremental(
            step, self._prefilled(model, prompts, config), batched_rounds=True
        )
        np.testing.assert_array_equal(explicit, auto)

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(
        lengths=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=5),
        m=st.integers(min_value=2, max_value=5),
        quantize=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_multi_token_round_matches_per_sequence_loop(
        self, model, lengths, m, quantize, seed
    ):
        """Property: an m-token batched round equals the per-sequence loop.

        Same appends, same causal visibility — only the GEMM batching
        differs, so logits agree to float64 round-off and greedy tokens
        match exactly, in quantized and reference cache modes."""
        rng = np.random.default_rng(seed)
        prompts = [rng.integers(0, 96, size=n) for n in lengths]
        config = KVCacheConfig(bits=4, page_size=4, quantize=quantize)
        step = rng.integers(0, 96, size=(len(prompts), m))
        batched = model.log_probs_incremental(
            step, self._prefilled(model, prompts, config), batched_rounds=True
        )
        looped = model.log_probs_incremental(
            step, self._prefilled(model, prompts, config), batched_rounds=False
        )
        np.testing.assert_allclose(batched, looped, rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(
            batched.argmax(axis=-1), looped.argmax(axis=-1)
        )

    def test_multi_token_round_padded_oracle_agrees(self, model):
        rng = np.random.default_rng(13)
        prompts = [rng.integers(0, 96, size=n) for n in (4, 18, 9)]
        config = KVCacheConfig(bits=4, page_size=4)
        step = rng.integers(0, 96, size=(3, 4))
        bucketed = model.log_probs_incremental(
            step, self._prefilled(model, prompts, config), batched_rounds=True
        )
        set_ragged_attend(model, "padded")
        try:
            padded = model.log_probs_incremental(
                step, self._prefilled(model, prompts, config), batched_rounds=True
            )
        finally:
            set_ragged_attend(model, "bucketed")
        np.testing.assert_allclose(bucketed, padded, rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(
            bucketed.argmax(axis=-1), padded.argmax(axis=-1)
        )

    def test_verify_then_rollback_continues_like_stepwise(self, model):
        """Feed m tokens, roll back to 1 kept, continue — matches stepwise."""
        rng = np.random.default_rng(17)
        prompt = rng.integers(0, 96, size=9)
        config = KVCacheConfig(quantize=False, page_size=4)
        speculative = cache_for_model(model, config)
        model.log_probs_incremental(prompt[None], [speculative])
        tokens = rng.integers(0, 96, size=4)
        speculative.hold_seals()
        verified = model.log_probs_incremental(
            tokens[None], [speculative], batched_rounds=True
        )
        speculative.truncate_to(10)  # keep tokens[0] only
        speculative.flush_seals()
        stepwise = cache_for_model(model, config)
        model.log_probs_incremental(prompt[None], [stepwise])
        single = model.log_probs_incremental(tokens[:1][None], [stepwise])
        np.testing.assert_allclose(
            verified[0, 0], single[0, -1], rtol=1e-9, atol=1e-12
        )
        follow = rng.integers(0, 96, size=(1, 1))
        after_rollback = model.log_probs_incremental(follow, [speculative])
        after_stepwise = model.log_probs_incremental(follow, [stepwise])
        np.testing.assert_allclose(
            after_rollback, after_stepwise, rtol=1e-9, atol=1e-12
        )
        assert speculative.seq_len == stepwise.seq_len == 11
