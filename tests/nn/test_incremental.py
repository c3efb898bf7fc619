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

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models.zoo import build_causal_lm
from repro.serve.kvcache import KVCacheConfig, cache_for_model
from repro.serve.telemetry import Tracer

TOTAL_LEN = 24


@pytest.fixture(scope="module")
def model():
    return build_causal_lm("gpt2-xl", seed=0)


def prefilled(model, prompts, config, capacity=0):
    """One cache per prompt, each prefilled with its prompt."""
    caches = []
    for prompt in prompts:
        cache = cache_for_model(model, config, capacity=capacity)
        model.log_probs_incremental(prompt[None], [cache])
        caches.append(cache)
    return caches


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

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(
        lengths=st.lists(st.integers(min_value=1, max_value=50), min_size=2, max_size=6),
        quantize=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_decode_round_bitwise_equals_per_sequence_loop(
        self, model, lengths, quantize, seed
    ):
        """Property: a multi-slot decode round is bitwise the per-sequence loop.

        Each slot attends its own K/V rows with the expression a one-slot
        call evaluates, so nothing but the shared projection GEMMs batch
        across slots — quantized and reference mode alike.
        """
        rng = np.random.default_rng(seed)
        prompts = [rng.integers(0, 96, size=n) for n in lengths]
        config = KVCacheConfig(bits=4, page_size=4, quantize=quantize)
        step = rng.integers(0, 96, size=(len(prompts), 1))
        batched = model.log_probs_incremental(step, prefilled(model, prompts, config))
        looped = model.log_probs_incremental(
            step, prefilled(model, prompts, config), batched_rounds=False
        )
        np.testing.assert_array_equal(batched, looped)

    def test_pool_decode_reuse_is_bitwise_equal_to_redecode(self, model):
        """Writing each sealed page's dequantized values back into the
        cache's own rows at seal time must change nothing: logits are
        bitwise identical to re-decoding every sealed page from its packed
        bytes on every step."""
        tokens = np.random.default_rng(21).integers(0, 96, size=TOTAL_LEN)
        config = KVCacheConfig(bits=4, page_size=4)
        once, cache = stepwise_log_probs(model, tokens, 8, config)
        # The seal writes its rows back from the encoder's codes: no decode.
        assert cache.pool.pages_registered > 0
        assert cache.pool.decode_misses == cache.pool.decode_hits == 0
        redecode = _RedecodeCache(cache_for_model(model, config))
        redecoded, _ = stepwise_log_probs(model, tokens, 8, config, cache=redecode)
        np.testing.assert_array_equal(once, redecoded)

    @pytest.mark.parametrize("width", [1, 4], ids=["decode", "verify"])
    def test_ragged_round_bitwise_equals_per_sequence_loop(self, model, width):
        """Decode and verify rounds over ragged slots are bitwise the
        per-sequence loop, and match row-by-row one-slot calls."""
        rng = np.random.default_rng(9)
        prompts = [rng.integers(0, 96, size=n) for n in (5, 12, 20)]
        config = KVCacheConfig(quantize=False, page_size=4)
        step = rng.integers(0, 96, size=(len(prompts), width))
        batched = model.log_probs_incremental(
            step, prefilled(model, prompts, config), batched_rounds=True
        )
        # One token per slot projects bitwise alike fused or separate; an
        # m-token verify round takes the fused projection on both sides.
        looped = model.log_probs_incremental(
            step, prefilled(model, prompts, config), batched_rounds=width > 1
        )
        for row, prompt in enumerate(prompts):
            [cache] = prefilled(model, [prompt], config)
            single = model.log_probs_incremental(step[row][None], [cache])
            np.testing.assert_allclose(
                batched[row], single[0], rtol=1e-9, atol=1e-12
            )
        np.testing.assert_array_equal(batched, looped)

    def test_decode_round_allocates_less_than_one_padded_buffer(self, model):
        """A decode round attends each slot's rows in place: its peak traced
        allocation stays below one ``(slots, heads, max_len, head_dim)``
        float64 buffer, the size of a single padded K (or V) copy."""
        rng = np.random.default_rng(4)
        lengths = [40, 42, 44, 46, 48, 50, 52, 54]
        prompts = [rng.integers(0, 96, size=n) for n in lengths]
        config = KVCacheConfig(bits=4, page_size=4)
        caches = prefilled(model, prompts, config, capacity=max(lengths) + 2)
        step = rng.integers(0, 96, size=(len(prompts), 2))
        # The first round builds the fused QKV operands; measure the second.
        model.log_probs_incremental(step[:, :1], caches)
        tracemalloc.start()
        try:
            model.log_probs_incremental(step[:, 1:], caches)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        attention = model.backbone.layer_0.self_attention
        padded = 8 * len(lengths) * attention.num_heads * (max(lengths) + 2) * attention.head_dim
        assert peak < padded, f"round peak {peak} B >= one padded buffer {padded} B"


def padded_reference_attend(attention, q, kvs):
    """Round attend with every slot padded to the longest sequence.

    Copies each slot's K/V into one zero-padded buffer, masks the padding
    (causally inside the appended block when ``t_new > 1``) and attends all
    slots as one batched op: an independent oracle for the per-slot attend.
    """
    num_seqs, num_heads, t_new, head_dim = q.shape
    lengths = [k.shape[1] for k, _ in kvs]
    k_pad = np.zeros((num_seqs, num_heads, max(lengths), head_dim))
    v_pad = np.zeros_like(k_pad)
    mask = np.full((num_seqs, 1, t_new, max(lengths)), -np.inf)
    for i, (k, v) in enumerate(kvs):
        k_pad[i, :, : lengths[i]] = k
        v_pad[i, :, : lengths[i]] = v
        for j in range(t_new):
            mask[i, 0, j, : lengths[i] - t_new + 1 + j] = 0.0
    scores = q @ k_pad.transpose(0, 1, 3, 2) / np.sqrt(head_dim) + mask
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return weights / weights.sum(axis=-1, keepdims=True) @ v_pad


class TestRoundAttend:
    """``MultiHeadAttention._attend`` on one round's queries and K/V rows."""

    @staticmethod
    def round_operands(attention, lengths, t_new, seed):
        rng = np.random.default_rng(seed)
        heads, dim = attention.num_heads, attention.head_dim
        q = rng.normal(size=(len(lengths), heads, t_new, dim))
        kvs = [
            (rng.normal(size=(heads, n, dim)), rng.normal(size=(heads, n, dim)))
            for n in lengths
        ]
        return q, kvs

    @pytest.mark.parametrize("t_new", [1, 4], ids=["decode", "verify"])
    def test_round_rows_bitwise_equal_one_slot_attend(self, model, t_new):
        """Each slot of a round attends exactly as a one-slot call does."""
        attention = model.backbone.layer_0.self_attention
        q, kvs = self.round_operands(attention, [4, 17, 9, 30], t_new, seed=3)
        attended = attention._attend(q, kvs)
        for i, kv in enumerate(kvs):
            np.testing.assert_array_equal(
                attended[i], attention._attend(q[i : i + 1], [kv])[0]
            )

    @pytest.mark.parametrize("t_new", [1, 4], ids=["decode", "verify"])
    def test_round_matches_padded_reference(self, model, t_new):
        """Attending each slot's own rows equals the padded, masked round."""
        attention = model.backbone.layer_0.self_attention
        q, kvs = self.round_operands(attention, [4, 17, 9, 30], t_new, seed=5)
        np.testing.assert_allclose(
            attention._attend(q, kvs),
            padded_reference_attend(attention, q, kvs),
            rtol=1e-9,
            atol=1e-12,
        )


#: Agreement bound of the cascade (split-softmax) attend against one softmax
#: over the concatenated K/V: float64 round-off, not bitwise.
CASCADE_BOUND = 1e-12


class TestSharedPrefixAttend:
    """``_attend`` with shared prefix blocks against one softmax over each
    slot's concatenated ``[block rows [0, p)] + [own rows]``."""

    @staticmethod
    def operands(attention, slots, t_new, seed):
        """``slots`` lists ``(block, p, own_len)``; ``block`` indexes two
        shared blocks (24 and 16 rows) or is ``None`` for an unshared slot.
        Returns ``q``, own ``kvs``, ``prefixes`` and the concatenated K/V."""
        rng = np.random.default_rng(seed)
        heads, dim = attention.num_heads, attention.head_dim
        blocks = [
            (rng.normal(size=(heads, n, dim)), rng.normal(size=(heads, n, dim)))
            for n in (24, 16)
        ]
        q = rng.normal(size=(len(slots), heads, t_new, dim))
        kvs, prefixes, full = [], [], []
        for block, p, own_len in slots:
            # Larger own keys on some slots, so the own part holds the joint
            # row max for some rows and the shared part for others.
            scale = 3.0 if own_len % 2 else 1.0
            k = rng.normal(scale=scale, size=(heads, own_len, dim))
            v = rng.normal(size=(heads, own_len, dim))
            kvs.append((k, v))
            if block is None:
                prefixes.append(None)
                full.append((k, v))
            else:
                k_block, v_block = blocks[block]
                prefixes.append((k_block, v_block, p))
                full.append(
                    (
                        np.concatenate([k_block[:, :p], k], axis=1),
                        np.concatenate([v_block[:, :p], v], axis=1),
                    )
                )
        return q, kvs, prefixes, full

    #: Two blocks, one of them at two prefix lengths, plus unshared slots.
    SLOTS = [(0, 24, 7), (None, None, 12), (1, 16, 5), (0, 24, 9), (0, 16, 6), (None, None, 4)]

    @pytest.mark.parametrize(
        "t_new, own_lengths",
        [(1, None), (4, None), (6, [6] * 6)],
        ids=["decode", "verify", "suffix-prefill"],
    )
    def test_cascade_matches_one_softmax_over_concatenated_kv(
        self, model, t_new, own_lengths
    ):
        attention = model.backbone.layer_0.self_attention
        slots = self.SLOTS
        if own_lengths is not None:  # the whole own part is the new suffix
            slots = [(b, p, n) for (b, p, _), n in zip(slots, own_lengths)]
        q, kvs, prefixes, full = self.operands(attention, slots, t_new, seed=7)
        cascade = attention._attend(q, kvs, prefixes)
        reference = attention._attend(q, full)
        assert np.abs(cascade - reference).max() <= CASCADE_BOUND
        np.testing.assert_array_equal(cascade.argmax(axis=-1), reference.argmax(axis=-1))
        # Unshared slots keep the plain path: bitwise the one-slot attend.
        for i, prefix in enumerate(prefixes):
            if prefix is None:
                np.testing.assert_array_equal(
                    cascade[i], attention._attend(q[i : i + 1], [kvs[i]])[0]
                )

    @pytest.mark.parametrize("t_new", [1, 4], ids=["decode", "verify"])
    def test_slot_order_does_not_change_any_slot(self, model, t_new):
        attention = model.backbone.layer_0.self_attention
        q, kvs, prefixes, full = self.operands(attention, self.SLOTS, t_new, seed=9)
        attended = attention._attend(q, kvs, prefixes)
        order = np.random.default_rng(1).permutation(len(self.SLOTS))
        permuted = attention._attend(
            q[order], [kvs[i] for i in order], [prefixes[i] for i in order]
        )
        assert np.abs(permuted - attended[order]).max() <= CASCADE_BOUND
        reference = attention._attend(q[order], [full[i] for i in order])
        assert np.abs(permuted - reference).max() <= CASCADE_BOUND

    def test_attached_caches_track_unshared_caches_through_a_model(self, model):
        """End to end through every layer: slots reading a shared block
        give the logits of caches that prefilled the same tokens alone."""
        rng = np.random.default_rng(13)
        config = KVCacheConfig(bits=4, page_size=4)
        document = rng.integers(0, 96, size=16)
        owner = prefilled(model, [document], config)[0]
        questions = [rng.integers(0, 96, size=n) for n in (3, 6, 5)]
        attached = []
        for question in questions:
            cache = cache_for_model(model, config, pool=owner.pool)
            cache.attach_prefix(
                [owner.layer(l)._sealed_k for l in range(owner.num_layers)],
                [owner.layer(l)._sealed_v for l in range(owner.num_layers)],
                16,
            )
            model.log_probs_incremental(question[None], [cache])
            attached.append(cache)
        assert owner.pool.num_blocks == owner.num_layers
        # Owner-side reference: the document's sealed rows, then the question.
        alone = []
        for question in questions:
            cache = cache_for_model(model, config, pool=owner.pool)
            model.log_probs_incremental(document[None], [cache])
            model.log_probs_incremental(question[None], [cache])
            alone.append(cache)
        for width in (1, 3, 1):
            step = rng.integers(0, 96, size=(len(questions), width))
            got = model.log_probs_incremental(step, attached, batched_rounds=True)
            want = model.log_probs_incremental(step, alone, batched_rounds=True)
            assert np.abs(got - want).max() <= CASCADE_BOUND
            np.testing.assert_array_equal(got.argmax(axis=-1), want.argmax(axis=-1))
        # A traced round names the shared slots and the block rows once.
        tracer = Tracer()
        step = rng.integers(0, 96, size=(len(questions) + 1, 1))
        model.log_probs_incremental(step, attached + alone[:1], tracer=tracer)
        attends = [span.attrs for span in tracer.spans() if span.name == "attend"]
        assert len(attends) == model.backbone.num_layers
        for attrs in attends:
            assert attrs["slots"] == 4 and attrs["shared_slots"] == 3
            assert attrs["shared_kv_tokens"] == 16
            assert attrs["kv_tokens"] == sum(cache.seq_len for cache in attached + alone[:1])


def one_slot_trajectories(model, prompts, widths, config, seed):
    """Prefill ``prompts`` and run ``len(widths)`` rounds twice: once as
    batched rounds over every slot, once as one-slot calls per sequence.

    Round ``r`` feeds ``widths[r]`` fresh tokens per sequence (a verify-style
    round when > 1).  Returns the two lists of per-round logits.
    """
    rng = np.random.default_rng(seed)
    steps = [rng.integers(0, 96, size=(len(prompts), w)) for w in widths]
    caches = prefilled(model, prompts, config)
    batched = [
        model.log_probs_incremental(step, caches, batched_rounds=True)
        for step in steps
    ]
    singles = prefilled(model, prompts, config)
    looped = [
        np.concatenate(
            [
                model.log_probs_incremental(step[i][None], [cache], batched_rounds=True)
                for i, cache in enumerate(singles)
            ]
        )
        for step in steps
    ]
    return batched, looped


class TestRoundTrajectory:
    """Several rounds in a row over the same caches: rows sealed and grown by
    earlier rounds must not leak into later ones, so a multi-slot trajectory
    tracks each sequence run on its own."""

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        lengths=st.lists(st.integers(min_value=1, max_value=20), min_size=2, max_size=5),
        widths=st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=5),
        seed=st.integers(min_value=0, max_value=2**16),
        quantize=st.booleans(),
    )
    def test_round_trajectory_matches_one_slot_trajectories(
        self, model, lengths, widths, seed, quantize
    ):
        rng = np.random.default_rng(seed)
        prompts = [rng.integers(0, 96, size=n) for n in lengths]
        config = KVCacheConfig(bits=4, page_size=8, quantize=quantize)
        batched, looped = one_slot_trajectories(model, prompts, widths, config, seed)
        for got, want in zip(batched, looped):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
            np.testing.assert_array_equal(got.argmax(axis=-1), want.argmax(axis=-1))

    def test_alternating_round_widths_match_one_slot_trajectories(self, model):
        """Alternate wide and narrow rounds across several page seals."""
        rng = np.random.default_rng(11)
        prompts = [rng.integers(0, 96, size=n) for n in (3, 17, 9, 26)]
        config = KVCacheConfig(bits=4, page_size=4)
        widths = [3, 1, 2, 1, 3]
        batched, looped = one_slot_trajectories(model, prompts, widths, config, 11)
        for got, want in zip(batched, looped):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
            np.testing.assert_array_equal(got.argmax(axis=-1), want.argmax(axis=-1))


class TestMultiTokenRound:
    """The speculative verify round: ``m`` tokens per slot in one batched
    pass (``batched_rounds=True``)."""

    def test_m1_explicit_flag_bitwise_equal_to_auto_dispatch(self, model):
        """batched_rounds=True with one token per slot IS the decode round."""
        rng = np.random.default_rng(11)
        prompts = [rng.integers(0, 96, size=n) for n in (5, 12, 20)]
        config = KVCacheConfig(bits=4, page_size=4)
        step = rng.integers(0, 96, size=(3, 1))
        auto = model.log_probs_incremental(step, prefilled(model, prompts, config))
        explicit = model.log_probs_incremental(
            step, prefilled(model, prompts, config), batched_rounds=True
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
            step, prefilled(model, prompts, config), batched_rounds=True
        )
        looped = model.log_probs_incremental(
            step, prefilled(model, prompts, config), batched_rounds=False
        )
        np.testing.assert_allclose(batched, looped, rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(
            batched.argmax(axis=-1), looped.argmax(axis=-1)
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
