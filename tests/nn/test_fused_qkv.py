"""Fused QKV projection: one GEMM against the concatenated Q/K/V operands.

Single-token forwards and verify rounds project Q, K and V with one GEMM
against a concatenated ``(3·hidden, hidden)`` operand instead of three
separate ``(hidden, hidden)`` GEMMs.  The operand is the storage: once
fused, each projection's weight and bias are row views of it, so a served
layer holds its Q/K/V weights once.  A pass that binds a projection a new
array (packing, ``astype``) makes the next fused call fuse again; the
fused product equals the three ``Linear`` outputs.

A wider BLAS kernel may reorder the float accumulation by ~1 ulp, so the
serving contract is **identical greedy tokens**: rounds forced onto the
three separate projections (``batched_rounds=False``) are the oracle, at
both the toy and the scaled tier, over fp32 and packed caches, for
single-token and m-token (verify-style) rounds.
"""

import sys
import threading

import numpy as np
import pytest

from repro.models.zoo import build_causal_lm
from repro.nn.attention import MultiHeadAttention
from repro.serve.kvcache import KVCacheConfig, cache_for_model
from repro.serve.repository import ModelRepository
from repro.serve.requests import WorkloadFamily

VOCAB = 96


@pytest.fixture(scope="module")
def toy():
    return build_causal_lm("gpt2-xl", seed=0)


@pytest.fixture(scope="module")
def scaled():
    return build_causal_lm("gpt2-xl-scaled", seed=0)


def greedy_rounds(model, prompts, config, fused, new_tokens):
    """Prefill then greedily decode ``new_tokens`` batched rounds."""
    caches, step = [], []
    for prompt in prompts:
        cache = cache_for_model(model, config)
        log_probs = model.log_probs_incremental(prompt[None], [cache])
        caches.append(cache)
        step.append(int(np.argmax(log_probs[0, -1])))
    generated = [[t] for t in step]
    for _ in range(new_tokens - 1):
        log_probs = model.log_probs_incremental(
            np.array(step)[:, None], caches, batched_rounds=fused
        )
        step = [int(t) for t in log_probs[:, -1].argmax(axis=-1)]
        for seq, token in zip(generated, step):
            seq.append(token)
    return generated


def m_token_round(model, prompts, config, fused, width, seed):
    """One verify-style round of ``width`` tokens; returns per-slot argmax."""
    caches = []
    for prompt in prompts:
        cache = cache_for_model(model, config)
        model.log_probs_incremental(prompt[None], [cache])
        caches.append(cache)
    step = np.random.default_rng(seed).integers(
        0, VOCAB, size=(len(prompts), width)
    )
    log_probs = model.log_probs_incremental(step, caches, batched_rounds=fused)
    return log_probs.argmax(axis=-1)


CONFIGS = [
    pytest.param(KVCacheConfig(bits=4, page_size=8, quantize=False), id="fp32"),
    pytest.param(KVCacheConfig(bits=4, page_size=8), id="packed4"),
]


class TestGreedyTokenIdentity:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_toy_tier(self, toy, config):
        rng = np.random.default_rng(5)
        prompts = [rng.integers(0, VOCAB, size=n) for n in (4, 19, 11, 30)]
        fused = greedy_rounds(toy, prompts, config, True, 10)
        unfused = greedy_rounds(toy, prompts, config, False, 10)
        assert fused == unfused

    @pytest.mark.parametrize("config", CONFIGS)
    def test_scaled_tier(self, scaled, config):
        rng = np.random.default_rng(7)
        prompts = [rng.integers(0, VOCAB, size=n) for n in (9, 41, 23)]
        fused = greedy_rounds(scaled, prompts, config, True, 6)
        unfused = greedy_rounds(scaled, prompts, config, False, 6)
        assert fused == unfused

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("tier", ["toy", "scaled"])
    def test_m_token_rounds(self, toy, scaled, tier, config):
        model = toy if tier == "toy" else scaled
        rng = np.random.default_rng(13)
        prompts = [rng.integers(0, VOCAB, size=n) for n in (6, 27, 14)]
        fused = m_token_round(model, prompts, config, True, 3, 13)
        unfused = m_token_round(model, prompts, config, False, 3, 13)
        np.testing.assert_array_equal(fused, unfused)


class TestFusedOperandCache:
    def test_operands_cached_until_weights_swap(self, toy):
        attention = toy.backbone.layer_0.self_attention
        first = attention._fused_qkv_operands()
        assert first is attention._fused_qkv_operands()
        # Packing replaces the weight arrays wholesale; the fused operand
        # must rebuild when any source array identity changes.
        rebound = attention.q_proj.weight.data.copy()
        attention.q_proj.weight.data = rebound
        rebuilt = attention._fused_qkv_operands()
        assert rebuilt is not first
        np.testing.assert_array_equal(rebuilt[0], first[0])
        np.testing.assert_array_equal(rebuilt[1], first[1])
        np.testing.assert_array_equal(rebuilt[0][:64], rebound)
        assert attention.q_proj.weight.data.base is rebuilt[0]

    def test_concurrent_fuses_hold_the_same_rows(self):
        """Threads racing to fuse, while one keeps rebinding a projection,
        only ever see the original Q/K/V rows."""
        attention = MultiHeadAttention(8, 2, rng=np.random.default_rng(1))
        projections = (attention.q_proj, attention.k_proj, attention.v_proj)
        expected = (
            np.concatenate([proj.weight.data for proj in projections]),
            np.concatenate([proj.bias.data for proj in projections]),
        )
        mismatches = []

        def work(index):
            for step in range(300):
                if step % 7 == index:
                    proj = projections[step % 3]
                    proj.weight.data = proj.weight.data.copy()
                weight, bias = attention._fused_qkv_operands()
                if not (
                    np.array_equal(weight, expected[0])
                    and np.array_equal(bias, expected[1])
                ):
                    mismatches.append(step)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        weight, bias = attention._fused_qkv_operands()
        np.testing.assert_array_equal(weight, expected[0])
        for proj in projections:
            assert proj.weight.data.base is weight
            assert proj.bias.data.base is bias

    def test_fused_matches_separate_projections(self, toy):
        attention = toy.backbone.layer_0.self_attention
        weight, bias = attention._fused_qkv_operands()
        assert weight.shape == (192, 64)
        hidden = np.random.default_rng(3).standard_normal((2, 4, 64))
        fused = hidden @ weight.T + bias
        separate = np.concatenate(
            [
                attention.q_proj.forward(hidden),
                attention.k_proj.forward(hidden),
                attention.v_proj.forward(hidden),
            ],
            axis=-1,
        )
        np.testing.assert_allclose(fused, separate, rtol=1e-12, atol=1e-12)


class TestStorageOnce:
    def test_served_projections_view_the_fused_operand(self):
        """After a decode round each layer holds its Q/K/V weights once."""
        model = ModelRepository(bits=4, seed=0).get(
            "gpt2-xl-scaled", WorkloadFamily.LM
        ).model
        config = KVCacheConfig(bits=4, page_size=8)
        greedy_rounds(model, [np.arange(9) % VOCAB], config, None, 2)
        layers = [
            module for name, module in model.named_modules()
            if name.endswith("self_attention")
        ]
        assert len(layers) == 4
        for attention in layers:
            projections = (attention.q_proj, attention.k_proj, attention.v_proj)
            weights = [proj.weight.data for proj in projections]
            biases = [proj.bias.data for proj in projections]
            weight, bias = attention._fused_qkv_operands()
            for proj_weight, proj_bias in zip(weights, biases):
                assert np.shares_memory(proj_weight, weight)
                assert np.shares_memory(proj_bias, bias)
            backing = {
                id(owner): owner
                for owner in (w if w.base is None else w.base for w in weights)
            }
            assert sum(a.nbytes for a in backing.values()) == 3 * 512 * 512 * 4
