"""Fused QKV projection: one GEMM against the concatenated Q/K/V operands.

Single-token forwards and verify rounds project Q, K and V with one GEMM
against a concatenated ``(3·hidden, hidden)`` operand instead of three
separate ``(hidden, hidden)`` GEMMs.  The operand is cached per attention
module and rebuilt when packing swaps a source array; the fused product
equals the three ``Linear`` outputs.

A wider BLAS kernel may reorder the float accumulation by ~1 ulp, so the
serving contract is **identical greedy tokens**: rounds forced onto the
three separate projections (``batched_rounds=False``) are the oracle, at
both the toy and the scaled tier, over fp32 and packed caches, for
single-token and m-token (verify-style) rounds.
"""

import numpy as np
import pytest

from repro.models.zoo import build_causal_lm
from repro.serve.kvcache import KVCacheConfig, cache_for_model

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
        attention.q_proj.weight.data = attention.q_proj.weight.data.copy()
        rebuilt = attention._fused_qkv_operands()
        assert rebuilt is not first
        np.testing.assert_array_equal(rebuilt[0], first[0])
        np.testing.assert_array_equal(rebuilt[1], first[1])

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
