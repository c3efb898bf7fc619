"""Tests for the NumPy transformer substrate (modules, layers, attention, stacks)."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.attention import MultiHeadAttention
from repro.nn.fakequant import QuantizedLinear, iter_quantized_linears, set_calibration
from repro.nn.heads import ClassificationHead, LMHead, SpanHead
from repro.nn.layers import Embedding, LayerNorm, Linear, PositionalEmbedding
from repro.nn.module import Module, Parameter
from repro.nn.transformer import (
    TransformerDecoder,
    TransformerEncoder,
    TransformerEncoderDecoder,
)
from repro.quant import Int8Quantizer


class TestFunctional:
    def test_softmax_sums_to_one(self):
        x = np.random.default_rng(0).normal(0, 3, size=(4, 7))
        np.testing.assert_allclose(F.softmax(x).sum(axis=-1), 1.0)

    def test_log_softmax_consistency(self):
        x = np.random.default_rng(1).normal(0, 3, size=(5, 9))
        np.testing.assert_allclose(np.exp(F.log_softmax(x)), F.softmax(x), atol=1e-12)

    def test_layer_norm_zero_mean_unit_var(self):
        x = np.random.default_rng(2).normal(5, 3, size=(8, 16))
        out = F.layer_norm(x, np.ones(16), np.zeros(16))
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_causal_mask_blocks_future(self):
        mask = F.causal_mask(4)
        assert mask[0, 3] == -np.inf and mask[3, 0] == 0.0

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        assert F.cross_entropy(logits, np.array([0, 1])) == pytest.approx(0.0, abs=1e-6)

    def test_gelu_matches_relu_asymptotically(self):
        x = np.array([-10.0, 10.0])
        np.testing.assert_allclose(F.gelu(x), [0.0, 10.0], atol=1e-3)

    def test_gelu_matches_closed_form(self):
        x = np.random.default_rng(3).normal(0.0, 3.0, size=(128, 2048))
        closed = 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))
        out = F.gelu(x)
        assert not np.shares_memory(out, x)
        assert float(np.max(np.abs(out - closed))) <= 1e-15

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_softmax_bitwise_equals_three_temporary_form(self, masked):
        x = np.random.default_rng(5).normal(0.0, 4.0, size=(8, 16, 40))
        if masked:
            x = x + F.incremental_causal_mask(24, 16)[None]
        shifted = x - np.max(x, axis=-1, keepdims=True)
        exp = np.exp(shifted)
        expected = exp / np.sum(exp, axis=-1, keepdims=True)
        out = F.softmax(x, axis=-1)
        assert not np.shares_memory(out, x)
        np.testing.assert_array_equal(out, expected)
        if masked:
            assert np.all(out[np.isinf(x)] == 0.0)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_layer_norm_bitwise_equals_two_pass_form(self, dtype):
        rng = np.random.default_rng(4)
        x = rng.normal(2.0, 3.0, size=(3, 7, 512)).astype(dtype)
        x[..., 11] *= 80.0  # an outlier channel, as OliVe's LLM activations have
        gamma = rng.normal(size=512).astype(dtype)
        beta = rng.normal(size=512).astype(dtype)
        mean = np.mean(x, axis=-1, keepdims=True)
        var = np.var(x, axis=-1, keepdims=True)
        expected = (x - mean) / np.sqrt(var + 1e-5) * gamma + beta
        out = F.layer_norm(x, gamma, beta)
        assert out.dtype == dtype and not np.shares_memory(out, x)
        np.testing.assert_array_equal(out, expected)


class TestDtypes:
    """Ops compute in their input's floating dtype; non-floats get float64."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ops_keep_floating_dtype(self, dtype):
        x = np.random.default_rng(0).normal(size=(2, 3, 8)).astype(dtype)
        ones = np.ones(8, dtype=dtype)
        for out in (
            F.softmax(x), F.log_softmax(x), F.gelu(x), F.relu(x),
            F.layer_norm(x, ones, 0 * ones),
        ):
            assert out.dtype == dtype

    def test_integer_inputs_promote_to_float64(self):
        x = np.arange(6).reshape(2, 3)
        for out in (F.softmax(x), F.log_softmax(x), F.gelu(x), F.relu(x)):
            assert out.dtype == np.float64
        assert Linear(3, 2).astype(np.float32)(x).dtype == np.float64

    def test_float32_attention_stays_float32(self):
        attn = MultiHeadAttention(8, 2, rng=np.random.default_rng(1)).astype(np.float32)
        x = np.random.default_rng(2).normal(size=(2, 5, 8)).astype(np.float32)
        assert attn(x, causal=True).dtype == np.float32


class TestModuleSystem:
    def test_parameter_tracking(self):
        lin = Linear(4, 3)
        names = dict(lin.named_parameters())
        assert set(names) == {"weight", "bias"}

    def test_nested_modules_and_state_dict(self):
        enc = TransformerEncoder(vocab_size=11, hidden_size=8, num_layers=2,
                                 num_heads=2, intermediate_size=16, max_positions=10)
        state = enc.state_dict()
        assert len(state) > 10
        assert sum(v.size for v in state.values()) == enc.num_parameters()
        enc.load_state_dict(state)  # round trip

    def test_load_state_dict_mismatch_raises(self):
        lin = Linear(4, 3)
        with pytest.raises(KeyError):
            lin.load_state_dict({"weight": lin.weight.data})

    def test_set_submodule_replaces_child(self):
        enc = TransformerEncoder(vocab_size=11, hidden_size=8, num_layers=1,
                                 num_heads=2, intermediate_size=16, max_positions=10)
        new_linear = Linear(8, 8)
        enc.set_submodule("layer_0.attention.q_proj", new_linear)
        assert enc.get_submodule("layer_0.attention.q_proj") is new_linear

    def test_parameter_copy_shape_check(self):
        p = Parameter(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            p.copy_(np.zeros(3))

    def test_parameter_copy_keeps_dtype(self):
        p = Parameter(np.zeros((2, 2)))
        p.data = p.data.astype(np.float32)
        p.copy_(np.full((2, 2), 0.1))
        assert p.data.dtype == np.float32
        np.testing.assert_array_equal(p.data, np.float32(0.1))

    def test_astype_casts_every_parameter_and_rebuilds_fused_qkv(self):
        attn = MultiHeadAttention(8, 2, rng=np.random.default_rng(0))
        weight, _ = attn._fused_qkv_operands()
        assert weight.dtype == np.float64
        assert attn.astype(np.float32) is attn
        assert {p.data.dtype for p in attn.parameters()} == {np.dtype(np.float32)}
        weight, bias = attn._fused_qkv_operands()
        assert weight.dtype == bias.dtype == np.float32
        np.testing.assert_array_equal(weight[:8], attn.q_proj.weight.data)
        for proj in (attn.q_proj, attn.k_proj, attn.v_proj):
            assert proj.weight.data.base is weight
            assert proj.bias.data.base is bias

    def test_parameter_copy_detaches_a_fused_projection(self):
        attn = MultiHeadAttention(8, 2, rng=np.random.default_rng(0))
        weight, bias = attn._fused_qkv_operands()
        old_k = weight[8:16].copy()
        attn.k_proj.weight.copy_(np.full((8, 8), 0.5))
        # copy_ binds a new array: the operand keeps the old rows.
        assert not np.shares_memory(attn.k_proj.weight.data, weight)
        np.testing.assert_array_equal(weight[8:16], old_k)
        fused_again, _ = attn._fused_qkv_operands()
        assert fused_again is not weight
        np.testing.assert_array_equal(fused_again[8:16], 0.5)
        np.testing.assert_array_equal(fused_again[:8], weight[:8])
        assert attn.k_proj.weight.data.base is fused_again


#: The ``(out, in)`` GEMM shapes a served ``gpt2-xl-scaled`` round runs:
#: fused QKV, attention projections, FFN up and down, LM head.
SERVED_SHAPES = [(1536, 512), (512, 512), (1024, 512), (512, 1024), (96, 512)]


def _linear(out_features, in_features, dtype, seed=0):
    rng = np.random.default_rng(seed)
    lin = Linear(in_features, out_features, rng=rng)
    lin.bias.data = rng.normal(size=out_features)
    return lin.astype(dtype), rng


class TestLayers:
    @pytest.mark.parametrize("shape", SERVED_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("rows", [1, 2, 3, 8, 31, 32, 64, 65, 128])
    def test_linear_is_bitwise_x_times_w_transposed(self, rows, dtype, shape):
        lin, rng = _linear(*shape, dtype, seed=rows)
        x = rng.normal(size=(rows, shape[1])).astype(dtype)
        out = lin(x)
        assert out.dtype == dtype and out.flags.c_contiguous
        np.testing.assert_array_equal(out, x @ lin.weight.data.T + lin.bias.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_linear_flattens_leading_axes_bitwise(self, dtype):
        lin, rng = _linear(1536, 512, dtype)
        weight, bias = lin.weight.data, lin.bias.data
        hidden = rng.normal(size=(4, 9, 512)).astype(dtype)
        cases = (
            (hidden[0, 0], hidden[0, 0] @ weight.T + bias),
            (hidden, (hidden.reshape(-1, 512) @ weight.T + bias).reshape(4, 9, 1536)),
            (hidden[:, -1:], (hidden[:, -1] @ weight.T + bias)[:, None]),
        )
        for x, expected in cases:
            out = lin(x)
            assert out.dtype == dtype and out.flags.c_contiguous
            np.testing.assert_array_equal(out, expected)

    def test_linear_shapes(self):
        lin = Linear(6, 4)
        out = lin(np.zeros((2, 5, 6)))
        assert out.shape == (2, 5, 4)

    def test_linear_gemm_shape(self):
        assert Linear(6, 4).gemm_shape(32) == (32, 6, 4)

    def test_embedding_lookup_and_bounds(self):
        emb = Embedding(10, 4)
        assert emb(np.array([[0, 9]])).shape == (1, 2, 4)
        with pytest.raises(ValueError):
            emb(np.array([10]))

    def test_positional_embedding_bounds(self):
        pos = PositionalEmbedding(8, 4)
        assert pos(8).shape == (8, 4)
        with pytest.raises(ValueError):
            pos(9)

    def test_layernorm_module(self):
        ln = LayerNorm(8)
        out = ln(np.random.default_rng(0).normal(0, 4, size=(3, 8)))
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-8)


class TestAttentionAndStacks:
    def test_attention_output_shape(self):
        attn = MultiHeadAttention(8, 2)
        out = attn(np.random.default_rng(0).normal(size=(2, 5, 8)))
        assert out.shape == (2, 5, 8)

    def test_causal_attention_ignores_future_tokens(self):
        attn = MultiHeadAttention(8, 2, rng=np.random.default_rng(1))
        x = np.random.default_rng(2).normal(size=(1, 6, 8))
        out_full = attn(x, causal=True)
        x_changed = x.copy()
        x_changed[0, 5] += 10.0  # only the last position changes
        out_changed = attn(x_changed, causal=True)
        np.testing.assert_allclose(out_full[0, :5], out_changed[0, :5], atol=1e-9)

    def test_invalid_head_split(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3)

    def test_encoder_decoder_and_heads(self):
        tokens = np.random.default_rng(3).integers(0, 11, size=(2, 6))
        enc = TransformerEncoder(11, 8, 1, 2, 16, 10)
        dec = TransformerDecoder(11, 8, 1, 2, 16, 10)
        encdec = TransformerEncoderDecoder(11, 8, 1, 2, 16, 10)
        assert enc(tokens).shape == (2, 6, 8)
        assert dec(tokens).shape == (2, 6, 8)
        assert encdec(tokens).shape == (2, 6, 8)
        assert ClassificationHead(8, 3)(enc(tokens)).shape == (2, 3)
        start, end = SpanHead(8)(enc(tokens))
        assert start.shape == (2, 6) and end.shape == (2, 6)
        assert LMHead(8, 11)(dec(tokens)).shape == (2, 6, 11)


class TestFakeQuant:
    def test_quantized_linear_wraps_and_matches_roughly(self):
        lin = Linear(16, 8, rng=np.random.default_rng(4))
        x = np.random.default_rng(5).normal(size=(3, 16))
        wrapped = QuantizedLinear(lin, weight_quantizer=Int8Quantizer(),
                                  activation_quantizer=Int8Quantizer())
        wrapped.begin_calibration()
        wrapped(x)
        wrapped.end_calibration()
        out_q = wrapped(x)
        out_fp = lin(x)
        assert out_q.shape == out_fp.shape
        rel = np.linalg.norm(out_q - out_fp) / np.linalg.norm(out_fp)
        assert rel < 0.1

    def test_set_calibration_toggles_all(self):
        enc = TransformerEncoder(11, 8, 1, 2, 16, 10)
        enc.set_submodule("layer_0.attention.q_proj",
                          QuantizedLinear(Linear(8, 8), None, Int8Quantizer()))
        set_calibration(enc, True)
        assert all(m.calibrating for _, m in iter_quantized_linears(enc))
        set_calibration(enc, False)
        assert not any(m.calibrating for _, m in iter_quantized_linears(enc))
