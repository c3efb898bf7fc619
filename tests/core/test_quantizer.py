"""Tests for the tensor-level OVP quantizer and its MSE threshold search.

``TestVectorizedFitSweep::test_matches_reference_bitwise`` draws 30
derandomized examples; the ``FIT_SWEEP_EXAMPLES`` environment variable widens
it (CI's chaos job does), and a red widened run replays locally with the same
variable.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dtypes import get_normal_dtype
from repro.core.errors import EncodingError, QuantizationError
from repro.core.quantizer import OVPQuantizerConfig, OVPTensorQuantizer, make_quantizer
from repro.quant.uniform import Int4Quantizer

FIT_SWEEP_EXAMPLES = int(os.environ.get("FIT_SWEEP_EXAMPLES", "30"))


def _outlier_tensor(seed=0, n=8192, outlier_every=512, outlier_scale=40.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1.0, size=n)
    x[::outlier_every] *= outlier_scale
    return x


class TestFitAndQuantize:
    def test_fit_required_before_scale(self):
        q = make_quantizer(4)
        with pytest.raises(QuantizationError):
            _ = q.scale

    def test_fit_sets_threshold_near_3_sigma(self):
        q = make_quantizer(4).fit(np.random.default_rng(0).normal(0, 1, 4096))
        assert 1.0 <= q.threshold_sigma <= 12.0

    def test_empty_tensor_rejected(self):
        with pytest.raises(QuantizationError):
            make_quantizer(4).fit(np.array([]))

    def test_quantize_preserves_shape_and_dtype(self):
        q = make_quantizer(4)
        x = _outlier_tensor().reshape(64, 128)
        out = q.quantize(x, fit=True)
        assert out.shape == x.shape

    def test_constant_tensor_handled(self):
        q = make_quantizer(4)
        out = q.quantize(np.full(16, 3.0), fit=True)
        assert out.shape == (16,)

    def test_olive_beats_int4_on_outlier_tensor(self):
        """The core claim: OVP handles outliers far better than uniform int4."""
        x = _outlier_tensor()
        olive = make_quantizer(4)
        olive_mse = olive.quantization_mse(x)
        int4_mse = Int4Quantizer().fit(x).quantization_mse(x)
        assert olive_mse < int4_mse / 3.0

    def test_8bit_quantizer_more_accurate_than_4bit(self):
        x = _outlier_tensor(seed=1)
        mse4 = make_quantizer(4).quantization_mse(x)
        mse8 = make_quantizer(8).quantization_mse(x)
        assert mse8 < mse4

    def test_invalid_bits_rejected(self):
        with pytest.raises(QuantizationError):
            make_quantizer(6)

    def test_invalid_bits_rejected_even_with_explicit_dtype(self):
        """bits is validated before the dtype default is derived."""
        with pytest.raises(QuantizationError):
            make_quantizer(bits=16, normal_dtype="int4")

    def test_bits_dtype_mismatch_rejected(self):
        with pytest.raises(QuantizationError):
            make_quantizer(bits=8, normal_dtype="int4")
        with pytest.raises(QuantizationError):
            make_quantizer(bits=4, normal_dtype="int8")

    def test_explicit_matching_dtype_accepted(self):
        q = make_quantizer(bits=4, normal_dtype="flint4")
        assert q.normal_dtype.name == "flint4"

    def test_flint4_variant(self):
        q = OVPTensorQuantizer(OVPQuantizerConfig(normal_dtype="flint4"))
        x = _outlier_tensor(seed=2)
        assert q.quantization_mse(x) < np.var(x)


class TestEncodeDecode:
    def test_encode_decode_matches_fake_quant(self):
        x = _outlier_tensor(seed=3, n=2048)
        q = make_quantizer(4)
        fake = q.quantize(x, fit=True)
        decoded = q.decode(q.encode(x))
        np.testing.assert_allclose(decoded, fake, atol=1e-9)

    def test_encoded_size_is_half_byte_per_element(self):
        x = _outlier_tensor(seed=4, n=4096)
        q = make_quantizer(4)
        packed = q.encode(x)
        assert packed.nbytes == x.size // 2

    def test_8bit_encoded_size(self):
        x = _outlier_tensor(seed=5, n=1024)
        q = make_quantizer(8)
        packed = q.encode(x)
        assert packed.nbytes == x.size


class TestPairStatistics:
    def test_fractions_sum_to_one(self):
        q = make_quantizer(4)
        stats = q.pair_statistics(_outlier_tensor(seed=6))
        assert sum(stats.values()) == pytest.approx(1.0)

    def test_odd_length_pads_like_encode(self):
        """The trailing odd element is padded with a zero, not dropped."""
        x = np.array([1.0, 2.0, 50.0])  # the outlier lands in the padded pair
        q = make_quantizer(4)
        q.fit(_outlier_tensor(seed=9))
        stats = q.pair_statistics(x)
        assert sum(stats.values()) == pytest.approx(1.0)
        # Two pairs: (1, 2) normal-normal and (50, pad-zero) outlier-normal —
        # the dropped-element bug reported zero outlier-normal pairs here.
        assert stats["outlier-normal"] == pytest.approx(0.5)

    def test_empty_tensor_rejected(self):
        q = make_quantizer(4)
        q.fit(_outlier_tensor(seed=11))
        with pytest.raises(QuantizationError):
            q.pair_statistics(np.array([]))

    def test_statistics_match_encoded_stream_pair_count(self):
        x = _outlier_tensor(seed=10, n=1001)
        q = make_quantizer(4)
        q.fit(x)
        stats = q.pair_statistics(x)
        packed = q.encode(x)
        # 4-bit packing stores one pair per byte; the census must use the
        # same pair count as the encoded stream (the padded (size+1)//2, not
        # the dropped size//2), so fraction × stream-pairs are whole pairs.
        n_pairs = packed.nbytes
        assert n_pairs == (x.size + 1) // 2
        counts = {kind: fraction * n_pairs for kind, fraction in stats.items()}
        for count in counts.values():
            assert count == pytest.approx(round(count), abs=1e-9)
        assert sum(counts.values()) == pytest.approx(n_pairs)

    def test_outlier_outlier_pairs_rare(self):
        """Paper Table 2: outlier-outlier pairs are well below 1%."""
        q = make_quantizer(4)
        stats = q.pair_statistics(_outlier_tensor(seed=7))
        assert stats["outlier-outlier"] < 0.01
        assert stats["normal-normal"] > 0.9


class TestPerChannel:
    def test_per_channel_pair_statistics_use_channel_scales(self):
        """Each channel is classified against its own scale, not channel 0's."""
        rng = np.random.default_rng(13)
        x = np.stack([rng.normal(0, 0.01, 256), rng.normal(0, 1.0, 256)])
        q = OVPTensorQuantizer(OVPQuantizerConfig(per_channel_axis=0))
        q.fit(x)
        stats = q.pair_statistics(x)
        assert sum(stats.values()) == pytest.approx(1.0)
        # With channel-0's tiny scale applied globally, channel 1 would be
        # ~50% outlier-outlier; per-channel scaling keeps the census sane.
        assert stats["outlier-outlier"] < 0.01
        assert stats["normal-normal"] > 0.9

    def test_per_channel_encode_rejected(self):
        rng = np.random.default_rng(14)
        x = rng.normal(0, 1, size=(4, 64))
        q = OVPTensorQuantizer(OVPQuantizerConfig(per_channel_axis=0))
        q.fit(x)
        with pytest.raises(QuantizationError):
            q.encode(x)

    def test_per_channel_quantization(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, size=(8, 256))
        x[3] *= 50.0  # one channel with a wildly different scale
        per_channel = OVPTensorQuantizer(OVPQuantizerConfig(per_channel_axis=0))
        per_channel.fit(x)
        out = per_channel.quantize(x)
        assert out.shape == x.shape
        assert np.all(np.isfinite(out))
        # One scale per channel, and the amplified channel gets a larger scale.
        scales = np.asarray(per_channel.scale).ravel()
        assert scales.shape == (8,)
        assert scales[3] > 5 * np.median(np.delete(scales, 3))


class TestPropertyBased:
    @given(
        st.integers(min_value=2, max_value=256),
        st.floats(min_value=0.1, max_value=10.0),
        st.integers(min_value=0, max_value=2 ** 16),
    )
    @settings(max_examples=50, deadline=None)
    def test_quantization_error_bounded(self, n, sigma, seed):
        """Normal-range error is bounded by one grid step; no NaNs ever appear."""
        rng = np.random.default_rng(seed)
        x = rng.normal(0, sigma, size=n)
        q = make_quantizer(4)
        out = q.quantize(x, fit=True)
        assert np.all(np.isfinite(out))
        scale = float(np.asarray(q.scale).ravel()[0])
        normal_mask = np.abs(x / scale) <= 7
        if np.any(normal_mask):
            # A normal value is either rounded (error ≤ one grid step) or, when it
            # sits next to an outlier, pruned as a victim (error = its own magnitude).
            errors = np.abs(out[normal_mask] - x[normal_mask])
            bound = np.maximum(scale, np.abs(x[normal_mask])) + 1e-9
            assert np.all(errors <= bound)


class TestVectorizedFitSweep:
    """The stacked candidate sweep must match the per-candidate oracle."""

    @given(
        st.integers(min_value=2, max_value=4097),
        st.floats(min_value=0.1, max_value=8.0),
        st.integers(min_value=0, max_value=2 ** 16),
        st.sampled_from(["int4", "flint4", "int8"]),
    )
    @settings(max_examples=FIT_SWEEP_EXAMPLES, deadline=None, derandomize=True)
    def test_matches_reference_bitwise(self, n, sigma, seed, dtype):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, sigma, size=n)
        x[:: max(n // 8, 1)] *= 25.0
        q = OVPTensorQuantizer(OVPQuantizerConfig(normal_dtype=dtype, search_points=9))
        assert q._fit_flat(x) == q._fit_flat_reference(x)

    def test_candidate_blocks_chunk_identically(self):
        x = _outlier_tensor(seed=3)
        q = OVPTensorQuantizer(OVPQuantizerConfig(search_points=24))
        full = q._fit_flat(x)
        q._SWEEP_BLOCK_ELEMENTS = x.size + 1  # force block size 1
        assert q._fit_flat(x) == full

    def test_partial_last_block_matches_reference(self):
        x = _outlier_tensor(seed=6, n=1001)
        q = OVPTensorQuantizer(OVPQuantizerConfig(search_points=24))
        q._SWEEP_BLOCK_ELEMENTS = 5 * 1002  # blocks of 5 rows: 4 full, then 4
        assert q._fit_flat(x) == q._fit_flat_reference(x)

    def test_oversized_tensors_take_the_in_place_path(self, monkeypatch):
        x = _outlier_tensor(seed=4)
        q = OVPTensorQuantizer(OVPQuantizerConfig(search_points=6))
        reference = q._fit_flat_reference(x)
        q._SWEEP_BLOCK_ELEMENTS = x.size - 1  # one candidate per block

        def no_fallback(flat):
            raise AssertionError("the sweep fell back to the reference loop")

        monkeypatch.setattr(q, "_fit_flat_reference", no_fallback)
        assert q._fit_flat(x) == reference

    def test_per_channel_fit_uses_vectorized_sweep(self):
        x = _outlier_tensor(seed=5, n=4096).reshape(8, 512)
        per_channel = OVPTensorQuantizer(
            OVPQuantizerConfig(search_points=8, per_channel_axis=0)
        ).fit(x)
        reference = OVPTensorQuantizer(OVPQuantizerConfig(search_points=8))
        for channel in range(8):
            scale, _, mse = reference._fit_flat_reference(x[channel])
            assert np.asarray(per_channel.scale).ravel()[channel] == scale


def _out_cases():
    """Grids the in-place codec calls must treat like the allocating ones."""
    rng = np.random.default_rng(21)
    odd = rng.normal(0.0, 6.0, size=1001)
    odd[::97] *= 20.0
    infinite = rng.normal(0.0, 6.0, size=16)
    infinite[[2, 5, 11]] = [np.inf, -np.inf, np.inf]
    return {
        "odd": odd,
        "single": np.array([40.0]),
        "constant": np.full(9, 3.3),
        "constant-outliers": np.full(8, -50.0),
        "infinite": infinite,
        "matrix": rng.normal(0.0, 6.0, size=(6, 10)),
    }


@pytest.mark.parametrize("dtype", ["int4", "flint4", "int8"])
@pytest.mark.parametrize("case", sorted(_out_cases()))
class TestInPlaceCodecCalls:
    """``out=`` writes exactly what the allocating call returns."""

    def test_quantize_out_matches_allocating_call(self, dtype, case):
        normal = get_normal_dtype(dtype)
        grid = _out_cases()[case]
        expected = normal.quantize(grid)
        out = np.empty_like(grid)
        assert normal.quantize(grid, out=out) is out
        np.testing.assert_array_equal(out, expected)
        aliased = grid.copy()
        normal.quantize(aliased, out=aliased)
        np.testing.assert_array_equal(aliased, expected)

    def test_fake_quantize_grid_out_matches_allocating_call(self, dtype, case):
        q = OVPTensorQuantizer(OVPQuantizerConfig(normal_dtype=dtype))
        threshold = q.normal_dtype.max_value
        grid = _out_cases()[case]
        expected = q.codec.fake_quantize_grid(grid, threshold)
        out = np.empty_like(grid)
        assert q.codec.fake_quantize_grid(grid, threshold, out=out) is out
        np.testing.assert_array_equal(out, expected)
        aliased = grid.copy()
        scratch = np.empty(2 * grid.size + 6, dtype=bool)
        q.codec.fake_quantize_grid(aliased, threshold, out=aliased, scratch=scratch)
        np.testing.assert_array_equal(aliased, expected)
        # The allocating call is still what the packed stream decodes to.
        packed = q.codec.encode_tensor(grid, 1.0, threshold)
        np.testing.assert_array_equal(q.codec.decode_tensor(packed), expected)

    def test_nan_still_raises_from_the_encoder(self, dtype, case):
        q = OVPTensorQuantizer(OVPQuantizerConfig(normal_dtype=dtype))
        grid = _out_cases()[case].copy()
        grid.flat[-1] = np.nan
        with pytest.raises(EncodingError):
            q.codec.encode_tensor(grid, 1.0, q.normal_dtype.max_value)


def test_fake_quantize_grid_rejects_a_mismatched_out():
    q = make_quantizer(4)
    grid = np.zeros((4, 6))
    with pytest.raises(EncodingError):
        q.codec.fake_quantize_grid(grid, 7.0, out=np.empty((6, 4)))
    with pytest.raises(EncodingError):
        q.codec.fake_quantize_grid(grid, 7.0, out=np.empty((6, 4)).T)
