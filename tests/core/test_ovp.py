"""Unit and property tests for the OVP pair codec (paper Algorithm 1, Fig. 4)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.abfloat import ABFLOAT_E2M1, ABFLOAT_E4M3
from repro.core.dtypes import FLINT4, INT4, INT8
from repro.core.errors import EncodingError
from repro.core.ovp import OVPairCodec, PairKind


@pytest.fixture
def codec4():
    return OVPairCodec(INT4, ABFLOAT_E2M1, bias=2)


@pytest.fixture
def codec8():
    return OVPairCodec(INT8, ABFLOAT_E4M3, bias=4)


class TestPairClassification:
    def test_normal_normal(self, codec4):
        assert codec4.classify_pair(1.0, -3.0, threshold=7) == PairKind.NORMAL_NORMAL

    def test_outlier_normal(self, codec4):
        assert codec4.classify_pair(20.0, 2.0, threshold=7) == PairKind.OUTLIER_NORMAL
        assert codec4.classify_pair(2.0, -20.0, threshold=7) == PairKind.OUTLIER_NORMAL

    def test_outlier_outlier(self, codec4):
        assert codec4.classify_pair(20.0, -30.0, threshold=7) == PairKind.OUTLIER_OUTLIER


class TestEncodePair:
    def test_normal_pair_round_trip(self, codec4):
        c1, c2 = codec4.encode_pair(3.0, -5.0, threshold=7)
        assert codec4.decode_pair(c1, c2) == (3.0, -5.0)

    def test_left_outlier_gets_right_victim(self, codec4):
        c1, c2 = codec4.encode_pair(40.0, 2.0, threshold=7)
        assert c2 == INT4.identifier_code
        v1, v2 = codec4.decode_pair(c1, c2)
        assert v2 == 0.0           # victim pruned to zero
        assert v1 in ABFLOAT_E2M1.magnitude_values(2)

    def test_right_outlier_gets_left_victim(self, codec4):
        c1, c2 = codec4.encode_pair(2.0, -40.0, threshold=7)
        assert c1 == INT4.identifier_code
        v1, v2 = codec4.decode_pair(c1, c2)
        assert v1 == 0.0
        assert -v2 in ABFLOAT_E2M1.magnitude_values(2)

    def test_outlier_outlier_keeps_larger(self, codec4):
        c1, c2 = codec4.encode_pair(20.0, -50.0, threshold=7)
        v1, v2 = codec4.decode_pair(c1, c2)
        assert v1 == 0.0            # the smaller outlier becomes the victim
        assert v2 != 0.0

    def test_codes_fit_in_4_bits(self, codec4):
        for pair in [(3.0, 2.0), (40.0, 1.0), (1.0, -90.0), (50.0, 60.0)]:
            c1, c2 = codec4.encode_pair(*pair, threshold=7)
            assert 0 <= c1 <= 0xF and 0 <= c2 <= 0xF

    def test_normal_codes_never_equal_identifier(self, codec4):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.uniform(-7, 7, size=2)
            c1, c2 = codec4.encode_pair(a, b, threshold=7)
            assert c1 != INT4.identifier_code
            assert c2 != INT4.identifier_code


class TestFakeQuantGrid:
    def test_matches_bit_accurate_path(self, codec4):
        rng = np.random.default_rng(1)
        grid = rng.normal(0, 2.5, size=512)
        grid[::50] *= 15
        fake = codec4.fake_quantize_grid(grid, threshold=7)
        packed = codec4.encode_tensor(grid, scale=1.0, threshold=7)
        decoded = codec4.decode_tensor(packed)
        np.testing.assert_allclose(fake, decoded, atol=1e-9)

    def test_odd_length_preserved(self, codec4):
        grid = np.array([1.0, 2.0, 30.0])
        out = codec4.fake_quantize_grid(grid, threshold=7)
        assert out.shape == (3,)

    def test_shape_preserved(self, codec4):
        grid = np.zeros((6, 10))
        assert codec4.fake_quantize_grid(grid, threshold=7).shape == (6, 10)

    def test_victims_are_zero(self, codec4):
        grid = np.array([40.0, 3.0, 2.0, -1.0])
        out = codec4.fake_quantize_grid(grid, threshold=7)
        assert out[1] == 0.0          # victim of the left outlier
        assert out[2] == 2.0 and out[3] == -1.0

    @given(st.lists(st.floats(min_value=-200, max_value=200), min_size=2, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_fake_quant_idempotent_on_normals(self, values):
        """Quantizing twice gives the same result as quantizing once."""
        codec = OVPairCodec(INT4, ABFLOAT_E2M1, bias=2)
        grid = np.asarray(values, dtype=np.float64)
        once = codec.fake_quantize_grid(grid, threshold=7)
        twice = codec.fake_quantize_grid(once, threshold=7)
        np.testing.assert_allclose(once, twice, atol=1e-9)


class TestPackedTensor:
    def test_memory_is_aligned_half_byte_per_element(self, codec4):
        tensor = np.random.default_rng(2).normal(0, 1, size=(32, 32))
        packed = codec4.encode_tensor(tensor, scale=0.5, threshold=7)
        # 4-bit OVP: exactly one byte per pair, no side tables.
        assert packed.nbytes == tensor.size // 2

    def test_8bit_packing_one_byte_per_element(self, codec8):
        tensor = np.random.default_rng(3).normal(0, 20, size=256)
        packed = codec8.encode_tensor(tensor, scale=1.0, threshold=127)
        assert packed.nbytes == tensor.size

    def test_round_trip_error_bounded_by_scale(self, codec4):
        rng = np.random.default_rng(4)
        tensor = rng.normal(0, 1.0, size=1000)
        scale = 3.0 * np.std(tensor) / 7.0
        packed = codec4.encode_tensor(tensor, scale=scale, threshold=7)
        decoded = codec4.decode_tensor(packed)
        normal_mask = np.abs(tensor / scale) <= 7
        assert np.max(np.abs(decoded[normal_mask] - tensor[normal_mask])) <= scale

    def test_invalid_scale_raises(self, codec4):
        with pytest.raises(EncodingError):
            codec4.encode_tensor(np.ones(4), scale=0.0, threshold=7)

    def test_mismatched_widths_rejected(self):
        with pytest.raises(EncodingError):
            OVPairCodec(INT4, ABFLOAT_E4M3, bias=4)

    def test_flint4_codec_round_trip(self):
        codec = OVPairCodec(FLINT4, ABFLOAT_E2M1, bias=3)
        grid = np.array([1.0, 16.0, 40.0, 2.0, -3.0, 6.0])
        packed = codec.encode_tensor(grid, scale=1.0, threshold=16)
        decoded = codec.decode_tensor(packed)
        assert decoded.shape == grid.shape
        # 40 is an outlier; its partner (2.0) becomes the victim.
        assert decoded[2] in ABFLOAT_E2M1.magnitude_values(3)
        assert decoded[3] == 0.0


class TestBatchCodecPaths:
    """encode_tensor_batch / decode_tensor_batch vs the single-tensor paths."""

    def test_decode_batch_matches_individual(self, codec4):
        rng = np.random.default_rng(0)
        tensors = [rng.normal(0, 2.0, size=(4, 8, 16)) for _ in range(5)]
        packed = [codec4.encode_tensor(t, 0.7 + 0.1 * i, 7.0) for i, t in enumerate(tensors)]
        stacked = codec4.decode_tensor_batch(packed)
        assert stacked.shape == (5, 4, 8, 16)
        for row, p in enumerate(packed):
            np.testing.assert_array_equal(stacked[row], codec4.decode_tensor(p))

    def test_decode_batch_padded_odd_streams(self, codec4):
        rng = np.random.default_rng(1)
        tensors = [rng.normal(0, 2.0, size=7) for _ in range(3)]
        packed = [codec4.encode_tensor(t, 1.0, 7.0) for t in tensors]
        assert all(p.padded for p in packed)
        stacked = codec4.decode_tensor_batch(packed)
        for row, p in enumerate(packed):
            np.testing.assert_array_equal(stacked[row], codec4.decode_tensor(p))

    def test_decode_batch_shape_mismatch_rejected(self, codec4):
        rng = np.random.default_rng(2)
        a = codec4.encode_tensor(rng.normal(size=8), 1.0, 7.0)
        b = codec4.encode_tensor(rng.normal(size=10), 1.0, 7.0)
        with pytest.raises(EncodingError):
            codec4.decode_tensor_batch([a, b])
        with pytest.raises(EncodingError):
            codec4.decode_tensor_batch([])

    def test_decode_batch_codec_mismatch_rejected(self, codec4, codec8):
        packed = codec8.encode_tensor(np.zeros(8), 1.0, 127.0)
        with pytest.raises(EncodingError):
            codec4.decode_tensor_batch([packed])

    @pytest.mark.parametrize("shape", [(2, 32), (3, 5), (7,)], ids=["even", "odd", "flat_odd"])
    @pytest.mark.parametrize("bits", [4, 8])
    def test_encode_batch_matches_individual(self, codec4, codec8, shape, bits):
        codec, threshold = (codec4, 7.0) if bits == 4 else (codec8, 127.0)
        rng = np.random.default_rng(3)
        # An even-sized tensor between odd ones: each odd tensor's own pad
        # slot keeps every later stream on a pair boundary.
        tensors = [rng.normal(0, threshold / 2, size=s) for s in (shape, (2, 4), shape, shape)]
        for t in tensors:
            t.reshape(-1)[::5] *= 10.0
        scales = [0.5, 1.0, 1.5, 2.0]
        dtypes = [np.float64, np.float32, np.float32, np.float64]
        out = [np.full(t.shape, np.nan, dtype) for t, dtype in zip(tensors, dtypes)]
        batch = codec.encode_tensor_batch(tensors, scales, threshold, out=out)
        for packed, tensor, scale, written in zip(batch, tensors, scales, out):
            single = codec.encode_tensor(tensor, scale, threshold)
            np.testing.assert_array_equal(packed.data, single.data)
            assert packed.scale == single.scale
            assert packed.shape == single.shape
            assert packed.padded == single.padded == bool(tensor.size % 2)
            decoded = codec.decode_tensor(single)
            np.testing.assert_array_equal(codec.decode_tensor(packed), decoded)
            # The write-back is the decode of the stream, cast to the output.
            np.testing.assert_array_equal(written, decoded.astype(written.dtype))
        # In place, as a seal writes its own rows back: same bytes and values.
        again = codec.encode_tensor_batch(tensors, scales, threshold, out=tensors)
        for packed, first, tensor, written in zip(again, batch, tensors, out):
            np.testing.assert_array_equal(packed.data, first.data)
            np.testing.assert_array_equal(tensor, codec.decode_tensor(first))

    def test_encode_batch_rejects_bad_scales_and_outputs(self, codec4):
        with pytest.raises(EncodingError):
            codec4.encode_tensor_batch([np.zeros(8)], [0.0], 7.0)
        with pytest.raises(EncodingError):
            codec4.encode_tensor_batch([np.zeros(8)], [1.0, 2.0], 7.0)
        with pytest.raises(EncodingError):
            codec4.encode_tensor_batch([], [], 7.0)
        with pytest.raises(EncodingError):
            codec4.encode_tensor_batch([np.zeros(8)], [1.0], 7.0, out=[])
        with pytest.raises(EncodingError):
            codec4.encode_tensor_batch([np.zeros(8)], [1.0], 7.0, out=[np.zeros(6)])
