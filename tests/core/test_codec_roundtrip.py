"""Property-style round-trip tests pinning the vectorized codec.

Two invariants are enforced for random tensors across all normal data types,
odd and even lengths, and per-channel configurations:

* ``decode(encode(x)) == fake_quantize(x) * scale`` — the bit-packed path and
  the vectorized fake-quantization path agree exactly;
* the vectorized ``encode_tensor``/``decode_tensor`` are bit-identical to the
  scalar per-pair Algorithm 1 loops (``encode_tensor_scalar`` /
  ``decode_tensor_scalar``), which remain the bit-accuracy oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.abfloat import ABFLOAT_E2M1, ABFLOAT_E4M3
from repro.core.dtypes import FLINT4, INT4, INT8
from repro.core.errors import EncodingError
from repro.core.ovp import OVPairCodec
from repro.core.quantizer import OVPQuantizerConfig, OVPTensorQuantizer

CODEC_CONFIGS = {
    "int4": (INT4, ABFLOAT_E2M1, 2, 7.0),
    "flint4": (FLINT4, ABFLOAT_E2M1, 3, 16.0),
    "int8": (INT8, ABFLOAT_E4M3, 4, 127.0),
}


def make_codec(name):
    dtype, abf, bias, threshold = CODEC_CONFIGS[name]
    return OVPairCodec(dtype, abf, bias), threshold


def edge_values(name):
    """Grid values where the encoder's branches meet: exact ``k + 0.5``
    rounding ties, ±0.0, ±max, ``|x|`` at every tested threshold, values past
    the accumulator clip (saturation) and arbitrary finite values."""
    dtype, _, _, max_value = CODEC_CONFIGS[name]
    m = int(max_value)
    special = [0.0, -0.0]
    for value in (max_value, max_value - 0.5, max_value + 0.5, 2.0 ** 15, 1e6):
        special += [value, -value]
    return st.one_of(
        st.integers(-m - 2, m + 1).map(lambda k: k + 0.5),
        st.sampled_from(special),
        st.sampled_from([float(v) for v in dtype.values]),
        st.floats(min_value=-40.0 * max_value, max_value=40.0 * max_value),
    )


def edge_pairs(name):
    """Pairs of edge values; the partner often repeats ``±x`` so equal
    magnitudes (the outlier-outlier tie-break) come up as often as not."""
    values = edge_values(name)
    return values.flatmap(
        lambda x: st.tuples(st.just(x), st.one_of(values, st.sampled_from([x, -x])))
    )


def outlier_tensor(rng, size, spread):
    """Gaussian tensor with injected transformer-style outliers."""
    tensor = rng.normal(0.0, spread, size=size)
    heavy = rng.random(size) < 0.05
    tensor[heavy] *= 30.0
    extreme = rng.random(size) < 0.01
    tensor[extreme] *= 4000.0  # beyond the accumulator clip
    return tensor


class TestRoundTripEqualsFakeQuantize:
    @pytest.mark.parametrize("name", sorted(CODEC_CONFIGS))
    @pytest.mark.parametrize("size", [1, 2, 3, 17, 256, 1001])
    def test_decode_encode_matches_fake_quantize(self, name, size):
        codec, threshold = make_codec(name)
        rng = np.random.default_rng(size * 13 + len(name))
        tensor = outlier_tensor(rng, size, threshold / 3.0)
        scale = 0.37
        decoded = codec.decode_tensor(codec.encode_tensor(tensor, scale, threshold))
        expected = codec.fake_quantize_grid(tensor / scale, threshold) * scale
        np.testing.assert_allclose(decoded, expected, atol=1e-9)

    @pytest.mark.parametrize("name", sorted(CODEC_CONFIGS))
    def test_round_trip_preserves_shape(self, name):
        codec, threshold = make_codec(name)
        tensor = np.random.default_rng(0).normal(0, 1, size=(5, 7))  # odd row count
        decoded = codec.decode_tensor(codec.encode_tensor(tensor, 1.0, threshold))
        assert decoded.shape == (5, 7)

    @pytest.mark.parametrize("name", sorted(CODEC_CONFIGS))
    def test_invariant_holds_at_exact_abfloat_midpoints(self, name):
        """Midpoints between representable outliers (e.g. 14 on the int4/E2M1
        grid {12, 16, 24, ...}) must round the same way in both paths —
        Algorithm 2's mantissa rounding, not an independent nearest search."""
        codec, threshold = make_codec(name)
        mags = codec._outlier_grid
        midpoints = (mags[:-1] + mags[1:]) / 2.0
        tensor = np.concatenate([midpoints, -midpoints, np.zeros(1)])
        decoded = codec.decode_tensor(codec.encode_tensor(tensor, 1.0, threshold))
        expected = codec.fake_quantize_grid(tensor, threshold)
        np.testing.assert_allclose(decoded, expected, atol=1e-9)

    @given(
        values=st.lists(
            st.floats(min_value=-500.0, max_value=500.0), min_size=1, max_size=65
        ),
        scale=st.floats(min_value=0.05, max_value=5.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_round_trip_int4(self, values, scale):
        codec, threshold = make_codec("int4")
        tensor = np.asarray(values, dtype=np.float64)
        decoded = codec.decode_tensor(codec.encode_tensor(tensor, scale, threshold))
        expected = codec.fake_quantize_grid(tensor / scale, threshold) * scale
        np.testing.assert_allclose(decoded, expected, atol=1e-9)


class TestVectorizedMatchesScalarOracle:
    @pytest.mark.parametrize("name", sorted(CODEC_CONFIGS))
    @pytest.mark.parametrize("size", [1, 2, 3, 64, 255, 1024])
    def test_encode_bits_identical(self, name, size):
        codec, threshold = make_codec(name)
        rng = np.random.default_rng(size * 7 + len(name))
        tensor = outlier_tensor(rng, size, threshold / 3.0)
        fast = codec.encode_tensor(tensor, 0.61, threshold)
        oracle = codec.encode_tensor_scalar(tensor, 0.61, threshold)
        np.testing.assert_array_equal(fast.data, oracle.data)
        assert fast.padded == oracle.padded
        assert fast.shape == oracle.shape

    @pytest.mark.parametrize("name", sorted(CODEC_CONFIGS))
    @pytest.mark.parametrize("size", [2, 3, 64, 255])
    def test_decode_values_identical(self, name, size):
        codec, threshold = make_codec(name)
        rng = np.random.default_rng(size * 11 + len(name))
        tensor = outlier_tensor(rng, size, threshold / 3.0)
        packed = codec.encode_tensor(tensor, 1.0, threshold)
        np.testing.assert_array_equal(
            codec.decode_tensor(packed), codec.decode_tensor_scalar(packed)
        )

    @given(st.lists(st.floats(min_value=-300, max_value=300), min_size=1, max_size=33))
    @settings(max_examples=80, deadline=None)
    def test_property_bits_identical_int4(self, values):
        codec, threshold = make_codec("int4")
        tensor = np.asarray(values, dtype=np.float64)
        fast = codec.encode_tensor(tensor, 1.0, threshold)
        oracle = codec.encode_tensor_scalar(tensor, 1.0, threshold)
        np.testing.assert_array_equal(fast.data, oracle.data)
        np.testing.assert_array_equal(
            codec.decode_tensor(fast), codec.decode_tensor_scalar(oracle)
        )


    @pytest.mark.parametrize("name", sorted(CODEC_CONFIGS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_property_bits_identical_at_edge_values(self, name, data):
        codec, max_value = make_codec(name)
        pairs = data.draw(st.lists(edge_pairs(name), min_size=1, max_size=16))
        tail = data.draw(st.lists(edge_values(name), max_size=1))  # odd lengths
        values = [value for pair in pairs for value in pair] + tail
        threshold = data.draw(
            st.sampled_from([max_value, max_value - 0.5, max_value + 0.5])
        )
        tensor = np.asarray(values, dtype=np.float64)
        fast = codec.encode_tensor(tensor, 1.0, threshold)
        oracle = codec.encode_tensor_scalar(tensor, 1.0, threshold)
        np.testing.assert_array_equal(fast.data, oracle.data)
        written = np.empty_like(tensor)
        (batched,) = codec.encode_tensor_batch([tensor], [1.0], threshold, out=[written])
        np.testing.assert_array_equal(batched.data, oracle.data)
        np.testing.assert_array_equal(written, codec.decode_tensor(fast))
        np.testing.assert_array_equal(
            codec.decode_tensor(fast),
            codec.fake_quantize_grid(tensor, threshold),
        )


class TestEncodeTensorBatch:
    """``encode_tensor_batch`` as the KV cache calls it when sealing pages."""

    # (heads, page rows, head_dim): even pages, and odd ones that pad.
    GEOMETRIES = {"even": (4, 32, 8), "odd": (3, 5, 3)}

    @classmethod
    def seal_pages(cls, name, seed, geometry="even"):
        """Non-contiguous ``(heads, page, head_dim)`` pages of a larger buffer."""
        _, max_value = make_codec(name)
        heads, page, dim = cls.GEOMETRIES[geometry]
        rng = np.random.default_rng(seed)
        rows = outlier_tensor(rng, heads * 3 * page * dim, max_value / 3.0)
        rows = rows.reshape(heads, 3 * page, dim)
        pages = [rows[:, i * page : (i + 1) * page] for i in range(3)]
        scales = [0.4, 1.3, 2.9]
        return pages, scales

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @pytest.mark.parametrize("name", sorted(CODEC_CONFIGS))
    def test_strided_pages_equal_per_page_encode(self, name, geometry):
        codec, max_value = make_codec(name)
        pages, scales = self.seal_pages(name, seed=len(name), geometry=geometry)
        assert not pages[1].flags.c_contiguous
        # The seal's own call: each page's rows receive their dequantized
        # values, in the rows' dtype.
        rows = [page.astype(np.float32) for page in pages]
        batched = codec.encode_tensor_batch(pages, scales, max_value, out=rows)
        for page, scale, packed, written in zip(pages, scales, batched, rows):
            single = codec.encode_tensor(page, scale, max_value)
            np.testing.assert_array_equal(packed.data, single.data)
            assert packed.data.dtype == single.data.dtype == np.uint8
            assert packed.shape == page.shape and packed.scale == scale
            assert packed.padded == (geometry == "odd")
            np.testing.assert_array_equal(
                written, codec.decode_tensor(single).astype(np.float32)
            )

    @pytest.mark.parametrize("name", sorted(CODEC_CONFIGS))
    def test_each_page_owns_its_bytes(self, name):
        codec, max_value = make_codec(name)
        pages, scales = self.seal_pages(name, seed=3)
        batched = codec.encode_tensor_batch(pages, scales, max_value)
        for packed in batched:
            assert packed.data.flags.owndata
            assert packed.data.nbytes == packed.nbytes
        for first, second in zip(batched, batched[1:]):
            assert not np.shares_memory(first.data, second.data)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("name", sorted(CODEC_CONFIGS))
    @pytest.mark.parametrize("partner", [1.0, 1e4])  # normal or outlier partner
    def test_nan_raises_encoding_error(self, name, partner):
        codec, max_value = make_codec(name)
        tensor = np.array([0.5, -2.0, np.nan, partner])
        with pytest.raises(EncodingError, match="NaN"):
            codec.encode_tensor(tensor, 1.0, max_value)
        with pytest.raises(EncodingError, match="NaN"):
            codec.encode_tensor_batch([np.ones(4), tensor], [1.0, 1.0], max_value)

    @pytest.mark.parametrize("name", sorted(CODEC_CONFIGS))
    def test_infinity_saturates_to_the_largest_outlier_code(self, name):
        codec, max_value = make_codec(name)
        tensor = np.array([np.inf, 1.0, -2.0, -np.inf, np.inf, -np.inf])
        huge = np.where(np.isinf(tensor), np.sign(tensor) * 1e300, tensor)
        packed = codec.encode_tensor(tensor, 1.0, max_value)
        np.testing.assert_array_equal(
            packed.data, codec.encode_tensor(huge, 1.0, max_value).data
        )
        np.testing.assert_array_equal(
            packed.data, codec.encode_tensor_scalar(tensor, 1.0, max_value).data
        )
        (batched,) = codec.encode_tensor_batch([tensor], [1.0], max_value)
        np.testing.assert_array_equal(batched.data, packed.data)
        decoded = codec.decode_tensor(packed)
        assert decoded[0] == codec._outlier_grid[-1] == -decoded[3]


class TestQuantizerRoundTrip:
    @pytest.mark.parametrize("dtype_name", ["int4", "flint4", "int8"])
    @pytest.mark.parametrize("size", [63, 4096])
    def test_quantizer_encode_decode_equals_quantize(self, dtype_name, size):
        quantizer = OVPTensorQuantizer(OVPQuantizerConfig(normal_dtype=dtype_name))
        rng = np.random.default_rng(size)
        tensor = outlier_tensor(rng, size, 1.0)
        quantizer.fit(tensor)
        decoded = quantizer.decode(quantizer.encode(tensor))
        np.testing.assert_allclose(decoded, quantizer.quantize(tensor), atol=1e-9)

    def test_per_channel_quantize_matches_per_slice_codec(self):
        config = OVPQuantizerConfig(normal_dtype="int4", per_channel_axis=0)
        quantizer = OVPTensorQuantizer(config)
        rng = np.random.default_rng(5)
        tensor = outlier_tensor(rng, 6 * 33, 1.0).reshape(6, 33)  # odd channel length
        quantizer.fit(tensor)
        quantized = quantizer.quantize(tensor)
        scales = np.asarray(quantizer.scale).ravel()
        threshold = quantizer.normal_dtype.max_value
        for c in range(tensor.shape[0]):
            codec = quantizer.codec
            packed = codec.encode_tensor(tensor[c], scales[c], threshold)
            decoded = codec.decode_tensor(packed)
            np.testing.assert_allclose(decoded, quantized[c], atol=1e-9)
