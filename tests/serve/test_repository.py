"""Model-repository tests: quantize-once caching and packed-weight integrity."""

import numpy as np
import pytest

from repro.core.quantizer import OVPQuantizerConfig, OVPTensorQuantizer
from repro.nn.layers import Linear
from repro.serve.repository import ModelRepository
from repro.serve.requests import ServingError, WorkloadFamily


@pytest.fixture(scope="module")
def repo():
    return ModelRepository(bits=4, seed=0)


class TestCaching:
    def test_second_get_is_a_cache_hit(self, repo):
        repo.clear()
        first = repo.get("bert-base", WorkloadFamily.CLASSIFY)
        second = repo.get("bert-base", WorkloadFamily.CLASSIFY)
        assert first is second
        assert repo.stats.hits >= 1

    def test_families_cached_independently(self, repo):
        classify = repo.get("bert-base", WorkloadFamily.CLASSIFY)
        span = repo.get("bert-base", WorkloadFamily.SPAN)
        assert classify is not span
        assert classify.family == WorkloadFamily.CLASSIFY
        assert span.family == WorkloadFamily.SPAN

    def test_num_classes_distinguishes_classifiers(self, repo):
        two = repo.get("bert-base", WorkloadFamily.CLASSIFY, num_classes=2)
        three = repo.get("bert-base", WorkloadFamily.CLASSIFY, num_classes=3)
        assert two is not three

    def test_evict_and_clear(self):
        repo = ModelRepository(bits=4)
        repo.get("bert-base", WorkloadFamily.CLASSIFY)
        assert repo.evict("bert-base", WorkloadFamily.CLASSIFY)
        assert not repo.evict("bert-base", WorkloadFamily.CLASSIFY)
        repo.get("bert-base", WorkloadFamily.CLASSIFY)
        repo.clear()
        assert repo.cached_entries() == []

    def test_lru_eviction_bound(self):
        repo = ModelRepository(bits=4, max_entries=2)
        repo.get("bert-base", WorkloadFamily.CLASSIFY)
        repo.get("bert-base", WorkloadFamily.SPAN)
        repo.get("gpt2-xl", WorkloadFamily.LM)
        entries = repo.cached_entries()
        assert len(entries) == 2
        # The classify entry was least recently used and must be gone.
        assert {(e.name, e.family) for e in entries} == {
            ("bert-base", WorkloadFamily.SPAN),
            ("gpt2-xl", WorkloadFamily.LM),
        }

    def test_unknown_family_rejected(self, repo):
        with pytest.raises(ServingError):
            repo.get("bert-base", "poetry")

    def test_bad_bits_rejected(self):
        with pytest.raises(ServingError):
            ModelRepository(bits=6)


class TestPackedWeights:
    def test_every_linear_weight_is_packed(self, repo):
        entry = repo.get("bert-base", WorkloadFamily.CLASSIFY)
        linears = [
            name for name, m in entry.model.named_modules() if isinstance(m, Linear)
        ]
        assert len(entry.packed_weights) == len(linears)
        assert entry.num_weight_tensors == len(linears)

    def test_packed_footprint_is_one_nibble_per_element(self, repo):
        entry = repo.get("bert-base", WorkloadFamily.CLASSIFY)
        for name, packed in entry.packed_weights.items():
            # Memory-aligned 4-bit OVP: half a byte per element (odd lengths
            # round up by one pair).
            assert packed.nbytes == (packed.num_elements + 1) // 2

    def test_compression_ratio_near_8x(self, repo):
        entry = repo.get("bert-base", WorkloadFamily.CLASSIFY)
        assert 7.5 <= entry.compression_ratio <= 8.5

    def test_served_weights_equal_decoded_streams(self, repo):
        """The model serves exactly what the packed bytes decode to."""
        entry = repo.get("bert-base", WorkloadFamily.CLASSIFY)
        quantizer = OVPTensorQuantizer(
            OVPQuantizerConfig(normal_dtype="int4", search_points=repo.search_points)
        )
        for module_name, module in entry.model.named_modules():
            if not isinstance(module, Linear):
                continue
            weight_name = f"{module_name}.weight" if module_name else "weight"
            packed = entry.packed_weights[weight_name]
            decoded = quantizer.codec.decode_tensor(packed)
            np.testing.assert_allclose(module.weight.data, decoded, atol=1e-12)
            break  # one deep layer is enough; the loop is O(model)

    def test_deterministic_rebuild(self):
        a = ModelRepository(bits=4, seed=0).get("bert-base", WorkloadFamily.CLASSIFY)
        b = ModelRepository(bits=4, seed=0).get("bert-base", WorkloadFamily.CLASSIFY)
        key = next(iter(a.packed_weights))
        np.testing.assert_array_equal(a.packed_weights[key].data, b.packed_weights[key].data)

    def test_8bit_repository(self):
        repo = ModelRepository(bits=8)
        entry = repo.get("bert-base", WorkloadFamily.CLASSIFY)
        assert entry.scheme == "olive-8bit"
        packed = next(iter(entry.packed_weights.values()))
        assert packed.nbytes == packed.num_elements  # one byte per element


def _build_recording_fits(model, bits, fit):
    """Build ``model`` with ``fit`` as the flat threshold sweep; return the
    entry and the ``(scale, threshold_sigma, mse)`` of every fit it made."""
    fits = []

    def recording(quantizer, flat):
        fits.append(fit(quantizer, flat))
        return fits[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(OVPTensorQuantizer, "_fit_flat", recording)
        entry = ModelRepository(bits=bits, seed=0).get(model, WorkloadFamily.LM)
    return entry, fits


@pytest.fixture(
    scope="module",
    params=[(model, bits) for model in ("gpt2-xl", "gpt2-xl-scaled") for bits in (4, 8)],
    ids=lambda param: f"{param[0]}-{param[1]}bit",
)
def in_place_and_reference_builds(request):
    """One LM built with the in-place sweep and one with the reference loop."""
    model, bits = request.param
    in_place = _build_recording_fits(model, bits, OVPTensorQuantizer._fit_flat)
    reference = _build_recording_fits(model, bits, OVPTensorQuantizer._fit_flat_reference)
    return in_place, reference


class TestInPlaceFitBitwise:
    """The in-place threshold sweep packs what the reference loop packs."""

    def test_every_packed_weight_fits_like_the_reference(self, in_place_and_reference_builds):
        (entry, fits), (_, reference_fits) = in_place_and_reference_builds
        assert len(fits) == len(entry.packed_weights)
        assert fits == reference_fits
        scales = [packed.scale for packed in entry.packed_weights.values()]
        assert scales == [fit[0] for fit in fits]

    def test_reference_build_packs_identical_streams(self, in_place_and_reference_builds):
        (entry, _), (reference, _) = in_place_and_reference_builds
        assert entry.packed_weights.keys() == reference.packed_weights.keys()
        for name, packed in entry.packed_weights.items():
            other = reference.packed_weights[name]
            assert packed.data.tobytes() == other.data.tobytes(), name
            assert (packed.scale, packed.shape, packed.padded) == (
                other.scale, other.shape, other.padded
            )
        served = dict(entry.model.named_parameters())
        for name, parameter in reference.model.named_parameters():
            np.testing.assert_array_equal(served[name].data, parameter.data)
