"""Noise models: behaviour, name table and spec parsing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.assess import (
    AdcQuantizationNoise,
    GaussianAmplitudeNoise,
    NoiseChain,
    TemporalJitterNoise,
    known_noise_models,
    make_noise_model,
)


@pytest.fixture()
def rng():
    return np.random.default_rng(2005)


class TestGaussian:
    def test_relative_sigma_scales_with_mean(self, rng):
        energies = np.full(20_000, 4.0)
        noisy = GaussianAmplitudeNoise(std=0.05)(energies, rng)
        assert np.isclose(noisy.std(), 0.05 * 4.0, rtol=0.05)
        assert np.isclose(noisy.mean(), 4.0, rtol=0.01)

    def test_absolute_sigma(self, rng):
        energies = np.zeros(20_000)
        noisy = GaussianAmplitudeNoise(std=0.3, relative=False)(energies, rng)
        assert np.isclose(noisy.std(), 0.3, rtol=0.05)

    def test_zero_std_is_identity(self, rng):
        energies = np.arange(8.0)
        assert GaussianAmplitudeNoise(std=0.0)(energies, rng) is not None
        np.testing.assert_array_equal(
            GaussianAmplitudeNoise(std=0.0)(energies, rng), energies
        )

    def test_input_not_mutated(self, rng):
        energies = np.ones(64)
        GaussianAmplitudeNoise(std=0.5)(energies, rng)
        np.testing.assert_array_equal(energies, np.ones(64))

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianAmplitudeNoise(std=-1.0)


class TestQuantization:
    def test_snaps_to_grid(self, rng):
        energies = np.linspace(0.0, 1.0, 1000)
        quantized = AdcQuantizationNoise(bits=4)(energies, rng)
        assert len(np.unique(quantized)) <= 16
        assert np.max(np.abs(quantized - energies)) <= 1.0 / 15 / 2 + 1e-12

    def test_fixed_full_scale_clips(self, rng):
        model = AdcQuantizationNoise(bits=8, full_scale=(0.0, 1.0))
        quantized = model(np.array([-0.5, 0.5, 1.5]), rng)
        assert quantized[0] == 0.0
        assert quantized[2] == 1.0

    def test_constant_input_unchanged(self, rng):
        energies = np.full(10, 3.0)
        np.testing.assert_array_equal(
            AdcQuantizationNoise(bits=8)(energies, rng), energies
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            AdcQuantizationNoise(bits=0)
        with pytest.raises(ValueError):
            AdcQuantizationNoise(bits=8, full_scale=(1.0, 1.0))


class TestJitter:
    def test_slips_samples_to_predecessor(self, rng):
        energies = np.arange(10_000, dtype=float)
        jittered = TemporalJitterNoise(probability=0.25)(energies, rng)
        slipped = jittered != energies
        assert not slipped[0]
        assert np.isclose(slipped.mean(), 0.25, atol=0.02)
        indices = np.nonzero(slipped)[0]
        np.testing.assert_array_equal(jittered[indices], energies[indices - 1])

    def test_zero_probability_is_identity(self, rng):
        energies = np.arange(16, dtype=float)
        np.testing.assert_array_equal(
            TemporalJitterNoise(probability=0.0)(energies, rng), energies
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            TemporalJitterNoise(probability=1.5)


class TestSpecsAndRegistry:
    def test_builtins_registered(self):
        assert {"gaussian", "quantization", "jitter"} <= set(known_noise_models())

    def test_make_from_name_and_mapping(self):
        assert isinstance(make_noise_model("jitter"), TemporalJitterNoise)
        assert isinstance(make_noise_model("gaussian"), GaussianAmplitudeNoise)
        model = make_noise_model({"name": "quantization", "bits": 8})
        assert isinstance(model, AdcQuantizationNoise)
        assert model.bits == 8

    def test_make_from_sequence_composes(self, rng):
        chain = make_noise_model((
            {"name": "gaussian", "std": 0.1},
            {"name": "quantization", "bits": 6},
        ))
        assert isinstance(chain, NoiseChain)
        assert len(chain) == 2
        assert "gaussian" in chain.describe()
        energies = np.linspace(1.0, 2.0, 100)
        quantized = chain(energies, rng)
        assert len(np.unique(quantized)) <= 64

    def test_model_instances_pass_through(self):
        model = GaussianAmplitudeNoise(std=0.1)
        assert make_noise_model(model) is model

    def test_unknown_and_invalid_specs(self):
        with pytest.raises(ValueError, match="unknown noise model"):
            make_noise_model("no_such_model")
        with pytest.raises(ValueError, match="missing its 'name'"):
            make_noise_model({"std": 0.1})

    def test_serialisation_round_trip(self):
        for spec in (
            {"name": "gaussian", "std": 0.02, "relative": False},
            {"name": "quantization", "bits": 10, "full_scale": [0.0, 2.0]},
            {"name": "jitter", "probability": 0.05},
        ):
            model = make_noise_model(spec)
            rebuilt = make_noise_model(model.to_dict())
            assert rebuilt.to_dict() == model.to_dict()
