"""Measurement-environment models for leakage assessment.

The charge models produce *ideal* energies; a real acquisition chain adds
amplifier noise, digitises with a finite-resolution ADC and jitters the
sampling point.  Each effect is a named **noise model**: a callable
applied to a chunk of energies with the campaign RNG, so the same
assessment can be run across environments of increasing realism to study
how much measurement imperfection it takes to hide (or reveal) leakage.

Models are looked up by name in a closed table of built-ins and
instantiated from JSON-friendly specs (``{"name": "gaussian", "std":
0.01}`` or the bare string ``"gaussian"``), which is how
:class:`repro.flow.config.AssessmentConfig` carries them.  Built-ins:

* ``gaussian`` -- additive amplitude noise, sigma expressed as a
  fraction of the chunk's mean energy (or absolute with
  ``relative=False``);
* ``quantization`` -- an ideal mid-rise ADC of ``bits`` resolution over
  the chunk's observed range (or a fixed ``full_scale`` range);
* ``jitter`` -- temporal misalignment: with probability ``probability``
  a cycle's sample is replaced by the neighbouring cycle's energy, the
  single-sample analogue of clock jitter smearing the sampling instant.

A spec may also be a sequence of specs, which composes the models in
order (amplify, then digitise: ``({"name": "gaussian", "std": 0.02},
{"name": "quantization", "bits": 8})``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "NoiseModel",
    "NoiseChain",
    "GaussianAmplitudeNoise",
    "AdcQuantizationNoise",
    "TemporalJitterNoise",
    "known_noise_models",
    "normalize_noise_spec",
    "make_noise_model",
]


class NoiseModel:
    """Base class: a named transformation of a chunk of energies."""

    name: str = ""

    def apply(self, energies: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return the transformed energies (must not mutate the input)."""
        raise NotImplementedError

    def __call__(self, energies: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self.apply(np.asarray(energies, dtype=float), rng)

    def to_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    def describe(self) -> str:
        params = ", ".join(
            f"{key}={value}" for key, value in self.to_dict().items() if key != "name"
        )
        return f"{self.name}({params})"


@dataclass(frozen=True)
class GaussianAmplitudeNoise(NoiseModel):
    """Additive Gaussian amplitude noise.

    ``std`` is a fraction of the chunk's mean absolute energy when
    ``relative`` (the default, matching the ``noise_std`` convention of
    the acquisition functions), an absolute sigma otherwise.
    """

    std: float
    relative: bool = True
    name: str = "gaussian"

    def __post_init__(self) -> None:
        if self.std < 0.0:
            raise ValueError(f"std must be non-negative, got {self.std}")

    def apply(self, energies: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.std == 0.0 or energies.size == 0:
            return energies
        sigma = self.std * float(np.mean(np.abs(energies))) if self.relative else self.std
        return energies + rng.normal(0.0, sigma, size=energies.shape)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "std": self.std, "relative": self.relative}


@dataclass(frozen=True)
class AdcQuantizationNoise(NoiseModel):
    """Ideal mid-rise ADC quantization.

    The energies are digitised to ``bits`` resolution over
    ``full_scale = (low, high)``; when ``full_scale`` is omitted the
    chunk's observed range is used (an auto-ranging digitiser).  Values
    outside the range clip, as they would at a real front-end.
    """

    bits: int
    full_scale: Union[Tuple[float, float], None] = None
    name: str = "quantization"

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 32:
            raise ValueError(f"bits must be in 1..32, got {self.bits}")
        if self.full_scale is not None:
            low, high = self.full_scale
            if not high > low:
                raise ValueError(
                    f"full_scale must be an increasing (low, high) pair, "
                    f"got {self.full_scale}"
                )
            object.__setattr__(self, "full_scale", (float(low), float(high)))

    def apply(self, energies: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if energies.size == 0:
            return energies
        if self.full_scale is not None:
            low, high = self.full_scale
        else:
            low, high = float(energies.min()), float(energies.max())
            if high == low:
                return energies
        levels = (1 << self.bits) - 1
        step = (high - low) / levels
        codes = np.clip(np.round((energies - low) / step), 0, levels)
        return low + codes * step

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "bits": self.bits,
            "full_scale": list(self.full_scale) if self.full_scale else None,
        }


@dataclass(frozen=True)
class TemporalJitterNoise(NoiseModel):
    """Clock jitter / misalignment on single-sample traces.

    With probability ``probability`` a trace's sample is replaced by the
    energy of the preceding cycle -- the sampling instant slipped into
    the neighbouring clock period, so the recorded value belongs to the
    wrong stimulus.  This decorrelates the affected traces from their
    labels, the dominant effect misalignment has on an assessment.
    """

    probability: float
    name: str = "jitter"

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )

    def apply(self, energies: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.probability == 0.0 or energies.size < 2:
            return energies
        slipped = rng.random(energies.shape) < self.probability
        slipped[0] = False  # the first cycle has no predecessor to slip to
        result = energies.copy()
        indices = np.nonzero(slipped)[0]
        result[indices] = energies[indices - 1]
        return result

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "probability": self.probability}


class NoiseChain(NoiseModel):
    """Sequential composition of noise models."""

    name = "chain"

    def __init__(self, models: Sequence[NoiseModel]) -> None:
        self.models: Tuple[NoiseModel, ...] = tuple(models)

    def apply(self, energies: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        for model in self.models:
            energies = model(energies, rng)
        return energies

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "models": [model.to_dict() for model in self.models]}

    def describe(self) -> str:
        return " -> ".join(model.describe() for model in self.models) or "none"

    def __len__(self) -> int:
        return len(self.models)


def known_noise_models() -> Tuple[str, ...]:
    """Sorted names of every noise model."""
    return tuple(sorted(_NOISE_MODELS))


NoiseSpec = Union[str, Mapping[str, Any], NoiseModel, Sequence]


def normalize_noise_spec(spec: Union[str, Mapping[str, Any]]) -> Dict[str, Any]:
    """Plain-dict form of one JSON-friendly noise spec.

    A bare name becomes ``{"name": name}``; a mapping is copied and must
    carry a non-empty ``"name"``.  This is the single parsing rule shared
    by :func:`make_noise_model` and the flow's
    :class:`~repro.flow.config.AssessmentConfig`.
    """
    if isinstance(spec, str):
        spec = {"name": spec}
    if not isinstance(spec, Mapping):
        raise ValueError(f"noise specs must be names or mappings, got {spec!r}")
    spec = dict(spec)
    if not spec.get("name"):
        raise ValueError(f"noise spec {spec!r} is missing its 'name'")
    return spec


def make_noise_model(spec: NoiseSpec) -> NoiseModel:
    """Instantiate a noise model from a JSON-friendly spec.

    Accepts a bare name (``"gaussian"``), a parameterised mapping
    (``{"name": "quantization", "bits": 8}``), an already-built
    :class:`NoiseModel` (returned as-is) or a sequence of any of these
    (composed into a :class:`NoiseChain`).
    """
    if isinstance(spec, NoiseModel):
        return spec
    if isinstance(spec, (str, Mapping)):
        params = normalize_noise_spec(spec)
        name = params.pop("name")
        try:
            factory = _NOISE_MODELS[name]
        except KeyError:
            raise ValueError(
                f"unknown noise model {name!r}; available: "
                f"{', '.join(known_noise_models())}"
            ) from None
        return factory(**params)
    return NoiseChain([make_noise_model(part) for part in spec])


def _quantization_factory(
    bits: int = 8, full_scale: Union[Sequence[float], None] = None
) -> AdcQuantizationNoise:
    if full_scale is not None:
        low, high = full_scale
        full_scale = (float(low), float(high))
    return AdcQuantizationNoise(bits=int(bits), full_scale=full_scale)


# The bare-name defaults describe a plausible bench: 5 % amplifier
# noise, an 8-bit scope ADC, 1 % sample slippage.  Each factory is called
# with the spec's keyword parameters.
_NOISE_MODELS: Dict[str, Callable[..., NoiseModel]] = {
    "gaussian": lambda std=0.05, relative=True: GaussianAmplitudeNoise(
        std=float(std), relative=bool(relative)),
    "quantization": _quantization_factory,
    "jitter": lambda probability=0.01: TemporalJitterNoise(
        probability=float(probability)),
}
