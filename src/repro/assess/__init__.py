"""Leakage assessment: streaming TVLA, noise models and MTD curves.

Where :mod:`repro.power` *attacks* an implementation (DoM, CPA), this
package *assesses* it with the side-channel community's standard
instruments:

* :mod:`repro.assess.accumulators` -- constant-memory streaming moment
  accumulators (Welford/Pebay batch merging) so assessments scale to
  campaigns that never fit in memory;
* :mod:`repro.assess.ttest` -- first- and second-order fixed-vs-random
  Welch t-tests with the TVLA ``|t| > 4.5`` convention;
* :mod:`repro.assess.noise` -- a table of measurement-environment
  models (Gaussian amplitude noise, ADC quantization, clock jitter);
* :mod:`repro.assess.mtd` -- bootstrapped attack success-rate curves and
  measurements-to-disclosure estimates.

The flow pipeline exposes all of this as a first-class ``assessment``
stage (see :class:`repro.flow.config.AssessmentConfig`); the pieces are
equally usable standalone::

    from repro.assess import ttest_fixed_vs_random

    result = ttest_fixed_vs_random(energies, labels)
    assert not result.leaks
"""

from .accumulators import (
    AssessmentChunk,
    ClassEnergyStats,
    ClassStatsResult,
    FixedVsRandomAccumulator,
    SelectionBitAccumulator,
    StreamingMoments,
)
from .mtd import (
    MTDCurve,
    SuccessRatePoint,
    bootstrap_success_rate,
    success_rate_curve,
)
from .noise import (
    AdcQuantizationNoise,
    GaussianAmplitudeNoise,
    NoiseChain,
    NoiseModel,
    TemporalJitterNoise,
    known_noise_models,
    make_noise_model,
)
from .ttest import (
    TVLA_THRESHOLD,
    TVLAResult,
    TVLATTest,
    WelchTResult,
    ttest_fixed_vs_random,
    welch_t_from_moments,
    welch_t_statistic,
)

__all__ = [
    # accumulators
    "AssessmentChunk",
    "StreamingMoments",
    "FixedVsRandomAccumulator",
    "SelectionBitAccumulator",
    "ClassEnergyStats",
    "ClassStatsResult",
    # ttest
    "TVLA_THRESHOLD",
    "WelchTResult",
    "TVLAResult",
    "TVLATTest",
    "welch_t_statistic",
    "welch_t_from_moments",
    "ttest_fixed_vs_random",
    # noise
    "NoiseModel",
    "NoiseChain",
    "GaussianAmplitudeNoise",
    "AdcQuantizationNoise",
    "TemporalJitterNoise",
    "known_noise_models",
    "make_noise_model",
    # mtd
    "SuccessRatePoint",
    "MTDCurve",
    "bootstrap_success_rate",
    "success_rate_curve",
]
