"""The class-sum attacks against their per-guess oracles, and the tie rule."""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from oracles import oracle_cpa, oracle_dom, oracle_profiled_cpa  # noqa: E402

from repro.assess import success_rate_curve  # noqa: E402
from repro.flow import AnalysisConfig, DesignFlow, FlowConfig  # noqa: E402
from repro.power import (  # noqa: E402
    AES_SBOX,
    PRESENT_SBOX,
    acquire_model_traces,
    cpa_correlation,
    dpa_difference_of_means,
    hamming_weight,
    measurements_to_disclosure,
    profiled_cpa,
)
from repro.power.dpa import AttackResult  # noqa: E402
from repro.power.trace import TraceSet  # noqa: E402

PROPERTY_SETTINGS = dict(max_examples=60, deadline=None)

#: Guesses whose target-bit-0 selection functions on PRESENT are identical
#: or complementary.
PRESENT_BIT0_GROUPS = ({0, 1, 8, 9}, {2, 3, 10, 11}, {4, 5, 12, 13}, {6, 7, 14, 15})


def _assert_same_scores(fast, slow, scale=1.0):
    np.testing.assert_allclose(fast.scores, slow.scores, rtol=1e-9, atol=1e-12 * scale)


# --------------------------------------------------------------------------- tie rule


class TestTieRule:
    def test_rank_counts_ties_against_the_attacker(self):
        result = AttackResult(scores=(1.0, 2.0, 2.0, 0.5), best_guess=1, correct_key=2)
        assert result.correct_key_rank == 1
        assert not result.succeeded
        alone = AttackResult(scores=(1.0, 2.0, 3.0, 0.5), best_guess=2, correct_key=2)
        assert alone.correct_key_rank == 0 and alone.succeeded

    def test_present_bit0_groups_score_bit_identically(self):
        # A single-bit-0 leak: the correct key's whole group tops the
        # scores, so DoM cannot tell the key from its three group mates.
        key = 0xB
        rng = np.random.default_rng(3)
        plaintexts = rng.integers(0, 16, size=4000)
        leak = np.array([PRESENT_SBOX[int(p) ^ key] & 1 for p in plaintexts], dtype=float)
        traces = TraceSet(plaintexts, leak + rng.normal(0.0, 0.5, size=leak.size), key)
        for attack in (dpa_difference_of_means, oracle_dom):
            result = attack(traces, PRESENT_SBOX, target_bit=0)
            for group in PRESENT_BIT0_GROUPS:
                assert len({result.scores[guess] for guess in group}) == 1, group
            assert result.correct_key_rank == 3
            assert not result.succeeded
            assert result.best_guess == 2  # lowest guess of the group {2, 3, 10, 11}

    def test_constant_traces_score_zero(self):
        traces = TraceSet(np.arange(64) % 16, np.full(64, 0.1), key=5)
        for result in (
            dpa_difference_of_means(traces, PRESENT_SBOX),
            cpa_correlation(traces, PRESENT_SBOX),
        ):
            assert result.scores == (0.0,) * 16
            assert result.best_guess == 0
            assert result.correct_key_rank == 15

    def test_flow_reports_the_tied_rank(self):
        flow = DesignFlow.sbox(
            key=0xB, source="model", model_leakage="bit", trace_count=2000,
            noise_std=0.25, seed=7,
            config=FlowConfig(analysis=AnalysisConfig(attacks=("dom",), target_bit=0)),
        )
        flow.run(["traces", "analysis"])
        assert flow.result("analysis").details["dom"] == "resisted (rank 3)"


# --------------------------------------------------------------------------- fast vs slow


@st.composite
def campaigns(draw):
    """``(traces, sbox, key_space, scale)`` over S-boxes of 4, 16 and 256 entries."""
    size = draw(st.sampled_from([4, 16, 256]))
    sbox = draw(st.permutations(range(size)))
    key_space = draw(st.integers(2, size))
    # A subset of the classes: the others hold no traces.
    present = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=12, unique=True))
    count = draw(st.integers(0, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plaintexts = rng.choice(np.array(present), size=count)
    key = draw(st.integers(0, key_space - 1))
    scale = draw(st.sampled_from([1e-13, 1.0, 1e3]))
    kind = draw(st.sampled_from(["noise", "leak", "constant"]))
    if kind == "constant":
        measurements = np.full(count, scale * draw(st.floats(0.1, 10.0)))
    else:
        measurements = rng.normal(0.0, 1.0, size=count)
        if kind == "leak":
            measurements += [hamming_weight(sbox[int(p) ^ key]) for p in plaintexts]
        measurements = scale * (5.0 + measurements)
    return TraceSet(plaintexts, measurements, key), sbox, key_space, scale


def _class_vectors(traces, sbox, key_space, function):
    """Each guess's hypothesis over the plaintext classes present."""
    classes = np.unique(traces.plaintexts)
    return [
        tuple(function(sbox[int(c) ^ guess]) for c in classes) for guess in range(key_space)
    ]


def _equivalent(first, second):
    first, second = np.asarray(first, dtype=float), np.asarray(second, dtype=float)
    return np.array_equal(first, second) or len(set(first + second)) <= 1


class TestFastMatchesOracle:
    @settings(**PROPERTY_SETTINGS)
    @given(campaigns(), st.integers(0, 7))
    def test_dom(self, campaign, bit):
        traces, sbox, key_space, scale = campaign
        bit = bit % (len(sbox).bit_length() - 1)
        fast = dpa_difference_of_means(traces, sbox, target_bit=bit, key_space=key_space)
        slow = oracle_dom(traces, sbox, target_bit=bit, key_space=key_space)
        _assert_same_scores(fast, slow, scale)
        assert len(fast.scores) == key_space

    @settings(**PROPERTY_SETTINGS)
    @given(campaigns())
    def test_cpa(self, campaign):
        traces, sbox, key_space, scale = campaign
        _assert_same_scores(
            cpa_correlation(traces, sbox, key_space=key_space),
            oracle_cpa(traces, sbox, key_space=key_space),
        )

    @settings(**PROPERTY_SETTINGS)
    @given(campaigns())
    def test_cpa_custom_model(self, campaign):
        traces, sbox, key_space, _ = campaign
        model = lambda value: 0.3 * (value & 3) - (value >> 2) % 5  # noqa: E731
        _assert_same_scores(
            cpa_correlation(traces, sbox, key_space=key_space, model=model),
            oracle_cpa(traces, sbox, key_space=key_space, model=model),
        )

    @settings(**PROPERTY_SETTINGS)
    @given(campaigns(), st.integers(0, 7))
    def test_equivalent_guesses_tie_exactly(self, campaign, bit):
        traces, sbox, key_space, _ = campaign
        bit = bit % (len(sbox).bit_length() - 1)
        cases = (
            (
                dpa_difference_of_means(traces, sbox, target_bit=bit, key_space=key_space),
                _class_vectors(traces, sbox, key_space, lambda out: (out >> bit) & 1),
            ),
            (
                cpa_correlation(traces, sbox, key_space=key_space),
                _class_vectors(traces, sbox, key_space, hamming_weight),
            ),
        )
        for result, vectors in cases:
            for first in range(key_space):
                for second in range(first + 1, key_space):
                    if _equivalent(vectors[first], vectors[second]):
                        assert result.scores[first] == result.scores[second]

    def test_one_sided_partitions_score_zero(self):
        # Every trace in one class: every partition leaves a side empty.
        traces = TraceSet(np.full(30, 6), np.random.default_rng(1).normal(size=30), key=2)
        assert dpa_difference_of_means(traces, PRESENT_SBOX).scores == (0.0,) * 16
        assert oracle_dom(traces, PRESENT_SBOX).scores == (0.0,) * 16
        assert cpa_correlation(traces, PRESENT_SBOX).scores == (0.0,) * 16

    def test_empty_campaign(self):
        traces = TraceSet(np.zeros(0, dtype=np.int64), np.zeros(0), key=1)
        assert dpa_difference_of_means(traces, PRESENT_SBOX).scores == (0.0,) * 16
        assert cpa_correlation(traces, PRESENT_SBOX, key_space=4).scores == (0.0,) * 4

    def test_aes_campaign(self):
        traces = acquire_model_traces(key=0x3, trace_count=500, noise_std=0.5, seed=2)
        aes = TraceSet(traces.plaintexts * 16 + 7, traces.traces, key=0x3)
        _assert_same_scores(cpa_correlation(aes, AES_SBOX), oracle_cpa(aes, AES_SBOX))
        _assert_same_scores(
            dpa_difference_of_means(aes, AES_SBOX, target_bit=5),
            oracle_dom(aes, AES_SBOX, target_bit=5),
        )

    def test_profiled_cpa(self):
        # A stateful predictor: each cycle's energy depends on the
        # previous S-box output as well.
        def predictor(plaintexts, guess):
            outputs = np.array([PRESENT_SBOX[int(p) ^ guess] for p in plaintexts])
            previous = np.concatenate([[0], outputs[:-1]])
            return np.array([hamming_weight(int(v)) for v in outputs ^ previous], dtype=float)

        traces = acquire_model_traces(key=0x9, trace_count=300, noise_std=1.0, seed=4)
        fast = profiled_cpa(traces, predictor)
        slow = oracle_profiled_cpa(traces, predictor)
        _assert_same_scores(fast, slow)
        assert (fast.best_guess, fast.correct_key_rank) == (slow.best_guess, slow.correct_key_rank)


# --------------------------------------------------------------------------- consumers


class TestConsumers:
    @pytest.mark.parametrize("seed", [11, 21])
    def test_measurements_to_disclosure(self, seed):
        traces = acquire_model_traces(key=0xD, trace_count=400, noise_std=1.0, seed=seed)
        assert measurements_to_disclosure(traces, PRESENT_SBOX) == measurements_to_disclosure(
            traces, PRESENT_SBOX, attack=oracle_cpa
        )
        dom = lambda t, s: dpa_difference_of_means(t, s, target_bit=2)  # noqa: E731
        slow_dom = lambda t, s: oracle_dom(t, s, target_bit=2)  # noqa: E731
        assert measurements_to_disclosure(
            traces, PRESENT_SBOX, attack=dom
        ) == measurements_to_disclosure(traces, PRESENT_SBOX, attack=slow_dom)

    @pytest.mark.parametrize("seed", [11, 21])
    def test_success_rate_curve(self, seed):
        traces = acquire_model_traces(key=0xB, trace_count=300, noise_std=1.0, seed=seed)
        fast = success_rate_curve(traces, PRESENT_SBOX, repetitions=6, seed=3)
        slow = success_rate_curve(
            traces, PRESENT_SBOX, attack=oracle_cpa, repetitions=6, seed=3,
            attack_name="cpa_correlation",
        )
        assert fast.to_dict() == slow.to_dict()
