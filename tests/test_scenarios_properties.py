"""Property tests of the scenario algebra, plus engine equivalence.

Hypothesis pins the structural invariants -- the sliced pLayer is a
bijection equal to its tabulated inverse, keyed single-round scenarios
commute with a plaintext key XOR, encryption round trips through the
state tables -- and the engine tests extend PR 3's serial-vs-parallel
equality to a ``present_round`` slice: traces, DPA scores and TVLA
statistics must be bit-identical between the serial executor and a
4-worker process pool.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.flow import (
    AnalysisConfig,
    AssessmentConfig,
    CampaignConfig,
    DesignFlow,
    ExecutionConfig,
    FlowConfig,
    ScenarioConfig,
)
from repro.power.crypto import PRESENT_SBOX, hamming_weight
from repro.scenarios import (
    SUPPORTED_SBOX_COUNTS,
    PresentRoundScenario,
    PresentRoundsScenario,
    apply_bit_permutation,
    make_scenario,
    player_inverse,
    player_permutation,
    popcount,
    present_round_keys,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

sbox_counts = st.sampled_from(SUPPORTED_SBOX_COUNTS)


# ------------------------------------------------------------------- pLayer


class TestPlayer:
    @given(sbox_counts)
    def test_permutation_is_a_bijection(self, sboxes):
        permutation = player_permutation(sboxes)
        assert sorted(permutation) == list(range(4 * sboxes))

    @given(sbox_counts, st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_inverse_undoes_the_permutation(self, sboxes, value):
        value &= (1 << (4 * sboxes)) - 1
        forward = apply_bit_permutation(value, player_permutation(sboxes))
        assert apply_bit_permutation(forward, player_inverse(sboxes)) == value

    @given(sbox_counts, st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_permutation_preserves_hamming_weight(self, sboxes, value):
        value &= (1 << (4 * sboxes)) - 1
        permuted = apply_bit_permutation(value, player_permutation(sboxes))
        assert hamming_weight(permuted) == hamming_weight(value)

    def test_full_width_matches_published_p_table(self):
        permutation = player_permutation(16)
        assert all(
            permutation[i] == (63 if i == 63 else (16 * i) % 63) for i in range(64)
        )


# ------------------------------------------------------- keyed commutation


@lru_cache(maxsize=None)
def _round_expressions(key, sboxes):
    return PresentRoundScenario(key, PRESENT_SBOX, sboxes=sboxes).expressions()


class TestKeyCommutation:
    """Single-round keying is a plaintext XOR: ``E_k(p) == E_0(p ^ k)``."""

    @given(
        st.sampled_from((1, 2)),
        st.integers(min_value=0, max_value=(1 << 8) - 1),
        st.integers(min_value=0, max_value=(1 << 8) - 1),
    )
    def test_encrypt_commutes_with_key_xor(self, sboxes, key, plaintext):
        mask = (1 << (4 * sboxes)) - 1
        key &= mask
        plaintext &= mask
        keyed = PresentRoundScenario(key, PRESENT_SBOX, sboxes=sboxes)
        zero = PresentRoundScenario(0, PRESENT_SBOX, sboxes=sboxes)
        assert keyed.encrypt(plaintext) == zero.encrypt(plaintext ^ key)

    @given(
        st.sampled_from((1, 2)),
        st.integers(min_value=0, max_value=(1 << 8) - 1),
        st.integers(min_value=0, max_value=(1 << 8) - 1),
    )
    @settings(deadline=None)
    def test_expressions_commute_with_key_xor(self, sboxes, key, plaintext):
        width = 4 * sboxes
        mask = (1 << width) - 1
        key &= mask
        plaintext &= mask
        keyed = _round_expressions(key, sboxes)
        zero = _round_expressions(0, sboxes)

        def evaluate(expressions, value):
            assignment = {f"p{i}": bool((value >> i) & 1) for i in range(width)}
            return sum(
                int(expressions[f"y{bit}"].evaluate(assignment)) << bit
                for bit in range(width)
            )

        assert evaluate(keyed, plaintext) == evaluate(zero, plaintext ^ key)


# --------------------------------------------------------- state machinery


class TestStateTables:
    @given(
        st.integers(min_value=0, max_value=(1 << 8) - 1),
        st.integers(min_value=1, max_value=4),
    )
    @settings(deadline=None)
    def test_state_tables_match_round_states(self, key, rounds):
        scenario = PresentRoundsScenario(key & 0xFF, PRESENT_SBOX, sboxes=2, rounds=rounds)
        tables = [scenario.state_table(r) for r in range(rounds + 1)]
        for plaintext in (0, 1, 0x5A, 0xFF):
            states = scenario.round_states(plaintext)
            assert [int(table[plaintext]) for table in tables] == list(states)

    @given(st.integers(min_value=0, max_value=(1 << 16) - 1))
    def test_popcount_matches_scalar_hamming_weight(self, value):
        assert int(popcount(np.array([value]))[0]) == hamming_weight(value)

    def test_round_keys_fold_the_round_counter(self):
        keys = present_round_keys(0x0, rounds=4, width=8)
        assert keys[0] == 0x0
        # A zero master key still produces distinct round keys, because
        # the counter lands in the schedule.
        assert len(set(keys)) == len(keys)

    def test_distance_leakage_is_popcount_of_register_update(self):
        scenario = make_scenario(
            "present_rounds", key=0x3, params={"sboxes": 1, "rounds": 2}
        )
        table = scenario.leakage_table("distance", target_round=2)
        for plaintext in range(16):
            states = scenario.round_states(plaintext)
            assert table[plaintext] == hamming_weight(states[1] ^ states[2])


# --------------------------------------------------- engine equivalence


def _round_flow(execution, **overrides):
    campaign = dict(
        key=0x6B,
        scenario="present_round",
        trace_count=96,
        noise_std=0.01,
    )
    campaign.update(overrides)
    return DesignFlow(
        None,
        FlowConfig(
            name="present_round_engine",
            campaign=CampaignConfig(**campaign),
            scenario=ScenarioConfig(params={"sboxes": 2}),
            analysis=AnalysisConfig(target_sbox=1, target_bit=2),
            assessment=AssessmentConfig(
                enabled=True, traces_per_class=48
            ),
            execution=execution,
        ),
    )


class TestScenarioEngineEquality:
    """PR 3's serial-vs-parallel contract, on a present_round slice."""

    def test_four_workers_bit_identical_to_serial(self):
        serial = _round_flow(ExecutionConfig(shard_size=32))
        parallel = _round_flow(ExecutionConfig(workers=4, shard_size=32))
        st_, pt = serial.traces(), parallel.traces()
        assert np.array_equal(st_.plaintexts, pt.plaintexts)
        assert np.array_equal(st_.traces, pt.traces)
        assert parallel.result("traces").details["executor"] == "process"
        assert parallel.result("traces").details["scenario"] == "present_round"

    def test_attacks_and_tvla_match_across_executors(self):
        serial = _round_flow(ExecutionConfig(shard_size=32))
        parallel = _round_flow(ExecutionConfig(workers=4, shard_size=32))
        serial.run()
        parallel.run()
        for attack in ("dom", "cpa"):
            assert (
                serial.analysis()[attack].scores == parallel.analysis()[attack].scores
            )
        assert (
            serial.assessment()["ttest"].to_dict()
            == parallel.assessment()["ttest"].to_dict()
        )

    def test_model_round_campaign_shards_identically(self):
        serial = _round_flow(
            ExecutionConfig(shard_size=32), source="model", model_leakage="distance"
        )
        parallel = _round_flow(
            ExecutionConfig(workers=4, shard_size=32),
            source="model",
            model_leakage="distance",
        )
        assert np.array_equal(serial.traces().traces, parallel.traces().traces)

    def test_projected_attack_recovers_subkey_from_bit_model(self):
        flow = _round_flow(
            ExecutionConfig(),
            source="model",
            model_leakage="bit",
            trace_count=2000,
            noise_std=0.2,
        )
        flow.result("analysis")
        outcome = flow.analysis()["dom"]
        # Subkey of S-box 1 under key 0x6B is the 0x6 nibble.
        assert outcome.succeeded and outcome.best_guess == 0x6
        assert flow.result("analysis").details["attack_point"] == "r1_sbox1/bit2"
