"""Unit tests for the power-analysis substrate (crypto, metrics, traces, attacks)."""

import numpy as np
import pytest

from repro.power import (
    AES_SBOX,
    PRESENT_SBOX,
    acquire_circuit_traces,
    acquire_model_traces,
    bits_of,
    build_sbox_circuit,
    cpa_correlation,
    dpa_difference_of_means,
    energy_statistics,
    from_bits,
    hamming_weight,
    keyed_sbox_expressions,
    measurements_to_disclosure,
    normalized_energy_deviation,
    normalized_std_deviation,
    present_sbox_lookup,
    profiled_cpa,
    sbox_output_expressions,
    simulated_energy_predictor,
)
from repro.power.trace import TraceSet, campaign_blocks, measure_blocks

from oracles import oracle_energy_statistics


class TestCrypto:
    def test_sboxes_are_permutations(self):
        assert sorted(PRESENT_SBOX) == list(range(16))
        assert sorted(AES_SBOX) == list(range(256))

    def test_hamming_weight(self):
        assert hamming_weight(0) == 0
        assert hamming_weight(0xF) == 4
        assert hamming_weight(0xA5) == 4

    def test_bit_conversions_round_trip(self):
        for value in range(16):
            assert from_bits(bits_of(value, 4)) == value

    @pytest.mark.parametrize("width", [9, 16, 24, 63, 64, 80])
    def test_bit_conversions_round_trip_wide(self, width):
        # Regression: widths beyond 8 (scenario round registers, the
        # PRESENT-80 key schedule) must round-trip exactly.
        for value in (0, 1, (1 << width) - 1, (1 << width) // 3, 1 << (width - 1)):
            bits = bits_of(value, width)
            assert len(bits) == width
            assert from_bits(bits) == value

    def test_bits_of_validates_width(self):
        # Regression: values wider than ``width`` used to truncate
        # silently; now they are rejected.
        with pytest.raises(ValueError, match="does not fit"):
            bits_of(16, 4)
        with pytest.raises(ValueError, match="does not fit"):
            bits_of(1 << 12, 12)
        with pytest.raises(ValueError, match="does not fit"):
            bits_of(-1, 4)
        with pytest.raises(ValueError, match="width"):
            bits_of(0, -1)
        assert bits_of(0, 0) == []

    def test_present_lookup_bounds(self):
        assert present_sbox_lookup(0) == 0xC
        with pytest.raises(ValueError):
            present_sbox_lookup(16)

    def test_sbox_expressions_match_table(self):
        expressions = sbox_output_expressions(PRESENT_SBOX, 4, 4)
        for value in range(16):
            assignment = {f"p{i}": bit for i, bit in enumerate(bits_of(value, 4))}
            reconstructed = sum(
                int(expressions[f"y{bit}"].evaluate(assignment)) << bit for bit in range(4)
            )
            assert reconstructed == PRESENT_SBOX[value]

    def test_keyed_expressions_fold_the_key(self):
        key = 0x9
        expressions = keyed_sbox_expressions(key)
        for value in range(16):
            assignment = {f"p{i}": bit for i, bit in enumerate(bits_of(value, 4))}
            reconstructed = sum(
                int(expressions[f"y{bit}"].evaluate(assignment)) << bit for bit in range(4)
            )
            assert reconstructed == PRESENT_SBOX[value ^ key]

    def test_keyed_expressions_reject_out_of_range_key(self):
        with pytest.raises(ValueError):
            keyed_sbox_expressions(16)

    def test_sbox_expression_size_validation(self):
        with pytest.raises(ValueError):
            sbox_output_expressions(PRESENT_SBOX, 3, 4)


class TestMetrics:
    def test_constant_series_has_zero_deviation(self):
        stats = energy_statistics([5.0, 5.0, 5.0])
        assert stats.ned == 0.0 and stats.nsd == 0.0

    def test_known_values(self):
        stats = energy_statistics([1.0, 2.0])
        assert stats.ned == pytest.approx(0.5)
        assert stats.mean == pytest.approx(1.5)
        assert normalized_energy_deviation([1.0, 2.0]) == pytest.approx(0.5)
        assert normalized_std_deviation([1.0, 1.0]) == 0.0

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            energy_statistics([])

    def test_describe_contains_percentages(self):
        assert "%" in energy_statistics([1e-15, 2e-15]).describe()

    def test_matches_the_left_fold_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            count = int(rng.integers(1, 3000))
            values = rng.normal(1e-13, 1e-15 * rng.random(), size=count)
            stats = energy_statistics(values)
            assert (stats.mean, stats.std) == oracle_energy_statistics(values)
            assert (stats.minimum, stats.maximum) == (values.min(), values.max())
            assert stats.count == count

    def test_sums_are_uncompensated_left_folds(self):
        # 1 + 1e16 rounds back to 1e16, so the left fold loses the 1; a
        # compensated or pairwise sum would keep it.
        values = [1.0, 1e16, -1e16]
        assert energy_statistics(values).mean == 0.0
        assert energy_statistics(np.array(values)).mean == 0.0
        assert oracle_energy_statistics(values)[0] == 0.0

    def test_accepts_arrays_lists_and_iterables(self):
        values = np.array([1e-15, 3e-15, 2e-15, 2e-15])
        expected = energy_statistics(values)
        assert energy_statistics(values.tolist()) == expected
        assert energy_statistics(iter(values.tolist())) == expected
        with pytest.raises(ValueError):
            energy_statistics(values.reshape(2, 2))


class TestTraceAcquisition:
    def test_model_traces_shape_and_determinism(self):
        first = acquire_model_traces(key=0x3, trace_count=50, seed=1)
        second = acquire_model_traces(key=0x3, trace_count=50, seed=1)
        assert len(first) == 50
        assert np.array_equal(first.traces, second.traces)

    def test_noise_changes_traces(self):
        clean = acquire_model_traces(key=0x3, trace_count=50, noise_std=0.0, seed=1)
        noisy = acquire_model_traces(key=0x3, trace_count=50, noise_std=0.5, seed=1)
        assert not np.array_equal(clean.traces, noisy.traces)

    def test_subset(self):
        traces = acquire_model_traces(key=0x3, trace_count=50, seed=1)
        subset = traces.subset(10)
        assert len(subset) == 10 and subset.key == traces.key

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            TraceSet(plaintexts=np.arange(3), traces=np.zeros(4), key=0)

    def test_circuit_traces_fc_are_nearly_constant(self):
        circuit = build_sbox_circuit(0x4, "fc", max_fanin=3)
        traces = acquire_circuit_traces(circuit, 0x4, 40, noise_std=0.0, seed=3)
        assert normalized_std_deviation(traces.traces.tolist()) < 1e-9

    def test_circuit_traces_genuine_vary(self):
        circuit = build_sbox_circuit(0x4, "genuine", max_fanin=3)
        traces = acquire_circuit_traces(circuit, 0x4, 40, noise_std=0.0, seed=3)
        assert normalized_std_deviation(traces.traces.tolist()) > 1e-4


class _SpySource:
    """An energy source that records every stimulus it is asked for."""

    def __init__(self):
        self.calls = []

    def __call__(self, stimuli):
        self.calls.append(stimuli.copy())
        return stimuli * 1.5 + 0.25

    def seen(self):
        return np.concatenate(self.calls)


def _measure(blocks, energies, fixed, width=4):
    """Stimuli, labels and energies of a run, concatenated over its blocks."""
    stimuli, labels, measured = zip(
        *measure_blocks(blocks, width, energies, lambda part, rng: part, fixed=fixed)
    )
    return np.concatenate(stimuli), np.concatenate(labels), np.concatenate(measured)


class TestMeasureBlocks:
    """The fixed-vs-random stream measures its fixed stimulus once per run."""

    @pytest.mark.parametrize("width, fixed", [(4, 0x9), (16, 0xA5C3), (64, (1 << 63) + 9)])
    def test_random_cycles_once_and_the_fixed_stimulus_once_per_run(self, width, fixed):
        # 5000 traces are 20 blocks: one run calls the source on 16 and
        # then 4 blocks, runs of 7 and 13 blocks once each.  A 64-bit
        # stimulus is drawn as uint64.
        for runs in (((0, 20),), ((0, 7), (7, 20))):
            spy = _SpySource()
            parts = [
                _measure(campaign_blocks(5000, 11, first, stop), spy, fixed, width)
                for first, stop in runs
            ]
            stimuli, labels, measured = (np.concatenate(part) for part in zip(*parts))
            assert np.array_equal(measured, stimuli * 1.5 + 0.25)
            assert (stimuli[labels] == fixed).all()
            # Each run's first fixed cycle, then only random ones.
            expected = []
            for run_stimuli, run_labels, _ in parts:
                query = ~run_labels
                query[run_labels.argmax()] = True
                expected.append(run_stimuli[query])
            assert np.array_equal(spy.seen(), np.concatenate(expected))
            assert spy.seen().size == (~labels).sum() + len(runs)
            assert len(spy.calls) == 2

    def test_a_run_without_a_fixed_cycle_measures_no_fixed_stimulus(self):
        # A one-trace block holds no fixed cycle (its fixed half is 0).
        for blocks in (campaign_blocks(1, 5), campaign_blocks(257, 5, 1, 2)):
            spy = _SpySource()
            stimuli, labels, measured = _measure(blocks, spy, fixed=0x9)
            assert stimuli.size == 1 and not labels.any()
            assert np.array_equal(spy.seen(), stimuli)
            assert np.array_equal(measured, stimuli * 1.5 + 0.25)

    def test_without_a_fixed_class_every_cycle_is_measured(self):
        spy = _SpySource()
        stimuli, _, measured = zip(
            *measure_blocks(campaign_blocks(700, 3), 4, spy, lambda part, rng: part)
        )
        assert np.array_equal(spy.seen(), np.concatenate(stimuli))
        assert np.array_equal(np.concatenate(measured), spy.seen() * 1.5 + 0.25)


class TestAttacks:
    def test_cpa_recovers_key_from_hamming_weight_model(self):
        traces = acquire_model_traces(key=0xB, trace_count=300, noise_std=0.25, seed=11)
        result = cpa_correlation(traces, PRESENT_SBOX)
        assert result.succeeded
        assert result.correct_key_rank == 0

    def test_dom_recovers_key_from_single_bit_leakage(self):
        # Kocher-style DoM targets one bit; build traces whose leakage is
        # exactly that bit of S(p XOR key) plus noise.  (With a full
        # Hamming-weight leakage the 4-bit PRESENT S-box produces exact
        # ghost-peak ties, so single-bit leakage is the well-posed case.)
        key, bit = 0x7, 2
        rng = np.random.default_rng(5)
        plaintexts = rng.integers(0, 16, size=800)
        leakage = np.array(
            [(PRESENT_SBOX[int(p) ^ key] >> bit) & 1 for p in plaintexts], dtype=float
        )
        traces = TraceSet(
            plaintexts=plaintexts,
            traces=leakage + rng.normal(0.0, 0.25, size=len(plaintexts)),
            key=key,
        )
        result = dpa_difference_of_means(traces, PRESENT_SBOX, target_bit=bit)
        assert result.succeeded

    def test_attack_result_accessors(self):
        traces = acquire_model_traces(key=0x2, trace_count=200, seed=9)
        result = cpa_correlation(traces, PRESENT_SBOX)
        assert 0 <= result.best_guess < 16
        assert len(result.scores) == 16
        assert result.margin() >= 0.0

    def test_measurements_to_disclosure_on_easy_target(self):
        traces = acquire_model_traces(key=0xD, trace_count=400, noise_std=0.2, seed=21)
        mtd = measurements_to_disclosure(traces, PRESENT_SBOX)
        assert mtd is not None and mtd <= 400

    def test_measurements_to_disclosure_none_for_pure_noise(self):
        rng = np.random.default_rng(0)
        traces = TraceSet(
            plaintexts=rng.integers(0, 16, 200), traces=rng.normal(0, 1, 200), key=0x6
        )
        assert measurements_to_disclosure(traces, PRESENT_SBOX) is None


@pytest.mark.slow
class TestProfiledAttackOnCircuits:
    def test_profiled_cpa_breaks_genuine_but_not_fc(self):
        key = 0xB
        genuine = build_sbox_circuit(key, "genuine", max_fanin=3)
        protected = build_sbox_circuit(key, "fc", max_fanin=3)
        traces_genuine = acquire_circuit_traces(genuine, key, 96, noise_std=0.002, seed=7)
        traces_fc = acquire_circuit_traces(protected, key, 96, noise_std=0.002, seed=7)
        predictor = simulated_energy_predictor("genuine", max_fanin=3)
        attack_genuine = profiled_cpa(traces_genuine, predictor)
        attack_fc = profiled_cpa(traces_fc, predictor)
        assert attack_genuine.succeeded
        assert max(attack_genuine.scores) > 0.6
        assert max(attack_fc.scores) < 0.5
