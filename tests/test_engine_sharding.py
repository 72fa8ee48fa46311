"""Shard plans: determinism, coverage and stream independence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import plan_shards
from repro.power.trace import BLOCK_SIZE, campaign_blocks


def _draws(shard, size=32):
    """The first draws of a shard's first block."""
    return shard.blocks[0].rng().integers(0, 1 << 30, size)


class TestTracePlans:
    def test_covers_the_campaign_contiguously(self):
        shards = plan_shards(1000, 256, seed=2005)
        assert [shard.count for shard in shards] == [256, 256, 256, 232]
        assert [shard.start for shard in shards] == [0, 256, 512, 768]
        assert [shard.index for shard in shards] == [0, 1, 2, 3]

    def test_exact_multiple_has_no_tail_shard(self):
        shards = plan_shards(512, 256, seed=1)
        assert [shard.count for shard in shards] == [256, 256]

    def test_single_shard_when_campaign_fits(self):
        (shard,) = plan_shards(100, 256, seed=1)
        assert shard.count == 100 and shard.start == 0

    def test_plan_is_deterministic(self):
        first = plan_shards(1000, 128, seed=7)
        second = plan_shards(1000, 128, seed=7)
        for a, b in zip(first, second):
            assert np.array_equal(_draws(a), _draws(b))

    def test_shards_draw_from_distinct_streams(self):
        shards = plan_shards(1000, 256, seed=7)
        draws = [_draws(shard) for shard in shards]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.array_equal(draws[i], draws[j])

    def test_plan_depends_on_the_seed(self):
        a = plan_shards(256, 256, seed=1)[0]
        b = plan_shards(256, 256, seed=2)[0]
        assert not np.array_equal(_draws(a), _draws(b))

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_shards(0, 256, seed=1)
        with pytest.raises(ValueError):
            plan_shards(100, 0, seed=1)

    def test_shards_are_runs_of_the_same_blocks(self):
        # Whatever the shard size, the plan regroups one block stream.
        blocks = campaign_blocks(3000, seed=9)
        for shard_size in (None, 1, 256, 300, 1000, 4096):
            shards = plan_shards(3000, shard_size, seed=9)
            regrouped = [block for shard in shards for block in shard.blocks]
            assert [b.index for b in regrouped] == [b.index for b in blocks]
            for mine, theirs in zip(regrouped, blocks):
                assert mine.count == theirs.count
                assert np.array_equal(mine.rng().random(4), theirs.rng().random(4))

    @pytest.mark.parametrize("seed", [9, np.random.SeedSequence(9, spawn_key=(4,))])
    def test_iterated_blocks_are_the_shard_blocks(self, seed):
        for shard in plan_shards(3000, 1000, seed=seed):
            iterated = list(shard.iter_blocks())
            assert [b.index for b in iterated] == [b.index for b in shard.blocks]
            for mine, theirs in zip(iterated, shard.blocks):
                assert (mine.start, mine.count) == (theirs.start, theirs.count)
                assert mine.seed.spawn_key == theirs.seed.spawn_key
                assert np.array_equal(mine.rng().random(4), theirs.rng().random(4))

    def test_blocks_are_spawned_children_of_the_seed(self):
        children = np.random.SeedSequence(2005).spawn(4)
        blocks = campaign_blocks(1000, 2005)
        assert [block.count for block in blocks] == [256, 256, 256, 232]
        for block, child in zip(blocks, children):
            assert np.array_equal(
                block.rng().integers(0, 1 << 30, 8),
                np.random.default_rng(child).integers(0, 1 << 30, 8),
            )
        # A run of blocks is planned on its own, without a shared root.
        (third,) = campaign_blocks(1000, 2005, first=2, stop=3)
        assert np.array_equal(third.rng().random(4), blocks[2].rng().random(4))
        with pytest.raises(ValueError):
            campaign_blocks(1000, 2005, first=3, stop=5)


class TestMinShardSizeConfig:
    """The floor on a shard: one whole block."""

    def test_effective_shard_size_is_floored(self):
        from repro.flow.config import ExecutionConfig

        for total in (100, 4000, 100_000):
            assert ExecutionConfig(workers=4, shard_size=64).effective_shard_size(total) == 256
            assert ExecutionConfig(shard_size=300).effective_shard_size(total) == 512
            assert ExecutionConfig(shard_size=512).effective_shard_size(total) == 512
            # Unset: one shard per worker on a pool, one in-process shard.
            assert ExecutionConfig().effective_shard_size(total) is None
            assert (
                ExecutionConfig(workers=2, executor="serial").effective_shard_size(total)
                is None
            )
        assert ExecutionConfig(workers=2).effective_shard_size(4000) == 8 * BLOCK_SIZE

    @pytest.mark.parametrize(
        "total, workers, counts",
        [
            # ceil(blocks / workers) blocks per shard: one shard per worker.
            (4000, 2, [8 * 256, 8 * 256 - 96]),
            (2560, 2, [5 * 256, 5 * 256]),
            (704, 2, [512, 192]),
            (1000, 3, [512, 488]),
            (700, 4, [256, 256, 188]),
            (100, 2, [100]),
            # At most 16 blocks per shard.
            (33 * 256, 2, [16 * 256, 16 * 256, 256]),
            (20_000, 2, [4096] * 4 + [3616]),
        ],
    )
    def test_default_pooled_plan(self, total, workers, counts):
        from repro.flow.config import ASSESSMENT_BLOCKS_PER_CALL, ExecutionConfig

        assert ASSESSMENT_BLOCKS_PER_CALL == 16
        execution = ExecutionConfig(workers=workers)
        size = execution.effective_shard_size(total)
        assert size % BLOCK_SIZE == 0 and size <= 16 * BLOCK_SIZE
        shards = plan_shards(total, size, seed=7)
        assert [shard.count for shard in shards] == counts
        assert len(shards) <= workers or size == 16 * BLOCK_SIZE

    def test_explicit_shard_size_keeps_its_meaning_on_a_pool(self):
        from repro.flow.config import ExecutionConfig

        for shard_size, expected in ((1, 256), (256, 256), (300, 512), (20_000, 20_224)):
            execution = ExecutionConfig(workers=2, shard_size=shard_size)
            assert execution.effective_shard_size(4000) == expected
        # A shard size past the campaign gives one shard, even on a pool.
        (shard,) = plan_shards(
            4000, ExecutionConfig(workers=2, shard_size=8192).effective_shard_size(4000), 1
        )
        assert shard.count == 4000

    def test_floored_parallel_campaign_stays_bit_identical(self):
        from repro.flow import DesignFlow

        def run(workers):
            flow = DesignFlow.sbox(0xB, trace_count=600)
            flow.config = flow.config.replace(
                execution=flow.config.execution.replace(
                    workers=workers, shard_size=64
                )
            )
            return flow.traces()

        serial, parallel = run(1), run(4)
        assert np.array_equal(serial.traces, parallel.traces)
        assert np.array_equal(serial.plaintexts, parallel.plaintexts)


class TestAssessmentPlans:
    def test_classes_split_identically_and_exactly(self):
        # An assessment of 1000 traces per class is a 2000-trace block
        # stream; every block splits evenly into the two classes.
        blocks = [block for shard in plan_shards(2000, 256, seed=3) for block in shard.blocks]
        assert all(block.count % 2 == 0 for block in blocks)
        assert sum(block.count // 2 for block in blocks) == 1000
        assert {block.count // 2 for block in blocks[:-1]} == {BLOCK_SIZE // 2}

    def test_tiny_shard_size_still_progresses(self):
        shards = plan_shards(6, 1, seed=3)
        assert [shard.count for shard in shards] == [6]
