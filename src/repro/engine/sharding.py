"""Deterministic shard plans for campaign map-reduce.

A campaign is a fixed stream of blocks (:func:`repro.power.trace.campaign_blocks`):
block ``i`` holds up to :data:`~repro.power.trace.BLOCK_SIZE` traces and
draws from child ``i`` of ``numpy.random.SeedSequence(seed).spawn(...)``.
A shard plan only groups those blocks into runs of whole consecutive
blocks.  Since every random draw belongs to a block, shard results
depend on neither the shard size nor which worker (or how many workers)
executed them: any plan of the same campaign, run serially or on a
process pool, reduces to the same bit-identical result.  That
equivalence is the contract the runner's tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from ..power.trace import BLOCK_SIZE, Block, campaign_blocks

__all__ = ["Shard", "plan_shards"]


@dataclass(frozen=True)
class Shard:
    """Blocks ``first .. stop - 1`` of one campaign.

    Attributes:
        index: position of the shard in the plan (and of its output in
            the reduced campaign).
        total: the campaign's trace count.
        seed: the campaign's seed, the root of its block stream.
        first: the shard's first block.
        stop: one past the shard's last block.

    A shard holds only its block range: the blocks, each with its
    spawned ``SeedSequence``, are built when they are read, so neither a
    plan nor a shard grows with the campaign.
    """

    index: int
    total: int
    seed: Union[int, np.random.SeedSequence]
    first: int
    stop: int

    def __post_init__(self) -> None:
        if not self.first < self.stop:
            raise ValueError("a shard holds at least one block")

    @property
    def blocks(self) -> Tuple[Block, ...]:
        """The shard's blocks, in campaign order."""
        return campaign_blocks(self.total, self.seed, self.first, self.stop)

    def iter_blocks(self) -> Iterator[Block]:
        """The shard's blocks in campaign order, each built when it is
        reached (a long in-process stream holds no block list).  The
        root ``SeedSequence`` is built once, not once per block."""
        root = self.seed
        if not isinstance(root, np.random.SeedSequence):
            root = np.random.SeedSequence(root)
        for index in range(self.first, self.stop):
            yield from campaign_blocks(self.total, root, index, index + 1)

    @property
    def start(self) -> int:
        """Index of the shard's first trace in the campaign."""
        return self.first * BLOCK_SIZE

    @property
    def count(self) -> int:
        """Number of traces the shard streams."""
        return min(self.stop * BLOCK_SIZE, self.total) - self.start

    def describe(self) -> str:
        """Human-readable identity for error messages and logs."""
        return (
            f"shard {self.index} "
            f"(traces {self.start}..{self.start + self.count - 1})"
        )


def plan_shards(
    total: int, shard_size: Optional[int], seed: Union[int, np.random.SeedSequence]
) -> Tuple[Shard, ...]:
    """Group the blocks of a ``total``-trace campaign into shards.

    ``shard_size`` rounds up to whole blocks; ``None`` makes the whole
    campaign one shard.  Every shard but the last holds exactly that many
    traces.  The plan is a pure function of the arguments, and the
    traces it yields are a pure function of ``(total, seed)``.
    """
    if total < 1:
        raise ValueError(f"total must be positive, got {total}")
    if shard_size is not None and shard_size < 1:
        raise ValueError(f"shard_size must be positive, got {shard_size}")
    n_blocks = -(-total // BLOCK_SIZE)
    per_shard = n_blocks if shard_size is None else -(-shard_size // BLOCK_SIZE)
    return tuple(
        Shard(
            index=index,
            total=total,
            seed=seed,
            first=first,
            stop=min(first + per_shard, n_blocks),
        )
        for index, first in enumerate(range(0, n_blocks, per_shard))
    )
