"""The scenario contract: a named cipher datapath the flow can run.

A *scenario* is a combinational cryptographic workload the whole
evaluation chain (synthesis -> secure cells -> differential circuit ->
traces -> DPA/TVLA) is exercised against.  Every scenario provides three
views of the same datapath, and the conformance suite pins that they
agree:

* :meth:`Scenario.expressions` -- one Boolean expression per output bit
  over the plaintext bits (the secret key folded in), feeding the
  existing synthesis/FC-DPDN/cell pipeline unchanged;
* :meth:`Scenario.encrypt` -- a pure-Python golden reference of the same
  keyed function;
* :meth:`Scenario.attack_points` / :meth:`Scenario.attack_view` -- the
  declared side-channel targets: which round-1 S-box a DPA selection
  function predicts, how the campaign plaintexts project onto that
  S-box's input and which subkey nibble is the "correct key" of the
  projected attack.

Scenarios also expose vectorized *state tables* (the round-register
value for every possible plaintext) from which the leakage-model
campaigns derive Hamming-weight, Hamming-distance and selection-bit
tables for multi-bit intermediate states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

import numpy as np

from ..boolexpr.ast import Expr

__all__ = [
    "ScenarioError",
    "AttackPoint",
    "Scenario",
    "popcount",
    "MODEL_LEAKAGES",
    "MAX_STATE_TABLE_WIDTH",
    "MAX_EXPRESSION_SUPPORT",
]

#: Leakage models a scenario can tabulate for ``source="model"`` campaigns.
MODEL_LEAKAGES = ("hamming", "bit", "distance")

#: Widest state (in bits) for which full lookup tables are built.  A
#: table holds ``2**width`` entries; 16 bits (a 4-S-box PRESENT slice)
#: is 65536 entries, the last size that stays trivially cheap.
MAX_STATE_TABLE_WIDTH = 16

#: Largest cone of influence (in plaintext bits) an output-bit
#: expression may have; beyond this the canonical SOP enumeration
#: (``2**support`` evaluations per bit) stops being practical.
MAX_EXPRESSION_SUPPORT = 16


class ScenarioError(ValueError):
    """A scenario was configured or queried inconsistently."""


def popcount(values: np.ndarray) -> np.ndarray:
    """Vectorized bit count of a non-negative integer array."""
    values = np.asarray(values)
    if values.size and np.any(values < 0):
        raise ValueError("popcount needs non-negative values")
    counts = np.zeros(values.shape, dtype=np.int64)
    remaining = values.astype(np.int64, copy=True)
    while np.any(remaining):
        counts += remaining & 1
        remaining >>= 1
    return counts


@dataclass(frozen=True)
class AttackPoint:
    """One declared side-channel target of a scenario.

    Attributes:
        name: stable identifier (``"r1_sbox0"``), used in reports.
        round_index: the round whose S-box layer is predicted (1-based).
        sbox_index: which parallel S-box of that layer is targeted.
        description: human-readable summary.
    """

    name: str
    round_index: int
    sbox_index: int
    description: str = ""


class Scenario:
    """Base class of named cipher-datapath scenarios.

    Subclasses set :attr:`name`, :attr:`key`, :attr:`input_width`,
    :attr:`output_width` and :attr:`rounds` in their constructors and
    implement the abstract hooks; the generic leakage-table machinery
    (Hamming weight/distance over round registers, selection bits) is
    provided here so every scenario supports the same model campaigns.
    """

    name: str = "scenario"
    key: int = 0
    input_width: int = 0
    output_width: int = 0
    rounds: int = 1

    # ----------------------------------------------------------- identities

    def params(self) -> Dict[str, Any]:
        """JSON-friendly parameters that identify this scenario instance."""
        return {}

    def describe(self) -> Dict[str, Any]:
        """Summary record for reports and store metadata."""
        record: Dict[str, Any] = {
            "scenario": self.name,
            "input_width": self.input_width,
            "output_width": self.output_width,
            "rounds": self.rounds,
        }
        record.update(self.params())
        return record

    def _check_plaintext(self, plaintext: int) -> None:
        if not 0 <= plaintext < (1 << self.input_width):
            raise ScenarioError(
                f"plaintext {plaintext:#x} does not fit the {self.input_width}-bit "
                f"input of scenario {self.name!r}"
            )

    # ------------------------------------------------------- abstract hooks

    def expressions(self) -> Dict[str, Expr]:
        """Per-output-bit Boolean expressions (``y0``, ``y1``, ...) with
        the key folded in, over plaintext variables ``p0``...``p{n-1}``."""
        raise NotImplementedError

    def encrypt(self, plaintext: int) -> int:
        """Golden-reference output state for one plaintext."""
        raise NotImplementedError

    def round_states(self, plaintext: int) -> Tuple[int, ...]:
        """Round-register trajectory: the input state followed by the
        state after each round (length ``rounds + 1``)."""
        raise NotImplementedError

    def state_table(self, round_index: int) -> np.ndarray:
        """State after ``round_index`` rounds for *every* plaintext.

        ``round_index`` 0 is the identity (the plaintext itself); the
        table has ``2**input_width`` int64 entries.
        """
        raise NotImplementedError

    def attack_points(self) -> Tuple[AttackPoint, ...]:
        """The declared attack points, round-1 first."""
        raise NotImplementedError

    def attack_view(
        self, plaintexts: np.ndarray, sbox_index: int
    ) -> Tuple[np.ndarray, int, Tuple[int, ...]]:
        """Project a campaign onto one round-1 S-box.

        Returns ``(projected_plaintexts, subkey, sbox_table)``: the
        S-box-input nibbles the selection function indexes, the correct
        subkey of the projected attack and the substitution table the
        selection function uses.
        """
        raise NotImplementedError

    # ------------------------------------------------------- derived tables

    def _check_round(self, round_index: int, minimum: int = 1) -> None:
        if not minimum <= round_index <= self.rounds:
            raise ScenarioError(
                f"target round {round_index} is outside rounds "
                f"{minimum}..{self.rounds} of scenario {self.name!r}"
            )

    def selection_bit_table(
        self, round_index: int, sbox_index: int, bit: int
    ) -> np.ndarray:
        """0/1 table of one predicted S-box output bit, per plaintext.

        This is exactly the intermediate a single-bit DPA predicts: bit
        ``bit`` of the ``sbox_index``-th S-box output in round
        ``round_index``'s substitution layer.
        """
        raise NotImplementedError

    def leakage_table(
        self,
        leakage: str,
        target_round: int = 1,
        target_sbox: int = 0,
        target_bit: int = 0,
    ) -> np.ndarray:
        """Per-plaintext leakage of a ``source="model"`` campaign.

        ``"hamming"`` is the Hamming weight of the round register after
        ``target_round``; ``"distance"`` is the Hamming distance of the
        round-register update across ``target_round`` (the CMOS
        register-switching model); ``"bit"`` is the single predicted
        S-box output bit (see :meth:`selection_bit_table`).
        """
        if leakage not in MODEL_LEAKAGES:
            raise ScenarioError(
                f"model leakage must be one of {MODEL_LEAKAGES}, got {leakage!r}"
            )
        self._check_round(target_round)
        if leakage == "hamming":
            return popcount(self.state_table(target_round)).astype(float)
        if leakage == "distance":
            before = self.state_table(target_round - 1)
            after = self.state_table(target_round)
            return popcount(before ^ after).astype(float)
        return self.selection_bit_table(target_round, target_sbox, target_bit).astype(
            float
        )
