"""The paper's original workload as a scenario: one keyed S-box.

``SboxScenario`` wraps ``S(p XOR key)`` -- the circuit the DATE 2005
evaluation attacks -- in the :class:`~repro.scenarios.base.Scenario`
contract, so the default flow behaviour is now just the ``"sbox"``
backend of the scenario table.  The expressions it produces are
byte-for-byte the ones :func:`repro.power.crypto.keyed_sbox_expressions`
always produced, which keeps every existing campaign (and its random
streams, store keys aside) identical.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from ..boolexpr.ast import Expr
from ..power.crypto import keyed_sbox_expressions
from .base import AttackPoint, Scenario, ScenarioError

__all__ = ["SboxScenario"]


class SboxScenario(Scenario):
    """A single keyed substitution: ``S(p XOR key)``.

    Any power-of-two S-box is accepted for model campaigns
    (the 8-bit AES box drives the Hamming-weight reference experiments);
    the circuit workload -- Boolean expressions and synthesis -- needs
    the 4-bit table, exactly as before scenarios existed.
    """

    name = "sbox"

    def __init__(
        self, key: int, sbox_table: Sequence[int], sbox_name: str = "present"
    ) -> None:
        size = len(sbox_table)
        if size < 2 or size & (size - 1):
            raise ScenarioError(
                f"S-box size must be a power of two >= 2, got {size}"
            )
        if not 0 <= key < size:
            raise ScenarioError(
                f"key {key:#x} does not fit the {size}-entry S-box {sbox_name!r}"
            )
        self.key = int(key)
        self.sbox_name = sbox_name
        self._table = tuple(int(value) for value in sbox_table)
        self.input_width = (size - 1).bit_length()
        self.output_width = max(self._table).bit_length() or 1
        self.rounds = 1

    def params(self) -> Dict[str, object]:
        return {"sbox": self.sbox_name}

    # ------------------------------------------------------- golden reference

    def encrypt(self, plaintext: int) -> int:
        self._check_plaintext(plaintext)
        return self._table[plaintext ^ self.key]

    def round_states(self, plaintext: int) -> Tuple[int, ...]:
        return (plaintext, self.encrypt(plaintext))

    # ------------------------------------------------------------ expressions

    def expressions(self) -> Dict[str, Expr]:
        if len(self._table) != 16:
            raise ScenarioError(
                f"the circuit workload needs a 4-bit S-box; "
                f"{self.sbox_name!r} has {len(self._table)} entries"
            )
        return keyed_sbox_expressions(self.key, sbox=self._table)

    # ----------------------------------------------------------- state tables

    def state_table(self, round_index: int) -> np.ndarray:
        self._check_round(round_index, minimum=0)
        plaintexts = np.arange(len(self._table), dtype=np.int64)
        if round_index == 0:
            return plaintexts
        table = np.asarray(self._table, dtype=np.int64)
        return table[plaintexts ^ self.key]

    def selection_bit_table(
        self, round_index: int, sbox_index: int, bit: int
    ) -> np.ndarray:
        self._check_round(round_index)
        self._check_sbox_index(sbox_index)
        if not 0 <= bit < self.output_width:
            raise ScenarioError(
                f"target_bit {bit} is outside the {self.output_width}-bit "
                f"output of S-box {self.sbox_name!r}"
            )
        return (self.state_table(round_index) >> bit) & 1

    # ----------------------------------------------------------- attack points

    def _check_sbox_index(self, sbox_index: int) -> None:
        if sbox_index != 0:
            raise ScenarioError(
                f"target_sbox {sbox_index} is outside the single S-box of "
                f"scenario {self.name!r}"
            )

    def attack_points(self) -> Tuple[AttackPoint, ...]:
        return (
            AttackPoint(
                name="r1_sbox0",
                round_index=1,
                sbox_index=0,
                description=f"the keyed S-box output S(p XOR {self.key:#x})",
            ),
        )

    def attack_view(
        self, plaintexts: np.ndarray, sbox_index: int
    ) -> Tuple[np.ndarray, int, Tuple[int, ...]]:
        self._check_sbox_index(sbox_index)
        return np.asarray(plaintexts, dtype=np.int64), self.key, self._table
