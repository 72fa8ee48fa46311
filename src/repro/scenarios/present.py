"""PRESENT round datapaths: S-box layer + pLayer + round-key addition.

The PRESENT block cipher (Bogdanov et al., CHES 2007) round is the
canonical lightweight-hardware datapath: sixteen parallel 4-bit S-boxes
followed by a pure-wiring bit permutation (the *pLayer*).  This module
provides

* :func:`player_permutation` / :func:`player_inverse` -- the pLayer,
  generalized to width-``4*s`` slices (``s`` parallel S-boxes) so tier-1
  tests can run a 1/2/4-S-box slice while the full 16-S-box round stays
  available.  For ``s = 16`` the permutation is exactly the published
  PRESENT P table (bit ``i`` moves to ``16*i mod 63``);
* :class:`PresentRoundScenario` -- one keyed round
  (``pLayer(S(p XOR k))``), the algorithmic-noise workload: every
  parallel S-box switches in the same cycle as the attacked one;
* :class:`PresentRoundsScenario` -- ``N`` chained rounds with the round
  counter folded into a toy rotate-XOR key schedule, for Hamming-distance
  and round-depth studies;
* :func:`present80_encrypt` -- the full published PRESENT-80 cipher
  (31 rounds + output whitening), built from the *same* round primitives,
  so the golden-vector suite can check the layer implementations against
  the test vectors of the PRESENT paper.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from ..boolexpr.ast import Expr
from ..boolexpr.truthtable import expression_from_function
from ..power.crypto import PRESENT_SBOX
from .base import (
    MAX_EXPRESSION_SUPPORT,
    MAX_STATE_TABLE_WIDTH,
    AttackPoint,
    Scenario,
    ScenarioError,
)

__all__ = [
    "SUPPORTED_SBOX_COUNTS",
    "player_permutation",
    "player_inverse",
    "apply_bit_permutation",
    "present_round_keys",
    "PresentRoundScenario",
    "PresentRoundsScenario",
    "present80_round_keys",
    "present80_encrypt",
]

#: S-box counts the sliced pLayer is defined for (widths 4..64).
SUPPORTED_SBOX_COUNTS = (1, 2, 4, 8, 16)


def player_permutation(sboxes: int) -> Tuple[int, ...]:
    """Destination position of every bit under the width-``4*sboxes`` pLayer.

    The published 64-bit pLayer moves bit ``i`` to ``16*i mod 63`` (bit
    63 is fixed); the slice generalization moves bit ``i`` to
    ``sboxes*i mod (width-1)``.  Because ``gcd(sboxes, 4*sboxes-1) = 1``
    this is a bijection at every supported width, and for ``sboxes=16``
    it reproduces PRESENT's P table exactly.
    """
    if sboxes not in SUPPORTED_SBOX_COUNTS:
        raise ScenarioError(
            f"sboxes must be one of {SUPPORTED_SBOX_COUNTS}, got {sboxes}"
        )
    width = 4 * sboxes
    return tuple(
        (sboxes * i) % (width - 1) if i < width - 1 else width - 1
        for i in range(width)
    )


def player_inverse(sboxes: int) -> Tuple[int, ...]:
    """The tabulated inverse of :func:`player_permutation`."""
    permutation = player_permutation(sboxes)
    inverse = [0] * len(permutation)
    for source, destination in enumerate(permutation):
        inverse[destination] = source
    return tuple(inverse)


def apply_bit_permutation(value: int, permutation: Sequence[int]) -> int:
    """Move bit ``i`` of ``value`` to position ``permutation[i]``."""
    result = 0
    for source, destination in enumerate(permutation):
        result |= ((value >> source) & 1) << destination
    return result


def present_round_keys(key: int, rounds: int, width: int) -> Tuple[int, ...]:
    """Round keys of the sliced scenarios' toy key schedule.

    ``K_1`` is the master key; ``K_{r}`` rotates the master key left by
    ``3*(r-1)`` bits and XORs in the round counter ``r - 1`` --
    PRESENT-flavoured (rotate, then counter injection) but defined at
    every slice width.  The schedule exists so multi-round scenarios do
    not degenerate to iterating one fixed permutation; it makes no
    cryptographic-strength claim.
    """
    if rounds < 1:
        raise ScenarioError(f"rounds must be at least 1, got {rounds}")
    mask = (1 << width) - 1
    keys = []
    for counter in range(rounds):
        rotation = (3 * counter) % width
        rotated = ((key << rotation) | (key >> (width - rotation))) & mask if rotation else key
        keys.append(rotated ^ (counter & mask))
    return tuple(keys)


class PresentRoundsScenario(Scenario):
    """``N`` chained PRESENT rounds over a width-configurable S-box slice.

    Each round XORs the round key, applies ``sboxes`` parallel S-boxes
    and permutes the state through the sliced pLayer.  The substitution
    table defaults to the PRESENT S-box but any 16-entry
    table is accepted, so the scenario doubles as a generic SPN round.
    """

    name = "present_rounds"

    def __init__(
        self,
        key: int,
        sbox_table: Sequence[int],
        sboxes: int = 1,
        rounds: int = 2,
        sbox_name: str = "present",
        schedule: bool = True,
    ) -> None:
        if len(sbox_table) != 16:
            raise ScenarioError(
                f"PRESENT round scenarios need a 4-bit (16-entry) S-box; "
                f"{sbox_name!r} has {len(sbox_table)} entries"
            )
        if sboxes not in SUPPORTED_SBOX_COUNTS:
            raise ScenarioError(
                f"sboxes must be one of {SUPPORTED_SBOX_COUNTS}, got {sboxes}"
            )
        if rounds < 1:
            raise ScenarioError(f"rounds must be at least 1, got {rounds}")
        width = 4 * sboxes
        if not 0 <= key < (1 << width):
            raise ScenarioError(
                f"key {key:#x} does not fit the {width}-bit state of a "
                f"{sboxes}-S-box slice"
            )
        self.key = int(key)
        self.sboxes = int(sboxes)
        self.rounds = int(rounds)
        self.input_width = width
        self.output_width = width
        self.sbox_name = sbox_name
        self._table = tuple(int(value) for value in sbox_table)
        self._permutation = player_permutation(sboxes)
        self._round_keys = (
            present_round_keys(self.key, self.rounds, width)
            if schedule
            else (self.key,) * self.rounds
        )

    # ------------------------------------------------------------- identity

    def params(self) -> Dict[str, object]:
        return {"sboxes": self.sboxes, "rounds": self.rounds, "sbox": self.sbox_name}

    def round_keys(self) -> Tuple[int, ...]:
        """The per-round keys (``K_1`` first)."""
        return self._round_keys

    # ------------------------------------------------------- golden reference

    def _sbox_layer(self, state: int) -> int:
        result = 0
        for index in range(self.sboxes):
            result |= self._table[(state >> (4 * index)) & 0xF] << (4 * index)
        return result

    def _round(self, state: int, round_key: int) -> int:
        return apply_bit_permutation(self._sbox_layer(state ^ round_key), self._permutation)

    def encrypt(self, plaintext: int) -> int:
        self._check_plaintext(plaintext)
        state = plaintext
        for round_key in self._round_keys:
            state = self._round(state, round_key)
        return state

    def round_states(self, plaintext: int) -> Tuple[int, ...]:
        self._check_plaintext(plaintext)
        states = [plaintext]
        for round_key in self._round_keys:
            states.append(self._round(states[-1], round_key))
        return tuple(states)

    # ------------------------------------------------------------ expressions

    def _bit_supports(self) -> Tuple[Tuple[int, ...], ...]:
        """Cone of influence (plaintext bit positions) of every output bit.

        Dependencies propagate structurally: a key XOR keeps them, each
        S-box output bit depends on its nibble's four input bits, the
        pLayer permutes them.  The result is a superset of the true
        support, which is all the SOP enumeration needs.
        """
        supports = [{position} for position in range(self.input_width)]
        for _ in range(self.rounds):
            after_sbox = []
            for index in range(self.sboxes):
                nibble = set().union(*supports[4 * index : 4 * index + 4])
                after_sbox.extend(set(nibble) for _ in range(4))
            permuted: list = [set()] * self.input_width
            for source, destination in enumerate(self._permutation):
                permuted[destination] = after_sbox[source]
            supports = permuted
        return tuple(tuple(sorted(support)) for support in supports)

    def expressions(self) -> Dict[str, Expr]:
        expressions: Dict[str, Expr] = {}
        for bit, support in enumerate(self._bit_supports()):
            if len(support) > MAX_EXPRESSION_SUPPORT:
                raise ScenarioError(
                    f"output bit {bit} of scenario {self.name!r} depends on "
                    f"{len(support)} plaintext bits (> {MAX_EXPRESSION_SUPPORT}); "
                    f"reduce rounds or sboxes to keep synthesis tractable"
                )
            variables = [f"p{position}" for position in support]

            def bit_function(assignment, bit=bit, support=support):
                plaintext = 0
                for position in support:
                    if assignment[f"p{position}"]:
                        plaintext |= 1 << position
                return bool((self.encrypt(plaintext) >> bit) & 1)

            expressions[f"y{bit}"] = expression_from_function(bit_function, variables)
        return expressions

    # ----------------------------------------------------------- state tables

    def _sbox_layer_np(self, states: np.ndarray) -> np.ndarray:
        table = np.asarray(self._table, dtype=np.int64)
        result = np.zeros_like(states)
        for index in range(self.sboxes):
            result |= table[(states >> (4 * index)) & 0xF] << (4 * index)
        return result

    def _player_np(self, states: np.ndarray) -> np.ndarray:
        result = np.zeros_like(states)
        for source, destination in enumerate(self._permutation):
            result |= ((states >> source) & 1) << destination
        return result

    def _require_tabulable(self) -> None:
        if self.input_width > MAX_STATE_TABLE_WIDTH:
            raise ScenarioError(
                f"state tables are limited to {MAX_STATE_TABLE_WIDTH}-bit states "
                f"({MAX_STATE_TABLE_WIDTH // 4} S-boxes); scenario {self.name!r} "
                f"is {self.input_width} bits wide"
            )

    def state_table(self, round_index: int) -> np.ndarray:
        self._check_round(round_index, minimum=0)
        self._require_tabulable()
        states = np.arange(1 << self.input_width, dtype=np.int64)
        for round_key in self._round_keys[:round_index]:
            states = self._player_np(self._sbox_layer_np(states ^ round_key))
        return states

    def selection_bit_table(
        self, round_index: int, sbox_index: int, bit: int
    ) -> np.ndarray:
        self._check_round(round_index)
        self._check_sbox_index(sbox_index)
        if not 0 <= bit < 4:
            raise ScenarioError(f"S-box output bit must be in 0..3, got {bit}")
        before = self.state_table(round_index - 1)
        round_key = self._round_keys[round_index - 1]
        nibbles = ((before >> (4 * sbox_index)) & 0xF) ^ (
            (round_key >> (4 * sbox_index)) & 0xF
        )
        table = np.asarray(self._table, dtype=np.int64)
        return (table[nibbles] >> bit) & 1

    # ----------------------------------------------------------- attack points

    def _check_sbox_index(self, sbox_index: int) -> None:
        if not 0 <= sbox_index < self.sboxes:
            raise ScenarioError(
                f"target_sbox {sbox_index} is outside the {self.sboxes} parallel "
                f"S-boxes of scenario {self.name!r}"
            )

    def attack_points(self) -> Tuple[AttackPoint, ...]:
        return tuple(
            AttackPoint(
                name=f"r1_sbox{index}",
                round_index=1,
                sbox_index=index,
                description=(
                    f"round-1 S-box {index} output "
                    f"(plaintext bits {4 * index}..{4 * index + 3}, "
                    f"{self.sboxes - 1} parallel S-boxes as algorithmic noise)"
                ),
            )
            for index in range(self.sboxes)
        )

    def attack_view(
        self, plaintexts: np.ndarray, sbox_index: int
    ) -> Tuple[np.ndarray, int, Tuple[int, ...]]:
        self._check_sbox_index(sbox_index)
        plaintexts = np.asarray(plaintexts, dtype=np.int64)
        nibbles = (plaintexts >> (4 * sbox_index)) & 0xF
        subkey = (self._round_keys[0] >> (4 * sbox_index)) & 0xF
        return nibbles, int(subkey), self._table


class PresentRoundScenario(PresentRoundsScenario):
    """One keyed PRESENT round: ``pLayer(S(p XOR key))``.

    The single-round scenario keeps every output bit's cone of influence
    at four plaintext bits, so the full 16-S-box (64-bit) round remains
    synthesizable; the round key is the campaign key itself (no
    schedule).
    """

    name = "present_round"

    def __init__(
        self,
        key: int,
        sbox_table: Sequence[int],
        sboxes: int = 4,
        sbox_name: str = "present",
    ) -> None:
        super().__init__(
            key,
            sbox_table,
            sboxes=sboxes,
            rounds=1,
            sbox_name=sbox_name,
            schedule=False,
        )

    def params(self) -> Dict[str, object]:
        return {"sboxes": self.sboxes, "sbox": self.sbox_name}


# --------------------------------------------------------------- PRESENT-80


def present80_round_keys(key: int, rounds: int = 31) -> Tuple[int, ...]:
    """The published PRESENT-80 key schedule (64-bit round keys).

    ``key`` is the 80-bit master key.  Returns ``rounds + 1`` keys: one
    per round plus the final whitening key, exactly as specified in the
    CHES 2007 paper.
    """
    if not 0 <= key < (1 << 80):
        raise ScenarioError(f"PRESENT-80 key must be 80 bits, got {key:#x}")
    register = key
    keys = []
    for counter in range(1, rounds + 2):
        keys.append(register >> 16)
        # 61-bit left rotation of the 80-bit register.
        register = ((register << 61) | (register >> 19)) & ((1 << 80) - 1)
        # S-box on the top nibble.
        register = (PRESENT_SBOX[register >> 76] << 76) | (register & ((1 << 76) - 1))
        # Round counter XORed into bits 19..15.
        register ^= counter << 15
    return tuple(keys)


def present80_encrypt(plaintext: int, key: int, rounds: int = 31) -> int:
    """The full published PRESENT-80 cipher, from the scenario primitives.

    Thirty-one rounds of addRoundKey -> sBoxLayer -> pLayer followed by
    the output whitening key.  This exists for the golden-vector
    conformance suite: it reuses :func:`player_permutation` and the
    scenario S-box layer at full width, so a match against the published
    test vectors validates the sliced layers' 16-S-box corner.
    """
    if not 0 <= plaintext < (1 << 64):
        raise ScenarioError(f"PRESENT-80 plaintext must be 64 bits, got {plaintext:#x}")
    round_keys = present80_round_keys(key, rounds)
    datapath = PresentRoundScenario(0, PRESENT_SBOX, sboxes=16)
    state = plaintext
    for round_key in round_keys[:-1]:
        state = datapath._round(state, round_key)
    return state ^ round_keys[-1]
