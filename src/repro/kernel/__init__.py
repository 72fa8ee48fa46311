"""repro.kernel -- the compiled bit-sliced simulator for trace acquisition.

Compiles a mapped :class:`~repro.sabl.circuit.DifferentialCircuit` once
(:func:`compile_circuit`) and runs every circuit campaign through
:class:`BitslicedCircuitEnergyModel`, which packs 64 traces per uint64
word and keeps trace throughput nearly independent of the circuit's
input width.  Its energies equal, bit for bit, those of the reference
models in :mod:`repro.sabl.simulator`, which the tests keep as oracles.
"""

from .compile import CompiledProgram, KernelError, compile_circuit
from .bitslice import BitslicedCircuitEnergyModel, BitslicePlan
from .pack import WORD_BITS, pack_bitplanes, unpack_bitplanes, word_count

__all__ = [
    "CompiledProgram",
    "KernelError",
    "compile_circuit",
    "BitslicedCircuitEnergyModel",
    "BitslicePlan",
    "WORD_BITS",
    "pack_bitplanes",
    "unpack_bitplanes",
    "word_count",
]
