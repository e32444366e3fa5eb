/**
 * @file
 * Generators for the paper's benchmark circuits (Table 1): Cuccaro
 * ripple-carry adders, a hardware-efficient VQE ansatz, QAOA MaxCut,
 * QFT, quantum multipliers (Toffoli-based and Draper/QFT-based), a
 * Sycamore-style "Advantage" random circuit, and 1-D Heisenberg Trotter
 * evolution. All stochastic generators take explicit seeds.
 */
#ifndef GEYSER_ALGOS_ALGOS_HPP
#define GEYSER_ALGOS_ALGOS_HPP

#include <cstdint>

#include "circuit/circuit.hpp"

namespace geyser {

/**
 * Cuccaro ripple-carry adder core (no input prep). Layout: qubit 0 is
 * the incoming carry; bit i uses qubits 2i+1 (b_i, receives the sum) and
 * 2i+2 (a_i, restored); with carry_out, qubit 2*bits+1 receives the
 * final carry. Width = 2*bits + 1 + (carry_out ? 1 : 0).
 */
Circuit cuccaroAdderCore(int bits, bool carry_out);

/**
 * The Table 1 "Adder" benchmark: Cuccaro adder with Hadamard prep on
 * the a-register and X prep on half the b-register. bits=1 with carry
 * gives the 4-qubit row; bits=4 without carry gives the 9-qubit row.
 */
Circuit adderBenchmark(int bits, bool carry_out);

/**
 * Hardware-efficient VQE ansatz: `layers` of (RY, RZ) rotations per
 * qubit followed by a CX chain, with seeded random angles.
 */
Circuit vqeBenchmark(int num_qubits, int layers, uint64_t seed);

/**
 * QAOA MaxCut circuit: H prep, then p rounds of RZZ cost layers over a
 * seeded random graph with `edges` edges and RX mixer layers.
 */
Circuit qaoaBenchmark(int num_qubits, int edges, int rounds, uint64_t seed);

/** Textbook QFT over n qubits (controlled-phase cascade + final swaps). */
Circuit qftCore(int num_qubits, bool do_swaps);

/** The Table 1 QFT benchmark: X/H input prep followed by the QFT. */
Circuit qftBenchmark(int num_qubits);

/**
 * Toffoli multiplier core: p = a * b for a 1-bit a-register and nb-bit
 * b-register (one CCX per product bit, no carries needed). Layout:
 * a0 = qubit 0, b = qubits 1..nb, p = qubits nb+1..2nb.
 */
Circuit toffoliMultiplierCore(int nb);

/** The 5-qubit Table 1 Multiplier: H prep + 1x2-bit Toffoli multiplier. */
Circuit multiplier5Benchmark();

/**
 * Draper (QFT) multiplier core: p += a * b with na-bit a, nb-bit b and
 * (na+nb)-bit p via doubly-controlled phases in the Fourier domain.
 * Layout: a = qubits 0..na-1, b = na..na+nb-1, p = the rest.
 */
Circuit qftMultiplierCore(int na, int nb);

/** The 10-qubit Table 1 Multiplier: H prep + 2x3-bit Draper multiplier. */
Circuit multiplier10Benchmark();

/**
 * Sycamore-style random circuit ("Advantage"): `cycles` of random
 * one-qubit gates plus patterned CZ layers on a 3x3 grid.
 */
Circuit advantageBenchmark(int cycles, uint64_t seed);

/**
 * 1-D Heisenberg chain Trotter evolution: Neel-state prep, then `steps`
 * first-order Trotter steps of RXX+RYY+RZZ per bond plus RZ fields.
 */
Circuit heisenbergBenchmark(int num_qubits, int steps, double dt);

}  // namespace geyser

#endif  // GEYSER_ALGOS_ALGOS_HPP
