/**
 * @file
 * Circuit optimization passes — the "OptiMap" technique of the paper
 * (Sec 4): all the state-of-the-art gate-level optimizations a
 * superconducting-style compiler performs, i.e. single-qubit gate fusion
 * (with identity removal) and commutation-aware CZ cancellation, iterated
 * to a fixed point. Geyser runs these before blocking/composition.
 */
#ifndef GEYSER_TRANSPILE_PASSES_HPP
#define GEYSER_TRANSPILE_PASSES_HPP

#include "circuit/circuit.hpp"

namespace geyser {

/**
 * Fuse runs of adjacent one-qubit gates into a single U3 each (resynthesis
 * through the 2x2 product). With drop_identity, fused gates equal to the
 * identity (up to phase) are deleted. Returns true if the circuit changed.
 * A round that changes nothing leaves the circuit as it was and does no
 * resynthesis; a round that changes it resynthesizes every surviving
 * run, runs of one gate included. A lone gate's 2x2 matrix is built
 * only for that resynthesis or when |sin(theta/2)| <= 1e-8 leaves the
 * identity test open. Requires a physical-basis circuit; throws
 * ValidationError on a non-finite U3 angle.
 */
bool fuseU3Pass(Circuit &circuit, bool drop_identity = true);

/**
 * Cancel pairs of equal CZ gates that are adjacent modulo the diagonal
 * subcircuit between them (diagonal U3s and CZs on any pair all commute).
 * Returns true if the circuit changed.
 */
bool cancelCzPass(Circuit &circuit);

/**
 * Run fuse + cancel to a fixed point (bounded iterations). This is the
 * full OptiMap optimization pipeline.
 */
void optimize(Circuit &circuit);

}  // namespace geyser

#endif  // GEYSER_TRANSPILE_PASSES_HPP
