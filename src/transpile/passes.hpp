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
#include "transpile/record.hpp"

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
 * ValidationError on a non-finite U3 angle. With `rec` (a recording
 * run, transpile/record.hpp) it records the products, resyntheses and
 * angle-dependent tests it makes, and keeps rec->ids in step.
 */
bool fuseU3Pass(Circuit &circuit, bool drop_identity = true,
                CircuitRecorder *rec = nullptr);

/**
 * Cancel pairs of equal CZ gates that are adjacent modulo the diagonal
 * subcircuit between them (diagonal U3s and CZs on any pair all commute).
 * Returns true if the circuit changed. With `rec` it records each
 * diagonal test of a U3 and keeps rec->ids in step.
 */
bool cancelCzPass(Circuit &circuit, CircuitRecorder *rec = nullptr);

/**
 * Run fuse + cancel to a fixed point (bounded iterations). This is the
 * full OptiMap optimization pipeline. `rec` reaches both passes.
 */
void optimize(Circuit &circuit, CircuitRecorder *rec = nullptr);

/**
 * fuseU3Pass's pre-test for a lone U3: false when |sin(theta/2)| >
 * 1e-8, which puts |u01| above the identity tolerance; true (the
 * identity test must run) otherwise, NaN included.
 */
bool mayBeIdentity(double theta);

/** True if a U3 with this theta is diagonal (theta = 0 mod 2*pi). */
bool u3IsDiagonal(double theta);

}  // namespace geyser

#endif  // GEYSER_TRANSPILE_PASSES_HPP
