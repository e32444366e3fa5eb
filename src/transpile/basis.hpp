/**
 * @file
 * Basis translation: lower logical gates to the neutral-atom physical
 * basis {U3, CZ} (paper Sec 3.2 — the mapper is given basis gates
 * {U3, CZ}; CCZ gates are only ever *introduced* later by Geyser's
 * composition step, so lowering never emits them).
 */
#ifndef GEYSER_TRANSPILE_BASIS_HPP
#define GEYSER_TRANSPILE_BASIS_HPP

#include "circuit/circuit.hpp"
#include "transpile/record.hpp"

namespace geyser {

/**
 * Lower every gate of `circuit` to {U3, CZ}. Multi-qubit logical gates
 * expand through their textbook CX/CZ decompositions (e.g. a Toffoli
 * becomes 6 CX-derived CZ plus one-qubit gates — the 26-pulse pattern of
 * paper Fig 11 once fused); one-qubit gates become a single U3. No
 * optimization is performed (that is OptiMap's job). With `rec` (a
 * recording run, transpile/record.hpp, whose ids start empty) it
 * records each lowered U3's value.
 */
Circuit decomposeToBasis(const Circuit &circuit,
                         CircuitRecorder *rec = nullptr);

/**
 * Append the lowering of a single gate to `out`; with `rec`, also each
 * appended gate's value id, for logical gate `source`.
 */
void lowerGate(const Gate &gate, Circuit &out,
               CircuitRecorder *rec = nullptr, int source = -1);

/** The U3 angles of a one-qubit logical gate. */
Gate u3FromGate(const Gate &gate);

}  // namespace geyser

#endif  // GEYSER_TRANSPILE_BASIS_HPP
