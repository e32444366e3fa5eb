/**
 * @file
 * One-qubit resynthesis: recover U3(theta, phi, lambda) angles (plus a
 * global phase) from an arbitrary 2x2 unitary. This powers single-qubit
 * gate fusion (any product of one-qubit gates collapses to one U3) and
 * the analytic shortcut in block composition.
 */
#ifndef GEYSER_TRANSPILE_ZYZ_HPP
#define GEYSER_TRANSPILE_ZYZ_HPP

#include "circuit/gate.hpp"
#include "linalg/matrix.hpp"

namespace geyser {

/** U3 angles plus the global phase gamma: V = e^{i gamma} U3(...). */
struct U3Params
{
    double theta = 0.0;
    double phi = 0.0;
    double lambda = 0.0;
    double phase = 0.0;
};

/**
 * Decompose a 2x2 unitary into U3 angles. The reconstruction
 * e^{i phase} U3(theta, phi, lambda) equals the input to ~1e-12.
 * Throws ValidationError if the input is not unitary (a NaN entry
 * included).
 */
U3Params u3FromMatrix(const Matrix2 &u);

/** True if the 2x2 unitary is the identity up to global phase. */
bool isIdentityUpToPhase(const Matrix2 &u, double tol = 1e-9);

}  // namespace geyser

#endif  // GEYSER_TRANSPILE_ZYZ_HPP
