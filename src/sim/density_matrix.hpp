/**
 * @file
 * Exact density-matrix simulator with Kraus noise channels — the exact
 * counterpart of the Monte-Carlo trajectory engine (the paper's IBMQ
 * noisy simulation is Kraus-based). Practical for up to ~7 qubits
 * (the state is 4^n complex numbers); used to validate the trajectory
 * simulator and for exact small-system studies.
 */
#ifndef GEYSER_SIM_DENSITY_MATRIX_HPP
#define GEYSER_SIM_DENSITY_MATRIX_HPP

#include "circuit/circuit.hpp"
#include "common/types.hpp"
#include "linalg/matrix.hpp"
#include "sim/noise.hpp"

namespace geyser {

/**
 * An n-qubit density matrix rho. Basis index bit k is qubit k, matching
 * StateVector.
 */
class DensityMatrix
{
  public:
    /** |0...0><0...0| over n qubits. */
    explicit DensityMatrix(int num_qubits);

    int numQubits() const { return numQubits_; }
    size_t dim() const { return size_t{1} << numQubits_; }

    const Matrix &rho() const { return rho_; }

    /** Apply a unitary gate: rho -> U rho U^dagger. */
    void apply(const Gate &gate);

    /** Apply every gate of a circuit (no noise). */
    void apply(const Circuit &circuit);

    /**
     * Apply the bit/phase-flip channel of `noise` to one qubit:
     * rho -> (1-p) rho + p P rho P for each enabled Pauli channel.
     */
    void applyFlipChannel(Qubit qubit, double bit_flip, double phase_flip);

    /**
     * Apply the amplitude-damping channel rho -> K0 rho K0^dagger +
     * K1 rho K1^dagger to one qubit, with K0 = diag(1, sqrt(1 - gamma))
     * and K1 = sqrt(gamma) |0><1|.
     */
    void applyAmplitudeDamping(Qubit qubit, double gamma);

    /**
     * Apply a gate followed by the noise model's per-gate channels on
     * its operands, in the trajectory engine's order: the bit/phase
     * flips, then amplitude damping. Other channels of `noise` are not
     * applied (see exactNoisyDistribution).
     */
    void applyNoisy(const Gate &gate, const NoiseModel &noise);

    /** Apply a whole circuit with noise after every gate. */
    void applyNoisy(const Circuit &circuit, const NoiseModel &noise);

    /** Measurement probabilities (the diagonal of rho). */
    Distribution probabilities() const;

    /** Tr(rho); 1 for a valid state. */
    double traceReal() const;

    /** Tr(rho^2); 1 for pure states, < 1 for mixed. */
    double purity() const;

  private:
    void applyMatrix(const Matrix &u, const std::vector<Qubit> &qubits);

    int numQubits_ = 0;
    Matrix rho_;
};

/**
 * Exact noisy output distribution (density-matrix evolution): the
 * channel noisyDistribution samples, for the rates it models — bit and
 * phase flips (per pulse with noise.perPulse) and amplitude damping.
 * A model with any other channel on (atomLoss, crosstalkPhase,
 * idleDephasing, lossPerGate, correlatedPauli, readoutError) is a
 * ValidationError naming each such field.
 */
Distribution exactNoisyDistribution(const Circuit &circuit,
                                    const NoiseModel &noise);

}  // namespace geyser

#endif  // GEYSER_SIM_DENSITY_MATRIX_HPP
