/**
 * @file
 * Dense statevector simulator: exact ideal-output computation for the
 * TVD evaluation and the engine behind the unitary builder and the noisy
 * trajectory simulator.
 */
#ifndef GEYSER_SIM_STATEVECTOR_HPP
#define GEYSER_SIM_STATEVECTOR_HPP

#include <vector>

#include "circuit/circuit.hpp"
#include "common/types.hpp"
#include "linalg/matrix.hpp"

namespace geyser {

/**
 * State of an n-qubit register. Basis index bit k is the value of qubit
 * k (qubit 0 = least-significant bit).
 *
 * A register may pin some of its qubits to |0>: only the simulated
 * qubits get amplitudes, so the storage holds 2^s entries for s
 * simulated qubits, with storage bit j the j-th simulated qubit in
 * increasing order. Every method still takes register indices. Z on a
 * pinned qubit is a no-op (Z|0> = |0>) and probOne() of one is 0; X, Y,
 * amplitude damping or a gate on one is a logic error and throws
 * std::logic_error. probabilities() widens back to all 2^n outcomes.
 */
class StateVector
{
  public:
    /** |0...0> over n qubits. */
    explicit StateVector(int num_qubits);

    /** Basis state |index> over n qubits. */
    StateVector(int num_qubits, size_t basis_index);

    /**
     * |0...0> over n qubits where only the qubits whose bit is set in
     * `simulated` (a basis-index mask) get amplitudes; the others are
     * pinned to |0>.
     */
    static StateVector pinned(int num_qubits, size_t simulated);

    int numQubits() const { return numQubits_; }

    /** Stored amplitudes: 2^(simulated qubits). */
    size_t dim() const { return amps_.size(); }

    /** The stored amplitudes, indexed as described on the class. */
    const std::vector<Complex> &amplitudes() const { return amps_; }
    std::vector<Complex> &amplitudes() { return amps_; }

    /** Apply an arbitrary gate (logical or physical, 1-3 qubits). */
    void apply(const Gate &gate);

    /** Apply every gate of a circuit in order. */
    void apply(const Circuit &circuit);

    /**
     * Apply the one-qubit unitary u to qubit q. apply(gate) runs every
     * one-qubit gate but X, Y and Z (see usesMatrix2) through this with
     * gate.matrix2(), so a caller that applies one gate many times may
     * build u once and get the same amplitudes bit for bit.
     */
    void apply(const Matrix2 &u, Qubit q);

    /**
     * True when apply(gate) applies gate.matrix2() through apply(u, q):
     * a one-qubit gate other than X, Y and Z, which keep fast paths.
     */
    static bool usesMatrix2(const Gate &gate);

    /**
     * Apply a k-qubit matrix to the given qubits; qubits[0] is the local
     * least-significant bit. The matrix must be 2^k x 2^k.
     */
    void applyMatrix(const Matrix &m, const std::vector<Qubit> &qubits);

    /** Fast Pauli-X on one qubit (used by the noise trajectory sim). */
    void applyX(Qubit q);

    /** Fast Pauli-Z on one qubit. */
    void applyZ(Qubit q);

    /** Fast Pauli-Y on one qubit. */
    void applyY(Qubit q);

    /** Probability that qubit q reads 1. */
    double probOne(Qubit q) const;

    /**
     * One amplitude-damping (T1) trajectory step on qubit q: with
     * probability gamma * P(q = 1) the state jumps (K1, the qubit
     * collapses to |0>); otherwise the no-jump Kraus K0 =
     * diag(1, sqrt(1 - gamma)) is applied. Either branch renormalizes.
     * `u` is the caller's uniform [0, 1) draw deciding the branch
     * (passed in so the RNG stream stays with the noise channel).
     * Returns true when the jump occurred.
     */
    bool applyAmplitudeDamping(Qubit q, double gamma, double u);

    /** |amplitude|^2 per basis state of the whole register (2^n). */
    Distribution probabilities() const;

    /** Inner product <this|other>; both must pin the same qubits. */
    Complex innerProduct(const StateVector &other) const;

    /** Sum of |amplitude|^2 (should be 1 for a valid state). */
    double normSquared() const;

  private:
    StateVector(int num_qubits, size_t simulated, size_t basis_index);

    /** True for a register qubit that gets no amplitudes. */
    bool isPinned(Qubit q) const
    {
        return q >= 0 && q < numQubits_ && !((simulated_ >> q) & 1);
    }

    /** Storage bit of qubit q; throws std::logic_error if q is pinned. */
    int slotOf(Qubit q) const;

    /**
     * The kernels, on storage bits. Each visits only the amplitudes it
     * changes, in increasing index order (DESIGN §14, "Per-gate work").
     */
    void applyXAt(size_t mask);
    void applyYAt(size_t mask);
    /** Negate every amplitude whose index has all bits of `mask` set. */
    void negateWhereSet(size_t mask);
    void apply1qAt(const Matrix2 &u, int slot);
    void applyMatrixAt(const Matrix &m, const int *slots, int k);

    int numQubits_ = 0;
    /** Basis-index mask of the qubits that get amplitudes. */
    size_t simulated_ = 0;
    std::vector<Complex> amps_;
};

/** Ideal output distribution of a circuit started from |0...0>. */
Distribution idealDistribution(const Circuit &circuit);

/**
 * The readout of a lost atom: each pair of outcomes of `p` that differ
 * only in qubit q gets the pair's mean, so q reads 0 or 1 with equal
 * odds. `p` covers a whole register (2^n entries, q < n).
 */
void depolarizeOutcome(Distribution &p, Qubit q);

/**
 * The symmetric readout confusion matrix on qubit q of `p`: each pair
 * (p0, p1) that differs only in q becomes ((1 - flip) p0 + flip p1,
 * flip p0 + (1 - flip) p1). `p` covers a whole register (q < n).
 */
void applyReadoutFlip(Distribution &p, Qubit q, double flip);

}  // namespace geyser

#endif  // GEYSER_SIM_STATEVECTOR_HPP
