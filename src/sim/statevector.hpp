/**
 * @file
 * Dense statevector simulator: exact ideal-output computation for the
 * TVD evaluation and the engine behind the unitary builder and the noisy
 * trajectory simulator.
 */
#ifndef GEYSER_SIM_STATEVECTOR_HPP
#define GEYSER_SIM_STATEVECTOR_HPP

#include <array>
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
 *
 * Amplitude damping defers its no-jump Kraus operator (DESIGN §14,
 * "Per-gate work"): each storage bit b carries a factor f_b, and the
 * stored amplitudes s stand for the state D s / |D s| with
 * D = (x)_b diag(1, f_b). A step that cannot jump only multiplies f_b;
 * the next one-qubit unitary on the atom absorbs it, and X, Y, a dense
 * gate of two or more qubits and a step that can jump apply it to the
 * state first. probabilities() applies D and the normalization.
 * amplitudes(), probOne(), innerProduct() and normSquared() read s as
 * stored: for a state that a damping step left unnormalized they are
 * not the state's own values (probOne is not a probability then).
 */
class StateVector
{
  public:
    /** Widest register a StateVector holds. */
    static constexpr int kMaxQubits = 28;

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

    /**
     * Sum of |amplitude|^2 over the stored amplitudes with qubit q = 1:
     * the probability that q reads 1 unless damping left deferred
     * factors or an unnormalized state (see the class comment).
     */
    double probOne(Qubit q) const;

    /**
     * One amplitude-damping (T1) trajectory step on qubit q: the state
     * jumps (K1, the qubit collapses to |0>) when
     * u < gamma * min(1, P(q = 1)); otherwise the no-jump Kraus
     * K0 = diag(1, sqrt(1 - gamma)) applies. `u` is the caller's
     * uniform [0, 1) draw (passed in so the RNG stream stays with the
     * noise channel). A draw u >= gamma cannot jump whatever the state,
     * so it only multiplies q's deferred factor by sqrt(1 - gamma) and
     * reads no amplitude. A draw u < gamma applies every deferred
     * factor, decides on the normalized P(q = 1) and renormalizes the
     * state in either branch. Returns true when the jump occurred.
     */
    bool applyAmplitudeDamping(Qubit q, double gamma, double u);

    /**
     * Probability per basis state of the whole register (2^n): the
     * deferred factors applied and the result normalized. A state that
     * no deferred damping step left unnormalized gives |amplitude|^2.
     */
    Distribution probabilities() const;

    /**
     * Inner product <this|other> of the stored amplitudes; both must pin
     * the same qubits.
     */
    Complex innerProduct(const StateVector &other) const;

    /** Sum of |amplitude|^2 over the stored amplitudes. */
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
    /** U on storage bit `slot`, absorbing its deferred factor. */
    void apply1qAt(const Matrix2 &u, int slot);
    void applyMatrixAt(const Matrix &m, const int *slots, int k);

    /**
     * Multiply the |1> half of each storage bit of `bits` that has a
     * deferred factor by it, in increasing bit order.
     */
    void flushFactors(size_t bits);

    int numQubits_ = 0;
    /** Basis-index mask of the qubits that get amplitudes. */
    size_t simulated_ = 0;
    std::vector<Complex> amps_;
    /** Deferred no-jump factor per storage bit; read where pending_. */
    std::array<double, kMaxQubits> factor_{};
    /** Storage bits whose factor is not yet applied to amps_. */
    size_t pending_ = 0;
    /**
     * True from a deferred damping step until the next renormalization:
     * the stored norm may then be below 1.
     */
    bool unnormalized_ = false;
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
