/**
 * @file
 * The parameterized block-composition ansatz of paper Fig 10: a column of
 * U3 gates, followed per layer by an entangler (CCZ for 3-qubit blocks,
 * CZ for 2-qubit blocks) and another U3 column. One layer of the 3-qubit
 * ansatz carries 18 angles + 1 categorical entangler configuration
 * (19 parameters); each extra layer adds 9 angles + 1 categorical
 * (29 for two layers), exactly as in the paper.
 *
 * CCZ is permutation-invariant, so in the default (paper) entangler mode
 * the categorical parameter selects the pulse-schedule orientation (which
 * atom receives the 2-pi pulse) and cannot change the unitary; the
 * Extended mode instead lets each layer choose among {CZ on one of the
 * three pairs, CCZ}, which does change both the unitary and the pulse
 * cost (an ablation of this repo).
 */
#ifndef GEYSER_COMPOSE_ANSATZ_HPP
#define GEYSER_COMPOSE_ANSATZ_HPP

#include <vector>

#include "circuit/circuit.hpp"
#include "linalg/matrix.hpp"

namespace geyser {

/** How the per-layer categorical parameter is interpreted. */
enum class EntanglerMode {
    PaperCcz,  ///< Every layer uses CCZ; categorical = pulse orientation.
    Extended,  ///< Layers choose among CZ(0,1), CZ(0,2), CZ(1,2), CCZ.
};

/** The discrete entangler choice of one layer (Extended mode). */
enum class Entangler : uint8_t { Cz01, Cz02, Cz12, Ccz, Cccz };

/**
 * Every supported entangler is a diagonal sign matrix that flips the
 * amplitude of exactly the basis states whose local bits cover `mask`:
 * row r is negated iff (r & mask) == mask. This is the representation
 * the incremental AnsatzEvaluator uses.
 */
int entanglerFlipMask(Entangler e, int num_qubits);

/**
 * A fixed-depth ansatz over 2 or 3 qubits. The angle vector layout is
 * column-major: (layers+1) columns of numQubits U3 gates, each gate
 * contributing (theta, phi, lambda) in order.
 */
class Ansatz
{
  public:
    /**
     * @param num_qubits 2, 3, or 4. The 4-qubit form (CCCZ entanglers,
     *        the paper's rejected square-lattice alternative, Sec 3.2)
     *        supports unitary() for composability studies;
     *        toCircuit() requires CCCZ hardware support and throws.
     * @param layers Number of entangler layers (>= 1).
     * @param entanglers Per-layer choice; for 2-qubit ansatze and
     *        PaperCcz mode this is ignored (CZ / CCZ respectively).
     */
    Ansatz(int num_qubits, int layers,
           std::vector<Entangler> entanglers = {});

    int numQubits() const { return numQubits_; }
    int layers() const { return layers_; }

    /** Per-layer entangler choices (after constructor normalization). */
    const std::vector<Entangler> &entanglers() const { return entanglers_; }

    /**
     * Flat angle index of (column, qubit, role) in the column-major
     * layout documented above; role is 0 = theta, 1 = phi, 2 = lambda.
     */
    int angleIndex(int col, int qubit, int role) const
    {
        return (col * numQubits_ + qubit) * 3 + role;
    }

    /** Number of angle parameters: numQubits * 3 * (layers + 1). */
    int numAngles() const { return numQubits_ * 3 * (layers_ + 1); }

    /**
     * Total parameter count as the paper reports it (angles plus one
     * categorical per layer): 19 for one 3-qubit layer, 29 for two.
     */
    int numParameters() const { return numAngles() + layers_; }

    /** Physical pulse cost: one per U3 plus 3 (CZ) or 5 (CCZ) per layer. */
    long pulses() const;

    /** The ansatz unitary for the given angles (2^n x 2^n). */
    Matrix unitary(const std::vector<double> &angles) const;

    /**
     * The ansatz unitary with every U3 given as a 2x2 unitary, global
     * phase included: u3s[col * numQubits + qubit]. unitary(angles) is
     * this product over u3Matrix of each angle triple.
     */
    Matrix unitary(const std::vector<Matrix2> &u3s) const;

    /** Materialize the ansatz as a physical circuit over local qubits. */
    Circuit toCircuit(const std::vector<double> &angles) const;

  private:
    Matrix entanglerMatrix(int layer) const;

    int numQubits_;
    int layers_;
    std::vector<Entangler> entanglers_;
};

}  // namespace geyser

#endif  // GEYSER_COMPOSE_ANSATZ_HPP
