/**
 * @file
 * Quantum gate representation: logical gates (as emitted by the benchmark
 * generators) and the physical gates natively supported by the neutral-atom
 * architecture ({U3, CZ, CCZ}, paper Sec 2.2).
 *
 * Pulse costs follow the paper: U3 is one Raman pulse, CZ is three Rydberg
 * pulses, CCZ is five Rydberg pulses (Fig 3).
 */
#ifndef GEYSER_CIRCUIT_GATE_HPP
#define GEYSER_CIRCUIT_GATE_HPP

#include <array>
#include <string>

#include "common/types.hpp"
#include "linalg/matrix.hpp"

namespace geyser {

/** All gate kinds known to the IR. */
enum class GateKind : uint8_t {
    // Physical basis of the neutral-atom architecture.
    U3,    ///< General one-qubit rotation U3(theta, phi, lambda); 1 pulse.
    CZ,    ///< Controlled-Z; 3 pulses.
    CCZ,   ///< Doubly-controlled Z; 5 pulses.
    // Logical one-qubit gates.
    I, X, Y, Z, H, S, SDG, T, TDG,
    RX,    ///< RX(theta)
    RY,    ///< RY(theta)
    RZ,    ///< RZ(theta)
    P,     ///< Phase gate P(lambda) = diag(1, e^{i lambda})
    // Logical multi-qubit gates.
    CX,    ///< CNOT: qubits[0] control, qubits[1] target.
    CP,    ///< Controlled phase CP(lambda).
    RZZ,   ///< exp(-i theta/2 Z(x)Z)
    RXX,   ///< exp(-i theta/2 X(x)X)
    RYY,   ///< exp(-i theta/2 Y(x)Y)
    SWAP,  ///< Exchange two qubit states.
    CCX,   ///< Toffoli: qubits[0,1] controls, qubits[2] target.
};

/** Short mnemonic for a gate kind ("u3", "cz", ...). */
const char *gateKindName(GateKind kind);

/** Parse a mnemonic back to a kind; throws on unknown names. */
GateKind gateKindFromName(const std::string &name);

/** Number of qubits a gate kind acts on (1, 2, or 3). */
int gateKindArity(GateKind kind);

/** Number of angle parameters a kind carries (0..3). */
int gateKindParamCount(GateKind kind);

/** True for members of the physical basis {U3, CZ, CCZ}. */
bool gateKindIsPhysical(GateKind kind);

/**
 * A gate instance: a kind, the qubits it acts on, and its parameters.
 * Stored compactly (fixed arrays) because circuits reach tens of
 * thousands of gates.
 */
class Gate
{
  public:
    Gate() = default;

    /** One-qubit gate. */
    Gate(GateKind kind, Qubit q, double p0 = 0.0, double p1 = 0.0,
         double p2 = 0.0);

    /** Two-qubit gate. */
    Gate(GateKind kind, Qubit a, Qubit b, double p0 = 0.0);

    /** Three-qubit gate. */
    Gate(GateKind kind, Qubit a, Qubit b, Qubit c);

    GateKind kind() const { return kind_; }
    int numQubits() const { return numQubits_; }
    int numParams() const { return gateKindParamCount(kind_); }

    /** The i-th operand qubit. qubits(0) is the local least-significant bit
     *  in matrix(); for controlled gates the controls come first. */
    Qubit qubit(int i) const { return qubits_[static_cast<size_t>(i)]; }

    /** Mutable operand access (used by layout application / remapping). */
    void setQubit(int i, Qubit q) { qubits_[static_cast<size_t>(i)] = q; }

    double param(int i) const { return params_[static_cast<size_t>(i)]; }
    void setParam(int i, double v) { params_[static_cast<size_t>(i)] = v; }

    /** True if this is a physical-basis gate. */
    bool isPhysical() const { return gateKindIsPhysical(kind_); }

    /** True if the gate entangles (acts on 2+ qubits). */
    bool isEntangling() const { return numQubits_ >= 2; }

    /** True if this gate involves qubit q. */
    bool actsOn(Qubit q) const;

    /**
     * Number of physical light pulses needed (paper Fig 3): U3 = 1,
     * CZ = 3, CCZ = 5. Only valid for physical gates; throws otherwise.
     */
    int pulses() const;

    /**
     * The 2^k x 2^k unitary of this gate over its own qubits, with
     * qubit(0) as the least-significant bit of the local basis index.
     * For a one-qubit gate it holds matrix2()'s entries.
     */
    Matrix matrix() const;

    /** The 2x2 unitary of a one-qubit gate; throws for wider gates. */
    Matrix2 matrix2() const;

    /** The inverse gate (same qubits): U3/rotations negate angles,
     *  S <-> SDG, T <-> TDG, self-inverse kinds unchanged. */
    Gate inverse() const;

    /** Mnemonic plus operands plus parameters, e.g. "cx q0, q3". */
    std::string toString() const;

    bool operator==(const Gate &rhs) const;

  private:
    GateKind kind_ = GateKind::I;
    int8_t numQubits_ = 1;
    std::array<Qubit, 3> qubits_{{0, 0, 0}};
    std::array<double, 3> params_{{0.0, 0.0, 0.0}};
};

/** The U3 unitary (paper Sec 2.1). */
Matrix2 u3Matrix(double theta, double phi, double lambda);

/** Pulse cost of a physical gate kind. */
int pulsesForKind(GateKind kind);

}  // namespace geyser

#endif  // GEYSER_CIRCUIT_GATE_HPP
