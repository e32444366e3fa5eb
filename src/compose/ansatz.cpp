#include "compose/ansatz.hpp"

#include <stdexcept>

namespace geyser {

Ansatz::Ansatz(int num_qubits, int layers, std::vector<Entangler> entanglers)
    : numQubits_(num_qubits), layers_(layers),
      entanglers_(std::move(entanglers))
{
    if (num_qubits < 2 || num_qubits > 4)
        throw std::invalid_argument("Ansatz: 2, 3, or 4 qubits only");
    if (layers < 1)
        throw std::invalid_argument("Ansatz: need at least one layer");
    if (entanglers_.empty())
        entanglers_.assign(static_cast<size_t>(layers),
                           num_qubits == 4   ? Entangler::Cccz
                           : num_qubits == 3 ? Entangler::Ccz
                                             : Entangler::Cz01);
    if (static_cast<int>(entanglers_.size()) != layers)
        throw std::invalid_argument("Ansatz: entangler count != layers");
    // Two-qubit ansatze always entangle with CZ, whatever the caller
    // tagged the layers with (keeps pulse accounting correct).
    if (numQubits_ == 2)
        entanglers_.assign(static_cast<size_t>(layers), Entangler::Cz01);
}

int
entanglerFlipMask(Entangler e, int num_qubits)
{
    if (num_qubits == 2)
        return 3;  // CZ regardless of the tag.
    if (num_qubits == 4)
        return 15;  // CCCZ.
    switch (e) {
      case Entangler::Ccz:
        return 7;
      case Entangler::Cz01:
        return 3;
      case Entangler::Cz02:
        return 5;
      case Entangler::Cz12:
        return 6;
      default:
        break;
    }
    throw std::logic_error("entanglerFlipMask: unhandled entangler");
}

long
Ansatz::pulses() const
{
    long total = static_cast<long>(numQubits_) * (layers_ + 1);  // U3 columns
    for (const auto e : entanglers_) {
        // Pulse pattern generalizes Fig 3: 2 pi pulses per control plus
        // one 2*pi pulse: CZ = 3, CCZ = 5, CCCZ = 7.
        total += e == Entangler::Cccz ? 7 : e == Entangler::Ccz ? 5 : 3;
    }
    return total;
}

Matrix
Ansatz::entanglerMatrix(int layer) const
{
    const Entangler e = entanglers_[static_cast<size_t>(layer)];
    if (numQubits_ == 2)
        return Matrix::diagonal({1, 1, 1, -1});
    if (numQubits_ == 4) {
        auto m = Matrix::identity(16);
        m(15, 15) = -1;  // CCCZ.
        return m;
    }
    switch (e) {
      case Entangler::Ccz: {
        auto m = Matrix::identity(8);
        m(7, 7) = -1;
        return m;
      }
      case Entangler::Cz01: {
        // -1 whenever local bits 0 and 1 are both set.
        auto m = Matrix::identity(8);
        m(3, 3) = m(7, 7) = -1;
        return m;
      }
      case Entangler::Cz02: {
        auto m = Matrix::identity(8);
        m(5, 5) = m(7, 7) = -1;
        return m;
      }
      case Entangler::Cz12: {
        auto m = Matrix::identity(8);
        m(6, 6) = m(7, 7) = -1;
        return m;
      }
      default:
        break;
    }
    throw std::logic_error("Ansatz: unhandled entangler");
}

Matrix
Ansatz::unitary(const std::vector<double> &angles) const
{
    if (static_cast<int>(angles.size()) != numAngles())
        throw std::invalid_argument("Ansatz::unitary: wrong angle count");
    std::vector<Matrix2> u3s;
    u3s.reserve(angles.size() / 3);
    for (size_t o = 0; o < angles.size(); o += 3)
        u3s.push_back(u3Matrix(angles[o], angles[o + 1], angles[o + 2]));
    return unitary(u3s);
}

Matrix
Ansatz::unitary(const std::vector<Matrix2> &u3s) const
{
    if (static_cast<int>(u3s.size()) != numQubits_ * (layers_ + 1))
        throw std::invalid_argument("Ansatz::unitary: wrong U3 count");

    auto column = [&](int col) {
        // Build kron over qubits with qubit 0 as least-significant:
        // U = u3(q_{n-1}) (x) ... (x) u3(q_0).
        const size_t base = static_cast<size_t>(col * numQubits_);
        Matrix u(u3s[base + static_cast<size_t>(numQubits_ - 1)]);
        for (int q = numQubits_ - 2; q >= 0; --q)
            u = u.kron(Matrix(u3s[base + static_cast<size_t>(q)]));
        return u;
    };

    Matrix u = column(0);
    for (int l = 0; l < layers_; ++l)
        u = column(l + 1) * (entanglerMatrix(l) * u);
    return u;
}

Circuit
Ansatz::toCircuit(const std::vector<double> &angles) const
{
    if (numQubits_ == 4)
        throw std::logic_error(
            "Ansatz::toCircuit: 4-qubit ansatze are for composability "
            "studies only (no CCCZ gate kind in the IR)");
    if (static_cast<int>(angles.size()) != numAngles())
        throw std::invalid_argument("Ansatz::toCircuit: wrong angle count");
    Circuit out(numQubits_);
    auto emitColumn = [&](int col) {
        const int base = col * numQubits_ * 3;
        for (int q = 0; q < numQubits_; ++q) {
            const int o = base + q * 3;
            out.u3(q, angles[static_cast<size_t>(o)],
                   angles[static_cast<size_t>(o + 1)],
                   angles[static_cast<size_t>(o + 2)]);
        }
    };
    emitColumn(0);
    for (int l = 0; l < layers_; ++l) {
        if (numQubits_ == 2) {
            out.cz(0, 1);
        } else {
            switch (entanglers_[static_cast<size_t>(l)]) {
              case Entangler::Ccz:
                out.ccz(0, 1, 2);
                break;
              case Entangler::Cz01:
                out.cz(0, 1);
                break;
              case Entangler::Cz02:
                out.cz(0, 2);
                break;
              case Entangler::Cz12:
                out.cz(1, 2);
                break;
              case Entangler::Cccz:
                // Only 4-qubit ansatze use CCCZ; the guard above
                // rejects them.
                throw std::logic_error(
                    "Ansatz::toCircuit: CCCZ layer in a 3-qubit ansatz");
            }
        }
        emitColumn(l + 1);
    }
    return out;
}

}  // namespace geyser
