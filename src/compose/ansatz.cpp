#include "compose/ansatz.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "linalg/kernels/backend.hpp"

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

    auto column = [&](int col) {
        // Build kron over qubits with qubit 0 as least-significant:
        // U = u3(q_{n-1}) (x) ... (x) u3(q_0).
        const int base = col * numQubits_ * 3;
        auto u3At = [&](int o) {
            return Matrix(u3Matrix(angles[static_cast<size_t>(o)],
                                   angles[static_cast<size_t>(o + 1)],
                                   angles[static_cast<size_t>(o + 2)]));
        };
        Matrix u = u3At(base + (numQubits_ - 1) * 3);
        for (int q = numQubits_ - 2; q >= 0; --q)
            u = u.kron(u3At(base + q * 3));
        return u;
    };

    Matrix u = column(0);
    for (int l = 0; l < layers_; ++l)
        u = column(l + 1) * (entanglerMatrix(l) * u);
    return u;
}

Complex
Ansatz::overlapTrace(const Matrix &target,
                     const std::vector<double> &angles) const
{
    const int dim = 1 << numQubits_;
    if (target.rows() != dim || target.cols() != dim)
        throw std::invalid_argument("overlapTrace: target dimension");
    if (static_cast<int>(angles.size()) != numAngles())
        throw std::invalid_argument("overlapTrace: wrong angle count");

    // cur = running product, built column by column. All buffers are
    // 16x16 max, split row-major, on the stack. The matrix algebra is
    // PINNED to the scalar reference backend: this path is the 1e-12
    // oracle every SIMD backend is property-tested against, so its
    // arithmetic must not move when dispatch selects a different ISA.
    const kernels::ComputeBackend &kernel = kernels::reference();
    double curRe[256], curIm[256], tmpRe[256], tmpIm[256];
    double colRe[256], colIm[256];
    double u3sRe[4][4], u3sIm[4][4];

    auto loadColumn = [&](int col) {
        const int base = col * numQubits_ * 3;
        for (int q = 0; q < numQubits_; ++q)
            kernels::u3Entries(
                angles[static_cast<size_t>(base + q * 3)],
                angles[static_cast<size_t>(base + q * 3 + 1)],
                angles[static_cast<size_t>(base + q * 3 + 2)], u3sRe[q],
                u3sIm[q]);
    };
    // Kronecker entry C(r,c) = prod_q u3_q[r_q, c_q].
    auto buildColumn = [&](double *re, double *im) {
        for (int r = 0; r < dim; ++r) {
            for (int c = 0; c < dim; ++c) {
                double vre = 1.0, vim = 0.0;
                for (int q = 0; q < numQubits_; ++q) {
                    const int e = ((r >> q) & 1) * 2 + ((c >> q) & 1);
                    const double ure = u3sRe[q][e], uim = u3sIm[q][e];
                    const double nre = vre * ure - vim * uim;
                    vim = vre * uim + vim * ure;
                    vre = nre;
                }
                re[r * dim + c] = vre;
                im[r * dim + c] = vim;
            }
        }
    };

    loadColumn(0);
    buildColumn(curRe, curIm);

    for (int l = 0; l < layers_; ++l) {
        // Diagonal entangler: flip the sign of the affected rows.
        kernel.flipRows(
            curRe, curIm,
            entanglerFlipMask(entanglers_[static_cast<size_t>(l)],
                              numQubits_),
            dim);
        // cur = column(l+1) * cur.
        loadColumn(l + 1);
        buildColumn(colRe, colIm);
        kernel.matmul(colRe, colIm, curRe, curIm, tmpRe, tmpIm, dim);
        std::memcpy(curRe, tmpRe,
                    sizeof(double) * static_cast<size_t>(dim * dim));
        std::memcpy(curIm, tmpIm,
                    sizeof(double) * static_cast<size_t>(dim * dim));
    }

    // sum conj(target) . cur, elementwise over the full matrices.
    double tgtRe[256], tgtIm[256];
    for (int r = 0; r < dim; ++r) {
        for (int c = 0; c < dim; ++c) {
            const Complex v = target(r, c);
            tgtRe[r * dim + c] = v.real();
            tgtIm[r * dim + c] = v.imag();
        }
    }
    double tre = 0.0, tim = 0.0;
    kernels::traceConjDot(tgtRe, tgtIm, curRe, curIm,
                          static_cast<size_t>(dim) * static_cast<size_t>(dim),
                          &tre, &tim);
    return {tre, tim};
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
            }
        }
        emitColumn(l + 1);
    }
    return out;
}

}  // namespace geyser
