#include "circuit/gate.hpp"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace geyser {

namespace {

struct KindInfo
{
    const char *name;
    int arity;
    int params;
};

const KindInfo &
kindInfo(GateKind kind)
{
    static const KindInfo table[] = {
        {"u3", 1, 3},   // U3
        {"cz", 2, 0},   // CZ
        {"ccz", 3, 0},  // CCZ
        {"id", 1, 0},   // I
        {"x", 1, 0},    // X
        {"y", 1, 0},    // Y
        {"z", 1, 0},    // Z
        {"h", 1, 0},    // H
        {"s", 1, 0},    // S
        {"sdg", 1, 0},  // SDG
        {"t", 1, 0},    // T
        {"tdg", 1, 0},  // TDG
        {"rx", 1, 1},   // RX
        {"ry", 1, 1},   // RY
        {"rz", 1, 1},   // RZ
        {"p", 1, 1},    // P
        {"cx", 2, 0},   // CX
        {"cp", 2, 1},   // CP
        {"rzz", 2, 1},  // RZZ
        {"rxx", 2, 1},  // RXX
        {"ryy", 2, 1},  // RYY
        {"swap", 2, 0}, // SWAP
        {"ccx", 3, 0},  // CCX
    };
    return table[static_cast<size_t>(kind)];
}

}  // namespace

const char *
gateKindName(GateKind kind)
{
    return kindInfo(kind).name;
}

GateKind
gateKindFromName(const std::string &name)
{
    for (int k = 0; k <= static_cast<int>(GateKind::CCX); ++k) {
        const auto kind = static_cast<GateKind>(k);
        if (name == kindInfo(kind).name)
            return kind;
    }
    throw std::invalid_argument("unknown gate mnemonic: " + name);
}

int
gateKindArity(GateKind kind)
{
    return kindInfo(kind).arity;
}

int
gateKindParamCount(GateKind kind)
{
    return kindInfo(kind).params;
}

bool
gateKindIsPhysical(GateKind kind)
{
    return kind == GateKind::U3 || kind == GateKind::CZ ||
           kind == GateKind::CCZ;
}

Gate::Gate(GateKind kind, Qubit q, double p0, double p1, double p2)
    : kind_(kind), numQubits_(1), qubits_{{q, 0, 0}}, params_{{p0, p1, p2}}
{
    assert(gateKindArity(kind) == 1);
}

Gate::Gate(GateKind kind, Qubit a, Qubit b, double p0)
    : kind_(kind), numQubits_(2), qubits_{{a, b, 0}}, params_{{p0, 0.0, 0.0}}
{
    assert(gateKindArity(kind) == 2);
    assert(a != b);
}

Gate::Gate(GateKind kind, Qubit a, Qubit b, Qubit c)
    : kind_(kind), numQubits_(3), qubits_{{a, b, c}}, params_{{0.0, 0.0, 0.0}}
{
    assert(gateKindArity(kind) == 3);
    assert(a != b && b != c && a != c);
}

bool
Gate::actsOn(Qubit q) const
{
    for (int i = 0; i < numQubits_; ++i)
        if (qubits_[static_cast<size_t>(i)] == q)
            return true;
    return false;
}

int
Gate::pulses() const
{
    return pulsesForKind(kind_);
}

int
pulsesForKind(GateKind kind)
{
    switch (kind) {
      case GateKind::U3:
        return 1;
      case GateKind::CZ:
        return 3;
      case GateKind::CCZ:
        return 5;
      default:
        throw std::logic_error(
            std::string("pulses() on non-physical gate: ") +
            gateKindName(kind));
    }
}

Matrix2
u3Matrix(double theta, double phi, double lambda)
{
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    return Matrix2(c, -std::exp(kI * lambda) * s,
                   std::exp(kI * phi) * s, std::exp(kI * (phi + lambda)) * c);
}

Matrix2
Gate::matrix2() const
{
    const double p0 = params_[0];
    switch (kind_) {
      case GateKind::U3:
        return u3Matrix(params_[0], params_[1], params_[2]);
      case GateKind::I:
        return Matrix2::identity();
      case GateKind::X:
        return Matrix2(0, 1, 1, 0);
      case GateKind::Y:
        return Matrix2(0, -kI, kI, 0);
      case GateKind::Z:
        return Matrix2(1, 0, 0, -1);
      case GateKind::H: {
        const double r = 1.0 / std::sqrt(2.0);
        return Matrix2(r, r, r, -r);
      }
      case GateKind::S:
        return Matrix2(1, 0, 0, kI);
      case GateKind::SDG:
        return Matrix2(1, 0, 0, -kI);
      case GateKind::T:
        return Matrix2(1, 0, 0, std::exp(kI * (kPi / 4.0)));
      case GateKind::TDG:
        return Matrix2(1, 0, 0, std::exp(-kI * (kPi / 4.0)));
      case GateKind::RX: {
        const double c = std::cos(p0 / 2.0), s = std::sin(p0 / 2.0);
        return Matrix2(c, -kI * s, -kI * s, c);
      }
      case GateKind::RY: {
        const double c = std::cos(p0 / 2.0), s = std::sin(p0 / 2.0);
        return Matrix2(c, -s, s, c);
      }
      case GateKind::RZ:
        return Matrix2(std::exp(-kI * (p0 / 2.0)), 0, 0,
                       std::exp(kI * (p0 / 2.0)));
      case GateKind::P:
        return Matrix2(1, 0, 0, std::exp(kI * p0));
      default:
        break;
    }
    throw std::logic_error(std::string("Gate::matrix2: not a one-qubit "
                                       "gate: ") +
                           gateKindName(kind_));
}

Matrix
Gate::matrix() const
{
    if (numQubits_ == 1)
        return Matrix(matrix2());
    const double p0 = params_[0];
    switch (kind_) {
      case GateKind::CZ:
        return Matrix::diagonal({1, 1, 1, -1});
      case GateKind::CX: {
        // qubit(0) = control = local LSB; qubit(1) = target.
        // Local basis index = b_target*2 + b_control.
        Matrix m(4, 4);
        m(0, 0) = 1;  // |00> -> |00>
        m(3, 1) = 1;  // |01> (control=1) -> |11>
        m(2, 2) = 1;  // |10> -> |10>
        m(1, 3) = 1;  // |11> -> |01>
        return m;
      }
      case GateKind::CP:
        return Matrix::diagonal({1, 1, 1, std::exp(kI * p0)});
      case GateKind::RZZ: {
        const Complex em = std::exp(-kI * (p0 / 2.0));
        const Complex ep = std::exp(kI * (p0 / 2.0));
        return Matrix::diagonal({em, ep, ep, em});
      }
      case GateKind::RXX: {
        const double c = std::cos(p0 / 2.0), s = std::sin(p0 / 2.0);
        Matrix m(4, 4);
        for (int i = 0; i < 4; ++i)
            m(i, i) = c;
        m(0, 3) = m(3, 0) = m(1, 2) = m(2, 1) = -kI * s;
        return m;
      }
      case GateKind::RYY: {
        const double c = std::cos(p0 / 2.0), s = std::sin(p0 / 2.0);
        Matrix m(4, 4);
        for (int i = 0; i < 4; ++i)
            m(i, i) = c;
        m(0, 3) = m(3, 0) = kI * s;
        m(1, 2) = m(2, 1) = -kI * s;
        return m;
      }
      case GateKind::SWAP: {
        Matrix m(4, 4);
        m(0, 0) = m(3, 3) = 1;
        m(1, 2) = m(2, 1) = 1;
        return m;
      }
      case GateKind::CCZ: {
        auto m = Matrix::identity(8);
        m(7, 7) = -1;
        return m;
      }
      case GateKind::CCX: {
        // Controls = qubit(0), qubit(1) (local bits 0 and 1); target =
        // qubit(2) (local bit 2). Flip bit 2 when bits 0 and 1 are set.
        Matrix m = Matrix::identity(8);
        m(3, 3) = m(7, 7) = 0;
        m(7, 3) = m(3, 7) = 1;
        return m;
      }
      default:
        break;
    }
    throw std::logic_error("Gate::matrix: unhandled kind");
}

Gate
Gate::inverse() const
{
    Gate g = *this;
    switch (kind_) {
      case GateKind::U3:
        // U3(t, p, l)^dagger = U3(-t, -l, -p).
        g.params_[0] = -params_[0];
        g.params_[1] = -params_[2];
        g.params_[2] = -params_[1];
        return g;
      case GateKind::S:
        g.kind_ = GateKind::SDG;
        return g;
      case GateKind::SDG:
        g.kind_ = GateKind::S;
        return g;
      case GateKind::T:
        g.kind_ = GateKind::TDG;
        return g;
      case GateKind::TDG:
        g.kind_ = GateKind::T;
        return g;
      case GateKind::RX:
      case GateKind::RY:
      case GateKind::RZ:
      case GateKind::P:
      case GateKind::CP:
      case GateKind::RZZ:
      case GateKind::RXX:
      case GateKind::RYY:
        g.params_[0] = -params_[0];
        return g;
      default:
        // Remaining kinds (I, X, Y, Z, H, CZ, CX, SWAP, CCX, CCZ) are
        // self-inverse.
        return g;
    }
}

std::string
Gate::toString() const
{
    std::string out = gateKindName(kind_);
    const int np = numParams();
    if (np > 0) {
        out += "(";
        char buf[32];
        for (int i = 0; i < np; ++i) {
            std::snprintf(buf, sizeof(buf), "%.6g",
                          params_[static_cast<size_t>(i)]);
            out += buf;
            if (i + 1 < np)
                out += ", ";
        }
        out += ")";
    }
    out += " ";
    for (int i = 0; i < numQubits_; ++i) {
        out += "q" + std::to_string(qubits_[static_cast<size_t>(i)]);
        if (i + 1 < numQubits_)
            out += ", ";
    }
    return out;
}

bool
Gate::operator==(const Gate &rhs) const
{
    if (kind_ != rhs.kind_ || numQubits_ != rhs.numQubits_)
        return false;
    for (int i = 0; i < numQubits_; ++i)
        if (qubits_[static_cast<size_t>(i)] != rhs.qubits_[static_cast<size_t>(i)])
            return false;
    for (int i = 0; i < numParams(); ++i)
        if (params_[static_cast<size_t>(i)] != rhs.params_[static_cast<size_t>(i)])
            return false;
    return true;
}

}  // namespace geyser
