#include "transpile/record.hpp"

#include <array>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "transpile/basis.hpp"
#include "transpile/passes.hpp"
#include "transpile/zyz.hpp"

// No ISA flags in this translation unit: replay() inlines
// Matrix2::operator*, which must compute what passes.cpp's does.

namespace geyser {

namespace {

/** Width, gate kinds, arities and operands equal; angles ignored. */
bool
sameStructure(const Circuit &a, const Circuit &b)
{
    if (a.numQubits() != b.numQubits() || a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        const Gate &ga = a.gates()[i];
        const Gate &gb = b.gates()[i];
        if (ga.kind() != gb.kind() || ga.numQubits() != gb.numQubits())
            return false;
        for (int q = 0; q < ga.numQubits(); ++q)
            if (ga.qubit(q) != gb.qubit(q))
                return false;
    }
    return true;
}

}  // namespace

TranspileRecord::TranspileRecord(const Circuit &logical) : logical_(logical)
{
}

int
TranspileRecord::add(Op op, int a, int b, uint8_t flag)
{
    const uint64_t key = static_cast<uint64_t>(op) |
                         static_cast<uint64_t>(flag) << 4 |
                         static_cast<uint64_t>(a) << 8 |
                         static_cast<uint64_t>(b) << 36;
    const auto [it, fresh] = seen_.emplace(key, kConst);
    if (!fresh)
        return it->second;
    switch (op) {
      case Op::Input:
      case Op::Lowered:
      case Op::Lambda:
      case Op::Resynthesis:
        it->second = triples_++;
        break;
      case Op::Matrix:
      case Op::Product:
      case Op::ProductConstL:
      case Op::ProductConstR:
        it->second = matrices_++;
        break;
      default:
        break;  // A test writes nothing.
    }
    steps_.push_back({op, flag, a, b, it->second});
    return it->second;
}

int
TranspileRecord::constant(const Matrix2 &value)
{
    for (size_t i = 0; i < constants_.size(); ++i)
        if (std::memcmp(constants_[i].data(), value.data(),
                        4 * sizeof(Complex)) == 0)
            return static_cast<int>(i);
    constants_.push_back(value);
    return static_cast<int>(constants_.size() - 1);
}

int
TranspileRecord::input(int gate)
{
    return add(Op::Input, gate, 0, 0);
}

int
TranspileRecord::lowered(int gate)
{
    return add(Op::Lowered, gate, 0, 0);
}

int
TranspileRecord::lambda(int gate, Lambda formula)
{
    return add(Op::Lambda, gate, 0, static_cast<uint8_t>(formula));
}

int
TranspileRecord::matrix(int triple)
{
    if (triple == kConst)
        return kConst;
    return add(Op::Matrix, triple, 0, 0);
}

int
TranspileRecord::product(int left, const Matrix2 &leftValue, int right,
                         const Matrix2 &rightValue)
{
    if (left == kConst && right == kConst)
        return kConst;
    if (left == kConst)
        return add(Op::ProductConstL, constant(leftValue), right, 0);
    if (right == kConst)
        return add(Op::ProductConstR, left, constant(rightValue), 0);
    return add(Op::Product, left, right, 0);
}

int
TranspileRecord::resynthesis(int matrix)
{
    if (matrix == kConst)
        return kConst;
    return add(Op::Resynthesis, matrix, 0, 0);
}

void
TranspileRecord::identityTest(int matrix, bool identity)
{
    if (matrix != kConst)
        add(Op::IdentityTest, matrix, 0, identity ? 1 : 0);
}

void
TranspileRecord::loneIdentityTest(int triple, bool identity)
{
    if (triple != kConst)
        add(Op::LoneIdentity, triple, 0, identity ? 1 : 0);
}

void
TranspileRecord::finiteTest(int triple)
{
    if (triple != kConst)
        add(Op::FiniteTest, triple, 0, 0);
}

void
TranspileRecord::diagonalTest(int triple, bool diagonal)
{
    if (triple != kConst)
        add(Op::DiagonalTest, triple, 0, diagonal ? 1 : 0);
}

void
TranspileRecord::finish(const std::vector<int> &ids)
{
    outputs_.clear();
    outputSize_ = ids.size();
    for (size_t i = 0; i < ids.size(); ++i)
        if (ids[i] != kConst)
            outputs_.emplace_back(static_cast<int>(i), ids[i]);
    seen_.clear();
}

bool
TranspileRecord::replay(const Circuit &logical, Circuit &out) const
{
    if (!sameStructure(logical, logical_) || out.size() != outputSize_)
        return false;
    const std::vector<Gate> &gates = logical.gates();
    std::vector<std::array<double, 3>> triples(static_cast<size_t>(triples_));
    std::vector<Matrix2> matrices(static_cast<size_t>(matrices_));
    auto triple = [&](int id) -> std::array<double, 3> & {
        return triples[static_cast<size_t>(id)];
    };
    auto matrix = [&](int id) -> Matrix2 & {
        return matrices[static_cast<size_t>(id)];
    };
    auto gate = [&](int id) -> const Gate & {
        return gates[static_cast<size_t>(id)];
    };
    try {
        for (const Step &s : steps_) {
            switch (s.op) {
              case Op::Input: {
                const Gate &g = gate(s.a);
                triple(s.out) = {g.param(0), g.param(1), g.param(2)};
                break;
              }
              case Op::Lowered: {
                const Gate u = u3FromGate(gate(s.a));
                triple(s.out) = {u.param(0), u.param(1), u.param(2)};
                break;
              }
              case Op::Lambda: {
                // lowerGate's formulas, operation for operation.
                const double a = gate(s.a).param(0);
                const double half = a / 2.0;
                const auto formula = static_cast<Lambda>(s.flag);
                triple(s.out) = {0.0, 0.0,
                                 formula == Lambda::Angle  ? a
                                 : formula == Lambda::Half ? half
                                                           : -half};
                break;
              }
              case Op::Matrix: {
                const auto &t = triple(s.a);
                matrix(s.out) = u3Matrix(t[0], t[1], t[2]);
                break;
              }
              case Op::Product:
                matrix(s.out) = matrix(s.a) * matrix(s.b);
                break;
              case Op::ProductConstL:
                matrix(s.out) =
                    constants_[static_cast<size_t>(s.a)] * matrix(s.b);
                break;
              case Op::ProductConstR:
                matrix(s.out) =
                    matrix(s.a) * constants_[static_cast<size_t>(s.b)];
                break;
              case Op::Resynthesis: {
                const U3Params p = u3FromMatrix(matrix(s.a));
                triple(s.out) = {p.theta, p.phi, p.lambda};
                break;
              }
              case Op::IdentityTest:
                if (isIdentityUpToPhase(matrix(s.a)) != (s.flag != 0))
                    return false;
                break;
              case Op::LoneIdentity: {
                const auto &t = triple(s.a);
                const bool identity =
                    mayBeIdentity(t[0]) &&
                    isIdentityUpToPhase(u3Matrix(t[0], t[1], t[2]));
                if (identity != (s.flag != 0))
                    return false;
                break;
              }
              case Op::FiniteTest:
                for (const double v : triple(s.a))
                    if (!std::isfinite(v))
                        return false;
                break;
              case Op::DiagonalTest:
                if (u3IsDiagonal(triple(s.a)[0]) != (s.flag != 0))
                    return false;
                break;
            }
        }
    } catch (const ValidationError &) {
        // u3FromMatrix's unitarity check: the transpile would throw.
        return false;
    }
    for (const auto &[index, id] : outputs_) {
        Gate &g = out.gates()[static_cast<size_t>(index)];
        const auto &t = triple(id);
        for (int p = 0; p < 3; ++p)
            g.setParam(p, t[static_cast<size_t>(p)]);
    }
    return true;
}

std::vector<uint8_t>
TranspileRecord::dependents(const std::vector<uint8_t> &slots) const
{
    auto slot = [&](int gate, int param) {
        const size_t i = static_cast<size_t>(gate) * 3 +
                         static_cast<size_t>(param);
        return i < slots.size() && slots[i] != 0;
    };
    std::vector<uint8_t> triples(static_cast<size_t>(triples_), 0);
    std::vector<uint8_t> matrices(static_cast<size_t>(matrices_), 0);
    for (const Step &s : steps_) {
        const size_t out = static_cast<size_t>(s.out);
        const size_t a = static_cast<size_t>(s.a);
        const size_t b = static_cast<size_t>(s.b);
        switch (s.op) {
          case Op::Input:
            triples[out] = slot(s.a, 0) || slot(s.a, 1) || slot(s.a, 2);
            break;
          case Op::Lowered:
          case Op::Lambda:
            triples[out] = slot(s.a, 0);
            break;
          case Op::Matrix:
            matrices[out] = triples[a];
            break;
          case Op::Product:
            matrices[out] = matrices[a] | matrices[b];
            break;
          case Op::ProductConstL:
            matrices[out] = matrices[b];
            break;
          case Op::ProductConstR:
            matrices[out] = matrices[a];
            break;
          case Op::Resynthesis:
            triples[out] = matrices[a];
            break;
          default:
            break;  // Tests compute nothing.
        }
    }
    std::vector<uint8_t> flags(outputSize_, 0);
    for (const auto &[index, id] : outputs_)
        flags[static_cast<size_t>(index)] =
            triples[static_cast<size_t>(id)];
    return flags;
}

CircuitRecorder
gathered(const CircuitRecorder &from, const std::vector<int> &sources)
{
    CircuitRecorder to{from.record, {}};
    to.ids.reserve(sources.size());
    for (const int s : sources)
        to.ids.push_back(s < 0 ? TranspileRecord::kConst
                               : from.ids[static_cast<size_t>(s)]);
    return to;
}

}  // namespace geyser
