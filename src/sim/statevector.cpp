#include "sim/statevector.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "linalg/kernels/backend.hpp"

namespace geyser {

namespace {

/** Mask of every qubit of an n-qubit register; checks the width cap. */
size_t
allQubits(int num_qubits)
{
    if (num_qubits < 0 || num_qubits > StateVector::kMaxQubits)
        throw std::invalid_argument("StateVector: unsupported qubit count");
    return (size_t{1} << num_qubits) - 1;
}

/**
 * Calls f(i) for every index i < n with all bits of `mask` set, in
 * increasing order: (i + 1) | mask is the next such index after i.
 */
template <typename F>
void
forEachSet(size_t n, size_t mask, F &&f)
{
    for (size_t i = mask; i < n; i = (i + 1) | mask)
        f(i);
}

/**
 * Calls f(i, i | bit) for every index i < n with the one-bit mask `bit`
 * clear, in increasing order of i.
 */
template <typename F>
void
forEachPair(size_t n, size_t bit, F &&f)
{
    for (size_t base = 0; base < n; base += 2 * bit)
        for (size_t i = base; i < base + bit; ++i)
            f(i, i | bit);
}

}  // namespace

StateVector::StateVector(int num_qubits)
    : StateVector(num_qubits, 0)
{
}

StateVector::StateVector(int num_qubits, size_t basis_index)
    : StateVector(num_qubits, allQubits(num_qubits), basis_index)
{
}

StateVector
StateVector::pinned(int num_qubits, size_t simulated)
{
    if ((simulated & ~allQubits(num_qubits)) != 0)
        throw std::invalid_argument(
            "StateVector: simulated qubit outside the register");
    return StateVector(num_qubits, simulated, 0);
}

StateVector::StateVector(int num_qubits, size_t simulated,
                         size_t basis_index)
    : numQubits_(num_qubits), simulated_(simulated),
      amps_(size_t{1} << std::popcount(simulated))
{
    if (basis_index >= amps_.size())
        throw std::out_of_range("StateVector: basis index out of range");
    amps_[basis_index] = 1.0;
}

int
StateVector::slotOf(Qubit q) const
{
    if (q < 0 || q >= numQubits_)
        throw std::out_of_range("StateVector: qubit " + std::to_string(q) +
                                " outside the register");
    if (isPinned(q))
        throw std::logic_error("StateVector: qubit " + std::to_string(q) +
                               " is pinned to |0>");
    return std::popcount(simulated_ & ((size_t{1} << q) - 1));
}

void
StateVector::apply(const Gate &gate)
{
    int slots[3];
    const int k = gate.numQubits();
    for (int i = 0; i < k; ++i)
        slots[i] = slotOf(gate.qubit(i));
    // Fast paths for the common physical gates.
    switch (gate.kind()) {
      case GateKind::X:
        applyXAt(size_t{1} << slots[0]);
        return;
      case GateKind::Z:
        negateWhereSet(size_t{1} << slots[0]);
        return;
      case GateKind::Y:
        applyYAt(size_t{1} << slots[0]);
        return;
      case GateKind::CZ:
        negateWhereSet((size_t{1} << slots[0]) | (size_t{1} << slots[1]));
        return;
      case GateKind::CCZ:
        negateWhereSet((size_t{1} << slots[0]) | (size_t{1} << slots[1]) |
                       (size_t{1} << slots[2]));
        return;
      default:
        break;
    }
    if (k == 1)
        apply1qAt(gate.matrix2(), slots[0]);
    else
        applyMatrixAt(gate.matrix(), slots, k);
}

void
StateVector::apply(const Matrix2 &u, Qubit q)
{
    apply1qAt(u, slotOf(q));
}

bool
StateVector::usesMatrix2(const Gate &gate)
{
    const GateKind kind = gate.kind();
    return gate.numQubits() == 1 && kind != GateKind::X &&
           kind != GateKind::Y && kind != GateKind::Z;
}

void
StateVector::apply(const Circuit &circuit)
{
    if (circuit.numQubits() > numQubits_)
        throw std::invalid_argument("StateVector::apply: circuit too wide");
    for (const auto &g : circuit.gates())
        apply(g);
}

void
StateVector::applyMatrix(const Matrix &m, const std::vector<Qubit> &qubits)
{
    if (qubits.size() > 3)
        throw std::invalid_argument("applyMatrix: at most 3 qubits");
    int slots[3];
    const int k = static_cast<int>(qubits.size());
    for (int i = 0; i < k; ++i)
        slots[i] = slotOf(qubits[static_cast<size_t>(i)]);
    applyMatrixAt(m, slots, k);
}

void
StateVector::applyMatrixAt(const Matrix &m, const int *slots, int k)
{
    const size_t sub = size_t{1} << k;
    if (m.rows() != static_cast<int>(sub) || m.cols() != static_cast<int>(sub))
        throw std::invalid_argument("applyMatrix: matrix/qubit mismatch");

    // Mask of all the target storage bits.
    size_t qmask = 0;
    for (int b = 0; b < k; ++b)
        qmask |= size_t{1} << slots[b];
    if (std::popcount(qmask) != k)
        throw std::invalid_argument("applyMatrix: repeated qubit");

    // One- and two-qubit gates — the overwhelmingly common cases — go
    // through the strided kernels instead of the generic gather/scatter
    // loop below.
    if (k == 1) {
        apply1qAt(Matrix2(m(0, 0), m(0, 1), m(1, 0), m(1, 1)), slots[0]);
        return;
    }
    flushFactors(qmask);
    if (k == 2) {
        Complex u[16];
        for (int r = 0; r < 4; ++r)
            for (int c = 0; c < 4; ++c)
                u[r * 4 + c] = m(r, c);
        kernels::svApply2q(amps_.data(), amps_.size(), slots[0], slots[1],
                           u);
        return;
    }

    const int stored = std::popcount(simulated_);
    Complex local[8], out[8];
    const size_t outer = amps_.size() >> k;
    for (size_t o = 0; o < outer; ++o) {
        // Scatter the outer index bits into the non-target positions.
        size_t base = 0;
        size_t rem = o;
        for (int bit = 0; bit < stored; ++bit) {
            const size_t bmask = size_t{1} << bit;
            if (qmask & bmask)
                continue;
            if (rem & 1)
                base |= bmask;
            rem >>= 1;
        }
        // Gather the 2^k amplitudes of this subspace.
        for (size_t v = 0; v < sub; ++v) {
            size_t idx = base;
            for (int b = 0; b < k; ++b)
                if (v & (size_t{1} << b))
                    idx |= size_t{1} << slots[b];
            local[v] = amps_[idx];
        }
        for (size_t r = 0; r < sub; ++r) {
            Complex acc{};
            for (size_t c = 0; c < sub; ++c)
                acc += m(static_cast<int>(r), static_cast<int>(c)) * local[c];
            out[r] = acc;
        }
        for (size_t v = 0; v < sub; ++v) {
            size_t idx = base;
            for (int b = 0; b < k; ++b)
                if (v & (size_t{1} << b))
                    idx |= size_t{1} << slots[b];
            amps_[idx] = out[v];
        }
    }
}

void
StateVector::apply1qAt(const Matrix2 &u, int slot)
{
    const size_t bit = size_t{1} << slot;
    if (!(pending_ & bit)) {
        kernels::active().svApply1q(amps_.data(), amps_.size(), slot,
                                    u.data());
        return;
    }
    // U diag(1, f): the deferred factor scales U's second column, so the
    // gate's own pass applies it.
    const double f = factor_[static_cast<size_t>(slot)];
    const Complex absorbed[4] = {u(0, 0), u(0, 1) * f, u(1, 0), u(1, 1) * f};
    pending_ &= ~bit;
    kernels::active().svApply1q(amps_.data(), amps_.size(), slot, absorbed);
}

void
StateVector::flushFactors(size_t bits)
{
    bits &= pending_;
    pending_ &= ~bits;
    for (; bits != 0; bits &= bits - 1) {
        const int slot = std::countr_zero(bits);
        const double f = factor_[static_cast<size_t>(slot)];
        forEachSet(amps_.size(), size_t{1} << slot,
                   [&](size_t i) { amps_[i] *= f; });
    }
}

void
StateVector::applyX(Qubit q)
{
    applyXAt(size_t{1} << slotOf(q));
}

void
StateVector::applyZ(Qubit q)
{
    // Z|0> = |0>: a pinned qubit has nothing to negate.
    if (isPinned(q))
        return;
    negateWhereSet(size_t{1} << slotOf(q));
}

void
StateVector::applyY(Qubit q)
{
    applyYAt(size_t{1} << slotOf(q));
}

void
StateVector::applyXAt(size_t mask)
{
    flushFactors(mask);
    forEachPair(amps_.size(), mask, [this](size_t i0, size_t i1) {
        std::swap(amps_[i0], amps_[i1]);
    });
}

void
StateVector::negateWhereSet(size_t mask)
{
    forEachSet(amps_.size(), mask, [this](size_t i) { amps_[i] = -amps_[i]; });
}

void
StateVector::applyYAt(size_t mask)
{
    flushFactors(mask);
    forEachPair(amps_.size(), mask, [this](size_t i0, size_t i1) {
        const Complex a0 = amps_[i0];
        const Complex a1 = amps_[i1];
        amps_[i0] = -kI * a1;
        amps_[i1] = kI * a0;
    });
}

double
StateVector::probOne(Qubit q) const
{
    // A pinned qubit reads 0 with certainty.
    if (isPinned(q))
        return 0.0;
    // A serial sum in increasing index order; never reassociate it.
    double p1 = 0.0;
    forEachSet(amps_.size(), size_t{1} << slotOf(q),
               [&](size_t i) { p1 += std::norm(amps_[i]); });
    return p1;
}

void
StateVector::applyNoJump(Qubit q, double gamma)
{
    // K0 is diagonal, so it waits for the next operation that does not
    // commute with it (DESIGN §14).
    const int slot = slotOf(q);
    const size_t mask = size_t{1} << slot;
    const double f = std::sqrt(1.0 - gamma);
    double &factor = factor_[static_cast<size_t>(slot)];
    factor = (pending_ & mask) ? factor * f : f;
    pending_ |= mask;
    unnormalized_ = true;
}

bool
StateVector::applyAmplitudeDamping(Qubit q, double gamma, double u)
{
    if (u >= gamma) {
        // P(jump) = gamma * P(q = 1) <= gamma <= u: K0 applies whatever
        // the state is.
        applyNoJump(q, gamma);
        return false;
    }
    const size_t mask = size_t{1} << slotOf(q);
    flushFactors(pending_);
    // Serial sums in increasing index order; never reassociate them.
    double w = 0.0, w1 = 0.0;
    for (size_t i = 0; i < amps_.size(); ++i) {
        const double v = std::norm(amps_[i]);
        w += v;
        if (i & mask)
            w1 += v;
    }
    unnormalized_ = false;
    if (u < gamma * std::min(1.0, w1 / w)) {
        // Jump (K1): every q=1 amplitude moves to its q=0 partner —
        // K1|psi> has no other support, so the in-place overwrite of
        // the old q=0 amplitudes is exactly the channel's action.
        const double inv = 1.0 / std::sqrt(w1);
        forEachPair(amps_.size(), mask, [&](size_t i0, size_t i1) {
            amps_[i0] = amps_[i1] * inv;
            amps_[i1] = 0.0;
        });
        return true;
    }
    // No jump (K0 = diag(1, sqrt(1 - gamma))), renormalized by the
    // branch weight w - gamma * w1.
    const double invNorm = 1.0 / std::sqrt(w - gamma * w1);
    const double scale1 = std::sqrt(1.0 - gamma) * invNorm;
    forEachPair(amps_.size(), mask, [&](size_t i0, size_t i1) {
        amps_[i0] *= invNorm;
        amps_[i1] *= scale1;
    });
    return false;
}

Distribution
StateVector::probabilities() const
{
    // Storage index i in increasing order visits the register indices
    // whose pinned bits are 0, also in increasing order: `full` steps to
    // the next subset of the simulated mask.
    Distribution p(size_t{1} << numQubits_);
    size_t full = 0;
    if (!unnormalized_) {
        for (size_t i = 0; i < amps_.size(); ++i) {
            p[full] = std::norm(amps_[i]);
            full = (full - simulated_) & simulated_;
        }
        return p;
    }
    // Each amplitude times its pending factors in increasing bit order
    // (what flushFactors would store), then one serial norm.
    double w = 0.0;
    for (size_t i = 0; i < amps_.size(); ++i) {
        Complex a = amps_[i];
        for (size_t bits = pending_ & i; bits != 0; bits &= bits - 1)
            a *= factor_[static_cast<size_t>(std::countr_zero(bits))];
        p[full] = std::norm(a);
        w += p[full];
        full = (full - simulated_) & simulated_;
    }
    full = 0;
    for (size_t i = 0; i < amps_.size(); ++i) {
        p[full] /= w;
        full = (full - simulated_) & simulated_;
    }
    return p;
}

Complex
StateVector::innerProduct(const StateVector &other) const
{
    if (numQubits_ != other.numQubits_ || simulated_ != other.simulated_)
        throw std::invalid_argument("innerProduct: register mismatch");
    Complex acc{};
    for (size_t i = 0; i < amps_.size(); ++i)
        acc += std::conj(amps_[i]) * other.amps_[i];
    return acc;
}

double
StateVector::normSquared() const
{
    double s = 0.0;
    for (const auto &a : amps_)
        s += std::norm(a);
    return s;
}

Distribution
idealDistribution(const Circuit &circuit)
{
    StateVector sv(circuit.numQubits());
    sv.apply(circuit);
    return sv.probabilities();
}

void
depolarizeOutcome(Distribution &p, Qubit q)
{
    forEachPair(p.size(), size_t{1} << q, [&p](size_t i0, size_t i1) {
        const double avg = 0.5 * (p[i0] + p[i1]);
        p[i0] = p[i1] = avg;
    });
}

void
applyReadoutFlip(Distribution &p, Qubit q, double flip)
{
    forEachPair(p.size(), size_t{1} << q, [&p, flip](size_t i0, size_t i1) {
        const double p0 = p[i0];
        const double p1 = p[i1];
        p[i0] = (1.0 - flip) * p0 + flip * p1;
        p[i1] = flip * p0 + (1.0 - flip) * p1;
    });
}

}  // namespace geyser
