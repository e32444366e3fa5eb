/**
 * @file
 * Statevector simulator tests: basis-state evolution, entanglement,
 * agreement between the generic matrix path and the fast paths, a
 * register with pinned qubits against the full register, the strided
 * loops against a test-every-index reference, and deferred amplitude
 * damping against the eager step it replaced.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "linalg/kernels/backend.hpp"
#include "sim/statevector.hpp"
#include "sim/unitary_sim.hpp"

namespace geyser {
namespace {

TEST(StateVector, InitialStateIsAllZeros)
{
    StateVector sv(3);
    EXPECT_EQ(sv.dim(), 8u);
    EXPECT_EQ(sv.amplitudes()[0], Complex{1.0});
    EXPECT_NEAR(sv.normSquared(), 1.0, 1e-15);
}

TEST(StateVector, XFlipsQubit)
{
    StateVector sv(2);
    sv.applyX(1);
    EXPECT_EQ(sv.amplitudes()[2], Complex{1.0});
    EXPECT_EQ(sv.amplitudes()[0], Complex{0.0});
}

TEST(StateVector, HadamardCreatesUniformSuperposition)
{
    Circuit c(2);
    c.h(0);
    c.h(1);
    const auto p = idealDistribution(c);
    for (const double v : p)
        EXPECT_NEAR(v, 0.25, 1e-12);
}

TEST(StateVector, BellState)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    const auto p = idealDistribution(c);
    EXPECT_NEAR(p[0], 0.5, 1e-12);
    EXPECT_NEAR(p[3], 0.5, 1e-12);
    EXPECT_NEAR(p[1], 0.0, 1e-12);
    EXPECT_NEAR(p[2], 0.0, 1e-12);
}

TEST(StateVector, GhzOnFiveQubits)
{
    Circuit c(5);
    c.h(0);
    for (int q = 0; q + 1 < 5; ++q)
        c.cx(q, q + 1);
    const auto p = idealDistribution(c);
    EXPECT_NEAR(p[0], 0.5, 1e-12);
    EXPECT_NEAR(p[31], 0.5, 1e-12);
}

TEST(StateVector, CxControlIsFirstOperand)
{
    // |10> with qubit1 = 1: CX(1, 0) must flip qubit 0.
    StateVector sv(2);
    sv.applyX(1);
    sv.apply(Gate(GateKind::CX, 1, 0));
    EXPECT_EQ(sv.amplitudes()[3], Complex{1.0});
    // CX(0, 1) on |10>: control (qubit 0) is 0, so nothing happens.
    StateVector sv2(2);
    sv2.applyX(1);
    sv2.apply(Gate(GateKind::CX, 0, 1));
    EXPECT_EQ(sv2.amplitudes()[2], Complex{1.0});
}

TEST(StateVector, ToffoliComputesAnd)
{
    for (int a = 0; a < 2; ++a) {
        for (int b = 0; b < 2; ++b) {
            StateVector sv(3);
            if (a)
                sv.applyX(0);
            if (b)
                sv.applyX(1);
            sv.apply(Gate(GateKind::CCX, 0, 1, 2));
            const size_t expect = static_cast<size_t>(a) |
                                  (static_cast<size_t>(b) << 1) |
                                  (static_cast<size_t>(a & b) << 2);
            EXPECT_NEAR(std::abs(sv.amplitudes()[expect]), 1.0, 1e-12)
                << "a=" << a << " b=" << b;
        }
    }
}

TEST(StateVector, FastPathsMatchMatrixPath)
{
    // Apply CZ/CCZ/X/Z/Y via fast paths and via applyMatrix; compare.
    Circuit prep(3);
    prep.h(0);
    prep.rx(1, 0.7);
    prep.u3(2, 1.1, 0.3, -0.2);
    for (const Gate &g :
         {Gate(GateKind::CZ, 0, 2), Gate(GateKind::CCZ, 0, 1, 2),
          Gate(GateKind::X, 1), Gate(GateKind::Z, 0), Gate(GateKind::Y, 2)}) {
        StateVector fast(3);
        fast.apply(prep);
        fast.apply(g);

        StateVector slow(3);
        slow.apply(prep);
        std::vector<Qubit> qs;
        for (int i = 0; i < g.numQubits(); ++i)
            qs.push_back(g.qubit(i));
        slow.applyMatrix(g.matrix(), qs);

        for (size_t i = 0; i < fast.dim(); ++i)
            EXPECT_NEAR(std::abs(fast.amplitudes()[i] - slow.amplitudes()[i]),
                        0.0, 1e-12) << g.toString();
    }
}

TEST(StateVector, NonAdjacentQubitOperands)
{
    // CX between qubits 0 and 3 of a 4-qubit register.
    StateVector sv(4);
    sv.applyX(0);
    sv.apply(Gate(GateKind::CX, 0, 3));
    EXPECT_NEAR(std::abs(sv.amplitudes()[0b1001]), 1.0, 1e-12);
}

TEST(StateVector, ReversedOperandOrderMatchesSwappedMatrix)
{
    // CP is symmetric: CP(a, b) == CP(b, a).
    Circuit prep(2);
    prep.h(0);
    prep.h(1);
    StateVector s1(2), s2(2);
    s1.apply(prep);
    s2.apply(prep);
    s1.apply(Gate(GateKind::CP, 0, 1, 0.9));
    s2.apply(Gate(GateKind::CP, 1, 0, 0.9));
    for (size_t i = 0; i < 4; ++i)
        EXPECT_NEAR(std::abs(s1.amplitudes()[i] - s2.amplitudes()[i]), 0.0,
                    1e-12);
}

TEST(StateVector, ApplyMatrixRejectsRepeatedQubits)
{
    // A repeated qubit names no 2^k-dimensional subspace: the call
    // throws before it touches the amplitudes or flushes a deferred
    // damping factor.
    StateVector sv(3);
    sv.apply(Gate(GateKind::H, 0));
    sv.apply(Gate(GateKind::RX, 1, 0.7));
    ASSERT_FALSE(sv.applyAmplitudeDamping(1, 0.2, 0.5));
    const std::vector<Complex> before = sv.amplitudes();
    EXPECT_THROW(sv.applyMatrix(Gate(GateKind::CX, 0, 1).matrix(), {1, 1}),
                 std::invalid_argument);
    EXPECT_THROW(
        sv.applyMatrix(Gate(GateKind::CCX, 0, 1, 2).matrix(), {0, 2, 0}),
        std::invalid_argument);
    EXPECT_EQ(sv.amplitudes(), before);
}

TEST(StateVector, NormPreservedThroughLongRandomCircuit)
{
    Circuit c(4);
    c.h(0);
    for (int i = 0; i < 50; ++i) {
        c.u3(i % 4, 0.1 * i, 0.2 * i, -0.3 * i);
        c.cx(i % 4, (i + 1) % 4);
        if (i % 3 == 0)
            c.ccx(i % 4, (i + 1) % 4, (i + 2) % 4);
    }
    StateVector sv(4);
    sv.apply(c);
    EXPECT_NEAR(sv.normSquared(), 1.0, 1e-10);
}

TEST(StateVector, InnerProductOfOrthogonalStates)
{
    StateVector a(2, 0), b(2, 3);
    EXPECT_NEAR(std::abs(a.innerProduct(b)), 0.0, 1e-15);
    EXPECT_NEAR(std::abs(a.innerProduct(a)), 1.0, 1e-15);
}

uint64_t
bitsOf(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

/** `count` distinct qubits drawn from `pool` (which must be that big). */
std::vector<Qubit>
pickDistinct(Rng &rng, std::vector<Qubit> pool, int count)
{
    std::vector<Qubit> out;
    for (int i = 0; i < count; ++i) {
        const int k = rng.uniformInt(static_cast<int>(pool.size()));
        out.push_back(pool[static_cast<size_t>(k)]);
        pool.erase(pool.begin() + k);
    }
    return out;
}

TEST(StateVector, PinnedRegisterMatchesFullRegisterBitForBit)
{
    // The trajectory engine's rule: atoms 0 and 1 are simulated even
    // when idle, every other idle atom is pinned. Then each kernel call
    // takes the SIMD path it takes at full width, so random physical op
    // sequences must leave bit-identical probabilities on every backend.
    constexpr int kQubits = 7;
    const std::vector<std::vector<Qubit>> idleSets = {
        {0}, {1}, {2}, {6}, {0, 1, 6}, {2, 4}, {1, 3, 5, 6}};
    for (const auto &idle : idleSets) {
        size_t simulated = (size_t{1} << kQubits) - 1;
        for (const Qubit q : idle)
            if (q >= 2)
                simulated &= ~(size_t{1} << q);
        std::vector<Qubit> busy, pinned;
        for (Qubit q = 0; q < kQubits; ++q) {
            if ((simulated >> q) & 1) {
                if (std::find(idle.begin(), idle.end(), q) == idle.end())
                    busy.push_back(q);
            } else {
                pinned.push_back(q);
            }
        }
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE(::testing::Message() << "simulated mask "
                                              << simulated << ", seed "
                                              << seed);
            Rng rng(seed);
            StateVector full(kQubits);
            StateVector part = StateVector::pinned(kQubits, simulated);
            EXPECT_EQ(part.dim(), size_t{1} << std::popcount(simulated));
            for (int step = 0; step < 120; ++step) {
                const int op = rng.uniformInt(10);
                if (op == 0) {
                    const Gate g(GateKind::U3, pickDistinct(rng, busy, 1)[0],
                                 rng.uniform(0.0, 3.2), rng.uniform(-3.2, 3.2),
                                 rng.uniform(-3.2, 3.2));
                    full.apply(g);
                    part.apply(g);
                } else if (op == 1) {
                    const auto qs = pickDistinct(rng, busy, 2);
                    full.apply(Gate(GateKind::CZ, qs[0], qs[1]));
                    part.apply(Gate(GateKind::CZ, qs[0], qs[1]));
                } else if (op == 2) {
                    const auto qs = pickDistinct(rng, busy, 3);
                    full.apply(Gate(GateKind::CCZ, qs[0], qs[1], qs[2]));
                    part.apply(Gate(GateKind::CCZ, qs[0], qs[1], qs[2]));
                } else if (op == 3) {
                    const Qubit q = pickDistinct(rng, busy, 1)[0];
                    full.applyX(q);
                    part.applyX(q);
                } else if (op == 4) {
                    const Qubit q = pickDistinct(rng, busy, 1)[0];
                    full.applyY(q);
                    part.applyY(q);
                } else if (op == 5) {
                    const Qubit q = pickDistinct(rng, busy, 1)[0];
                    full.applyZ(q);
                    part.applyZ(q);
                } else if (op == 6 && !pinned.empty()) {
                    // Crosstalk's Z on an idle atom: a no-op when pinned.
                    const Qubit q = pickDistinct(rng, pinned, 1)[0];
                    full.applyZ(q);
                    part.applyZ(q);
                    EXPECT_EQ(bitsOf(full.probOne(q)),
                              bitsOf(part.probOne(q)));
                } else if (op == 7) {
                    const Qubit q = pickDistinct(rng, busy, 1)[0];
                    const double gamma = rng.uniform(0.0, 0.6);
                    const double u = rng.uniform();
                    EXPECT_EQ(full.applyAmplitudeDamping(q, gamma, u),
                              part.applyAmplitudeDamping(q, gamma, u));
                } else if (op == 8) {
                    const Qubit q = pickDistinct(rng, busy, 1)[0];
                    EXPECT_EQ(bitsOf(full.probOne(q)),
                              bitsOf(part.probOne(q)));
                } else if (op == 9) {
                    // The one-qubit entry the trajectory engine uses.
                    const Qubit q = pickDistinct(rng, busy, 1)[0];
                    const double theta = rng.uniform(0.0, 3.2);
                    const double phi = rng.uniform(-3.2, 3.2);
                    const double lambda = rng.uniform(-3.2, 3.2);
                    const Matrix2 u = u3Matrix(theta, phi, lambda);
                    full.apply(u, q);
                    part.apply(u, q);
                }
            }
            const Distribution want = full.probabilities();
            const Distribution got = part.probabilities();
            ASSERT_EQ(got.size(), want.size());
            for (size_t i = 0; i < want.size(); ++i)
                EXPECT_EQ(bitsOf(got[i]), bitsOf(want[i])) << "outcome " << i;
        }
    }
}

/**
 * The statevector and readout operations as loops that test every
 * index: the reference the strided loops must match bit for bit. Masks
 * are storage bits; a one-qubit gate applies the entries of
 * gate.matrix() through the active backend's svApply1q.
 */
namespace reference {

void
apply1q(std::vector<Complex> &a, size_t mask, const Matrix &m)
{
    const Complex u[4] = {m(0, 0), m(0, 1), m(1, 0), m(1, 1)};
    kernels::active().svApply1q(a.data(), a.size(), std::countr_zero(mask),
                                u);
}

/**
 * StateVector's deferred no-jump factors, one per storage bit: a step
 * that cannot jump only multiplies its bit's factor, the next one-qubit
 * gate on the bit absorbs it, and X, Y and a step that can jump apply
 * it to the amplitudes first.
 */
struct Deferred
{
    double factor[64] = {};
    size_t pending = 0;

    /** Applies the pending factors of `bits`, lowest bit first. */
    void flush(std::vector<Complex> &a, size_t bits)
    {
        bits &= pending;
        pending &= ~bits;
        for (; bits != 0; bits &= bits - 1) {
            const size_t bit = bits & -bits;
            const double f = factor[std::countr_zero(bit)];
            for (size_t i = 0; i < a.size(); ++i)
                if (i & bit)
                    a[i] *= f;
        }
    }

    void apply1q(std::vector<Complex> &a, size_t mask, const Matrix &m)
    {
        Complex u[4] = {m(0, 0), m(0, 1), m(1, 0), m(1, 1)};
        if (pending & mask) {
            const double f = factor[std::countr_zero(mask)];
            u[1] = u[1] * f;
            u[3] = u[3] * f;
            pending &= ~mask;
        }
        kernels::active().svApply1q(a.data(), a.size(),
                                    std::countr_zero(mask), u);
    }

    bool applyAmplitudeDamping(std::vector<Complex> &a, size_t mask,
                               double gamma, double u)
    {
        if (u >= gamma) {
            const double f = std::sqrt(1.0 - gamma);
            double &slot = factor[std::countr_zero(mask)];
            slot = (pending & mask) ? slot * f : f;
            pending |= mask;
            return false;
        }
        flush(a, pending);
        double w = 0.0, w1 = 0.0;
        for (size_t i = 0; i < a.size(); ++i) {
            w += std::norm(a[i]);
            if (i & mask)
                w1 += std::norm(a[i]);
        }
        if (u < gamma * std::min(1.0, w1 / w)) {
            const double inv = 1.0 / std::sqrt(w1);
            for (size_t i = 0; i < a.size(); ++i) {
                if (i & mask) {
                    a[i & ~mask] = a[i] * inv;
                    a[i] = 0.0;
                }
            }
            return true;
        }
        const double invNorm = 1.0 / std::sqrt(w - gamma * w1);
        const double scale1 = std::sqrt(1.0 - gamma) * invNorm;
        for (size_t i = 0; i < a.size(); ++i)
            a[i] *= (i & mask) ? scale1 : invNorm;
        return false;
    }
};

void
applyX(std::vector<Complex> &a, size_t mask)
{
    for (size_t i = 0; i < a.size(); ++i)
        if (!(i & mask))
            std::swap(a[i], a[i | mask]);
}

void
applyY(std::vector<Complex> &a, size_t mask)
{
    for (size_t i = 0; i < a.size(); ++i) {
        if (!(i & mask)) {
            const Complex a0 = a[i];
            const Complex a1 = a[i | mask];
            a[i] = -kI * a1;
            a[i | mask] = kI * a0;
        }
    }
}

void
applyZ(std::vector<Complex> &a, size_t mask)
{
    for (size_t i = 0; i < a.size(); ++i)
        if (i & mask)
            a[i] = -a[i];
}

void
applyCz(std::vector<Complex> &a, size_t ma, size_t mb)
{
    for (size_t i = 0; i < a.size(); ++i)
        if ((i & ma) && (i & mb))
            a[i] = -a[i];
}

void
applyCcz(std::vector<Complex> &a, size_t m)
{
    for (size_t i = 0; i < a.size(); ++i)
        if ((i & m) == m)
            a[i] = -a[i];
}

double
probOne(const std::vector<Complex> &a, size_t mask)
{
    double p1 = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        if (i & mask)
            p1 += std::norm(a[i]);
    return p1;
}

bool
applyAmplitudeDamping(std::vector<Complex> &a, size_t mask, double gamma,
                      double u)
{
    const double p1 = probOne(a, mask);
    const double pJump = gamma * p1;
    if (u < pJump) {
        const double inv = 1.0 / std::sqrt(p1);
        for (size_t i = 0; i < a.size(); ++i) {
            if (i & mask) {
                a[i & ~mask] = a[i] * inv;
                a[i] = 0.0;
            }
        }
        return true;
    }
    const double invNorm = 1.0 / std::sqrt(1.0 - pJump);
    const double scale1 = std::sqrt(1.0 - gamma) * invNorm;
    for (size_t i = 0; i < a.size(); ++i)
        a[i] *= (i & mask) ? scale1 : invNorm;
    return false;
}

/**
 * A k-qubit matrix on the storage bits `masks` (masks[0] is the
 * matrix's low bit), gathered at every index with those bits clear.
 * Each row sums its products left to right from the first, as
 * kernels::svApply2q does.
 */
void
applyDense(std::vector<Complex> &a, const std::vector<size_t> &masks,
           const Matrix &m)
{
    size_t all = 0;
    for (const size_t mask : masks)
        all |= mask;
    const size_t sub = size_t{1} << masks.size();
    std::vector<Complex> local(sub);
    for (size_t i = 0; i < a.size(); ++i) {
        if (i & all)
            continue;
        const auto at = [&](size_t v) {
            size_t idx = i;
            for (size_t b = 0; b < masks.size(); ++b)
                if ((v >> b) & 1)
                    idx |= masks[b];
            return idx;
        };
        for (size_t v = 0; v < sub; ++v)
            local[v] = a[at(v)];
        for (size_t r = 0; r < sub; ++r) {
            Complex acc = m(static_cast<int>(r), 0) * local[0];
            for (size_t c = 1; c < sub; ++c)
                acc += m(static_cast<int>(r), static_cast<int>(c)) * local[c];
            a[at(r)] = acc;
        }
    }
}

void
depolarize(Distribution &p, Qubit q)
{
    const size_t mask = size_t{1} << q;
    for (size_t i = 0; i < p.size(); ++i) {
        if (!(i & mask)) {
            const double avg = 0.5 * (p[i] + p[i | mask]);
            p[i] = p[i | mask] = avg;
        }
    }
}

void
readoutFlip(Distribution &p, Qubit q, double flip)
{
    const size_t mask = size_t{1} << q;
    for (size_t i = 0; i < p.size(); ++i) {
        if (i & mask)
            continue;
        const double p0 = p[i];
        const double p1 = p[i | mask];
        p[i] = (1.0 - flip) * p0 + flip * p1;
        p[i | mask] = flip * p0 + (1.0 - flip) * p1;
    }
}

}  // namespace reference

template <typename T>
bool
sameBits(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

TEST(StateVector, StridedLoopsMatchTestEveryIndexReference)
{
    // Seeded random op sequences on full and pinned registers (idle sets
    // with atoms 0, 1, 2 and the top atom), every amplitude and
    // probability compared bit for bit with the reference after every
    // op; then readout flips and depolarization on the widened output.
    constexpr int kQubits = 7;
    const std::vector<std::vector<Qubit>> idleSets = {
        {}, {0}, {1}, {2}, {6}, {0, 1, 6}, {2, 4}, {1, 3, 5, 6}};
    const GateKind denseKinds[] = {GateKind::CX,  GateKind::CP,
                                   GateKind::RZZ, GateKind::RXX,
                                   GateKind::RYY, GateKind::SWAP};
    int jumps = 0, stays = 0, lowFirst = 0, highFirst = 0;
    for (const auto &idle : idleSets) {
        size_t simulated = (size_t{1} << kQubits) - 1;
        for (const Qubit q : idle)
            if (q >= 2)
                simulated &= ~(size_t{1} << q);
        std::vector<Qubit> busy;
        for (Qubit q = 0; q < kQubits; ++q)
            if (((simulated >> q) & 1) &&
                std::find(idle.begin(), idle.end(), q) == idle.end())
                busy.push_back(q);
        // Storage-bit mask of a simulated qubit.
        const auto slot = [simulated](Qubit q) {
            return size_t{1}
                   << std::popcount(simulated & ((size_t{1} << q) - 1));
        };
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE(::testing::Message() << "simulated mask "
                                              << simulated << ", seed "
                                              << seed);
            Rng rng(seed);
            StateVector sv = StateVector::pinned(kQubits, simulated);
            std::vector<Complex> ref = sv.amplitudes();
            reference::Deferred deferred;
            for (int step = 0; step < 150; ++step) {
                const int op = rng.uniformInt(10);
                const auto qs = pickDistinct(rng, busy, op == 6 ? 3 : 2);
                if (op <= 1) {
                    const double theta = rng.uniform(0.0, 3.2);
                    const double phi = rng.uniform(-3.2, 3.2);
                    const double lambda = rng.uniform(-3.2, 3.2);
                    const Gate g(GateKind::U3, qs[0], theta, phi, lambda);
                    if (op == 0)
                        sv.apply(g);
                    else
                        sv.apply(g.matrix2(), qs[0]);
                    deferred.apply1q(ref, slot(qs[0]), g.matrix());
                } else if (op == 2) {
                    sv.applyX(qs[0]);
                    deferred.flush(ref, slot(qs[0]));
                    reference::applyX(ref, slot(qs[0]));
                } else if (op == 3) {
                    sv.applyY(qs[0]);
                    deferred.flush(ref, slot(qs[0]));
                    reference::applyY(ref, slot(qs[0]));
                } else if (op == 4) {
                    sv.applyZ(qs[0]);
                    reference::applyZ(ref, slot(qs[0]));
                } else if (op == 5) {
                    sv.apply(Gate(GateKind::CZ, qs[0], qs[1]));
                    reference::applyCz(ref, slot(qs[0]), slot(qs[1]));
                } else if (op == 6) {
                    sv.apply(Gate(GateKind::CCZ, qs[0], qs[1], qs[2]));
                    reference::applyCcz(ref, slot(qs[0]) | slot(qs[1]) |
                                                 slot(qs[2]));
                } else if (op == 7) {
                    const double gamma = rng.uniform(0.0, 0.9);
                    const double u = rng.uniform();
                    const bool jumped =
                        sv.applyAmplitudeDamping(qs[0], gamma, u);
                    ASSERT_EQ(jumped, deferred.applyAmplitudeDamping(
                                          ref, slot(qs[0]), gamma, u));
                    ++(jumped ? jumps : stays);
                } else if (op == 8) {
                    const Gate g(denseKinds[rng.uniformInt(6)], qs[0], qs[1],
                                 rng.uniform(-3.2, 3.2));
                    sv.apply(g);
                    deferred.flush(ref, slot(qs[0]) | slot(qs[1]));
                    reference::applyDense(ref, {slot(qs[0]), slot(qs[1])},
                                          g.matrix());
                    ++(qs[0] < qs[1] ? lowFirst : highFirst);
                } else {
                    ASSERT_EQ(bitsOf(sv.probOne(qs[0])),
                              bitsOf(reference::probOne(ref, slot(qs[0]))));
                }
                ASSERT_TRUE(sameBits(sv.amplitudes(), ref))
                    << "step " << step << ", op " << op;
            }
            Distribution p = sv.probabilities();
            Distribution want = p;
            for (int step = 0; step < 24; ++step) {
                const Qubit q = rng.uniformInt(kQubits);
                if (rng.uniformInt(2) == 0) {
                    depolarizeOutcome(p, q);
                    reference::depolarize(want, q);
                } else {
                    const double flip = rng.uniform(0.0, 0.2);
                    applyReadoutFlip(p, q, flip);
                    reference::readoutFlip(want, q, flip);
                }
                ASSERT_TRUE(sameBits(p, want)) << "readout step " << step;
            }
        }
    }
    // Both damping branches ran, and dense gates in both operand orders.
    EXPECT_GT(jumps, 10);
    EXPECT_GT(stays, 10);
    EXPECT_GT(lowFirst, 10);
    EXPECT_GT(highFirst, 10);
}

TEST(StateVector, DeferredDampingMatchesEagerStep)
{
    // Amplitude damping defers its no-jump factor; the oracle is the
    // eager step it replaced (reference::applyAmplitudeDamping: sum the
    // |1> half, then scale both halves). Seeded op sequences on full
    // and pinned registers, gamma up to 0.9 and draws on both sides of
    // gamma: after every op the normalized probabilities agree within
    // 1e-12, and every jump decision is the same.
    constexpr int kQubits = 7;
    const std::vector<std::vector<Qubit>> idleSets = {
        {}, {0}, {2}, {6}, {1, 3, 5, 6}};
    int jumps = 0, stays = 0, deferredSteps = 0;
    for (const auto &idle : idleSets) {
        size_t simulated = (size_t{1} << kQubits) - 1;
        for (const Qubit q : idle)
            if (q >= 2)
                simulated &= ~(size_t{1} << q);
        std::vector<Qubit> busy;
        for (Qubit q = 0; q < kQubits; ++q)
            if (((simulated >> q) & 1) &&
                std::find(idle.begin(), idle.end(), q) == idle.end())
                busy.push_back(q);
        const auto slot = [simulated](Qubit q) {
            return size_t{1}
                   << std::popcount(simulated & ((size_t{1} << q) - 1));
        };
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE(::testing::Message() << "simulated mask "
                                              << simulated << ", seed "
                                              << seed);
            Rng rng(seed);
            StateVector sv = StateVector::pinned(kQubits, simulated);
            std::vector<Complex> eager = sv.amplitudes();
            for (int step = 0; step < 200; ++step) {
                const int op = rng.uniformInt(10);
                const auto qs = pickDistinct(rng, busy, 3);
                const size_t m0 = slot(qs[0]), m1 = slot(qs[1]),
                             m2 = slot(qs[2]);
                if (op == 0) {
                    const Gate g(GateKind::U3, qs[0], rng.uniform(0.0, 3.2),
                                 rng.uniform(-3.2, 3.2),
                                 rng.uniform(-3.2, 3.2));
                    sv.apply(g);
                    reference::apply1q(eager, m0, g.matrix());
                } else if (op == 1) {
                    sv.applyX(qs[0]);
                    reference::applyX(eager, m0);
                } else if (op == 2) {
                    sv.applyY(qs[0]);
                    reference::applyY(eager, m0);
                } else if (op == 3) {
                    sv.applyZ(qs[0]);
                    reference::applyZ(eager, m0);
                } else if (op == 4) {
                    sv.apply(Gate(GateKind::CZ, qs[0], qs[1]));
                    reference::applyCz(eager, m0, m1);
                } else if (op == 5) {
                    sv.apply(Gate(GateKind::CCZ, qs[0], qs[1], qs[2]));
                    reference::applyCcz(eager, m0 | m1 | m2);
                } else if (op == 6) {
                    const Gate g(GateKind::CX, qs[0], qs[1]);
                    sv.apply(g);
                    reference::applyDense(eager, {m0, m1}, g.matrix());
                } else if (op == 7) {
                    const Gate g(GateKind::CCX, qs[0], qs[1], qs[2]);
                    sv.apply(g);
                    reference::applyDense(eager, {m0, m1, m2}, g.matrix());
                } else {
                    const double gamma = rng.uniform(0.0, 0.9);
                    const double u = rng.uniformInt(2) == 0
                                         ? rng.uniform(0.0, gamma)
                                         : rng.uniform(gamma, 1.0);
                    const bool jumped =
                        sv.applyAmplitudeDamping(qs[0], gamma, u);
                    ASSERT_EQ(jumped, reference::applyAmplitudeDamping(
                                          eager, m0, gamma, u))
                        << "step " << step;
                    ++(u >= gamma ? deferredSteps : jumped ? jumps : stays);
                }
                const Distribution got = sv.probabilities();
                size_t full = 0;
                for (size_t i = 0; i < eager.size(); ++i) {
                    ASSERT_NEAR(got[full], std::norm(eager[i]), 1e-12)
                        << "step " << step << ", op " << op << ", outcome "
                        << full;
                    full = (full - simulated) & simulated;
                }
            }
        }
    }
    // Every branch ran: deferred, and both branches of the full step.
    EXPECT_GT(deferredSteps, 100);
    EXPECT_GT(jumps, 20);
    EXPECT_GT(stays, 20);
}

TEST(StateVector, PinnedQubitAllowsOnlyZ)
{
    // Qubit 2 of 4 is pinned to |0>: Z leaves it there, anything that
    // could move it is a logic error.
    StateVector sv = StateVector::pinned(4, 0b1011);
    EXPECT_EQ(sv.dim(), 8u);
    sv.apply(Gate(GateKind::U3, 3, 1.1, 0.2, 0.3));
    sv.applyZ(2);
    EXPECT_EQ(sv.probOne(2), 0.0);
    EXPECT_THROW(sv.applyX(2), std::logic_error);
    EXPECT_THROW(sv.applyY(2), std::logic_error);
    EXPECT_THROW(sv.applyAmplitudeDamping(2, 0.5, 0.0), std::logic_error);
    EXPECT_THROW(sv.apply(Gate(GateKind::U3, 2, 0.4, 0.0, 0.0)),
                 std::logic_error);
    EXPECT_THROW(sv.apply(Gate(GateKind::CZ, 0, 2)), std::logic_error);
    EXPECT_THROW(sv.apply(Gate(GateKind::CCZ, 0, 1, 2)), std::logic_error);
    EXPECT_THROW(sv.apply(Gate(GateKind::Z, 2)), std::logic_error);
    EXPECT_THROW(sv.applyMatrix(Gate(GateKind::H, 2).matrix(), {2}),
                 std::logic_error);
    // The failed calls left the state alone.
    const Distribution p = sv.probabilities();
    ASSERT_EQ(p.size(), 16u);
    double sum = 0.0;
    for (size_t i = 0; i < p.size(); ++i) {
        if (i & 0b0100) {
            EXPECT_EQ(p[i], 0.0) << "outcome " << i;
        }
        sum += p[i];
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_THROW(StateVector::pinned(4, 0b10001), std::invalid_argument);
}

TEST(UnitarySim, SingleGateMatchesGateMatrix)
{
    Circuit c(1);
    c.u3(0, 0.4, 1.2, -0.8);
    const auto u = circuitUnitary(c);
    EXPECT_LT(u.maxAbsDiff(Matrix(u3Matrix(0.4, 1.2, -0.8))), 1e-12);
}

TEST(UnitarySim, CircuitUnitaryIsUnitary)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.ccz(0, 1, 2);
    c.rzz(1, 2, 0.7);
    const auto u = circuitUnitary(c);
    EXPECT_TRUE(u.isUnitary(1e-10));
}

TEST(UnitarySim, GateOrderMatters)
{
    Circuit ab(1), ba(1);
    ab.h(0);
    ab.t(0);
    ba.t(0);
    ba.h(0);
    EXPECT_GT(circuitHsd(ab, ba), 0.01);
}

TEST(UnitarySim, HsdZeroForEquivalentCircuits)
{
    // HZH = X.
    Circuit hzh(1), x(1);
    hzh.h(0);
    hzh.z(0);
    hzh.h(0);
    x.x(0);
    EXPECT_NEAR(circuitHsd(hzh, x), 0.0, 1e-12);
}

TEST(UnitarySim, KroneckerStructureOfParallelGates)
{
    // Parallel H on both qubits = H (x) H.
    Circuit c(2);
    c.h(0);
    c.h(1);
    const Matrix h = Gate(GateKind::H, 0).matrix();
    EXPECT_LT(circuitUnitary(c).maxAbsDiff(h.kron(h)), 1e-12);
}

}  // namespace
}  // namespace geyser
