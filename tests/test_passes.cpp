/**
 * @file
 * OptiMap optimization-pass tests: fusion, identity elimination,
 * commutation-aware CZ cancellation, and unitary preservation.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"
#include "sim/unitary_sim.hpp"
#include "transpile/basis.hpp"
#include "transpile/passes.hpp"
#include "transpile/zyz.hpp"

namespace geyser {
namespace {

/** A 2x2 Matrix's entries as a Matrix2, for the ZYZ calls only. */
Matrix2
toMatrix2(const Matrix &m)
{
    return Matrix2(m(0, 0), m(0, 1), m(1, 0), m(1, 1));
}

/**
 * Reference one-qubit fusion: heap Matrix products, and in a round that
 * changes the circuit every run is resynthesized, runs of one gate
 * included. fuseU3Pass must match it bit for bit.
 */
bool
referenceFuse(Circuit &circuit, bool drop_identity)
{
    const size_t before = circuit.size();
    const auto n = static_cast<size_t>(circuit.numQubits());
    Circuit out(circuit.numQubits());
    std::vector<Matrix> pending(n);
    std::vector<bool> hasPending(n, false);
    int fusedRuns = 0;

    auto flush = [&](Qubit q) {
        if (!hasPending[static_cast<size_t>(q)])
            return;
        const Matrix2 m = toMatrix2(pending[static_cast<size_t>(q)]);
        if (!(drop_identity && isIdentityUpToPhase(m))) {
            const U3Params p = u3FromMatrix(m);
            out.u3(q, p.theta, p.phi, p.lambda);
        }
        hasPending[static_cast<size_t>(q)] = false;
    };

    for (const auto &g : circuit.gates()) {
        if (g.numQubits() == 1) {
            const auto q = static_cast<size_t>(g.qubit(0));
            if (hasPending[q]) {
                pending[q] = g.matrix() * pending[q];
                ++fusedRuns;
            } else {
                pending[q] = g.matrix();
                hasPending[q] = true;
            }
        } else {
            for (int i = 0; i < g.numQubits(); ++i)
                flush(g.qubit(i));
            out.append(g);
        }
    }
    for (Qubit q = 0; q < circuit.numQubits(); ++q)
        flush(q);

    const bool changed = fusedRuns > 0 || out.size() != before;
    if (changed)
        circuit = std::move(out);
    return changed;
}

/** optimize() over referenceFuse. */
void
referenceOptimize(Circuit &circuit)
{
    for (int round = 0; round < 20; ++round) {
        bool changed = referenceFuse(circuit, true);
        changed = cancelCzPass(circuit) || changed;
        if (!changed)
            break;
    }
}

/** Same gates, operands and parameter bits (-0.0 differs from 0.0). */
void
expectBitIdentical(const Circuit &a, const Circuit &b, int trial)
{
    ASSERT_EQ(a.size(), b.size()) << "trial " << trial;
    for (size_t i = 0; i < a.size(); ++i) {
        const Gate &ga = a.gates()[i];
        const Gate &gb = b.gates()[i];
        ASSERT_EQ(ga.kind(), gb.kind()) << "trial " << trial << " gate " << i;
        for (int q = 0; q < ga.numQubits(); ++q)
            ASSERT_EQ(ga.qubit(q), gb.qubit(q))
                << "trial " << trial << " gate " << i;
        for (int k = 0; k < ga.numParams(); ++k)
            ASSERT_EQ(std::bit_cast<uint64_t>(ga.param(k)),
                      std::bit_cast<uint64_t>(gb.param(k)))
                << "trial " << trial << " gate " << i << " param " << k
                << ": " << ga.param(k) << " vs " << gb.param(k);
    }
}

/**
 * A physical circuit whose U3 angles come from a grid of 0, +-pi and
 * 2*pi, near-identity values and random values, so runs hit identity
 * products, the theta = pi branch and the diagonal branch of the ZYZ
 * decomposition, and lone gates fall on both sides of fuseU3Pass's
 * |sin(theta/2)| > 1e-8 pre-test; CZ and CCZ gates sit between the U3s.
 */
Circuit
gridCircuit(int width, int numGates, Rng &rng)
{
    const double nearIdentity[] = {
        1e-9, -1e-9, 5e-9, -5e-9, 1e-8, -1e-8, 2e-8, -2e-8,
        2.0 * kPi + 1e-8, 2.0 * kPi - 1e-8, 4.0 * kPi};
    auto angle = [&] {
        switch (rng.uniformInt(8)) {
          case 0:
            return 0.0;
          case 1:
            return kPi;
          case 2:
            return -kPi;
          case 3:
            return 2.0 * kPi;
          case 4:
            return nearIdentity[rng.uniformInt(11)];
          default:
            return rng.uniform(-2.0 * kPi, 2.0 * kPi);
        }
    };
    Circuit c(width);
    for (int i = 0; i < numGates; ++i) {
        const int kind = rng.uniformInt(10);
        if (kind == 0 && width >= 2) {
            const int a = rng.uniformInt(width);
            const int b = (a + 1 + rng.uniformInt(width - 1)) % width;
            c.cz(a, b);
        } else if (kind == 1 && width >= 3) {
            const int a = rng.uniformInt(width);
            const int b = (a + 1 + rng.uniformInt(width - 1)) % width;
            int d = rng.uniformInt(width);
            while (d == a || d == b)
                d = rng.uniformInt(width);
            c.ccz(a, b, d);
        } else {
            const double theta = angle();
            const double phi = angle();
            c.u3(rng.uniformInt(width), theta, phi, angle());
        }
    }
    return c;
}

TEST(FusePass, MergesAdjacentU3Runs)
{
    Circuit c(1);
    c.u3(0, 0.3, 0.1, 0.2);
    c.u3(0, 1.1, -0.4, 0.6);
    c.u3(0, 0.9, 0.0, 0.0);
    Circuit fused = c;
    EXPECT_TRUE(fuseU3Pass(fused));
    EXPECT_EQ(fused.size(), 1u);
    EXPECT_LT(circuitHsd(c, fused), 1e-10);
}

TEST(FusePass, DropsIdentityPairs)
{
    Circuit c(1);
    c.u3(0, kPi / 2, 0, kPi);  // H
    c.u3(0, kPi / 2, 0, kPi);  // H -> identity
    Circuit fused = c;
    fuseU3Pass(fused, true);
    EXPECT_EQ(fused.size(), 0u);
}

TEST(FusePass, KeepsIdentityWhenAskedTo)
{
    Circuit c(1);
    c.u3(0, kPi / 2, 0, kPi);
    c.u3(0, kPi / 2, 0, kPi);
    Circuit fused = c;
    fuseU3Pass(fused, false);
    EXPECT_EQ(fused.size(), 1u);
}

TEST(FusePass, DoesNotFuseAcrossEntanglers)
{
    Circuit c(2);
    c.u3(0, 0.4, 0, 0);
    c.cz(0, 1);
    c.u3(0, -0.4, 0, 0);
    Circuit fused = c;
    fuseU3Pass(fused);
    EXPECT_EQ(fused.countKind(GateKind::U3), 2);
    EXPECT_LT(circuitHsd(c, fused), 1e-10);
}

TEST(FusePass, FusesAroundNonSharedQubits)
{
    // Gates on qubit 1 fuse even with a CZ on qubits 0 and 2 between.
    Circuit c(3);
    c.u3(1, 0.2, 0, 0);
    c.cz(0, 2);
    c.u3(1, 0.3, 0, 0);
    Circuit fused = c;
    fuseU3Pass(fused);
    EXPECT_EQ(fused.countKind(GateKind::U3), 1);
    EXPECT_LT(circuitHsd(c, fused), 1e-10);
}

TEST(FusePass, RejectsLogicalCircuits)
{
    Circuit c(1);
    c.h(0);
    EXPECT_THROW(fuseU3Pass(c), std::invalid_argument);
}

TEST(FusePass, RejectsNonFiniteAngles)
{
    const double nan = std::nan("");
    // Inside a fused run: ZYZ sees a NaN product.
    Circuit fused(1);
    fused.u3(0, nan, 0.0, 0.0);
    fused.u3(0, 0.3, 0.0, 0.0);
    EXPECT_THROW(fuseU3Pass(fused), ValidationError);

    // Alone, in a round that changes nothing: the gate is copied, not
    // decomposed, and is still rejected.
    for (const bool dropIdentity : {true, false}) {
        Circuit lone(2);
        lone.u3(0, 0.0, nan, 0.0);
        lone.cz(0, 1);
        lone.u3(1, 0.2, 0.0, 0.0);
        EXPECT_THROW(fuseU3Pass(lone, dropIdentity), ValidationError);
    }
    Circuit infinite(1);
    infinite.u3(0, 0.4, 0.0, HUGE_VAL);
    EXPECT_THROW(fuseU3Pass(infinite), ValidationError);
}

TEST(FusePass, BitIdenticalToMatrixProductsAndEagerResynthesis)
{
    Rng rng(2022);
    long changedRounds = 0, unchangedRounds = 0;
    long identityDrops = 0, thetaPi = 0, diagonal = 0;
    for (int trial = 0; trial < 1200; ++trial) {
        const int width = 1 + trial % 4;
        const Circuit c = gridCircuit(width, rng.uniformInt(61), rng);
        for (const bool dropIdentity : {true, false}) {
            Circuit lazy = c, eager = c;
            const bool changed = fuseU3Pass(lazy, dropIdentity);
            ASSERT_EQ(changed, referenceFuse(eager, dropIdentity))
                << "trial " << trial;
            expectBitIdentical(lazy, eager, trial);
            (changed ? changedRounds : unchangedRounds) += 1;
            // A second round sees runs of one only.
            EXPECT_EQ(fuseU3Pass(lazy, dropIdentity),
                      referenceFuse(eager, dropIdentity));
            expectBitIdentical(lazy, eager, trial);
        }
        Circuit lazy = c, eager = c;
        optimize(lazy);
        referenceOptimize(eager);
        expectBitIdentical(lazy, eager, trial);

        // The grid reaches every branch of the resynthesis: identity
        // drops, and in a changed round (every U3 resynthesized) the
        // theta = pi and the diagonal (phi = 0, theta ~ 0) branches.
        Circuit kept = c, dropped = c;
        fuseU3Pass(dropped, true);
        if (!fuseU3Pass(kept, false))
            continue;
        identityDrops += dropped.size() < kept.size() ? 1 : 0;
        for (const Gate &g : kept.gates()) {
            if (g.kind() != GateKind::U3)
                continue;
            thetaPi += g.param(0) == kPi ? 1 : 0;
            diagonal += g.param(1) == 0.0 && g.param(0) < 1e-6 ? 1 : 0;
        }
    }
    EXPECT_GT(changedRounds, 100);
    EXPECT_GT(unchangedRounds, 10);
    EXPECT_GT(identityDrops, 10);
    EXPECT_GT(thetaPi, 10);
    EXPECT_GT(diagonal, 10);
}

TEST(FusePass, UnchangedRoundLeavesGatesBitIdentical)
{
    // No two U3s meet on a qubit and none is the identity; some sit on
    // either side of the |sin(theta/2)| pre-test and one carries -0.0.
    // Resynthesis would rewrite them; a round that changes nothing
    // must leave every bit as it was.
    Circuit c(3);
    c.u3(0, 0.3, -0.0, 0.2);
    c.u3(1, 5e-9, 0.4, 0.6);
    c.u3(2, 4.0 * kPi, 1.0, 0.5);
    c.cz(0, 1);
    c.u3(0, -1e-8, 2.0, -0.3);
    c.ccz(0, 1, 2);
    c.u3(1, 2.0 * kPi + 1e-8, -1.2, 0.1);
    c.u3(2, 1.7, 0.0, -kPi);
    for (const bool dropIdentity : {true, false}) {
        Circuit round = c;
        EXPECT_FALSE(fuseU3Pass(round, dropIdentity));
        expectBitIdentical(round, c, 0);
    }
}

TEST(FusePass, CountsTheMatricesItBuilds)
{
    obs::EnabledScope scope(true);
    obs::Counter &built = obs::counter("transpile.u3_matrices");
    // A fixed point with generic angles: no lone gate needs its matrix.
    Circuit fixed(2);
    fixed.u3(0, 0.3, 0.1, 0.2);
    fixed.cz(0, 1);
    fixed.u3(0, 1.1, -0.4, 0.6);
    fixed.u3(1, 0.9, 0.5, -0.7);
    const long before = built.value();
    EXPECT_FALSE(fuseU3Pass(fixed));
    EXPECT_EQ(built.value(), before);

    // A round that fuses builds the run's factors.
    Circuit fusing = fixed;
    fusing.u3(1, 0.2, 0.3, 0.4);
    EXPECT_TRUE(fuseU3Pass(fusing));
    EXPECT_GT(built.value(), before);
}

TEST(CancelCz, AdjacentPairCancels)
{
    Circuit c(2);
    c.cz(0, 1);
    c.cz(0, 1);
    EXPECT_TRUE(cancelCzPass(c));
    EXPECT_EQ(c.size(), 0u);
}

TEST(CancelCz, ReversedOperandOrderStillCancels)
{
    Circuit c(2);
    c.cz(0, 1);
    c.cz(1, 0);
    cancelCzPass(c);
    EXPECT_EQ(c.size(), 0u);
}

TEST(CancelCz, DiagonalU3Commutes)
{
    Circuit c(2);
    c.cz(0, 1);
    c.u3(0, 0.0, 0.0, 0.7);  // Diagonal (theta = 0).
    c.cz(0, 1);
    Circuit orig = c;
    EXPECT_TRUE(cancelCzPass(c));
    EXPECT_EQ(c.countKind(GateKind::CZ), 0);
    EXPECT_EQ(c.countKind(GateKind::U3), 1);
    EXPECT_LT(circuitHsd(orig, c), 1e-10);
}

TEST(CancelCz, OtherPairCzCommutes)
{
    // CZ(0,1) CZ(1,2) CZ(0,1): all diagonal, outer pair cancels.
    Circuit c(3);
    c.cz(0, 1);
    c.cz(1, 2);
    c.cz(0, 1);
    Circuit orig = c;
    EXPECT_TRUE(cancelCzPass(c));
    EXPECT_EQ(c.countKind(GateKind::CZ), 1);
    EXPECT_LT(circuitHsd(orig, c), 1e-10);
}

TEST(CancelCz, NonDiagonalGateBlocksCancellation)
{
    Circuit c(2);
    c.cz(0, 1);
    c.u3(0, kPi / 2, 0, kPi);  // H: not diagonal.
    c.cz(0, 1);
    EXPECT_FALSE(cancelCzPass(c));
    EXPECT_EQ(c.countKind(GateKind::CZ), 2);
}

TEST(Optimize, ReducesHCzHSandwich)
{
    // CX CX = I: two lowered CXs collapse entirely.
    Circuit c(2);
    c.cx(0, 1);
    c.cx(0, 1);
    Circuit phys = decomposeToBasis(c);
    EXPECT_EQ(phys.size(), 6u);
    optimize(phys);
    EXPECT_EQ(phys.size(), 0u);
}

TEST(Optimize, PreservesUnitaryOnMixedCircuit)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.t(1);
    c.cx(0, 1);
    c.rzz(1, 2, 0.7);
    c.h(0);
    const Circuit phys = decomposeToBasis(c);
    Circuit opt = phys;
    optimize(opt);
    EXPECT_LE(opt.totalPulses(), phys.totalPulses());
    EXPECT_LT(circuitHsd(phys, opt), 1e-9);
}

TEST(Optimize, SubstantialReductionOnTrotterPattern)
{
    // Consecutive RZZ on the same pair produce cancelling CX pairs.
    Circuit c(2);
    for (int i = 0; i < 10; ++i)
        c.rzz(0, 1, 0.1);
    Circuit phys = decomposeToBasis(c);
    const long before = phys.totalPulses();
    optimize(phys);
    EXPECT_LT(phys.totalPulses(), before / 3);
    Circuit ref = decomposeToBasis(c);
    EXPECT_LT(circuitHsd(ref, phys), 1e-9);
}

TEST(Optimize, IdempotentAtFixedPoint)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.ccx(0, 1, 2);
    Circuit opt = decomposeToBasis(c);
    optimize(opt);
    Circuit again = opt;
    optimize(again);
    EXPECT_EQ(opt.size(), again.size());
}

}  // namespace
}  // namespace geyser
