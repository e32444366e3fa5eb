/**
 * @file
 * Block-composition tests (Algorithm 2): exact resynthesis of
 * entangler-free blocks, recomposition of decomposed Toffoli patterns
 * into native CCZ, pulse-budget cutoffs, and equivalence guarantees.
 */
#include <gtest/gtest.h>

#include "compose/composer.hpp"
#include "sim/unitary_sim.hpp"
#include "transpile/basis.hpp"
#include "transpile/passes.hpp"

namespace geyser {
namespace {

/** The adopted circuit must match the block within the HSD threshold. */
void
expectEquivalent(const Circuit &block, const ComposeResult &result,
                 double tol = 2e-5)
{
    EXPECT_LT(circuitHsd(block, result.circuit), tol);
}

TEST(Composer, EntanglerFreeBlockBecomesU3PerQubit)
{
    Circuit block(3);
    block.u3(0, 0.3, 0.2, 0.1);
    block.u3(1, 1.0, -0.5, 0.4);
    block.u3(0, 0.7, 0.0, 0.2);
    block.u3(2, 0.1, 0.1, 0.1);
    block.u3(1, 0.6, 0.3, -0.3);
    const auto result = composeBlock(block);
    EXPECT_TRUE(result.composed);
    EXPECT_EQ(result.circuit.size(), 3u);  // One U3 per active qubit.
    EXPECT_EQ(result.evaluations, 0);      // Analytic path, no search.
    expectEquivalent(block, result, 1e-9);
}

TEST(Composer, IdentityRunDropsEntirely)
{
    Circuit block(2);
    block.u3(0, kPi / 2, 0, kPi);  // H
    block.u3(0, kPi / 2, 0, kPi);  // H
    const auto result = composeBlock(block);
    EXPECT_TRUE(result.composed);
    EXPECT_EQ(result.circuit.size(), 0u);
}

TEST(Composer, RecomposesDecomposedCczIntoNativeCcz)
{
    // The headline capability: a lowered CCZ (6 CZ + 9 U3, 27 pulses)
    // composes back to a single native CCZ layer (11 pulses).
    Circuit logical(3);
    logical.ccz(0, 1, 2);
    Circuit block = decomposeToBasis(logical);
    fuseU3Pass(block, true);

    const auto result = composeBlock(block);
    EXPECT_TRUE(result.composed);
    EXPECT_EQ(result.layersUsed, 1);
    EXPECT_EQ(result.circuit.countKind(GateKind::CCZ), 1);
    EXPECT_LE(result.circuit.totalPulses(), 11);
    EXPECT_GT(block.totalPulses() - result.circuit.totalPulses(), 10);
    expectEquivalent(block, result);
}

TEST(Composer, RecomposesDecomposedToffoli)
{
    Circuit logical(3);
    logical.ccx(0, 1, 2);
    Circuit block = decomposeToBasis(logical);
    fuseU3Pass(block, true);
    const auto result = composeBlock(block);
    EXPECT_TRUE(result.composed);
    EXPECT_LE(result.circuit.totalPulses(), 11);
    expectEquivalent(block, result);
}

TEST(Composer, KeepsOriginalWhenBlockIsAlreadyCheap)
{
    // A lone CZ (3 pulses) cannot be beaten by any ansatz (>= 7 pulses).
    Circuit block(2);
    block.cz(0, 1);
    const auto result = composeBlock(block);
    EXPECT_FALSE(result.composed);
    EXPECT_EQ(result.circuit.size(), 1u);
    EXPECT_EQ(result.circuit.totalPulses(), block.totalPulses());
}

TEST(Composer, ComposesTwoQubitBlocks)
{
    // A dense 2-qubit sequence (24 pulses): any 2-qubit unitary fits a
    // 3-layer CZ ansatz (17 pulses), so composition must win.
    Circuit block(2);
    block.u3(0, 0.4, 0.2, 0.7);
    block.u3(1, 0.8, -0.1, 0.2);
    block.cz(0, 1);
    block.u3(1, 1.4, -0.2, 0.1);
    block.u3(0, 0.3, 0.9, 0.0);
    block.cz(0, 1);
    block.u3(0, 0.9, 0.1, 0.3);
    block.u3(1, -0.4, 0.2, 0.2);
    block.cz(0, 1);
    block.u3(1, 0.2, 0.5, -0.8);
    block.cz(0, 1);
    block.u3(0, 1.1, 0.6, 0.2);
    block.u3(1, 0.7, 0.7, 0.7);
    block.u3(0, 0.1, 0.0, 0.4);
    block.u3(1, 0.3, 0.1, 0.0);
    const auto result = composeBlock(block);
    EXPECT_TRUE(result.composed);
    EXPECT_LT(result.circuit.totalPulses(), block.totalPulses());
    expectEquivalent(block, result);
}

TEST(Composer, AdoptedCircuitNeverCostsMorePulses)
{
    Circuit block(3);
    block.u3(0, 0.3, 0.0, 0.0);
    block.cz(0, 1);
    block.cz(1, 2);
    block.u3(2, 0.8, 0.2, 0.0);
    const auto result = composeBlock(block);
    EXPECT_LE(result.circuit.totalPulses(), block.totalPulses());
    expectEquivalent(block, result);
}

TEST(Composer, RejectsOversizedBlocks)
{
    Circuit block(4);
    EXPECT_THROW(composeBlock(block), std::invalid_argument);
}

TEST(Composer, DualAnnealingOptimizerAlsoComposes)
{
    Circuit logical(3);
    logical.ccz(0, 1, 2);
    Circuit block = decomposeToBasis(logical);
    fuseU3Pass(block, true);

    ComposeOptions opts;
    opts.optimizer = ComposeOptimizer::DualAnnealing;
    const auto result = composeBlock(block, opts);
    // Dual annealing plus rotosolve polish should still find the CCZ.
    EXPECT_TRUE(result.composed);
    expectEquivalent(block, result);
}

TEST(Composer, ThresholdIsRespected)
{
    Circuit logical(3);
    logical.ccz(0, 1, 2);
    Circuit block = decomposeToBasis(logical);
    const auto result = composeBlock(block);
    if (result.composed)
        EXPECT_LE(result.hsd, ComposeOptions::threshold);
}

TEST(Rotosolve, ConvergesFromNearbyStart)
{
    // Rotosolve is a (coordinate-wise exact) local method: from a start
    // near the truth it must converge back to the truth.
    const Ansatz ansatz(3, 1);
    std::vector<double> truth(18);
    for (size_t i = 0; i < truth.size(); ++i)
        truth[i] = 0.1 * static_cast<double>(i + 1);
    const Matrix target = ansatz.unitary(truth);

    std::vector<double> angles = truth;
    for (size_t i = 0; i < angles.size(); ++i)
        angles[i] += (i % 2 ? 0.05 : -0.05);
    long evals = 0;
    const double hsd = rotosolve(ansatz, target, angles, 200, 1e-10, evals);
    EXPECT_LT(hsd, 1e-5);
    EXPECT_GT(evals, 0);
    EXPECT_LT(hilbertSchmidtDistance(ansatz.unitary(angles), target), 1e-5);
}

TEST(Rotosolve, MonotoneNonIncreasingAcrossSweepBudgets)
{
    const Ansatz ansatz(3, 1);
    std::vector<double> truth(18, 0.77);
    const Matrix target = ansatz.unitary(truth);
    double prev = 1.0;
    for (const int sweeps : {1, 3, 10, 50}) {
        std::vector<double> angles(18, 0.0);
        long evals = 0;
        const double hsd =
            rotosolve(ansatz, target, angles, sweeps, 0.0, evals);
        EXPECT_LE(hsd, prev + 1e-12) << sweeps;
        prev = hsd;
    }
}

TEST(Composer, ThreeQubitRandomTwoLayerTargetComposes)
{
    // A target built from a 2-layer ansatz circuit must compose within
    // 2 layers (pulse budget permitting).
    const Ansatz gen(3, 2);
    std::vector<double> truth(gen.numAngles());
    for (size_t i = 0; i < truth.size(); ++i)
        truth[i] = 0.2 + 0.13 * static_cast<double>(i);
    Circuit block = gen.toCircuit(truth);
    // Inflate the block with its own decomposed CCZs so the pulse budget
    // allows recomposition.
    Circuit inflated = decomposeToBasis(block);
    // Use the split-aware entry point (the one the pipeline uses): the
    // inflated block may compose whole or via its halves.
    const auto result = composeBlockCached(inflated);
    EXPECT_TRUE(result.composed);
    // Over-parameterized depths are often found before the minimal one
    // (benign non-convexity), so only the pulse win is guaranteed.
    EXPECT_LE(result.layersUsed, 6);
    EXPECT_LT(result.circuit.totalPulses(), inflated.totalPulses());
    expectEquivalent(inflated, result, 4e-5);
}

}  // namespace
}  // namespace geyser
