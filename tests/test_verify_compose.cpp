/**
 * @file
 * Property tests for block composition through the verification layer:
 * composed 2Q/3Q blocks must match their block unitary within the
 * composer's HSD tolerance, and end-to-end Geyser output must be
 * distribution-equivalent to OptiMap on noiseless input.
 */
#include <gtest/gtest.h>

#include "compose/composer.hpp"
#include "geyser/pipeline.hpp"
#include "sim/statevector.hpp"
#include "sim/unitary_sim.hpp"
#include "verify/equivalence.hpp"
#include "verify/random_circuit.hpp"

namespace geyser {
namespace {

class ComposeProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(ComposeProperty, ComposedBlocksMatchBlockUnitaryWithinTolerance)
{
    const int seed = GetParam();
    const int width = 2 + seed % 2;  // 2Q and 3Q blocks.
    const Circuit block = verify::randomPhysicalCircuit(
        width, 8, static_cast<uint64_t>(seed) * 13 + 1);
    const ComposeResult result = composeBlock(block);

    // The adopted circuit — composed ansatz or the original — is always
    // equivalent to the block within the acceptance threshold (recursive
    // midpoint splitting can stack up to 4 leaves of threshold each).
    const double hsd = circuitHsd(block, result.circuit);
    EXPECT_LE(hsd, result.composed ? 1e-4 : 1e-9)
        << (result.composed ? "composed" : "kept original") << " at seed "
        << seed;
}

TEST_P(ComposeProperty, EntanglerFreeBlocksComposeExactly)
{
    verify::RandomCircuitOptions rc;
    rc.numQubits = 3;
    rc.numGates = 6;
    rc.seed = static_cast<uint64_t>(GetParam()) * 29 + 7;
    rc.gateSet = {GateKind::U3};
    const Circuit block = verify::randomCircuit(rc);
    const ComposeResult result = composeBlock(block);
    EXPECT_TRUE(result.composed);
    const auto report = verify::checkUnitary(block, result.circuit);
    EXPECT_TRUE(report.equivalent) << report.detail;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComposeProperty, ::testing::Range(1, 13));

class GeyserVsOptiMap : public ::testing::TestWithParam<int>
{
};

TEST_P(GeyserVsOptiMap, NoiselessOutputsAreDistributionEquivalent)
{
    const Circuit c = verify::randomLogicalCircuit(
        4, 16, static_cast<uint64_t>(GetParam()) + 300);
    const CompileResult gey = compile(Technique::Geyser, c);
    const CompileResult opt = compile(Technique::OptiMap, c);

    const Distribution pGey = projectToLogical(
        idealDistribution(gey.physical), gey.finalLayout, c.numQubits(),
        gey.physical.numQubits());
    const Distribution pOpt = projectToLogical(
        idealDistribution(opt.physical), opt.finalLayout, c.numQubits(),
        opt.physical.numQubits());

    const auto d = verify::compareDistributions(pGey, pOpt, 1e-2);
    EXPECT_TRUE(d.pass) << "tvd=" << d.tvd << " fidelity=" << d.fidelity;

    // Both also match the logical program itself (OptiMap exactly).
    const auto geyReport = verify::checkCompileResult(gey);
    EXPECT_TRUE(geyReport.equivalent) << geyReport.detail;
    const auto optReport = verify::checkCompileResult(opt);
    EXPECT_TRUE(optReport.equivalent) << optReport.detail;
    EXPECT_EQ(optReport.method, "routed-unitary");
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeyserVsOptiMap, ::testing::Range(1, 7));

}  // namespace
}  // namespace geyser
