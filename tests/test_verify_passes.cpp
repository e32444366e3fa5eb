/**
 * @file
 * Property tests: every transpile pass (basis translation, 1q fusion,
 * CZ cancellation, shortest-path routing, SABRE routing) preserves
 * unitary equivalence — up to global phase, and through the
 * initial/final layout permutations once routed — on seeded random
 * 3-5 qubit circuits drawn from the shared verify::randomCircuit
 * generator. Plus: a deliberately broken pass is caught by the verifier
 * and shrunk to a minimized reproducer.
 */
#include <gtest/gtest.h>

#include <iostream>

#include "geyser/pipeline.hpp"
#include "topology/topology.hpp"
#include "transpile/basis.hpp"
#include "transpile/passes.hpp"
#include "transpile/router.hpp"
#include "transpile/sabre.hpp"
#include "verify/differential.hpp"
#include "verify/equivalence.hpp"
#include "verify/random_circuit.hpp"

namespace geyser {
namespace {

Circuit
drawCircuit(int seed)
{
    return verify::randomLogicalCircuit(3 + seed % 3, 18,
                                        static_cast<uint64_t>(seed));
}

class PassProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(PassProperty, BasisTranslationPreservesUnitary)
{
    const Circuit c = drawCircuit(GetParam());
    const auto report = verify::checkUnitary(c, decomposeToBasis(c));
    EXPECT_TRUE(report.equivalent) << report.detail;
}

TEST_P(PassProperty, FusionAndCancellationPreserveUnitary)
{
    const Circuit c = drawCircuit(GetParam());
    Circuit fused = decomposeToBasis(c);
    fuseU3Pass(fused);
    const auto afterFuse = verify::checkUnitary(c, fused);
    EXPECT_TRUE(afterFuse.equivalent) << "fuse: " << afterFuse.detail;

    cancelCzPass(fused);
    const auto afterCancel = verify::checkUnitary(c, fused);
    EXPECT_TRUE(afterCancel.equivalent) << "cancel: " << afterCancel.detail;

    Circuit optimized = decomposeToBasis(c);
    optimize(optimized);
    const auto afterFixpoint = verify::checkUnitary(c, optimized);
    EXPECT_TRUE(afterFixpoint.equivalent)
        << "fixpoint: " << afterFixpoint.detail;
}

TEST_P(PassProperty, RoutersPreserveUnitaryThroughLayouts)
{
    const Circuit c = drawCircuit(GetParam());
    Circuit physical = decomposeToBasis(c);
    optimize(physical);
    const Topology topo = Topology::forQubits(c.numQubits());

    const RoutedCircuit walked = route(physical, topo);
    const auto walkReport = verify::checkRouted(
        c, walked.circuit, walked.initialLayout, walked.finalLayout);
    EXPECT_TRUE(walkReport.equivalent) << "walk: " << walkReport.detail;

    const auto layout = chooseInitialLayout(physical, topo);
    const RoutedCircuit greedy = route(physical, topo, layout);
    const auto greedyReport = verify::checkRouted(
        c, greedy.circuit, greedy.initialLayout, greedy.finalLayout);
    EXPECT_TRUE(greedyReport.equivalent) << "greedy: " << greedyReport.detail;

    const RoutedCircuit sabre = routeSabre(physical, topo, layout);
    const auto sabreReport = verify::checkRouted(
        c, sabre.circuit, sabre.initialLayout, sabre.finalLayout);
    EXPECT_TRUE(sabreReport.equivalent) << "sabre: " << sabreReport.detail;
}

TEST_P(PassProperty, PipelineSelfVerificationAccepts)
{
    // The opt-in in-pipeline checks must agree that honest compilation
    // is equivalence-preserving (throws VerificationError otherwise).
    const Circuit c = drawCircuit(GetParam());
    PipelineOptions options;
    options.verifyEquivalence = true;
    EXPECT_NO_THROW(compile(Technique::Baseline, c, options));
    EXPECT_NO_THROW(compile(Technique::OptiMap, c, options));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PassProperty, ::testing::Range(1, 51));

/**
 * A deliberately broken "optimization" pass: silently drops the last
 * entangling gate. The verifier must reject its output and shrink the
 * failure to a minimal circuit.
 */
Circuit
brokenDropLastCzPass(const Circuit &circuit)
{
    Circuit out(circuit.numQubits());
    int lastCz = -1;
    for (size_t i = 0; i < circuit.size(); ++i)
        if (circuit.gates()[i].kind() == GateKind::CZ)
            lastCz = static_cast<int>(i);
    for (size_t i = 0; i < circuit.size(); ++i)
        if (static_cast<int>(i) != lastCz)
            out.append(circuit.gates()[i]);
    return out;
}

TEST(VerifyBrokenPass, CaughtWithMinimizedReproducer)
{
    const Circuit c = decomposeToBasis(
        verify::randomLogicalCircuit(4, 20, 2024));
    ASSERT_GT(c.countKind(GateKind::CZ), 0);

    const Circuit mutated = brokenDropLastCzPass(c);
    const auto report = verify::checkUnitary(c, mutated);
    ASSERT_FALSE(report.equivalent)
        << "broken pass slipped through: " << report.detail;

    const auto stillFails = [](const Circuit &candidate) {
        const Circuit m = brokenDropLastCzPass(candidate);
        if (m.size() == candidate.size())
            return false;  // Pass was a no-op; nothing to catch.
        return !verify::checkUnitary(candidate, m).equivalent;
    };
    const Circuit reproducer = verify::minimizeFailingCircuit(c, stillFails);
    EXPECT_TRUE(stillFails(reproducer));
    // Dropping one CZ can be reduced to the lone CZ it drops.
    EXPECT_LE(reproducer.size(), 2u);
    std::cout << "minimized reproducer (" << reproducer.size()
              << " gates):\n"
              << reproducer.toString();
}

TEST(VerifyBrokenPass, PipelineSelfCheckRejectsAngleCorruption)
{
    // An angle-corrupting stage caught end-to-end: corrupt the logical
    // circuit after capture so the pipeline's own stage checks compare
    // against a reference the stages can no longer reproduce.
    const Circuit c = verify::randomLogicalCircuit(4, 15, 77);
    Circuit corrupted = c;
    bool bent = false;
    for (auto &g : corrupted.gates()) {
        if (g.numParams() > 0) {
            g.setParam(0, g.param(0) + 0.5);
            bent = true;
            break;
        }
    }
    ASSERT_TRUE(bent);
    const auto report = verify::checkUnitary(c, corrupted);
    EXPECT_FALSE(report.equivalent) << report.detail;
}

}  // namespace
}  // namespace geyser
