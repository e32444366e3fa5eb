/**
 * @file
 * Property-based fuzz tests: seeded random logical circuits pushed
 * through every pipeline stage must preserve semantics at each step.
 * Circuits come from the shared verify::randomCircuit generator (the
 * same one test_verify_* and the benches use).
 */
#include <gtest/gtest.h>

#include "geyser/pipeline.hpp"
#include "sim/unitary_sim.hpp"
#include "transpile/basis.hpp"
#include "transpile/passes.hpp"
#include "verify/random_circuit.hpp"

namespace geyser {
namespace {

/** A random logical circuit over n qubits with `gates` gates. */
Circuit
randomCircuit(int n, int gates, uint64_t seed)
{
    return verify::randomLogicalCircuit(n, gates, seed);
}

class PipelineFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(PipelineFuzz, LoweringPreservesUnitary)
{
    const Circuit c = randomCircuit(4, 25, static_cast<uint64_t>(GetParam()));
    EXPECT_LT(circuitHsd(c, decomposeToBasis(c)), 1e-8);
}

TEST_P(PipelineFuzz, OptimizationPreservesUnitary)
{
    const Circuit c = randomCircuit(4, 25, static_cast<uint64_t>(GetParam()));
    Circuit opt = decomposeToBasis(c);
    optimize(opt);
    EXPECT_LE(opt.totalPulses(), decomposeToBasis(c).totalPulses());
    EXPECT_LT(circuitHsd(c, opt), 1e-8);
}

TEST_P(PipelineFuzz, FullGeyserPipelinePreservesOutput)
{
    const Circuit c =
        randomCircuit(4, 20, static_cast<uint64_t>(GetParam()) + 100);
    const auto gey = compile(Technique::Geyser, c);
    EXPECT_LT(idealTvd(gey), 1e-2);
    EXPECT_LE(gey.stats.totalPulses,
              compile(Technique::OptiMap, c).stats.totalPulses);
}

TEST_P(PipelineFuzz, BaselineAndSuperconductingPreserveOutputExactly)
{
    const Circuit c =
        randomCircuit(5, 18, static_cast<uint64_t>(GetParam()) + 500);
    EXPECT_LT(idealTvd(compile(Technique::Baseline, c)), 1e-8);
    EXPECT_LT(idealTvd(compile(Technique::Superconducting, c)), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz, ::testing::Range(1, 9));

}  // namespace
}  // namespace geyser
