/**
 * @file
 * Cross-module integration tests: the full paper pipeline on real
 * benchmark circuits, checking the evaluation section's qualitative
 * claims end to end.
 */
#include <gtest/gtest.h>

#include "algos/suite.hpp"
#include "common/thread_pool.hpp"
#include "geyser/pipeline.hpp"
#include "io/serialize.hpp"

namespace geyser {
namespace {

TEST(Integration, PulseOrderingAcrossTechniquesOnSmallSuite)
{
    // Baseline >= OptiMap >= Geyser in total pulses for every small
    // benchmark (paper Fig 12's shape).
    for (const auto &spec : benchmarkSuite()) {
        if (spec.numQubits > 5)
            continue;
        const Circuit logical = spec.make();
        const auto base = compile(Technique::Baseline, logical);
        const auto opti = compile(Technique::OptiMap, logical);
        const auto gey = compile(Technique::Geyser, logical);
        EXPECT_GE(base.stats.totalPulses, opti.stats.totalPulses)
            << spec.name;
        EXPECT_GE(opti.stats.totalPulses, gey.stats.totalPulses)
            << spec.name;
    }
}

TEST(Integration, GeyserIdealFidelityUnderOnePercent)
{
    // Paper Sec 6: TVD between Geyser's ideal output and the original
    // circuit's ideal output is < 1e-2 across algorithms.
    for (const auto &spec : benchmarkSuite()) {
        if (spec.numQubits > 5)
            continue;
        const auto gey = compile(Technique::Geyser, spec.make());
        EXPECT_LT(idealTvd(gey), 1e-2) << spec.name;
    }
}

TEST(Integration, CczOnlyAppearsInGeyserCircuits)
{
    const Circuit logical = benchmarkByName("adder-4").make();
    EXPECT_EQ(compile(Technique::Baseline, logical).stats.cczCount, 0);
    EXPECT_EQ(compile(Technique::OptiMap, logical).stats.cczCount, 0);
    EXPECT_EQ(compile(Technique::Superconducting, logical).stats.cczCount, 0);
    EXPECT_GT(compile(Technique::Geyser, logical).stats.cczCount, 0);
}

TEST(Integration, DepthPulsesOrderingHolds)
{
    const Circuit logical = benchmarkByName("multiplier-5").make();
    const auto base = compile(Technique::Baseline, logical);
    const auto gey = compile(Technique::Geyser, logical);
    EXPECT_LT(gey.stats.depthPulses, base.stats.depthPulses);
}

TEST(Integration, NoiseSweepKeepsTechniqueOrdering)
{
    // Paper Fig 17: the TVD ordering is stable across error rates.
    const Circuit logical = benchmarkByName("multiplier-5").make();
    const auto base = compile(Technique::Baseline, logical);
    const auto gey = compile(Technique::Geyser, logical);
    TrajectoryConfig cfg;
    cfg.trajectories = 250;
    cfg.seed = 7;
    for (const double rate : {0.0005, 0.005}) {
        const NoiseModel nm = NoiseModel::withRate(rate);
        EXPECT_LT(evaluateTvd(gey, nm, cfg), evaluateTvd(base, nm, cfg))
            << "rate=" << rate;
    }
}

TEST(Integration, ParallelAndSerialCompositionAgreeOnPulses)
{
    // From the calling thread compose fans blocks out over the global
    // pool; from inside a pool task (a fleet member) parallelFor runs
    // the nested batch inline, one block after another.
    const Circuit logical = benchmarkByName("adder-4").make();
    const auto parallel = compile(Technique::Geyser, logical);
    CompileResult serial;
    globalPool().parallelFor(
        1, [&](int) { serial = compile(Technique::Geyser, logical); });
    EXPECT_EQ(circuitToText(serial.physical),
              circuitToText(parallel.physical));
    EXPECT_EQ(serial.stats.totalPulses, parallel.stats.totalPulses);
    EXPECT_EQ(serial.stats.cczCount, parallel.stats.cczCount);
}

TEST(Integration, ThreadPoolParallelForCoversAllIndices)
{
    ThreadPool pool(4);
    std::vector<int> hits(100, 0);
    pool.parallelFor(100, [&](int i) { hits[static_cast<size_t>(i)]++; });
    for (const int h : hits)
        EXPECT_EQ(h, 1);
}

}  // namespace
}  // namespace geyser
