/**
 * @file
 * End-to-end pipeline tests: every technique produces an equivalent
 * physical circuit; Geyser reduces pulses versus OptiMap versus Baseline
 * on composable workloads; CCZ appears only in Geyser output; TVD
 * machinery works through the layout projection.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "algos/algos.hpp"
#include "algos/suite.hpp"
#include "geyser/pipeline.hpp"
#include "obs/obs.hpp"

namespace geyser {
namespace {

TEST(Pipeline, TechniqueNames)
{
    EXPECT_STREQ(techniqueName(Technique::Baseline), "Baseline");
    EXPECT_STREQ(techniqueName(Technique::OptiMap), "OptiMap");
    EXPECT_STREQ(techniqueName(Technique::Geyser), "Geyser");
    EXPECT_STREQ(techniqueName(Technique::Superconducting),
                 "Superconducting");
}

TEST(Pipeline, DefaultGeyserCompileRunsNoDualAnnealing)
{
    // Rotosolve is the default optimizer: dual annealing only runs when
    // ComposeOptimizer::DualAnnealing is selected. adder-4 has blocks
    // that fail at shallow depths, where a fallback would have annealed.
    const obs::Counter &annealing =
        obs::counter("compose.annealing_evaluations");
    const long before = annealing.value();
    obs::EnabledScope scope(true);  // Counters only count while enabled.
    const CompileResult result =
        compile(Technique::Geyser, benchmarkByName("adder-4").make());
    EXPECT_GT(result.composedBlockCount, 0);
    EXPECT_EQ(annealing.value() - before, 0);
}

TEST(Pipeline, CompileLeavesTheObsFlagAlone)
{
    // A compile must not write the process-wide obs flag: another thread
    // may turn collection on while it runs.
    ASSERT_FALSE(obs::enabled());
    const Circuit logical = benchmarkByName("heisenberg-16").make();
    std::thread compiler([&] { (void)compileGeyser(logical); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    obs::setEnabled(true);
    compiler.join();
    EXPECT_TRUE(obs::enabled());
    obs::setEnabled(false);
}

TEST(Pipeline, BaselineEmitsPhysicalCircuitWithoutCcz)
{
    const Circuit logical = adderBenchmark(1, true);
    const auto result = compileBaseline(logical);
    EXPECT_TRUE(result.physical.isPhysical());
    EXPECT_EQ(result.stats.cczCount, 0);
    EXPECT_GT(result.stats.totalPulses, 0);
    EXPECT_NEAR(idealTvd(result), 0.0, 1e-9);
}

TEST(Pipeline, OptiMapNeverWorseThanBaseline)
{
    for (const auto make :
         {+[] { return adderBenchmark(1, true); },
          +[] { return qftBenchmark(5); },
          +[] { return qaoaBenchmark(5, 8, 3, 23); }}) {
        const Circuit logical = make();
        const auto base = compileBaseline(logical);
        const auto opti = compileOptiMap(logical);
        EXPECT_LE(opti.stats.totalPulses, base.stats.totalPulses);
        EXPECT_EQ(opti.stats.cczCount, 0);
        EXPECT_NEAR(idealTvd(opti), 0.0, 1e-9);
    }
}

TEST(Pipeline, GeyserComposesCczOnToffoliWorkload)
{
    const Circuit logical = multiplier5Benchmark();
    const auto opti = compileOptiMap(logical);
    const auto gey = compileGeyser(logical);
    EXPECT_GT(gey.stats.cczCount, 0)
        << "multiplier is Toffoli-rich; composition must find CCZs";
    EXPECT_LT(gey.stats.totalPulses, opti.stats.totalPulses);
    EXPECT_GT(gey.blockCount, 0);
    EXPECT_GT(gey.composedBlockCount, 0);
    // Sec 6 fidelity check: ideal-output TVD below 1e-2.
    EXPECT_LT(idealTvd(gey), 1e-2);
}

TEST(Pipeline, GeyserNeverWorseThanOptiMapOnPulses)
{
    for (const auto make :
         {+[] { return adderBenchmark(1, true); },
          +[] { return qftBenchmark(5); }}) {
        const Circuit logical = make();
        const auto opti = compileOptiMap(logical);
        const auto gey = compileGeyser(logical);
        EXPECT_LE(gey.stats.totalPulses, opti.stats.totalPulses);
        EXPECT_LT(idealTvd(gey), 1e-2);
    }
}

TEST(Pipeline, SuperconductingUsesSquareGridWithoutCcz)
{
    const Circuit logical = adderBenchmark(1, true);
    const auto sc = compileSuperconducting(logical);
    EXPECT_EQ(sc.stats.cczCount, 0);
    EXPECT_EQ(sc.topology.name().rfind("square", 0), 0u);
    EXPECT_NEAR(idealTvd(sc), 0.0, 1e-9);
}

TEST(Pipeline, CompileDispatchesAllTechniques)
{
    const Circuit logical = multiplier5Benchmark();
    for (const Technique t :
         {Technique::Baseline, Technique::OptiMap, Technique::Geyser,
          Technique::Superconducting}) {
        const auto result = compile(t, logical);
        EXPECT_EQ(result.technique, t);
        EXPECT_TRUE(result.physical.isPhysical());
    }
}

TEST(Pipeline, ProjectToLogicalMarginalizesUnusedAtoms)
{
    // 2 logical qubits on 3 atoms with layout {2, 0}: atom 1 unused.
    Distribution phys(8, 0.0);
    phys[0b101] = 0.5;  // atoms 0 and 2 set -> logical q0 (atom 2) = 1,
                        // logical q1 (atom 0) = 1.
    phys[0b010] = 0.5;  // only unused atom set -> logical 00.
    const auto logical = projectToLogical(phys, {2, 0}, 2, 3);
    EXPECT_NEAR(logical[0b11], 0.5, 1e-15);
    EXPECT_NEAR(logical[0b00], 0.5, 1e-15);
}

TEST(Pipeline, ProjectToLogicalValidatesSize)
{
    EXPECT_THROW(projectToLogical(Distribution(7), {0}, 1, 3),
                 std::invalid_argument);
}

TEST(Pipeline, EvaluateTvdOrdersTechniquesUnderNoise)
{
    // Baseline has the most pulses, so under the same noise its TVD
    // should be at least OptiMap's up to sampling error.
    const Circuit logical = multiplier5Benchmark();
    const auto base = compileBaseline(logical);
    const auto gey = compileGeyser(logical);
    TrajectoryConfig cfg;
    cfg.trajectories = 300;
    cfg.seed = 41;
    const NoiseModel nm = NoiseModel::withRate(0.005);
    const double tvdBase = evaluateTvd(base, nm, cfg);
    const double tvdGey = evaluateTvd(gey, nm, cfg);
    EXPECT_LT(tvdGey, tvdBase);
}

TEST(Pipeline, GeyserStatsAreConsistent)
{
    const Circuit logical = adderBenchmark(1, true);
    const auto gey = compileGeyser(logical);
    EXPECT_GE(gey.blockCount, gey.composedBlockCount);
    EXPECT_GE(gey.maxBlockHsd, 0.0);
    EXPECT_LE(gey.maxBlockHsd, 2e-5);
    EXPECT_EQ(gey.finalLayout.size(),
              static_cast<size_t>(logical.numQubits()));
}

}  // namespace
}  // namespace geyser
