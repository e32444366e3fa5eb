/**
 * @file
 * End-to-end pipeline tests: every technique produces an equivalent
 * physical circuit; Geyser reduces pulses versus OptiMap versus Baseline
 * on composable workloads; CCZ appears only in Geyser output; TVD
 * machinery works through the layout projection.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <random>
#include <string>
#include <thread>

#include "algos/algos.hpp"
#include "algos/suite.hpp"
#include "blocking/blocker.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "fleet/skeleton.hpp"
#include "geyser/pipeline.hpp"
#include "io/serialize.hpp"
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
    std::thread compiler([&] { (void)compile(Technique::Geyser, logical); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    obs::setEnabled(true);
    compiler.join();
    EXPECT_TRUE(obs::enabled());
    obs::setEnabled(false);
}

TEST(Pipeline, BaselineEmitsPhysicalCircuitWithoutCcz)
{
    const Circuit logical = adderBenchmark(1, true);
    const auto result = compile(Technique::Baseline, logical);
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
        const auto base = compile(Technique::Baseline, logical);
        const auto opti = compile(Technique::OptiMap, logical);
        EXPECT_LE(opti.stats.totalPulses, base.stats.totalPulses);
        EXPECT_EQ(opti.stats.cczCount, 0);
        EXPECT_NEAR(idealTvd(opti), 0.0, 1e-9);
    }
}

TEST(Pipeline, GeyserComposesCczOnToffoliWorkload)
{
    const Circuit logical = multiplier5Benchmark();
    const auto opti = compile(Technique::OptiMap, logical);
    const auto gey = compile(Technique::Geyser, logical);
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
        const auto opti = compile(Technique::OptiMap, logical);
        const auto gey = compile(Technique::Geyser, logical);
        EXPECT_LE(gey.stats.totalPulses, opti.stats.totalPulses);
        EXPECT_LT(idealTvd(gey), 1e-2);
    }
}

TEST(Pipeline, SuperconductingUsesSquareGridWithoutCcz)
{
    const Circuit logical = adderBenchmark(1, true);
    const auto sc = compile(Technique::Superconducting, logical);
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
    const auto base = compile(Technique::Baseline, logical);
    const auto gey = compile(Technique::Geyser, logical);
    TrajectoryConfig cfg;
    cfg.trajectories = 300;
    cfg.seed = 41;
    const NoiseModel nm = NoiseModel::withRate(0.005);
    const double tvdBase = evaluateTvd(base, nm, cfg);
    const double tvdGey = evaluateTvd(gey, nm, cfg);
    EXPECT_LT(tvdGey, tvdBase);
}

/**
 * A Trotter-style chain whose every step repeats one bond pattern, so
 * its blocks repeat. The angles come from `seed`; drawn fresh per run,
 * no other compile in the process can have put one of its runs in the
 * composition memo.
 */
Circuit
trotterChain(uint64_t seed)
{
    Rng rng(seed);
    constexpr int kQubits = 5;
    Circuit c(kQubits);
    for (Qubit q = 0; q < kQubits; ++q)
        c.u3(q, rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0),
             rng.uniform(0.1, 3.0));
    const double xx = rng.uniform(0.1, 1.0);
    const double zz = rng.uniform(0.1, 1.0);
    const double field = rng.uniform(0.1, 1.0);
    for (int step = 0; step < 4; ++step) {
        for (Qubit q = 0; q + 1 < kQubits; ++q) {
            c.rxx(q, q + 1, xx);
            c.rzz(q, q + 1, zz);
        }
        for (Qubit q = 0; q < kQubits; ++q)
            c.rz(q, field);
    }
    return c;
}

TEST(Pipeline, ComposesEachDistinctRunOnce)
{
    const uint64_t seed = std::random_device{}();
    SCOPED_TRACE(::testing::Message() << "angle seed " << seed);
    const Circuit logical = trotterChain(seed);

    // The expected output, built without the pipeline's stage: block
    // the routed circuit, compose each distinct block memo-free, and
    // reassemble block by block (with no varying gates, a block is one
    // run).
    const CompileResult routed =
        transpileForTechnique(Technique::Geyser, logical);
    const int numAtoms = routed.topology.numAtoms();
    const BlockedCircuit blocked =
        blockCircuit(routed.physical, routed.topology, BlockerOptions{});
    std::map<std::string, ComposeResult> distinct;
    Circuit reassembled(numAtoms);
    long evaluations = 0;
    int composed = 0;
    for (const auto &round : blocked.rounds) {
        for (const Block &block : round.blocks) {
            const Circuit local = blocked.localCircuit(block);
            const std::string text = std::to_string(local.numQubits()) +
                                     "\n" + circuitToText(local);
            auto it = distinct.find(text);
            if (it == distinct.end())
                it = distinct.emplace(text, composeBlockWithSplits(local))
                         .first;
            reassembled.append(
                it->second.circuit.remapped(block.atoms, numAtoms));
            evaluations += it->second.evaluations;
            composed += it->second.composed ? 1 : 0;
        }
    }
    ASSERT_LT(distinct.size(), static_cast<size_t>(blocked.blockCount()))
        << "no block repeats";
    ASSERT_GT(composed, 0);

    const obs::Counter &hits = obs::counter("compose.memo_hits");
    const obs::Counter &misses = obs::counter("compose.memo_misses");
    obs::EnabledScope scope(true);  // Counters only count while enabled.
    const long hits0 = hits.value();
    const long misses0 = misses.value();
    const CompileResult result = compile(Technique::Geyser, logical);
    EXPECT_EQ(misses.value() - misses0, static_cast<long>(distinct.size()));
    EXPECT_EQ(hits.value() - hits0, 0);
    EXPECT_EQ(result.blockCount, blocked.blockCount());
    EXPECT_EQ(result.composedBlockCount, composed);
    EXPECT_EQ(result.compositionEvaluations, evaluations);
    EXPECT_EQ(circuitToText(result.physical), circuitToText(reassembled));
}

TEST(Pipeline, ComposesTheSameOnAPoolWorker)
{
    // On a pool worker the compose batch runs inline, in order; the
    // circuit must not depend on that.
    const uint64_t seed = std::random_device{}();
    SCOPED_TRACE(::testing::Message() << "angle seed " << seed);
    const Circuit logical = trotterChain(seed);
    const CompileResult direct = compile(Technique::Geyser, logical);
    ASSERT_GT(direct.composedBlockCount, 0);
    CompileResult nested;
    CompileResult memoFree;
    globalPool().parallelFor(1, [&](int) {
        nested = compile(Technique::Geyser, logical);
        memoFree = transpileForTechnique(Technique::Geyser, logical);
        blockAndCompose(memoFree, PipelineOptions{}, {}, false);
    });
    EXPECT_EQ(circuitToText(nested.physical), circuitToText(direct.physical));
    EXPECT_EQ(circuitToText(memoFree.physical),
              circuitToText(direct.physical));
    EXPECT_EQ(memoFree.compositionEvaluations, direct.compositionEvaluations);
}

TEST(Pipeline, Vqe4BlocksAreAllCertified)
{
    // No vqe-4 block can compose at depth 1 and none has room for depth
    // 2, so the certificate skips every search: the compile spends no
    // evaluations and still matches its fingerprint row.
    const Circuit logical = benchmarkByName("vqe-4").make();
    const CompileResult result = compile(Technique::Geyser, logical);
    EXPECT_EQ(result.compositionEvaluations, 0);
    EXPECT_EQ(result.blockCount, 20);
    EXPECT_EQ(result.composedBlockCount, 0);
    EXPECT_EQ(result.stats.totalPulses, 304);
    EXPECT_EQ(result.stats.depthPulses, 241);
    EXPECT_EQ(fleet::structureDigest(result.physical),
              "17f067200e95c6c958962496dbd8d2a1");

    const CompileResult routed =
        transpileForTechnique(Technique::Geyser, logical);
    const BlockedCircuit blocked =
        blockCircuit(routed.physical, routed.topology, BlockerOptions{});
    for (const auto &round : blocked.rounds)
        for (const Block &block : round.blocks)
            EXPECT_EQ(composeBlock(blocked.localCircuit(block)).certified, 1);
}

TEST(Pipeline, GeyserStatsAreConsistent)
{
    const Circuit logical = adderBenchmark(1, true);
    const auto gey = compile(Technique::Geyser, logical);
    EXPECT_GE(gey.blockCount, gey.composedBlockCount);
    EXPECT_GE(gey.maxBlockHsd, 0.0);
    EXPECT_LE(gey.maxBlockHsd, 2e-5);
    EXPECT_EQ(gey.finalLayout.size(),
              static_cast<size_t>(logical.numQubits()));
}

}  // namespace
}  // namespace geyser
