/**
 * @file
 * Noise-model and trajectory-simulator tests: channel semantics,
 * convergence toward exact channel output, monotonicity in the error
 * rate, and determinism.
 */
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstring>
#include <iterator>
#include <map>
#include <string>

#include "metrics/metrics.hpp"
#include "obs/obs.hpp"
#include "sim/statevector.hpp"
#include "sim/trajectory.hpp"

namespace geyser {
namespace {

TEST(NoiseModel, PaperDefaultRates)
{
    const auto nm = NoiseModel::paperDefault();
    EXPECT_DOUBLE_EQ(nm.bitFlip, 0.001);
    EXPECT_DOUBLE_EQ(nm.phaseFlip, 0.001);
    EXPECT_FALSE(nm.perPulse);
}

TEST(NoiseModel, PerPulseScalesWithGateCost)
{
    NoiseModel nm{0.001, 0.001, true};
    EXPECT_DOUBLE_EQ(nm.bitFlipFor(Gate(GateKind::U3, 0)), 0.001);
    EXPECT_DOUBLE_EQ(nm.bitFlipFor(Gate(GateKind::CZ, 0, 1)), 0.003);
    EXPECT_DOUBLE_EQ(nm.bitFlipFor(Gate(GateKind::CCZ, 0, 1, 2)), 0.005);
}

TEST(Trajectory, NoiselessMatchesIdeal)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.ccx(0, 1, 2);
    const auto noisy = noisyDistribution(c, NoiseModel::withRate(0.0));
    const auto ideal = idealDistribution(c);
    EXPECT_NEAR(totalVariationDistance(noisy, ideal), 0.0, 1e-12);
}

TEST(Trajectory, ConvergesToExactChannelOnOneGate)
{
    // One X gate with bit-flip rate p: the output is |1> with
    // probability 1-p and |0> with probability p. TVD to ideal = p.
    Circuit c(1);
    c.x(0);
    NoiseModel nm{0.1, 0.0, false};
    TrajectoryConfig cfg;
    cfg.trajectories = 20000;
    cfg.seed = 5;
    const auto noisy = noisyDistribution(c, nm, cfg);
    EXPECT_NEAR(noisy[0], 0.1, 0.01);
    EXPECT_NEAR(noisy[1], 0.9, 0.01);
}

TEST(Trajectory, PhaseFlipInvisibleInComputationalBasis)
{
    // Z errors after an X gate do not change measurement probabilities.
    Circuit c(1);
    c.x(0);
    NoiseModel nm{0.0, 0.3, false};
    TrajectoryConfig cfg;
    cfg.trajectories = 200;
    const auto noisy = noisyDistribution(c, nm, cfg);
    EXPECT_NEAR(noisy[1], 1.0, 1e-12);
}

TEST(Trajectory, PhaseFlipDamagesSuperpositions)
{
    // H then noisy-H: phase flips between the Hadamards show up.
    Circuit c(1);
    c.h(0);
    c.h(0);
    NoiseModel nm{0.0, 0.5, false};
    TrajectoryConfig cfg;
    cfg.trajectories = 4000;
    cfg.seed = 9;
    const auto noisy = noisyDistribution(c, nm, cfg);
    // With p=0.5 the first H's phase flip fully dephases: 50/50... the
    // second H's flip acts after measurement basis is fixed. Expect
    // p(|1>) near 0.25 + small second-order terms... just require a
    // substantial deviation from the ideal p(|1>) = 0.
    EXPECT_GT(noisy[1], 0.15);
}

TEST(Trajectory, TvdIncreasesWithNoiseRate)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    for (int i = 0; i < 10; ++i) {
        c.cx(0, 1);
        c.cx(0, 1);
    }
    TrajectoryConfig cfg;
    cfg.trajectories = 400;
    cfg.seed = 21;
    const auto ideal = idealDistribution(c);
    const double t1 = totalVariationDistance(
        ideal, noisyDistribution(c, NoiseModel::withRate(0.0005), cfg));
    const double t2 = totalVariationDistance(
        ideal, noisyDistribution(c, NoiseModel::withRate(0.005), cfg));
    const double t3 = totalVariationDistance(
        ideal, noisyDistribution(c, NoiseModel::withRate(0.02), cfg));
    EXPECT_LT(t1, t2);
    EXPECT_LT(t2, t3);
}

TEST(Trajectory, FewerGatesMeanLowerTvd)
{
    // The core premise of the paper: a circuit with fewer (noisy)
    // operations has higher output fidelity.
    Circuit small(2);
    small.h(0);
    small.cx(0, 1);
    Circuit big(2);
    big.h(0);
    big.cx(0, 1);
    for (int i = 0; i < 15; ++i) {
        big.cx(0, 1);
        big.cx(0, 1);
    }
    const NoiseModel nm = NoiseModel::paperDefault();
    TrajectoryConfig cfg;
    cfg.trajectories = 2000;
    cfg.seed = 33;
    const auto ideal = idealDistribution(small);
    const double tvdSmall =
        totalVariationDistance(ideal, noisyDistribution(small, nm, cfg));
    const double tvdBig =
        totalVariationDistance(ideal, noisyDistribution(big, nm, cfg));
    EXPECT_LT(tvdSmall, tvdBig);
}

TEST(Trajectory, DeterministicForFixedSeed)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    TrajectoryConfig cfg;
    cfg.trajectories = 50;
    cfg.seed = 77;
    cfg.parallel = false;
    const auto a = noisyDistribution(c, NoiseModel::paperDefault(), cfg);
    const auto b = noisyDistribution(c, NoiseModel::paperDefault(), cfg);
    EXPECT_EQ(a, b);
}

TEST(Trajectory, ParallelMatchesSerial)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    TrajectoryConfig serial{200, 123, false};
    TrajectoryConfig parallel{200, 123, true};
    const auto a = noisyDistribution(c, NoiseModel::paperDefault(), serial);
    const auto b = noisyDistribution(c, NoiseModel::paperDefault(), parallel);
    // Same per-trajectory seeds, different accumulation order: results
    // agree to floating-point reassociation.
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(a[i], b[i], 1e-12);
}

TEST(Trajectory, ChunkSumsFoldInChunkOrderAcrossWindows)
{
    // A chunk sums 16 trajectories, exactly 16 times the output of a
    // 16-trajectory run from the chunk's first seed (dividing by 16 is
    // exact). So the whole run is those runs folded in chunk order,
    // bit for bit. 200 chunks span several of the engine's fold windows.
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    c.rx(2, 0.3);
    NoiseModel noise = NoiseModel::paperDefault();
    noise.ampDamping = 0.02;
    noise.readoutError = 0.01;
    constexpr int kChunks = 200;
    constexpr uint64_t kSeed = 99;
    Distribution want(8, 0.0);
    for (int chunk = 0; chunk < kChunks; ++chunk) {
        const Distribution run = noisyDistribution(
            c, noise,
            TrajectoryConfig{16, kSeed + 16 * static_cast<uint64_t>(chunk),
                             false});
        for (size_t i = 0; i < want.size(); ++i)
            want[i] += 16.0 * run[i];
    }
    for (auto &v : want)
        v /= 16 * kChunks;
    for (const bool parallel : {false, true}) {
        const Distribution got = noisyDistribution(
            c, noise, TrajectoryConfig{16 * kChunks, kSeed, parallel});
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(double)),
                  0)
            << (parallel ? "parallel" : "serial");
    }
}

/** Peak resident set of this process, KiB (Linux ru_maxrss). */
long
peakRssKib()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

TEST(Trajectory, ChunkSumsStayBoundedAsTrajectoriesGrow)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "a sanitizer allocator holds freed blocks and shadow "
                    "memory, so peak RSS does not track live buffers";
#endif
    // Gates on atoms 0 and 1 of 14: each trajectory is cheap, but every
    // chunk sum covers 2^14 outcomes (128 KiB). Holding all 1024 chunk
    // sums to the end would raise peak RSS by 128 MiB per call; the
    // fold window holds 64 (8 MiB), one when serial.
    Circuit c(14);
    c.h(0);
    c.cx(0, 1);
    const long before = peakRssKib();
    for (const bool parallel : {false, true})
        noisyDistribution(c, NoiseModel::paperDefault(),
                          TrajectoryConfig{16 * 1024, 5, parallel});
    EXPECT_LT(peakRssKib() - before, 48 * 1024);
}

/** Numeric args of the `sim.trajectories` span of one traced call. */
std::map<std::string, double>
trajectorySpanArgs(const Circuit &c)
{
    constexpr uint64_t kTrace = 19;
    obs::beginTrace(kTrace);
    {
        obs::TraceScope scope(kTrace);
        noisyDistribution(c, NoiseModel::paperDefault(),
                          TrajectoryConfig{16, 5, false});
    }
    std::map<std::string, double> args;
    for (const auto &e : obs::traceEvents(kTrace))
        if (e.name == "sim.trajectories")
            args.insert(e.numArgs.begin(), e.numArgs.end());
    return args;
}

TEST(Trajectory, SpanReportsSimulatedQubits)
{
    // Twelve atoms, ten of them (0 and 1 among them) touched by a gate:
    // the engine pins atoms 7 and 11 and the span says so.
    Circuit c(12);
    const Qubit touched[] = {0, 1, 2, 3, 4, 5, 6, 8, 9, 10};
    for (const Qubit q : touched)
        c.h(q);
    for (size_t i = 0; i + 1 < std::size(touched); ++i)
        c.cx(touched[i], touched[i + 1]);
    auto args = trajectorySpanArgs(c);
    EXPECT_EQ(args["qubits"], 12.0);
    EXPECT_EQ(args["simulated_qubits"], 10.0);

    // Atoms 0 and 1 stay simulated even when no gate touches them: they
    // keep every SIMD kernel call on its full-width path.
    Circuit far(12);
    for (Qubit q = 2; q < 10; ++q)
        far.h(q);
    args = trajectorySpanArgs(far);
    EXPECT_EQ(args["simulated_qubits"], 10.0);
}

TEST(Metrics, TvdBasicProperties)
{
    const Distribution p{0.5, 0.5};
    const Distribution q{1.0, 0.0};
    EXPECT_NEAR(totalVariationDistance(p, p), 0.0, 1e-15);
    EXPECT_NEAR(totalVariationDistance(p, q), 0.5, 1e-15);
    EXPECT_NEAR(totalVariationDistance(q, {0.0, 1.0}), 1.0, 1e-15);
    EXPECT_THROW(totalVariationDistance(p, {1.0}), std::invalid_argument);
}

TEST(Metrics, CircuitStatsCountsEverything)
{
    Circuit c(3);
    c.u3(0, 1, 1, 1);
    c.u3(1, 1, 1, 1);
    c.cz(0, 1);
    c.ccz(0, 1, 2);
    const auto stats = circuitStats(c);
    EXPECT_EQ(stats.numQubits, 3);
    EXPECT_EQ(stats.u3Count, 2);
    EXPECT_EQ(stats.czCount, 1);
    EXPECT_EQ(stats.cczCount, 1);
    EXPECT_EQ(stats.totalPulses, 10);
    EXPECT_GT(stats.depthPulses, 0);
}

}  // namespace
}  // namespace geyser
