/**
 * @file
 * Atom-loss channel tests (paper Sec 6 extension): lost atoms skip
 * gates and read out depolarized; fidelity degrades smoothly with the
 * loss rate.
 */
#include <gtest/gtest.h>

#include "metrics/metrics.hpp"
#include "sim/statevector.hpp"
#include "sim/trajectory.hpp"

namespace geyser {
namespace {

TEST(AtomLoss, ZeroLossMatchesPlainNoise)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    NoiseModel a = NoiseModel::paperDefault();
    NoiseModel b = a;
    b.atomLoss = 0.0;
    TrajectoryConfig cfg{100, 4, false};
    EXPECT_EQ(noisyDistribution(c, a, cfg), noisyDistribution(c, b, cfg));
}

TEST(AtomLoss, CertainLossDepolarizesEverything)
{
    // With loss probability 1 every gate is skipped and every qubit
    // reads out uniformly random.
    Circuit c(2);
    c.x(0);
    c.x(1);
    NoiseModel nm{0.0, 0.0, false, 1.0};
    TrajectoryConfig cfg{50, 4, false};
    const auto p = noisyDistribution(c, nm, cfg);
    for (const double v : p)
        EXPECT_NEAR(v, 0.25, 1e-12);
}

TEST(AtomLoss, LossMakesIsolatedQubitUniform)
{
    // One-qubit circuit: loss rate q mixes the ideal |1> with uniform.
    Circuit c(1);
    c.x(0);
    NoiseModel nm{0.0, 0.0, false, 0.25};
    TrajectoryConfig cfg{20000, 8, true};
    const auto p = noisyDistribution(c, nm, cfg);
    // p(|0>) = loss * 0.5 = 0.125.
    EXPECT_NEAR(p[0], 0.125, 0.01);
}

TEST(AtomLoss, TvdDegradesMonotonicallyWithLossRate)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    TrajectoryConfig cfg{3000, 15, true};
    const auto ideal = idealDistribution(c);
    double prev = -1.0;
    for (const double loss : {0.0, 0.05, 0.2, 0.5}) {
        NoiseModel nm{0.0, 0.0, false, loss};
        const double tvd =
            totalVariationDistance(ideal, noisyDistribution(c, nm, cfg));
        EXPECT_GT(tvd, prev - 0.02) << loss;
        prev = tvd;
    }
    EXPECT_GT(prev, 0.2);
}

TEST(AtomLoss, GateSkippingKeepsStateNormalized)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    NoiseModel nm{0.001, 0.001, false, 0.3};
    TrajectoryConfig cfg{500, 3, true};
    const auto p = noisyDistribution(c, nm, cfg);
    double total = 0.0;
    for (const double v : p)
        total += v;
    EXPECT_NEAR(total, 1.0, 1e-9);
}

}  // namespace
}  // namespace geyser
