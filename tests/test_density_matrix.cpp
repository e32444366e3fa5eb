/**
 * @file
 * Density-matrix simulator tests, including the key cross-validation:
 * the Monte-Carlo trajectory engine converges to the exact Kraus
 * channel output.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "metrics/metrics.hpp"
#include "sim/density_matrix.hpp"
#include "sim/statevector.hpp"
#include "sim/trajectory.hpp"

namespace geyser {
namespace {

TEST(DensityMatrix, InitialStateIsPureZero)
{
    DensityMatrix dm(2);
    EXPECT_NEAR(dm.traceReal(), 1.0, 1e-14);
    EXPECT_NEAR(dm.purity(), 1.0, 1e-14);
    EXPECT_NEAR(dm.probabilities()[0], 1.0, 1e-14);
}

TEST(DensityMatrix, UnitaryEvolutionMatchesStateVector)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.ccz(0, 1, 2);
    c.u3(2, 0.7, 0.2, -0.4);
    c.rzz(1, 2, 0.9);
    DensityMatrix dm(3);
    dm.apply(c);
    const auto pd = dm.probabilities();
    const auto ps = idealDistribution(c);
    for (size_t i = 0; i < ps.size(); ++i)
        EXPECT_NEAR(pd[i], ps[i], 1e-12);
    EXPECT_NEAR(dm.purity(), 1.0, 1e-12);
}

TEST(DensityMatrix, BitFlipChannelMixesState)
{
    DensityMatrix dm(1);
    dm.applyFlipChannel(0, 0.3, 0.0);
    const auto p = dm.probabilities();
    EXPECT_NEAR(p[0], 0.7, 1e-14);
    EXPECT_NEAR(p[1], 0.3, 1e-14);
    EXPECT_LT(dm.purity(), 1.0);
    EXPECT_NEAR(dm.traceReal(), 1.0, 1e-14);
}

TEST(DensityMatrix, PhaseFlipKillsCoherence)
{
    // H|0> then a full phase-flip channel (p = 0.5) fully dephases.
    Circuit c(1);
    c.h(0);
    DensityMatrix dm(1);
    dm.apply(c);
    dm.applyFlipChannel(0, 0.0, 0.5);
    EXPECT_NEAR(std::abs(dm.rho()(0, 1)), 0.0, 1e-14);
    EXPECT_NEAR(dm.purity(), 0.5, 1e-14);
}

TEST(DensityMatrix, TraceAndPositivityPreservedUnderNoise)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    c.ccx(0, 1, 2);
    DensityMatrix dm(3);
    dm.applyNoisy(c, NoiseModel::withRate(0.01));
    EXPECT_NEAR(dm.traceReal(), 1.0, 1e-12);
    for (size_t i = 0; i < dm.dim(); ++i)
        EXPECT_GE(dm.probabilities()[i], -1e-12);
    EXPECT_LT(dm.purity(), 1.0);
}

TEST(DensityMatrix, TrajectoryEngineConvergesToExactChannel)
{
    // The central validation: trajectory averaging samples exactly the
    // channel the density matrix computes in closed form.
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    c.u3(1, 0.8, 0.1, 0.3);
    c.cz(0, 1);
    c.u3(0, 1.2, -0.5, 0.2);

    const NoiseModel nm = NoiseModel::withRate(0.05);
    const auto exact = exactNoisyDistribution(c, nm);
    TrajectoryConfig cfg;
    cfg.trajectories = 30000;
    cfg.seed = 11;
    const auto sampled = noisyDistribution(c, nm, cfg);
    EXPECT_LT(totalVariationDistance(exact, sampled), 0.01);
}

TEST(DensityMatrix, PerPulseChannelAlsoMatchesTrajectories)
{
    // Per-pulse noise scaling needs physical gates (pulse costs).
    Circuit c(2);
    c.u3(0, kPi / 2, 0, kPi);  // H
    c.cz(0, 1);
    NoiseModel nm = NoiseModel::withRate(0.02);
    nm.perPulse = true;
    const auto exact = exactNoisyDistribution(c, nm);
    TrajectoryConfig cfg;
    cfg.trajectories = 30000;
    cfg.seed = 3;
    const auto sampled = noisyDistribution(c, nm, cfg);
    EXPECT_LT(totalVariationDistance(exact, sampled), 0.01);
}

TEST(DensityMatrix, RejectsOversizedRegisters)
{
    EXPECT_THROW(DensityMatrix(12), std::invalid_argument);
}

TEST(DensityMatrix, AmplitudeDampingRelaxesPopulationAndCoherence)
{
    // (|0> + |1>)/sqrt(2) under damping gamma: P(1) = (1 - gamma)/2,
    // and the coherence shrinks by sqrt(1 - gamma).
    const double gamma = 0.3;
    Circuit c(1);
    c.h(0);
    DensityMatrix dm(1);
    dm.apply(c);
    dm.applyAmplitudeDamping(0, gamma);
    EXPECT_NEAR(dm.probabilities()[1], 0.5 * (1.0 - gamma), 1e-14);
    EXPECT_NEAR(dm.probabilities()[0], 0.5 * (1.0 + gamma), 1e-14);
    EXPECT_NEAR(std::abs(dm.rho()(0, 1)), 0.5 * std::sqrt(1.0 - gamma),
                1e-14);
    EXPECT_NEAR(dm.traceReal(), 1.0, 1e-14);
}

TEST(DensityMatrix, ExactReferenceRejectsUnmodelledChannels)
{
    // The reference used to ignore these rates and return a wrong
    // "exact" answer; each one is a ValidationError naming the field.
    Circuit c(2);
    c.u3(0, kPi / 2, 0, kPi);
    c.cz(0, 1);
    const std::pair<const char *, double NoiseModel::*> fields[] = {
        {"atomLoss", &NoiseModel::atomLoss},
        {"crosstalkPhase", &NoiseModel::crosstalkPhase},
        {"idleDephasing", &NoiseModel::idleDephasing},
        {"lossPerGate", &NoiseModel::lossPerGate},
        {"correlatedPauli", &NoiseModel::correlatedPauli},
        {"readoutError", &NoiseModel::readoutError},
    };
    for (const auto &[name, field] : fields) {
        NoiseModel nm = NoiseModel::withRate(0.01);
        nm.ampDamping = 0.01;
        nm.*field = 0.02;
        try {
            exactNoisyDistribution(c, nm);
            ADD_FAILURE() << name << " was accepted";
        } catch (const ValidationError &e) {
            EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
                << e.what();
        }
    }
    NoiseModel modelled = NoiseModel::withRate(0.01);
    modelled.perPulse = true;
    modelled.ampDamping = 0.01;
    EXPECT_NO_THROW(exactNoisyDistribution(c, modelled));
}

}  // namespace
}  // namespace geyser
