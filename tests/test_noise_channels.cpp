/**
 * @file
 * Composable noise-channel tests: the paper channel against its exact
 * Kraus reference, per-channel physics, RNG-stream isolation, order
 * invariance, and the trajectory-request validation contract.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "metrics/metrics.hpp"
#include "obs/obs.hpp"
#include "sim/density_matrix.hpp"
#include "sim/noise_channel.hpp"
#include "sim/trajectory.hpp"
#include "topology/topology.hpp"
#include "verify/differential.hpp"
#include "verify/random_circuit.hpp"

namespace geyser {
namespace {

// ---- Shared fixtures ------------------------------------------------

/** A logical probe: H/CX/CCX/CCZ mix over four qubits. */
Circuit
logicalProbe()
{
    Circuit c(4);
    c.h(0);
    c.cx(0, 1);
    c.u3(2, 0.3, 0.1, 0.7);
    c.ccx(0, 1, 2);
    c.rz(3, 0.25);
    c.cz(2, 3);
    c.h(3);
    c.ccz(1, 2, 3);
    c.cx(3, 0);
    c.h(2);
    return c;
}

/** A physical probe: U3/CZ/CCZ with pulse costs, over four atoms. */
Circuit
physicalProbe()
{
    Circuit c(4);
    c.u3(0, 1.5707963267948966, 0.0, 3.141592653589793);
    c.cz(0, 1);
    c.u3(1, 0.4, 0.2, 0.9);
    c.ccz(0, 1, 2);
    c.u3(2, 0.8, 0.0, 0.1);
    c.cz(2, 3);
    c.u3(3, 0.6, 0.3, 0.2);
    c.ccz(1, 2, 3);
    c.u3(0, 0.2, 0.5, 0.4);
    c.cz(1, 3);
    return c;
}

/**
 * A physical probe on the six atoms of Topology::makeTriangular(2, 3)
 * that never touches atoms 2 and 5. Both sit in restriction zones
 * (cz(0, 1) has zone {2, 3, 4}, cz(3, 4) has {0, 1, 2, 5}), so
 * crosstalk and pre-shot loss reach them although no gate does.
 */
Circuit
idleAtomProbe()
{
    Circuit c(6);
    c.u3(0, 1.5707963267948966, 0.0, 3.141592653589793);
    c.u3(3, 0.9, 0.2, 0.4);
    c.cz(0, 1);
    c.u3(1, 0.7, 0.1, 0.3);
    c.ccz(0, 1, 3);
    c.cz(3, 4);
    c.u3(4, 0.5, 0.3, 0.2);
    c.cz(1, 4);
    c.u3(0, 1.5707963267948966, 0.0, 3.141592653589793);
    c.u3(3, 1.5707963267948966, 0.0, 3.141592653589793);
    return c;
}

uint64_t
bitsOf(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

double
marginalOne(const Distribution &p, int q)
{
    const size_t mask = size_t{1} << q;
    double one = 0.0;
    for (size_t i = 0; i < p.size(); ++i)
        if (i & mask)
            one += p[i];
    return one;
}

/** A model with every extended channel on (no crosstalk: no topology). */
NoiseModel
allChannelsModel()
{
    NoiseModel nm = NoiseModel::paperDefault();
    nm.ampDamping = 0.01;
    nm.idleDephasing = 0.002;
    nm.lossPerGate = 0.005;
    nm.correlatedPauli = 0.01;
    nm.readoutError = 0.02;
    return nm;
}

// ---- The paper channel against its exact Kraus reference -----------

/**
 * Exact output of the paper channel (bit/phase flips, crosstalk) plus
 * amplitude damping and pre-shot atom loss, by density-matrix
 * evolution: a mixture over every set S of atoms lost before the shot,
 * weighted a^|S| (1-a)^(n-|S|). Within one set, each gate that touches
 * no lost atom runs, followed by the flip and damping channels on its
 * operands (applyNoisy) and the crosstalk phase-flip channel on its
 * restriction zone; lost atoms then read out uniformly.
 */
Distribution
exactPaperChannel(const Circuit &c, const NoiseModel &nm,
                  const Topology *topology)
{
    const int n = c.numQubits();
    const size_t dim = size_t{1} << n;
    Distribution mixture(dim, 0.0);
    for (size_t lost = 0; lost < dim; ++lost) {
        const int k = std::popcount(lost);
        const double weight =
            std::pow(nm.atomLoss, k) * std::pow(1.0 - nm.atomLoss, n - k);
        if (weight == 0.0)
            continue;
        DensityMatrix dm(n);
        for (const Gate &g : c.gates()) {
            std::vector<int> operands;
            bool touchesLost = false;
            for (int i = 0; i < g.numQubits(); ++i) {
                operands.push_back(g.qubit(i));
                touchesLost |= ((lost >> g.qubit(i)) & 1) != 0;
            }
            if (touchesLost)
                continue;
            dm.applyNoisy(g, nm);
            if (nm.crosstalkPhase > 0.0 && g.numQubits() >= 2)
                for (const int z : topology->restrictionZone(operands))
                    dm.applyFlipChannel(z, 0.0, nm.crosstalkPhase);
        }
        Distribution p = dm.probabilities();
        for (int q = 0; q < n; ++q) {
            if (((lost >> q) & 1) == 0)
                continue;
            const size_t mask = size_t{1} << q;
            for (size_t i = 0; i < dim; ++i)
                if (!(i & mask))
                    p[i] = p[i | mask] = 0.5 * (p[i] + p[i | mask]);
        }
        for (size_t i = 0; i < dim; ++i)
            mixture[i] += weight * p[i];
    }
    return mixture;
}

TEST(PaperChannel, TrajectoriesMatchExactKrausReference)
{
    // The trajectory average must converge to the channel the paper
    // evaluated with, whatever order the draws are made in. Rates sit
    // above the paper's 0.1% so that every sub-channel is visible:
    // switching any one off moves the exact reference by at least
    // kMargin bounds, so a source that skips a draw cannot pass.
    // The sampling TVD grows with the square root of the outcome count,
    // so the budget grows with the outcome count: 200 000 trajectories
    // on four qubits. Over 40 seeds per configuration the sampling TVD
    // stayed <= 0.0015.
    constexpr int kTrajectoriesPerOutcome = 12500;
    constexpr double kTvdBound = 0.003;
    constexpr double kMargin = 5.0;

    const auto topo = Topology::makeTriangular(2, 2);
    NoiseModel flips = NoiseModel::noiseless();
    flips.bitFlip = 0.01;
    flips.phaseFlip = 0.05;
    NoiseModel perPulse = flips;
    perPulse.bitFlip = 0.004;  // Scaled by up to 5 pulses per gate.
    perPulse.perPulse = true;
    NoiseModel preShotLoss = flips;
    preShotLoss.atomLoss = 0.2;
    NoiseModel crosstalk = flips;
    crosstalk.crosstalkPhase = 0.3;
    NoiseModel kitchenSink = perPulse;
    kitchenSink.atomLoss = 0.1;
    kitchenSink.crosstalkPhase = 0.25;
    // The two sub-channels that reach atoms no gate touches.
    NoiseModel idleAtoms = flips;
    idleAtoms.atomLoss = 0.15;
    idleAtoms.crosstalkPhase = 0.3;
    const auto wideTopo = Topology::makeTriangular(2, 3);
    // T1 decay, whose draws read the state, alone and after the flips.
    NoiseModel damping = NoiseModel::noiseless();
    damping.ampDamping = 0.02;
    NoiseModel dampedFlips = flips;
    dampedFlips.ampDamping = 0.02;

    struct Case
    {
        const char *name;
        Circuit circuit;
        NoiseModel model;
        const Topology *topology;
        uint64_t seed;
    };
    const Case cases[] = {
        {"paper-default-logical", logicalProbe(), flips, nullptr, 20260808},
        {"paper-default-physical", physicalProbe(), flips, nullptr, 4242},
        {"per-pulse-physical", physicalProbe(), perPulse, nullptr, 31337},
        {"pre-shot-loss", logicalProbe(), preShotLoss, nullptr, 77},
        {"crosstalk", logicalProbe(), crosstalk, &topo, 99},
        {"kitchen-sink", physicalProbe(), kitchenSink, &topo, 5150},
        {"idle-atoms-in-zones", idleAtomProbe(), idleAtoms, &wideTopo, 6061},
        {"damping-physical", physicalProbe(), damping, nullptr, 8128},
        {"damping-with-flips", physicalProbe(), dampedFlips, nullptr, 496},
    };
    // Each switches one sub-channel off and reports whether it was on.
    const std::pair<const char *, bool (*)(NoiseModel &)> subChannels[] = {
        {"bit-flip",
         [](NoiseModel &m) { return std::exchange(m.bitFlip, 0.0) > 0.0; }},
        {"phase-flip",
         [](NoiseModel &m) { return std::exchange(m.phaseFlip, 0.0) > 0.0; }},
        {"per-pulse scaling",
         [](NoiseModel &m) { return std::exchange(m.perPulse, false); }},
        {"pre-shot loss",
         [](NoiseModel &m) { return std::exchange(m.atomLoss, 0.0) > 0.0; }},
        {"crosstalk",
         [](NoiseModel &m) {
             return std::exchange(m.crosstalkPhase, 0.0) > 0.0;
         }},
        {"amplitude damping",
         [](NoiseModel &m) {
             return std::exchange(m.ampDamping, 0.0) > 0.0;
         }},
    };

    for (const Case &tc : cases) {
        SCOPED_TRACE(tc.name);
        const Distribution exact =
            exactPaperChannel(tc.circuit, tc.model, tc.topology);
        for (const auto &[sub, switchOff] : subChannels) {
            NoiseModel without = tc.model;
            if (!switchOff(without))
                continue;
            EXPECT_GE(totalVariationDistance(
                          exact, exactPaperChannel(tc.circuit, without,
                                                   tc.topology)),
                      kMargin * kTvdBound)
                << "switching off " << sub;
        }
        const TrajectoryConfig cfg{
            kTrajectoriesPerOutcome << tc.circuit.numQubits(), tc.seed, true,
            tc.topology};
        EXPECT_LE(totalVariationDistance(
                      exact, noisyDistribution(tc.circuit, tc.model, cfg)),
                  kTvdBound);
    }
}

// ---- StreamRng ------------------------------------------------------

TEST(StreamRng, SameKeySameSequence)
{
    StreamRng a(42, NoiseChannelId::AmpDamping, 7);
    StreamRng b(42, NoiseChannelId::AmpDamping, 7);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(StreamRng, DistinctKeysDecorrelate)
{
    StreamRng base(42, NoiseChannelId::AmpDamping, 7);
    StreamRng otherSeed(43, NoiseChannelId::AmpDamping, 7);
    StreamRng otherChannel(42, NoiseChannelId::ReadoutError, 7);
    StreamRng otherEvent(42, NoiseChannelId::AmpDamping, 8);
    const double u = base.uniform();
    EXPECT_NE(u, otherSeed.uniform());
    EXPECT_NE(u, otherChannel.uniform());
    EXPECT_NE(u, otherEvent.uniform());
}

TEST(StreamRng, UniformStaysInUnitInterval)
{
    StreamRng rng(1, NoiseChannelId::IdleDephasing, kShotEventIndex);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        const int k = rng.uniformInt(5);
        EXPECT_GE(k, 0);
        EXPECT_LT(k, 5);
    }
}

// ---- Per-channel physics --------------------------------------------

TEST(AmpDamping, CertainDampingCollapsesToGround)
{
    // gamma = 1 makes the jump probability equal P(q = 1) = 1 after an
    // X, so every trajectory relaxes back to |0>.
    Circuit c(1);
    c.x(0);
    TrajectoryConfig cfg{8, 11, false, nullptr};
    const auto p = noisyDistribution(
        c, NoiseModel::singleChannel(NoiseChannelId::AmpDamping, 1.0), cfg);
    EXPECT_NEAR(p[0], 1.0, 1e-12);
    EXPECT_NEAR(p[1], 0.0, 1e-12);
}

TEST(AmpDamping, JumpRateMatchesGamma)
{
    // One X then a damping step with gamma = 0.25: survive |1> with
    // probability 0.75.
    Circuit c(1);
    c.x(0);
    TrajectoryConfig cfg{20000, 13, true, nullptr};
    const auto p = noisyDistribution(
        c, NoiseModel::singleChannel(NoiseChannelId::AmpDamping, 0.25),
        cfg);
    EXPECT_NEAR(p[1], 0.75, 0.02);
}

TEST(AmpDamping, PreservesNormalization)
{
    const Circuit c = verify::randomPhysicalCircuit(3, 16, 555);
    TrajectoryConfig cfg{64, 17, false, nullptr};
    const auto p = noisyDistribution(
        c, NoiseModel::singleChannel(NoiseChannelId::AmpDamping, 0.1), cfg);
    double sum = 0.0;
    for (const double v : p)
        sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(IdleDephasing, RequiresPhysicalCircuit)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    TrajectoryConfig cfg{32, 19, false, nullptr};
    EXPECT_THROW(
        noisyDistribution(
            c, NoiseModel::singleChannel(NoiseChannelId::IdleDephasing, 0.1),
            cfg),
        ValidationError);
}

TEST(IdleDephasing, DephasesQubitThatSitsIdle)
{
    // q0 goes to |+>, then waits 8 pulses while q1/q2 run three CZs,
    // then interferes back. At a saturating rate the idle window is a
    // p = 1/2 phase flip, so the ideally-deterministic |0> output
    // becomes a coin toss.
    const double kH = 1.5707963267948966;
    Circuit c(3);
    c.u3(0, kH, 0.0, 3.141592653589793);
    c.cz(1, 2);
    c.cz(1, 2);
    c.cz(1, 2);
    c.cz(0, 1);
    c.u3(0, kH, 0.0, 3.141592653589793);
    TrajectoryConfig cfg{4000, 23, true, nullptr};
    const auto p = noisyDistribution(
        c, NoiseModel::singleChannel(NoiseChannelId::IdleDephasing, 10.0),
        cfg);
    EXPECT_NEAR(marginalOne(p, 0), 0.5, 0.03);
}

TEST(IdleDephasing, NoIdleTimeNoEffect)
{
    // Back-to-back gates on one qubit accumulate zero idle pulses, so
    // even a saturating rate changes nothing.
    const double kH = 1.5707963267948966;
    Circuit c(1);
    c.u3(0, kH, 0.0, 3.141592653589793);
    c.u3(0, kH, 0.0, 3.141592653589793);
    TrajectoryConfig cfg{64, 29, false, nullptr};
    const auto p = noisyDistribution(
        c, NoiseModel::singleChannel(NoiseChannelId::IdleDephasing, 10.0),
        cfg);
    EXPECT_NEAR(p[0], 1.0, 1e-12);
}

TEST(AtomLoss, CertainLossDepolarizesTouchedQubitsExactly)
{
    // lossPerGate = 1 loses q0 and q1 right before their first gates;
    // q2 has no gates and is never at risk. One trajectory suffices:
    // the lost marginals are *exactly* uniform (engine-level readout
    // depolarization), the untouched qubit is exactly ideal.
    Circuit c(3);
    c.h(0);
    c.x(1);
    TrajectoryConfig cfg{1, 31, false, nullptr};
    const auto p = noisyDistribution(
        c, NoiseModel::singleChannel(NoiseChannelId::AtomLossTracking, 1.0),
        cfg);
    EXPECT_DOUBLE_EQ(marginalOne(p, 0), 0.5);
    EXPECT_DOUBLE_EQ(marginalOne(p, 1), 0.5);
    EXPECT_DOUBLE_EQ(marginalOne(p, 2), 0.0);
    // Joint structure: uniform over the lost pair, pinned q2 = 0.
    for (size_t i = 0; i < p.size(); ++i)
        EXPECT_DOUBLE_EQ(p[i], (i & 4) ? 0.0 : 0.25) << "outcome " << i;
}

TEST(AtomLoss, StrikesMidCircuit)
{
    // x; x on one qubit with per-gate loss 0.3. Pre-shot loss could
    // only mix {ideal |0>, depolarized}: p(1) = 0.15. Mid-circuit loss
    // can also strike between the two X gates (freezing the qubit in
    // |1> before depolarized readout): p(1) = 0.3*0.5 + 0.7*0.3*0.5
    // = 0.255 — distinguishable from any pre-shot rate at this seed.
    Circuit c(1);
    c.x(0);
    c.x(0);
    TrajectoryConfig cfg{20000, 37, true, nullptr};
    const auto p = noisyDistribution(
        c, NoiseModel::singleChannel(NoiseChannelId::AtomLossTracking, 0.3),
        cfg);
    EXPECT_NEAR(p[1], 0.255, 0.02);
}

TEST(AtomLoss, PreShotAndPerGateLossCompose)
{
    // One source owns both loss rates. x; x with pre-shot loss a and
    // per-gate loss g: a lost atom reads 1 half the time, a survivor
    // reads 0, so p(1) = 0.5a + 0.5(1 - a) g(2 - g) = 0.304.
    Circuit c(1);
    c.x(0);
    c.x(0);
    NoiseModel nm = NoiseModel::noiseless();
    nm.atomLoss = 0.2;
    nm.lossPerGate = 0.3;
    TrajectoryConfig cfg{20000, 71, true, nullptr};
    EXPECT_NEAR(noisyDistribution(c, nm, cfg)[1], 0.304, 0.01);
}

TEST(AtomLoss, PreShotLossCountsAsAtomLossEvents)
{
    // Certain pre-shot loss: every atom of every shot is one event of
    // the atom-loss channel and none of the paper flip channel.
    Circuit c(2);
    c.x(0);
    c.x(1);
    obs::EnabledScope scope(true);
    auto &loss = obs::counter("sim.noise.atom_loss_events");
    auto &paper = obs::counter("sim.noise.legacy_pauli_events");
    const long lossBefore = loss.value();
    const long paperBefore = paper.value();
    NoiseModel nm = NoiseModel::noiseless();
    nm.atomLoss = 1.0;
    TrajectoryConfig cfg{8, 73, false, nullptr};
    noisyDistribution(c, nm, cfg);
    EXPECT_EQ(loss.value() - lossBefore, 2 * 8);
    EXPECT_EQ(paper.value() - paperBefore, 0);
}

TEST(CorrelatedPauli, OnlyFiresOnEntanglingGates)
{
    Circuit c(2);
    c.u3(0, 0.3, 0.2, 0.1);
    c.u3(1, 0.7, 0.4, 0.5);
    TrajectoryConfig cfg{32, 41, false, nullptr};
    const auto noisy = noisyDistribution(
        c, NoiseModel::singleChannel(NoiseChannelId::CorrelatedPauli, 1.0),
        cfg);
    const auto ideal = idealDistribution(c);
    for (size_t i = 0; i < noisy.size(); ++i)
        EXPECT_NEAR(noisy[i], ideal[i], 1e-12);
}

TEST(CorrelatedPauli, DrawsUniformNonIdentityPairs)
{
    // CZ on |00> is the identity, so any deviation is the injected
    // pair. Of the 15 non-identity pairs, exactly the 3 in {I,Z}x{I,Z}
    // leave both bits at zero: p(00) = 3/15 = 0.2 at rate 1.
    Circuit c(2);
    c.cz(0, 1);
    TrajectoryConfig cfg{30000, 43, true, nullptr};
    const auto p = noisyDistribution(
        c, NoiseModel::singleChannel(NoiseChannelId::CorrelatedPauli, 1.0),
        cfg);
    EXPECT_NEAR(p[0], 0.2, 0.015);
}

TEST(Readout, AppliesExactConfusionMatrix)
{
    Circuit c(1);
    c.x(0);
    TrajectoryConfig cfg{16, 47, false, nullptr};
    const auto p = noisyDistribution(
        c, NoiseModel::singleChannel(NoiseChannelId::ReadoutError, 0.1),
        cfg);
    EXPECT_NEAR(p[0], 0.1, 1e-12);
    EXPECT_NEAR(p[1], 0.9, 1e-12);
}

TEST(Readout, ComposesAsLinearMapOverLegacyNoise)
{
    // Readout is a deterministic linear transform, so adding it to the
    // paper model must give exactly the confusion matrix applied to
    // the paper-only distribution (same seed): the paper channel's
    // draws are untouched by the extra channel.
    const Circuit c = logicalProbe();
    TrajectoryConfig cfg{64, 53, false, nullptr};
    const auto base =
        noisyDistribution(c, NoiseModel::paperDefault(), cfg);
    NoiseModel withReadout = NoiseModel::paperDefault();
    withReadout.readoutError = 0.07;
    const auto got = noisyDistribution(c, withReadout, cfg);

    Distribution expected = base;
    for (int q = 0; q < c.numQubits(); ++q) {
        const size_t mask = size_t{1} << q;
        for (size_t i = 0; i < expected.size(); ++i) {
            if (i & mask)
                continue;
            const double p0 = expected[i];
            const double p1 = expected[i | mask];
            expected[i] = 0.93 * p0 + 0.07 * p1;
            expected[i | mask] = 0.07 * p0 + 0.93 * p1;
        }
    }
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_NEAR(got[i], expected[i], 1e-12);
}

// ---- RNG-stream isolation and composition ---------------------------

TEST(StreamIsolation, DormantChannelDoesNotPerturbLegacyDraws)
{
    // An enabled-but-never-firing channel draws only from its own
    // keyed stream, so the paper channel's draws — and therefore the
    // whole distribution — are bit-identical. Under a shared
    // sequential RNG this test fails.
    const Circuit c = logicalProbe();
    TrajectoryConfig cfg{64, 59, false, nullptr};
    const auto base =
        noisyDistribution(c, NoiseModel::paperDefault(), cfg);
    NoiseModel withDormantLoss = NoiseModel::paperDefault();
    withDormantLoss.lossPerGate = 1e-300;  // Draws, never fires.
    const auto got = noisyDistribution(c, withDormantLoss, cfg);
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(bitsOf(base[i]), bitsOf(got[i])) << "outcome " << i;
}

TEST(ChannelOrder, ReversedRegistrationIsBitExact)
{
    const Circuit c = physicalProbe();
    const NoiseModel nm = allChannelsModel();
    TrajectoryConfig cfg{32, 61, false, nullptr};
    const auto forward = noisyDistribution(c, nm, cfg);
    TrajectoryConfig reversed = cfg;
    reversed.reverseChannelOrder = true;
    const auto backward = noisyDistribution(c, nm, reversed);
    for (size_t i = 0; i < forward.size(); ++i)
        EXPECT_EQ(bitsOf(forward[i]), bitsOf(backward[i]))
            << "outcome " << i;
}

TEST(ChannelOrder, InvariantOnRandomPhysicalCircuits)
{
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        const Circuit c = verify::randomPhysicalCircuit(4, 24, seed);
        const NoiseModel probe =
            verify::allChannelProbeModel(c, NoiseModel::paperDefault());
        EXPECT_EQ(verify::channelOrderGap(c, probe, 12, 1000 + seed), 0.0)
            << "seed " << seed;
    }
}

TEST(Parallelism, SerialMatchesParallelWithEveryChannelEnabled)
{
    // Chunked accumulation makes serial and parallel runs bit-identical
    // even with all six channels (plus crosstalk and per-pulse scaling)
    // live.
    const auto topo = Topology::makeTriangular(2, 2);
    NoiseModel nm = allChannelsModel();
    nm.bitFlip = 0.002;
    nm.phaseFlip = 0.0015;
    nm.perPulse = true;
    nm.atomLoss = 0.05;
    nm.crosstalkPhase = 0.1;
    const Circuit c = physicalProbe();
    TrajectoryConfig serial{64, 67, false, &topo};
    TrajectoryConfig parallel{64, 67, true, &topo};
    const auto ps = noisyDistribution(c, nm, serial);
    const auto pp = noisyDistribution(c, nm, parallel);
    for (size_t i = 0; i < ps.size(); ++i)
        EXPECT_EQ(bitsOf(ps[i]), bitsOf(pp[i])) << "outcome " << i;
}

TEST(VerifyChannels, TrajectoryEngineMatchesStatevectorWhenChannelsOff)
{
    for (uint64_t seed = 10; seed <= 12; ++seed) {
        const Circuit c = verify::randomLogicalCircuit(4, 20, seed);
        EXPECT_LE(verify::channelsOffGap(c, seed), 1e-12)
            << "seed " << seed;
    }
}

// ---- Validation contract (trajectory-request bugfixes) --------------

TEST(Validation, RejectsNonPositiveTrajectoryCounts)
{
    Circuit c(1);
    c.h(0);
    TrajectoryConfig zero{0, 3, false, nullptr};
    EXPECT_THROW(noisyDistribution(c, NoiseModel::paperDefault(), zero),
                 ValidationError);
    TrajectoryConfig negative{-5, 3, false, nullptr};
    EXPECT_THROW(noisyDistribution(c, NoiseModel::paperDefault(), negative),
                 ValidationError);
}

TEST(Validation, RejectsPerPulseNoiseOnLogicalGates)
{
    // perPulse noise on a pulse-less logical gate used to silently
    // yield a zero error probability; it is a validation error naming
    // the offending gate now.
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    NoiseModel nm = NoiseModel::paperDefault();
    nm.perPulse = true;
    TrajectoryConfig cfg{32, 5, false, nullptr};
    try {
        noisyDistribution(c, nm, cfg);
        FAIL() << "expected ValidationError";
    } catch (const ValidationError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("perPulse"), std::string::npos) << what;
        EXPECT_NE(what.find("gate #0"), std::string::npos) << what;
    }

    // Only the flip rates scale with pulses: crosstalk or pre-shot loss
    // alone runs on a logical circuit even with perPulse set.
    const auto topo = Topology::makeTriangular(1, 2);
    NoiseModel crosstalkOnly = NoiseModel::noiseless();
    crosstalkOnly.perPulse = true;
    crosstalkOnly.crosstalkPhase = 0.1;
    EXPECT_NO_THROW(noisyDistribution(c, crosstalkOnly,
                                      TrajectoryConfig{32, 5, false, &topo}));
    NoiseModel lossOnly = NoiseModel::noiseless();
    lossOnly.perPulse = true;
    lossOnly.atomLoss = 0.1;
    EXPECT_NO_THROW(noisyDistribution(c, lossOnly, cfg));
}

TEST(Validation, RejectsOutOfRangeNoiseRates)
{
    // A NaN or negative rate never fires a Bernoulli draw, so it used
    // to pass as a silently noiseless run; p > 1 always fires. Every
    // rate is checked at entry now, and the error names the field.
    Circuit c(1);
    c.h(0);
    TrajectoryConfig cfg{8, 3, false, nullptr};
    const std::pair<const char *, double NoiseModel::*> fields[] = {
        {"bitFlip", &NoiseModel::bitFlip},
        {"phaseFlip", &NoiseModel::phaseFlip},
        {"atomLoss", &NoiseModel::atomLoss},
        {"crosstalkPhase", &NoiseModel::crosstalkPhase},
        {"ampDamping", &NoiseModel::ampDamping},
        {"idleDephasing", &NoiseModel::idleDephasing},
        {"lossPerGate", &NoiseModel::lossPerGate},
        {"correlatedPauli", &NoiseModel::correlatedPauli},
        {"readoutError", &NoiseModel::readoutError},
    };
    for (const auto &[name, field] : fields) {
        // Idle dephasing is a rate per pulse: values above 1 are legal.
        std::vector<double> bad{std::nan(""), -0.5,
                                std::numeric_limits<double>::infinity()};
        if (field != &NoiseModel::idleDephasing)
            bad.push_back(1.5);
        for (const double rate : bad) {
            NoiseModel nm = NoiseModel::noiseless();
            nm.*field = rate;
            try {
                noisyDistribution(c, nm, cfg);
                ADD_FAILURE() << name << " = " << rate << " was accepted";
            } catch (const ValidationError &e) {
                EXPECT_NE(std::string(e.what()).find(name),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(Validation, ForcedNoiselessRunCollapsesToOneShot)
{
    // A noiseless model with forceTrajectories used to burn the full
    // trajectory budget on identical shots; it runs exactly one now.
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    obs::EnabledScope scope(true);
    auto &runs = obs::counter("sim.trajectories_run");
    const long before = runs.value();
    TrajectoryConfig cfg{200, 7, false, nullptr};
    cfg.forceTrajectories = true;
    const auto p = noisyDistribution(c, NoiseModel::noiseless(), cfg);
    EXPECT_EQ(runs.value() - before, 1);
    const auto ideal = idealDistribution(c);
    for (size_t i = 0; i < p.size(); ++i)
        EXPECT_NEAR(p[i], ideal[i], 1e-12);
}

// ---- Channel-name plumbing ------------------------------------------

TEST(ChannelNames, RoundTripAndRejectUnknown)
{
    const auto &names = noiseChannelNames();
    ASSERT_EQ(names.size(), kNumNoiseChannels);
    for (size_t i = 0; i < names.size(); ++i) {
        const auto id = static_cast<NoiseChannelId>(i);
        EXPECT_EQ(noiseChannelName(id), names[i]);
        EXPECT_EQ(noiseChannelFromName(names[i]), id);
    }
    EXPECT_THROW(noiseChannelFromName("thermal-hop"), ValidationError);
}

TEST(ChannelNames, SetChannelRateValidatesAndTargetsOneField)
{
    NoiseModel nm = NoiseModel::noiseless();
    nm.setChannelRate(NoiseChannelId::LegacyPauli, 0.01);
    EXPECT_EQ(nm.bitFlip, 0.01);
    EXPECT_EQ(nm.phaseFlip, 0.01);
    nm.setChannelRate(NoiseChannelId::ReadoutError, 0.05);
    EXPECT_EQ(nm.readoutError, 0.05);
    EXPECT_EQ(nm.ampDamping, 0.0);
    EXPECT_THROW(nm.setChannelRate(NoiseChannelId::AmpDamping, -0.1),
                 ValidationError);
    EXPECT_THROW(nm.setChannelRate(NoiseChannelId::AmpDamping, 1.5),
                 ValidationError);
    // Idle dephasing is a rate per pulse, not a probability: values
    // above 1 are meaningful (the flip probability saturates at 1/2).
    nm.setChannelRate(NoiseChannelId::IdleDephasing, 10.0);
    EXPECT_EQ(nm.idleDephasing, 10.0);
    EXPECT_THROW(nm.setChannelRate(NoiseChannelId::IdleDephasing, -1.0),
                 ValidationError);
    EXPECT_THROW(nm.setChannelRate(NoiseChannelId::AmpDamping,
                                   std::nan("")),
                 ValidationError);
    const NoiseModel single =
        NoiseModel::singleChannel(NoiseChannelId::CorrelatedPauli, 0.3);
    EXPECT_EQ(single.bitFlip, 0.0);
    EXPECT_EQ(single.phaseFlip, 0.0);
    EXPECT_EQ(single.correlatedPauli, 0.3);
}

}  // namespace
}  // namespace geyser
