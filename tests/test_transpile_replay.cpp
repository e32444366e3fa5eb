/**
 * @file
 * Transpile record and replay (transpile/record.hpp): replaying a
 * recorded transpile on another member of its structure returns
 * exactly what transpileForTechnique returns for that member — gates,
 * parameter bits, layouts, swaps and stats — or declines, and the
 * transpile then runs. Members are random-angle members of the
 * fleet-sweep skeletons (which must never decline), structures from
 * gridCircuit with its 0, +-pi, 2*pi and near-identity angles (which
 * must take both outcomes), and random logical circuits over every
 * gate kind.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "algos/algos.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "geyser/pipeline.hpp"
#include "verify/random_circuit.hpp"
#include "test_circuits.hpp"

namespace geyser {
namespace {

/** Both transpiles are the same, bit for bit. */
void
expectSameTranspile(const CompileResult &a, const CompileResult &b,
                    const std::string &what)
{
    EXPECT_EQ(a.technique, b.technique) << what;
    EXPECT_EQ(a.logical.gates(), b.logical.gates()) << what;
    ASSERT_EQ(a.physical.numQubits(), b.physical.numQubits()) << what;
    ASSERT_EQ(a.physical.size(), b.physical.size()) << what;
    for (size_t i = 0; i < a.physical.size(); ++i) {
        const Gate &ga = a.physical.gates()[i];
        const Gate &gb = b.physical.gates()[i];
        ASSERT_EQ(ga.kind(), gb.kind()) << what << " gate " << i;
        ASSERT_EQ(ga.numQubits(), gb.numQubits()) << what << " gate " << i;
        for (int q = 0; q < ga.numQubits(); ++q)
            ASSERT_EQ(ga.qubit(q), gb.qubit(q)) << what << " gate " << i;
        for (int p = 0; p < ga.numParams(); ++p)
            ASSERT_EQ(std::bit_cast<uint64_t>(ga.param(p)),
                      std::bit_cast<uint64_t>(gb.param(p)))
                << what << " gate " << i << " param " << p << ": "
                << ga.param(p) << " vs " << gb.param(p);
    }
    EXPECT_EQ(a.initialLayout, b.initialLayout) << what;
    EXPECT_EQ(a.finalLayout, b.finalLayout) << what;
    EXPECT_EQ(a.swapsInserted, b.swapsInserted) << what;
    EXPECT_EQ(a.topology.numAtoms(), b.topology.numAtoms()) << what;
    EXPECT_EQ(a.stats.numQubits, b.stats.numQubits) << what;
    EXPECT_EQ(a.stats.u3Count, b.stats.u3Count) << what;
    EXPECT_EQ(a.stats.czCount, b.stats.czCount) << what;
    EXPECT_EQ(a.stats.cczCount, b.stats.cczCount) << what;
    EXPECT_EQ(a.stats.totalPulses, b.stats.totalPulses) << what;
    EXPECT_EQ(a.stats.depthPulses, b.stats.depthPulses) << what;
}

struct Outcomes
{
    int replayed = 0;
    int declined = 0;
};

/**
 * Record members[0] under `technique`, then replay every member:
 * each replay must equal the member's transpile.
 */
Outcomes
replayMembers(Technique technique, const std::vector<Circuit> &members,
              const std::string &what)
{
    const RecordedTranspile recorded =
        recordTranspile(technique, members.front());
    expectSameTranspile(recorded.result,
                        transpileForTechnique(technique, members.front()),
                        what + " recording");
    Outcomes outcomes;
    for (size_t m = 0; m < members.size(); ++m) {
        const auto replayed = replayTranspile(recorded, members[m]);
        if (!replayed) {
            ++outcomes.declined;
            continue;
        }
        ++outcomes.replayed;
        expectSameTranspile(*replayed,
                            transpileForTechnique(technique, members[m]),
                            what + " member " + std::to_string(m));
        if (::testing::Test::HasFatalFailure())
            break;
    }
    return outcomes;
}

/** `base` with every angle redrawn by `draw`. */
template <typename Draw>
Circuit
redrawn(const Circuit &base, Draw &&draw)
{
    Circuit c = base;
    for (Gate &g : c.gates())
        for (int p = 0; p < g.numParams(); ++p)
            g.setParam(p, draw(g.param(p)));
    return c;
}

const Technique kTechniques[] = {Technique::Baseline, Technique::OptiMap,
                                 Technique::Geyser,
                                 Technique::Superconducting};

TEST(TranspileReplay, FleetSweepMembersAlwaysReplayBitIdentically)
{
    Rng rng(31);
    for (const Circuit &skeleton : fleetSweepSkeletons()) {
        // The sweep's own offsets (+-0.2 around the skeleton), then
        // angles anywhere.
        std::vector<Circuit> members = {skeleton};
        for (int m = 0; m < 40; ++m)
            members.push_back(redrawn(skeleton, [&](double a) {
                return a + rng.uniform(-0.2, 0.2);
            }));
        for (int m = 0; m < 40; ++m)
            members.push_back(redrawn(skeleton, [&](double) {
                return rng.uniform(-2.0 * kPi, 2.0 * kPi);
            }));
        for (const Technique technique : kTechniques) {
            const Outcomes outcomes = replayMembers(
                technique, members, techniqueName(technique));
            EXPECT_EQ(outcomes.declined, 0) << techniqueName(technique);
            EXPECT_EQ(outcomes.replayed, static_cast<int>(members.size()));
        }
    }
}

TEST(TranspileReplay, GridAnglesReplayBitIdenticallyOrDecline)
{
    Rng rng(2022);
    Outcomes total;
    for (int trial = 0; trial < 120; ++trial) {
        const int width = 1 + trial % 4;
        const Circuit structure = gridCircuit(width, 4 + rng.uniformInt(40), rng);
        std::vector<Circuit> members = {structure};
        for (int m = 0; m < 12; ++m)
            members.push_back(
                redrawn(structure, [&](double) { return gridAngle(rng); }));
        const Technique technique = kTechniques[trial % 4];
        const Outcomes outcomes = replayMembers(
            technique, members,
            std::string("trial ") + std::to_string(trial) + " " +
                techniqueName(technique));
        ASSERT_FALSE(::testing::Test::HasFatalFailure());
        // A record always replays its own circuit.
        EXPECT_GE(outcomes.replayed, 1) << "trial " << trial;
        total.replayed += outcomes.replayed;
        total.declined += outcomes.declined;
    }
    // The grid crosses the recorded tests both ways.
    EXPECT_GT(total.replayed, 200);
    EXPECT_GT(total.declined, 200);
}

TEST(TranspileReplay, LogicalGateKindsReplayBitIdenticallyOrDecline)
{
    Rng rng(7);
    Outcomes total;
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        const Circuit structure =
            verify::randomLogicalCircuit(2 + static_cast<int>(seed % 3), 30,
                                         seed);
        std::vector<Circuit> members = {structure};
        for (int m = 0; m < 8; ++m)
            members.push_back(redrawn(structure, [&](double) {
                return m % 2 == 0 ? rng.uniform(0.0, 2.0 * kPi)
                                  : gridAngle(rng);
            }));
        const Technique technique = kTechniques[seed % 4];
        const Outcomes outcomes = replayMembers(
            technique, members,
            std::string("seed ") + std::to_string(seed) + " " +
                techniqueName(technique));
        ASSERT_FALSE(::testing::Test::HasFatalFailure());
        total.replayed += outcomes.replayed;
        total.declined += outcomes.declined;
    }
    EXPECT_GT(total.replayed, 24);
    EXPECT_GT(total.declined, 0);
}

TEST(TranspileReplay, DeclinesOtherStructuresInvalidCircuitsAndStageChecks)
{
    const Circuit vqe = vqeBenchmark(4, 1, 3);
    const RecordedTranspile recorded =
        recordTranspile(Technique::Geyser, vqe);
    ASSERT_TRUE(replayTranspile(recorded, vqe).has_value());

    // Another structure or width.
    EXPECT_FALSE(replayTranspile(recorded, vqeBenchmark(4, 2, 3)));
    EXPECT_FALSE(replayTranspile(recorded, vqeBenchmark(5, 1, 3)));
    Circuit moved = vqe;
    moved.gates().back() = Gate(GateKind::RZ, 0, 0.3);
    EXPECT_FALSE(replayTranspile(recorded, moved));

    // An invalid member declines; the transpile throws for it.
    Circuit nan = vqe;
    nan.gates().front().setParam(0, std::nan(""));
    EXPECT_FALSE(replayTranspile(recorded, nan));
    EXPECT_THROW(transpileForTechnique(Technique::Geyser, nan),
                 ValidationError);

    // The stage checks run inside the transpile only.
    PipelineOptions verified;
    verified.verifyEquivalence = true;
    EXPECT_FALSE(replayTranspile(recorded, vqe, verified));
}

}  // namespace
}  // namespace geyser
