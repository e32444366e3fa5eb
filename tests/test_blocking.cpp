/**
 * @file
 * Circuit-blocking tests (Algorithm 1): ownership invariants, block
 * self-containment, restriction-zone compatibility within rounds, and
 * unitary preservation of the flattened blocked circuit.
 */
#include <gtest/gtest.h>

#include "blocking/blocker.hpp"
#include "sim/unitary_sim.hpp"
#include "transpile/basis.hpp"
#include "transpile/router.hpp"

namespace geyser {
namespace {

/** Build a routed physical circuit on a triangular lattice. */
Circuit
routedOn(const Circuit &logical, const Topology &topo)
{
    return route(decomposeToBasis(logical), topo).circuit;
}

TEST(Blocking, EveryGateOwnedExactlyOnce)
{
    const auto topo = Topology::makeTriangular(2, 3);
    Circuit c(6);
    c.h(0);
    c.cx(0, 1);
    c.cx(3, 4);
    c.t(4);
    c.cx(1, 3);
    const Circuit phys = routedOn(c, topo);
    const auto blocked = blockCircuit(phys, topo);
    EXPECT_NO_THROW(blocked.checkInvariants());
    size_t owned = 0;
    for (const auto &round : blocked.rounds)
        for (const auto &block : round.blocks)
            owned += block.opIndices.size();
    EXPECT_EQ(owned, phys.size());
}

TEST(Blocking, BlocksHaveAtMostThreeAtoms)
{
    const auto topo = Topology::makeTriangular(3, 3);
    Circuit c(9);
    for (int i = 0; i < 8; ++i)
        c.cx(i, i + 1);
    const auto blocked = blockCircuit(routedOn(c, topo), topo);
    for (const auto &round : blocked.rounds)
        for (const auto &block : round.blocks) {
            EXPECT_GE(block.atoms.size(), 1u);
            EXPECT_LE(block.atoms.size(), 3u);
        }
}

TEST(Blocking, FlattenedCircuitPreservesUnitary)
{
    const auto topo = Topology::makeTriangular(2, 2);
    Circuit c(4);
    c.h(0);
    c.cx(0, 1);
    c.t(1);
    c.cx(1, 2);
    c.cx(2, 3);
    c.h(3);
    c.cx(0, 3);
    const Circuit phys = routedOn(c, topo);
    const auto blocked = blockCircuit(phys, topo);
    blocked.checkInvariants();
    EXPECT_LT(circuitHsd(phys, blocked.flatten()), 1e-9);
}

TEST(Blocking, RoundBlocksAreRestrictionCompatible)
{
    const auto topo = Topology::makeTriangular(3, 4);
    Circuit c(12);
    for (int i = 0; i + 1 < 12; i += 2)
        c.cx(i, i + 1);
    for (int i = 0; i + 1 < 12; i += 2)
        c.cx(i + 1, i);
    const auto blocked = blockCircuit(routedOn(c, topo), topo);
    for (const auto &round : blocked.rounds) {
        for (size_t i = 0; i < round.blocks.size(); ++i) {
            for (size_t j = i + 1; j < round.blocks.size(); ++j) {
                const auto &a = round.blocks[i];
                const auto &b = round.blocks[j];
                if (a.hasMultiQubitOps || b.hasMultiQubitOps) {
                    EXPECT_TRUE(topo.setsCompatible(a.atoms, b.atoms));
                }
            }
        }
    }
}

TEST(Blocking, LocalCircuitRemapsToBlockQubits)
{
    const auto topo = Topology::makeTriangular(2, 2);
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    const auto blocked = blockCircuit(routedOn(c, topo), topo);
    for (const auto &round : blocked.rounds) {
        for (const auto &block : round.blocks) {
            const Circuit local = blocked.localCircuit(block);
            EXPECT_EQ(local.numQubits(),
                      static_cast<int>(block.atoms.size()));
            for (const auto &g : local.gates())
                for (int i = 0; i < g.numQubits(); ++i)
                    EXPECT_LT(g.qubit(i),
                              static_cast<int>(block.atoms.size()));
        }
    }
}

TEST(Blocking, PulseAwareScoringCountsPulses)
{
    const auto topo = Topology::makeTriangular(2, 2);
    Circuit phys(4);
    phys.u3(0, 1, 1, 1);
    phys.cz(0, 1);
    const auto blocked = blockCircuit(phys, topo);
    long pulses = 0;
    for (const auto &round : blocked.rounds)
        for (const auto &block : round.blocks)
            pulses += block.pulseCount;
    EXPECT_EQ(pulses, phys.totalPulses());
}

TEST(Blocking, GateAwareModeAlsoValid)
{
    const auto topo = Topology::makeTriangular(2, 3);
    Circuit c(6);
    for (int i = 0; i < 5; ++i)
        c.cx(i, i + 1);
    BlockerOptions opts;
    opts.pulseAware = false;
    const Circuit phys = routedOn(c, topo);
    const auto blocked = blockCircuit(phys, topo, opts);
    blocked.checkInvariants();
    EXPECT_LT(circuitHsd(phys, blocked.flatten()), 1e-9);
}

TEST(Blocking, RequiresPhysicalCircuit)
{
    const auto topo = Topology::makeTriangular(2, 2);
    Circuit c(2);
    c.h(0);
    EXPECT_THROW(blockCircuit(c, topo), std::invalid_argument);
}

TEST(Blocking, RequiresTriangles)
{
    const auto topo = Topology::makeSquare(2, 2, false);
    Circuit c(4);
    c.u3(0, 1, 1, 1);
    EXPECT_THROW(blockCircuit(c, topo), std::invalid_argument);
}

TEST(Blocking, SingleQubitCircuitStillBlocks)
{
    const auto topo = Topology::makeTriangular(2, 2);
    Circuit phys(4);
    for (int i = 0; i < 5; ++i)
        phys.u3(0, 0.1, 0.2, 0.3);
    const auto blocked = blockCircuit(phys, topo);
    blocked.checkInvariants();
    EXPECT_EQ(blocked.rounds.size(), 1u);
    EXPECT_EQ(blocked.rounds[0].blocks.size(), 1u);
}

TEST(Blocking, ParallelizableCircuitUsesFewRounds)
{
    // Two independent far-apart gate groups should land in one round.
    const auto topo = Topology::makeTriangular(4, 8);
    Circuit phys(topo.numAtoms());
    phys.cz(0, 1);
    phys.u3(0, 1, 1, 1);
    phys.cz(30, 31);
    phys.u3(31, 1, 1, 1);
    const auto blocked = blockCircuit(phys, topo);
    EXPECT_EQ(blocked.rounds.size(), 1u);
    EXPECT_EQ(blocked.rounds[0].blocks.size(), 2u);
}

TEST(Blocking, DependentChainsNeedMultipleRounds)
{
    // A long CZ chain across the lattice cannot fit one 3-atom block.
    const auto topo = Topology::makeTriangular(2, 4);
    Circuit phys(topo.numAtoms());
    phys.cz(0, 1);
    phys.cz(1, 2);
    phys.cz(2, 3);
    phys.cz(3, 7);
    const auto blocked = blockCircuit(phys, topo);
    blocked.checkInvariants();
    EXPECT_GT(blocked.rounds.size(), 1u);
}

TEST(Blocking, BlockCountMatchesRoundsContents)
{
    const auto topo = Topology::makeTriangular(2, 3);
    Circuit c(6);
    for (int i = 0; i < 5; ++i)
        c.cx(i, (i + 1) % 6);
    const auto blocked = blockCircuit(routedOn(c, topo), topo);
    int count = 0;
    for (const auto &round : blocked.rounds)
        count += static_cast<int>(round.blocks.size());
    EXPECT_EQ(count, blocked.blockCount());
}

}  // namespace
}  // namespace geyser
