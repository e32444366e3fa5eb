/**
 * @file
 * Pulse-scheduler tests: ASAP depth accounting and restriction-zone
 * serialization.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "circuit/schedule.hpp"
#include "common/rng.hpp"

namespace geyser {
namespace {

/** Reference restriction zone: membership flags, then one sort. */
std::vector<int>
referenceZone(const Topology &topo, const std::vector<int> &involved)
{
    std::vector<bool> in(static_cast<size_t>(topo.numAtoms()), false);
    for (int q : involved)
        in[static_cast<size_t>(q)] = true;
    std::vector<int> zone;
    std::vector<bool> seen(static_cast<size_t>(topo.numAtoms()), false);
    for (int q : involved) {
        for (int nb : topo.neighbors(q)) {
            if (!in[static_cast<size_t>(nb)] &&
                !seen[static_cast<size_t>(nb)]) {
                seen[static_cast<size_t>(nb)] = true;
                zone.push_back(nb);
            }
        }
    }
    std::sort(zone.begin(), zone.end());
    return zone;
}

/**
 * Reference restriction-aware schedule: fresh operand and zone vectors
 * per gate. scheduleRestrictionAware must match it exactly.
 */
Schedule
referenceRestrictionAware(const Circuit &circuit, const Topology &topo)
{
    Schedule sched;
    sched.start.resize(circuit.size());
    const size_t n = static_cast<size_t>(topo.numAtoms());
    std::vector<long> avail(n, 0);
    std::vector<long> restrict_(n, 0);
    for (size_t i = 0; i < circuit.size(); ++i) {
        const Gate &g = circuit.gates()[i];
        std::vector<int> involved;
        for (int k = 0; k < g.numQubits(); ++k)
            involved.push_back(g.qubit(k));
        long start = 0;
        for (int q : involved) {
            start = std::max(start, avail[static_cast<size_t>(q)]);
            start = std::max(start, restrict_[static_cast<size_t>(q)]);
        }
        std::vector<int> zone;
        if (g.numQubits() >= 2) {
            zone = referenceZone(topo, involved);
            for (int z : zone)
                start = std::max(start, avail[static_cast<size_t>(z)]);
        }
        const long end = start + g.pulses();
        for (int q : involved)
            avail[static_cast<size_t>(q)] = end;
        for (int z : zone)
            restrict_[static_cast<size_t>(z)] =
                std::max(restrict_[static_cast<size_t>(z)], end);
        sched.start[i] = start;
        sched.makespan = std::max(sched.makespan, end);
    }
    return sched;
}

/** `count` distinct atoms drawn from [0, width). */
std::vector<int>
distinctAtoms(int count, int width, Rng &rng)
{
    std::vector<int> atoms;
    while (static_cast<int>(atoms.size()) < count) {
        const int a = rng.uniformInt(width);
        if (std::find(atoms.begin(), atoms.end(), a) == atoms.end())
            atoms.push_back(a);
    }
    return atoms;
}

TEST(ScheduleAsap, SerialGatesOnOneQubit)
{
    Circuit c(1);
    c.u3(0, 1, 2, 3);
    c.u3(0, 1, 2, 3);
    c.u3(0, 1, 2, 3);
    EXPECT_EQ(depthPulses(c), 3);
}

TEST(ScheduleAsap, ParallelGatesOverlap)
{
    Circuit c(4);
    c.cz(0, 1);
    c.cz(2, 3);
    EXPECT_EQ(depthPulses(c), 3);  // Both CZs run concurrently.
}

TEST(ScheduleAsap, ChainForcesSerialization)
{
    Circuit c(3);
    c.cz(0, 1);
    c.cz(1, 2);  // Shares qubit 1 -> must wait.
    EXPECT_EQ(depthPulses(c), 6);
}

TEST(ScheduleAsap, MixedDurations)
{
    Circuit c(3);
    c.u3(0, 0, 0, 0);   // [0, 1) on q0
    c.ccz(0, 1, 2);     // [1, 6)
    c.u3(1, 0, 0, 0);   // [6, 7)
    EXPECT_EQ(depthPulses(c), 7);
}

TEST(ScheduleAsap, StartTimesExposed)
{
    Circuit c(2);
    c.u3(0, 0, 0, 0);
    c.cz(0, 1);
    const auto sched = scheduleAsap(c);
    EXPECT_EQ(sched.start[0], 0);
    EXPECT_EQ(sched.start[1], 1);
    EXPECT_EQ(sched.makespan, 4);
}

TEST(ScheduleRestriction, ZoneBlocksNeighborGates)
{
    // On a triangular lattice, a CZ on an edge restricts the neighbours:
    // a U3 on a zone atom cannot overlap the CZ window.
    const auto topo = Topology::makeTriangular(2, 2);
    // Atoms 0-1 adjacent; atom 2 is in their zone.
    Circuit c(4);
    c.cz(0, 1);
    c.u3(2, 0, 0, 0);
    const long depth = depthPulses(c, topo);
    EXPECT_EQ(depth, 4);  // U3 waits for the CZ to finish.

    // Without restriction awareness they overlap.
    EXPECT_EQ(depthPulses(c), 3);
}

TEST(ScheduleRestriction, RunningGateBlocksLaterRydbergOp)
{
    // A U3 mid-flight on a zone atom delays a Rydberg gate that would
    // cover it... list order: u3 first, then cz.
    const auto topo = Topology::makeTriangular(2, 2);
    Circuit c(4);
    c.u3(2, 0, 0, 0);
    c.cz(0, 1);
    const auto sched = scheduleRestrictionAware(c, topo);
    EXPECT_EQ(sched.start[1], 1);  // CZ waits for the zone atom's U3.
    EXPECT_EQ(sched.makespan, 4);
}

TEST(ScheduleRestriction, FarApartGatesStillParallel)
{
    const auto topo = Topology::makeTriangular(4, 8);
    Circuit c(topo.numAtoms());
    c.cz(0, 1);
    c.cz(30, 31);
    EXPECT_EQ(depthPulses(c, topo), 3);
}

TEST(ScheduleRestriction, MatchesAsapWhenNoMultiQubitGates)
{
    const auto topo = Topology::makeTriangular(2, 3);
    Circuit c(6);
    for (int q = 0; q < 6; ++q)
        c.u3(q, 0, 0, 0);
    EXPECT_EQ(depthPulses(c, topo), depthPulses(c));
    EXPECT_EQ(depthPulses(c), 1);
}

TEST(ScheduleRestriction, MatchesAllocatingReference)
{
    std::vector<Topology> topologies;
    for (int rows = 2; rows <= 4; ++rows)
        for (int cols = 2; cols <= 4; ++cols)
            topologies.push_back(Topology::makeTriangular(rows, cols));
    topologies.push_back(Topology::makeSquare(3, 3, false));
    topologies.push_back(Topology::makeSquare(3, 4, true));
    Rng rng(25);
    for (const Topology &topo : topologies) {
        const int width = topo.numAtoms();
        for (int trial = 0; trial < 40; ++trial) {
            Circuit c(width);
            const int gates = rng.uniformInt(60);
            for (int i = 0; i < gates; ++i) {
                const int kind = rng.uniformInt(3);
                if (kind == 0) {
                    c.u3(rng.uniformInt(width), 0.1, 0.2, 0.3);
                } else if (kind == 1) {
                    const auto q = distinctAtoms(2, width, rng);
                    c.cz(q[0], q[1]);
                } else if (width >= 3) {
                    const auto q = distinctAtoms(3, width, rng);
                    c.ccz(q[0], q[1], q[2]);
                }
            }
            std::vector<int> zone;
            for (const Gate &g : c.gates()) {
                if (g.numQubits() < 2)
                    continue;
                std::vector<int> involved;
                for (int k = 0; k < g.numQubits(); ++k)
                    involved.push_back(g.qubit(k));
                topo.restrictionZone(involved, zone);
                ASSERT_EQ(zone, referenceZone(topo, involved));
            }
            const Schedule want = referenceRestrictionAware(c, topo);
            const Schedule got = scheduleRestrictionAware(c, topo);
            ASSERT_EQ(got.start, want.start)
                << topo.name() << " trial " << trial;
            ASSERT_EQ(got.makespan, want.makespan)
                << topo.name() << " trial " << trial;
            ASSERT_EQ(depthPulses(c, topo), want.makespan);
        }
    }
}

}  // namespace
}  // namespace geyser
