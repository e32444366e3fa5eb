/**
 * @file
 * Topology tests: lattice construction, adjacency, triangles, and the
 * restriction-zone sizes the paper reports in Figs 4 and 7.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "topology/topology.hpp"

namespace geyser {
namespace {

TEST(Topology, TriangularAtomCountAndName)
{
    const auto t = Topology::makeTriangular(3, 4);
    EXPECT_EQ(t.numAtoms(), 12);
    EXPECT_EQ(t.name(), "triangular(3x4)");
}

TEST(Topology, TriangularInteriorAtomHasSixNeighbors)
{
    const auto t = Topology::makeTriangular(5, 5);
    // Atom at row 2, col 2 (index 12) is interior.
    EXPECT_EQ(t.neighbors(12).size(), 6u);
}

TEST(Topology, SquareInteriorNeighborCounts)
{
    const auto plain = Topology::makeSquare(5, 5, false);
    EXPECT_EQ(plain.neighbors(12).size(), 4u);
    const auto diag = Topology::makeSquare(5, 5, true);
    EXPECT_EQ(diag.neighbors(12).size(), 8u);
}

TEST(Topology, TriangularLatticeHasTriangles)
{
    const auto t = Topology::makeTriangular(2, 2);
    EXPECT_FALSE(t.triangles().empty());
    for (const auto &tri : t.triangles()) {
        EXPECT_TRUE(t.areAdjacent(tri[0], tri[1]));
        EXPECT_TRUE(t.areAdjacent(tri[0], tri[2]));
        EXPECT_TRUE(t.areAdjacent(tri[1], tri[2]));
    }
}

TEST(Topology, PlainSquareLatticeHasNoTriangles)
{
    const auto s = Topology::makeSquare(3, 3, false);
    EXPECT_TRUE(s.triangles().empty());
}

TEST(Topology, PaperFig4RestrictionCounts)
{
    // Paper Fig 4 (triangular lattice): a two-qubit operation restricts
    // at most 8 nearby qubits; a three-qubit operation at most 9.
    const auto t = Topology::makeTriangular(6, 6);
    EXPECT_EQ(t.maxEdgeRestriction(), 8);
    EXPECT_EQ(t.maxTriangleRestriction(), 9);
}

TEST(Topology, PaperFig7SquareFourQubitRestriction)
{
    // Paper Fig 7(b): on the diagonal-coupled square grid, a four-qubit
    // gate on a 2x2 cell restricts 12 qubits.
    const auto s = Topology::makeSquare(6, 6, true);
    // Interior 2x2 cell: rows 2-3, cols 2-3.
    const int a = 2 * 6 + 2, b = 2 * 6 + 3, c = 3 * 6 + 2, d = 3 * 6 + 3;
    EXPECT_EQ(s.restrictionZone({a, b, c, d}).size(), 12u);
}

TEST(Topology, RestrictionZoneExcludesInvolvedAtoms)
{
    const auto t = Topology::makeTriangular(4, 4);
    const auto &tri = t.triangles().front();
    const auto zone = t.restrictionZone({tri[0], tri[1], tri[2]});
    for (const int z : zone) {
        EXPECT_NE(z, tri[0]);
        EXPECT_NE(z, tri[1]);
        EXPECT_NE(z, tri[2]);
    }
    // Strictly increasing, from the vector and the buffer form alike:
    // crosstalk draws one Bernoulli per zone atom in zone order.
    ASSERT_FALSE(zone.empty());
    for (size_t i = 1; i < zone.size(); ++i)
        EXPECT_LT(zone[i - 1], zone[i]);
    std::vector<int> buffer = {99, -1, 7};
    const int involved[] = {tri[2], tri[0], tri[1]};
    t.restrictionZone(involved, buffer);
    EXPECT_EQ(buffer, zone);
}

TEST(Topology, SetsCompatibleRequiresDistance)
{
    const auto t = Topology::makeTriangular(4, 8);
    // Two far-apart atoms are compatible; adjacent ones are not.
    EXPECT_TRUE(t.setsCompatible({0}, {31}));
    EXPECT_FALSE(t.setsCompatible({0}, {1}));
    EXPECT_FALSE(t.setsCompatible({5}, {5}));
}

TEST(Topology, HopDistanceAndShortestPath)
{
    const auto t = Topology::makeSquare(4, 4, false);
    EXPECT_EQ(t.hopDistance(0, 0), 0);
    EXPECT_EQ(t.hopDistance(0, 3), 3);
    EXPECT_EQ(t.hopDistance(0, 15), 6);
    const auto path = t.shortestPath(0, 15);
    EXPECT_EQ(path.size(), 7u);
    EXPECT_EQ(path.front(), 0);
    EXPECT_EQ(path.back(), 15);
    for (size_t i = 0; i + 1 < path.size(); ++i)
        EXPECT_TRUE(t.areAdjacent(path[i], path[i + 1]));
}

TEST(Topology, ForQubitsFitsRequested)
{
    for (const int n : {1, 2, 4, 5, 9, 10, 16, 25}) {
        EXPECT_GE(Topology::forQubits(n).numAtoms(), n) << n;
        EXPECT_GE(Topology::squareForQubits(n).numAtoms(), n) << n;
    }
    EXPECT_THROW(Topology::forQubits(0), std::invalid_argument);
}

TEST(Topology, ForQubitsAlwaysHasTriangles)
{
    for (const int n : {1, 2, 4, 5, 9, 10, 16})
        EXPECT_FALSE(Topology::forQubits(n).triangles().empty()) << n;
}

TEST(Topology, TriangularNeighborsAreEquidistant)
{
    // Every interaction edge of the triangular lattice has length ~1
    // (the paper's motivation for the triangular arrangement).
    const auto t = Topology::makeTriangular(4, 4);
    for (const auto &e : t.edges()) {
        const auto &pa = t.position(e[0]);
        const auto &pb = t.position(e[1]);
        const double dx = pa.x - pb.x, dy = pa.y - pb.y;
        EXPECT_NEAR(dx * dx + dy * dy, 1.0, 1e-9);
    }
}

}  // namespace
}  // namespace geyser
