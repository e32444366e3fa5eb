/**
 * @file
 * Routing tests: layouts, SWAP insertion, adjacency of the routed
 * circuit, and unitary preservation through the layout permutation.
 */
#include <gtest/gtest.h>

#include "sim/statevector.hpp"
#include "transpile/basis.hpp"
#include "transpile/router.hpp"

namespace geyser {
namespace {

/**
 * Routed-circuit equivalence: applying the routed circuit to |0...0>
 * and reading logical qubit q at atom finalLayout[q] must match the
 * original circuit's output on qubit q (for every basis amplitude).
 */
void
expectRoutedEquivalent(const Circuit &logical, const RoutedCircuit &routed,
                       int num_atoms)
{
    StateVector orig(logical.numQubits());
    orig.apply(logical);
    StateVector mapped(num_atoms);
    mapped.apply(routed.circuit);

    const auto po = orig.probabilities();
    const auto pm = mapped.probabilities();
    // Project the atom distribution to logical bits.
    Distribution projected(po.size(), 0.0);
    for (size_t y = 0; y < pm.size(); ++y) {
        size_t x = 0;
        for (int q = 0; q < logical.numQubits(); ++q)
            if (y & (size_t{1} << routed.finalLayout[static_cast<size_t>(q)]))
                x |= size_t{1} << q;
        projected[x] += pm[y];
    }
    for (size_t i = 0; i < po.size(); ++i)
        EXPECT_NEAR(po[i], projected[i], 1e-9);
}

TEST(Router, AdjacentGatesNeedNoSwaps)
{
    const auto topo = Topology::makeTriangular(2, 2);
    Circuit c(4);
    c.u3(0, 1, 1, 1);
    c.cz(0, 1);
    const auto routed = route(c, topo);
    EXPECT_EQ(routed.swapsInserted, 0);
    EXPECT_EQ(routed.circuit.size(), 2u);
}

TEST(Router, RequiresPhysicalInput)
{
    const auto topo = Topology::makeTriangular(2, 2);
    Circuit c(2);
    c.h(0);
    EXPECT_THROW(route(c, topo), std::invalid_argument);
}

TEST(Router, RejectsTooManyQubits)
{
    const auto topo = Topology::makeTriangular(2, 2);
    Circuit c(5);
    c.u3(4, 0, 0, 0);
    EXPECT_THROW(route(c, topo), std::invalid_argument);
}

TEST(Router, InsertsSwapsForDistantPair)
{
    const auto topo = Topology::makeSquare(1, 4, false);
    // A line topology has no triangles but routing works on any graph.
    Circuit c(4);
    c.cz(0, 3);
    const auto routed = route(decomposeToBasis(c), topo);
    EXPECT_GT(routed.swapsInserted, 0);
    // Every CZ in the routed circuit acts on adjacent atoms.
    for (const auto &g : routed.circuit.gates())
        if (g.kind() == GateKind::CZ) {
            EXPECT_TRUE(topo.areAdjacent(g.qubit(0), g.qubit(1)));
        }
}

TEST(Router, RoutedCircuitEquivalentUnderLayout)
{
    const auto topo = Topology::makeSquare(2, 3, false);
    Circuit c(5);
    c.h(0);
    c.cx(0, 4);
    c.cx(1, 3);
    c.cx(2, 0);
    const auto routed = route(decomposeToBasis(c), topo);
    expectRoutedEquivalent(c, routed, topo.numAtoms());
}

TEST(Router, LayoutTracksMovedQubits)
{
    const auto topo = Topology::makeSquare(1, 3, false);
    Circuit c(3);
    c.cz(0, 2);
    const auto routed = route(c, topo);
    EXPECT_GT(routed.swapsInserted, 0);
    // The moved logical qubit's final atom differs from its initial one.
    bool moved = false;
    for (size_t q = 0; q < routed.finalLayout.size(); ++q)
        if (routed.finalLayout[q] != routed.initialLayout[q])
            moved = true;
    EXPECT_TRUE(moved);
}

TEST(Router, TriangularTopologyDenseCircuit)
{
    const auto topo = Topology::forQubits(9);
    Circuit c(9);
    for (int i = 0; i < 9; ++i)
        for (int j = i + 1; j < 9; j += 2)
            c.cx(i, j);
    const auto routed = route(decomposeToBasis(c), topo);
    for (const auto &g : routed.circuit.gates())
        if (g.numQubits() == 2) {
            EXPECT_TRUE(topo.areAdjacent(g.qubit(0), g.qubit(1)));
        }
    expectRoutedEquivalent(c, routed, topo.numAtoms());
}

}  // namespace
}  // namespace geyser
