/**
 * @file
 * SABRE lookahead-router tests: output contract (adjacency, layout
 * correctness, unitary preservation) and quality versus the
 * shortest-path walker.
 */
#include <gtest/gtest.h>

#include "sim/statevector.hpp"
#include "transpile/basis.hpp"
#include "transpile/sabre.hpp"

namespace geyser {
namespace {

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

TEST(Sabre, AdjacentCircuitNeedsNoSwaps)
{
    const auto topo = Topology::makeTriangular(2, 2);
    Circuit c(4);
    c.cz(0, 1);
    c.u3(1, 1, 1, 1);
    std::vector<Qubit> trivial{0, 1, 2, 3};
    const auto routed = routeSabre(c, topo, trivial);
    EXPECT_EQ(routed.swapsInserted, 0);
    EXPECT_EQ(routed.circuit.size(), 2u);
}

TEST(Sabre, EveryCzEndsUpAdjacent)
{
    const auto topo = Topology::makeSquare(3, 3, false);
    Circuit logical(9);
    for (int i = 0; i < 9; ++i)
        logical.cx(i, (i + 4) % 9);
    const auto routed = routeSabre(decomposeToBasis(logical), topo);
    for (const auto &g : routed.circuit.gates()) {
        if (g.kind() == GateKind::CZ) {
            EXPECT_TRUE(topo.areAdjacent(g.qubit(0), g.qubit(1)));
        }
    }
}

TEST(Sabre, PreservesSemanticsThroughLayout)
{
    const auto topo = Topology::makeSquare(2, 3, false);
    Circuit logical(5);
    logical.h(0);
    logical.cx(0, 4);
    logical.cx(1, 3);
    logical.cx(4, 2);
    logical.cx(2, 0);
    const auto routed = routeSabre(decomposeToBasis(logical), topo);
    expectRoutedEquivalent(logical, routed, topo.numAtoms());
}

TEST(Sabre, NotWorseThanWalkerOnCongestedCircuit)
{
    // All-to-all interactions on a line: lookahead routing should need
    // no more swaps than greedy path walking.
    const auto topo = Topology::makeSquare(1, 6, false);
    Circuit logical(6);
    for (int i = 0; i < 6; ++i)
        for (int j = i + 1; j < 6; ++j)
            logical.cz(i, j);
    const Circuit phys = decomposeToBasis(logical);
    std::vector<Qubit> trivial{0, 1, 2, 3, 4, 5};
    const auto walker = route(phys, topo, trivial);
    const auto sabre = routeSabre(phys, topo, trivial);
    EXPECT_LE(sabre.swapsInserted, walker.swapsInserted);
    expectRoutedEquivalent(logical, sabre, topo.numAtoms());
}

TEST(Sabre, ValidatesInputs)
{
    const auto topo = Topology::makeTriangular(2, 2);
    Circuit logicalGate(2);
    logicalGate.h(0);
    EXPECT_THROW(routeSabre(logicalGate, topo, std::vector<Qubit>{0, 1}),
                 std::invalid_argument);
    Circuit tooWide(9);
    tooWide.u3(8, 0, 0, 0);
    EXPECT_THROW(routeSabre(tooWide, topo, std::vector<Qubit>(9, 0)),
                 std::invalid_argument);
    Circuit fine(2);
    fine.cz(0, 1);
    EXPECT_THROW(routeSabre(fine, topo, std::vector<Qubit>{0}),
                 std::invalid_argument);
}

TEST(Sabre, DeterministicOutput)
{
    const auto topo = Topology::makeSquare(2, 3, false);
    Circuit logical(6);
    for (int i = 0; i < 6; ++i)
        logical.cz(i, (i + 3) % 6);
    const Circuit phys = decomposeToBasis(logical);
    const auto a = routeSabre(phys, topo);
    const auto b = routeSabre(phys, topo);
    EXPECT_EQ(a.swapsInserted, b.swapsInserted);
    EXPECT_EQ(a.circuit.size(), b.circuit.size());
    EXPECT_EQ(a.finalLayout, b.finalLayout);
}

TEST(Sabre, HandlesDeepRandomishCircuit)
{
    const auto topo = Topology::forQubits(9);
    Circuit logical(9);
    for (int r = 0; r < 8; ++r)
        for (int i = 0; i < 9; ++i)
            logical.cz(i, (i + r + 1) % 9);
    const Circuit phys = decomposeToBasis(logical);
    const auto routed = routeSabre(phys, topo);
    for (const auto &g : routed.circuit.gates()) {
        if (g.kind() == GateKind::CZ) {
            EXPECT_TRUE(topo.areAdjacent(g.qubit(0), g.qubit(1)));
        }
    }
    expectRoutedEquivalent(logical, routed, topo.numAtoms());
}

}  // namespace
}  // namespace geyser
