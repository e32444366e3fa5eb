/**
 * @file
 * Composition-ansatz tests: parameter accounting (the paper's 19/29
 * counts), pulse costs, and agreement between the fast unitary path and
 * the materialized circuit.
 */
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "compose/ansatz.hpp"
#include "sim/unitary_sim.hpp"

namespace geyser {
namespace {

TEST(Ansatz, PaperParameterCounts)
{
    // Fig 10: one 3-qubit layer = 18 angles + 1 categorical = 19; a
    // second layer brings it to 29.
    const Ansatz one(3, 1);
    EXPECT_EQ(one.numAngles(), 18);
    EXPECT_EQ(one.numParameters(), 19);
    const Ansatz two(3, 2);
    EXPECT_EQ(two.numAngles(), 27);
    EXPECT_EQ(two.numParameters(), 29);
}

TEST(Ansatz, PaperPulseCounts)
{
    // One layer: six U3 (6 pulses) + one CCZ (5) = 11 pulses (Sec 3.4).
    EXPECT_EQ(Ansatz(3, 1).pulses(), 11);
    // Each extra layer adds three U3 + one CCZ = 8 pulses.
    EXPECT_EQ(Ansatz(3, 2).pulses(), 19);
    EXPECT_EQ(Ansatz(3, 3).pulses(), 27);
    // Two-qubit ansatz uses CZ: 4 U3 + 1 CZ = 7.
    EXPECT_EQ(Ansatz(2, 1).pulses(), 7);
}

TEST(Ansatz, RejectsBadShapes)
{
    EXPECT_THROW(Ansatz(1, 1), std::invalid_argument);
    EXPECT_THROW(Ansatz(5, 1), std::invalid_argument);
    EXPECT_THROW(Ansatz(3, 0), std::invalid_argument);
    EXPECT_THROW(Ansatz(3, 2, {Entangler::Ccz}), std::invalid_argument);
}

TEST(Ansatz, UnitaryMatchesMaterializedCircuit)
{
    Rng rng(5);
    for (int layers = 1; layers <= 3; ++layers) {
        for (int nq = 2; nq <= 3; ++nq) {
            const Ansatz ansatz(nq, layers);
            const auto angles =
                rng.uniformVector(ansatz.numAngles(), 0.0, 2.0 * kPi);
            const Matrix direct = ansatz.unitary(angles);
            const Matrix viaCircuit =
                circuitUnitary(ansatz.toCircuit(angles));
            EXPECT_LT(direct.maxAbsDiff(viaCircuit), 1e-10)
                << "nq=" << nq << " layers=" << layers;
        }
    }
}

TEST(Ansatz, UnitaryIsUnitary)
{
    Rng rng(17);
    const Ansatz ansatz(3, 2);
    const auto angles = rng.uniformVector(ansatz.numAngles(), 0.0, 2 * kPi);
    EXPECT_TRUE(ansatz.unitary(angles).isUnitary(1e-10));
}

TEST(Ansatz, ZeroAnglesGiveEntanglersOnly)
{
    // All-zero U3 columns are identities, so a one-layer CCZ ansatz at
    // zero angles is exactly CCZ.
    const Ansatz ansatz(3, 1);
    const std::vector<double> zeros(18, 0.0);
    Matrix ccz = Matrix::identity(8);
    ccz(7, 7) = -1;
    EXPECT_LT(ansatz.unitary(zeros).maxAbsDiff(ccz), 1e-12);
}

TEST(Ansatz, ExtendedEntanglersChangeUnitary)
{
    const std::vector<double> zeros(18, 0.0);
    const Ansatz ccz(3, 1, {Entangler::Ccz});
    const Ansatz cz01(3, 1, {Entangler::Cz01});
    const Ansatz cz02(3, 1, {Entangler::Cz02});
    const Ansatz cz12(3, 1, {Entangler::Cz12});
    EXPECT_GT(hilbertSchmidtDistance(ccz.unitary(zeros),
                                     cz01.unitary(zeros)), 0.01);
    EXPECT_GT(hilbertSchmidtDistance(cz01.unitary(zeros),
                                     cz02.unitary(zeros)), 0.01);
    EXPECT_GT(hilbertSchmidtDistance(cz02.unitary(zeros),
                                     cz12.unitary(zeros)), 0.01);
}

TEST(Ansatz, CzEntanglerLayerCheapensPulses)
{
    EXPECT_EQ(Ansatz(3, 1, {Entangler::Cz01}).pulses(), 9);
    EXPECT_EQ(Ansatz(3, 2, {Entangler::Cz01, Entangler::Ccz}).pulses(), 17);
}

TEST(Ansatz, WrongAngleCountThrows)
{
    const Ansatz ansatz(3, 1);
    EXPECT_THROW(ansatz.unitary(std::vector<double>(5, 0.0)),
                 std::invalid_argument);
    EXPECT_THROW(ansatz.toCircuit(std::vector<double>(5, 0.0)),
                 std::invalid_argument);
}

}  // namespace
}  // namespace geyser
