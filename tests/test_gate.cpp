/**
 * @file
 * Unit tests for gate kinds, matrices, pulse costs, and inversion.
 */
#include <gtest/gtest.h>

#include "circuit/gate.hpp"
#include "linalg/matrix.hpp"

namespace geyser {
namespace {

TEST(GateKindInfo, NamesRoundTrip)
{
    for (int k = 0; k <= static_cast<int>(GateKind::CCX); ++k) {
        const auto kind = static_cast<GateKind>(k);
        EXPECT_EQ(gateKindFromName(gateKindName(kind)), kind);
    }
    EXPECT_THROW(gateKindFromName("bogus"), std::invalid_argument);
}

TEST(GateKindInfo, PhysicalBasis)
{
    EXPECT_TRUE(gateKindIsPhysical(GateKind::U3));
    EXPECT_TRUE(gateKindIsPhysical(GateKind::CZ));
    EXPECT_TRUE(gateKindIsPhysical(GateKind::CCZ));
    EXPECT_FALSE(gateKindIsPhysical(GateKind::H));
    EXPECT_FALSE(gateKindIsPhysical(GateKind::CX));
    EXPECT_FALSE(gateKindIsPhysical(GateKind::CCX));
}

TEST(GatePulses, PaperPulseCosts)
{
    // Paper Fig 3: U3 = 1 Raman pulse, CZ = 3, CCZ = 5 Rydberg pulses.
    EXPECT_EQ(Gate(GateKind::U3, 0).pulses(), 1);
    EXPECT_EQ(Gate(GateKind::CZ, 0, 1).pulses(), 3);
    EXPECT_EQ(Gate(GateKind::CCZ, 0, 1, 2).pulses(), 5);
}

TEST(GatePulses, LogicalGatesHaveNoPulseCost)
{
    EXPECT_THROW(Gate(GateKind::H, 0).pulses(), std::logic_error);
    EXPECT_THROW(Gate(GateKind::CX, 0, 1).pulses(), std::logic_error);
}

TEST(GateMatrix, AllKindsAreUnitary)
{
    const std::vector<Gate> gates = {
        Gate(GateKind::U3, 0, 0.3, 1.1, -0.7), Gate(GateKind::I, 0),
        Gate(GateKind::X, 0), Gate(GateKind::Y, 0), Gate(GateKind::Z, 0),
        Gate(GateKind::H, 0), Gate(GateKind::S, 0), Gate(GateKind::SDG, 0),
        Gate(GateKind::T, 0), Gate(GateKind::TDG, 0),
        Gate(GateKind::RX, 0, 0.4), Gate(GateKind::RY, 0, 1.9),
        Gate(GateKind::RZ, 0, -2.2), Gate(GateKind::P, 0, 0.9),
        Gate(GateKind::CZ, 0, 1), Gate(GateKind::CX, 0, 1),
        Gate(GateKind::CP, 0, 1, 0.8), Gate(GateKind::RZZ, 0, 1, 1.3),
        Gate(GateKind::RXX, 0, 1, 0.5), Gate(GateKind::RYY, 0, 1, 0.6),
        Gate(GateKind::SWAP, 0, 1), Gate(GateKind::CCZ, 0, 1, 2),
        Gate(GateKind::CCX, 0, 1, 2),
    };
    for (const auto &g : gates)
        EXPECT_TRUE(g.matrix().isUnitary(1e-12))
            << g.toString() << "\n" << g.matrix().toString();
}

TEST(GateMatrix, U3SpecialCases)
{
    // H = U3(pi/2, 0, pi); X = U3(pi, 0, pi); I = U3(0, 0, 0).
    EXPECT_LT(u3Matrix(kPi / 2, 0, kPi)
                  .maxAbsDiff(Gate(GateKind::H, 0).matrix2()), 1e-12);
    EXPECT_LT(u3Matrix(kPi, 0, kPi)
                  .maxAbsDiff(Gate(GateKind::X, 0).matrix2()), 1e-12);
    EXPECT_LT(u3Matrix(0, 0, 0).maxAbsDiff(Matrix2::identity()), 1e-12);
}

TEST(GateMatrix, Matrix2IsOneQubitOnly)
{
    const Gate t(GateKind::T, 0);
    const Matrix2 m = t.matrix2();
    EXPECT_EQ(m(1, 1), std::exp(kI * (kPi / 4.0)));
    EXPECT_EQ(t.matrix()(1, 1), m(1, 1));
    EXPECT_THROW(Gate(GateKind::CZ, 0, 1).matrix2(), std::logic_error);
}

TEST(GateMatrix, CxFromCzAndH)
{
    // Paper Sec 2.1: CX = (I (x) H) CZ (I (x) H), with the H on the
    // target qubit. Local convention: qubit(0) = control = LSB, so the
    // kron has H in the high slot.
    const Matrix h = Gate(GateKind::H, 0).matrix();
    const Matrix lift = h.kron(Matrix::identity(2));
    const Matrix expected = lift * Gate(GateKind::CZ, 0, 1).matrix() * lift;
    EXPECT_LT(expected.maxAbsDiff(Gate(GateKind::CX, 0, 1).matrix()), 1e-12);
}

TEST(GateMatrix, CczFlipsOnlyAllOnes)
{
    const Matrix m = Gate(GateKind::CCZ, 0, 1, 2).matrix();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(m(i, i), (i == 7 ? Complex{-1.0} : Complex{1.0}));
}

TEST(GateMatrix, CcxMapsBasisStatesCorrectly)
{
    // Controls are local bits 0 and 1; target is bit 2.
    const Matrix m = Gate(GateKind::CCX, 0, 1, 2).matrix();
    EXPECT_EQ(m(7, 3), Complex{1.0});
    EXPECT_EQ(m(3, 7), Complex{1.0});
    EXPECT_EQ(m(1, 1), Complex{1.0});
    EXPECT_EQ(m(3, 3), Complex{0.0});
}

TEST(GateInverse, InverseGivesIdentityProduct)
{
    const std::vector<Gate> gates = {
        Gate(GateKind::U3, 0, 0.3, 1.1, -0.7), Gate(GateKind::S, 0),
        Gate(GateKind::T, 0), Gate(GateKind::RX, 0, 0.4),
        Gate(GateKind::RZ, 0, -2.2), Gate(GateKind::P, 0, 0.9),
        Gate(GateKind::CP, 0, 1, 0.8), Gate(GateKind::RZZ, 0, 1, 1.3),
        Gate(GateKind::SWAP, 0, 1), Gate(GateKind::CCX, 0, 1, 2),
        Gate(GateKind::H, 0), Gate(GateKind::CZ, 0, 1),
    };
    for (const auto &g : gates) {
        const auto prod = g.inverse().matrix() * g.matrix();
        EXPECT_LT(prod.maxAbsDiff(Matrix::identity(prod.rows())), 1e-12)
            << g.toString();
    }
}

TEST(Gate, ActsOnChecksAllOperands)
{
    const Gate g(GateKind::CCZ, 2, 5, 7);
    EXPECT_TRUE(g.actsOn(2));
    EXPECT_TRUE(g.actsOn(5));
    EXPECT_TRUE(g.actsOn(7));
    EXPECT_FALSE(g.actsOn(3));
}

TEST(Gate, ToStringIncludesParamsAndQubits)
{
    const Gate g(GateKind::CP, 1, 4, 0.5);
    const std::string s = g.toString();
    EXPECT_NE(s.find("cp"), std::string::npos);
    EXPECT_NE(s.find("q1"), std::string::npos);
    EXPECT_NE(s.find("q4"), std::string::npos);
    EXPECT_NE(s.find("0.5"), std::string::npos);
}

TEST(Gate, EqualityComparesKindQubitsParams)
{
    EXPECT_EQ(Gate(GateKind::CZ, 0, 1), Gate(GateKind::CZ, 0, 1));
    EXPECT_FALSE(Gate(GateKind::CZ, 0, 1) == Gate(GateKind::CZ, 0, 2));
    EXPECT_FALSE(Gate(GateKind::RZ, 0, 0.5) == Gate(GateKind::RZ, 0, 0.6));
}

}  // namespace
}  // namespace geyser
