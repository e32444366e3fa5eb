/**
 * @file
 * One-qubit resynthesis tests: U3 extraction from arbitrary 2x2
 * unitaries, including the degenerate theta = 0 and theta = pi branches.
 * Parameterized sweep over a grid of angles (property-style).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <tuple>

#include "circuit/gate.hpp"
#include "common/rng.hpp"
#include "transpile/zyz.hpp"

namespace geyser {
namespace {

void
expectRecovers(const Matrix2 &u)
{
    const U3Params p = u3FromMatrix(u);
    const Matrix rebuilt =
        Matrix(u3Matrix(p.theta, p.phi, p.lambda)) * std::exp(kI * p.phase);
    EXPECT_LT(rebuilt.maxAbsDiff(Matrix(u)), 1e-10) << Matrix(u).toString();
}

TEST(Zyz, RecoversNamedGates)
{
    for (const GateKind kind :
         {GateKind::I, GateKind::X, GateKind::Y, GateKind::Z, GateKind::H,
          GateKind::S, GateKind::SDG, GateKind::T, GateKind::TDG})
        expectRecovers(Gate(kind, 0).matrix2());
}

TEST(Zyz, RecoversRotationGates)
{
    for (const double angle : {-2.5, -0.3, 0.0, 0.7, 3.1}) {
        expectRecovers(Gate(GateKind::RX, 0, angle).matrix2());
        expectRecovers(Gate(GateKind::RY, 0, angle).matrix2());
        expectRecovers(Gate(GateKind::RZ, 0, angle).matrix2());
        expectRecovers(Gate(GateKind::P, 0, angle).matrix2());
    }
}

TEST(Zyz, RejectsNonUnitary)
{
    EXPECT_THROW(u3FromMatrix(Matrix2(1.0, 1.0, 0.0, 1.0)),
                 std::invalid_argument);
    // A NaN entry must fail the unitarity check, not decompose to a NaN
    // theta.
    EXPECT_THROW(u3FromMatrix(Matrix2(std::nan(""), 0.0, 0.0, 1.0)),
                 std::invalid_argument);
}

TEST(Zyz, IdentityDetection)
{
    EXPECT_TRUE(isIdentityUpToPhase(Matrix2::identity()));
    const Complex phase = std::exp(kI * 1.3);
    EXPECT_TRUE(isIdentityUpToPhase(Matrix2(phase, 0.0, 0.0, phase)));
    EXPECT_FALSE(isIdentityUpToPhase(Gate(GateKind::X, 0).matrix2()));
    EXPECT_FALSE(isIdentityUpToPhase(Gate(GateKind::Z, 0).matrix2()));
}

TEST(Zyz, KeepsFullPrecisionNearThetaZero)
{
    // Near theta = 0, acos(|u00|) would resolve theta only in steps of
    // ~3e-8 (3e-9 would come back as 0); the round trip must hold to
    // rounding at any theta, up to a global phase.
    Rng rng(17);
    for (const double theta : {1e-10, 3e-9, 2.98e-8, 1e-6, kPi - 1e-9}) {
        for (int trial = 0; trial < 8; ++trial) {
            const Complex phase = std::polar(1.0, rng.uniform(0.0, 2 * kPi));
            const Matrix2 u = Matrix2(phase, 0.0, 0.0, phase) *
                              u3Matrix(theta, rng.uniform(0.0, 2 * kPi),
                                       rng.uniform(0.0, 2 * kPi));
            const U3Params p = u3FromMatrix(u);
            const Matrix2 rebuilt = u3Matrix(p.theta, p.phi, p.lambda);
            Complex overlap = 0.0;
            for (int j = 0; j < 4; ++j)
                overlap += std::conj(rebuilt.data()[j]) * u.data()[j];
            const Complex align = overlap / std::abs(overlap);
            EXPECT_LE(u.maxAbsDiff(Matrix2(align, 0.0, 0.0, align) * rebuilt),
                      1e-14)
                << "theta=" << theta << " got " << p.theta;
        }
    }
}

/** Property sweep: every U3(theta, phi, lambda) round-trips. */
class ZyzSweep
    : public ::testing::TestWithParam<std::tuple<double, double, double>>
{
};

TEST_P(ZyzSweep, RoundTripsArbitraryU3)
{
    const auto [theta, phi, lambda] = GetParam();
    const Matrix2 u = u3Matrix(theta, phi, lambda);
    expectRecovers(u);
    // And the product of two such gates round-trips too.
    expectRecovers(u * u3Matrix(lambda, theta, phi));
}

INSTANTIATE_TEST_SUITE_P(
    AngleGrid, ZyzSweep,
    ::testing::Combine(::testing::Values(0.0, 0.9, kPi / 2, kPi - 1e-9, kPi,
                                         2.1, 2 * kPi),
                       ::testing::Values(0.0, 1.3, -2.2),
                       ::testing::Values(0.0, 0.4, 5.9)));

}  // namespace
}  // namespace geyser
