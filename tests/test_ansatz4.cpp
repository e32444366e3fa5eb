/**
 * @file
 * Four-qubit ansatz tests (the square-lattice CCCZ alternative of
 * paper Sec 3.2, supported at the unitary level for composability
 * studies).
 */
#include <gtest/gtest.h>

#include "compose/composer.hpp"
#include "sim/unitary_sim.hpp"

namespace geyser {
namespace {

TEST(Ansatz4, ParameterAndPulseAccounting)
{
    const Ansatz a(4, 1);
    EXPECT_EQ(a.numAngles(), 24);       // 8 U3 gates x 3 angles.
    EXPECT_EQ(a.numParameters(), 25);
    EXPECT_EQ(a.pulses(), 8 + 7);       // 8 U3 + one 7-pulse CCCZ.
    EXPECT_EQ(Ansatz(4, 2).pulses(), 12 + 14);
}

TEST(Ansatz4, UnitaryIsUnitaryAndCcczAtZeroAngles)
{
    const Ansatz a(4, 1);
    const std::vector<double> zeros(24, 0.0);
    const Matrix u = a.unitary(zeros);
    EXPECT_TRUE(u.isUnitary(1e-10));
    Matrix cccz = Matrix::identity(16);
    cccz(15, 15) = -1;
    EXPECT_LT(u.maxAbsDiff(cccz), 1e-12);
}

TEST(Ansatz4, ToCircuitIsUnsupported)
{
    const Ansatz a(4, 1);
    EXPECT_THROW(a.toCircuit(std::vector<double>(24, 0.0)),
                 std::logic_error);
}

TEST(Ansatz4, RotosolveRecoversSelfGeneratedTarget)
{
    // Sanity: the 4-qubit family is searchable at all (from a nearby
    // start), so the ablation bench measures difficulty, not breakage.
    const Ansatz a(4, 1);
    std::vector<double> truth(24);
    for (size_t i = 0; i < truth.size(); ++i)
        truth[i] = 0.2 + 0.1 * static_cast<double>(i);
    const Matrix target = a.unitary(truth);
    std::vector<double> angles = truth;
    for (auto &x : angles)
        x += 0.05;
    long evals = 0;
    const double h = rotosolve(a, target, angles, 200, 1e-8, evals);
    EXPECT_LT(h, 1e-5);
}

TEST(Ansatz4, FiveQubitsRejected)
{
    EXPECT_THROW(Ansatz(5, 1), std::invalid_argument);
    EXPECT_THROW(Ansatz(1, 1), std::invalid_argument);
}

}  // namespace
}  // namespace geyser
