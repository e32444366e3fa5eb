/**
 * @file
 * Rydberg-crosstalk channel tests: zone atoms get dephased during
 * multi-qubit gates; isolated gates and topology-less runs see nothing.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "metrics/metrics.hpp"
#include "sim/statevector.hpp"
#include "sim/trajectory.hpp"

namespace geyser {
namespace {

NoiseModel
crosstalkOnly(double rate)
{
    NoiseModel nm{0.0, 0.0, false, 0.0, rate};
    return nm;
}

TEST(Crosstalk, RejectedWithoutTopology)
{
    // A crosstalk-enabled model without a topology used to silently
    // downgrade to no crosstalk — a service caller got a confident,
    // wrong TVD. It is a validation error now.
    Circuit c(2);
    c.h(0);
    c.cz(0, 1);
    c.h(0);
    TrajectoryConfig cfg{500, 3, false, nullptr};
    EXPECT_THROW(noisyDistribution(c, crosstalkOnly(0.5), cfg),
                 ValidationError);
    // With a topology the same request is fine.
    const auto topo = Topology::makeTriangular(1, 2);
    cfg.topology = &topo;
    const auto noisy = noisyDistribution(c, crosstalkOnly(0.5), cfg);
    EXPECT_EQ(noisy.size(), size_t{4});
}

TEST(Crosstalk, RejectsTopologyOfAnotherWidth)
{
    // Restriction zones index the topology's atoms. A narrower topology
    // used to read past its atom table; a wider one drew and counted
    // crosstalk events on atoms the register does not have.
    Circuit wide(12);
    for (int q = 0; q + 1 < 12; ++q)
        wide.cz(q, q + 1);
    Circuit narrow(4);
    narrow.h(2);
    narrow.cz(0, 1);
    narrow.h(2);
    const auto small = Topology::makeTriangular(2, 2);
    const auto big = Topology::makeTriangular(2, 3);
    const std::pair<const Circuit *, const Topology *> mismatches[] = {
        {&wide, &small}, {&narrow, &big}};
    for (const auto &[circuit, topo] : mismatches) {
        TrajectoryConfig cfg{8, 3, false, topo};
        try {
            noisyDistribution(*circuit, crosstalkOnly(0.5), cfg);
            ADD_FAILURE() << circuit->numQubits() << " qubits on "
                          << topo->numAtoms() << " atoms was accepted";
        } catch (const ValidationError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(std::to_string(topo->numAtoms()) + " atoms"),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find(std::to_string(circuit->numQubits()) +
                                " qubits"),
                      std::string::npos)
                << what;
        }
    }
    // The topology only matters to crosstalk: without it, any width runs.
    TrajectoryConfig cfg{8, 3, false, &small};
    EXPECT_NO_THROW(noisyDistribution(wide, NoiseModel::paperDefault(), cfg));
}

TEST(Crosstalk, DephasesZoneAtoms)
{
    // Atom 2 sits in the zone of the CZ(0, 1); its superposition gets
    // dephased during the gate.
    const auto topo = Topology::makeTriangular(2, 2);
    Circuit c(4);
    c.h(2);
    c.cz(0, 1);
    c.h(2);
    // Ideal output: qubit 2 returns to |0> deterministically.
    TrajectoryConfig cfg{4000, 7, true, &topo};
    const auto noisy = noisyDistribution(c, crosstalkOnly(0.5), cfg);
    double q2one = 0.0;
    for (size_t i = 0; i < noisy.size(); ++i)
        if (i & 4)
            q2one += noisy[i];
    // Full dephasing (p = 0.5) makes qubit 2 uniform: p(1) = 0.5.
    EXPECT_NEAR(q2one, 0.5, 0.05);
}

TEST(Crosstalk, DoesNotTouchAtomsOutsideZone)
{
    const auto topo = Topology::makeTriangular(2, 4);
    const auto zone = topo.restrictionZone({0, 1});
    ASSERT_TRUE(std::find(zone.begin(), zone.end(), 3) == zone.end());
    Circuit c(topo.numAtoms());
    c.h(3);  // Atom 3 is two sites away: outside the zone of cz(0, 1).
    c.cz(0, 1);
    c.h(3);
    TrajectoryConfig cfg{200, 5, false, &topo};
    const auto noisy = noisyDistribution(c, crosstalkOnly(0.5), cfg);
    double far_one = 0.0;
    for (size_t i = 0; i < noisy.size(); ++i)
        if (i & (size_t{1} << 3))
            far_one += noisy[i];
    EXPECT_NEAR(far_one, 0.0, 1e-12);
}

TEST(Crosstalk, SingleQubitGatesCreateNoZoneErrors)
{
    const auto topo = Topology::makeTriangular(2, 2);
    Circuit c(4);
    c.h(0);
    c.u3(1, 0.5, 0.5, 0.5);
    c.h(0);
    TrajectoryConfig cfg{300, 11, false, &topo};
    const auto noisy = noisyDistribution(c, crosstalkOnly(0.9), cfg);
    const auto ideal = idealDistribution(c);
    EXPECT_NEAR(totalVariationDistance(noisy, ideal), 0.0, 1e-12);
}

}  // namespace
}  // namespace geyser
