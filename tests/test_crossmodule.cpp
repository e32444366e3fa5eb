/**
 * @file
 * Cross-module tests that stitch independent subsystems together:
 * QASM-in -> compile -> QASM-out, pulse lowering of compiled circuits,
 * exact-vs-sampled noise on Geyser output, CCZ restriction scheduling.
 */
#include <gtest/gtest.h>

#include "circuit/draw.hpp"
#include "geyser/pipeline.hpp"
#include "io/qasm_parser.hpp"
#include "io/serialize.hpp"
#include "metrics/metrics.hpp"
#include "pulse/pulse.hpp"
#include "sim/density_matrix.hpp"
#include "sim/unitary_sim.hpp"

namespace geyser {
namespace {

TEST(CrossModule, QasmRoundTripThroughGeyserCompilation)
{
    const std::string qasm =
        "OPENQASM 2.0;\n"
        "include \"qelib1.inc\";\n"
        "qreg q[3];\n"
        "h q[0];\n"
        "cx q[0],q[1];\n"
        "ccx q[0],q[1],q[2];\n"
        "rz(pi/3) q[2];\n";
    const Circuit logical = circuitFromQasm(qasm);
    const CompileResult gey = compileGeyser(logical);
    EXPECT_LT(idealTvd(gey), 1e-2);

    // The compiled circuit exports to QASM and re-imports equivalently.
    const Circuit back = circuitFromQasm(circuitToQasm(gey.physical));
    EXPECT_LT(circuitHsd(gey.physical, back), 1e-8);
}

TEST(CrossModule, CompiledCircuitLowersToPulses)
{
    const CompileResult gey = compileGeyser(circuitFromQasm(
        "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[1];\n"
        "ccx q[0],q[1],q[2];\n"));
    const Schedule sched =
        scheduleRestrictionAware(gey.physical, gey.topology);
    const PulseProgram program = lowerToPulses(gey.physical, sched);
    EXPECT_EQ(static_cast<long>(program.pulses.size()),
              gey.stats.totalPulses);
    EXPECT_EQ(program.makespan, gey.stats.depthPulses);
    // Every CCZ contributes exactly one 2*pi pulse.
    EXPECT_EQ(program.countKind(PulseKind::Rydberg2Pi),
              gey.stats.czCount + gey.stats.cczCount);
}

TEST(CrossModule, CczRestrictionZoneSerializesNeighbors)
{
    const auto topo = Topology::makeTriangular(3, 3);
    const auto &tri = topo.triangles().front();
    Circuit c(topo.numAtoms());
    c.ccz(tri[0], tri[1], tri[2]);
    // A U3 on a restricted atom must wait for all five CCZ pulses.
    const auto zone = topo.restrictionZone({tri[0], tri[1], tri[2]});
    ASSERT_FALSE(zone.empty());
    c.u3(zone.front(), 0, 0, 0);
    const auto sched = scheduleRestrictionAware(c, topo);
    EXPECT_EQ(sched.start[1], 5);
    EXPECT_EQ(sched.makespan, 6);
}

TEST(CrossModule, GeyserOutputExactNoiseMatchesTrajectories)
{
    // Compile a small circuit with Geyser and compare the noisy output
    // of the exact density-matrix channel against trajectory sampling.
    Circuit logical(3);
    logical.h(0);
    logical.cx(0, 1);
    logical.ccx(0, 1, 2);
    const CompileResult gey = compileGeyser(logical);
    ASSERT_LE(gey.physical.numQubits(), 6);

    const NoiseModel nm = NoiseModel::withRate(0.01);
    const auto exact = exactNoisyDistribution(gey.physical, nm);
    TrajectoryConfig cfg;
    cfg.trajectories = 20000;
    cfg.seed = 17;
    const auto sampled = noisyDistribution(gey.physical, nm, cfg);
    EXPECT_LT(totalVariationDistance(exact, sampled), 0.015);
}

TEST(CrossModule, DrawHandlesCompiledCircuits)
{
    const CompileResult gey = compileGeyser(circuitFromQasm(
        "OPENQASM 2.0;\nqreg q[3];\nccx q[0],q[1],q[2];\n"));
    const std::string art = drawCircuit(gey.physical, 12);
    EXPECT_NE(art.find("q0:"), std::string::npos);
    EXPECT_FALSE(art.empty());
}

TEST(CrossModule, CacheSurvivesCompileReload)
{
    const Circuit logical = circuitFromQasm(
        "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n");
    const auto gey = compileGeyser(logical);
    const auto loaded =
        compileResultFromText(compileResultToText(gey), logical);
    ASSERT_TRUE(loaded.has_value());
    // The reloaded circuit behaves identically under evaluation.
    EXPECT_NEAR(idealTvd(*loaded), idealTvd(gey), 1e-12);
}

}  // namespace
}  // namespace geyser
