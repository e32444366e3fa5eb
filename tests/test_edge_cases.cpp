/**
 * @file
 * Edge-case coverage across modules: empty-circuit serialization,
 * scheduler corner cases, empty circuits through the pipeline.
 */
#include <gtest/gtest.h>

#include "circuit/draw.hpp"
#include "circuit/schedule.hpp"
#include "geyser/pipeline.hpp"
#include "io/serialize.hpp"

namespace geyser {
namespace {

TEST(EdgeCases, EmptyCircuitSchedulesToZero)
{
    Circuit c(3);
    EXPECT_EQ(depthPulses(c), 0);
    const auto sched = scheduleAsap(c);
    EXPECT_TRUE(sched.start.empty());
}

TEST(EdgeCases, EmptyCircuitThroughPipeline)
{
    Circuit c(2);
    const auto base = compile(Technique::Baseline, c);
    EXPECT_EQ(base.stats.totalPulses, 0);
    EXPECT_NEAR(idealTvd(base), 0.0, 1e-12);
    const auto opti = compile(Technique::OptiMap, c);
    EXPECT_EQ(opti.stats.totalPulses, 0);
}

TEST(EdgeCases, SingleGateCircuitThroughGeyser)
{
    Circuit c(2);
    c.h(0);
    const auto gey = compile(Technique::Geyser, c);
    EXPECT_TRUE(gey.physical.isPhysical());
    EXPECT_LE(gey.stats.totalPulses, 1);
    EXPECT_NEAR(idealTvd(gey), 0.0, 1e-9);
}

TEST(EdgeCases, DrawEmptyCircuit)
{
    Circuit c(2);
    const std::string art = drawCircuit(c);
    EXPECT_NE(art.find("q0:"), std::string::npos);
    EXPECT_NE(art.find("q1:"), std::string::npos);
}

TEST(EdgeCases, CircuitTextRoundTripEmpty)
{
    Circuit c(4);
    const Circuit back = circuitFromText(circuitToText(c));
    EXPECT_EQ(back.numQubits(), 4);
    EXPECT_TRUE(back.empty());
}

TEST(EdgeCases, QasmExportEmptyCircuit)
{
    const std::string qasm = circuitToQasm(Circuit(2));
    EXPECT_NE(qasm.find("qreg q[2];"), std::string::npos);
}

TEST(EdgeCases, SchedulerHandlesInterleavedOneAndThreeQubit)
{
    Circuit c(5);
    c.ccz(0, 1, 2);
    c.u3(3, 0, 0, 0);
    c.ccz(2, 3, 4);
    const auto sched = scheduleAsap(c);
    EXPECT_EQ(sched.start[0], 0);
    EXPECT_EQ(sched.start[1], 0);  // Independent qubit: parallel.
    EXPECT_EQ(sched.start[2], 5);  // Shares qubits 2 and 3.
    EXPECT_EQ(sched.makespan, 10);
}

}  // namespace
}  // namespace geyser
