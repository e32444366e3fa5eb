/**
 * @file
 * Serialization tests: native text round-trips, QASM export shape, and
 * the compile-result cache.
 */
#include <gtest/gtest.h>


#include "algos/algos.hpp"
#include "io/serialize.hpp"
#include "sim/unitary_sim.hpp"

namespace geyser {
namespace {

Circuit
sampleCircuit()
{
    Circuit c(3);
    c.h(0);
    c.u3(1, 0.123456789012345, -2.5, kPi);
    c.cx(0, 1);
    c.cp(1, 2, 0.75);
    c.ccz(0, 1, 2);
    c.swap(0, 2);
    return c;
}

TEST(Serialize, TextRoundTripPreservesGates)
{
    const Circuit c = sampleCircuit();
    const Circuit back = circuitFromText(circuitToText(c));
    ASSERT_EQ(back.size(), c.size());
    EXPECT_EQ(back.numQubits(), c.numQubits());
    for (size_t i = 0; i < c.size(); ++i)
        EXPECT_TRUE(c.gates()[i] == back.gates()[i]) << i;
}

TEST(Serialize, TextRoundTripPreservesUnitary)
{
    const Circuit c = sampleCircuit();
    const Circuit back = circuitFromText(circuitToText(c));
    EXPECT_LT(circuitHsd(c, back), 1e-12);
}

TEST(Serialize, RejectsMalformedText)
{
    EXPECT_THROW(circuitFromText("nonsense"), std::invalid_argument);
    EXPECT_THROW(circuitFromText("qubits 2\nfoo 0"), std::invalid_argument);
}

TEST(Serialize, QasmExportContainsHeaderAndGates)
{
    const std::string qasm = circuitToQasm(sampleCircuit());
    EXPECT_NE(qasm.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_NE(qasm.find("qreg q[3];"), std::string::npos);
    EXPECT_NE(qasm.find("h q[0];"), std::string::npos);
    EXPECT_NE(qasm.find("cx q[0],q[1];"), std::string::npos);
    // CCZ is emitted as an h-conjugated Toffoli for QASM 2 portability.
    EXPECT_NE(qasm.find("ccx q[0],q[1],q[2];"), std::string::npos);
    EXPECT_NE(qasm.find("cu1("), std::string::npos);
}

TEST(Serialize, CompileResultCacheRoundTrips)
{
    const Circuit logical = multiplier5Benchmark();
    const auto result = compile(Technique::Geyser, logical);

    const auto loaded =
        compileResultFromText(compileResultToText(result), logical);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->technique, Technique::Geyser);
    EXPECT_EQ(loaded->physical.size(), result.physical.size());
    EXPECT_EQ(loaded->finalLayout, result.finalLayout);
    EXPECT_EQ(loaded->stats.totalPulses, result.stats.totalPulses);
    EXPECT_EQ(loaded->stats.cczCount, result.stats.cczCount);
    EXPECT_EQ(loaded->stats.depthPulses, result.stats.depthPulses);
    EXPECT_EQ(loaded->blockCount, result.blockCount);
}

TEST(Serialize, CacheRejectsCorruptFile)
{
    EXPECT_FALSE(
        compileResultFromText("not a cache file\n", Circuit(1)).has_value());
}

}  // namespace
}  // namespace geyser
