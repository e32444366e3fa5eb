/**
 * @file
 * Compile fingerprint pinned to kPipelineVersion. kPipelineVersion keys
 * every persistent-cache entry, so a change that alters a compiled
 * circuit without bumping it would serve stale compiles from disk. This
 * table pins the structure of each Table-1 compile under Baseline,
 * OptiMap and Geyser with default options: total pulses, depth pulses,
 * block count and composed-block count. It pins structure, not angle
 * bits, so it holds on every compute backend (FMA contraction and
 * reduction order shift composed angles within rounding only).
 *
 * When a change alters these numbers on purpose, bump kPipelineVersion
 * and re-pin kFingerprintVersion and the table together.
 */
#include <gtest/gtest.h>

#include <cctype>
#include <iterator>
#include <string>

#include "algos/suite.hpp"
#include "geyser/pipeline.hpp"

namespace geyser {
namespace {

/** The kPipelineVersion the table below was recorded at. */
constexpr int kFingerprintVersion = 7;

struct Fingerprint
{
    const char *circuit;
    Technique technique;
    long pulses;
    long depth;
    int blocks;
    int composed;
};

// Suite totals: 62845 pulses, 39081 depth pulses (Geyser: 14079 pulses).
constexpr Fingerprint kTable1[] = {
    {"adder-4", Technique::Baseline, 105, 90, 0, 0},
    {"adder-4", Technique::OptiMap, 76, 69, 0, 0},
    {"adder-4", Technique::Geyser, 66, 53, 3, 1},
    {"vqe-4", Technique::Baseline, 468, 283, 0, 0},
    {"vqe-4", Technique::OptiMap, 304, 241, 0, 0},
    {"vqe-4", Technique::Geyser, 304, 241, 20, 0},
    {"qaoa-5", Technique::Baseline, 434, 377, 0, 0},
    {"qaoa-5", Technique::OptiMap, 250, 230, 0, 0},
    {"qaoa-5", Technique::Geyser, 250, 230, 16, 0},
    {"qft-5", Technique::Baseline, 245, 206, 0, 0},
    {"qft-5", Technique::OptiMap, 165, 141, 0, 0},
    {"qft-5", Technique::Geyser, 165, 141, 10, 1},
    {"multiplier-5", Technique::Baseline, 96, 81, 0, 0},
    {"multiplier-5", Technique::OptiMap, 55, 49, 0, 0},
    {"multiplier-5", Technique::Geyser, 22, 14, 2, 2},
    {"adder-9", Technique::Baseline, 608, 505, 0, 0},
    {"adder-9", Technique::OptiMap, 393, 343, 0, 0},
    {"adder-9", Technique::Geyser, 363, 310, 33, 4},
    {"advantage-9", Technique::Baseline, 108, 60, 0, 0},
    {"advantage-9", Technique::OptiMap, 93, 57, 0, 0},
    {"advantage-9", Technique::Geyser, 93, 57, 16, 0},
    {"qft-10", Technique::Baseline, 1640, 1174, 0, 0},
    {"qft-10", Technique::OptiMap, 870, 715, 0, 0},
    {"qft-10", Technique::Geyser, 864, 690, 61, 3},
    {"multiplier-10", Technique::Baseline, 2579, 1949, 0, 0},
    {"multiplier-10", Technique::OptiMap, 1366, 1173, 0, 0},
    {"multiplier-10", Technique::Geyser, 1307, 1082, 90, 8},
    {"heisenberg-16", Technique::Baseline, 23895, 15363, 0, 0},
    {"heisenberg-16", Technique::OptiMap, 15016, 8326, 0, 0},
    {"heisenberg-16", Technique::Geyser, 10645, 4831, 524, 456},
};

TEST(CompileFingerprint, TableIsPinnedToPipelineVersion)
{
    EXPECT_EQ(kPipelineVersion, kFingerprintVersion)
        << "kPipelineVersion changed: recompute the fingerprint table and "
           "re-pin kFingerprintVersion";
}

TEST(CompileFingerprint, TableCoversTheSuite)
{
    int rows = 0;
    for (const BenchmarkSpec &spec : benchmarkSuite()) {
        int pinned = 0;
        for (const Fingerprint &pin : kTable1)
            pinned += spec.name == pin.circuit;
        EXPECT_EQ(pinned, 3) << spec.name;
        rows += pinned;
    }
    EXPECT_EQ(rows, static_cast<int>(std::size(kTable1)));
}

class CompileFingerprintRow : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CompileFingerprintRow, MatchesPinnedStructure)
{
    const std::string &name = GetParam();
    const Circuit logical = benchmarkByName(name).make();
    for (const Fingerprint &pin : kTable1) {
        if (name != pin.circuit)
            continue;
        SCOPED_TRACE(name + " " + techniqueName(pin.technique) +
                     ": a compiled output changed; if that is intended, "
                     "bump kPipelineVersion and re-pin this table");
        const CompileResult r = compile(pin.technique, logical);
        EXPECT_EQ(r.stats.totalPulses, pin.pulses);
        EXPECT_EQ(r.stats.depthPulses, pin.depth);
        EXPECT_EQ(r.blockCount, pin.blocks);
        EXPECT_EQ(r.composedBlockCount, pin.composed);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Table1, CompileFingerprintRow,
    ::testing::Values(std::string("adder-4"), std::string("vqe-4"),
                      std::string("qaoa-5"), std::string("qft-5"),
                      std::string("multiplier-5"), std::string("adder-9"),
                      std::string("advantage-9"), std::string("qft-10"),
                      std::string("multiplier-10"),
                      std::string("heisenberg-16")),
    [](const auto &info) {
        std::string name = info.param;
        for (auto &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

}  // namespace
}  // namespace geyser
