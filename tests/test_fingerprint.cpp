/**
 * @file
 * Compile fingerprint pinned to kPipelineVersion. kPipelineVersion keys
 * every persistent-cache entry, so a change that alters a compiled
 * circuit without bumping it would serve stale compiles from disk. This
 * table pins the structure of each Table-1 compile under Baseline,
 * OptiMap and Geyser with default options: total pulses, depth pulses,
 * block count, composed-block count, the gate sequence of the physical
 * circuit (fleet::structureDigest: gate kinds and operands, angles
 * canonicalized out, so a changed composed-block set shows too) and a
 * digest of the initial and final layouts. It pins structure, not angle
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
#include "fleet/skeleton.hpp"
#include "geyser/pipeline.hpp"
#include "io/framing.hpp"

namespace geyser {
namespace {

/** The kPipelineVersion the table below was recorded at. */
constexpr int kFingerprintVersion = 9;

struct Fingerprint
{
    const char *circuit;
    Technique technique;
    long pulses;
    long depth;
    int blocks;
    int composed;
    const char *structure;  ///< fleet::structureDigest(physical).
    const char *layouts;    ///< layoutDigest() of the compile.
};

// Suite totals: 62845 pulses, 39081 depth pulses (Geyser: 14079 pulses).
constexpr Fingerprint kTable1[] = {
    {"adder-4", Technique::Baseline, 105, 90, 0, 0,
     "86659f8f2919c06ed8d91b3fd61b8a3d", "f5e97881a465a4eb6656be775e932f4d"},
    {"adder-4", Technique::OptiMap, 76, 69, 0, 0,
     "dc56ad835a6b0b8b755d3c9a95d5d3c0", "f5e97881a465a4eb6656be775e932f4d"},
    {"adder-4", Technique::Geyser, 66, 53, 3, 1,
     "9186a12e1a736a4d2c4ab6d1956fd2ff", "f5e97881a465a4eb6656be775e932f4d"},
    {"vqe-4", Technique::Baseline, 468, 283, 0, 0,
     "308f54551e68f6afabc7beb941864f52", "f5e97881a465a4eb6656be775e932f4d"},
    {"vqe-4", Technique::OptiMap, 304, 241, 0, 0,
     "17f067200e95c6c958962496dbd8d2a1", "f5e97881a465a4eb6656be775e932f4d"},
    {"vqe-4", Technique::Geyser, 304, 241, 20, 0,
     "17f067200e95c6c958962496dbd8d2a1", "f5e97881a465a4eb6656be775e932f4d"},
    {"qaoa-5", Technique::Baseline, 434, 377, 0, 0,
     "051cd4b48029c5b4ab104ecd335d4f5f", "24eda2ea904d548c7998995eb04bb24d"},
    {"qaoa-5", Technique::OptiMap, 250, 230, 0, 0,
     "974d9a111e71e7d6ed1a132e8c4b4f49", "43d39999651b3ddcd3ddb2263b35fc1d"},
    {"qaoa-5", Technique::Geyser, 250, 230, 16, 0,
     "974d9a111e71e7d6ed1a132e8c4b4f49", "43d39999651b3ddcd3ddb2263b35fc1d"},
    {"qft-5", Technique::Baseline, 245, 206, 0, 0,
     "9aa98b45acf6372076844e355b383f1d", "fddc1efc7dc8c9b14e852036e6aec96d"},
    {"qft-5", Technique::OptiMap, 165, 141, 0, 0,
     "cfdcc20763ed748bdab982b1c58e8c92", "01f4fd833771fa5ff0af38c94b646f1d"},
    {"qft-5", Technique::Geyser, 165, 141, 10, 1,
     "b22e03f8ff76607804b005e6eb4f99e2", "01f4fd833771fa5ff0af38c94b646f1d"},
    {"multiplier-5", Technique::Baseline, 96, 81, 0, 0,
     "49fe55f4aa9898d6bb2dff8389299088", "fddc1efc7dc8c9b14e852036e6aec96d"},
    {"multiplier-5", Technique::OptiMap, 55, 49, 0, 0,
     "e8516eee54e16ad4a3d08959e4f654c4", "1def7e20832fb5a0e1fef6a15c5885dd"},
    {"multiplier-5", Technique::Geyser, 22, 14, 2, 2,
     "605178ed7895fc04392d6873ccaa5b50", "1def7e20832fb5a0e1fef6a15c5885dd"},
    {"adder-9", Technique::Baseline, 608, 505, 0, 0,
     "132cb118264ea0cf1fd76711c30ef978", "33b61e291a8796b8db460842f06d06dd"},
    {"adder-9", Technique::OptiMap, 393, 343, 0, 0,
     "c95a55dab75830aee528c61d5225f6c3", "bbfd30138d6cb0114f3e99b6360f05fd"},
    {"adder-9", Technique::Geyser, 363, 310, 33, 4,
     "b9868c7d6a7a4b312a7bf090f1afae74", "bbfd30138d6cb0114f3e99b6360f05fd"},
    {"advantage-9", Technique::Baseline, 108, 60, 0, 0,
     "a5d13b97e77d8a30f8187a674ef034e6", "4bc297fbee104c0063ec6c3ca8413a5d"},
    {"advantage-9", Technique::OptiMap, 93, 57, 0, 0,
     "80d77099f20c5f261f86f64e05f72c99", "4bc297fbee104c0063ec6c3ca8413a5d"},
    {"advantage-9", Technique::Geyser, 93, 57, 16, 0,
     "80d77099f20c5f261f86f64e05f72c99", "4bc297fbee104c0063ec6c3ca8413a5d"},
    {"qft-10", Technique::Baseline, 1640, 1174, 0, 0,
     "9b8f72e95ee9daf756f09859a4a37fb6", "ad12cab507816e654ca6cd0fb8d6657d"},
    {"qft-10", Technique::OptiMap, 870, 715, 0, 0,
     "b02cd6dbcc3f957fccb1b040adaf05af", "e5b26e26a3f8f627cf91ff6a533d87fd"},
    {"qft-10", Technique::Geyser, 864, 690, 61, 3,
     "c808387602e5d8bcc02c1d4418bc929d", "e5b26e26a3f8f627cf91ff6a533d87fd"},
    {"multiplier-10", Technique::Baseline, 2579, 1949, 0, 0,
     "75576e34e023197f4b87d0bbf811722e", "b11e192eff4d9d535860c8ec5bc3dc3d"},
    {"multiplier-10", Technique::OptiMap, 1366, 1173, 0, 0,
     "183a4a757104b2a71fe271f72cbb1785", "bc46f3a2f1a9bd7756d6c40a8cf3b8fd"},
    {"multiplier-10", Technique::Geyser, 1307, 1082, 90, 8,
     "f9ad054fb770212f1bfd33c5dc1d1085", "bc46f3a2f1a9bd7756d6c40a8cf3b8fd"},
    {"heisenberg-16", Technique::Baseline, 23895, 15363, 0, 0,
     "a2e808eb5672e946277297e1efb44d10", "ac94db84125abad8f2a7d7bfe2f1844d"},
    {"heisenberg-16", Technique::OptiMap, 15016, 8326, 0, 0,
     "940256b0bae84f64a45e0cb2febf7a9c", "ac94db84125abad8f2a7d7bfe2f1844d"},
    {"heisenberg-16", Technique::Geyser, 10645, 4831, 524, 456,
     "b4d9ba94cfac0cbc5d390b01d5b05814", "ac94db84125abad8f2a7d7bfe2f1844d"},
};

/** FNV-1a 128 over the initial then the final layout. */
std::string
layoutDigest(const CompileResult &r)
{
    io::Fnv128 h;
    for (const auto *layout : {&r.initialLayout, &r.finalLayout}) {
        h.feedValue(static_cast<long long>(layout->size()));
        for (const Qubit q : *layout)
            h.feedValue(static_cast<int>(q));
    }
    return h.hex();
}

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
        EXPECT_EQ(fleet::structureDigest(r.physical), pin.structure);
        EXPECT_EQ(layoutDigest(r), pin.layouts);
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
