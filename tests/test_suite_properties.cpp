/**
 * @file
 * Parameterized invariant checks across the benchmark suite (small
 * rows) and every technique: pulse accounting consistency, depth
 * bounds, physical-basis output, and exact semantic preservation for
 * the non-composing techniques.
 */
#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "algos/suite.hpp"
#include "geyser/pipeline.hpp"

namespace geyser {
namespace {

// Benchmark names are std::string, not const char *: gtest prints a
// pointer parameter as its address, and that address would otherwise
// leak into the discovered ctest test names and change on every run.
class SuiteSweep
    : public ::testing::TestWithParam<std::tuple<std::string, Technique>>
{
};

TEST_P(SuiteSweep, CompileInvariantsHold)
{
    const auto [name, technique] = GetParam();
    const auto &spec = benchmarkByName(name);
    const CompileResult result = compile(technique, spec.make());

    // Output is physical and the pulse ledger is consistent.
    EXPECT_TRUE(result.physical.isPhysical());
    const auto &s = result.stats;
    EXPECT_EQ(s.totalPulses,
              1L * s.u3Count + 3L * s.czCount + 5L * s.cczCount);
    EXPECT_GE(s.totalPulses, s.depthPulses);
    EXPECT_GT(s.depthPulses, 0);

    // Only Geyser may emit CCZ.
    if (technique != Technique::Geyser)
        EXPECT_EQ(s.cczCount, 0);

    // Non-composing techniques preserve the output exactly; Geyser is
    // bounded by the paper's 1e-2 ideal-TVD budget (checked elsewhere).
    if (technique != Technique::Geyser)
        EXPECT_LT(idealTvd(result), 1e-7);  // FP accumulation on deep VQE

    // Layout bookkeeping: one atom per logical qubit, all distinct.
    ASSERT_EQ(result.finalLayout.size(),
              static_cast<size_t>(spec.numQubits));
    std::vector<bool> seen(static_cast<size_t>(result.physical.numQubits()),
                           false);
    for (const Qubit a : result.finalLayout) {
        ASSERT_GE(a, 0);
        ASSERT_LT(a, result.physical.numQubits());
        EXPECT_FALSE(seen[static_cast<size_t>(a)]);
        seen[static_cast<size_t>(a)] = true;
    }
}

INSTANTIATE_TEST_SUITE_P(
    SmallRows, SuiteSweep,
    ::testing::Combine(
        ::testing::Values(std::string("adder-4"), std::string("vqe-4"),
                          std::string("qaoa-5"), std::string("qft-5"),
                          std::string("multiplier-5")),
        ::testing::Values(Technique::Baseline, Technique::OptiMap,
                          Technique::Geyser, Technique::Superconducting)),
    [](const auto &info) {
        std::string name = std::get<0>(info.param) + "_" +
                           techniqueName(std::get<1>(info.param));
        for (auto &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

TEST(SuiteSweepNames, TestNamesAreSanitized)
{
    // The name generator uses '-' from benchmark names; gtest requires
    // alphanumerics. Keep this canary so failures are understandable.
    const std::string name = "adder-4";
    std::string sanitized = name;
    for (auto &c : sanitized)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    EXPECT_EQ(sanitized, "adder_4");
}

}  // namespace
}  // namespace geyser
