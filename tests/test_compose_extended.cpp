/**
 * @file
 * Tests for the extended entangler mode and the composition memo.
 */
#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"
#include "compose/composer.hpp"
#include "io/serialize.hpp"
#include "linalg/kernels/backend.hpp"
#include "sim/unitary_sim.hpp"
#include "transpile/basis.hpp"
#include "transpile/passes.hpp"
#include "verify/random_circuit.hpp"

namespace geyser {
namespace {

TEST(ExtendedEntangler, FindsCheaperCzLayersForCzStructuredBlock)
{
    // A block generated from a 2-layer CZ(0,1) ansatz (guaranteed
    // representable with two CZ layers = 15 pulses), padded with a
    // cancelling CZ pair for pulse headroom (21 pulses total). Extended
    // mode can recover the cheap CZ structure; paper mode is limited to
    // CCZ layers.
    const Ansatz gen(3, 2, {Entangler::Cz01, Entangler::Cz01});
    std::vector<double> truth(static_cast<size_t>(gen.numAngles()));
    for (size_t i = 0; i < truth.size(); ++i)
        truth[i] = 0.25 + 0.17 * static_cast<double>(i);
    Circuit block = gen.toCircuit(truth);
    block.cz(1, 2);
    block.cz(1, 2);

    ComposeOptions extended;
    extended.entanglerMode = EntanglerMode::Extended;
    const auto ext = composeBlock(block, extended);
    ASSERT_TRUE(ext.composed);
    EXPECT_LT(circuitHsd(block, ext.circuit), 2e-5);
    EXPECT_LT(ext.circuit.totalPulses(), block.totalPulses());

    // Paper mode keeps equivalence too (compose or keep-original).
    ComposeOptions paper;
    paper.entanglerMode = EntanglerMode::PaperCcz;
    const auto pap = composeBlock(block, paper);
    EXPECT_LT(circuitHsd(block, pap.circuit), 2e-5);
    EXPECT_LE(ext.circuit.totalPulses(), pap.circuit.totalPulses());
}

TEST(ExtendedEntangler, StillComposesCczBlocks)
{
    Circuit logical(3);
    logical.ccz(0, 1, 2);
    Circuit block = decomposeToBasis(logical);
    fuseU3Pass(block, true);
    ComposeOptions opts;
    opts.entanglerMode = EntanglerMode::Extended;
    const auto result = composeBlock(block, opts);
    EXPECT_TRUE(result.composed);
    EXPECT_LT(circuitHsd(block, result.circuit), 2e-5);
}

TEST(ComposeMemo, CachedResultMatchesDirect)
{
    Circuit logical(3);
    logical.ccx(0, 1, 2);
    Circuit block = decomposeToBasis(logical);
    const auto direct = composeBlock(block);
    const auto cached1 = composeBlockCached(block);
    const auto cached2 = composeBlockCached(block);
    EXPECT_EQ(cached1.composed, direct.composed);
    EXPECT_EQ(cached1.circuit.totalPulses(), direct.circuit.totalPulses());
    // The second cached call is a pure lookup: identical result object.
    EXPECT_EQ(cached2.circuit.totalPulses(), cached1.circuit.totalPulses());
    EXPECT_EQ(cached2.evaluations, cached1.evaluations);
}

TEST(ComposeMemo, DistinguishesOptions)
{
    // Each compose option splits the memo key: a block composed through
    // the memo under a non-default option right after the default gets
    // its own search, not the default's cached result.
    ComposeOptions extended;
    extended.entanglerMode = EntanglerMode::Extended;
    ComposeOptions annealing;
    annealing.optimizer = ComposeOptimizer::DualAnnealing;
    Circuit ccz(3);
    ccz.ccz(0, 1, 2);
    Circuit cczBlock = decomposeToBasis(ccz);
    fuseU3Pass(cczBlock, true);
    const std::pair<Circuit, ComposeOptions> cases[] = {
        {verify::randomPhysicalCircuit(3, 8, 2), extended},
        {cczBlock, annealing},
    };
    for (const auto &[block, variant] : cases) {
        const ComposeResult base = composeBlockCached(block);
        const ComposeResult direct = composeBlock(block, variant);
        ASSERT_TRUE(base.composed);
        ASSERT_TRUE(direct.composed);
        ASSERT_NE(direct.evaluations, base.evaluations)
            << "the option no longer changes this block's search";
        const ComposeResult cached = composeBlockCached(block, variant);
        EXPECT_EQ(cached.evaluations, direct.evaluations);
        EXPECT_EQ(cached.layersUsed, direct.layersUsed);
        EXPECT_EQ(cached.circuit.totalPulses(), direct.circuit.totalPulses());
    }
}

TEST(ComposeMemo, DistinguishesBackends)
{
    // Backends round differently, so rotosolve can settle on other
    // angles: a block the memo composed under scalar must not be served
    // to a compile on a SIMD backend.
    std::string simd;
    for (const auto &info : kernels::availableBackends()) {  // best first
        if (info.backend != nullptr && info.name != "scalar") {
            simd = info.name;
            break;
        }
    }
    if (simd.empty())
        GTEST_SKIP() << "only the scalar backend is usable on this host";
    // Three rounds of random U3s and a CZ; no other test composes it.
    Rng rng(7);
    Circuit block(2);
    for (int round = 0; round < 3; ++round) {
        for (Qubit q = 0; q < 2; ++q) {
            const double theta = rng.uniform(0.0, 3.1);
            const double phi = rng.uniform(-3.1, 3.1);
            const double lambda = rng.uniform(-3.1, 3.1);
            block.u3(q, theta, phi, lambda);
        }
        block.cz(0, 1);
    }
    std::string scalarText;
    {
        kernels::ScopedBackend scoped("scalar");
        scalarText = circuitToText(composeBlockCached(block).circuit);
    }
    kernels::ScopedBackend scoped(simd);
    ASSERT_TRUE(scoped.honoured()) << simd;
    const ComposeResult direct = composeBlockWithSplits(block);
    ASSERT_TRUE(direct.composed);
    ASSERT_NE(circuitToText(direct.circuit), scalarText)
        << "scalar and " << simd << " no longer compose this block apart";
    EXPECT_EQ(circuitToText(composeBlockCached(block).circuit),
              circuitToText(direct.circuit));
}

TEST(ComposeMemo, DistinguishesGateParameters)
{
    Circuit a(2), b(2);
    a.u3(0, 0.5, 0.0, 0.0);
    a.cz(0, 1);
    b.u3(0, 0.6, 0.0, 0.0);
    b.cz(0, 1);
    const auto ra = composeBlockCached(a);
    const auto rb = composeBlockCached(b);
    // Both keep the original (too cheap to compose), but the returned
    // circuits must be their own inputs, not each other's.
    EXPECT_EQ(ra.circuit.gates()[0].param(0), 0.5);
    EXPECT_EQ(rb.circuit.gates()[0].param(0), 0.6);
}

}  // namespace
}  // namespace geyser
