/**
 * @file
 * The depth-1 composition certificate: the Jacobi eigenvalue routine it
 * rests on, the bound (depthOneHsdBound) against depth-1 ansatze and
 * random targets, the searches it skips, and the Table-1 blocks it
 * skips staying out of reach of a depth-1 search.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "algos/suite.hpp"
#include "blocking/blocker.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "compose/composer.hpp"
#include "geyser/pipeline.hpp"
#include "obs/obs.hpp"
#include "sim/unitary_sim.hpp"
#include "verify/random_circuit.hpp"

namespace geyser {
namespace {

constexpr double kThreshold = ComposeOptions::threshold;

/** [[Re H, -Im H], [Im H, Re H]], row-major, for a k x k matrix H. */
std::vector<double>
realEmbedding(const Matrix &h)
{
    const int k = h.rows();
    const int n = 2 * k;
    std::vector<double> a(static_cast<size_t>(n * n));
    for (int i = 0; i < k; ++i) {
        for (int j = 0; j < k; ++j) {
            const Complex v = h(i, j);
            a[static_cast<size_t>(i * n + j)] = v.real();
            a[static_cast<size_t>((i + k) * n + j + k)] = v.real();
            a[static_cast<size_t>(i * n + j + k)] = -v.imag();
            a[static_cast<size_t>((i + k) * n + j)] = v.imag();
        }
    }
    return a;
}

/** `x` with `bit` inserted at position q. */
int
withBit(int x, int q, int bit)
{
    return ((x >> q) << (q + 1)) | (bit << q) | (x & ((1 << q) - 1));
}

/**
 * The 4 x 4 Gram R R^dagger of `u` realigned across the cut of qubit q,
 * where R's rows index (r_q, c_q) and its columns the other qubits'
 * (r, c); summed entry by entry, independently of the composer.
 */
Matrix
cutGram(const Matrix &u, int q)
{
    const int half = u.rows() / 2;
    Matrix g(4, 4);
    for (int rr = 0; rr < half; ++rr)
        for (int cc = 0; cc < half; ++cc)
            for (int i = 0; i < 4; ++i)
                for (int j = 0; j < 4; ++j)
                    g(i, j) +=
                        u(withBit(rr, q, i >> 1), withBit(cc, q, i & 1)) *
                        std::conj(u(withBit(rr, q, j >> 1),
                                    withBit(cc, q, j & 1)));
    return g;
}

/** The depth-1 entanglers a search can try on `num_qubits` qubits. */
std::vector<Entangler>
depthOneEntanglers(int num_qubits)
{
    if (num_qubits == 2)
        return {Entangler::Cz01};
    return {Entangler::Ccz, Entangler::Cz01, Entangler::Cz02,
            Entangler::Cz12};
}

void
expectSpectrum(const std::vector<double> &got,
               const std::vector<double> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i)
        EXPECT_NEAR(got[i], want[i], 1e-12) << "eigenvalue " << i;
}

TEST(SymmetricEigenvalues, RecoverAConjugatedDiagonalSpectrum)
{
    for (const uint64_t seed : {1u, 2u, 3u}) {
        const Matrix q =
            circuitUnitary(verify::randomPhysicalCircuit(2, 24, seed));
        const Matrix h =
            q * Matrix::diagonal({3.5, -0.75, 1.25, 0.0}) * q.dagger();
        expectSpectrum(symmetricEigenvalues(realEmbedding(h), 8),
                       {3.5, 3.5, 1.25, 1.25, 0.0, 0.0, -0.75, -0.75});
    }
}

TEST(SymmetricEigenvalues, HandleTrivialAndMalformedInput)
{
    expectSpectrum(symmetricEigenvalues({2.0, 1.0, 1.0, 2.0}, 2),
                   {3.0, 1.0});
    expectSpectrum(symmetricEigenvalues(std::vector<double>(16, 0.0), 4),
                   {0.0, 0.0, 0.0, 0.0});
    EXPECT_THROW(symmetricEigenvalues({1.0, 2.0, 3.0}, 2),
                 std::invalid_argument);
}

TEST(SymmetricEigenvalues, ReproduceTheEntanglersSchmidtSpectra)
{
    // CCZ = I (x) diag(1,1,1,0) + Z (x) diag(0,0,0,1) across every
    // one-qubit cut: squared coefficients 2*3 and 2*1. CZ: 2 and 2.
    Circuit ccz(3);
    ccz.ccz(0, 1, 2);
    for (int q = 0; q < 3; ++q)
        expectSpectrum(symmetricEigenvalues(
                           realEmbedding(cutGram(circuitUnitary(ccz), q)), 8),
                       {6, 6, 2, 2, 0, 0, 0, 0});
    Circuit cz(2);
    cz.cz(0, 1);
    for (int q = 0; q < 2; ++q)
        expectSpectrum(symmetricEigenvalues(
                           realEmbedding(cutGram(circuitUnitary(cz), q)), 8),
                       {2, 2, 2, 2, 0, 0, 0, 0});
}

TEST(DepthOneBound, VanishesOnEveryDepthOneAnsatz)
{
    Rng rng(41);
    for (const int n : {2, 3}) {
        for (const Entangler e : depthOneEntanglers(n)) {
            const Ansatz ansatz(n, 1, {e});
            for (int draw = 0; draw < 8; ++draw) {
                const Matrix v = ansatz.unitary(
                    rng.uniformVector(ansatz.numAngles(), 0.0, 2.0 * kPi));
                EXPECT_NEAR(depthOneHsdBound(v, e), 0.0, 1e-12)
                    << n << " qubits, entangler " << static_cast<int>(e);
            }
        }
    }
}

TEST(DepthOneBound, NeverExceedsTheDistanceOfADepthOnePoint)
{
    Rng rng(43);
    double largest = 0.0;
    for (const int n : {2, 3}) {
        for (uint64_t seed = 1; seed <= 6; ++seed) {
            const Matrix target = circuitUnitary(
                verify::randomPhysicalCircuit(n, 5 * n, seed));
            for (const Entangler e : depthOneEntanglers(n)) {
                SCOPED_TRACE(::testing::Message()
                             << n << " qubits, seed " << seed
                             << ", entangler " << static_cast<int>(e));
                const double bound = depthOneHsdBound(target, e);
                largest = std::max(largest, bound);
                const Ansatz ansatz(n, 1, {e});
                for (int draw = 0; draw < 4; ++draw) {
                    std::vector<double> angles = rng.uniformVector(
                        ansatz.numAngles(), 0.0, 2.0 * kPi);
                    EXPECT_GE(hilbertSchmidtDistance(
                                  target, ansatz.unitary(angles)),
                              bound - 1e-12);
                    long evaluations = 0;
                    const double optimized = rotosolve(
                        ansatz, target, angles, 100, 0.0, evaluations);
                    EXPECT_GE(optimized, bound - 1e-12);
                    EXPECT_GE(hilbertSchmidtDistance(
                                  target, ansatz.unitary(angles)),
                              bound - 1e-12);
                }
            }
        }
    }
    EXPECT_GT(largest, 0.01) << "every bound was trivial";
}

TEST(DepthOneBound, RejectsOtherWidths)
{
    EXPECT_THROW(depthOneHsdBound(Matrix::identity(2), Entangler::Ccz),
                 std::invalid_argument);
    EXPECT_THROW(depthOneHsdBound(Matrix::identity(16), Entangler::Ccz),
                 std::invalid_argument);
    EXPECT_THROW(depthOneHsdBound(Matrix(8, 4), Entangler::Ccz),
                 std::invalid_argument);
}

/**
 * Two CZs sharing qubit 1 between U3 columns: 12 pulses, so a depth-1
 * ansatz (CCZ 11, CZ 9) fits and a depth-2 one (CCZ 19, CZ 15) does
 * not. Across qubit 1 its coefficients are (2, 2) against CCZ's
 * (sqrt 6, sqrt 2), so CCZ's bound is ~0.034; each CZ try's is larger.
 */
Circuit
certifiedBlock()
{
    Circuit block(3);
    block.u3(0, 0.3, 0.1, 0.2);
    block.u3(1, 0.7, 0.4, 0.0);
    block.u3(2, 1.1, 0.0, 0.5);
    block.cz(0, 1);
    block.cz(1, 2);
    block.u3(0, 0.2, 0.9, 0.1);
    block.u3(1, 1.3, 0.2, 0.6);
    block.u3(2, 0.5, 0.8, 0.3);
    return block;
}

TEST(ComposeCertificate, SkipsASearchTheBoundRulesOut)
{
    const Circuit block = certifiedBlock();
    const Matrix target = circuitUnitary(block);
    for (const Entangler e : depthOneEntanglers(3))
        EXPECT_GT(depthOneHsdBound(target, e), 0.03);

    obs::EnabledScope scope(true);  // Counters only count while enabled.
    const obs::Counter &certified = obs::counter("compose.certified");
    for (const EntanglerMode mode :
         {EntanglerMode::PaperCcz, EntanglerMode::Extended}) {
        for (const ComposeOptimizer optimizer :
             {ComposeOptimizer::Rotosolve, ComposeOptimizer::DualAnnealing}) {
            ComposeOptions options;
            options.entanglerMode = mode;
            options.optimizer = optimizer;
            const long before = certified.value();
            const ComposeResult r = composeBlockWithSplits(block, options);
            EXPECT_EQ(certified.value() - before, 1);
            EXPECT_EQ(r.certified, 1);
            EXPECT_FALSE(r.composed);
            EXPECT_EQ(r.evaluations, 0);
            EXPECT_EQ(r.hsd, 0.0);
            ASSERT_EQ(r.circuit.size(), block.size());
            for (size_t i = 0; i < block.size(); ++i)
                EXPECT_EQ(r.circuit.gates()[i], block.gates()[i]);
        }
    }
}

TEST(ComposeCertificate, LeavesAComposableDepthOneBlockToTheSearch)
{
    // A native CCZ layer plus one spare U3: 12 pulses, only depth 1
    // fits, and the bound is ~0, so the search runs and composes.
    const Ansatz ansatz(3, 1);
    std::vector<double> angles(static_cast<size_t>(ansatz.numAngles()));
    for (size_t i = 0; i < angles.size(); ++i)
        angles[i] = 0.3 + 0.17 * static_cast<double>(i);
    Circuit block = ansatz.toCircuit(angles);
    block.u3(0, 0.4, 0.2, 0.1);
    EXPECT_LT(depthOneHsdBound(circuitUnitary(block), Entangler::Ccz), 1e-12);
    const ComposeResult r = composeBlock(block);
    EXPECT_EQ(r.certified, 0);
    EXPECT_TRUE(r.composed);
    EXPECT_EQ(r.layersUsed, 1);
    EXPECT_GT(r.evaluations, 0);
}

TEST(ComposeCertificate, CertifiedTable1BlocksStayAboveTheirBound)
{
    // Every distinct block of the ten Table-1 Geyser compiles whose
    // search the rule skips: no depth-2 try fits under its pulses, and a
    // depth-1 rotosolve from 32 starts stays above the bound, which is
    // above the threshold.
    std::vector<Circuit> candidates;
    std::unordered_set<ComposeKey, ComposeKeyHash> seen;
    for (const BenchmarkSpec &spec : benchmarkSuite()) {
        const CompileResult routed =
            transpileForTechnique(Technique::Geyser, spec.make());
        const BlockedCircuit blocked =
            blockCircuit(routed.physical, routed.topology, BlockerOptions{});
        for (const auto &round : blocked.rounds) {
            for (const Block &b : round.blocks) {
                Circuit local = blocked.localCircuit(b);
                if (seen.insert(composeKey(local, {})).second)
                    candidates.push_back(std::move(local));
            }
        }
    }
    // Every candidate's whole-block search, in parallel: composeBlock
    // reports whether the rule skipped it.
    std::vector<char> skipped(candidates.size(), 0);
    globalPool().parallelFor(static_cast<int>(candidates.size()), [&](int i) {
        const size_t k = static_cast<size_t>(i);
        skipped[k] = composeBlock(candidates[k]).certified == 1;
    });
    std::vector<Circuit> certified;
    for (size_t k = 0; k < candidates.size(); ++k)
        if (skipped[k])
            certified.push_back(candidates[k]);
    ASSERT_GT(certified.size(), 50u);

    Rng rng(47);
    for (const Circuit &block : certified) {
        const int n = block.numQubits();
        EXPECT_GE(Ansatz(n, 2).pulses(), block.totalPulses());
        const Matrix target = circuitUnitary(block);
        const double bound = depthOneHsdBound(target, Entangler::Ccz);
        EXPECT_GT(bound, kThreshold);
        const Ansatz ansatz(n, 1);
        double best = 1.0;
        for (int start = 0; start < 32; ++start) {
            std::vector<double> angles =
                rng.uniformVector(ansatz.numAngles(), 0.0, 2.0 * kPi);
            long evaluations = 0;
            best = std::min(best, rotosolve(ansatz, target, angles, 40,
                                            kThreshold, evaluations));
        }
        EXPECT_GE(best, bound - 1e-12);
    }
}

}  // namespace
}  // namespace geyser
