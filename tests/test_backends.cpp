/**
 * @file
 * Cross-backend parity property suite for the SIMD compute backends
 * (src/linalg/kernels): every compiled-in backend the host can execute
 * must match the scalar reference to 1e-12 on randomized inputs —
 * including unaligned buffers (offset pointers; every kernel documents
 * unaligned tolerance), every pair bit of d = 2/4/8/16 and every
 * statevector width up to 6 qubits — and the SIMD backends must match
 * each other bit for bit. Runs under Sanitize like the rest of the
 * suite, so overreads in a backend show up as ASan faults here.
 *
 * Also covers the dispatch surface: availableBackends() structure,
 * the avx512 -> avx2 -> scalar fallback chain, ScopedBackend
 * save/restore, the independence of the dense oracle and of the
 * scalar-only two-qubit statevector gate from the active backend, and
 * the full evaluator-vs-dense-oracle cross-check
 * (verify/kernel_check) once per backend.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "circuit/gate.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "compose/ansatz.hpp"
#include "linalg/kernels/backend.hpp"
#include "sim/statevector.hpp"
#include "verify/equivalence.hpp"
#include "verify/kernel_check.hpp"

namespace {

using namespace geyser;
using kernels::ComputeBackend;

constexpr double kTol = 1e-12;

/** Usable non-scalar backends (compiled in AND host-supported). */
std::vector<const ComputeBackend *>
simdBackends()
{
    std::vector<const ComputeBackend *> out;
    for (const auto &info : kernels::availableBackends())
        if (info.backend != nullptr && info.name != "scalar")
            out.push_back(info.backend);
    return out;
}

/**
 * Random split buffer with a deliberate misalignment: the returned
 * pointer is `offset` doubles past the allocation start, so a 64-byte
 * aligned vector yields an 8-byte aligned (SIMD-unaligned) pointer.
 */
struct OffsetBuf
{
    std::vector<double> storage;
    double *p = nullptr;

    OffsetBuf(Rng &rng, size_t n, size_t offset)
        : storage(n + offset)
    {
        for (auto &v : storage)
            v = rng.uniform(-1.0, 1.0);
        p = storage.data() + offset;
    }
};

/** Max |a_i - b_i|; NaN if any difference is NaN, so EXPECT_LT fails
 *  on a NaN output instead of reading it as a 0 difference. */
double
maxAbsDiff(const double *a, const double *b, size_t n)
{
    double m = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const double d = std::abs(a[i] - b[i]);
        m = std::isnan(d) || d > m ? d : m;
    }
    return m;
}

TEST(BackendDispatch, AvailableBackendsListsAllThreeBestFirst)
{
    const auto backends = kernels::availableBackends();
    ASSERT_EQ(backends.size(), 3u);
    EXPECT_EQ(backends[0].name, "avx512");
    EXPECT_EQ(backends[1].name, "avx2");
    EXPECT_EQ(backends[2].name, "scalar");
    // Scalar is unconditional.
    EXPECT_TRUE(backends[2].compiled);
    EXPECT_TRUE(backends[2].supported);
    ASSERT_NE(backends[2].backend, nullptr);
    EXPECT_STREQ(backends[2].backend->name, "scalar");
    for (const auto &info : backends) {
        // usable <=> compiled && supported.
        EXPECT_EQ(info.backend != nullptr, info.compiled && info.supported)
            << info.name;
        if (info.backend != nullptr) {
            EXPECT_EQ(info.name, info.backend->name);
        }
    }
}

TEST(BackendDispatch, ActiveIsOneOfTheUsableBackends)
{
    const ComputeBackend &active = kernels::active();
    bool found = false;
    for (const auto &info : kernels::availableBackends())
        if (info.backend == &active)
            found = true;
    EXPECT_TRUE(found);
    EXPECT_STREQ(kernels::activeName(), active.name);
}

TEST(BackendDispatch, ResolveFallsDownTheChain)
{
    // Scalar always resolves to itself.
    EXPECT_STREQ(kernels::resolveBackend("scalar").name, "scalar");
    // avx512 resolves to avx512, else avx2, else scalar — never up.
    const std::string got512 = kernels::resolveBackend("avx512").name;
    const std::string got2 = kernels::resolveBackend("avx2").name;
    EXPECT_TRUE(got512 == "avx512" || got512 == "avx2" || got512 == "scalar");
    EXPECT_TRUE(got2 == "avx2" || got2 == "scalar");
    // If avx2 is usable, requesting avx512 never lands below avx2.
    for (const auto &info : kernels::availableBackends()) {
        if (info.name == "avx2" && info.backend != nullptr) {
            EXPECT_NE(got512, "scalar");
        }
    }
}

TEST(BackendDispatch, ScopedBackendOverridesAndRestores)
{
    const std::string before = kernels::activeName();
    {
        kernels::ScopedBackend scoped("scalar");
        EXPECT_TRUE(scoped.honoured());
        EXPECT_STREQ(kernels::activeName(), "scalar");
    }
    EXPECT_EQ(kernels::activeName(), before);
    {
        // Unknown names resolve to the dispatch default (documented as
        // honoured — there was no specific request to miss).
        kernels::ScopedBackend scoped("no-such-isa");
        EXPECT_TRUE(scoped.honoured());
        const std::string fallback = kernels::activeName();
        bool usable = false;
        for (const auto &info : kernels::availableBackends())
            if (info.backend != nullptr && info.name == fallback)
                usable = true;
        EXPECT_TRUE(usable) << fallback;
    }
    EXPECT_EQ(kernels::activeName(), before);
}

/** FNV-1a, continued from `h`, over `bytes` bytes at `data`. */
uint64_t
hashBytes(uint64_t h, const void *data, size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

TEST(BackendDispatch, DenseOracleIsTheSameOnEveryBackend)
{
    // The dense oracle of the composition objective,
    // verify::overlapTrace(target, Ansatz::unitary(angles)), enters no
    // compute backend, so its bits must not depend on which one is
    // active. Depth-3 ansatze at fixed angles make every product dense.
    auto oracleHash = [] {
        uint64_t h = 14695981039346656037ull;
        for (int numQubits = 2; numQubits <= 4; ++numQubits) {
            const Ansatz ansatz(numQubits, 3);
            std::vector<double> angles(
                static_cast<size_t>(ansatz.numAngles()));
            std::vector<double> other(angles.size());
            for (size_t i = 0; i < angles.size(); ++i) {
                angles[i] = 0.1 + 0.37 * static_cast<double>(i);
                other[i] = 2.9 - 0.23 * static_cast<double>(i);
            }
            const Matrix u = ansatz.unitary(angles);
            h = hashBytes(h, u.data().data(),
                          u.data().size() * sizeof(Complex));
            const Complex t =
                verify::overlapTrace(ansatz.unitary(other), u);
            h = hashBytes(h, &t, sizeof(t));
        }
        return h;
    };
    std::vector<std::pair<std::string, uint64_t>> hashes;
    for (const auto &info : kernels::availableBackends()) {
        if (info.backend == nullptr)
            continue;
        kernels::ScopedBackend scoped(info.name);
        ASSERT_TRUE(scoped.honoured()) << info.name;
        hashes.emplace_back(info.name, oracleHash());
    }
    // availableBackends() lists scalar last.
    for (const auto &[name, h] : hashes)
        EXPECT_EQ(h, hashes.back().second) << name << " vs scalar";
}

TEST(BackendDispatch, TwoQubitGatesAreTheSameOnEveryBackend)
{
    // Dense two-qubit logical gates run kernels::svApply2q, which is
    // outside the table, so the ideal distribution of a logical program
    // must not depend on which backend is active. X gates (exact swaps)
    // prepare the state; every lower operand is >= 2, where a SIMD
    // statevector kernel would fill whole vectors.
    auto stateHash = [] {
        StateVector sv(6);
        sv.applyX(2);
        sv.applyX(4);
        const std::pair<Qubit, Qubit> pairs[] = {
            {2, 3}, {5, 2}, {3, 4}, {4, 2}, {5, 3}, {4, 5}};
        const GateKind kinds[] = {GateKind::CX,  GateKind::CP,
                                  GateKind::RZZ, GateKind::RXX,
                                  GateKind::RYY, GateKind::SWAP};
        double angle = 0.3;
        for (const auto &[a, b] : pairs) {
            for (const GateKind kind : kinds) {
                sv.apply(Gate(kind, a, b, angle));
                angle += 0.41;
            }
        }
        const auto &amps = sv.amplitudes();
        return hashBytes(14695981039346656037ull, amps.data(),
                         amps.size() * sizeof(Complex));
    };
    std::vector<std::pair<std::string, uint64_t>> hashes;
    for (const auto &info : kernels::availableBackends()) {
        if (info.backend == nullptr)
            continue;
        kernels::ScopedBackend scoped(info.name);
        ASSERT_TRUE(scoped.honoured()) << info.name;
        hashes.emplace_back(info.name, stateHash());
    }
    for (const auto &[name, h] : hashes)
        EXPECT_EQ(h, hashes.back().second) << name << " vs scalar";
}

/** True when n doubles at a and b are the same bits. */
bool
sameBits(const void *a, const void *b, size_t n)
{
    return std::memcmp(a, b, n * sizeof(double)) == 0;
}

TEST(BackendParity, Apply2x2RowsAndCols)
{
    // Each usable SIMD backend matches scalar to 1e-12 and the first
    // SIMD backend bit for bit: both instantiate one source
    // (simd.hpp), in which every path computes an output element with
    // one expression.
    Rng rng(2027);
    const auto backends = simdBackends();
    for (const int d : {2, 4, 8, 16}) {
        for (int bit = 1; bit < d; bit <<= 1) {
            for (const size_t offset : {size_t{0}, size_t{1}, size_t{3}}) {
                const size_t n = static_cast<size_t>(d) * d;
                const OffsetBuf re(rng, n, offset), im(rng, n, offset);
                double uRe[4], uIm[4];
                for (int i = 0; i < 4; ++i) {
                    uRe[i] = rng.uniform(-1.0, 1.0);
                    uIm[i] = rng.uniform(-1.0, 1.0);
                }
                std::vector<double> rowsRe(re.p, re.p + n);
                std::vector<double> rowsIm(im.p, im.p + n);
                kernels::scalarBackend().apply2x2Rows(
                    rowsRe.data(), rowsIm.data(), uRe, uIm, bit, d);
                std::vector<double> colsRe = rowsRe, colsIm = rowsIm;
                kernels::scalarBackend().apply2x2Cols(
                    colsRe.data(), colsIm.data(), uRe, uIm, bit, d);

                // The first SIMD backend's storage after each kernel.
                std::vector<double> firstRows, firstCols;
                for (const ComputeBackend *backend : backends) {
                    // Copies keep the misalignment.
                    std::vector<double> gotRe = re.storage;
                    std::vector<double> gotIm = im.storage;
                    double *pRe = gotRe.data() + offset;
                    double *pIm = gotIm.data() + offset;
                    backend->apply2x2Rows(pRe, pIm, uRe, uIm, bit, d);
                    EXPECT_LT(maxAbsDiff(rowsRe.data(), pRe, n), kTol)
                        << backend->name << " apply2x2Rows d=" << d
                        << " bit=" << bit << " offset=" << offset;
                    EXPECT_LT(maxAbsDiff(rowsIm.data(), pIm, n), kTol);
                    std::vector<double> rows = gotRe;
                    rows.insert(rows.end(), gotIm.begin(), gotIm.end());

                    backend->apply2x2Cols(pRe, pIm, uRe, uIm, bit, d);
                    EXPECT_LT(maxAbsDiff(colsRe.data(), pRe, n), kTol)
                        << backend->name << " apply2x2Cols d=" << d
                        << " bit=" << bit << " offset=" << offset;
                    EXPECT_LT(maxAbsDiff(colsIm.data(), pIm, n), kTol);
                    std::vector<double> cols = gotRe;
                    cols.insert(cols.end(), gotIm.begin(), gotIm.end());

                    if (backend == backends.front()) {
                        firstRows = rows;
                        firstCols = cols;
                        continue;
                    }
                    EXPECT_TRUE(sameBits(rows.data(), firstRows.data(),
                                         rows.size()))
                        << backend->name << " vs " << backends.front()->name
                        << " apply2x2Rows d=" << d << " bit=" << bit
                        << " offset=" << offset;
                    EXPECT_TRUE(sameBits(cols.data(), firstCols.data(),
                                         cols.size()))
                        << backend->name << " vs " << backends.front()->name
                        << " apply2x2Cols d=" << d << " bit=" << bit
                        << " offset=" << offset;
                }
            }
        }
    }
}

TEST(BackendParity, StatevectorKernels)
{
    // svApply1q as above: scalar to 1e-12, the first SIMD backend bit
    // for bit.
    Rng rng(2031);
    const auto backends = simdBackends();
    for (int numQubits = 1; numQubits <= 6; ++numQubits) {
        const size_t dim = size_t{1} << numQubits;
        std::vector<Complex> base(dim);
        for (auto &a : base)
            a = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};

        Complex u1[4];
        for (auto &v : u1)
            v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
        for (int q = 0; q < numQubits; ++q) {
            std::vector<Complex> ref = base, first;
            kernels::scalarBackend().svApply1q(ref.data(), dim, q, u1);
            for (const ComputeBackend *backend : backends) {
                std::vector<Complex> got = base;
                backend->svApply1q(got.data(), dim, q, u1);
                for (size_t i = 0; i < dim; ++i)
                    EXPECT_LT(std::abs(ref[i] - got[i]), kTol)
                        << backend->name << " svApply1q n=" << numQubits
                        << " q=" << q;
                if (backend == backends.front()) {
                    first = got;
                    continue;
                }
                EXPECT_TRUE(sameBits(got.data(), first.data(), 2 * dim))
                    << backend->name << " vs " << backends.front()->name
                    << " svApply1q n=" << numQubits << " q=" << q;
            }
        }
    }
}

/** Randomized ansatz shapes/angles, full evaluator vs the dense oracle
 *  (which enters no backend) once per usable backend. */
TEST(BackendParity, EvaluatorMatchesDenseOracleOnEveryBackend)
{
    for (const auto &info : kernels::availableBackends()) {
        if (info.backend == nullptr)
            continue;
        kernels::ScopedBackend scoped(info.name);
        ASSERT_TRUE(scoped.honoured()) << info.name;
        verify::KernelCheckOptions options;
        options.trials = 6;
        options.seed = 777;
        const auto report = verify::checkComposeKernel(options);
        EXPECT_TRUE(report.pass)
            << info.name << ": " << report.detail;
        EXPECT_LT(report.maxDeviation, options.tolerance) << info.name;
    }
}

}  // namespace
