/**
 * @file
 * Pluggable SIMD compute backends for the composition and simulation
 * hot paths.
 *
 * Every split-complex inner loop that used to be hand-rolled in
 * compose/evaluator.cpp, compose/ansatz.cpp, and sim/statevector.cpp
 * now routes through one `ComputeBackend` — a table of free functions
 * over split-complex (SoA: separate re/im arrays) row-major buffers.
 * Three implementations are compiled in (host permitting):
 *
 *   scalar   portable reference loops, always available. This backend
 *            doubles as the correctness oracle: every other backend is
 *            property-tested against it to 1e-12, and the dense
 *            Ansatz::overlapTrace path is pinned to it so the oracle
 *            never moves when dispatch changes.
 *   avx2     256-bit AVX2+FMA kernels (4 doubles / lane group).
 *   avx512   512-bit AVX-512F/DQ/VL kernels (8 doubles / lane group).
 *
 * The active backend is chosen once, at first use, by CPUID runtime
 * dispatch (best compiled-in ISA the host supports), overridable with
 *
 *   GEYSER_BACKEND=scalar|avx2|avx512
 *
 * for debugging and CI. Requesting an ISA the host or build lacks
 * falls back down the chain (avx512 -> avx2 -> scalar); the requested
 * and resolved names are both observable (run reports, Prometheus
 * `geyser_backend_info`, geyserd `stats`). SIMD translation units are
 * compiled with per-file -m flags and are only ever entered through
 * the dispatch table after the CPUID check, so the default build runs
 * on any x86-64 host (and non-x86 builds compile the scalar backend
 * only).
 *
 * All kernels accept unaligned pointers (unaligned loads/stores
 * throughout), so callers may pass arbitrarily offset buffers; aligned
 * buffers are simply faster.
 */
#ifndef GEYSER_LINALG_KERNELS_BACKEND_HPP
#define GEYSER_LINALG_KERNELS_BACKEND_HPP

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace geyser {
namespace kernels {

/**
 * One compute backend: free functions over split-complex row-major
 * d x d buffers (plus two interleaved-complex statevector kernels).
 * Out buffers never alias inputs unless a function documents
 * otherwise. All functions tolerate unaligned pointers.
 */
struct ComputeBackend
{
    const char *name;

    /** out = a . b (d x d complex multiply; 8x8/16x16 are the hot dims). */
    void (*matmul)(const double *aRe, const double *aIm, const double *bRe,
                   const double *bIm, double *outRe, double *outIm, int d);

    /** Tr(a . b) = sum_{r,k} a(r,k) b(k,r). Requires d <= kMaxTraceDim. */
    void (*traceProduct)(const double *aRe, const double *aIm,
                         const double *bRe, const double *bIm, int d,
                         double *outRe, double *outIm);

    /**
     * M := (u on qubit `bit`) . M — the row-pair 2x2 update used to
     * apply one qubit of a U3 column from the left. `u` is a row-major
     * 2x2 (4 split entries); rows r0 / r0|bit are combined in place.
     */
    void (*apply2x2Rows)(double *re, double *im, const double *uRe,
                         const double *uIm, int bit, int d);

    /** M := M . (u on qubit `bit`) — the column-pair mirror. */
    void (*apply2x2Cols)(double *re, double *im, const double *uRe,
                         const double *uIm, int bit, int d);

    /** Negate rows r with (r & mask) == mask (diagonal entangler fold). */
    void (*flipRows)(double *re, double *im, int mask, int d);

    /** Negate columns c with (c & mask) == mask. */
    void (*flipCols)(double *re, double *im, int mask, int d);

    /**
     * Environment fold of the incremental evaluator:
     *
     *   W[a*2+b] = sum_{k_q=a, r_q=b} env(r,k) . prod_{p!=q} u3_p[k_p,r_p]
     *
     * over a dim x dim row-major env with dim = 1 << numQubits.
     * `u3Re`/`u3Im` index as [qubit][entry] (row-major 2x2 per qubit).
     * Writes the 4 split accumulators to wRe/wIm.
     */
    void (*foldW)(const double *envRe, const double *envIm,
                  const double (*u3Re)[4], const double (*u3Im)[4],
                  int numQubits, int qubit, double *wRe, double *wIm);

    /**
     * Batched probe contraction: out[i] = sum_j u3[i*4+j] . w[j] for
     * i in [0, count) — a contiguous SoA sweep over a rotosolve probe
     * group (the candidate U3s are packed count x 4, split).
     */
    void (*probeBatch)(const double *wRe, const double *wIm,
                       const double *u3Re, const double *u3Im, int count,
                       double *outRe, double *outIm);

    /**
     * Statevector one-qubit gate: amps (interleaved complex, length
     * dim) updated in place with the row-major 2x2 `u` on `qubit`.
     */
    void (*svApply1q)(Complex *amps, size_t dim, int qubit,
                      const Complex *u);

    /**
     * Statevector two-qubit gate: row-major 4x4 `u` applied on qubits
     * (q0, q1), q0 = matrix bit 0, q1 = matrix bit 1, q0 != q1 (any
     * order, unsorted).
     */
    void (*svApply2q)(Complex *amps, size_t dim, int q0, int q1,
                      const Complex *u);
};

/** traceProduct transposes its right operand on the stack; cap it. */
inline constexpr int kMaxTraceDim = 64;

/** One row of the availableBackends() listing. */
struct BackendInfo
{
    std::string name;
    bool compiled = false;   ///< TU built into this binary.
    bool supported = false;  ///< Host CPU can execute it.
    const ComputeBackend *backend = nullptr;  ///< Null unless usable.
};

/** The always-available portable reference backend. */
const ComputeBackend &scalarBackend();

/**
 * sum_i conj(t_i) u_i over n contiguous elements — the dagger-trace
 * contraction Tr(T^dagger U) for same-layout matrices (n = d*d). Scalar
 * only and outside the table: its one caller is the dense
 * Ansatz::overlapTrace oracle, which is pinned to the reference
 * arithmetic, so no dispatched path runs it.
 */
void traceConjDot(const double *tRe, const double *tIm, const double *uRe,
                  const double *uIm, size_t n, double *outRe, double *outIm);

/**
 * The reference oracle alias: fixed scalar implementations that dense
 * cross-check paths (Ansatz::overlapTrace) are pinned to, so the
 * oracle's arithmetic never changes when dispatch selects a SIMD
 * backend.
 */
inline const ComputeBackend &reference() { return scalarBackend(); }

/** Every known backend name, best first: avx512, avx2, scalar. */
std::vector<BackendInfo> availableBackends();

/**
 * The dispatched backend: resolved once at first use from
 * GEYSER_BACKEND or CPUID, then read lock-free. Thread-safe.
 */
const ComputeBackend &active();

/** Name of the active backend ("scalar", "avx2", "avx512"). */
const char *activeName();

/**
 * What was asked for: the GEYSER_BACKEND value at first resolution, or
 * "auto" when unset. May differ from activeName() after a fallback.
 */
const std::string &requestedName();

/**
 * Resolve a backend by name with the documented fallback chain
 * (avx512 -> avx2 -> scalar; unknown names resolve to the dispatch
 * default). Returns the backend that would actually run.
 */
const ComputeBackend &resolveBackend(const std::string &name);

/**
 * Force the active backend (tests / debugging). Returns false — and
 * activates the fallback — when the exact request cannot be honoured.
 * Not safe concurrently with in-flight compiles; intended for
 * single-threaded test sections via ScopedBackend.
 */
bool setActive(const std::string &name);

/** RAII backend override for tests; restores the previous backend. */
class ScopedBackend
{
  public:
    explicit ScopedBackend(const std::string &name);
    ~ScopedBackend();
    ScopedBackend(const ScopedBackend &) = delete;
    ScopedBackend &operator=(const ScopedBackend &) = delete;

    /** True if the exact named backend was activated (no fallback). */
    bool honoured() const { return honoured_; }

  private:
    const ComputeBackend *previous_;
    bool honoured_;
};

/**
 * Shared U3 entry builder (row-major 2x2, split):
 *
 *   [ cos(th/2)            , -e^{i la} sin(th/2)      ]
 *   [ e^{i ph} sin(th/2)   ,  e^{i (ph+la)} cos(th/2) ]
 *
 * The one definition the evaluator, the dense oracle, and the
 * transpile layer's matrix builder agree on.
 */
inline void
u3Entries(double theta, double phi, double lambda, double *re, double *im)
{
    const double c = std::cos(theta / 2.0), s = std::sin(theta / 2.0);
    const double cp = std::cos(phi), sp = std::sin(phi);
    const double cl = std::cos(lambda), sl = std::sin(lambda);
    re[0] = c;
    im[0] = 0.0;
    re[1] = -cl * s;
    im[1] = -sl * s;
    re[2] = cp * s;
    im[2] = sp * s;
    re[3] = (cp * cl - sp * sl) * c;
    im[3] = (cp * sl + sp * cl) * c;
}

/**
 * Same U3 entries from precomputed trig values (cos/sin of th/2, ph,
 * la) — the evaluator's probe path caches the two fixed roles' trig
 * and only recomputes the varied role's.
 */
inline void
u3EntriesFromTrig(double c, double s, double cp, double sp, double cl,
                  double sl, double *re, double *im)
{
    re[0] = c;
    im[0] = 0.0;
    re[1] = -cl * s;
    im[1] = -sl * s;
    re[2] = cp * s;
    im[2] = sp * s;
    re[3] = (cp * cl - sp * sl) * c;
    im[3] = (cp * sl + sp * cl) * c;
}

}  // namespace kernels
}  // namespace geyser

#endif  // GEYSER_LINALG_KERNELS_BACKEND_HPP
