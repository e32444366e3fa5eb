/**
 * @file
 * Pluggable SIMD compute backends for the composition and simulation
 * hot paths.
 *
 * The inner loops of the two hot paths, the incremental composition
 * objective (compose/evaluator.cpp) and the statevector simulator
 * (sim/statevector.cpp), route through one `ComputeBackend` — a table
 * of three free functions: the row- and column-pair 2x2 updates that
 * advance the evaluator's column environment over split-complex (SoA:
 * separate re/im arrays) row-major buffers, and the one-qubit
 * statevector gate. A kernel enters the table only when a hot loop
 * dispatches it and its SIMD copy beats the scalar loop on a
 * workload; the rest (contractW, contractQubit, flipRows, flipCols,
 * svApply2q) are plain scalar functions with one arithmetic on every
 * backend. Three implementations are compiled in (host permitting):
 *
 *   scalar   portable reference loops, always available. Every other
 *            backend is property-tested against it to 1e-12. The dense
 *            oracle that the composition objective is checked against
 *            (verify::overlapTrace of Ansatz::unitary) lives outside
 *            this layer and shares no arithmetic with it, so the
 *            oracle never moves when dispatch changes.
 *   avx2     256-bit AVX2+FMA: the kernels of simd.hpp at 4 doubles
 *            per vector.
 *   avx512   512-bit AVX-512F/DQ/VL: the same kernels at 8 doubles
 *            per vector.
 *
 * The two SIMD backends instantiate one source, and every output
 * element has one expression on every path and width, so they compute
 * the same bits; scalar differs from them by FMA contraction only.
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
 * d x d buffers (plus one interleaved-complex statevector kernel).
 * Out buffers never alias inputs unless a function documents
 * otherwise. All functions tolerate unaligned pointers.
 */
struct ComputeBackend
{
    const char *name;

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

    /**
     * Statevector one-qubit gate: amps (interleaved complex, length
     * dim) updated in place with the row-major 2x2 `u` on `qubit`.
     */
    void (*svApply1q)(Complex *amps, size_t dim, int qubit,
                      const Complex *u);
};

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
 * sum_j u[j] . w[j] over the 4 entries of a row-major 2x2: the trace of
 * the incremental evaluator with one qubit's U3 set to `u` against that
 * qubit's fold W. Scalar only and outside the table: it runs once per
 * environment update, so its arithmetic is the same on every backend.
 */
void contractW(const double *wRe, const double *wIm, const double *uRe,
               const double *uIm, double *outRe, double *outIm);

/**
 * Contract one qubit out of a split dim x dim row-major matrix `in`:
 *
 *   out(r, k) = sum_{x,y in {0,1}} in(r|bit=y, k|bit=x) . u[x*2+y]
 *
 * where r|bit=y re-inserts bit `bit` with value y into the
 * (dim/2)-range index r; `out` is (dim/2) x (dim/2) and must not alias
 * `in`. Contracting every qubit but q out of the evaluator's column
 * environment, each with its current U3, leaves W_q transposed. Scalar
 * only and outside the table: a 3-qubit column takes ~180 complex
 * multiply-adds in all, too few for gathers and horizontal sums to pay.
 */
void contractQubit(const double *inRe, const double *inIm, int dim, int bit,
                   const double *uRe, const double *uIm, double *outRe,
                   double *outIm);

/**
 * Negate rows r with (r & mask) == mask of a d x d split matrix (the
 * evaluator's diagonal entangler fold). Scalar only and outside the
 * table: negation is exact, so a SIMD copy could only match these bits.
 */
void flipRows(double *re, double *im, int mask, int d);

/** Negate columns c with (c & mask) == mask. */
void flipCols(double *re, double *im, int mask, int d);

/**
 * Statevector two-qubit gate: row-major 4x4 `u` applied in place on
 * storage bits (q0, q1), q0 = matrix bit 0, q1 = matrix bit 1, q0 != q1
 * (any order, unsorted). Scalar only and outside the table: only dense
 * two-qubit logical gates (CX, CP, RZZ, RXX, RYY, SWAP) reach it, so it
 * runs for ideal reference distributions and never in a trajectory.
 */
void svApply2q(Complex *amps, size_t dim, int q0, int q1, const Complex *u);

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
 * The evaluator's U3 entries (row-major 2x2, split):
 *
 *   [ cos(th/2)            , -e^{i la} sin(th/2)      ]
 *   [ e^{i ph} sin(th/2)   ,  e^{i (ph+la)} cos(th/2) ]
 *
 * The same matrix as u3Matrix (circuit/gate.hpp), which Ansatz::unitary
 * and the transpile layer build from, up to rounding: this one takes
 * cos/sin of each angle where u3Matrix takes std::exp.
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

}  // namespace kernels
}  // namespace geyser

#endif  // GEYSER_LINALG_KERNELS_BACKEND_HPP
