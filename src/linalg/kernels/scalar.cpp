/**
 * @file
 * The portable scalar backend: wires the reference implementations
 * from detail.hpp into a ComputeBackend table, and defines the
 * scalar-only traceConjDot. Always compiled, on every architecture,
 * with no ISA-specific flags — this TU's copies of the detail kernels
 * are the 1e-12 oracle every SIMD backend is property-tested against.
 */
#include "linalg/kernels/backend.hpp"
#include "linalg/kernels/detail.hpp"

namespace geyser {
namespace kernels {

const ComputeBackend &
scalarBackend()
{
    static const ComputeBackend backend = {
        "scalar",        matmulRef,    traceProductRef, apply2x2RowsRef,
        apply2x2ColsRef, flipRowsRef,  flipColsRef,     foldWRef,
        probeBatchRef,   svApply1qRef, svApply2qRef,
    };
    return backend;
}

void
traceConjDot(const double *tRe, const double *tIm, const double *uRe,
             const double *uIm, size_t n, double *outRe, double *outIm)
{
    double tre = 0.0, tim = 0.0;
    for (size_t i = 0; i < n; ++i) {
        tre += tRe[i] * uRe[i] + tIm[i] * uIm[i];
        tim += tRe[i] * uIm[i] - tIm[i] * uRe[i];
    }
    *outRe = tre;
    *outIm = tim;
}

}  // namespace kernels
}  // namespace geyser
