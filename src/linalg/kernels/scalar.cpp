/**
 * @file
 * The portable scalar backend: wires the reference implementations
 * from detail.hpp into a ComputeBackend table, and defines the
 * scalar-only contractW. Always compiled, on every architecture, with
 * no ISA-specific flags — this TU's copies of the detail kernels are
 * the 1e-12 reference every SIMD backend is property-tested against.
 */
#include "linalg/kernels/backend.hpp"
#include "linalg/kernels/detail.hpp"

namespace geyser {
namespace kernels {

const ComputeBackend &
scalarBackend()
{
    static const ComputeBackend backend = {
        "scalar",        matmulRef,   traceProductRef, apply2x2RowsRef,
        apply2x2ColsRef, flipRowsRef, flipColsRef,     foldWRef,
        svApply1qRef,    svApply2qRef,
    };
    return backend;
}

void
contractW(const double *wRe, const double *wIm, const double *uRe,
          const double *uIm, double *outRe, double *outIm)
{
    double tre = 0.0, tim = 0.0;
    for (int j = 0; j < 4; ++j) {
        tre += uRe[j] * wRe[j] - uIm[j] * wIm[j];
        tim += uRe[j] * wIm[j] + uIm[j] * wRe[j];
    }
    *outRe = tre;
    *outIm = tim;
}

}  // namespace kernels
}  // namespace geyser
