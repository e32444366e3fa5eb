/**
 * @file
 * The portable scalar backend: wires the reference implementations
 * from detail.hpp into a ComputeBackend table, and defines the
 * scalar-only kernels that stay outside the table (contractW, flipRows,
 * flipCols, svApply2q). Always compiled, on every architecture, with
 * no ISA-specific flags — this TU's copies of the detail kernels are
 * the 1e-12 reference every SIMD backend is property-tested against,
 * and the scalar-only kernels have this one arithmetic on every
 * backend.
 */
#include "linalg/kernels/backend.hpp"
#include "linalg/kernels/detail.hpp"

namespace geyser {
namespace kernels {

const ComputeBackend &
scalarBackend()
{
    static const ComputeBackend backend = {
        "scalar",        matmulRef, traceProductRef, apply2x2RowsRef,
        apply2x2ColsRef, foldWRef,  svApply1qRef,
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

void
flipRows(double *re, double *im, int mask, int d)
{
    for (int r = 0; r < d; ++r) {
        if ((r & mask) != mask)
            continue;
        for (int c = 0; c < d; ++c) {
            re[r * d + c] = -re[r * d + c];
            im[r * d + c] = -im[r * d + c];
        }
    }
}

void
flipCols(double *re, double *im, int mask, int d)
{
    for (int c = 0; c < d; ++c) {
        if ((c & mask) != mask)
            continue;
        for (int r = 0; r < d; ++r) {
            re[r * d + c] = -re[r * d + c];
            im[r * d + c] = -im[r * d + c];
        }
    }
}

void
svApply2q(Complex *amps, size_t dim, int q0, int q1, const Complex *u)
{
    const size_t m0 = size_t{1} << q0, m1 = size_t{1} << q1;
    const size_t lo = m0 < m1 ? m0 : m1;
    const size_t hi = m0 < m1 ? m1 : m0;
    for (size_t h = 0; h < dim; h += 2 * hi) {
        for (size_t m = h; m < h + hi; m += 2 * lo) {
            for (size_t base = m; base < m + lo; ++base) {
                const Complex x0 = amps[base];
                const Complex x1 = amps[base + m0];
                const Complex x2 = amps[base + m1];
                const Complex x3 = amps[base + m0 + m1];
                amps[base] = u[0] * x0 + u[1] * x1 + u[2] * x2 + u[3] * x3;
                amps[base + m0] =
                    u[4] * x0 + u[5] * x1 + u[6] * x2 + u[7] * x3;
                amps[base + m1] =
                    u[8] * x0 + u[9] * x1 + u[10] * x2 + u[11] * x3;
                amps[base + m0 + m1] =
                    u[12] * x0 + u[13] * x1 + u[14] * x2 + u[15] * x3;
            }
        }
    }
}

}  // namespace kernels
}  // namespace geyser
