/**
 * @file
 * The portable scalar backend: the reference loops of the three table
 * kernels, and the scalar-only kernels that stay outside the table
 * (contractW, contractQubit, flipRows, flipCols, svApply2q). Always
 * compiled, on every architecture, with no ISA-specific flags: the
 * table loops are the 1e-12 reference every SIMD backend is
 * property-tested against, and the scalar-only kernels have this one
 * arithmetic on every backend.
 */
#include "linalg/kernels/backend.hpp"

namespace geyser {
namespace kernels {
namespace {

/** M := (u on qubit bit) . M — row-pair 2x2 update. */
void
apply2x2RowsRef(double *re, double *im, const double *uRe,
                const double *uIm, int bit, int d)
{
    for (int r0 = 0; r0 < d; ++r0) {
        if (r0 & bit)
            continue;
        const int r1 = r0 | bit;
        for (int c = 0; c < d; ++c) {
            const double are = re[r0 * d + c], aim = im[r0 * d + c];
            const double bre = re[r1 * d + c], bim = im[r1 * d + c];
            re[r0 * d + c] =
                uRe[0] * are - uIm[0] * aim + uRe[1] * bre - uIm[1] * bim;
            im[r0 * d + c] =
                uRe[0] * aim + uIm[0] * are + uRe[1] * bim + uIm[1] * bre;
            re[r1 * d + c] =
                uRe[2] * are - uIm[2] * aim + uRe[3] * bre - uIm[3] * bim;
            im[r1 * d + c] =
                uRe[2] * aim + uIm[2] * are + uRe[3] * bim + uIm[3] * bre;
        }
    }
}

/** M := M . (u on qubit bit) — column-pair 2x2 update. */
void
apply2x2ColsRef(double *re, double *im, const double *uRe,
                const double *uIm, int bit, int d)
{
    for (int c0 = 0; c0 < d; ++c0) {
        if (c0 & bit)
            continue;
        const int c1 = c0 | bit;
        for (int r = 0; r < d; ++r) {
            const double are = re[r * d + c0], aim = im[r * d + c0];
            const double bre = re[r * d + c1], bim = im[r * d + c1];
            re[r * d + c0] =
                are * uRe[0] - aim * uIm[0] + bre * uRe[2] - bim * uIm[2];
            im[r * d + c0] =
                are * uIm[0] + aim * uRe[0] + bre * uIm[2] + bim * uRe[2];
            re[r * d + c1] =
                are * uRe[1] - aim * uIm[1] + bre * uRe[3] - bim * uIm[3];
            im[r * d + c1] =
                are * uIm[1] + aim * uRe[1] + bre * uIm[3] + bim * uRe[3];
        }
    }
}

/** Statevector 1-qubit gate, interleaved complex. */
void
svApply1qRef(Complex *amps, size_t dim, int qubit, const Complex *u)
{
    const size_t mask = size_t{1} << qubit;
    for (size_t base = 0; base < dim; base += 2 * mask) {
        for (size_t off = 0; off < mask; ++off) {
            const size_t i0 = base + off, i1 = i0 | mask;
            const Complex a0 = amps[i0], a1 = amps[i1];
            amps[i0] = u[0] * a0 + u[1] * a1;
            amps[i1] = u[2] * a0 + u[3] * a1;
        }
    }
}

}  // namespace

const ComputeBackend &
scalarBackend()
{
    static const ComputeBackend backend = {
        "scalar",
        apply2x2RowsRef,
        apply2x2ColsRef,
        svApply1qRef,
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
contractQubit(const double *inRe, const double *inIm, int dim, int bit,
              const double *uRe, const double *uIm, double *outRe,
              double *outIm)
{
    const int half = dim / 2;
    const int mask = 1 << bit, low = mask - 1;
    // u[x * 2 + y] meets the entries whose column bit is x and whose row
    // bit is y. Locals, so stores to `out` cannot force reloads.
    const double u0r = uRe[0], u0i = uIm[0], u1r = uRe[1], u1i = uIm[1];
    const double u2r = uRe[2], u2i = uIm[2], u3r = uRe[3], u3i = uIm[3];
    for (int r = 0; r < half; ++r) {
        // The rows of `in` whose bit is 0 (x) and 1 (y).
        const int r0 = ((r & ~low) << 1) | (r & low);
        const double *xRe = inRe + r0 * dim, *xIm = inIm + r0 * dim;
        const double *yRe = xRe + mask * dim, *yIm = xIm + mask * dim;
        for (int k = 0; k < half; ++k) {
            const int k0 = ((k & ~low) << 1) | (k & low), k1 = k0 | mask;
            double sre = u0r * xRe[k0] - u0i * xIm[k0];
            double sim = u0r * xIm[k0] + u0i * xRe[k0];
            sre += u1r * yRe[k0] - u1i * yIm[k0];
            sim += u1r * yIm[k0] + u1i * yRe[k0];
            sre += u2r * xRe[k1] - u2i * xIm[k1];
            sim += u2r * xIm[k1] + u2i * xRe[k1];
            sre += u3r * yRe[k1] - u3i * yIm[k1];
            sim += u3r * yIm[k1] + u3i * yRe[k1];
            outRe[r * half + k] = sre;
            outIm[r * half + k] = sim;
        }
    }
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
