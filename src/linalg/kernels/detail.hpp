/**
 * @file
 * Portable reference implementations of every ComputeBackend kernel,
 * shared by the scalar backend and used as tail/small-dim fallbacks by
 * the SIMD translation units.
 *
 * Everything here lives in an ANONYMOUS namespace on purpose: each
 * backend TU is compiled with different -m flags, and a plain `inline`
 * function in a header would be emitted as one mergeable COMDAT — the
 * linker could keep the copy compiled with AVX-512 flags and hand it
 * to the scalar backend, crashing non-AVX hosts. Internal linkage
 * forces a private, correctly-flagged copy per TU. The functions are
 * still marked `inline` so unused copies don't warn.
 */
#ifndef GEYSER_LINALG_KERNELS_DETAIL_HPP
#define GEYSER_LINALG_KERNELS_DETAIL_HPP

#include <cstddef>

#include "common/types.hpp"

namespace geyser {
namespace kernels {
namespace {

/** M := (u on qubit bit) . M — row-pair 2x2 update. */
inline void
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
inline void
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
inline void
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
}  // namespace kernels
}  // namespace geyser

#endif  // GEYSER_LINALG_KERNELS_DETAIL_HPP
