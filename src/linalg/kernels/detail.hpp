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

/** Largest sub-dimension buildKronColumn/foldW stack buffers support. */
inline constexpr int kDetailMaxDim = 16;

/** out = a . b, d x d split-complex row-major. */
inline void
matmulRef(const double *aRe, const double *aIm, const double *bRe,
          const double *bIm, double *outRe, double *outIm, int d)
{
    for (int r = 0; r < d; ++r) {
        for (int c = 0; c < d; ++c) {
            double sre = 0.0, sim = 0.0;
            for (int k = 0; k < d; ++k) {
                const double xre = aRe[r * d + k], xim = aIm[r * d + k];
                const double yre = bRe[k * d + c], yim = bIm[k * d + c];
                sre += xre * yre - xim * yim;
                sim += xre * yim + xim * yre;
            }
            outRe[r * d + c] = sre;
            outIm[r * d + c] = sim;
        }
    }
}

/** Tr(a . b) = sum_{r,k} a(r,k) b(k,r). */
inline void
traceProductRef(const double *aRe, const double *aIm, const double *bRe,
                const double *bIm, int d, double *outRe, double *outIm)
{
    double tre = 0.0, tim = 0.0;
    for (int r = 0; r < d; ++r) {
        for (int k = 0; k < d; ++k) {
            const double xre = aRe[r * d + k], xim = aIm[r * d + k];
            const double yre = bRe[k * d + r], yim = bIm[k * d + r];
            tre += xre * yre - xim * yim;
            tim += xre * yim + xim * yre;
        }
    }
    *outRe = tre;
    *outIm = tim;
}

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

inline void
flipRowsRef(double *re, double *im, int mask, int d)
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

inline void
flipColsRef(double *re, double *im, int mask, int d)
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

/**
 * Direct O(dim^2 n) environment fold — the readable reference. SIMD
 * backends use the algebraically different reduced-Kronecker route
 * below; the cross-backend parity suite pins the two to 1e-12.
 */
inline void
foldWRef(const double *envRe, const double *envIm, const double (*u3Re)[4],
         const double (*u3Im)[4], int numQubits, int qubit, double *wRe,
         double *wIm)
{
    const int d = 1 << numQubits;
    for (int i = 0; i < 4; ++i) {
        wRe[i] = 0.0;
        wIm[i] = 0.0;
    }
    for (int k = 0; k < d; ++k) {
        for (int r = 0; r < d; ++r) {
            double fre = 1.0, fim = 0.0;
            for (int p = 0; p < numQubits; ++p) {
                if (p == qubit)
                    continue;
                const int e = ((k >> p) & 1) * 2 + ((r >> p) & 1);
                const double ure = u3Re[p][e];
                const double uim = u3Im[p][e];
                const double nre = fre * ure - fim * uim;
                fim = fre * uim + fim * ure;
                fre = nre;
            }
            const double ere = envRe[r * d + k], eim = envIm[r * d + k];
            const int idx = ((k >> qubit) & 1) * 2 + ((r >> qubit) & 1);
            wRe[idx] += fre * ere - fim * eim;
            wIm[idx] += fre * eim + fim * ere;
        }
    }
}

/** out[i] = sum_j u3[i*4+j] . w[j]. */
inline void
probeBatchRef(const double *wRe, const double *wIm, const double *u3Re,
              const double *u3Im, int count, double *outRe, double *outIm)
{
    for (int i = 0; i < count; ++i) {
        double tre = 0.0, tim = 0.0;
        for (int j = 0; j < 4; ++j) {
            const double ure = u3Re[i * 4 + j], uim = u3Im[i * 4 + j];
            tre += ure * wRe[j] - uim * wIm[j];
            tim += ure * wIm[j] + uim * wRe[j];
        }
        outRe[i] = tre;
        outIm[i] = tim;
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

/** Statevector 2-qubit gate; matrix bit 0 = q0, bit 1 = q1. */
inline void
svApply2qRef(Complex *amps, size_t dim, int q0, int q1, const Complex *u)
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

/**
 * Kronecker column build (see backend.hpp docs for the convention):
 * out(r, k) = prod_{p != skipQubit} u3_p[r_p * 2 + k_p], built by
 * in-place progressive doubling. Descending destination order is
 * alias-safe: every source cell (rr*d + kk) is <= the smallest
 * destination that reads it (rr*2d + kk).
 */
inline void
buildKronColumn(const double (*u3Re)[4], const double (*u3Im)[4],
                int numQubits, int skipQubit, double *outRe, double *outIm,
                int *outDim)
{
    outRe[0] = 1.0;
    outIm[0] = 0.0;
    int d = 1;
    for (int p = 0; p < numQubits; ++p) {
        if (p == skipQubit)
            continue;
        const double *ure = u3Re[p], *uim = u3Im[p];
        const int d2 = 2 * d;
        for (int row = d2 - 1; row >= 0; --row) {
            const int rb = row >= d ? 1 : 0;
            const int rr = row - rb * d;
            for (int col = d2 - 1; col >= 0; --col) {
                const int kb = col >= d ? 1 : 0;
                const int kk = col - kb * d;
                const double fre = ure[rb * 2 + kb];
                const double fim = uim[rb * 2 + kb];
                const double gre = outRe[rr * d + kk];
                const double gim = outIm[rr * d + kk];
                outRe[row * d2 + col] = fre * gre - fim * gim;
                outIm[row * d2 + col] = fre * gim + fim * gre;
            }
        }
        d = d2;
    }
    *outDim = d;
}

/**
 * Gather one (a = k_q, b = r_q) bin of the environment into a
 * contiguous dq x dq buffer transposed to align with buildKronColumn:
 * out(kk, rr) = env(expand(rr, b), expand(kk, a)), so that
 * W[a*2+b] = sum out .* G elementwise (complex, no conjugation).
 */
inline void
gatherEnvBin(const double *envRe, const double *envIm, int dim, int qubit,
             int a, int b, double *outRe, double *outIm)
{
    const int qbit = 1 << qubit;
    const int low = qbit - 1;
    const int dq = dim / 2;
    for (int kk = 0; kk < dq; ++kk) {
        const int k = ((kk & ~low) << 1) | (kk & low) | (a != 0 ? qbit : 0);
        for (int rr = 0; rr < dq; ++rr) {
            const int r =
                ((rr & ~low) << 1) | (rr & low) | (b != 0 ? qbit : 0);
            outRe[kk * dq + rr] = envRe[r * dim + k];
            outIm[kk * dq + rr] = envIm[r * dim + k];
        }
    }
}

}  // namespace
}  // namespace kernels
}  // namespace geyser

#endif  // GEYSER_LINALG_KERNELS_DETAIL_HPP
