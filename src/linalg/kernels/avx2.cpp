/**
 * @file
 * AVX2+FMA backend: 256-bit kernels (4 doubles per vector) for the
 * compose/sim hot loops. This TU is compiled with -mavx2 -mfma and is
 * only ever entered through the dispatch table after the CPUID check
 * in backend.cpp, so the binary stays runnable on non-AVX hosts.
 *
 * Split-complex matrix kernels vectorize across contiguous columns
 * with broadcast-FMA; interleaved statevector kernels use the
 * permute/addsub idiom for scalar-complex x vector products, except on
 * storage bit 0, which spells the reference loop's FMA form. Tail
 * columns and sub-vector dimensions fall back to the per-TU reference
 * loops from detail.hpp (which the compiler auto-vectorizes under
 * this TU's flags — still AVX2-only code, still dispatch-gated).
 */
#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>

#include "linalg/kernels/backend.hpp"
#include "linalg/kernels/detail.hpp"

namespace geyser {
namespace kernels {
namespace {

inline double
hsum(__m256d v)
{
    __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    lo = _mm_add_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
}

/** sum_i a_i . b_i (plain complex product) over split arrays. */
inline void
dotSplitAvx2(const double *aRe, const double *aIm, const double *bRe,
             const double *bIm, size_t n, double *outRe, double *outIm)
{
    __m256d tre = _mm256_setzero_pd(), tim = _mm256_setzero_pd();
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d ar = _mm256_loadu_pd(aRe + i);
        const __m256d ai = _mm256_loadu_pd(aIm + i);
        const __m256d br = _mm256_loadu_pd(bRe + i);
        const __m256d bi = _mm256_loadu_pd(bIm + i);
        tre = _mm256_fmadd_pd(ar, br, tre);
        tre = _mm256_fnmadd_pd(ai, bi, tre);
        tim = _mm256_fmadd_pd(ar, bi, tim);
        tim = _mm256_fmadd_pd(ai, br, tim);
    }
    double sre = hsum(tre), sim = hsum(tim);
    for (; i < n; ++i) {
        sre += aRe[i] * bRe[i] - aIm[i] * bIm[i];
        sim += aRe[i] * bIm[i] + aIm[i] * bRe[i];
    }
    *outRe = sre;
    *outIm = sim;
}

void
matmulAvx2(const double *aRe, const double *aIm, const double *bRe,
           const double *bIm, double *outRe, double *outIm, int d)
{
    for (int r = 0; r < d; ++r) {
        int c = 0;
        for (; c + 4 <= d; c += 4) {
            __m256d sre = _mm256_setzero_pd(), sim = _mm256_setzero_pd();
            for (int k = 0; k < d; ++k) {
                const __m256d ar = _mm256_set1_pd(aRe[r * d + k]);
                const __m256d ai = _mm256_set1_pd(aIm[r * d + k]);
                const __m256d br = _mm256_loadu_pd(bRe + k * d + c);
                const __m256d bi = _mm256_loadu_pd(bIm + k * d + c);
                sre = _mm256_fmadd_pd(ar, br, sre);
                sre = _mm256_fnmadd_pd(ai, bi, sre);
                sim = _mm256_fmadd_pd(ar, bi, sim);
                sim = _mm256_fmadd_pd(ai, br, sim);
            }
            _mm256_storeu_pd(outRe + r * d + c, sre);
            _mm256_storeu_pd(outIm + r * d + c, sim);
        }
        for (; c < d; ++c) {
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

void
traceProductAvx2(const double *aRe, const double *aIm, const double *bRe,
                 const double *bIm, int d, double *outRe, double *outIm)
{
    // Transpose b so the contraction becomes one contiguous dot.
    double btRe[kMaxTraceDim * kMaxTraceDim];
    double btIm[kMaxTraceDim * kMaxTraceDim];
    for (int r = 0; r < d; ++r) {
        for (int k = 0; k < d; ++k) {
            btRe[r * d + k] = bRe[k * d + r];
            btIm[r * d + k] = bIm[k * d + r];
        }
    }
    dotSplitAvx2(aRe, aIm, btRe, btIm,
                 static_cast<size_t>(d) * static_cast<size_t>(d), outRe,
                 outIm);
}

void
apply2x2RowsAvx2(double *re, double *im, const double *uRe,
                 const double *uIm, int bit, int d)
{
    if (d < 4) {
        apply2x2RowsRef(re, im, uRe, uIm, bit, d);
        return;
    }
    const __m256d u0r = _mm256_set1_pd(uRe[0]), u0i = _mm256_set1_pd(uIm[0]);
    const __m256d u1r = _mm256_set1_pd(uRe[1]), u1i = _mm256_set1_pd(uIm[1]);
    const __m256d u2r = _mm256_set1_pd(uRe[2]), u2i = _mm256_set1_pd(uIm[2]);
    const __m256d u3r = _mm256_set1_pd(uRe[3]), u3i = _mm256_set1_pd(uIm[3]);
    for (int r0 = 0; r0 < d; ++r0) {
        if (r0 & bit)
            continue;
        const int r1 = r0 | bit;
        double *re0 = re + r0 * d, *im0 = im + r0 * d;
        double *re1 = re + r1 * d, *im1 = im + r1 * d;
        int c = 0;
        for (; c + 4 <= d; c += 4) {
            const __m256d ar = _mm256_loadu_pd(re0 + c);
            const __m256d ai = _mm256_loadu_pd(im0 + c);
            const __m256d br = _mm256_loadu_pd(re1 + c);
            const __m256d bi = _mm256_loadu_pd(im1 + c);
            __m256d nr = _mm256_mul_pd(u0r, ar);
            nr = _mm256_fnmadd_pd(u0i, ai, nr);
            nr = _mm256_fmadd_pd(u1r, br, nr);
            nr = _mm256_fnmadd_pd(u1i, bi, nr);
            __m256d ni = _mm256_mul_pd(u0r, ai);
            ni = _mm256_fmadd_pd(u0i, ar, ni);
            ni = _mm256_fmadd_pd(u1r, bi, ni);
            ni = _mm256_fmadd_pd(u1i, br, ni);
            __m256d mr = _mm256_mul_pd(u2r, ar);
            mr = _mm256_fnmadd_pd(u2i, ai, mr);
            mr = _mm256_fmadd_pd(u3r, br, mr);
            mr = _mm256_fnmadd_pd(u3i, bi, mr);
            __m256d mi = _mm256_mul_pd(u2r, ai);
            mi = _mm256_fmadd_pd(u2i, ar, mi);
            mi = _mm256_fmadd_pd(u3r, bi, mi);
            mi = _mm256_fmadd_pd(u3i, br, mi);
            _mm256_storeu_pd(re0 + c, nr);
            _mm256_storeu_pd(im0 + c, ni);
            _mm256_storeu_pd(re1 + c, mr);
            _mm256_storeu_pd(im1 + c, mi);
        }
        for (; c < d; ++c) {
            const double are = re0[c], aim = im0[c];
            const double bre = re1[c], bim = im1[c];
            re0[c] = uRe[0] * are - uIm[0] * aim + uRe[1] * bre -
                     uIm[1] * bim;
            im0[c] = uRe[0] * aim + uIm[0] * are + uRe[1] * bim +
                     uIm[1] * bre;
            re1[c] = uRe[2] * are - uIm[2] * aim + uRe[3] * bre -
                     uIm[3] * bim;
            im1[c] = uRe[2] * aim + uIm[2] * are + uRe[3] * bim +
                     uIm[3] * bre;
        }
    }
}

void
apply2x2ColsAvx2(double *re, double *im, const double *uRe,
                 const double *uIm, int bit, int d)
{
    if (bit < 4) {
        // Below a run of 4 the pairs interleave inside one vector:
        // swap the blocks in register and blend the pair coefficients
        // per lane (a-lanes take u0/u2, b-lanes u3/u1). Rows shorter
        // than one vector stay scalar.
        if (d < 4) {
            apply2x2ColsRef(re, im, uRe, uIm, bit, d);
            return;
        }
        __m256d uAr, uAi, uBr, uBi;
        if (bit == 1) {  // b-lanes = odd lanes; blend imm is compile-time.
            uAr = _mm256_blend_pd(_mm256_set1_pd(uRe[0]),
                                  _mm256_set1_pd(uRe[3]), 0xA);
            uAi = _mm256_blend_pd(_mm256_set1_pd(uIm[0]),
                                  _mm256_set1_pd(uIm[3]), 0xA);
            uBr = _mm256_blend_pd(_mm256_set1_pd(uRe[2]),
                                  _mm256_set1_pd(uRe[1]), 0xA);
            uBi = _mm256_blend_pd(_mm256_set1_pd(uIm[2]),
                                  _mm256_set1_pd(uIm[1]), 0xA);
        } else {  // bit == 2: b-lanes = upper half.
            uAr = _mm256_blend_pd(_mm256_set1_pd(uRe[0]),
                                  _mm256_set1_pd(uRe[3]), 0xC);
            uAi = _mm256_blend_pd(_mm256_set1_pd(uIm[0]),
                                  _mm256_set1_pd(uIm[3]), 0xC);
            uBr = _mm256_blend_pd(_mm256_set1_pd(uRe[2]),
                                  _mm256_set1_pd(uRe[1]), 0xC);
            uBi = _mm256_blend_pd(_mm256_set1_pd(uIm[2]),
                                  _mm256_set1_pd(uIm[1]), 0xC);
        }
        for (int r = 0; r < d; ++r) {
            double *rowRe = re + r * d, *rowIm = im + r * d;
            for (int c = 0; c < d; c += 4) {
                const __m256d xr = _mm256_loadu_pd(rowRe + c);
                const __m256d xi = _mm256_loadu_pd(rowIm + c);
                const __m256d yr =
                    bit == 1 ? _mm256_permute_pd(xr, 0x5)
                             : _mm256_permute2f128_pd(xr, xr, 1);
                const __m256d yi =
                    bit == 1 ? _mm256_permute_pd(xi, 0x5)
                             : _mm256_permute2f128_pd(xi, xi, 1);
                __m256d nr = _mm256_mul_pd(xr, uAr);
                nr = _mm256_fnmadd_pd(xi, uAi, nr);
                nr = _mm256_fmadd_pd(yr, uBr, nr);
                nr = _mm256_fnmadd_pd(yi, uBi, nr);
                __m256d ni = _mm256_mul_pd(xr, uAi);
                ni = _mm256_fmadd_pd(xi, uAr, ni);
                ni = _mm256_fmadd_pd(yr, uBi, ni);
                ni = _mm256_fmadd_pd(yi, uBr, ni);
                _mm256_storeu_pd(rowRe + c, nr);
                _mm256_storeu_pd(rowIm + c, ni);
            }
        }
        return;
    }
    const __m256d u0r = _mm256_set1_pd(uRe[0]), u0i = _mm256_set1_pd(uIm[0]);
    const __m256d u1r = _mm256_set1_pd(uRe[1]), u1i = _mm256_set1_pd(uIm[1]);
    const __m256d u2r = _mm256_set1_pd(uRe[2]), u2i = _mm256_set1_pd(uIm[2]);
    const __m256d u3r = _mm256_set1_pd(uRe[3]), u3i = _mm256_set1_pd(uIm[3]);
    for (int r = 0; r < d; ++r) {
        double *rowRe = re + r * d, *rowIm = im + r * d;
        for (int base = 0; base < d; base += 2 * bit) {
            for (int c0 = base; c0 < base + bit; c0 += 4) {
                const __m256d ar = _mm256_loadu_pd(rowRe + c0);
                const __m256d ai = _mm256_loadu_pd(rowIm + c0);
                const __m256d br = _mm256_loadu_pd(rowRe + c0 + bit);
                const __m256d bi = _mm256_loadu_pd(rowIm + c0 + bit);
                __m256d nr = _mm256_mul_pd(ar, u0r);
                nr = _mm256_fnmadd_pd(ai, u0i, nr);
                nr = _mm256_fmadd_pd(br, u2r, nr);
                nr = _mm256_fnmadd_pd(bi, u2i, nr);
                __m256d ni = _mm256_mul_pd(ar, u0i);
                ni = _mm256_fmadd_pd(ai, u0r, ni);
                ni = _mm256_fmadd_pd(br, u2i, ni);
                ni = _mm256_fmadd_pd(bi, u2r, ni);
                __m256d mr = _mm256_mul_pd(ar, u1r);
                mr = _mm256_fnmadd_pd(ai, u1i, mr);
                mr = _mm256_fmadd_pd(br, u3r, mr);
                mr = _mm256_fnmadd_pd(bi, u3i, mr);
                __m256d mi = _mm256_mul_pd(ar, u1i);
                mi = _mm256_fmadd_pd(ai, u1r, mi);
                mi = _mm256_fmadd_pd(br, u3i, mi);
                mi = _mm256_fmadd_pd(bi, u3r, mi);
                _mm256_storeu_pd(rowRe + c0, nr);
                _mm256_storeu_pd(rowIm + c0, ni);
                _mm256_storeu_pd(rowRe + c0 + bit, mr);
                _mm256_storeu_pd(rowIm + c0 + bit, mi);
            }
        }
    }
}

void
foldWAvx2(const double *envRe, const double *envIm, const double (*u3Re)[4],
          const double (*u3Im)[4], int numQubits, int qubit, double *wRe,
          double *wIm)
{
    if (numQubits <= 1) {
        foldWRef(envRe, envIm, u3Re, u3Im, numQubits, qubit, wRe, wIm);
        return;
    }
    // Reduced Kronecker column over the spectator qubits, then four
    // contiguous bins of the environment, then four vector dots —
    // algebraically different from the reference triple loop, matched
    // to 1e-12 by the parity suite.
    constexpr int kQuad = (kDetailMaxDim / 2) * (kDetailMaxDim / 2);
    double gRe[kQuad], gIm[kQuad];
    int dq = 0;
    buildKronColumn(u3Re, u3Im, numQubits, qubit, gRe, gIm, &dq);
    const size_t n = static_cast<size_t>(dq) * static_cast<size_t>(dq);
    const int dim = 1 << numQubits;
    double binRe[kQuad], binIm[kQuad];
    for (int a = 0; a < 2; ++a) {
        for (int b = 0; b < 2; ++b) {
            gatherEnvBin(envRe, envIm, dim, qubit, a, b, binRe, binIm);
            dotSplitAvx2(gRe, gIm, binRe, binIm, n, &wRe[a * 2 + b],
                         &wIm[a * 2 + b]);
        }
    }
}

void
probeBatchAvx2(const double *wRe, const double *wIm, const double *u3Re,
               const double *u3Im, int count, double *outRe, double *outIm)
{
    const __m256d wr = _mm256_loadu_pd(wRe);
    const __m256d wi = _mm256_loadu_pd(wIm);
    for (int i = 0; i < count; ++i) {
        const __m256d ur = _mm256_loadu_pd(u3Re + i * 4);
        const __m256d ui = _mm256_loadu_pd(u3Im + i * 4);
        const __m256d tre =
            _mm256_fnmadd_pd(ui, wi, _mm256_mul_pd(ur, wr));
        const __m256d tim = _mm256_fmadd_pd(ui, wr, _mm256_mul_pd(ur, wi));
        outRe[i] = hsum(tre);
        outIm[i] = hsum(tim);
    }
}

/** (ur + i ui) . v for interleaved v, vs = re/im-swapped v. */
inline __m256d
cmulAvx2(double ur, double ui, __m256d v, __m256d vs)
{
    return _mm256_addsub_pd(_mm256_mul_pd(_mm256_set1_pd(ur), v),
                            _mm256_mul_pd(_mm256_set1_pd(ui), vs));
}

/** u in both complex lanes, and with re/im swapped. */
struct Broadcast
{
    explicit Broadcast(const Complex &u)
        : uu(_mm256_setr_pd(u.real(), u.imag(), u.real(), u.imag())),
          swapped(_mm256_permute_pd(uu, 0x5))
    {
    }

    __m256d uu, swapped;
};

/**
 * u . v per complex lane, contracted as re = vr ur - [vi ui],
 * im = vr ui + [vi ur] ([.] rounded, the rest one FMA).
 */
inline __m256d
cmulFmaVu(const Broadcast &u, __m256d v)
{
    return _mm256_fmaddsub_pd(
        _mm256_movedup_pd(v), u.uu,
        _mm256_mul_pd(_mm256_permute_pd(v, 0xF), u.swapped));
}

/** u . v as re = ur vr - [ui vi], im = ur vi + [ui vr]. */
inline __m256d
cmulFmaUv(__m256d ur, __m256d ui, __m256d v)
{
    return _mm256_fmaddsub_pd(
        ur, v, _mm256_mul_pd(ui, _mm256_permute_pd(v, 0x5)));
}

/**
 * svApply1q on storage bit 0, two pairs (i, i + 1) per step. At -O2 in
 * this TU GCC compiles svApply1qRef to one complex product at a time: a
 * rounded cross product, one FMA, and a __muldc3 call when the product
 * is NaN.
 * It contracts u[1] . a1 as cmulFmaUv and the other three as cmulFmaVu.
 * This loop spells the same arithmetic, so finite results are the same
 * bits. A block with a result that is not finite goes through the
 * reference loop, which owns the NaN and infinity rules.
 */
void
svApply1qBit0Avx2(Complex *amps, size_t dim, const Complex *u)
{
    if (dim < 4) {
        // Pairs are independent: pad with a zero pair.
        Complex block[4] = {};
        std::copy(amps, amps + dim, block);
        svApply1qBit0Avx2(block, 4, u);
        std::copy(block, block + dim, amps);
        return;
    }
    const Broadcast u0(u[0]), u2(u[2]), u3(u[3]);
    const __m256d u1r = _mm256_set1_pd(u[1].real());
    const __m256d u1i = _mm256_set1_pd(u[1].imag());
    double *p = reinterpret_cast<double *>(amps);
    for (size_t i = 0; i < dim; i += 4) {
        const __m256d x = _mm256_loadu_pd(p + 2 * i);
        const __m256d y = _mm256_loadu_pd(p + 2 * i + 4);
        const __m256d a0 = _mm256_permute2f128_pd(x, y, 0x20);
        const __m256d a1 = _mm256_permute2f128_pd(x, y, 0x31);
        const __m256d n0 =
            _mm256_add_pd(cmulFmaVu(u0, a0), cmulFmaUv(u1r, u1i, a1));
        const __m256d n1 =
            _mm256_add_pd(cmulFmaVu(u2, a0), cmulFmaVu(u3, a1));
        // 0 in every lane iff n0 and n1 are finite, else NaN.
        const __m256d zero = _mm256_add_pd(_mm256_sub_pd(n0, n0),
                                           _mm256_sub_pd(n1, n1));
        if (_mm256_movemask_pd(_mm256_cmp_pd(zero, zero, _CMP_UNORD_Q))) {
            svApply1qRef(amps + i, 4, 0, u);
            continue;
        }
        _mm256_storeu_pd(p + 2 * i, _mm256_permute2f128_pd(n0, n1, 0x20));
        _mm256_storeu_pd(p + 2 * i + 4,
                         _mm256_permute2f128_pd(n0, n1, 0x31));
    }
}

void
svApply1qAvx2(Complex *amps, size_t dim, int qubit, const Complex *u)
{
    const size_t mask = size_t{1} << qubit;
    if (qubit == 0) {
        svApply1qBit0Avx2(amps, dim, u);
        return;
    }
    double *p = reinterpret_cast<double *>(amps);
    for (size_t base = 0; base < dim; base += 2 * mask) {
        for (size_t off = 0; off < mask; off += 2) {
            const size_t i0 = base + off, i1 = i0 | mask;
            const __m256d a = _mm256_loadu_pd(p + 2 * i0);
            const __m256d b = _mm256_loadu_pd(p + 2 * i1);
            const __m256d as = _mm256_permute_pd(a, 0x5);
            const __m256d bs = _mm256_permute_pd(b, 0x5);
            const __m256d n0 = _mm256_add_pd(
                cmulAvx2(u[0].real(), u[0].imag(), a, as),
                cmulAvx2(u[1].real(), u[1].imag(), b, bs));
            const __m256d n1 = _mm256_add_pd(
                cmulAvx2(u[2].real(), u[2].imag(), a, as),
                cmulAvx2(u[3].real(), u[3].imag(), b, bs));
            _mm256_storeu_pd(p + 2 * i0, n0);
            _mm256_storeu_pd(p + 2 * i1, n1);
        }
    }
}

void
svApply2qAvx2(Complex *amps, size_t dim, int q0, int q1, const Complex *u)
{
    const size_t m0 = size_t{1} << q0, m1 = size_t{1} << q1;
    const size_t lo = m0 < m1 ? m0 : m1;
    const size_t hi = m0 < m1 ? m1 : m0;
    if (lo < 2) {
        svApply2qRef(amps, dim, q0, q1, u);
        return;
    }
    double *p = reinterpret_cast<double *>(amps);
    for (size_t h = 0; h < dim; h += 2 * hi) {
        for (size_t m = h; m < h + hi; m += 2 * lo) {
            for (size_t base = m; base < m + lo; base += 2) {
                const __m256d x0 = _mm256_loadu_pd(p + 2 * base);
                const __m256d x1 = _mm256_loadu_pd(p + 2 * (base + m0));
                const __m256d x2 = _mm256_loadu_pd(p + 2 * (base + m1));
                const __m256d x3 =
                    _mm256_loadu_pd(p + 2 * (base + m0 + m1));
                const __m256d s0 = _mm256_permute_pd(x0, 0x5);
                const __m256d s1 = _mm256_permute_pd(x1, 0x5);
                const __m256d s2 = _mm256_permute_pd(x2, 0x5);
                const __m256d s3 = _mm256_permute_pd(x3, 0x5);
                const size_t offs[4] = {base, base + m0, base + m1,
                                        base + m0 + m1};
                for (int row = 0; row < 4; ++row) {
                    const Complex *ur = u + row * 4;
                    __m256d acc = cmulAvx2(ur[0].real(), ur[0].imag(), x0,
                                           s0);
                    acc = _mm256_add_pd(
                        acc, cmulAvx2(ur[1].real(), ur[1].imag(), x1, s1));
                    acc = _mm256_add_pd(
                        acc, cmulAvx2(ur[2].real(), ur[2].imag(), x2, s2));
                    acc = _mm256_add_pd(
                        acc, cmulAvx2(ur[3].real(), ur[3].imag(), x3, s3));
                    _mm256_storeu_pd(p + 2 * offs[row], acc);
                }
            }
        }
    }
}

}  // namespace

const ComputeBackend &
avx2Backend()
{
    static const ComputeBackend backend = {
        "avx2",           matmulAvx2,       traceProductAvx2,
        apply2x2RowsAvx2, apply2x2ColsAvx2, flipRowsRef,
        flipColsRef,      foldWAvx2,        probeBatchAvx2,
        svApply1qAvx2,    svApply2qAvx2,
    };
    return backend;
}

}  // namespace kernels
}  // namespace geyser

#endif  // x86
