/**
 * @file
 * AVX-512F/DQ/VL backend: 512-bit kernels (8 doubles per vector).
 * Compiled with -mavx512f -mavx512dq -mavx512vl -mfma and only entered
 * through the dispatch table after the CPUID check in backend.cpp.
 *
 * Tail dimensions never drop to scalar here: every column loop is
 * masked, so d = 2/4/8/16 all run the same code path (d = 8 is one
 * full vector per row — the paper's 3-qubit block size). VL allows the
 * 256-bit idioms for the 4-wide probe contraction and the interleaved
 * statevector kernels on short runs.
 */
#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>

#include "linalg/kernels/backend.hpp"
#include "linalg/kernels/detail.hpp"

namespace geyser {
namespace kernels {
namespace {

inline __mmask8
colMask(int remaining)
{
    return remaining >= 8
               ? static_cast<__mmask8>(0xFF)
               : static_cast<__mmask8>((1u << remaining) - 1u);
}

/** sum_i a_i . b_i (plain complex product) over split arrays. */
inline void
dotSplitAvx512(const double *aRe, const double *aIm, const double *bRe,
               const double *bIm, size_t n, double *outRe, double *outIm)
{
    __m512d tre = _mm512_setzero_pd(), tim = _mm512_setzero_pd();
    for (size_t i = 0; i < n; i += 8) {
        const __mmask8 mk = colMask(static_cast<int>(n - i));
        const __m512d ar = _mm512_maskz_loadu_pd(mk, aRe + i);
        const __m512d ai = _mm512_maskz_loadu_pd(mk, aIm + i);
        const __m512d br = _mm512_maskz_loadu_pd(mk, bRe + i);
        const __m512d bi = _mm512_maskz_loadu_pd(mk, bIm + i);
        tre = _mm512_fmadd_pd(ar, br, tre);
        tre = _mm512_fnmadd_pd(ai, bi, tre);
        tim = _mm512_fmadd_pd(ar, bi, tim);
        tim = _mm512_fmadd_pd(ai, br, tim);
    }
    *outRe = _mm512_reduce_add_pd(tre);
    *outIm = _mm512_reduce_add_pd(tim);
}

void
matmulAvx512(const double *aRe, const double *aIm, const double *bRe,
             const double *bIm, double *outRe, double *outIm, int d)
{
    for (int r = 0; r < d; ++r) {
        for (int c = 0; c < d; c += 8) {
            const __mmask8 mk = colMask(d - c);
            __m512d sre = _mm512_setzero_pd(), sim = _mm512_setzero_pd();
            for (int k = 0; k < d; ++k) {
                const __m512d ar = _mm512_set1_pd(aRe[r * d + k]);
                const __m512d ai = _mm512_set1_pd(aIm[r * d + k]);
                const __m512d br =
                    _mm512_maskz_loadu_pd(mk, bRe + k * d + c);
                const __m512d bi =
                    _mm512_maskz_loadu_pd(mk, bIm + k * d + c);
                sre = _mm512_fmadd_pd(ar, br, sre);
                sre = _mm512_fnmadd_pd(ai, bi, sre);
                sim = _mm512_fmadd_pd(ar, bi, sim);
                sim = _mm512_fmadd_pd(ai, br, sim);
            }
            _mm512_mask_storeu_pd(outRe + r * d + c, mk, sre);
            _mm512_mask_storeu_pd(outIm + r * d + c, mk, sim);
        }
    }
}

void
traceProductAvx512(const double *aRe, const double *aIm, const double *bRe,
                   const double *bIm, int d, double *outRe, double *outIm)
{
    double btRe[kMaxTraceDim * kMaxTraceDim];
    double btIm[kMaxTraceDim * kMaxTraceDim];
    for (int r = 0; r < d; ++r) {
        for (int k = 0; k < d; ++k) {
            btRe[r * d + k] = bRe[k * d + r];
            btIm[r * d + k] = bIm[k * d + r];
        }
    }
    dotSplitAvx512(aRe, aIm, btRe, btIm,
                   static_cast<size_t>(d) * static_cast<size_t>(d), outRe,
                   outIm);
}

void
apply2x2RowsAvx512(double *re, double *im, const double *uRe,
                   const double *uIm, int bit, int d)
{
    const __m512d u0r = _mm512_set1_pd(uRe[0]), u0i = _mm512_set1_pd(uIm[0]);
    const __m512d u1r = _mm512_set1_pd(uRe[1]), u1i = _mm512_set1_pd(uIm[1]);
    const __m512d u2r = _mm512_set1_pd(uRe[2]), u2i = _mm512_set1_pd(uIm[2]);
    const __m512d u3r = _mm512_set1_pd(uRe[3]), u3i = _mm512_set1_pd(uIm[3]);
    for (int r0 = 0; r0 < d; ++r0) {
        if (r0 & bit)
            continue;
        const int r1 = r0 | bit;
        double *re0 = re + r0 * d, *im0 = im + r0 * d;
        double *re1 = re + r1 * d, *im1 = im + r1 * d;
        for (int c = 0; c < d; c += 8) {
            const __mmask8 mk = colMask(d - c);
            const __m512d ar = _mm512_maskz_loadu_pd(mk, re0 + c);
            const __m512d ai = _mm512_maskz_loadu_pd(mk, im0 + c);
            const __m512d br = _mm512_maskz_loadu_pd(mk, re1 + c);
            const __m512d bi = _mm512_maskz_loadu_pd(mk, im1 + c);
            __m512d nr = _mm512_mul_pd(u0r, ar);
            nr = _mm512_fnmadd_pd(u0i, ai, nr);
            nr = _mm512_fmadd_pd(u1r, br, nr);
            nr = _mm512_fnmadd_pd(u1i, bi, nr);
            __m512d ni = _mm512_mul_pd(u0r, ai);
            ni = _mm512_fmadd_pd(u0i, ar, ni);
            ni = _mm512_fmadd_pd(u1r, bi, ni);
            ni = _mm512_fmadd_pd(u1i, br, ni);
            __m512d mr = _mm512_mul_pd(u2r, ar);
            mr = _mm512_fnmadd_pd(u2i, ai, mr);
            mr = _mm512_fmadd_pd(u3r, br, mr);
            mr = _mm512_fnmadd_pd(u3i, bi, mr);
            __m512d mi = _mm512_mul_pd(u2r, ai);
            mi = _mm512_fmadd_pd(u2i, ar, mi);
            mi = _mm512_fmadd_pd(u3r, bi, mi);
            mi = _mm512_fmadd_pd(u3i, br, mi);
            _mm512_mask_storeu_pd(re0 + c, mk, nr);
            _mm512_mask_storeu_pd(im0 + c, mk, ni);
            _mm512_mask_storeu_pd(re1 + c, mk, mr);
            _mm512_mask_storeu_pd(im1 + c, mk, mi);
        }
    }
}

void
apply2x2ColsAvx512(double *re, double *im, const double *uRe,
                   const double *uIm, int bit, int d)
{
    if (bit < 4) {
        // The partner column sits `bit` lanes away inside one 8-wide
        // row vector: swap the blocks in register and blend the pair's
        // coefficients per lane (a-lanes take u0/u2, b-lanes u3/u1).
        const __mmask8 bLanes = bit == 1 ? 0xAA : 0xCC;
        const __m512d uAr = _mm512_mask_blend_pd(
            bLanes, _mm512_set1_pd(uRe[0]), _mm512_set1_pd(uRe[3]));
        const __m512d uAi = _mm512_mask_blend_pd(
            bLanes, _mm512_set1_pd(uIm[0]), _mm512_set1_pd(uIm[3]));
        const __m512d uBr = _mm512_mask_blend_pd(
            bLanes, _mm512_set1_pd(uRe[2]), _mm512_set1_pd(uRe[1]));
        const __m512d uBi = _mm512_mask_blend_pd(
            bLanes, _mm512_set1_pd(uIm[2]), _mm512_set1_pd(uIm[1]));
        for (int r = 0; r < d; ++r) {
            double *rowRe = re + r * d, *rowIm = im + r * d;
            for (int c = 0; c < d; c += 8) {
                const __mmask8 mk = colMask(d - c);
                const __m512d xr = _mm512_maskz_loadu_pd(mk, rowRe + c);
                const __m512d xi = _mm512_maskz_loadu_pd(mk, rowIm + c);
                const __m512d yr = bit == 1
                                       ? _mm512_permute_pd(xr, 0x55)
                                       : _mm512_permutex_pd(xr, 0x4E);
                const __m512d yi = bit == 1
                                       ? _mm512_permute_pd(xi, 0x55)
                                       : _mm512_permutex_pd(xi, 0x4E);
                __m512d nr = _mm512_mul_pd(xr, uAr);
                nr = _mm512_fnmadd_pd(xi, uAi, nr);
                nr = _mm512_fmadd_pd(yr, uBr, nr);
                nr = _mm512_fnmadd_pd(yi, uBi, nr);
                __m512d ni = _mm512_mul_pd(xr, uAi);
                ni = _mm512_fmadd_pd(xi, uAr, ni);
                ni = _mm512_fmadd_pd(yr, uBi, ni);
                ni = _mm512_fmadd_pd(yi, uBr, ni);
                _mm512_mask_storeu_pd(rowRe + c, mk, nr);
                _mm512_mask_storeu_pd(rowIm + c, mk, ni);
            }
        }
        return;
    }
    // Runs of >= 4 contiguous columns: unmasked 4-wide (VL) pairs.
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
foldWAvx512(const double *envRe, const double *envIm,
            const double (*u3Re)[4], const double (*u3Im)[4], int numQubits,
            int qubit, double *wRe, double *wIm)
{
    if (numQubits <= 1) {
        foldWRef(envRe, envIm, u3Re, u3Im, numQubits, qubit, wRe, wIm);
        return;
    }
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
            dotSplitAvx512(gRe, gIm, binRe, binIm, n, &wRe[a * 2 + b],
                           &wIm[a * 2 + b]);
        }
    }
}

inline double
hsum256(__m256d v)
{
    __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    lo = _mm_add_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
}

void
probeBatchAvx512(const double *wRe, const double *wIm, const double *u3Re,
                 const double *u3Im, int count, double *outRe,
                 double *outIm)
{
    const __m256d wr = _mm256_loadu_pd(wRe);
    const __m256d wi = _mm256_loadu_pd(wIm);
    for (int i = 0; i < count; ++i) {
        const __m256d ur = _mm256_loadu_pd(u3Re + i * 4);
        const __m256d ui = _mm256_loadu_pd(u3Im + i * 4);
        const __m256d tre =
            _mm256_fnmadd_pd(ui, wi, _mm256_mul_pd(ur, wr));
        const __m256d tim = _mm256_fmadd_pd(ui, wr, _mm256_mul_pd(ur, wi));
        outRe[i] = hsum256(tre);
        outIm[i] = hsum256(tim);
    }
}

/**
 * (ur + i ui) . v for interleaved v, vs = re/im-swapped v. AVX-512 has
 * no addsub; fmaddsub (sub on even lanes, add on odd) does the job.
 */
inline __m512d
cmulAvx512(double ur, double ui, __m512d v, __m512d vs)
{
    return _mm512_fmaddsub_pd(_mm512_set1_pd(ur), v,
                              _mm512_mul_pd(_mm512_set1_pd(ui), vs));
}

inline __m256d
cmul256(double ur, double ui, __m256d v, __m256d vs)
{
    return _mm256_addsub_pd(_mm256_mul_pd(_mm256_set1_pd(ur), v),
                            _mm256_mul_pd(_mm256_set1_pd(ui), vs));
}

/** u in every complex lane, and with re/im swapped. */
struct Broadcast
{
    explicit Broadcast(const Complex &u)
        : uu(_mm512_broadcast_f64x2(_mm_setr_pd(u.real(), u.imag()))),
          swapped(_mm512_permute_pd(uu, 0x55))
    {
    }

    __m512d uu, swapped;
};

/**
 * u . v per complex lane, contracted as re = vr ur - [vi ui],
 * im = vr ui + [vi ur] ([.] rounded, the rest one FMA): cmulAvx512
 * with the roles of u and v exchanged.
 */
inline __m512d
cmulFmaVu(const Broadcast &u, __m512d v)
{
    return _mm512_fmaddsub_pd(
        _mm512_movedup_pd(v), u.uu,
        _mm512_mul_pd(_mm512_permute_pd(v, 0xFF), u.swapped));
}

/**
 * svApply1q on storage bit 0, four pairs (i, i + 1) per step. At -O2
 * in this TU GCC compiles svApply1qRef to one complex product at a
 * time: a rounded cross product, one FMA, and a __muldc3 call when the
 * product is NaN. It contracts u[1] . a1 as cmulAvx512 and the other
 * three as cmulFmaVu. This loop spells the same arithmetic, so finite
 * results are the same bits. A block with a result that is not finite goes
 * through the reference loop, which owns the NaN and infinity rules.
 */
void
svApply1qBit0Avx512(Complex *amps, size_t dim, const Complex *u)
{
    if (dim < 8) {
        // Pairs are independent: pad with zero pairs.
        Complex block[8] = {};
        std::copy(amps, amps + dim, block);
        svApply1qBit0Avx512(block, 8, u);
        std::copy(block, block + dim, amps);
        return;
    }
    const Broadcast u0(u[0]), u2(u[2]), u3(u[3]);
    const double u1r = u[1].real(), u1i = u[1].imag();
    // The first and second amplitude of each pair of x:y, and back.
    const __m512i first = _mm512_setr_epi64(0, 1, 4, 5, 8, 9, 12, 13);
    const __m512i second = _mm512_setr_epi64(2, 3, 6, 7, 10, 11, 14, 15);
    const __m512i lo = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
    const __m512i hi = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
    double *p = reinterpret_cast<double *>(amps);
    for (size_t i = 0; i < dim; i += 8) {
        const __m512d x = _mm512_loadu_pd(p + 2 * i);
        const __m512d y = _mm512_loadu_pd(p + 2 * i + 8);
        const __m512d a0 = _mm512_permutex2var_pd(x, first, y);
        const __m512d a1 = _mm512_permutex2var_pd(x, second, y);
        const __m512d n0 = _mm512_add_pd(
            cmulFmaVu(u0, a0),
            cmulAvx512(u1r, u1i, a1, _mm512_permute_pd(a1, 0x55)));
        const __m512d n1 =
            _mm512_add_pd(cmulFmaVu(u2, a0), cmulFmaVu(u3, a1));
        // 0 in every lane iff n0 and n1 are finite, else NaN.
        const __m512d zero = _mm512_add_pd(_mm512_sub_pd(n0, n0),
                                           _mm512_sub_pd(n1, n1));
        if (_mm512_cmp_pd_mask(zero, zero, _CMP_UNORD_Q)) {
            svApply1qRef(amps + i, 8, 0, u);
            continue;
        }
        _mm512_storeu_pd(p + 2 * i, _mm512_permutex2var_pd(n0, lo, n1));
        _mm512_storeu_pd(p + 2 * i + 8, _mm512_permutex2var_pd(n0, hi, n1));
    }
}

void
svApply1qAvx512(Complex *amps, size_t dim, int qubit, const Complex *u)
{
    if (qubit == 0) {
        svApply1qBit0Avx512(amps, dim, u);
        return;
    }
    const size_t mask = size_t{1} << qubit;
    double *p = reinterpret_cast<double *>(amps);
    if (qubit >= 2) {
        // Runs of >= 4 complexes: full 512-bit vectors.
        for (size_t base = 0; base < dim; base += 2 * mask) {
            for (size_t off = 0; off < mask; off += 4) {
                const size_t i0 = base + off, i1 = i0 | mask;
                const __m512d a = _mm512_loadu_pd(p + 2 * i0);
                const __m512d b = _mm512_loadu_pd(p + 2 * i1);
                const __m512d as = _mm512_permute_pd(a, 0x55);
                const __m512d bs = _mm512_permute_pd(b, 0x55);
                const __m512d n0 = _mm512_add_pd(
                    cmulAvx512(u[0].real(), u[0].imag(), a, as),
                    cmulAvx512(u[1].real(), u[1].imag(), b, bs));
                const __m512d n1 = _mm512_add_pd(
                    cmulAvx512(u[2].real(), u[2].imag(), a, as),
                    cmulAvx512(u[3].real(), u[3].imag(), b, bs));
                _mm512_storeu_pd(p + 2 * i0, n0);
                _mm512_storeu_pd(p + 2 * i1, n1);
            }
        }
        return;
    }
    if (qubit == 1 && dim >= 4) {
        for (size_t base = 0; base < dim; base += 2 * mask) {
            const size_t i0 = base, i1 = base | mask;
            const __m256d a = _mm256_loadu_pd(p + 2 * i0);
            const __m256d b = _mm256_loadu_pd(p + 2 * i1);
            const __m256d as = _mm256_permute_pd(a, 0x5);
            const __m256d bs = _mm256_permute_pd(b, 0x5);
            const __m256d n0 =
                _mm256_add_pd(cmul256(u[0].real(), u[0].imag(), a, as),
                              cmul256(u[1].real(), u[1].imag(), b, bs));
            const __m256d n1 =
                _mm256_add_pd(cmul256(u[2].real(), u[2].imag(), a, as),
                              cmul256(u[3].real(), u[3].imag(), b, bs));
            _mm256_storeu_pd(p + 2 * i0, n0);
            _mm256_storeu_pd(p + 2 * i1, n1);
        }
        return;
    }
    svApply1qRef(amps, dim, qubit, u);
}

void
svApply2qAvx512(Complex *amps, size_t dim, int q0, int q1, const Complex *u)
{
    const size_t m0 = size_t{1} << q0, m1 = size_t{1} << q1;
    const size_t lo = m0 < m1 ? m0 : m1;
    const size_t hi = m0 < m1 ? m1 : m0;
    if (lo < 4) {
        svApply2qRef(amps, dim, q0, q1, u);
        return;
    }
    double *p = reinterpret_cast<double *>(amps);
    for (size_t h = 0; h < dim; h += 2 * hi) {
        for (size_t m = h; m < h + hi; m += 2 * lo) {
            for (size_t base = m; base < m + lo; base += 4) {
                const __m512d x0 = _mm512_loadu_pd(p + 2 * base);
                const __m512d x1 = _mm512_loadu_pd(p + 2 * (base + m0));
                const __m512d x2 = _mm512_loadu_pd(p + 2 * (base + m1));
                const __m512d x3 =
                    _mm512_loadu_pd(p + 2 * (base + m0 + m1));
                const __m512d s0 = _mm512_permute_pd(x0, 0x55);
                const __m512d s1 = _mm512_permute_pd(x1, 0x55);
                const __m512d s2 = _mm512_permute_pd(x2, 0x55);
                const __m512d s3 = _mm512_permute_pd(x3, 0x55);
                const size_t offs[4] = {base, base + m0, base + m1,
                                        base + m0 + m1};
                for (int row = 0; row < 4; ++row) {
                    const Complex *ur = u + row * 4;
                    __m512d acc = cmulAvx512(ur[0].real(), ur[0].imag(),
                                             x0, s0);
                    acc = _mm512_add_pd(acc,
                                        cmulAvx512(ur[1].real(),
                                                   ur[1].imag(), x1, s1));
                    acc = _mm512_add_pd(acc,
                                        cmulAvx512(ur[2].real(),
                                                   ur[2].imag(), x2, s2));
                    acc = _mm512_add_pd(acc,
                                        cmulAvx512(ur[3].real(),
                                                   ur[3].imag(), x3, s3));
                    _mm512_storeu_pd(p + 2 * offs[row], acc);
                }
            }
        }
    }
}

}  // namespace

const ComputeBackend &
avx512Backend()
{
    static const ComputeBackend backend = {
        "avx512",           matmulAvx512,       traceProductAvx512,
        apply2x2RowsAvx512, apply2x2ColsAvx512, flipRowsRef,
        flipColsRef,        foldWAvx512,        probeBatchAvx512,
        svApply1qAvx512,    svApply2qAvx512,
    };
    return backend;
}

}  // namespace kernels
}  // namespace geyser

#endif  // x86
