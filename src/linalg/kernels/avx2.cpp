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

}  // namespace

const ComputeBackend &
avx2Backend()
{
    static const ComputeBackend backend = {
        "avx2",
        apply2x2RowsAvx2,
        apply2x2ColsAvx2,
        svApply1qAvx2,
    };
    return backend;
}

}  // namespace kernels
}  // namespace geyser

#endif  // x86
