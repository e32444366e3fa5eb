/**
 * @file
 * The SIMD backends' kernels, written once as templates over the
 * vector width W (doubles per vector) with GCC vector extensions. Each
 * SIMD translation unit instantiates them at its width under its own
 * -m flags (avx2.cpp at W = 4, avx512.cpp at W = 8), and a kernel
 * whose row (d) or state (dim) is shorter than W runs at a narrower W.
 * Loads and stores go through memcpy, so every kernel accepts
 * unaligned buffers.
 *
 * Two rules keep the backends bit-identical to each other:
 *
 *  - One expression per output element. Every path (in-vector
 *    shuffles, contiguous runs, every W) computes an output through
 *    pairSum or cmulPair below, with the same operands in the same
 *    order, so GCC's FMA contraction rounds it alike at every width.
 *    These are the scalar reference loops' expressions, and scalar.cpp
 *    is built without FMA, so scalar differs from the SIMD backends by
 *    contraction only.
 *  - Internal linkage. Everything here lives in an ANONYMOUS
 *    namespace: with a named one, both TUs would emit weak copies of,
 *    say, the W = 4 kernels, and the linker could keep the copy
 *    compiled with AVX-512 flags for the AVX2 backend, which then
 *    crashes an AVX2-only host.
 */
#ifndef GEYSER_LINALG_KERNELS_SIMD_HPP
#define GEYSER_LINALG_KERNELS_SIMD_HPP

#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

#include "common/types.hpp"
#include "linalg/kernels/backend.hpp"

namespace geyser {
namespace kernels {
namespace {

template <class T, int W>
struct VectorOf
{
    typedef T type __attribute__((vector_size(W * sizeof(T))));
};

/** W doubles, and the W lane indices a shuffle of them takes. */
template <int W>
using Vec = typename VectorOf<double, W>::type;
template <int W>
using Idx = typename VectorOf<long long, W>::type;

template <class V, class F, size_t... L>
constexpr V
byLaneImpl(F f, std::index_sequence<L...>)
{
    return V{f(static_cast<int>(L))...};
}

/** The W-lane vector whose lane l is f(l). */
template <class V, int W, class F>
constexpr V
byLane(F f)
{
    return byLaneImpl<V>(f, std::make_index_sequence<W>{});
}

template <int W>
inline Vec<W>
splat(double s)
{
    return byLane<Vec<W>, W>([s](int) { return s; });
}

template <int W>
inline Vec<W>
load(const double *p)
{
    Vec<W> v{};
    std::memcpy(&v, p, sizeof v);
    return v;
}

template <int W>
inline void
store(double *p, Vec<W> v)
{
    std::memcpy(p, &v, sizeof v);
}

/**
 * Calls f(std::integral_constant<int, B>{}) for the power of two
 * B < Limit equal to `bit`, so shuffle masks built from B are
 * compile-time constants.
 */
template <int Limit, int B = 1, class F>
inline void
withBit(int bit, F &&f)
{
    if constexpr (B < Limit) {
        if (bit == B)
            f(std::integral_constant<int, B>{});
        else
            withBit<Limit, 2 * B>(bit, f);
    }
}

/** W split-complex values. */
template <int W>
struct Split
{
    Vec<W> re, im;
};

template <int W>
inline Split<W>
load(const double *re, const double *im)
{
    return {load<W>(re), load<W>(im)};
}

template <int W>
inline void
store(double *re, double *im, const Split<W> &v)
{
    store<W>(re, v.re);
    store<W>(im, v.im);
}

/** Entry j of a split 2x2 in every lane. */
template <int W>
inline Split<W>
splat(const double *uRe, const double *uIm, int j)
{
    return {splat<W>(uRe[j]), splat<W>(uIm[j])};
}

/** Lane l of the result is lane m[l] of x (of x then y, for two). */
template <int W>
inline Split<W>
shuffle(const Split<W> &x, Idx<W> m)
{
    return {__builtin_shuffle(x.re, m), __builtin_shuffle(x.im, m)};
}

template <int W>
inline Split<W>
shuffle(const Split<W> &x, const Split<W> &y, Idx<W> m)
{
    return {__builtin_shuffle(x.re, y.re, m), __builtin_shuffle(x.im, y.im, m)};
}

/**
 * x . y + z . w, each complex product written as the reference loops
 * write it: the one expression of every 2x2 pair update. The row
 * kernel passes (u, entry) pairs and the column kernel (entry, u)
 * pairs, each in its reference loop's operand order.
 */
template <int W>
inline Split<W>
pairSum(const Split<W> &x, const Split<W> &y, const Split<W> &z,
        const Split<W> &w)
{
    return {x.re * y.re - x.im * y.im + z.re * w.re - z.im * w.im,
            x.re * y.im + x.im * y.re + z.re * w.im + z.im * w.re};
}

/** M := (u on qubit bit) . M, rows r0 and r0 | bit a vector at a time. */
template <int W>
void
apply2x2Rows(double *re, double *im, const double *uRe, const double *uIm,
             int bit, int d)
{
    if constexpr (W > 2) {
        if (d < W)
            return apply2x2Rows<W / 2>(re, im, uRe, uIm, bit, d);
    }
    const Split<W> u0 = splat<W>(uRe, uIm, 0), u1 = splat<W>(uRe, uIm, 1);
    const Split<W> u2 = splat<W>(uRe, uIm, 2), u3 = splat<W>(uRe, uIm, 3);
    for (int r0 = 0; r0 < d; ++r0) {
        if (r0 & bit)
            continue;
        double *re0 = re + r0 * d, *im0 = im + r0 * d;
        double *re1 = re0 + bit * d, *im1 = im0 + bit * d;
        for (int c = 0; c < d; c += W) {
            const Split<W> a = load<W>(re0 + c, im0 + c);
            const Split<W> b = load<W>(re1 + c, im1 + c);
            store<W>(re0 + c, im0 + c, pairSum<W>(u0, a, u1, b));
            store<W>(re1 + c, im1 + c, pairSum<W>(u2, a, u3, b));
        }
    }
}

/** M := M . (u on qubit bit), columns c0 and c0 | bit. */
template <int W>
void
apply2x2Cols(double *re, double *im, const double *uRe, const double *uIm,
             int bit, int d)
{
    if constexpr (W > 2) {
        if (d < W)
            return apply2x2Cols<W / 2>(re, im, uRe, uIm, bit, d);
    }
    if (bit >= W) {
        // Runs of >= W contiguous columns: a pair's two columns sit in
        // two vectors, `bit` apart.
        const Split<W> u0 = splat<W>(uRe, uIm, 0), u1 = splat<W>(uRe, uIm, 1);
        const Split<W> u2 = splat<W>(uRe, uIm, 2), u3 = splat<W>(uRe, uIm, 3);
        for (int r = 0; r < d; ++r) {
            for (int c0 = 0; c0 < d; c0 += W) {
                if (c0 & bit)
                    continue;
                double *re0 = re + r * d + c0, *im0 = im + r * d + c0;
                double *re1 = re0 + bit, *im1 = im0 + bit;
                const Split<W> a = load<W>(re0, im0);
                const Split<W> b = load<W>(re1, im1);
                store<W>(re0, im0, pairSum<W>(a, u0, b, u2));
                store<W>(re1, im1, pairSum<W>(a, u1, b, u3));
            }
        }
        return;
    }
    withBit<W>(bit, [&](auto b) {
        // Both columns of a pair sit in one vector. Each lane takes its
        // pair's low and high column by a shuffle, and low-column lanes
        // the coefficients u0/u2, high-column lanes u1/u3.
        constexpr int B = decltype(b)::value;
        constexpr Idx<W> low = byLane<Idx<W>, W>([](int l) { return l & ~B; });
        constexpr Idx<W> high = byLane<Idx<W>, W>([](int l) { return l | B; });
        constexpr Idx<W> pick =
            byLane<Idx<W>, W>([](int l) { return (l & B) ? W + l : l; });
        const Split<W> p = shuffle<W>(splat<W>(uRe, uIm, 0),
                                      splat<W>(uRe, uIm, 1), pick);
        const Split<W> q = shuffle<W>(splat<W>(uRe, uIm, 2),
                                      splat<W>(uRe, uIm, 3), pick);
        for (int r = 0; r < d; ++r) {
            double *rowRe = re + r * d, *rowIm = im + r * d;
            for (int c = 0; c < d; c += W) {
                const Split<W> x = load<W>(rowRe + c, rowIm + c);
                store<W>(rowRe + c, rowIm + c,
                         pairSum<W>(shuffle<W>(x, low), p,
                                    shuffle<W>(x, high), q));
            }
        }
    });
}

/**
 * A complex coefficient over interleaved lanes (re, im, re, im, ...):
 * its real part in every lane, and its imaginary part negated in the
 * real lanes.
 */
template <int W>
struct Coef
{
    explicit Coef(Complex u)
        : re(splat<W>(u.real())),
          im(byLane<Vec<W>, W>(
              [u](int l) { return l & 1 ? u.imag() : -u.imag(); }))
    {
    }

    Vec<W> re, im;
};

/**
 * p . a + q . b on interleaved complex lanes: the one expression of the
 * statevector update. Each product is the reference's
 * (re = pr ar - pi ai, im = pr ai + pi ar), then the two are summed.
 */
template <int W>
inline Vec<W>
cmulPair(Vec<W> a, Vec<W> b, const Coef<W> &p, const Coef<W> &q)
{
    constexpr Idx<W> swapReIm = byLane<Idx<W>, W>([](int l) { return l ^ 1; });
    return (a * p.re + __builtin_shuffle(a, swapReIm) * p.im) +
           (b * q.re + __builtin_shuffle(b, swapReIm) * q.im);
}

/** Statevector one-qubit gate over interleaved complex amplitudes. */
template <int W>
void
svApply1q(Complex *amps, size_t dim, int qubit, const Complex *u)
{
    if constexpr (W > 2) {
        if (dim < W)
            return svApply1q<W / 2>(amps, dim, qubit, u);
    }
    constexpr int kPerVec = W / 2;  // complexes per vector
    const Coef<W> u0(u[0]), u1(u[1]), u2(u[2]), u3(u[3]);
    const size_t mask = size_t{1} << qubit;
    double *p = reinterpret_cast<double *>(amps);
    if (mask >= size_t{kPerVec}) {
        // Runs of >= W/2 complexes: amplitude i0 and its partner
        // i0 | mask sit in two vectors.
        for (size_t base = 0; base < dim; base += 2 * mask) {
            for (size_t i0 = base; i0 < base + mask; i0 += kPerVec) {
                double *p0 = p + 2 * i0, *p1 = p + 2 * (i0 | mask);
                const Vec<W> a = load<W>(p0), b = load<W>(p1);
                store<W>(p0, cmulPair<W>(a, b, u0, u1));
                store<W>(p1, cmulPair<W>(a, b, u2, u3));
            }
        }
        return;
    }
    if constexpr (kPerVec > 1) {
        withBit<kPerVec>(static_cast<int>(mask), [&](auto m) {
            // Both amplitudes of a pair sit in one vector. Two vectors
            // hold W amplitudes, W/2 pairs: gather the pairs' low
            // amplitudes into one vector and their high ones into
            // another, update them as above, and scatter them back.
            constexpr int M = decltype(m)::value;
            // Amplitude k of the two vectors belongs to pair pairOf(k),
            // k without bit M; pair j's low amplitude is lowOf(j), j
            // with a 0 inserted at bit M. Lane l holds part l & 1 (re,
            // im) of amplitude l / 2.
            constexpr auto lowOf = [](int j) {
                return ((j & ~(M - 1)) << 1) | (j & (M - 1));
            };
            constexpr auto pairOf = [](int k) {
                return ((k >> 1) & ~(M - 1)) | (k & (M - 1));
            };
            constexpr Idx<W> gatherLow = byLane<Idx<W>, W>(
                [lowOf](int l) { return 2 * lowOf(l / 2) + (l & 1); });
            constexpr Idx<W> gatherHigh = byLane<Idx<W>, W>(
                [lowOf](int l) { return 2 * (lowOf(l / 2) | M) + (l & 1); });
            // Amplitude k comes back from the low results (lanes
            // 0..W-1 of n0:n1) or the high ones (lanes W..2W-1).
            constexpr auto scatter = [pairOf](int k, int part) {
                return ((k & M) ? W : 0) + 2 * pairOf(k) + part;
            };
            constexpr Idx<W> scatterFirst = byLane<Idx<W>, W>(
                [scatter](int l) { return scatter(l / 2, l & 1); });
            constexpr Idx<W> scatterSecond = byLane<Idx<W>, W>(
                [scatter](int l) { return scatter(W / 2 + l / 2, l & 1); });
            for (size_t i = 0; i < dim; i += W) {
                const Vec<W> x = load<W>(p + 2 * i), y = load<W>(p + 2 * i + W);
                const Vec<W> a = __builtin_shuffle(x, y, gatherLow);
                const Vec<W> b = __builtin_shuffle(x, y, gatherHigh);
                const Vec<W> n0 = cmulPair<W>(a, b, u0, u1);
                const Vec<W> n1 = cmulPair<W>(a, b, u2, u3);
                store<W>(p + 2 * i, __builtin_shuffle(n0, n1, scatterFirst));
                store<W>(p + 2 * i + W,
                         __builtin_shuffle(n0, n1, scatterSecond));
            }
        });
    }
}

}  // namespace
}  // namespace kernels
}  // namespace geyser

#endif  // GEYSER_LINALG_KERNELS_SIMD_HPP
