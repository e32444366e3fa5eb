/**
 * @file
 * AVX2+FMA backend: the kernels of simd.hpp at 4 doubles per vector.
 * This TU is compiled with -mavx2 -mfma and is only ever entered
 * through the dispatch table after the CPUID check in backend.cpp, so
 * the binary stays runnable on non-AVX hosts.
 */
#if defined(__x86_64__) || defined(__i386__)

#include "linalg/kernels/backend.hpp"
#include "linalg/kernels/simd.hpp"

namespace geyser {
namespace kernels {

const ComputeBackend &
avx2Backend()
{
    static const ComputeBackend backend = {
        "avx2",
        apply2x2Rows<4>,
        apply2x2Cols<4>,
        svApply1q<4>,
    };
    return backend;
}

}  // namespace kernels
}  // namespace geyser

#endif  // x86
