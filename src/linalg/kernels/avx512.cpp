/**
 * @file
 * AVX-512F/DQ/VL backend: the kernels of simd.hpp at 8 doubles per
 * vector (d = 8, the paper's 3-qubit block, is one vector per row).
 * Compiled with -mavx512f -mavx512dq -mavx512vl -mfma and only entered
 * through the dispatch table after the CPUID check in backend.cpp.
 */
#if defined(__x86_64__) || defined(__i386__)

#include "linalg/kernels/backend.hpp"
#include "linalg/kernels/simd.hpp"

namespace geyser {
namespace kernels {

const ComputeBackend &
avx512Backend()
{
    static const ComputeBackend backend = {
        "avx512",
        apply2x2Rows<8>,
        apply2x2Cols<8>,
        svApply1q<8>,
    };
    return backend;
}

}  // namespace kernels
}  // namespace geyser

#endif  // x86
