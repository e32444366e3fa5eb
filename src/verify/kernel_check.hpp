/**
 * @file
 * Differential cross-check of the incremental environment-contraction
 * kernel (compose/evaluator) against the dense reference oracle
 * overlapTrace(target, Ansatz::unitary(...)) (verify/equivalence),
 * which builds the product with Matrix arithmetic and enters no compute
 * backend, so it reads the same under every GEYSER_BACKEND. The
 * composer's correctness rests on the incremental trace being
 * *numerically identical* to the dense one, so this check drives
 * randomized ansatze (qubit counts, layer counts, entangler patterns,
 * angle perturbations) through the full sweep protocol — folds,
 * environment updates and random unitaries committed as 2x2s,
 * repeated interleaved sweeps that carry those 2x2s across sweeps and
 * would expose stale environments, and their conversion to angles —
 * and compares every fold (contracted with a random U3) and every
 * confirmed trace against a freshly built dense trace of the same 2x2s,
 * and every full trace against the dense trace of the converted
 * angles.
 */
#ifndef GEYSER_VERIFY_KERNEL_CHECK_HPP
#define GEYSER_VERIFY_KERNEL_CHECK_HPP

#include <cstdint>
#include <string>

namespace geyser {
namespace verify {

/** Parameters of one randomized kernel cross-check run. */
struct KernelCheckOptions
{
    /** Random (ansatz, target, sweep) scenarios to drive. */
    int trials = 20;
    /** Absolute |incremental - dense| trace tolerance. */
    double tolerance = 1e-12;
    uint64_t seed = 1;
};

/** Outcome of a kernel cross-check. */
struct KernelCheckReport
{
    bool pass = false;
    long tracesChecked = 0;
    double maxDeviation = 0.0;  ///< Worst |incremental - dense| seen.
    /** One-line summary (filled on pass and fail). */
    std::string detail;
};

/**
 * Drive randomized scenarios over 2-4 qubit ansatze, 1-5 layers, mixed
 * entangler patterns, random targets and angle perturbations; the last
 * trial takes the deepest shape the evaluator holds (4 qubits,
 * AnsatzEvaluator::kMaxColumns - 1 layers). Deterministic for a given
 * seed.
 */
KernelCheckReport checkComposeKernel(const KernelCheckOptions &options = {});

}  // namespace verify
}  // namespace geyser

#endif  // GEYSER_VERIFY_KERNEL_CHECK_HPP
