/**
 * @file
 * Block composition (paper Sec 3.4, Algorithm 2): replace a block's gate
 * sequence by an equivalent ansatz circuit with native CCZ gates and
 * fewer pulses. Layers are added one at a time; at each depth the ansatz
 * angles are optimized to minimize the Hilbert-Schmidt distance to the
 * block's unitary, stopping when the distance drops below the threshold
 * or the composed pulse count would exceed the original's.
 *
 * Two optimizers are available:
 *  - Rotosolve (the default): exact coordinate descent — every U3 angle
 *    enters the trace Tr(O^dagger C) sinusoidally, so its optimum given
 *    the other angles has a closed form; sweeps converge monotonically.
 *  - DualAnnealing: the paper's choice (global annealing + local
 *    polish), kept as the paper-faithful ablation.
 */
#ifndef GEYSER_COMPOSE_COMPOSER_HPP
#define GEYSER_COMPOSE_COMPOSER_HPP

#include <cstddef>
#include <cstdint>

#include "compose/ansatz.hpp"
#include "compose/evaluator.hpp"
#include "linalg/matrix.hpp"

namespace geyser {

class CancelToken;
struct BlockerOptions;

namespace io {
struct Fnv128;
}  // namespace io

/** Optimization strategy for the angle search. */
enum class ComposeOptimizer { Rotosolve, DualAnnealing };

/**
 * Options for composing one block: exactly what feedBehaviourOptions
 * hashes. Only the optimizer and the entangler mode are settable (each
 * has an ablation bench that sets both values); the search setup —
 * layer cap, restarts, sweep and evaluation budgets, split depth and
 * seed — is fixed in composer.cpp, so every compile runs Algorithm 2 on
 * one footing and kPipelineVersion covers it.
 */
struct ComposeOptions
{
    /** HSD acceptance threshold (the paper's 1e-5). */
    static constexpr double threshold = 1e-5;
    ComposeOptimizer optimizer = ComposeOptimizer::Rotosolve;
    EntanglerMode entanglerMode = EntanglerMode::PaperCcz;
};

/** Outcome of composing one block. */
struct ComposeResult
{
    Circuit circuit;      ///< Adopted circuit (composed or the original).
    bool composed = false;///< True if the ansatz replaced the original.
    int layersUsed = 0;   ///< Ansatz depth when composed.
    double hsd = 0.0;     ///< Distance achieved by the adopted circuit.
    long evaluations = 0; ///< Objective evaluations spent.
    int certified = 0;    ///< Searches depthOneHsdBound() skipped,
                          ///< split halves included.
};

/**
 * Compose a block circuit over 1-3 local qubits. Entangler-free blocks
 * are resynthesized exactly (one U3 per active qubit) without any
 * search. Otherwise Algorithm 2 runs, unless its outcome is already
 * fixed: when no ansatz is cheaper than the block, or when every try
 * that is cheaper has depth 1 and depthOneHsdBound() puts it above the
 * threshold, the block is kept as it is without a search (the latter
 * counts in `certified`). The returned circuit is always mathematically
 * equivalent to the input within ComposeOptions::threshold.
 */
ComposeResult composeBlock(const Circuit &block,
                           const ComposeOptions &options = {});

/**
 * composeBlock() plus the midpoint split: a block that cannot compose
 * has its halves composed recursively (two levels deep). This is what a
 * composeBlockCached() miss runs. `cancel` is checkpointed per ansatz
 * depth and per rotosolve sweep.
 */
ComposeResult composeBlockWithSplits(const Circuit &block,
                                     const ComposeOptions &options = {},
                                     const CancelToken *cancel = nullptr);

/**
 * Exact lower bound on the HSD between `target`, a 2- or 3-qubit
 * unitary, and every depth-1 ansatz U3s * E * U3s with entangler `e`.
 * Across a cut of one qubit from the rest, the U3 columns are local, so
 * every such ansatz has E's operator-Schmidt coefficients tau; with
 * sigma the target's, von Neumann's trace inequality gives
 * |Tr(target^dagger V)| <= sum_i sigma_i tau_i. E has at most two
 * coefficients across any such cut, so the bound is the largest over the
 * cuts of 1 - (sigma_1 tau_1 + sigma_2 tau_2) / d. Plain double
 * arithmetic outside the kernel layer, so a target gets the same bound
 * on every compute backend. Throws std::invalid_argument unless
 * `target` is 4 x 4 or 8 x 8.
 */
double depthOneHsdBound(const Matrix &target, Entangler e);

/**
 * What the composition memo keys a block on: a 128-bit FNV-1a hash of
 * its exact content (width, gate kinds, operands, angle bits) and of
 * feedBehaviourOptions(). Blocks with equal keys compose to equal
 * results.
 */
struct ComposeKey
{
    uint64_t hi = 0;
    uint64_t lo = 0;
    bool operator==(const ComposeKey &o) const
    {
        return hi == o.hi && lo == o.lo;
    }
};

/** Hash of a ComposeKey, for unordered containers. */
struct ComposeKeyHash
{
    size_t operator()(const ComposeKey &k) const
    {
        return static_cast<size_t>(k.lo ^ (k.hi * 0x9e3779b97f4a7c15ull));
    }
};

ComposeKey composeKey(const Circuit &block, const ComposeOptions &options);

/**
 * composeBlockWithSplits() through a process-wide memo keyed on
 * composeKey(). Trotterized and arithmetic circuits produce the same
 * local block many times (every Trotter step repeats the bond pattern),
 * so memoization removes most of the composition cost. Thread-safe; `cancel` reaches the search on
 * a miss.
 */
ComposeResult composeBlockCached(const Circuit &block,
                                 const ComposeOptions &options = {},
                                 const CancelToken *cancel = nullptr);

/**
 * Feed every option that can change a compiled circuit into `h`: the
 * optimizer and the entangler mode, plus the blocker's pulse-aware
 * scoring when `blocker` is given (whole-circuit keys; how a block was
 * found does not change its composition), then the arithmetic the
 * compile runs on: the active compute backend's name and the compiler
 * identity (`__VERSION__`), since either can move composed angles.
 * compileCacheKey, skeletonCacheKey and the composition memo all hash
 * their options through this one function, so their option sets cannot
 * drift apart.
 */
void feedBehaviourOptions(io::Fnv128 &h, const ComposeOptions &compose,
                          const BlockerOptions *blocker = nullptr);

/**
 * Rotosolve: minimize 1 - |Tr(target^dagger U(angles))| / dim over the
 * ansatz angles by exact coordinate descent from the given start point.
 * Returns the best angles found through `angles` and the achieved HSD.
 * Convenience wrapper over the evaluator form below.
 */
double rotosolve(const Ansatz &ansatz, const Matrix &target,
                 std::vector<double> &angles, int max_sweeps,
                 double stop_at, long &evaluations);

/**
 * Rotosolve against an incremental AnsatzEvaluator (the hot path: each
 * coordinate probe is an O(1) environment contraction instead of a
 * full O(layers d^3) ansatz product). Starts from the evaluator's
 * current angles; the best angles found remain loaded in the evaluator
 * on return. The returned HSD always comes from an actual trace probe
 * at the accepted angle, never from the closed-form model alone, so
 * accumulated per-coordinate rounding cannot under-report the
 * distance. `evaluations` counts trace probes, directly comparable to
 * the dense path's objective-evaluation counts. A non-null `cancel`
 * token is checkpointed once per sweep.
 */
double rotosolve(AnsatzEvaluator &evaluator, int max_sweeps, double stop_at,
                 long &evaluations, const CancelToken *cancel = nullptr);

}  // namespace geyser

#endif  // GEYSER_COMPOSE_COMPOSER_HPP
