/**
 * @file
 * The end-to-end compilation pipeline and the paper's comparative
 * techniques (Sec 4):
 *
 *  - Baseline: lower to {U3, CZ} and route onto the triangular atom
 *    lattice; no optimization (Baker et al.-style mapping).
 *  - OptiMap: Baseline plus all gate-level optimizations (1q fusion,
 *    CZ cancellation) before and after routing.
 *  - Geyser: OptiMap plus circuit blocking (Algorithm 1) and block
 *    composition into native CCZ gates (Algorithm 2).
 *  - Superconducting: OptiMap-style compilation onto a 4-neighbour
 *    square grid with no CCZ support (the paper's best-case
 *    superconducting comparison).
 */
#ifndef GEYSER_GEYSER_PIPELINE_HPP
#define GEYSER_GEYSER_PIPELINE_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "blocking/blocker.hpp"
#include "circuit/circuit.hpp"
#include "compose/composer.hpp"
#include "metrics/metrics.hpp"
#include "sim/noise.hpp"
#include "sim/trajectory.hpp"
#include "topology/topology.hpp"

namespace geyser {

class CancelToken;

namespace cache {
class ResultCache;
}  // namespace cache

/**
 * Behavioural version of the whole pipeline, folded into every
 * persistent-cache key (src/cache). Bump it whenever any change can
 * alter a compiled circuit bit-for-bit (new passes, different sweep
 * orders, retuned budgets); stale on-disk entries then simply stop
 * matching and age out of the cache. Replaces the hand-bumped version
 * string that used to live in bench/common.cpp (history: v4 added stage
 * wall times, v5 the incremental composition kernel, v6 this constant
 * and the checksummed cache framing, v7 the SIMD compute backends —
 * FMA contraction and reduction-order changes shift composed circuits
 * within rounding, v8 the depth-1 composition certificate — circuits
 * unchanged, but certified searches charge no evaluations, and cache
 * entries store compositionEvaluations; v9: trajectories defer the
 * no-jump damping factor; noisy TVD moves within rounding; no compiled
 * circuit changed).
 */
inline constexpr int kPipelineVersion = 9;

/** The compilation strategy to apply. */
enum class Technique { Baseline, OptiMap, Geyser, Superconducting };

/** Display name ("Baseline", "OptiMap", ...). */
const char *techniqueName(Technique technique);

/** Pipeline configuration. */
struct PipelineOptions
{
    BlockerOptions blocker;
    ComposeOptions compose;
    /**
     * Differentially verify every transpiler stage (basis translation,
     * optimization, each routing candidate) and the final result against
     * the logical source, throwing verify::VerificationError on the
     * first divergence. Exact stages are checked at the unitary level up
     * to global phase (layout-aware once routed); the approximate Geyser
     * composition is checked against the distribution bound. The
     * tolerances are verify::EquivalenceOptions' defaults. Costs an
     * extra simulation per stage — an opt-in self-check, not a default.
     */
    bool verifyEquivalence = false;
    /**
     * Optional persistent result cache (not owned). When set, compile()
     * serves whole-circuit results content-addressed on the logical
     * circuit + behavioural options + technique + kPipelineVersion.
     * Concurrent misses on one key compute once (single-flight);
     * corrupt, stale or inconsistent entries degrade to a recompute,
     * never an error. nullptr compiles uncached.
     */
    cache::ResultCache *cache = nullptr;
    /**
     * Optional cooperative cancellation/deadline token (not owned).
     * compile() calls cancel->checkpoint(stage) at every stage boundary,
     * per composed block and in the composer's search loops; a tripped
     * token unwinds the compile with CancelledError/DeadlineError at the
     * next checkpoint and records the stage a running compile is in.
     * nullptr compiles uninterruptible (the pre-service behaviour).
     */
    const CancelToken *cancel = nullptr;
};

/** Everything the benches report about one compiled circuit. */
struct CompileResult
{
    Technique technique = Technique::Baseline;
    Circuit logical;                ///< The input program.
    Circuit physical;               ///< Final circuit over atom indices.
    Topology topology;              ///< The atom arrangement used.
    std::vector<Qubit> initialLayout; ///< logical qubit -> atom at entry.
    std::vector<Qubit> finalLayout; ///< logical qubit -> atom after routing.
    CircuitStats stats;             ///< Counts; depth is restriction-aware.
    int swapsInserted = 0;
    // Geyser-only details.
    int blockCount = 0;
    int composedBlockCount = 0;
    long compositionEvaluations = 0;
    double maxBlockHsd = 0.0;
    // Stage wall-clock times, populated unconditionally on every compile
    // (zero for stages a technique does not run, and replayed verbatim
    // from the bench result cache).
    double transpileMs = 0.0;  ///< Basis + optimization + routing.
    double blockingMs = 0.0;   ///< Algorithm 1 (Geyser only).
    double composeMs = 0.0;    ///< Algorithm 2 (Geyser only).
    double totalMs = 0.0;      ///< Whole compile() call.
    /**
     * True when this result was replayed from the persistent cache
     * instead of compiled (set per call, never serialized; the stage
     * times above are then the original compute's).
     */
    bool cacheHit = false;
};

/** Compile with the given technique. */
CompileResult compile(Technique technique, const Circuit &logical,
                      const PipelineOptions &options = {});

CompileResult compileBaseline(const Circuit &logical,
                              const PipelineOptions &options = {});
CompileResult compileOptiMap(const Circuit &logical,
                             const PipelineOptions &options = {});
CompileResult compileGeyser(const Circuit &logical,
                            const PipelineOptions &options = {});
CompileResult compileSuperconducting(const Circuit &logical,
                                     const PipelineOptions &options = {});

/**
 * The shared mapping stage only — basis lowering, optimization passes,
 * and routing with the technique's topology and optimization level —
 * with no blocking or composition. The result's `physical` circuit is
 * the routed pre-blocking circuit; for the non-Geyser techniques this
 * matches the corresponding full compile (stats filled, no final
 * whole-result verification). The fleet re-binder uses this to obtain a
 * sweep member's routed structure and angles cheaply before re-binding
 * them against a cached composed skeleton.
 */
CompileResult transpileForTechnique(Technique technique,
                                    const Circuit &logical,
                                    const PipelineOptions &options = {});

/**
 * Set `result.stats` from `result.physical`: gate and pulse counts, and
 * the depth in pulses from the restriction-aware schedule on
 * `result.topology` (ASAP for Superconducting). compile(), the cache
 * replay and fleet re-binds all take their stats from here.
 */
void fillStats(CompileResult &result);

/**
 * Blocking (Algorithm 1) and composition (Algorithm 2) on the global
 * pool: the one stage that composes blocks, for compile() and for fleet
 * skeleton plans. Updates a routed `result` (transpileForTechnique) in
 * place: block counts, evaluations, max HSD, stage times, and
 * `physical` once any block composed. `varying` holds three flags per
 * routed gate (empty: none vary); a flagged gate passes through
 * verbatim between the composed runs of fixed gates, and the returned
 * map lists it as (output gate index, routed gate index) — empty when
 * nothing composed. Identical runs (equal composeKey()) compose once,
 * the costliest first, and every copy takes that result and is charged
 * its evaluations. `memo` composes through the process memo
 * (composeBlockCached); without it each run takes the same search from
 * scratch (composeBlockWithSplits).
 */
std::vector<std::pair<int, int>> blockAndCompose(
    CompileResult &result, const PipelineOptions &options,
    const std::vector<uint8_t> &varying = {}, bool memo = true);

/**
 * Project a distribution over the physical atoms down to the logical
 * qubits through the final layout (unused atoms are marginalized out).
 */
Distribution projectToLogical(const Distribution &physical,
                              const std::vector<Qubit> &final_layout,
                              int num_logical, int num_atoms);

/**
 * TVD between the ideal output of the original program and the noisy
 * output of the compiled circuit (paper Figs 15-18).
 */
double evaluateTvd(const CompileResult &result, const NoiseModel &noise,
                   const TrajectoryConfig &config = {});

/**
 * TVD between the ideal outputs of the compiled circuit and the
 * original program — the paper's Sec 6 fidelity sanity check
 * (should be < 1e-2 for Geyser circuits).
 */
double idealTvd(const CompileResult &result);

}  // namespace geyser

#endif  // GEYSER_GEYSER_PIPELINE_HPP
