#include "geyser/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "cache/result_cache.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "io/serialize.hpp"
#include "obs/obs.hpp"
#include "sim/statevector.hpp"
#include "transpile/basis.hpp"
#include "transpile/passes.hpp"
#include "transpile/router.hpp"
#include "transpile/sabre.hpp"
#include "verify/equivalence.hpp"

namespace geyser {

const char *
techniqueName(Technique technique)
{
    switch (technique) {
      case Technique::Baseline:
        return "Baseline";
      case Technique::OptiMap:
        return "OptiMap";
      case Technique::Geyser:
        return "Geyser";
      case Technique::Superconducting:
        return "Superconducting";
    }
    return "?";
}

namespace {

using StageClock = std::chrono::steady_clock;

double
msSince(StageClock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(StageClock::now() - t0)
        .count();
}

/** Cooperative cancellation/deadline check at a stage boundary. */
void
checkpoint(const PipelineOptions &options, const char *stage)
{
    if (options.cancel != nullptr)
        options.cancel->checkpoint(stage);
}

/** Throw VerificationError if `candidate` diverged from `reference`. */
void
verifyStage(const PipelineOptions &options, const char *stage,
            const Circuit &reference, const Circuit &candidate)
{
    if (!options.verifyEquivalence)
        return;
    const auto report = verify::checkUnitary(reference, candidate);
    if (!report.equivalent)
        throw verify::VerificationError(std::string(stage) +
                                        " diverged: " + report.detail);
}

/** Layout-aware variant for routed candidates. */
void
verifyRoutedStage(const PipelineOptions &options, const char *stage,
                  const Circuit &reference, const RoutedCircuit &routed)
{
    if (!options.verifyEquivalence)
        return;
    const auto report =
        verify::checkRouted(reference, routed.circuit, routed.initialLayout,
                            routed.finalLayout);
    if (!report.equivalent)
        throw verify::VerificationError(std::string(stage) +
                                        " diverged: " + report.detail);
}

/**
 * Shared mapping step: lower, optimize, route, re-optimize. The
 * technique fixes the topology (a square grid for Superconducting, the
 * triangular atom lattice otherwise) and whether the optimization
 * passes run (every technique but Baseline).
 */
CompileResult
mapCircuit(Technique technique, const Circuit &logical,
           const PipelineOptions &options)
{
    // Every compile entry point funnels through here: reject invalid
    // circuits (out-of-range operands, duplicates, non-finite angles)
    // before they can reach the transpiler or the simulators.
    logical.validate();
    checkpoint(options, "transpile");

    const bool optimized = technique != Technique::Baseline;

    CompileResult result;
    result.technique = technique;
    result.logical = logical;
    result.topology = technique == Technique::Superconducting
                          ? Topology::squareForQubits(logical.numQubits())
                          : Topology::forQubits(logical.numQubits());
    const Topology &topo = result.topology;

    const auto t0 = StageClock::now();
    obs::Span span("transpile", "pipeline");
    span.arg("technique", techniqueName(technique));
    span.arg("qubits", logical.numQubits());

    Circuit physical;
    {
        obs::Span s("transpile.basis", "pipeline");
        physical = decomposeToBasis(logical);
        s.arg("gates", static_cast<double>(physical.size()));
    }
    verifyStage(options, "basis translation", logical, physical);
    if (optimized) {
        obs::Span s("transpile.optimize.pre", "pipeline");
        optimize(physical);
        s.arg("gates", static_cast<double>(physical.size()));
        verifyStage(options, "pre-routing optimization", logical, physical);
    }
    // Baseline routes from the trivial layout ("no mapping
    // optimizations"); the optimizing techniques try several routing
    // strategies (trivial walk, interaction-aware greedy layout, SABRE
    // lookahead) and keep the cheapest result.
    RoutedCircuit routed;
    {
        obs::Span s("transpile.route", "pipeline");
        s.arg("strategy", "trivial");
        routed = route(physical, topo);
        s.arg("swaps", routed.swapsInserted);
        s.arg("pulses", static_cast<double>(routed.circuit.totalPulses()));
    }
    verifyRoutedStage(options, "routing (trivial walk)", physical, routed);
    checkpoint(options, "route");
    if (optimized) {
        {
            obs::Span s("transpile.optimize.post", "pipeline");
            optimize(routed.circuit);
        }
        verifyRoutedStage(options, "post-routing optimization", physical,
                          routed);
        const auto greedyLayout = chooseInitialLayout(physical, topo);
        const char *names[] = {"routing (greedy layout)", "routing (SABRE)"};
        const char *strategies[] = {"greedy", "sabre"};
        RoutedCircuit candidates[2];
        for (size_t ci = 0; ci < 2; ++ci) {
            checkpoint(options, "route");
            obs::Span s("transpile.route", "pipeline");
            s.arg("strategy", strategies[ci]);
            auto &candidate = candidates[ci];
            candidate = ci == 0 ? route(physical, topo, greedyLayout)
                                : routeSabre(physical, topo, greedyLayout);
            s.arg("swaps", candidate.swapsInserted);
            optimize(candidate.circuit);
            s.arg("pulses",
                  static_cast<double>(candidate.circuit.totalPulses()));
            verifyRoutedStage(options, names[ci], physical, candidate);
            if (candidate.circuit.totalPulses() <
                routed.circuit.totalPulses())
                routed = std::move(candidate);
        }
    }
    result.physical = std::move(routed.circuit);
    result.initialLayout = std::move(routed.initialLayout);
    result.finalLayout = std::move(routed.finalLayout);
    result.swapsInserted = routed.swapsInserted;
    span.arg("swaps", result.swapsInserted);
    result.transpileMs = msSince(t0);
    return result;
}

/** Final whole-result check (distribution-level for Geyser). */
void
verifyResult(const PipelineOptions &options, const CompileResult &result)
{
    if (!options.verifyEquivalence)
        return;
    const auto report = verify::checkCompileResult(result);
    if (!report.equivalent)
        throw verify::VerificationError(
            std::string(techniqueName(result.technique)) +
            " compilation diverged (" + report.method +
            "): " + report.detail);
}

/** One compile body for every technique; only Geyser blocks and composes. */
CompileResult
compileUncached(Technique technique, const Circuit &logical,
                const PipelineOptions &options)
{
    const auto t0 = StageClock::now();
    obs::Span span("compile", "pipeline");
    span.arg("technique", techniqueName(technique));
    CompileResult result = mapCircuit(technique, logical, options);
    if (technique == Technique::Geyser)
        blockAndCompose(result, options);
    fillStats(result);
    verifyResult(options, result);
    result.totalMs = msSince(t0);
    return result;
}

}  // namespace

void
fillStats(CompileResult &result)
{
    // Superconducting qubits have no Rydberg restriction zones.
    result.stats = circuitStats(
        result.physical, result.technique == Technique::Superconducting
                             ? nullptr
                             : &result.topology);
}

std::vector<std::pair<int, int>>
blockAndCompose(CompileResult &result, const PipelineOptions &options,
                const std::vector<uint8_t> &varying, bool memo)
{
    if (!varying.empty() && varying.size() != result.physical.size() * 3)
        throw std::invalid_argument("blockAndCompose: mask size mismatch");
    auto varies = [&](size_t gate) {
        return !varying.empty() && (varying[gate * 3] != 0 ||
                                    varying[gate * 3 + 1] != 0 ||
                                    varying[gate * 3 + 2] != 0);
    };

    // Blocking (Algorithm 1).
    checkpoint(options, "blocking");
    const auto tBlock = StageClock::now();
    BlockedCircuit blocked;
    {
        obs::Span s("blocking", "pipeline");
        blocked =
            blockCircuit(result.physical, result.topology, options.blocker);
        s.arg("blocks", blocked.blockCount());
        s.arg("rounds", static_cast<double>(blocked.rounds.size()));
    }
    result.blockCount = blocked.blockCount();
    result.blockingMs = msSince(tBlock);

    // Composition (Algorithm 2). Each block is cut at its varying gates
    // into runs of fixed gates, and identical runs (every Trotter step,
    // every ripple-carry stage) compose once: a run's composition is a
    // pure function of its content and the options, so neither the seed
    // nor the outcome depends on which block holds it or on the order
    // the runs compose in. The distinct runs go to the pool costliest
    // first, so no long search starts last while the other workers
    // idle. A compile that itself runs on a pool worker (a fleet
    // member) composes inline: parallelFor runs a nested batch on the
    // caller.
    checkpoint(options, "compose");
    const auto tCompose = StageClock::now();
    const int numAtoms = result.topology.numAtoms();
    Circuit out(numAtoms);
    std::vector<std::pair<int, int>> rebindMap;
    {
    obs::Span composeSpan("compose", "pipeline");
    std::vector<const Block *> blocks;
    for (const auto &round : blocked.rounds)
        for (const auto &block : round.blocks)
            blocks.push_back(&block);

    struct Run
    {
        Circuit circuit;      ///< Over the local qubits of its blocks.
        long pulses = 0;
        int firstBlock = 0;   ///< The first block that holds it.
        int copies = 0;       ///< How many times the blocks hold it.
        ComposeResult composed;
    };
    // A block's output in order: its runs and, between them, each
    // varying gate verbatim (`gate` holds its routed index).
    struct Piece
    {
        int run = -1;  ///< Index into `runs`, -1 for a varying gate.
        int gate = -1;
        Circuit verbatim;
    };
    std::vector<Run> runs;
    std::unordered_map<ComposeKey, int, ComposeKeyHash> runIndex;
    std::vector<std::vector<Piece>> pieces(blocks.size());
    for (size_t i = 0; i < blocks.size(); ++i) {
        const Block &block = *blocks[i];
        const Circuit local = blocked.localCircuit(block);
        Circuit run(local.numQubits());
        auto endRun = [&] {
            if (run.size() == 0)
                return;
            const auto [it, fresh] =
                runIndex.emplace(composeKey(run, options.compose),
                                 static_cast<int>(runs.size()));
            if (fresh) {
                Run &added = runs.emplace_back();
                added.pulses = run.totalPulses();
                added.circuit = std::move(run);
                added.firstBlock = static_cast<int>(i);
            }
            ++runs[static_cast<size_t>(it->second)].copies;
            pieces[i].push_back({it->second, -1, {}});
            run = Circuit(local.numQubits());
        };
        for (size_t k = 0; k < local.size(); ++k) {
            const int src = block.opIndices[k];
            if (!varies(static_cast<size_t>(src))) {
                run.append(local.gates()[k]);
                continue;
            }
            endRun();
            Circuit gate(local.numQubits());
            gate.append(local.gates()[k]);
            pieces[i].push_back({-1, src, std::move(gate)});
        }
        endRun();
    }
    std::vector<size_t> order(runs.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return runs[a].pulses > runs[b].pulses;
    });

    // Pool workers don't inherit this thread's trace context (it is
    // thread-local), so capture it here and re-enter it per run;
    // TraceScope(0) is a no-op when no trace is active.
    const uint64_t traceId = obs::currentTraceId();
    auto composeOne = [&](int k) {
        obs::TraceScope trace(traceId);
        // Per-run cancellation: a cancelled compile drains the rest of
        // the batch in O(runs) cheap throws instead of composing on.
        checkpoint(options, "compose");
        obs::Span s("compose.block", "compose");
        Run &run = runs[order[static_cast<size_t>(k)]];
        run.composed =
            memo ? composeBlockCached(run.circuit, options.compose,
                                      options.cancel)
                 : composeBlockWithSplits(run.circuit, options.compose,
                                          options.cancel);
        const ComposeResult &cr = run.composed;
        s.arg("block", run.firstBlock);
        s.arg("atoms", run.circuit.numQubits());
        s.arg("copies", run.copies);
        s.arg("evaluations", static_cast<double>(cr.evaluations));
        s.arg("composed", cr.composed ? 1.0 : 0.0);
        s.arg("layers", cr.layersUsed);
        s.arg("hsd", cr.hsd);
        s.arg("certified", cr.certified);
    };
    globalPool().parallelFor(static_cast<int>(order.size()), composeOne);

    // Reassemble: blocks in round order, each piece remapped to its atoms.
    for (size_t i = 0; i < blocks.size(); ++i) {
        bool blockComposed = false;
        for (const Piece &piece : pieces[i]) {
            if (piece.run < 0) {
                rebindMap.emplace_back(static_cast<int>(out.size()),
                                       piece.gate);
                out.append(piece.verbatim.remapped(blocks[i]->atoms,
                                                   numAtoms));
                continue;
            }
            const ComposeResult &cr =
                runs[static_cast<size_t>(piece.run)].composed;
            out.append(cr.circuit.remapped(blocks[i]->atoms, numAtoms));
            blockComposed = blockComposed || cr.composed;
            result.compositionEvaluations += cr.evaluations;
            result.maxBlockHsd = std::max(result.maxBlockHsd, cr.hsd);
        }
        if (blockComposed)
            ++result.composedBlockCount;
    }
    composeSpan.arg("blocks", result.blockCount);
    composeSpan.arg("composed", result.composedBlockCount);
    composeSpan.arg("evaluations",
                    static_cast<double>(result.compositionEvaluations));
    composeSpan.arg("maxHsd", result.maxBlockHsd);
    }
    result.composeMs = msSince(tCompose);
    // If nothing composed, the block-order reshuffle buys nothing: keep
    // the routed circuit verbatim (Geyser degenerates to OptiMap, as the
    // paper reports for the Advantage benchmark).
    if (result.composedBlockCount == 0)
        return {};
    result.physical = std::move(out);
    return rebindMap;
}

CompileResult
compileBaseline(const Circuit &logical, const PipelineOptions &options)
{
    return compileUncached(Technique::Baseline, logical, options);
}

CompileResult
compileOptiMap(const Circuit &logical, const PipelineOptions &options)
{
    return compileUncached(Technique::OptiMap, logical, options);
}

CompileResult
compileGeyser(const Circuit &logical, const PipelineOptions &options)
{
    return compileUncached(Technique::Geyser, logical, options);
}

CompileResult
compileSuperconducting(const Circuit &logical, const PipelineOptions &options)
{
    return compileUncached(Technique::Superconducting, logical, options);
}

CompileResult
transpileForTechnique(Technique technique, const Circuit &logical,
                      const PipelineOptions &options)
{
    CompileResult result = mapCircuit(technique, logical, options);
    fillStats(result);
    result.totalMs = result.transpileMs;
    return result;
}

CompileResult
compile(Technique technique, const Circuit &logical,
        const PipelineOptions &options)
{
    checkpoint(options, "start");
    cache::ResultCache *cache = options.cache;
    if (cache == nullptr || !cache->enabled())
        return compileUncached(technique, logical, options);

    const std::string key =
        cache::compileCacheKey(logical, options, technique);
    // Single-flight: concurrent misses on this key — other threads, and
    // best-effort other processes — compute once and replay the stored
    // entry. A compute keeps its in-memory result; replays are rebuilt
    // from the serialized payload (checksummed by the cache layer).
    std::optional<CompileResult> computed;
    bool wasHit = false;
    const std::string payload = cache->getOrCompute(key, [&] {
        computed = compileUncached(technique, logical, options);
        return compileResultToText(*computed);
    }, &wasHit);
    if (computed)
        return std::move(*computed);
    auto replayed = compileResultFromText(payload, logical);
    if (replayed && replayed->technique == technique) {
        replayed->cacheHit = wasHit;
        return std::move(*replayed);
    }
    // A payload that passed the checksum but fails to parse or
    // validate, or names another technique than its key, means the
    // serializer and parser disagree, or the entry was written by a
    // skewed build or by hand. Quarantine it so the next run recomputes
    // a good entry instead of replaying the poisoned one forever, and
    // degrade to an uncached compile.
    obs::counter("cache.invalid_payload").add();
    cache->quarantineEntry(key);
    return compileUncached(technique, logical, options);
}

Distribution
projectToLogical(const Distribution &physical,
                 const std::vector<Qubit> &final_layout, int num_logical,
                 int num_atoms)
{
    if (num_atoms < 0 || num_atoms >= 63 || num_logical < 0 ||
        num_logical > num_atoms)
        throw ValidationError("projectToLogical: bad qubit counts");
    if (physical.size() != (size_t{1} << num_atoms))
        throw ValidationError("projectToLogical: size mismatch");
    if (final_layout.size() < static_cast<size_t>(num_logical))
        throw ValidationError("projectToLogical: layout too short");
    for (int q = 0; q < num_logical; ++q) {
        const Qubit atom = final_layout[static_cast<size_t>(q)];
        if (atom < 0 || atom >= num_atoms)
            throw ValidationError(
                "projectToLogical: layout atom out of range");
    }
    Distribution logical(size_t{1} << num_logical, 0.0);
    for (size_t y = 0; y < physical.size(); ++y) {
        if (physical[y] == 0.0)
            continue;
        size_t x = 0;
        for (int q = 0; q < num_logical; ++q) {
            const Qubit atom = final_layout[static_cast<size_t>(q)];
            if (y & (size_t{1} << atom))
                x |= size_t{1} << q;
        }
        logical[x] += physical[y];
    }
    return logical;
}

double
evaluateTvd(const CompileResult &result, const NoiseModel &noise,
            const TrajectoryConfig &config)
{
    const Distribution ideal = idealDistribution(result.logical);
    TrajectoryConfig cfg = config;
    if (noise.crosstalkPhase > 0.0 && cfg.topology == nullptr)
        cfg.topology = &result.topology;
    const Distribution phys =
        noisyDistribution(result.physical, noise, cfg);
    const Distribution projected =
        projectToLogical(phys, result.finalLayout,
                         result.logical.numQubits(),
                         result.physical.numQubits());
    return totalVariationDistance(ideal, projected);
}

double
idealTvd(const CompileResult &result)
{
    const Distribution ideal = idealDistribution(result.logical);
    const Distribution phys = idealDistribution(result.physical);
    const Distribution projected =
        projectToLogical(phys, result.finalLayout,
                         result.logical.numQubits(),
                         result.physical.numQubits());
    return totalVariationDistance(ideal, projected);
}

}  // namespace geyser
