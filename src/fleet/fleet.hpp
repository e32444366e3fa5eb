/**
 * @file
 * Fleet compilation: batch front end over the pipeline that compiles a
 * suite × techniques × parameter-set sweep on one standard footing and
 * emits one aggregate fair-comparison report.
 *
 * The engine groups members by circuit skeleton (fleet/skeleton.hpp),
 * compiles each skeleton once through the persistent cache, then
 * re-binds every member's parameters against the cached composed
 * structure instead of recompiling — turning a thousand-member VQE
 * sweep from a thousand composition searches into one search plus a
 * thousand millisecond-scale re-binds. Members whose transpile
 * diverges from the skeleton (the optimizer is angle-sensitive at
 * identity boundaries) fall back to a plain full compile, so sharing
 * never changes results. Non-Geyser techniques have no composition
 * stage to share and compile member-by-member through the exact cache.
 *
 * Observability: always-on fleet.* counters (fleet.jobs,
 * fleet.rebound, fleet.fallback, fleet.replay_fallbacks, fleet.groups,
 * fleet.plan_hit, fleet.plan_store, fleet.verify_failure), exported to
 * Prometheus as geyser_fleet_* families.
 */
#ifndef GEYSER_FLEET_FLEET_HPP
#define GEYSER_FLEET_FLEET_HPP

#include <string>
#include <vector>

#include "fleet/skeleton.hpp"
#include "geyser/pipeline.hpp"
#include "sim/noise.hpp"
#include "sim/trajectory.hpp"

namespace geyser {
namespace fleet {

/** One member of a fleet: a named logical circuit. */
struct FleetJob
{
    std::string name;
    Circuit logical;
};

/** Fleet-wide configuration. */
struct FleetOptions
{
    /** Techniques to compile every member with (fair comparison). */
    std::vector<Technique> techniques = {Technique::Geyser};
    /** Pipeline configuration; `pipeline.cache` enables skeleton and
     *  exact-entry persistence. */
    PipelineOptions pipeline;
    /**
     * Per skeleton group, how many re-bound members to verify against a
     * from-scratch (uncached, memo-free) compile of the same stitched
     * construction. Mismatches beyond `verifyTolerance` count as
     * fleet.verify_failure. 0 disables verification.
     */
    int verifySample = 1;
    double verifyTolerance = 1e-12;
    /** Compile members of a group concurrently on the global pool. */
    bool parallel = true;
    /**
     * Per technique, how many members to simulate for a noisy-TVD
     * column in the report (0 = skip simulation; it dominates wall time
     * for wide circuits).
     */
    int tvdSample = 0;
    NoiseModel noise;
    TrajectoryConfig trajectories;
};

/** Per-member outcome row. */
struct MemberRow
{
    std::string name;
    Technique technique = Technique::Geyser;
    long pulses = 0;
    long depth = 0;
    double compileMs = 0.0;
    bool rebound = false;   ///< Served by skeleton re-bind.
    bool fallback = false;  ///< Plan existed but this member diverged.
    bool cacheHit = false;  ///< Exact-entry replay (full-compile path).
    bool verified = false;  ///< Sampled and matched the oracle compile.
    double tvd = -1.0;      ///< Noisy TVD when sampled, else -1.
};

/** Aggregate over one technique (one row of the comparison table). */
struct TechniqueSummary
{
    Technique technique = Technique::Geyser;
    std::string topology;  ///< "triangular" or "square".
    long members = 0;
    long long totalPulses = 0;
    double meanPulses = 0.0;
    double meanDepth = 0.0;
    double meanMs = 0.0;
    double p50Ms = 0.0;
    double p90Ms = 0.0;
    double p99Ms = 0.0;
    long rebound = 0;
    long fallback = 0;
    long cacheHits = 0;
    double meanTvd = -1.0;  ///< -1 when no members were simulated.
    long tvdSampled = 0;
};

/** The aggregate fair-comparison report. */
struct FleetReport
{
    long members = 0;   ///< Fleet members (circuits).
    long jobs = 0;      ///< Compiles = members × techniques.
    long groups = 0;    ///< Skeleton groups.
    long rebound = 0;   ///< Jobs served by skeleton re-bind.
    long fallback = 0;  ///< Jobs that diverged from their plan.
    /** Re-binds whose transpile replay diverged, so that they ran the
     *  real transpile (their result is the same either way). */
    long replayFallbacks = 0;
    long planHits = 0;    ///< Skeleton plans loaded from the cache.
    long planStores = 0;  ///< Skeleton plans built and stored.
    long verified = 0;         ///< Re-binds checked against the oracle.
    long verifyFailures = 0;   ///< Checks that exceeded the tolerance.
    double wallMs = 0.0;
    // Result-cache activity delta over this fleet run (exact entries +
    // composed blocks + skeleton plans share one cache).
    long cacheHits = 0;
    long cacheMisses = 0;
    long cacheCorrupt = 0;
    std::vector<TechniqueSummary> techniques;
    std::vector<MemberRow> rows;  ///< members × techniques rows.

    /**
     * Skeleton-reuse ratio: re-bound jobs over skeleton-eligible jobs
     * (Geyser-technique jobs); 0 when none were eligible.
     */
    double reuseRatio() const;

    /** The aggregate report as ordered JSON (schema: DESIGN.md §15). */
    std::string toJson(int indent = 2) const;

    /** Rendered fair-comparison table for terminals. */
    std::string renderTable() const;
};

/** Compile a fleet; never throws for per-member reasons (a member that
 *  fails to compile is recorded, not fatal — but invalid input circuits
 *  throw ValidationError before any compilation starts). */
FleetReport compileFleet(const std::vector<FleetJob> &jobs,
                         const FleetOptions &options);

/**
 * Parse a batch payload: OpenQASM 2.0 programs separated by lines
 * containing exactly "%%". Members are named m0, m1, ... in payload
 * order. Throws ParseError/ValidationError on any malformed member
 * (with the member index in the message).
 */
std::vector<FleetJob> parseFleetPayload(const std::string &payload);

}  // namespace fleet
}  // namespace geyser

#endif  // GEYSER_FLEET_FLEET_HPP
