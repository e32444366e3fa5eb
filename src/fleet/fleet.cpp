#include "fleet/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string_view>
#include <utility>

#include "cache/result_cache.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "io/qasm_parser.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace geyser {
namespace fleet {

namespace {

using StageClock = std::chrono::steady_clock;

double
msSince(StageClock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(StageClock::now() - t0)
        .count();
}

/** Always-on fleet counters, exported as geyser_fleet_* families. */
struct FleetCounters
{
    obs::Counter &jobs = obs::serviceCounter("fleet.jobs");
    obs::Counter &groups = obs::serviceCounter("fleet.groups");
    obs::Counter &rebound = obs::serviceCounter("fleet.rebound");
    obs::Counter &fallback = obs::serviceCounter("fleet.fallback");
    obs::Counter &planHits = obs::serviceCounter("fleet.plan_hit");
    obs::Counter &planStores = obs::serviceCounter("fleet.plan_store");
    obs::Counter &verifyFailures =
        obs::serviceCounter("fleet.verify_failure");

    static FleetCounters &get()
    {
        static FleetCounters instance;
        return instance;
    }
};

double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/** Gate-by-gate equality within an absolute parameter tolerance. */
bool
circuitsMatch(const Circuit &a, const Circuit &b, double tolerance)
{
    if (a.numQubits() != b.numQubits() || a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        const Gate &ga = a.gates()[i];
        const Gate &gb = b.gates()[i];
        if (ga.kind() != gb.kind() || ga.numQubits() != gb.numQubits())
            return false;
        for (int q = 0; q < ga.numQubits(); ++q)
            if (ga.qubit(q) != gb.qubit(q))
                return false;
        const int params = gateKindParamCount(ga.kind());
        for (int p = 0; p < params; ++p)
            if (std::abs(ga.param(p) - gb.param(p)) > tolerance)
                return false;
    }
    return true;
}

const char *
topologyNameFor(Technique technique)
{
    return technique == Technique::Superconducting ? "square" : "triangular";
}

/** Acquire a group's plan: cache load, else build + store. */
std::optional<SkeletonPlan>
acquirePlan(const SkeletonGroup &group, const Circuit &representative,
            const FleetOptions &options, FleetReport &report)
{
    cache::ResultCache *cache = options.pipeline.cache;
    const bool usable = cache != nullptr && cache->enabled();
    std::string key;
    if (usable) {
        key = cache::skeletonCacheKey(representative,
                                      slotPairs(group.varyingSlots),
                                      options.pipeline, Technique::Geyser);
        if (auto payload = cache->load(key)) {
            if (auto plan = skeletonPlanFromText(*payload)) {
                if (plan->technique == Technique::Geyser) {
                    ++report.planHits;
                    FleetCounters::get().planHits.add();
                    return plan;
                }
            }
            // Framed checksum passed but the plan does not parse: the
            // serializer skewed — quarantine so the next run recomputes.
            obs::counter("cache.invalid_payload").add();
            cache->quarantineEntry(key);
        }
    }
    auto plan = buildSkeletonPlan(Technique::Geyser, representative,
                                  group.varyingSlots, options.pipeline,
                                  /*cachedCompose=*/true);
    if (plan && usable && cache->store(key, skeletonPlanToText(*plan))) {
        ++report.planStores;
        FleetCounters::get().planStores.add();
    }
    return plan;
}

/**
 * The served circuits of a group's first `limit` re-bound members in
 * group order, collected while members finish in any order. The verify
 * loop compares what was served; keeping only these circuits, not every
 * member's whole result, bounds a sweep's memory by the sample.
 */
class VerifySample
{
  public:
    explicit VerifySample(int limit) : limit_(limit) {}

    /** Offer re-bound member `gi`'s served circuit. */
    void offer(int gi, const Circuit &physical)
    {
        if (limit_ <= 0)
            return;
        std::lock_guard<std::mutex> lock(mu_);
        if (static_cast<int>(kept_.size()) == limit_) {
            if (gi > kept_.back().first)
                return;
            kept_.pop_back();
        }
        const auto at = std::lower_bound(
            kept_.begin(), kept_.end(), gi,
            [](const auto &entry, int value) { return entry.first < value; });
        kept_.emplace(at, gi, physical);
    }

    /** (group index, served circuit), in group order. */
    const std::vector<std::pair<int, Circuit>> &kept() const { return kept_; }

  private:
    const int limit_;
    std::mutex mu_;
    std::vector<std::pair<int, Circuit>> kept_;
};

void
forEach(int n, bool parallel, const std::function<void(int)> &fn)
{
    if (parallel) {
        globalPool().parallelFor(n, fn);
    } else {
        for (int i = 0; i < n; ++i)
            fn(i);
    }
}

}  // namespace

double
FleetReport::reuseRatio() const
{
    long eligible = 0;
    for (const MemberRow &row : rows)
        if (row.technique == Technique::Geyser)
            ++eligible;
    if (eligible == 0)
        return 0.0;
    return static_cast<double>(rebound) / static_cast<double>(eligible);
}

FleetReport
compileFleet(const std::vector<FleetJob> &jobs, const FleetOptions &options)
{
    const auto t0 = StageClock::now();
    obs::Span span("fleet.compile", "fleet");
    FleetCounters &counters = FleetCounters::get();

    FleetReport report;
    report.members = static_cast<long>(jobs.size());

    // Reject invalid members before any compilation starts: a fleet is
    // one request, and half-compiled batches help nobody.
    for (const FleetJob &job : jobs)
        job.logical.validate();

    cache::ResultCache *cache = options.pipeline.cache;
    const cache::CacheStats statsBefore =
        cache != nullptr ? cache->stats() : cache::CacheStats{};

    // Group the jobs' own circuits: no member is copied.
    std::vector<const Circuit *> circuits;
    circuits.reserve(jobs.size());
    for (const FleetJob &job : jobs)
        circuits.push_back(&job.logical);
    const std::vector<SkeletonGroup> groups = groupBySkeleton(circuits);
    report.groups = static_cast<long>(groups.size());
    counters.groups.add(report.groups);

    for (const Technique technique : options.techniques) {
        std::vector<MemberRow> rows(jobs.size());
        // Whole results are kept for the TVD sample only.
        std::vector<CompileResult> tvdResults(std::min(
            jobs.size(), static_cast<size_t>(std::max(options.tvdSample, 0))));
        auto recordRow = [&](int m, CompileResult &&result, bool viaRebind,
                             bool viaFallback) {
            MemberRow &row = rows[static_cast<size_t>(m)];
            row.name = jobs[static_cast<size_t>(m)].name;
            row.technique = technique;
            row.pulses = result.stats.totalPulses;
            row.depth = result.stats.depthPulses;
            row.compileMs = result.totalMs;
            row.rebound = viaRebind;
            row.fallback = viaFallback;
            row.cacheHit = result.cacheHit;
            if (static_cast<size_t>(m) < tvdResults.size())
                tvdResults[static_cast<size_t>(m)] = std::move(result);
        };

        if (technique != Technique::Geyser) {
            // No composition stage to share: member-by-member through
            // the exact cache (identical members still dedupe there).
            forEach(static_cast<int>(jobs.size()), options.parallel,
                    [&](int m) {
                        recordRow(m,
                                  compile(technique,
                                          jobs[static_cast<size_t>(m)].logical,
                                          options.pipeline),
                                  false, false);
                    });
        } else {
            for (const SkeletonGroup &group : groups) {
                const Circuit &representative =
                    jobs[static_cast<size_t>(group.members.front())].logical;
                std::optional<SkeletonPlan> plan =
                    acquirePlan(group, representative, options, report);
                VerifySample sample(options.verifySample);

                forEach(static_cast<int>(group.members.size()),
                        options.parallel, [&](int gi) {
                            const int m =
                                group.members[static_cast<size_t>(gi)];
                            const Circuit &member =
                                jobs[static_cast<size_t>(m)].logical;
                            if (plan) {
                                if (auto r = rebindMember(*plan, member,
                                                          options.pipeline)) {
                                    sample.offer(gi, r->physical);
                                    recordRow(m, std::move(*r), true, false);
                                    return;
                                }
                            }
                            recordRow(m,
                                      compile(technique, member,
                                              options.pipeline),
                                      false, plan.has_value());
                        });

                // Verify the group's first `verifySample` re-bound
                // members against a from-scratch compile of the same
                // construction — the oracle builds its own plan with
                // member-as-rep and a memo-free composition path, so
                // equality proves the cached segments replay exactly.
                for (const auto &[gi, served] : sample.kept()) {
                    const int m = group.members[static_cast<size_t>(gi)];
                    MemberRow &row = rows[static_cast<size_t>(m)];
                    const Circuit &member =
                        jobs[static_cast<size_t>(m)].logical;
                    bool ok = false;
                    if (auto oraclePlan = buildSkeletonPlan(
                            Technique::Geyser, member, group.varyingSlots,
                            options.pipeline, /*cachedCompose=*/false)) {
                        if (auto oracle = rebindMember(
                                *oraclePlan, member, options.pipeline))
                            ok = circuitsMatch(served, oracle->physical,
                                               options.verifyTolerance);
                    }
                    ++report.verified;
                    if (ok) {
                        row.verified = true;
                    } else {
                        ++report.verifyFailures;
                        counters.verifyFailures.add();
                    }
                }
            }
        }

        // Optional noisy-TVD sample for the fair-comparison column.
        for (size_t s = 0; s < tvdResults.size(); ++s)
            rows[s].tvd = evaluateTvd(tvdResults[s], options.noise,
                                      options.trajectories);

        // Fold this technique's rows into the report.
        TechniqueSummary summary;
        summary.technique = technique;
        summary.topology = topologyNameFor(technique);
        std::vector<double> times;
        times.reserve(rows.size());
        double tvdSum = 0.0;
        for (const MemberRow &row : rows) {
            ++summary.members;
            summary.totalPulses += row.pulses;
            summary.meanDepth += static_cast<double>(row.depth);
            summary.meanMs += row.compileMs;
            times.push_back(row.compileMs);
            if (row.rebound)
                ++summary.rebound;
            if (row.fallback)
                ++summary.fallback;
            if (row.cacheHit)
                ++summary.cacheHits;
            if (row.tvd >= 0.0) {
                tvdSum += row.tvd;
                ++summary.tvdSampled;
            }
        }
        if (summary.members > 0) {
            summary.meanPulses =
                static_cast<double>(summary.totalPulses) /
                static_cast<double>(summary.members);
            summary.meanDepth /= static_cast<double>(summary.members);
            summary.meanMs /= static_cast<double>(summary.members);
        }
        if (summary.tvdSampled > 0)
            summary.meanTvd = tvdSum / static_cast<double>(summary.tvdSampled);
        std::sort(times.begin(), times.end());
        summary.p50Ms = percentile(times, 50.0);
        summary.p90Ms = percentile(times, 90.0);
        summary.p99Ms = percentile(times, 99.0);
        report.rebound += summary.rebound;
        report.fallback += summary.fallback;
        counters.rebound.add(summary.rebound);
        counters.fallback.add(summary.fallback);
        report.techniques.push_back(std::move(summary));
        for (MemberRow &row : rows)
            report.rows.push_back(std::move(row));
    }

    report.jobs = static_cast<long>(report.rows.size());
    counters.jobs.add(report.jobs);
    if (cache != nullptr) {
        const cache::CacheStats after = cache->stats();
        report.cacheHits = after.hits - statsBefore.hits;
        report.cacheMisses = after.misses - statsBefore.misses;
        report.cacheCorrupt = after.corrupt - statsBefore.corrupt;
    }
    report.wallMs = msSince(t0);
    return report;
}

std::string
FleetReport::toJson(int indent) const
{
    obs::Json doc = obs::Json::object();
    doc.set("tool", "geyser-fleet");
    doc.set("pipelineVersion", kPipelineVersion);
    doc.set("members", members);
    doc.set("jobs", jobs);
    doc.set("groups", groups);
    doc.set("rebound", rebound);
    doc.set("fallback", fallback);
    doc.set("reuseRatio", reuseRatio());
    doc.set("verified", verified);
    doc.set("verifyFailures", verifyFailures);
    doc.set("wallMs", wallMs);
    obs::Json cacheObj = obs::Json::object();
    cacheObj.set("hits", cacheHits);
    cacheObj.set("misses", cacheMisses);
    cacheObj.set("corrupt", cacheCorrupt);
    cacheObj.set("planHits", planHits);
    cacheObj.set("planStores", planStores);
    doc.set("cache", std::move(cacheObj));

    obs::Json techniquesArr = obs::Json::array();
    for (const TechniqueSummary &s : techniques) {
        obs::Json t = obs::Json::object();
        t.set("technique", techniqueName(s.technique));
        t.set("topology", s.topology);
        t.set("members", s.members);
        t.set("totalPulses", static_cast<double>(s.totalPulses));
        t.set("meanPulses", s.meanPulses);
        t.set("meanDepth", s.meanDepth);
        obs::Json ms = obs::Json::object();
        ms.set("mean", s.meanMs);
        ms.set("p50", s.p50Ms);
        ms.set("p90", s.p90Ms);
        ms.set("p99", s.p99Ms);
        t.set("compileMs", std::move(ms));
        t.set("rebound", s.rebound);
        t.set("fallback", s.fallback);
        t.set("cacheHits", s.cacheHits);
        if (s.tvdSampled > 0) {
            obs::Json tvd = obs::Json::object();
            tvd.set("sampled", s.tvdSampled);
            tvd.set("mean", s.meanTvd);
            t.set("tvd", std::move(tvd));
        }
        techniquesArr.push(std::move(t));
    }
    doc.set("techniques", std::move(techniquesArr));

    // Per-member rows only for small fleets: a 1000-member report stays
    // a summary, not a dump.
    if (rows.size() <= 64) {
        obs::Json rowsArr = obs::Json::array();
        for (const MemberRow &row : rows) {
            obs::Json r = obs::Json::object();
            r.set("name", row.name);
            r.set("technique", techniqueName(row.technique));
            r.set("pulses", row.pulses);
            r.set("depth", row.depth);
            r.set("compileMs", row.compileMs);
            r.set("rebound", row.rebound);
            r.set("fallback", row.fallback);
            r.set("cacheHit", row.cacheHit);
            if (row.tvd >= 0.0)
                r.set("tvd", row.tvd);
            rowsArr.push(std::move(r));
        }
        doc.set("rows", std::move(rowsArr));
    }
    return doc.dump(indent);
}

std::string
FleetReport::renderTable() const
{
    std::string out;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "fleet: %ld members, %ld jobs, %ld groups | rebound "
                  "%ld fallback %ld (reuse %.3f) | plans hit/store %ld/%ld "
                  "| verify %ld ok / %ld failed | %.0f ms\n",
                  members, jobs, groups, rebound, fallback, reuseRatio(),
                  planHits, planStores, verified - verifyFailures,
                  verifyFailures, wallMs);
    out += buf;
    std::snprintf(buf, sizeof(buf), "%-16s %-10s %10s %10s %9s %9s %9s %8s %8s %10s\n",
                  "technique", "topology", "meanPulses", "meanDepth",
                  "p50 ms", "p90 ms", "p99 ms", "rebound", "fallback",
                  "meanTVD");
    out += buf;
    out += std::string(std::strlen(buf) > 1 ? std::strlen(buf) - 1 : 0, '-');
    out += '\n';
    for (const TechniqueSummary &s : techniques) {
        std::string tvd = "-";
        if (s.tvdSampled > 0) {
            char tbuf[32];
            std::snprintf(tbuf, sizeof(tbuf), "%.4f", s.meanTvd);
            tvd = tbuf;
        }
        std::snprintf(buf, sizeof(buf),
                      "%-16s %-10s %10.1f %10.1f %9.2f %9.2f %9.2f %8ld %8ld %10s\n",
                      techniqueName(s.technique), s.topology.c_str(),
                      s.meanPulses, s.meanDepth, s.p50Ms, s.p90Ms, s.p99Ms,
                      s.rebound, s.fallback, tvd.c_str());
        out += buf;
    }
    return out;
}

std::vector<FleetJob>
parseFleetPayload(const std::string &payload)
{
    std::vector<FleetJob> jobs;
    size_t start = 0;
    auto flush = [&](size_t end) {
        std::string part = payload.substr(start, end - start);
        // Skip whitespace-only parts (trailing separators, blank tail).
        if (part.find_first_not_of(" \t\r\n") == std::string::npos)
            return;
        const int index = static_cast<int>(jobs.size());
        FleetJob job;
        job.name = "m" + std::to_string(index);
        try {
            job.logical = circuitFromQasm(part);
        } catch (const Error &e) {
            throw ParseError(SourceContext{"fleet member " +
                                               std::to_string(index),
                                           0, -1},
                             e.what());
        }
        jobs.push_back(std::move(job));
    };
    size_t pos = 0;
    while (pos <= payload.size()) {
        size_t nl = payload.find('\n', pos);
        const bool last = nl == std::string::npos;
        const std::string_view lineView(
            payload.data() + pos, (last ? payload.size() : nl) - pos);
        std::string line(lineView);
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line == "%%") {
            flush(pos);
            start = last ? payload.size() : nl + 1;
        }
        if (last)
            break;
        pos = nl + 1;
    }
    flush(payload.size());
    return jobs;
}

}  // namespace fleet
}  // namespace geyser
