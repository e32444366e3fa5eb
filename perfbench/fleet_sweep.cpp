/**
 * @file
 * fleet-sweep: a seeded parameter sweep through fleet::compileFleet
 * under Baseline, OptiMap and Geyser. Compose runs once per skeleton, so
 * the time goes to transpile, re-bind, plan encoding and cache writes
 * then reads — layers suite-cold barely touches.
 *
 * The sweep mixes VQE skeletons (which compose nothing) with
 * Toffoli-bearing skeletons whose rotations vary per member (whose
 * fixed segments compose). Every member moves each angle of its
 * skeleton by a seeded offset. Members are interleaved round-robin
 * across skeletons, so the fleet's TVD sample covers every skeleton.
 *
 * Set-up creates a fresh cache directory. The timed pass compiles the
 * sweep under Baseline and OptiMap, then runs a cold Geyser fleet pass
 * (plan builds and stores, composed-block spills) and a warm one on a
 * new ResultCache over the same directory (plan loads). The directory
 * is removed afterwards.
 *
 * Baseline and OptiMap run without the cache. Through it, each member
 * writes then reads one exact entry per technique, and on an ext4 VM
 * disk those file operations cost 100-250 us of kernel time each,
 * drifting 2-5x between runs as the journal fills. That drift swamped
 * every other fleet layer, so the workload keeps the cache traffic the
 * fleet design depends on (plans and composed blocks) and leaves the
 * per-member exact entries to the cache's own tests.
 *
 * The traced pass replays compileFleet through its public steps
 * (groupBySkeleton, skeletonCacheKey + ResultCache::load/store,
 * skeletonPlanFromText/ToText, buildSkeletonPlan, rebindMember, compile
 * for fallbacks and exact entries, the sampled oracle check) and must
 * produce the same rows.
 */
#include <stdlib.h>

#include <cmath>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "algos/algos.hpp"
#include "cache/result_cache.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "fleet/fleet.hpp"
#include "ledger.hpp"
#include "linalg/kernels/backend.hpp"

namespace perfbench {

namespace {

using namespace geyser;
using obs::Json;

/** Members in the sweep (x3 techniques, x2 passes). */
constexpr int kMembers = 24000;
constexpr int kSkeletons = 4;
/** Members simulated per technique for the TVD column (cold pass). */
constexpr int kTvdSample = 32;
constexpr int kTvdTrajectories = 200;
constexpr uint64_t kTvdSeed = 1234;

/**
 * Seed of the VQE skeletons' base angles. Members sit at seeded offsets
 * around these operating points, as an optimizer's sweep does, so the
 * sweep's output quality (pulses, TVD) is comparable across seeds.
 */
constexpr uint64_t kOperatingPoint = 20220611;
/** Half-width of each member's per-angle offset, in radians. */
constexpr double kSpread = 0.2;

/** Two Toffolis over four qubits around two varying rotations. */
Circuit
toffoliPair()
{
    Circuit c(4);
    c.h(0);
    c.h(1);
    c.ccx(0, 1, 2);
    c.ry(3, 1.1);
    c.ccx(1, 2, 3);
    c.rz(0, 2.3);
    c.cx(0, 3);
    return c;
}

/** A Toffoli ladder over three qubits between varying rotation layers. */
Circuit
toffoliLadder()
{
    Circuit c(3);
    c.ry(0, 0.7);
    c.ry(1, 1.9);
    c.ry(2, 2.6);
    c.ccx(0, 1, 2);
    c.h(2);
    c.ccx(2, 0, 1);
    c.rz(0, 0.4);
    c.rz(1, 1.3);
    c.rz(2, 2.2);
    return c;
}

/** `base` with every angle moved by a seeded offset in +-kSpread. */
Circuit
perturbed(const Circuit &base, Rng &rng)
{
    Circuit c = base;
    for (Gate &g : c.gates())
        for (int p = 0; p < gateKindParamCount(g.kind()); ++p)
            g.setParam(p, g.param(p) + rng.uniform(-kSpread, kSpread));
    return c;
}

std::vector<fleet::FleetJob>
makeJobs(uint64_t seed)
{
    const Circuit skeletons[kSkeletons] = {
        vqeBenchmark(4, 1, kOperatingPoint),
        vqeBenchmark(4, 2, kOperatingPoint + 1), toffoliPair(),
        toffoliLadder()};
    std::vector<fleet::FleetJob> jobs;
    jobs.reserve(kMembers);
    for (int m = 0; m < kMembers; ++m) {
        Rng rng(deriveSeed(seed, static_cast<uint64_t>(m)));
        fleet::FleetJob job;
        job.name = "m" + std::to_string(m);
        job.logical = perturbed(skeletons[m % kSkeletons], rng);
        jobs.push_back(std::move(job));
    }
    return jobs;
}

/** What one fleet pass produced, from either path. */
struct PassOutput
{
    std::vector<fleet::MemberRow> rows;
    long planHits = 0;
    long planStores = 0;
    long verified = 0;
    long verifyFailures = 0;
    double wallMs = 0.0;
};

PassOutput
fromReport(const fleet::FleetReport &report)
{
    PassOutput out;
    out.rows = report.rows;
    out.planHits = report.planHits;
    out.planStores = report.planStores;
    out.verified = report.verified;
    out.verifyFailures = report.verifyFailures;
    out.wallMs = report.wallMs;
    return out;
}

/** compileFleet's oracle comparison: gate-by-gate within `tolerance`. */
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
        for (int p = 0; p < gateKindParamCount(ga.kind()); ++p)
            if (std::abs(ga.param(p) - gb.param(p)) > tolerance)
                return false;
    }
    return true;
}

/** compileFleet() replayed through its public steps, timed per layer. */
class TracedFleet
{
  public:
    explicit TracedFleet(Ledger &ledger) : ledger_(ledger) {}

    PassOutput run(const std::vector<fleet::FleetJob> &jobs,
                   const fleet::FleetOptions &options);

    const std::vector<double> &rebindSamples() const { return rebindMs_; }

  private:
    template <typename Fn>
    auto timed(const char *name, Fn &&fn)
    {
        const auto t0 = Clock::now();
        auto value = fn();
        ledger_.add(name, msSince(t0));
        return value;
    }

    std::optional<fleet::SkeletonPlan> acquirePlan(
        const fleet::SkeletonGroup &group, const Circuit &representative,
        const PipelineOptions &pipeline, PassOutput &out);

    Ledger &ledger_;
    std::vector<double> rebindMs_;
};

std::optional<fleet::SkeletonPlan>
TracedFleet::acquirePlan(const fleet::SkeletonGroup &group,
                         const Circuit &representative,
                         const PipelineOptions &pipeline, PassOutput &out)
{
    cache::ResultCache &cache = *pipeline.cache;
    const std::string key = cache::skeletonCacheKey(
        representative, fleet::slotPairs(group.varyingSlots), pipeline,
        Technique::Geyser);
    const auto payload =
        timed("cache.load_ms", [&] { return cache.load(key); });
    if (payload) {
        auto plan = timed("fleet.plan_codec_ms", [&] {
            return fleet::skeletonPlanFromText(*payload);
        });
        if (plan && plan->technique == Technique::Geyser) {
            ++out.planHits;
            return plan;
        }
        cache.quarantineEntry(key);
    }
    auto plan = timed("fleet.plan_build_ms", [&] {
        return fleet::buildSkeletonPlan(Technique::Geyser, representative,
                                        group.varyingSlots, pipeline,
                                        /*cachedCompose=*/true);
    });
    if (plan) {
        const std::string text = timed("fleet.plan_codec_ms", [&] {
            return fleet::skeletonPlanToText(*plan);
        });
        if (timed("cache.store_ms", [&] { return cache.store(key, text); }))
            ++out.planStores;
    }
    return plan;
}

PassOutput
TracedFleet::run(const std::vector<fleet::FleetJob> &jobs,
                 const fleet::FleetOptions &options)
{
    const auto t0 = Clock::now();
    PassOutput out;
    std::vector<Circuit> circuits;
    circuits.reserve(jobs.size());
    for (const fleet::FleetJob &job : jobs) {
        job.logical.validate();
        circuits.push_back(job.logical);
    }
    const auto groups = timed("fleet.group_ms", [&] {
        return fleet::groupBySkeleton(circuits);
    });
    const PipelineOptions &pipeline = options.pipeline;

    for (const Technique technique : options.techniques) {
        std::vector<fleet::MemberRow> rows(jobs.size());
        std::vector<CompileResult> results(jobs.size());
        auto record = [&](int m, const CompileResult &result, bool rebound,
                          bool fallback) {
            fleet::MemberRow &row = rows[static_cast<size_t>(m)];
            row.name = jobs[static_cast<size_t>(m)].name;
            row.technique = technique;
            row.pulses = result.stats.totalPulses;
            row.depth = result.stats.depthPulses;
            row.compileMs = result.totalMs;
            row.rebound = rebound;
            row.fallback = fallback;
            row.cacheHit = result.cacheHit;
            results[static_cast<size_t>(m)] = result;
        };

        if (technique != Technique::Geyser) {
            const int n = static_cast<int>(jobs.size());
            globalPool().parallelFor(n, [&](int m) {
                record(m,
                       compile(technique, circuits[static_cast<size_t>(m)],
                               pipeline),
                       false, false);
            });
        } else {
            for (const fleet::SkeletonGroup &group : groups) {
                const Circuit &representative =
                    circuits[static_cast<size_t>(group.members.front())];
                const auto plan =
                    acquirePlan(group, representative, pipeline, out);
                std::vector<double> ms(group.members.size(), -1.0);
                globalPool().parallelFor(
                    static_cast<int>(group.members.size()), [&](int gi) {
                        const int m = group.members[static_cast<size_t>(gi)];
                        const Circuit &member =
                            circuits[static_cast<size_t>(m)];
                        if (plan) {
                            const auto tRebind = Clock::now();
                            auto r = fleet::rebindMember(*plan, member,
                                                         pipeline);
                            ms[static_cast<size_t>(gi)] = msSince(tRebind);
                            if (r) {
                                record(m, *r, true, false);
                                return;
                            }
                        }
                        record(m, compile(technique, member, pipeline),
                               false, plan.has_value());
                    });
                for (const double v : ms) {
                    if (v < 0.0)
                        continue;
                    ledger_.add("fleet.rebind_ms", v);
                    rebindMs_.push_back(v);
                }

                const auto tVerify = Clock::now();
                int checked = 0;
                for (const int m : group.members) {
                    if (checked >= options.verifySample)
                        break;
                    fleet::MemberRow &row = rows[static_cast<size_t>(m)];
                    if (!row.rebound)
                        continue;
                    ++checked;
                    const Circuit &member = circuits[static_cast<size_t>(m)];
                    bool ok = false;
                    if (auto oraclePlan = fleet::buildSkeletonPlan(
                            Technique::Geyser, member, group.varyingSlots,
                            pipeline, /*cachedCompose=*/false)) {
                        if (auto oracle = fleet::rebindMember(
                                *oraclePlan, member, pipeline))
                            ok = circuitsMatch(
                                results[static_cast<size_t>(m)].physical,
                                oracle->physical, options.verifyTolerance);
                    }
                    ++out.verified;
                    if (ok)
                        row.verified = true;
                    else
                        ++out.verifyFailures;
                }
                ledger_.add("fleet.verify_ms", msSince(tVerify));
            }
        }

        for (int s = 0; s < options.tvdSample &&
                        s < static_cast<int>(jobs.size());
             ++s)
            rows[static_cast<size_t>(s)].tvd =
                tracedTvd(results[static_cast<size_t>(s)], options.noise,
                          options.trajectories, ledger_);
        for (fleet::MemberRow &row : rows)
            out.rows.push_back(std::move(row));
    }
    out.wallMs = msSince(t0);
    return out;
}

void
feedRows(io::Fnv128 &h, const PassOutput &pass)
{
    for (const fleet::MemberRow &row : pass.rows) {
        h.feedString(row.name);
        h.feedValue(static_cast<int>(row.technique));
        h.feedValue(row.pulses);
        h.feedValue(row.depth);
        h.feedValue(row.rebound);
        h.feedValue(row.fallback);
        h.feedValue(row.cacheHit);
        h.feedValue(row.verified);
        h.feedValue(row.tvd);
    }
    h.feedValue(pass.planHits);
    h.feedValue(pass.planStores);
    h.feedValue(pass.verified);
    h.feedValue(pass.verifyFailures);
}

/** One row per skeleton x technique of a phase (members summed). */
void
emitGroupRows(const std::vector<fleet::MemberRow> &rows, size_t members,
              const char *phase)
{
    for (size_t t = 0; t * members < rows.size(); ++t) {
        for (int g = 0; g < kSkeletons; ++g) {
            long n = 0, pulses = 0, depth = 0, rebound = 0, fallback = 0;
            double ms = 0.0;
            for (size_t m = static_cast<size_t>(g); m < members;
                 m += kSkeletons) {
                const fleet::MemberRow &r = rows[t * members + m];
                ++n;
                pulses += r.pulses;
                depth += r.depth;
                rebound += r.rebound ? 1 : 0;
                fallback += r.fallback ? 1 : 0;
                ms += r.compileMs;
            }
            Json row = line("row");
            row.set("phase", phase);
            row.set("skeleton", g);
            row.set("technique", techniqueName(rows[t * members].technique));
            row.set("members", n);
            row.set("pulses", pulses);
            row.set("depth", depth);
            row.set("rebound", rebound);
            row.set("fallback", fallback);
            row.set("compile_ms", ms);
            emit(row);
        }
    }
}

}  // namespace

int
runFleetSweep(const Args &args)
{
    const auto tSetup = Clock::now();
    promoteCounters();
    globalPool();
    kernels::active();
    const std::vector<fleet::FleetJob> jobs = makeJobs(args.seed);
    std::filesystem::create_directories(args.scratch);
    std::string dir = args.scratch + "/fleet-XXXXXX";
    if (::mkdtemp(dir.data()) == nullptr)
        throw std::runtime_error("mkdtemp failed under " + args.scratch);
    cache::CacheConfig cacheConfig;
    cacheConfig.dir = dir;
    // Geyser members go through the persistent cache (skeleton plans and
    // composed blocks); Baseline and OptiMap compile member by member
    // with no cache, once per pass (see the file comment).
    fleet::FleetOptions sweep;
    sweep.techniques = {Technique::Geyser};
    sweep.noise = NoiseModel::paperDefault();
    sweep.trajectories.trajectories = kTvdTrajectories;
    // A fixed trajectory seed: members of a skeleton share one gate
    // sequence, so the sampled error events stay put and tvd_mean moves
    // with the compiled circuits, not with 200-trajectory sampling noise.
    sweep.trajectories.seed = kTvdSeed;
    sweep.tvdSample = kTvdSample;
    fleet::FleetOptions exact = sweep;
    exact.techniques = {Technique::Baseline, Technique::OptiMap};
    Json setup = line("setup");
    setup.set("setup_s", msSince(tSetup) / 1000.0);
    emit(setup);

    Checks checks;
    checks.expect(coldCounters(),
                  "compose memo / result cache counters are zero at start");

    // ---- Timed pass: exact, then Geyser cold and warm ------------------
    Ledger ledger;
    TracedFleet traced(ledger);
    auto runFleet = [&](const fleet::FleetOptions &options) {
        return args.trace ? traced.run(jobs, options)
                          : fromReport(fleet::compileFleet(jobs, options));
    };
    PassOutput baseline, cold, warm;
    cache::CacheStats coldStats, warmStats;
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    baseline = runFleet(exact);
    {
        cache::ResultCache cache(cacheConfig);
        sweep.pipeline.cache = &cache;
        cold = runFleet(sweep);
        coldStats = cache.stats();
    }
    {
        cache::ResultCache cache(cacheConfig);
        sweep.pipeline.cache = &cache;
        sweep.tvdSample = 0;
        warm = runFleet(sweep);
        warmStats = cache.stats();
    }
    sweep.pipeline.cache = nullptr;
    const double wallS = msSince(t0) / 1000.0;
    const double cpuS = processCpuSeconds() - cpu0;

    // ---- Correctness gates (untimed) ----------------------------------
    long cacheBytes = 0;
    {
        cache::ResultCache cache(cacheConfig);
        cacheBytes = static_cast<long>(cache.diskUsageBytes());
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    checks.expect(!ec, "fleet cache dir removed");
    checks.expect(cold.verifyFailures == 0 && warm.verifyFailures == 0,
                  "zero fleet verify failures");
    checks.expect(coldStats.corrupt == 0 && warmStats.corrupt == 0,
                  "zero corrupt cache entries");
    checks.expect(cold.planHits == 0, "cold pass loads no plan");
    checks.expect(warm.planStores == 0, "warm pass stores no plan");
    checks.expect(baseline.rows.size() == jobs.size() * 2 &&
                      cold.rows.size() == jobs.size() &&
                      warm.rows.size() == jobs.size(),
                  "every member x technique row produced");

    long totalPulses = 0, depth = 0, rebound = 0, fallbacks = 0;
    double tvdSum = 0.0;
    int tvdRows = 0;
    std::vector<double> jobMs;
    for (const PassOutput *pass : {&baseline, &cold, &warm}) {
        for (const fleet::MemberRow &r : pass->rows) {
            checks.expect(r.pulses > 0, r.name + " has pulses");
            // A cache replay reports the original compute's stage times,
            // so only rows compiled or re-bound here are latency samples.
            if (!r.cacheHit)
                jobMs.push_back(r.compileMs);
            rebound += r.rebound ? 1 : 0;
            fallbacks += r.fallback ? 1 : 0;
            if (r.tvd >= 0.0) {
                checks.expect(std::isfinite(r.tvd) && r.tvd <= 1.0,
                              r.name + " noisy TVD in [0,1]");
                tvdSum += r.tvd;
                ++tvdRows;
            }
            if (pass == &warm)
                continue;
            totalPulses += r.pulses;
            depth += r.depth;
        }
    }
    for (size_t i = 0; i < cold.rows.size() && i < warm.rows.size(); ++i) {
        const fleet::MemberRow &c = cold.rows[i];
        const fleet::MemberRow &w = warm.rows[i];
        checks.expect(w.pulses == c.pulses && w.depth == c.depth &&
                          w.name == c.name,
                      w.name + " warm row equals cold row");
    }

    io::Fnv128 digest;
    for (const PassOutput *pass : {&baseline, &cold, &warm})
        feedRows(digest, *pass);
    emitGroupRows(baseline.rows, jobs.size(), "uncached");
    emitGroupRows(cold.rows, jobs.size(), "cold");
    emitGroupRows(warm.rows, jobs.size(), "warm");

    Json out = line("pass");
    out.set("wall_s", wallS);
    out.set("cpu_s", cpuS);
    out.set("peak_rss_mb", peakRssMb());
    out.set("attempted", checks.attempted);
    out.set("failed", checks.failed);
    out.set("total_pulses", totalPulses);
    out.set("depth_pulses", depth);
    out.set("tvd_mean", tvdRows > 0 ? tvdSum / tvdRows : 0.0);
    out.set("job_p50_ms", percentile(jobMs, 50.0));
    out.set("job_p99_ms", percentile(jobMs, 99.0));
    out.set("job_samples", static_cast<long>(jobMs.size()));
    // Stage sum the traced pass reconciles against (FleetReport.wallMs).
    out.set("fleet_wall_ms", baseline.wallMs + cold.wallMs + warm.wallMs);
    emit(out);

    Json dig = line("digest");
    dig.set("value", digest.hex());
    emit(dig);

    if (args.trace) {
        const double geyserRows =
            static_cast<double>(cold.rows.size() + warm.rows.size());
        ledger.set("fleet.cold_pass_ms", cold.wallMs);
        ledger.set("fleet.warm_pass_ms", warm.wallMs);
        ledger.set("fleet.uncached_pass_ms", baseline.wallMs);
        ledger.set("fleet.rebind_p50_ms",
                   percentile(traced.rebindSamples(), 50.0));
        ledger.set("fleet.reuse_ratio",
                   geyserRows > 0.0 ? rebound / geyserRows : 0.0);
        ledger.set("fleet.fallbacks", fallbacks);
        ledger.set("cache.hits", coldStats.hits + warmStats.hits);
        ledger.set("cache.misses", coldStats.misses + warmStats.misses);
        ledger.set("cache.corrupt", coldStats.corrupt + warmStats.corrupt);
        ledger.set("cache.bytes", cacheBytes);
        finishSimRates(ledger);
        Json layers = line("layers");
        layers.set("metrics", ledger.json());
        emit(layers);
    }
    Json env = envStamp(args);
    env.set("members", kMembers);
    env.set("trajectories", kTvdTrajectories);
    emit(env);
    return 0;
}

}  // namespace perfbench
