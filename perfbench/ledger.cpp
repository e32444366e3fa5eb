#include "ledger.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "common/thread_pool.hpp"
#include "linalg/kernels/backend.hpp"
#include "metrics/metrics.hpp"
#include "obs/obs.hpp"
#include "sim/statevector.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

using geyser::obs::Json;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] +
           (samples[hi] - samples[lo]) * (rank - static_cast<double>(lo));
}

uint64_t
deriveSeed(uint64_t seed, uint64_t index)
{
    // splitmix64 over (seed, index): distinct, well-mixed per item.
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double *
Ledger::find(const std::string &name)
{
    for (auto &[key, v] : entries_)
        if (key == name)
            return &v;
    return nullptr;
}

void
Ledger::add(const std::string &name, double value)
{
    if (double *v = find(name))
        *v += value;
    else
        entries_.emplace_back(name, value);
}

void
Ledger::set(const std::string &name, double value)
{
    if (double *v = find(name))
        *v = value;
    else
        entries_.emplace_back(name, value);
}

double
Ledger::get(const std::string &name) const
{
    for (const auto &[key, v] : entries_)
        if (key == name)
            return v;
    return 0.0;
}

void
Ledger::merge(const Ledger &other)
{
    for (const auto &[key, v] : other.entries_)
        add(key, v);
}

Json
Ledger::json() const
{
    Json out = Json::object();
    for (const auto &[key, v] : entries_)
        out.set(key, v);
    return out;
}

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

void
feedCircuit(geyser::io::Fnv128 &h, const geyser::Circuit &circuit)
{
    h.feedValue(circuit.numQubits());
    h.feedValue(circuit.size());
    for (const auto &g : circuit.gates()) {
        h.feedValue(static_cast<int>(g.kind()));
        for (int q = 0; q < g.numQubits(); ++q)
            h.feedValue(g.qubit(q));
        for (int p = 0; p < geyser::gateKindParamCount(g.kind()); ++p)
            h.feedValue(g.param(p));
    }
}

void
emit(const Json &line)
{
    std::fputs(line.dump().c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
}

Json
line(const char *kind)
{
    Json out = Json::object();
    out.set("kind", kind);
    return out;
}

long
counterValue(const std::string &name)
{
    for (const auto &[key, v] : geyser::obs::metricsSnapshot().counters)
        if (key == name)
            return v;
    return 0;
}

void
promoteCounters()
{
    for (const char *name :
         {"compose.memo_hits", "compose.memo_misses", "compose.evaluations",
          "compose.spill_hits", "cache.hit", "cache.miss", "cache.corrupt"})
        geyser::obs::serviceCounter(name);
}

bool
coldCounters()
{
    for (const auto &[key, v] : geyser::obs::metricsSnapshot().counters) {
        const bool guarded = key.rfind("compose.memo", 0) == 0 ||
                             key.rfind("compose.spill", 0) == 0 ||
                             key.rfind("cache.", 0) == 0;
        if (guarded && v != 0)
            return false;
    }
    return true;
}

double
tracedTvd(const geyser::CompileResult &result,
          const geyser::NoiseModel &noise,
          const geyser::TrajectoryConfig &config, Ledger &ledger)
{
    const auto tIdeal = Clock::now();
    const geyser::Distribution ideal =
        geyser::idealDistribution(result.logical);
    ledger.add("sim.ideal_ms", msSince(tIdeal));

    geyser::TrajectoryConfig cfg = config;
    if (noise.crosstalkPhase > 0.0 && cfg.topology == nullptr)
        cfg.topology = &result.topology;
    const auto tTraj = Clock::now();
    const geyser::Distribution phys =
        geyser::noisyDistribution(result.physical, noise, cfg);
    ledger.add("sim.trajectory_ms", msSince(tTraj));
    ledger.add("sim.trajectories", cfg.trajectories);
    ledger.add("sim.gate_apps", static_cast<double>(cfg.trajectories) *
                                    static_cast<double>(
                                        result.physical.size()));

    const geyser::Distribution projected = geyser::projectToLogical(
        phys, result.finalLayout, result.logical.numQubits(),
        result.physical.numQubits());
    return geyser::totalVariationDistance(ideal, projected);
}

void
finishSimRates(Ledger &ledger)
{
    const double seconds = ledger.get("sim.trajectory_ms") / 1000.0;
    ledger.set("sim.trajectories_per_s",
               seconds > 0.0 ? ledger.get("sim.trajectories") / seconds : 0.0);
    ledger.set("sim.gate_apps_per_s",
               seconds > 0.0 ? ledger.get("sim.gate_apps") / seconds : 0.0);
}

Json
envStamp(const Args &args)
{
    Json env = line("env");
    env.set("workload", args.workload);
    env.set("seed", static_cast<double>(args.seed));
    env.set("trace", args.trace);
    env.set("backend", geyser::kernels::activeName());
    env.set("backend_requested", geyser::kernels::requestedName());
    env.set("pool_threads", geyser::globalPool().size());
    env.set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
    env.set("build_type", PERFBENCH_BUILD_TYPE);
    env.set("cxx_flags", PERFBENCH_CXX_FLAGS);
    env.set("compiler", PERFBENCH_COMPILER);
    env.set("pipeline_version", geyser::kPipelineVersion);
    return env;
}

}  // namespace perfbench
