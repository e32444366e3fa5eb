/**
 * @file
 * Shared plumbing of the pipeline benchmark worker: clocks and resource
 * probes, the per-layer ledger, output digests, and the JSON-lines
 * protocol the runner (run.py) reads.
 *
 * Every line the worker prints on stdout is one JSON object with a
 * "kind" field:
 *   setup   {"setup_s"}                         set-up time of this process
 *   row     one circuit x technique (or fleet group x technique) row
 *   pass    one timed pass: wall_s, cpu_s, peak_rss_mb, attempted,
 *           failed, total_pulses, depth_pulses, tvd_mean, job_p50_ms,
 *           job_p99_ms (+ stage sums the traced run reconciles against)
 *   layers  per-layer metrics of a traced pass
 *   digest  hash of every output of the pass (traced == untraced)
 *   env     the environment stamp
 * Correctness failures are counted in the pass line and described on
 * stderr.
 */
#ifndef GEYSER_PERFBENCH_LEDGER_HPP
#define GEYSER_PERFBENCH_LEDGER_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "geyser/pipeline.hpp"
#include "io/framing.hpp"
#include "obs/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Parsed command line of one worker process. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    bool trace = false;
    /** Timed-phase budget for workloads that repeat passes in-process. */
    double seconds = 0.0;
    /** Directory for the fleet cache (inside the benchmark checkout). */
    std::string scratch = ".";
};

double msSince(Clock::time_point t0);

/** User + system CPU seconds of the whole process (all threads). */
double processCpuSeconds();

/** Peak resident set of this process in MiB. */
double peakRssMb();

/** Linear-interpolated percentile (p in [0, 100]); 0 for no samples. */
double percentile(std::vector<double> samples, double p);

/** Derive an independent 64-bit seed for item `index` of a run. */
uint64_t deriveSeed(uint64_t seed, uint64_t index);

/**
 * Named per-layer metrics in insertion order. add() accumulates, so a
 * layer timed once per circuit sums over the pass.
 */
class Ledger
{
  public:
    void add(const std::string &name, double value);
    void set(const std::string &name, double value);
    double get(const std::string &name) const;
    /** add() every entry of `other`. */
    void merge(const Ledger &other);
    geyser::obs::Json json() const;

  private:
    double *find(const std::string &name);

    std::vector<std::pair<std::string, double>> entries_;
};

/** Per-pass correctness bookkeeping: failures go to stderr. */
struct Checks
{
    long attempted = 0;
    long failed = 0;

    /** Count one attempt; on !ok count a failure and explain it. */
    void expect(bool ok, const std::string &what);
};

/** Feed a circuit's exact content (kinds, operands, angle bits). */
void feedCircuit(geyser::io::Fnv128 &h, const geyser::Circuit &circuit);

/** Print one protocol line (compact JSON) and flush. */
void emit(const geyser::obs::Json &line);

/** A protocol line skeleton: {"kind": kind}. */
geyser::obs::Json line(const char *kind);

/** Counter value from the obs registry (0 if never registered). */
long counterValue(const std::string &name);

/**
 * Promote the obs counters the benchmark reads (compose memo and
 * evaluations, result cache) to the always-on domain, so they count
 * without switching on span collection and the per-probe kernel
 * counters.
 */
void promoteCounters();

/**
 * True when no compose-memo or result-cache counter has moved yet in
 * this process — the benchmark's guard against warm state leaking into
 * a cold pass (the compose memo has no public reset).
 */
bool coldCounters();

/**
 * evaluateTvd() driven through its public steps (idealDistribution,
 * noisyDistribution, projectToLogical, totalVariationDistance), timing
 * the ideal and trajectory simulations into `ledger` (sim.ideal_ms,
 * sim.trajectory_ms, sim.trajectories, sim.gate_apps). Returns the
 * same value evaluateTvd() does.
 */
double tracedTvd(const geyser::CompileResult &result,
                 const geyser::NoiseModel &noise,
                 const geyser::TrajectoryConfig &config, Ledger &ledger);

/** Derive sim.trajectories_per_s and sim.gate_apps_per_s. */
void finishSimRates(Ledger &ledger);

/** Environment stamp of this process and build. */
geyser::obs::Json envStamp(const Args &args);

int runSuiteCold(const Args &args);
int runFleetSweep(const Args &args);
int runNoiseStack(const Args &args);

}  // namespace perfbench

#endif  // GEYSER_PERFBENCH_LEDGER_HPP
