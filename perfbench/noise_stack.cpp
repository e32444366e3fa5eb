/**
 * @file
 * noise-stack: the nine Table-1 rows of at most 10 qubits, compiled
 * under all three techniques in set-up; the timed pass evaluates noisy
 * TVD under one model that stacks every channel — the paper flips,
 * Rydberg crosstalk (with the row's topology), amplitude damping, idle
 * dephasing, mid-circuit atom loss, correlated Pauli and readout error.
 * The simulator does nearly all the work: every NoiseSource and the
 * statevector kernels run, including the CCZ path of Geyser circuits.
 *
 * The simulator holds no warm state between calls, so this worker
 * repeats passes in-process until its --seconds budget (set-up included)
 * is spent and prints one pass line each.
 *
 * One job is one row's TVD. The 27 rows run concurrently on the global
 * pool, widest first, each with serial trajectories: a small row split
 * into pool chunks is a few-millisecond parallelFor whose latency tracks
 * thread wake-ups more than the simulator.
 */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "algos/suite.hpp"
#include "common/thread_pool.hpp"
#include "ledger.hpp"
#include "linalg/kernels/backend.hpp"

namespace perfbench {

namespace {

using namespace geyser;
using obs::Json;

constexpr Technique kTechniques[] = {Technique::Baseline, Technique::OptiMap,
                                     Technique::Geyser};
constexpr int kMaxQubits = 10;
/**
 * Trajectories per row: 64 x 2^(10 - qubits), at most 512, so a row's
 * simulated amplitudes stay roughly level with its width and the small
 * rows are jobs of hundreds of milliseconds, not a few. Every count is a
 * whole number of 16-trajectory chunks per worker of a 4-thread pool.
 */
constexpr int kMinTrajectories = 64;
constexpr int kMaxTrajectories = 512;

int
trajectoriesFor(int qubits)
{
    const int shift = std::max(0, kMaxQubits - qubits);
    return shift >= 3 ? kMaxTrajectories : kMinTrajectories << shift;
}
/** Trajectories of the channel-order invariance check. */
constexpr int kOrderCheckTrajectories = 16;

/**
 * Every channel at once. The extended channels sit at the bench
 * ablation operating points (bench::defaultChannelRate); crosstalk at
 * the paper flip rate.
 */
NoiseModel
stackedModel()
{
    NoiseModel nm = NoiseModel::paperDefault();
    nm.crosstalkPhase = 0.001;
    nm.ampDamping = 0.001;
    nm.idleDephasing = 0.0005;
    nm.lossPerGate = 0.0005;
    nm.correlatedPauli = 0.003;
    nm.readoutError = 0.01;
    return nm;
}

struct Row
{
    std::string circuit;
    CompileResult result;
    TrajectoryConfig config;
    double tvd = -1.0;
    double ms = 0.0;
    std::string error;  ///< What the last TVD threw, if it did.
    Ledger stages;      ///< Traced pass only: this row's sim times.
};

bool
bitIdentical(const Distribution &a, const Distribution &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

int
runNoiseStack(const Args &args)
{
    const auto tSetup = Clock::now();
    promoteCounters();
    globalPool();
    kernels::active();
    const NoiseModel noise = stackedModel();
    Checks setupChecks;
    std::vector<Row> rows;
    for (const BenchmarkSpec &spec : benchmarkSuite()) {
        if (spec.numQubits > kMaxQubits)
            continue;
        const Circuit logical = spec.make();
        for (const Technique technique : kTechniques) {
            Row row;
            row.circuit = spec.name;
            try {
                row.result = compile(technique, logical);
            } catch (const std::exception &e) {
                setupChecks.expect(false, spec.name + " " +
                                              techniqueName(technique) +
                                              " compile: " + e.what());
                continue;
            }
            row.config.trajectories = trajectoriesFor(spec.numQubits);
            row.config.parallel = false;
            row.config.seed = deriveSeed(args.seed, rows.size());
            rows.push_back(std::move(row));
        }
    }
    Json setup = line("setup");
    setup.set("setup_s", msSince(tSetup) / 1000.0);
    emit(setup);

    // ---- Correctness gate before timing: channel-order invariance ----
    setupChecks.expect(rows.size() == 27, "27 rows compiled in set-up");
    for (const Row &row : rows) {
        const CompileResult &r = row.result;
        if (r.technique != Technique::Geyser || r.stats.cczCount == 0)
            continue;
        TrajectoryConfig cfg = row.config;
        cfg.trajectories = kOrderCheckTrajectories;
        cfg.topology = &r.topology;
        const Distribution forward = noisyDistribution(r.physical, noise, cfg);
        cfg.reverseChannelOrder = true;
        const Distribution reverse = noisyDistribution(r.physical, noise, cfg);
        setupChecks.expect(bitIdentical(forward, reverse),
                           row.circuit +
                               " Geyser distribution is bit-identical "
                               "under reverseChannelOrder");
        break;
    }

    long totalPulses = 0, depth = 0;
    for (const Row &row : rows) {
        totalPulses += row.result.stats.totalPulses;
        depth += row.result.stats.depthPulses;
    }
    // Longest rows first (trajectories x amplitudes x gates), so no wide
    // row starts last and leaves the pool idle behind it.
    std::vector<size_t> order(rows.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    auto cost = [&](size_t i) {
        const CompileResult &r = rows[i].result;
        return static_cast<double>(rows[i].config.trajectories) *
               std::ldexp(1.0, r.physical.numQubits()) *
               static_cast<double>(r.physical.size());
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return cost(a) > cost(b); });

    // ---- Timed passes --------------------------------------------------
    Ledger ledger;
    int passes = 0;
    do {
        Checks checks = passes == 0 ? setupChecks : Checks{};
        const double cpu0 = processCpuSeconds();
        const auto t0 = Clock::now();
        globalPool().parallelFor(static_cast<int>(order.size()), [&](int k) {
            Row &row = rows[order[static_cast<size_t>(k)]];
            row.error.clear();
            const auto tJob = Clock::now();
            try {
                row.tvd = args.trace
                              ? tracedTvd(row.result, noise, row.config,
                                          row.stages)
                              : evaluateTvd(row.result, noise, row.config);
            } catch (const std::exception &e) {
                row.tvd = -1.0;
                row.error = e.what();
            }
            row.ms = msSince(tJob);
        });
        const double wallS = msSince(t0) / 1000.0;
        const double cpuS = processCpuSeconds() - cpu0;

        std::vector<double> jobMs;
        double rowsMs = 0.0;
        for (const Row &row : rows) {
            if (!row.error.empty()) {
                checks.expect(false, row.circuit + " TVD: " + row.error);
                continue;
            }
            jobMs.push_back(row.ms);
            rowsMs += row.ms;
            ledger.merge(row.stages);
        }

        double tvdSum = 0.0;
        io::Fnv128 digest;
        for (const Row &row : rows) {
            checks.expect(std::isfinite(row.tvd) && row.tvd >= 0.0 &&
                              row.tvd <= 1.0,
                          row.circuit + " noisy TVD in [0,1]");
            tvdSum += row.tvd;
            digest.feedString(row.circuit);
            feedCircuit(digest, row.result.physical);
            digest.feedValue(row.tvd);
        }
        Json out = line("pass");
        out.set("wall_s", wallS);
        out.set("cpu_s", cpuS);
        out.set("peak_rss_mb", peakRssMb());
        out.set("attempted", checks.attempted);
        out.set("failed", checks.failed);
        out.set("total_pulses", totalPulses);
        out.set("depth_pulses", depth);
        out.set("tvd_mean", rows.empty() ? 0.0 : tvdSum / rows.size());
        out.set("job_p50_ms", percentile(jobMs, 50.0));
        out.set("job_p99_ms", percentile(jobMs, 99.0));
        // Busy time the traced pass reconciles against.
        out.set("rows_ms", rowsMs);
        emit(out);
        if (passes == 0) {
            for (const Row &row : rows) {
                Json r = line("row");
                r.set("circuit", row.circuit);
                r.set("technique", techniqueName(row.result.technique));
                r.set("pulses", row.result.stats.totalPulses);
                r.set("depth", row.result.stats.depthPulses);
                r.set("ccz", row.result.stats.cczCount);
                r.set("tvd", row.tvd);
                r.set("tvd_ms", row.ms);
                emit(r);
            }
            Json dig = line("digest");
            dig.set("value", digest.hex());
            emit(dig);
        }
        ++passes;
    } while (!args.trace && msSince(tSetup) / 1000.0 < args.seconds);

    if (args.trace) {
        finishSimRates(ledger);
        Json layers = line("layers");
        layers.set("metrics", ledger.json());
        emit(layers);
    }
    Json env = envStamp(args);
    env.set("trajectories", "64 x 2^(10 - qubits), max 512");
    env.set("passes", passes);
    emit(env);
    return 0;
}

}  // namespace perfbench
