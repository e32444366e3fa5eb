/**
 * @file
 * Microbenchmark of the rotosolve sweep kernel across the compiled-in
 * SIMD compute backends (src/linalg/kernels).
 *
 * Two layers of comparison, in charged evaluations per second (one
 * evaluation is one qubit's environment update, as composition
 * charges it):
 *
 *   dense        one dense oracle trace per evaluation,
 *                verify::overlapTrace(target, Ansatz::unitary(angles)):
 *                Matrix arithmetic that enters no compute backend, so
 *                it never moves with dispatch.
 *   incremental  the sweep exactly as rotosolve runs it, through the
 *                environment-contraction AnsatzEvaluator: per sweep,
 *                the build of Env(0); per column, the running
 *                environment's rank-local advance and the contraction
 *                of the qubits above each qubit; per qubit, the
 *                contraction of the qubits below it into its fold,
 *                updateQubit()'s closed-form solve, its confirming
 *                contraction, and the commit of the solved 2x2
 *                (rotosolve's one conversion to angles and exit trace
 *                per call stay out of the loop). Measured once per
 *                usable backend (scalar / avx2 / avx512) via
 *                kernels::ScopedBackend; the folds are scalar on every
 *                backend, so backends differ in the environment's
 *                row- and column-pair updates (apply2x2Rows,
 *                apply2x2Cols) only.
 *
 * Every backend is first cross-checked against the dense oracle
 * (verify/kernel_check, 1e-12, its last trial at the deepest shape
 * the evaluator holds) and the binary exits non-zero on any
 * deviation. Rates are the median of GEYSER_KERNEL_BENCH_REPS timed
 * repetitions after one warm-up repetition (not a single-run mean),
 * taken round robin over the backends, so the JSON baseline is stable
 * enough to trend across CI runs and a slow phase of the host moves
 * every backend's rate alike.
 *
 * Exit is non-zero when:
 *   - any backend fails the 1e-12 oracle cross-check, or
 *   - the dispatched backend's incremental rate drops below the dense
 *     path (the CI sanity floor — a coarse regression guard: the dense
 *     oracle builds a Matrix product per trace, so even the scalar
 *     incremental path clears it several times over), or
 *   - GEYSER_KERNEL_SPEEDUP_FLOOR is set and the dispatched backend's
 *     rate is below floor x the scalar backend's rate (skipped when
 *     the host dispatches to scalar — nothing to compare).
 *
 * Flags: --json [FILE]  write the machine-readable per-ISA baseline
 *                       (default BENCH_compose_kernel.json)
 *        --report/--trace/--metrics as every bench binary.
 * Env: GEYSER_KERNEL_BENCH_SECONDS  per-repetition measure time
 *        (default 0.2)
 *      GEYSER_KERNEL_BENCH_REPS     timed repetitions per backend
 *        (default 5, median reported)
 *      GEYSER_KERNEL_SPEEDUP_FLOOR  required dispatched/scalar ratio
 *        (default unset = report only)
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "compose/composer.hpp"
#include "compose/evaluator.hpp"
#include "linalg/kernels/backend.hpp"
#include "obs/obs.hpp"
#include "verify/equivalence.hpp"
#include "verify/kernel_check.hpp"

namespace {

using namespace geyser;
using verify::hsdFromTrace;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct KernelRate
{
    long evaluations = 0;
    double seconds = 0.0;
    double perSec() const { return evaluations / std::max(seconds, 1e-12); }
};

/** One benchmark shape: the composer's dominant 3-qubit (8x8) case and
 *  the 4-qubit (16x16) blocks the merge pass produces. */
struct Shape
{
    int qubits;
    int layers;
    Ansatz ansatz;
    Matrix target;
    std::vector<double> angles;
};

Shape
makeShape(Rng &rng, int qubits, int layers)
{
    std::vector<Entangler> entanglers;
    if (qubits == 4)
        entanglers.assign(static_cast<size_t>(layers), Entangler::Cccz);
    Ansatz ansatz(qubits, layers, entanglers);
    Matrix target = ansatz.unitary(
        rng.uniformVector(ansatz.numAngles(), 0.0, 2.0 * kPi));
    auto angles = rng.uniformVector(ansatz.numAngles(), 0.0, 2.0 * kPi);
    return {qubits, layers, std::move(ansatz), std::move(target),
            std::move(angles)};
}

/** Dense baseline: one oracle trace per charged evaluation. */
KernelRate
denseRate(const Shape &shape, double budget_s)
{
    std::vector<double> angles = shape.angles;
    KernelRate rate;
    const auto t0 = Clock::now();
    double sink = 0.0;
    while ((rate.seconds = secondsSince(t0)) < budget_s) {
        // Move one qubit's theta per evaluation, as an update would.
        for (size_t i = 0; i < angles.size(); i += 3) {
            angles[i] += 0.25;
            sink += std::abs(verify::overlapTrace(
                shape.target, shape.ansatz.unitary(angles)));
            ++rate.evaluations;
        }
    }
    rate.seconds = secondsSince(t0);
    if (sink < 0.0)  // Defeat dead-code elimination.
        std::printf("%f", sink);
    return rate;
}

/**
 * Incremental kernel: rotosolve's sweep — environments per column, one
 * updateQubit() per qubit, U3s kept as 2x2s — through a pre-built
 * evaluator, restarted from the shape's angles so every repetition
 * does the same work.
 */
KernelRate
incrementalRate(AnsatzEvaluator &evaluator, const Shape &shape,
                double budget_s)
{
    evaluator.setAngles(shape.angles);
    double best = hsdFromTrace(evaluator.trace(), evaluator.dim());
    KernelRate rate;
    const auto t0 = Clock::now();
    while ((rate.seconds = secondsSince(t0)) < budget_s) {
        evaluator.beginSweep();
        for (int col = 0; col < evaluator.columns(); ++col) {
            evaluator.beginColumn(col);
            for (int q = 0; q < evaluator.numQubits(); ++q) {
                evaluator.beginQubit(q);
                best = updateQubit(evaluator, best);
                ++rate.evaluations;
            }
        }
    }
    rate.seconds = secondsSince(t0);
    return rate;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : 0.5 * (values[mid - 1] + values[mid]);
}

std::string
fmtRate(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3e", v);
    return buf;
}

std::string
fmtX(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fx", v);
    return buf;
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::ReportSession session(argc, argv, "bench_compose_kernel");

    std::string jsonPath;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") != 0)
            continue;
        jsonPath = "BENCH_compose_kernel.json";
        if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
            jsonPath = argv[i + 1];
    }

    const double budget =
        env::envDouble("GEYSER_KERNEL_BENCH_SECONDS", 0.2, 0.01, 600.0);
    const int reps = static_cast<int>(
        env::envInt("GEYSER_KERNEL_BENCH_REPS", 5, 1, 10'000));
    const double speedupFloor =
        env::envDouble("GEYSER_KERNEL_SPEEDUP_FLOOR", 0.0, 0.0, 1e6);

    // Correctness gates before any timing: every usable backend must
    // match the dense oracle, which enters no backend, so every backend
    // is checked against the same bits.
    const auto backends = kernels::availableBackends();
    for (const auto &info : backends) {
        if (info.backend == nullptr)
            continue;
        kernels::ScopedBackend scoped(info.name);
        verify::KernelCheckOptions checkOptions;
        checkOptions.trials = 12;
        const auto check = verify::checkComposeKernel(checkOptions);
        std::printf("kernel cross-check [%s]: %s (%s)\n", info.name.c_str(),
                    check.pass ? "PASS" : "FAIL", check.detail.c_str());
        session.note("crossCheck_" + info.name, check.detail);
        if (!check.pass)
            return 1;
    }

    Rng rng(123);
    std::vector<Shape> shapes;
    shapes.push_back(makeShape(rng, 3, 6));
    shapes.push_back(makeShape(rng, 4, 3));

    obs::Json jsonShapes = obs::Json::array();
    const std::string dispatched = kernels::activeName();
    bool denseFloorOk = true;
    double worstVsScalar = 0.0;     // Worst per-shape ratio.
    double logRatioSum = 0.0;       // For the geometric mean.
    int ratioCount = 0;

    const std::vector<int> widths{12, 5, 15, 11, 10};
    for (const auto &shape : shapes) {
        std::printf("shape: %d qubits (dim %d), %d layers\n", shape.qubits,
                    1 << shape.qubits, shape.layers);
        bench::printRow(
            {"backend", "dim", "evals/s (med)", "vs scalar", "vs dense"},
            widths);
        bench::printRule(widths);

        const KernelRate dense = denseRate(shape, budget);
        bench::printRow({"dense(ref)", std::to_string(1 << shape.qubits),
                         fmtRate(dense.perSec()), "-", "1.00x"},
                        widths);

        // Measure every backend first (scalar is listed last, but the
        // ratio columns need its rate), then render.
        struct Measured
        {
            std::string name;
            AnsatzEvaluator evaluator;
            double rate = 0.0;
            std::vector<double> samples;
        };
        std::vector<Measured> measured;
        for (const auto &info : backends) {
            if (info.backend == nullptr)
                continue;
            kernels::ScopedBackend scoped(info.name);
            // Evaluators bind their backend at construction; build it
            // inside the override so it measures this ISA.
            measured.push_back({info.name,
                                AnsatzEvaluator(shape.ansatz, shape.target),
                                0.0,
                                {}});
            // Warm-up, untimed.
            incrementalRate(measured.back().evaluator, shape, budget * 0.5);
        }
        // Timed repetitions round robin over the backends, so a slow
        // phase of the host lowers every backend's samples alike rather
        // than one backend's median (and the ratios the floors gate).
        for (int r = 0; r < reps; ++r)
            for (Measured &m : measured)
                m.samples.push_back(
                    incrementalRate(m.evaluator, shape, budget).perSec());
        double scalarRate = 0.0, dispatchedRate = 0.0;
        for (Measured &m : measured) {
            m.rate = median(m.samples);
            if (m.name == "scalar")
                scalarRate = m.rate;
            if (m.name == dispatched)
                dispatchedRate = m.rate;
        }

        obs::Json jsonBackends = obs::Json::array();
        for (const auto &m : measured) {
            const double vsScalar =
                scalarRate > 0.0 ? m.rate / scalarRate : 0.0;
            bench::printRow({m.name, std::to_string(1 << shape.qubits),
                             fmtRate(m.rate), fmtX(vsScalar),
                             fmtX(m.rate / dense.perSec())},
                            widths);

            obs::Json row = obs::Json::object();
            row.set("name", m.name);
            row.set("evalsPerSec", m.rate);
            row.set("speedupVsScalar", vsScalar);
            row.set("speedupVsDense", m.rate / dense.perSec());
            obs::Json repRates = obs::Json::array();
            for (const double s : m.samples)
                repRates.push(s);
            row.set("repRates", std::move(repRates));
            jsonBackends.push(std::move(row));

            obs::Json sessionRow = obs::Json::object();
            sessionRow.set("name", "kernel-n" + std::to_string(shape.qubits) +
                                       "-" + m.name);
            sessionRow.set("qubits", shape.qubits);
            sessionRow.set("layers", shape.layers);
            sessionRow.set("backend", m.name);
            sessionRow.set("evalsPerSec", m.rate);
            sessionRow.set("denseEvalsPerSec", dense.perSec());
            sessionRow.set("speedupVsScalar", vsScalar);
            session.addRow(std::move(sessionRow));
        }
        bench::printRule(widths);

        if (dispatchedRate < dense.perSec())
            denseFloorOk = false;
        const double ratio =
            scalarRate > 0.0 ? dispatchedRate / scalarRate : 0.0;
        if (ratio > 0.0) {
            if (worstVsScalar == 0.0 || ratio < worstVsScalar)
                worstVsScalar = ratio;
            logRatioSum += std::log(ratio);
            ++ratioCount;
        }

        obs::Json jsonShape = obs::Json::object();
        jsonShape.set("qubits", shape.qubits);
        jsonShape.set("dim", 1 << shape.qubits);
        jsonShape.set("layers", shape.layers);
        jsonShape.set("denseEvalsPerSec", dense.perSec());
        jsonShape.set("backends", std::move(jsonBackends));
        jsonShapes.push(std::move(jsonShape));
    }

    // Headline ratio: geometric mean over shapes (the floor metric —
    // one shape's noise can't sink it); the worst shape is printed and
    // recorded alongside so per-dim regressions stay visible.
    const double dispatchedVsScalar =
        ratioCount > 0 ? std::exp(logRatioSum / ratioCount) : 0.0;
    std::printf("dispatched backend: %s (requested %s)\n",
                dispatched.c_str(), kernels::requestedName().c_str());
    std::printf("sanity floor (dispatched incremental >= dense): %s\n",
                denseFloorOk ? "ok" : "REGRESSED");
    std::printf("dispatched vs scalar: %.2fx geomean, %.2fx worst shape\n",
                dispatchedVsScalar, worstVsScalar);

    bool speedupOk = true;
    if (speedupFloor > 0.0 && dispatched != "scalar") {
        speedupOk = dispatchedVsScalar >= speedupFloor;
        std::printf("speedup floor (%.2fx geomean required): %s\n",
                    speedupFloor, speedupOk ? "ok" : "REGRESSED");
    }

    if (!jsonPath.empty()) {
        obs::Json doc = obs::Json::object();
        doc.set("tool", "bench_compose_kernel");
        doc.set("timestamp", obs::utcTimestamp());
        doc.set("gitSha", obs::gitSha());
        doc.set("dispatched", dispatched);
        doc.set("requested", kernels::requestedName());
        doc.set("repetitions", reps);
        doc.set("secondsPerRep", budget);
        doc.set("dispatchedVsScalar", dispatchedVsScalar);
        doc.set("dispatchedVsScalarWorst", worstVsScalar);
        doc.set("denseFloorPass", denseFloorOk);
        doc.set("speedupFloor", speedupFloor);
        doc.set("speedupFloorPass", speedupOk);
        doc.set("shapes", std::move(jsonShapes));
        std::ofstream out(jsonPath);
        if (!out) {
            std::fprintf(stderr, "cannot open %s\n", jsonPath.c_str());
            return 1;
        }
        out << doc.dump(2) << "\n";
        std::printf("wrote %s\n", jsonPath.c_str());
    }

    return denseFloorOk && speedupOk ? 0 : 1;
}
