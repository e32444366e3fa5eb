/**
 * @file
 * Reproduces the paper's Sec 6 scalability discussion with steady_clock
 * timings: mapping is ~linear in the operation count, blocking is at
 * worst quadratic, and composition is linear in the number of blocks
 * (and embarrassingly parallel). Each stage prints its median time per
 * size and the log-log slope of time against the stage's size measure
 * (1 is linear, 2 quadratic).
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "algos/algos.hpp"
#include "blocking/blocker.hpp"
#include "common.hpp"
#include "transpile/basis.hpp"
#include "transpile/passes.hpp"
#include "transpile/router.hpp"

using namespace geyser;
using namespace geyser::bench;

namespace {

/** Timed repetitions of each stage at each size. */
constexpr int kReps = 15;

/** Keeps each timed result observable. */
volatile size_t g_sink = 0;

/** Median wall-clock ms of `reps` calls of `f`. */
double
medianMs(int reps, const std::function<void()> &f)
{
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        f();
        ms.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    }
    std::sort(ms.begin(), ms.end());
    return ms[ms.size() / 2];
}

/** One timed size of a stage: the stage's size measure and median ms. */
struct Point
{
    int arg;
    long n;
    double ms;
};

/** Least-squares slope of log(ms) against log(n). */
double
logLogSlope(const std::vector<Point> &points)
{
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
    for (const Point &p : points) {
        const double x = std::log(static_cast<double>(p.n));
        const double y = std::log(p.ms);
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    const double k = static_cast<double>(points.size());
    return (k * sxy - sx * sy) / (k * sxx - sx * sx);
}

void
report(const std::string &stage, const std::string &measure,
       const std::vector<Point> &points)
{
    const std::vector<int> widths{22, 8, 10, 12};
    printRow({stage, "size", measure, "median ms"}, widths);
    printRule(widths);
    for (const Point &p : points) {
        char ms[32];
        std::snprintf(ms, sizeof(ms), "%.3f", p.ms);
        printRow({"", std::to_string(p.arg), fmtLong(p.n), ms}, widths);
    }
    std::printf("log-log slope (ms vs %s): %.2f\n\n", measure.c_str(),
                logLogSlope(points));
}

Circuit
mapped(const Circuit &logical)
{
    Circuit phys = decomposeToBasis(logical);
    optimize(phys);
    return phys;
}

}  // namespace

int
main()
{
    std::printf("Sec 6 scalability: median of %d runs per stage and "
                "size, one run per whole compile\n\n",
                kReps);

    std::vector<Point> mapping, blocking, composition, pipeline;
    for (const int qubits : {4, 6, 8, 10}) {
        const Circuit logical = qftBenchmark(qubits);
        const Topology topo = Topology::forQubits(logical.numQubits());
        const double ms = medianMs(kReps, [&] {
            g_sink = route(mapped(logical), topo).circuit.size();
        });
        mapping.push_back(
            {qubits, static_cast<long>(decomposeToBasis(logical).size()),
             ms});

        const Circuit routed = route(mapped(logical), topo).circuit;
        const double blockMs = medianMs(kReps, [&] {
            g_sink = static_cast<size_t>(
                blockCircuit(routed, topo).blockCount());
        });
        blocking.push_back({qubits, static_cast<long>(routed.size()),
                            blockMs});
    }
    // Blocking and composition of the routed circuit, past the process
    // block memo, so every repetition searches every block.
    for (const int qubits : {4, 5, 6}) {
        const CompileResult routed =
            transpileForTechnique(Technique::Geyser, qftBenchmark(qubits));
        int blocks = 0;
        const double ms = medianMs(kReps, [&] {
            CompileResult result = routed;
            blockAndCompose(result, {}, {}, /*memo=*/false);
            blocks = result.blockCount;
        });
        composition.push_back({qubits, blocks, ms});
    }
    // One whole compile per size: a repeat would hit the block memo.
    for (const int qubits : {6, 9}) {
        CompileResult result;
        const double ms = medianMs(1, [&] {
            result = compile(Technique::Geyser,
                             heisenbergBenchmark(qubits, 4, 0.1));
        });
        pipeline.push_back({qubits, result.blockCount, ms});
    }

    report("Mapping (QFT)", "ops", mapping);
    report("Blocking (QFT)", "gates", blocking);
    report("Composition (QFT)", "blocks", composition);
    report("Geyser (Heisenberg)", "blocks", pipeline);
    return 0;
}
