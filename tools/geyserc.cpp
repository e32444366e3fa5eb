/**
 * @file
 * geyserc — the command-line compiler driver: reads an OpenQASM 2.0
 * program, compiles it for a neutral-atom machine with the selected
 * technique, and writes the compiled circuit (QASM or native text) plus
 * a statistics summary.
 *
 * Usage:
 *   geyserc [options] <input.qasm>
 *   geyserc --benchmark <name>         (compile a built-in benchmark)
 *
 * Options:
 *   --technique baseline|optimap|geyser|superconducting   (default geyser)
 *   --output <file>        write the compiled circuit (default stdout)
 *   --format qasm|text     output format (default qasm)
 *   --evaluate             also report ideal-equivalence and noisy TVD
 *   --verify               differentially verify all four techniques and
 *                          the simulator engines; exits 1 on divergence
 *   --draw                 print the compiled circuit as ASCII art
 *   --pulses               print the lowered laser-pulse program
 *   --noise <rate>         error rate for --evaluate (default 0.001)
 *   --noise-channel <name>=<rate>
 *                          set one composable noise channel's rate for
 *                          --evaluate / --verify (repeatable; channels:
 *                          legacy-pauli, amp-damp, idle-dephasing,
 *                          atom-loss, correlated-pauli, readout). Applied
 *                          on top of the --noise base model; use
 *                          --noise 0 for a single-channel ablation
 *   --trajectories <n>     trajectories for --evaluate (default 200)
 *   --quiet                suppress the statistics summary
 *   --trace <file>         write a Chrome trace_event JSON of the run
 *                          (open in chrome://tracing or ui.perfetto.dev)
 *   --metrics <file>       write the JSONL span/metric log of the run
 *   --prom <file>          write a Prometheus text-format dump of the
 *                          run's counters/gauges/histograms ('-' for
 *                          stdout) — same exposition geyserd serves
 *                          live via the `metrics` wire verb
 *   --cache-dir <dir>      serve/store compiles through the persistent
 *                          result cache rooted at <dir> (crash-safe,
 *                          checksummed; corrupt entries recompute).
 *                          Defaults to $GEYSER_CACHE_DIR when that is set.
 *   --no-cache             compile uncached even if GEYSER_CACHE_DIR is set
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "algos/suite.hpp"
#include "cache/result_cache.hpp"
#include "circuit/draw.hpp"
#include "common/error.hpp"
#include "geyser/pipeline.hpp"
#include "io/qasm_parser.hpp"
#include "io/serialize.hpp"
#include "obs/obs.hpp"
#include "obs/prometheus.hpp"
#include "pulse/pulse.hpp"
#include "verify/differential.hpp"
#include "verify/equivalence.hpp"

using namespace geyser;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [options] <input.qasm>\n"
                 "       %s --benchmark <name> [options]\n"
                 "options:\n"
                 "  --technique baseline|optimap|geyser|superconducting\n"
                 "  --output <file>   --format qasm|text\n"
                 "  --evaluate        --noise <rate>  --trajectories <n>\n"
                 "  --noise-channel <name>=<rate>   (repeatable)\n"
                 "  --verify          --quiet\n"
                 "  --trace <file>    --metrics <file>  --prom <file>\n"
                 "  --cache-dir <dir> --no-cache\n",
                 argv0, argv0);
    std::exit(2);
}

/**
 * Compile with every technique under the pipeline's built-in stage
 * verification, re-check each final result, and cross-check the
 * simulator engines on the logical program. Returns 0 if all PASS.
 */
int
runVerify(const Circuit &logical, const NoiseModel &noise)
{
    PipelineOptions options;
    options.verifyEquivalence = true;
    bool allPass = true;
    for (const Technique technique :
         {Technique::Baseline, Technique::OptiMap, Technique::Geyser,
          Technique::Superconducting}) {
        try {
            const CompileResult result = compile(technique, logical, options);
            const auto report = verify::checkCompileResult(result);
            allPass = allPass && report.equivalent;
            std::fprintf(stderr, "verify %-16s %s  [%s %s]\n",
                         techniqueName(technique),
                         report.equivalent ? "PASS" : "FAIL",
                         report.method.c_str(), report.detail.c_str());
        } catch (const verify::VerificationError &e) {
            allPass = false;
            std::fprintf(stderr, "verify %-16s FAIL  [%s]\n",
                         techniqueName(technique), e.what());
        }
    }
    const auto diff = verify::runDifferential(logical, noise);
    allPass = allPass && diff.passed;
    std::fprintf(stderr, "verify %-16s %s  [%s]\n", "simulators",
                 diff.passed ? "PASS" : "FAIL", diff.detail.c_str());
    std::fprintf(stderr, "%s\n", allPass ? "PASS: all techniques equivalent"
                                         : "FAIL: divergence detected");
    return allPass ? 0 : 1;
}

Technique
parseTechnique(const std::string &name)
{
    if (name == "baseline")
        return Technique::Baseline;
    if (name == "optimap")
        return Technique::OptiMap;
    if (name == "geyser")
        return Technique::Geyser;
    if (name == "superconducting")
        return Technique::Superconducting;
    throw ParseError("unknown technique: " + name);
}

/** Strict numeric option parsing: no raw std::stod/stoi escapes. */
double
parseDoubleArg(const char *flag, const std::string &text)
{
    size_t consumed = 0;
    double v = 0.0;
    try {
        v = std::stod(text, &consumed);
    } catch (const std::exception &) {
        consumed = std::string::npos;
    }
    if (consumed != text.size() || text.empty())
        throw ParseError(std::string(flag) + ": bad number '" + text + "'");
    return v;
}

int
parseIntArg(const char *flag, const std::string &text)
{
    size_t consumed = 0;
    long v = 0;
    try {
        v = std::stol(text, &consumed);
    } catch (const std::exception &) {
        consumed = std::string::npos;
    }
    if (consumed != text.size() || text.empty() || v < 0 ||
        v > std::numeric_limits<int>::max())
        throw ParseError(std::string(flag) + ": bad count '" + text + "'");
    return static_cast<int>(v);
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string input, benchmark, output, format = "qasm";
    std::string tracePath, metricsPath, promPath, cacheDir;
    Technique technique = Technique::Geyser;
    bool evaluate = false, quiet = false, draw = false, pulses = false;
    bool verifyMode = false, noCache = false;
    double noiseRate = 0.001;
    int trajectories = 200;
    std::vector<std::pair<std::string, double>> channelRates;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (++i >= argc)
                    usage(argv[0]);
                return argv[i];
            };
            if (arg == "--technique")
                technique = parseTechnique(next());
            else if (arg == "--benchmark")
                benchmark = next();
            else if (arg == "--output")
                output = next();
            else if (arg == "--format")
                format = next();
            else if (arg == "--evaluate")
                evaluate = true;
            else if (arg == "--verify")
                verifyMode = true;
            else if (arg == "--draw")
                draw = true;
            else if (arg == "--pulses")
                pulses = true;
            else if (arg == "--noise")
                noiseRate = parseDoubleArg("--noise", next());
            else if (arg == "--noise-channel") {
                const std::string spec = next();
                const size_t eq = spec.find('=');
                if (eq == std::string::npos)
                    throw ParseError(
                        "--noise-channel: expected <name>=<rate>, got '" +
                        spec + "'");
                channelRates.emplace_back(
                    spec.substr(0, eq),
                    parseDoubleArg("--noise-channel", spec.substr(eq + 1)));
            }
            else if (arg == "--trajectories")
                trajectories = parseIntArg("--trajectories", next());
            else if (arg == "--quiet")
                quiet = true;
            else if (arg == "--trace")
                tracePath = next();
            else if (arg == "--metrics")
                metricsPath = next();
            else if (arg == "--prom")
                promPath = next();
            else if (arg == "--cache-dir")
                cacheDir = next();
            else if (arg == "--no-cache")
                noCache = true;
            else if (arg == "--help" || arg == "-h")
                usage(argv[0]);
            else if (!arg.empty() && arg[0] == '-')
                usage(argv[0]);
            else
                input = arg;
        }
        if (format != "qasm" && format != "text")
            usage(argv[0]);
        if (input.empty() == benchmark.empty())
            usage(argv[0]);  // Exactly one source.

        Circuit logical;
        if (!benchmark.empty()) {
            logical = benchmarkByName(benchmark).make();
        } else {
            std::ifstream in(input);
            if (!in) {
                std::fprintf(stderr, "geyserc: cannot open %s\n",
                             input.c_str());
                return 1;
            }
            std::ostringstream text;
            text << in.rdbuf();
            logical = circuitFromQasm(text.str());
        }

        const bool tracing = !tracePath.empty() || !metricsPath.empty() ||
                             !promPath.empty();
        if (tracing) {
            obs::setEnabled(true);
            obs::setThreadName("main");
        }
        auto writeObs = [&] {
            if (!tracePath.empty()) {
                obs::writeChromeTrace(tracePath);
                if (!quiet)
                    std::fprintf(stderr,
                                 "trace written to %s (open in "
                                 "chrome://tracing or ui.perfetto.dev)\n",
                                 tracePath.c_str());
            }
            if (!metricsPath.empty())
                obs::writeMetricsJsonl(metricsPath);
            if (!promPath.empty()) {
                const std::string text = obs::prometheusText();
                if (promPath == "-") {
                    std::fwrite(text.data(), 1, text.size(), stdout);
                } else {
                    std::ofstream out(promPath);
                    out << text;
                }
            }
        };

        // The evaluation/verification noise model: the paper's coupled
        // bit/phase-flip rate, with any --noise-channel overrides
        // composed on top (names are validated here, rates by
        // setChannelRate).
        NoiseModel noiseModel = NoiseModel::withRate(noiseRate);
        for (const auto &channel : channelRates)
            noiseModel.setChannelRate(noiseChannelFromName(channel.first),
                                      channel.second);

        if (verifyMode) {
            const int rc = runVerify(logical, noiseModel);
            writeObs();
            return rc;
        }

        cache::ResultCache resultCache(
            cache::CacheConfig::forTool(cacheDir, noCache));

        PipelineOptions options;
        if (resultCache.enabled())
            options.cache = &resultCache;
        const CompileResult result = compile(technique, logical, options);

        const std::string compiled = format == "qasm"
                                         ? circuitToQasm(result.physical)
                                         : circuitToText(result.physical);
        if (output.empty()) {
            std::fputs(compiled.c_str(), stdout);
        } else {
            std::ofstream out(output);
            if (!out) {
                std::fprintf(stderr, "geyserc: cannot write %s\n",
                             output.c_str());
                return 1;
            }
            out << compiled;
        }

        if (!quiet) {
            std::fprintf(stderr,
                         "technique:     %s\n"
                         "topology:      %s\n"
                         "gates:         %d u3, %d cz, %d ccz\n"
                         "total pulses:  %ld\n"
                         "depth pulses:  %ld\n"
                         "swaps:         %d\n",
                         techniqueName(result.technique),
                         result.topology.name().c_str(), result.stats.u3Count,
                         result.stats.czCount, result.stats.cczCount,
                         result.stats.totalPulses, result.stats.depthPulses,
                         result.swapsInserted);
            if (technique == Technique::Geyser)
                std::fprintf(stderr, "blocks:        %d (%d composed)\n",
                             result.blockCount, result.composedBlockCount);
            std::fprintf(stderr,
                         "wall ms:       %.1f total (%.1f transpile, "
                         "%.1f blocking, %.1f compose)\n",
                         result.totalMs, result.transpileMs,
                         result.blockingMs, result.composeMs);
        }
        if (draw)
            std::fprintf(stderr, "%s", drawCircuit(result.physical,
                                                   40).c_str());
        if (pulses) {
            const Schedule sched = scheduleRestrictionAware(
                result.physical, result.topology);
            std::fprintf(stderr, "%s",
                         lowerToPulses(result.physical, sched)
                             .toString().c_str());
        }
        if (evaluate) {
            TrajectoryConfig cfg;
            cfg.trajectories = trajectories;
            std::fprintf(stderr, "ideal TVD:     %.3e\n", idealTvd(result));
            std::fprintf(stderr, "noisy TVD:     %.4f (rate %.4g%s)\n",
                         evaluateTvd(result, noiseModel, cfg), noiseRate,
                         channelRates.empty() ? ""
                                              : ", +channel overrides");
        }
        writeObs();
        return 0;
    } catch (const std::exception &e) {
        // Shared with geyserd: taxonomy errors render kind-labelled
        // ("geyserc: parse error: qasm:17: ...") with exit 3 reserved
        // for internal bugs, and the two tools cannot drift apart.
        return renderCliError("geyserc", e);
    }
}
