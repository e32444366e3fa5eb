/**
 * @file
 * geyser-fleet — batch compilation front end: compiles a fleet of
 * circuits (QASM files and/or generated parameter sweeps) across one or
 * more techniques on one standard footing, exploiting skeleton /
 * parameter structure sharing, and emits the aggregate fair-comparison
 * report as a rendered table and/or JSON.
 *
 * Usage:
 *   geyser-fleet [options] [member.qasm ...]
 *   geyser-fleet --sweep vqe:<qubits>x<layers>:<members> [options]
 *
 * Options:
 *   --sweep vqe:<q>x<l>:<n>  append n VQE members (seeds 0..n-1): same
 *                            circuit skeleton, per-seed random angles —
 *                            the canonical structure-sharing workload
 *                            (repeatable)
 *   --techniques <a,b,...>   comma-separated technique list; each member
 *                            is compiled once per technique (default
 *                            geyser)
 *   --verify <n>             re-bound members per skeleton group checked
 *                            against a from-scratch compile (default 1;
 *                            0 disables)
 *   --tvd <n>                members per technique to simulate for the
 *                            noisy-TVD report column (default 0 = skip)
 *   --noise <rate>           noise rate for --tvd (default 0.001)
 *   --trajectories <n>       trajectories for --tvd (default honours
 *                            GEYSER_TRAJECTORIES, else 200)
 *   --json <file>            write the aggregate report JSON ('-' for
 *                            stdout)
 *   --serial                 compile members sequentially (defaults to
 *                            the global thread pool)
 *   --quiet                  suppress the rendered table
 *   --cache-dir <dir>        persistent result cache root (skeleton
 *                            plans, composed blocks, and exact entries
 *                            all persist there). Defaults to
 *                            $GEYSER_CACHE_DIR when set.
 *   --no-cache               compile uncached even if GEYSER_CACHE_DIR
 *                            is set
 */
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "algos/algos.hpp"
#include "cache/result_cache.hpp"
#include "common/error.hpp"
#include "fleet/fleet.hpp"
#include "io/qasm_parser.hpp"

using namespace geyser;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [options] [member.qasm ...]\n"
                 "       %s --sweep vqe:<q>x<l>:<n> [options]\n"
                 "options:\n"
                 "  --sweep vqe:<q>x<l>:<n>   (repeatable)\n"
                 "  --techniques <a,b,...>    --verify <n>\n"
                 "  --tvd <n>  --noise <rate>  --trajectories <n>\n"
                 "  --json <file|->  --serial  --quiet\n"
                 "  --cache-dir <dir>  --no-cache\n",
                 argv0, argv0);
    std::exit(2);
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

/** "vqe:<q>x<l>:<n>" → n fleet members named vqe<q>x<l>-s<seed>. */
void
appendSweep(const std::string &spec, std::vector<fleet::FleetJob> &jobs)
{
    const size_t colon1 = spec.find(':');
    const size_t colon2 =
        colon1 == std::string::npos ? colon1 : spec.find(':', colon1 + 1);
    if (colon1 == std::string::npos || colon2 == std::string::npos)
        throw ParseError("--sweep: expected vqe:<q>x<l>:<n>, got '" +
                         spec + "'");
    const std::string kind = spec.substr(0, colon1);
    const std::string shape = spec.substr(colon1 + 1, colon2 - colon1 - 1);
    const int members = parseIntArg("--sweep", spec.substr(colon2 + 1));
    if (kind != "vqe")
        throw ParseError("--sweep: unknown generator '" + kind +
                         "' (only vqe)");
    const size_t x = shape.find('x');
    if (x == std::string::npos)
        throw ParseError("--sweep: expected <q>x<l>, got '" + shape + "'");
    const int qubits = parseIntArg("--sweep", shape.substr(0, x));
    const int layers = parseIntArg("--sweep", shape.substr(x + 1));
    for (int seed = 0; seed < members; ++seed) {
        fleet::FleetJob job;
        job.name = "vqe" + shape + "-s" + std::to_string(seed);
        job.logical =
            vqeBenchmark(qubits, layers, static_cast<uint64_t>(seed));
        jobs.push_back(std::move(job));
    }
}

}  // namespace

int
main(int argc, char **argv)
{
    try {
        std::vector<fleet::FleetJob> jobs;
        std::string jsonPath, cacheDir;
        fleet::FleetOptions options;
        options.techniques.clear();
        bool quiet = false, noCache = false;

        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (++i >= argc)
                    usage(argv[0]);
                return argv[i];
            };
            if (arg == "--sweep")
                appendSweep(next(), jobs);
            else if (arg == "--techniques") {
                std::istringstream list(next());
                std::string token;
                while (std::getline(list, token, ','))
                    if (!token.empty())
                        options.techniques.push_back(
                            parseTechnique(token));
            }
            else if (arg == "--verify")
                options.verifySample = parseIntArg("--verify", next());
            else if (arg == "--tvd")
                options.tvdSample = parseIntArg("--tvd", next());
            else if (arg == "--noise")
                options.noise = NoiseModel::withRate(
                    parseDoubleArg("--noise", next()));
            else if (arg == "--trajectories")
                options.trajectories.trajectories =
                    parseIntArg("--trajectories", next());
            else if (arg == "--json")
                jsonPath = next();
            else if (arg == "--serial")
                options.parallel = false;
            else if (arg == "--quiet")
                quiet = true;
            else if (arg == "--cache-dir")
                cacheDir = next();
            else if (arg == "--no-cache")
                noCache = true;
            else if (arg == "--help" || arg == "-h")
                usage(argv[0]);
            else if (!arg.empty() && arg[0] == '-')
                usage(argv[0]);
            else {
                std::ifstream in(arg);
                if (!in) {
                    std::fprintf(stderr, "geyser-fleet: cannot open %s\n",
                                 arg.c_str());
                    return 1;
                }
                std::ostringstream text;
                text << in.rdbuf();
                fleet::FleetJob job;
                job.name = arg;
                job.logical = circuitFromQasm(text.str());
                jobs.push_back(std::move(job));
            }
        }
        if (jobs.empty())
            usage(argv[0]);
        if (options.techniques.empty())
            options.techniques.push_back(Technique::Geyser);

        cache::ResultCache resultCache(
            cache::CacheConfig::forTool(cacheDir, noCache));
        if (resultCache.enabled())
            options.pipeline.cache = &resultCache;

        const fleet::FleetReport report = fleet::compileFleet(jobs, options);

        if (!quiet)
            std::fputs(report.renderTable().c_str(), stdout);
        if (!jsonPath.empty()) {
            const std::string json = report.toJson();
            if (jsonPath == "-") {
                std::fwrite(json.data(), 1, json.size(), stdout);
            } else {
                std::ofstream out(jsonPath);
                if (!out) {
                    std::fprintf(stderr, "geyser-fleet: cannot write %s\n",
                                 jsonPath.c_str());
                    return 1;
                }
                out << json;
            }
        }
        return report.verifyFailures == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        return renderCliError("geyser-fleet", e);
    }
}
