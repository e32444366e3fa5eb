/**
 * @file
 * geyser_perfbench — one process of the pipeline benchmark. run.py
 * builds it, starts it once per pass (or per batch of passes), and
 * folds the JSON lines it prints into the benchmark's metrics.
 *
 *   geyser_perfbench --workload suite-cold|fleet-sweep|noise-stack
 *                    --seed <n> [--trace 0|1] [--seconds <s>]
 *                    [--scratch <dir>]
 *
 * Exit status: 0 when the pass ran (correctness failures are reported
 * in the pass line), 1 on a usage or set-up error.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "ledger.hpp"

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "geyser_perfbench: %s\n"
                 "usage: geyser_perfbench --workload "
                 "suite-cold|fleet-sweep|noise-stack --seed <n> "
                 "[--trace 0|1] [--seconds <s>] [--scratch <dir>]\n",
                 why);
    return 1;
}

}  // namespace

int
main(int argc, char **argv)
{
    perfbench::Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value, &end, 10);
        } else if (flag == "--trace") {
            args.trace = std::strcmp(value, "1") == 0;
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value, &end);
        } else if (flag == "--scratch") {
            args.scratch = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
        if (end != nullptr && *end != '\0')
            return usage(("bad number for " + flag).c_str());
    }
    try {
        if (args.workload == "suite-cold")
            return perfbench::runSuiteCold(args);
        if (args.workload == "fleet-sweep")
            return perfbench::runFleetSweep(args);
        if (args.workload == "noise-stack")
            return perfbench::runNoiseStack(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "geyser_perfbench: %s\n", e.what());
        return 1;
    }
    return usage("unknown workload");
}
