/**
 * @file
 * Per-channel noise ablations.
 *
 * Runs the Fig 15 protocol with one channel enabled at a time (at its
 * default ablation rate), over the TVD suite and all three compilation
 * techniques, so each channel's contribution to circuit infidelity is
 * visible in isolation — the per-channel RNG streams make the rows
 * seed-comparable across ablations.
 *
 *   bench_noise_channels [--channel <name>[=<rate>]] [--json <file>]
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"

using namespace geyser;
using namespace geyser::bench;

namespace {

const char *
flagValue(int argc, char **argv, const char *flag)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    return nullptr;
}

}  // namespace

int
main(int argc, char **argv)
{
    ReportSession session(argc, argv, "bench_noise_channels");
    const ChannelFlag only = parseChannelFlag(argc, argv);
    const char *jsonPath = flagValue(argc, argv, "--json");

    std::printf("Per-channel noise ablations, Fig 15 protocol "
                "(%d trajectories)\n\n",
                trajectoryConfig(0).trajectories);
    const std::vector<int> widths{18, 14, 10, 10, 10};
    printRow({"Channel", "Benchmark", "Baseline", "OptiMap", "Geyser"},
             widths);
    printRule(widths);

    obs::Json rows = obs::Json::array();
    for (size_t ci = 0; ci < kNumNoiseChannels; ++ci) {
        const auto id = static_cast<NoiseChannelId>(ci);
        if (only.set && only.id != id)
            continue;
        const double rate = only.set && only.rate >= 0.0
                                ? only.rate
                                : defaultChannelRate(id);
        const NoiseModel nm = NoiseModel::singleChannel(id, rate);
        for (const auto &spec : tvdSuite()) {
            const auto cfg =
                trajectoryConfig(7000 + spec.numQubits + 131 * ci);
            const double base = evaluateTvd(
                compileCached(spec, Technique::Baseline), nm, cfg);
            const double opti = evaluateTvd(
                compileCached(spec, Technique::OptiMap), nm, cfg);
            const double gey = evaluateTvd(
                compileCached(spec, Technique::Geyser), nm, cfg);
            printRow({noiseChannelName(id), spec.name, fmtTvd(base),
                      fmtTvd(opti), fmtTvd(gey)},
                     widths);
            obs::Json row = obs::Json::object();
            row.set("channel", noiseChannelName(id));
            row.set("rate", rate);
            row.set("benchmark", spec.name);
            row.set("baseline", base);
            row.set("optimap", opti);
            row.set("geyser", gey);
            if (session.active())
                session.addRow(row);
            rows.push(std::move(row));
        }
    }

    if (jsonPath != nullptr) {
        obs::Json out = obs::Json::object();
        out.set("bench", "noise-channels");
        out.set("trajectories", trajectoryConfig(0).trajectories);
        out.set("rows", std::move(rows));
        std::ofstream f(jsonPath);
        f << out.dump(2) << "\n";
        std::printf("\nwrote %s\n", jsonPath);
    }
    std::printf("\nExpected shape: each channel's TVD shrinks from "
                "Baseline to Geyser\n(fewer pulses, less idle time, fewer "
                "entangling gates to strike),\nexcept readout, which "
                "depends only on the final layout width.\n");
    return 0;
}

