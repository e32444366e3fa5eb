/**
 * @file
 * Extension ablation: the paper's composition layers always entangle
 * with CCZ (the categorical parameter picks among pulse-equivalent CCZ
 * orientations). This repo also supports an Extended mode where each
 * layer may instead choose a cheaper CZ on one of the three pairs.
 * Compares the composed pulse counts of both modes.
 */
#include <cstdio>

#include "common.hpp"

using namespace geyser;
using namespace geyser::bench;

int
main()
{
    std::printf("Ablation: composition entangler mode (paper CCZ-only vs "
                "extended CZ-or-CCZ)\n\n");
    const std::vector<int> widths{14, 14, 14, 12};
    printRow({"Benchmark", "CCZ-only", "Extended", "Extended CCZs"},
             widths);
    printRule(widths);
    for (const auto &spec : benchmarkSuite()) {
        if (spec.numQubits > 5)
            continue;
        const Circuit logical = spec.make();

        PipelineOptions paper;
        paper.compose.entanglerMode = EntanglerMode::PaperCcz;
        PipelineOptions extended;
        extended.compose.entanglerMode = EntanglerMode::Extended;

        const auto a = compile(Technique::Geyser, logical, paper);
        const auto b = compile(Technique::Geyser, logical, extended);
        printRow({spec.name, fmtLong(a.stats.totalPulses),
                  fmtLong(b.stats.totalPulses), fmtLong(b.stats.cczCount)},
                 widths);
    }
    std::printf("\nExtended mode can only match or beat CCZ-only pulses\n"
                "(CZ layers cost 3 pulses vs 5) at the price of a larger\n"
                "per-layer search space.\n");
    return 0;
}
