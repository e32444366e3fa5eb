/**
 * @file
 * Domain example: compile a 4-qubit Cuccaro ripple-carry adder for a
 * neutral-atom machine and compare the output fidelity of all four
 * compilation strategies (including the superconducting square-grid
 * baseline) under increasing noise — a miniature of the paper's
 * Figs 15-18.
 *
 *   $ ./examples/adder_fidelity
 */
#include <cstdio>

#include "algos/algos.hpp"
#include "geyser/pipeline.hpp"

using namespace geyser;

int
main()
{
    const Circuit adder = adderBenchmark(1, true);
    std::printf("4-qubit Cuccaro adder (|a>|b> -> |a>|a+b>), "
                "%zu logical gates\n\n", adder.size());

    const auto base = compile(Technique::Baseline, adder);
    const auto opti = compile(Technique::OptiMap, adder);
    const auto gey = compile(Technique::Geyser, adder);
    const auto sc = compile(Technique::Superconducting, adder);

    std::printf("%-16s %8s %8s\n", "technique", "pulses", "depth");
    for (const auto *r : {&base, &opti, &gey, &sc})
        std::printf("%-16s %8ld %8ld\n", techniqueName(r->technique),
                    r->stats.totalPulses, r->stats.depthPulses);

    std::printf("\nTVD to ideal output vs error rate "
                "(500 trajectories):\n");
    std::printf("%-10s %10s %10s %10s %10s\n", "rate", "Baseline",
                "OptiMap", "Geyser", "SC-square");
    TrajectoryConfig cfg;
    cfg.trajectories = 500;
    for (const double rate : {0.0005, 0.001, 0.005}) {
        const NoiseModel nm = NoiseModel::withRate(rate);
        std::printf("%-10.4f %10.4f %10.4f %10.4f %10.4f\n", rate,
                    evaluateTvd(base, nm, cfg), evaluateTvd(opti, nm, cfg),
                    evaluateTvd(gey, nm, cfg), evaluateTvd(sc, nm, cfg));
    }
    std::printf("\nGeyser's composed CCZs (%d in this circuit) carry the\n"
                "Toffoli logic in 5 pulses each instead of ~27.\n",
                gey.stats.cczCount);
    return 0;
}
