/**
 * @file
 * Quickstart: build a small program, compile it with all three
 * techniques, and inspect the pulse counts and the composed circuit.
 *
 *   $ ./examples/quickstart
 */
#include <cstdio>

#include "geyser/pipeline.hpp"

using namespace geyser;

int
main()
{
    // 1. Write a logical program using standard gates. This one
    //    entangles three qubits and runs a Toffoli — the pattern Geyser
    //    recomposes into a native CCZ on neutral atoms.
    Circuit program(3);
    program.h(0);
    program.cx(0, 1);
    program.ccx(0, 1, 2);
    program.t(2);
    program.ccx(0, 1, 2);
    program.h(2);

    // 2. Compile with each technique.
    for (const Technique t :
         {Technique::Baseline, Technique::OptiMap, Technique::Geyser}) {
        const CompileResult result = compile(t, program);
        std::printf("%-10s: %4ld pulses, %4ld depth pulses, "
                    "%3d U3 / %2d CZ / %d CCZ gates\n",
                    techniqueName(result.technique),
                    result.stats.totalPulses, result.stats.depthPulses,
                    result.stats.u3Count, result.stats.czCount,
                    result.stats.cczCount);
    }

    // 3. Verify the Geyser circuit still computes the same function.
    const CompileResult geyser = compile(Technique::Geyser, program);
    std::printf("\nGeyser vs original, ideal-output TVD: %.2e "
                "(paper requires < 1e-2)\n",
                idealTvd(geyser));

    // 4. Estimate output fidelity under the paper's 0.1%% noise model.
    const NoiseModel noise = NoiseModel::paperDefault();
    TrajectoryConfig cfg;
    cfg.trajectories = 500;
    std::printf("Noisy-output TVD to ideal: %.4f\n",
                evaluateTvd(geyser, noise, cfg));
    return 0;
}
