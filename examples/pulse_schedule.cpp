/**
 * @file
 * Control-stack example: compile a small program with Geyser, draw the
 * compiled circuit, and lower it to the laser-pulse program a
 * neutral-atom controller would execute (paper Figs 2-3).
 *
 *   $ ./examples/pulse_schedule
 */
#include <cstdio>

#include "circuit/draw.hpp"
#include "geyser/pipeline.hpp"
#include "pulse/pulse.hpp"

using namespace geyser;

int
main()
{
    Circuit program(3);
    program.h(0);
    program.cx(0, 1);
    program.ccx(0, 1, 2);

    std::printf("logical program:\n%s\n",
                drawCircuit(program).c_str());

    const CompileResult gey = compile(Technique::Geyser, program);
    std::printf("geyser-compiled (%ld pulses, %ld depth):\n%s\n",
                gey.stats.totalPulses, gey.stats.depthPulses,
                drawCircuit(gey.physical, 16).c_str());

    const Schedule sched =
        scheduleRestrictionAware(gey.physical, gey.topology);
    const PulseProgram pulses = lowerToPulses(gey.physical, sched);
    std::printf("pulse program (%zu pulses: %d Raman, %d pi, %d 2pi):\n%s",
                pulses.pulses.size(), pulses.countKind(PulseKind::Raman),
                pulses.countKind(PulseKind::RydbergPi),
                pulses.countKind(PulseKind::Rydberg2Pi),
                pulses.toString().c_str());
    return 0;
}
