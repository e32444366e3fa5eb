/**
 * @file
 * Interop example: compile a benchmark with Geyser and export both the
 * logical input and the compiled neutral-atom circuit as OpenQASM 2.0
 * (the CCZ gates are emitted as H-conjugated Toffolis for portability).
 *
 *   $ ./examples/export_qasm [benchmark-name]
 */
#include <cstdio>
#include <string>

#include "algos/suite.hpp"
#include "geyser/pipeline.hpp"
#include "io/serialize.hpp"

using namespace geyser;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "multiplier-5";
    const auto &spec = benchmarkByName(name);
    const Circuit logical = spec.make();
    const CompileResult gey = compile(Technique::Geyser, logical);

    std::printf("// ---- logical input: %s ----\n%s\n", name.c_str(),
                circuitToQasm(logical).c_str());
    std::printf("// ---- geyser-compiled (%ld pulses, %d CCZ) ----\n%s",
                gey.stats.totalPulses, gey.stats.cczCount,
                circuitToQasm(gey.physical).c_str());
    return 0;
}
