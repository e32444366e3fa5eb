/**
 * @file
 * Domain example: solve a small MaxCut instance with QAOA, compiling
 * the ansatz with Geyser and reading the best cut from the (noisy)
 * output distribution — the variational workload the paper's intro
 * motivates.
 *
 *   $ ./examples/qaoa_maxcut
 */
#include <cstdio>
#include <vector>

#include "algos/algos.hpp"
#include "geyser/pipeline.hpp"

using namespace geyser;

namespace {

/** The fixed 5-vertex graph used by the qaoa-5 benchmark (seed 23). */
int
cutValue(size_t assignment, const std::vector<std::pair<int, int>> &edges)
{
    int cut = 0;
    for (const auto &[a, b] : edges) {
        const int sa = (assignment >> a) & 1;
        const int sb = (assignment >> b) & 1;
        if (sa != sb)
            ++cut;
    }
    return cut;
}

}  // namespace

int
main()
{
    // A 5-vertex ring plus one chord.
    const std::vector<std::pair<int, int>> edges{
        {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}};

    // Build a QAOA circuit by hand on this graph (p = 2 rounds with
    // hand-picked angles; a production loop would optimize them).
    Circuit qaoa(5);
    for (int q = 0; q < 5; ++q)
        qaoa.h(q);
    const double gammas[] = {0.6, 1.1};
    const double betas[] = {0.9, 0.4};
    for (int round = 0; round < 2; ++round) {
        for (const auto &[a, b] : edges)
            qaoa.rzz(a, b, 2.0 * gammas[round]);
        for (int q = 0; q < 5; ++q)
            qaoa.rx(q, 2.0 * betas[round]);
    }

    const CompileResult gey = compile(Technique::Geyser, qaoa);
    std::printf("QAOA MaxCut on 5 vertices / %zu edges\n", edges.size());
    std::printf("Geyser circuit: %ld pulses (%d U3, %d CZ, %d CCZ)\n\n",
                gey.stats.totalPulses, gey.stats.u3Count, gey.stats.czCount,
                gey.stats.cczCount);

    // Sample the noisy machine and rank assignments by probability.
    TrajectoryConfig cfg;
    cfg.trajectories = 400;
    const Distribution phys =
        noisyDistribution(gey.physical, NoiseModel::paperDefault(), cfg);
    const Distribution dist = projectToLogical(
        phys, gey.finalLayout, 5, gey.physical.numQubits());

    // Expected cut value and the best assignment found.
    double expectedCut = 0.0;
    size_t best = 0;
    for (size_t s = 0; s < dist.size(); ++s) {
        expectedCut += dist[s] * cutValue(s, edges);
        if (dist[s] > dist[best])
            best = s;
    }
    int maxCut = 0;
    for (size_t s = 0; s < dist.size(); ++s)
        maxCut = std::max(maxCut, cutValue(s, edges));

    std::printf("expected cut from QAOA output: %.3f\n", expectedCut);
    std::printf("most likely assignment: 0b");
    for (int q = 4; q >= 0; --q)
        std::printf("%d", static_cast<int>((best >> q) & 1));
    std::printf(" with cut %d (optimum %d)\n", cutValue(best, edges),
                maxCut);
    return 0;
}
