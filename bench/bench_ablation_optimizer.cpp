/**
 * @file
 * Ablation of the paper's Sec 3.4 composition optimizer: the paper's
 * dual annealing versus this repo's default, rotosolve exact coordinate
 * descent, on the blocks produced by real workloads.
 *
 * The only end-to-end caller of the annealing objective
 * (AnsatzEvaluator::traceAt), so it doubles as a gate: it exits
 * non-zero when rotosolve composes fewer blocks than dual annealing, or
 * when a composed block's dense HSD against its source block exceeds
 * ComposeOptions::threshold.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "blocking/blocker.hpp"
#include "common.hpp"
#include "sim/unitary_sim.hpp"
#include "transpile/basis.hpp"
#include "transpile/passes.hpp"
#include "transpile/router.hpp"

using namespace geyser;
using namespace geyser::bench;

namespace {

struct Outcome
{
    int composed = 0;
    int total = 0;
    long evaluations = 0;
    double millis = 0.0;
    double worstHsd = 0.0;  ///< Largest dense HSD of a composed block.
};

Outcome
composeAll(const std::vector<Circuit> &blocks, ComposeOptimizer optimizer)
{
    Outcome out;
    ComposeOptions opts;
    opts.optimizer = optimizer;
    std::vector<ComposeResult> results;
    const auto start = std::chrono::steady_clock::now();
    for (const auto &block : blocks)
        results.push_back(composeBlock(block, opts));
    out.millis = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    for (size_t i = 0; i < blocks.size(); ++i) {
        ++out.total;
        out.evaluations += results[i].evaluations;
        if (!results[i].composed)
            continue;
        ++out.composed;
        out.worstHsd = std::max(
            out.worstHsd, hilbertSchmidtDistance(
                              circuitUnitary(results[i].circuit),
                              circuitUnitary(blocks[i])));
    }
    return out;
}

}  // namespace

int
main()
{
    // Collect the real composition workload: all blocks of the small
    // benchmarks after mapping + optimization + blocking.
    std::vector<Circuit> blocks;
    for (const char *name : {"adder-4", "multiplier-5", "qft-5"}) {
        const auto &spec = benchmarkByName(name);
        const Circuit logical = spec.make();
        const Topology topo = Topology::forQubits(logical.numQubits());
        Circuit phys = decomposeToBasis(logical);
        optimize(phys);
        const Circuit routed = route(phys, topo).circuit;
        const auto blocked = blockCircuit(routed, topo);
        for (const auto &round : blocked.rounds)
            for (const auto &block : round.blocks)
                blocks.push_back(blocked.localCircuit(block));
    }
    std::printf("Ablation (Sec 3.4): composition optimizer on %zu real "
                "blocks\n\n",
                blocks.size());
    const std::vector<int> widths{14, 12, 14, 12, 12};
    printRow({"Optimizer", "Composed", "Evaluations", "Time (ms)",
              "Worst HSD"},
             widths);
    printRule(widths);
    Outcome outcomes[2];
    int row = 0;
    for (const auto &[name, opt] :
         {std::pair{"Rotosolve", ComposeOptimizer::Rotosolve},
          std::pair{"DualAnneal", ComposeOptimizer::DualAnnealing}}) {
        const Outcome o = composeAll(blocks, opt);
        outcomes[row++] = o;
        char t[32], h[32];
        std::snprintf(t, sizeof(t), "%.0f", o.millis);
        std::snprintf(h, sizeof(h), "%.2e", o.worstHsd);
        printRow({name, fmtLong(o.composed) + "/" + fmtLong(o.total),
                  fmtLong(o.evaluations), t, h},
                 widths);
    }
    std::printf("\nExpected: rotosolve composes at least as many blocks as\n"
                "dual annealing at a fraction of the evaluations.\n");

    bool ok = true;
    if (outcomes[0].composed < outcomes[1].composed) {
        std::printf("FAIL: rotosolve composed %d blocks, dual annealing %d\n",
                    outcomes[0].composed, outcomes[1].composed);
        ok = false;
    }
    for (const Outcome &o : outcomes) {
        if (o.worstHsd > ComposeOptions::threshold) {
            std::printf("FAIL: a composed block's dense HSD %.3e exceeds "
                        "the threshold %.1e\n",
                        o.worstHsd, ComposeOptions::threshold);
            ok = false;
        }
    }
    return ok ? 0 : 1;
}
