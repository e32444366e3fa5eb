/**
 * @file
 * Circuit blocking (paper Sec 3.3, Algorithm 1): partition a mapped
 * physical circuit into rounds of concurrently-executable <=3-qubit
 * blocks, maximizing the operations (pulse-weighted by default) captured
 * per round while respecting restriction zones.
 */
#ifndef GEYSER_BLOCKING_BLOCKER_HPP
#define GEYSER_BLOCKING_BLOCKER_HPP

#include "blocking/block.hpp"
#include "topology/topology.hpp"

namespace geyser {

/** Tuning knobs for the blocking search. */
struct BlockerOptions
{
    /**
     * Score candidate blocks by pulse count (the paper's pulse-aware
     * blocking) instead of gate count; the gate-aware setting exists for
     * the ablation bench.
     */
    bool pulseAware = true;
};

/**
 * Block a routed physical circuit (gate operands are atoms of `topo`,
 * every multi-qubit gate acts on adjacent atoms). Every gate lands in
 * exactly one block; the result satisfies BlockedCircuit invariants.
 */
BlockedCircuit blockCircuit(const Circuit &circuit, const Topology &topo,
                            const BlockerOptions &options = {});

}  // namespace geyser

#endif  // GEYSER_BLOCKING_BLOCKER_HPP
