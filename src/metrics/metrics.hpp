/**
 * @file
 * Evaluation metrics from the paper (Sec 2.3 / Sec 4): total variation
 * distance over output distributions and summary statistics over
 * compiled circuits.
 */
#ifndef GEYSER_METRICS_METRICS_HPP
#define GEYSER_METRICS_METRICS_HPP

#include "circuit/circuit.hpp"
#include "common/types.hpp"
#include "topology/topology.hpp"

namespace geyser {

/**
 * Total variation distance: 1/2 * sum_k |p1(k) - p2(k)|. Distributions
 * must have the same length. In [0, 1]; 0 means identical outputs.
 */
double totalVariationDistance(const Distribution &p1, const Distribution &p2);

/** Gate/pulse summary of a physical circuit. */
struct CircuitStats
{
    int numQubits = 0;
    int u3Count = 0;
    int czCount = 0;
    int cczCount = 0;
    long totalPulses = 0;
    long depthPulses = 0;
};

/** Collect counts; depthPulses is filled with the ASAP schedule. */
CircuitStats circuitStats(const Circuit &circuit);

/**
 * Collect counts in one pass, then depthPulses from one schedule:
 * restriction-aware on `topology`, or ASAP when it is null.
 */
CircuitStats circuitStats(const Circuit &circuit, const Topology *topology);

}  // namespace geyser

#endif  // GEYSER_METRICS_METRICS_HPP
