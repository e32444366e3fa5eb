/**
 * @file
 * Differential simulator testing: run the same circuit through the three
 * independent simulation engines and cross-check them against each other.
 *
 *  - statevector vs the trajectory engine with noise forced off: the
 *    trajectory loop applies exactly the same gate operations, so the
 *    outputs must agree to floating-point identity;
 *  - exact density-matrix (Kraus) evolution vs the trajectory average of
 *    the same per-gate channels (Pauli flips and amplitude damping):
 *    must agree within a Monte-Carlo tolerance.
 *
 * On divergence the report carries a *minimized* reproducer circuit (a
 * greedy delta-debugging shrink of the failing input), so a fuzz failure
 * is immediately actionable.
 */
#ifndef GEYSER_VERIFY_DIFFERENTIAL_HPP
#define GEYSER_VERIFY_DIFFERENTIAL_HPP

#include <functional>
#include <string>

#include "circuit/circuit.hpp"
#include "sim/noise.hpp"

namespace geyser {
namespace verify {

/** Knobs for one differential run. */
struct DifferentialOptions
{
    /** Trajectories for the channel comparison. */
    int trajectories = 400;
    uint64_t seed = 99;
    /** Bound on |p_sv - p_traj| per outcome in the noiseless stage. */
    double idealTolerance = 1e-12;
    /** TVD bound for density-matrix vs trajectory-averaged output. */
    double channelTolerance = 0.05;
    /** Density-matrix cost is 4^n; skip the channel stage above this. */
    int maxDensityMatrixQubits = 6;
    /** Shrink the failing circuit before reporting. */
    bool minimizeOnFailure = true;
    /**
     * Also assert that composing every extended noise channel is
     * invariant under the channel application order (bit-identical
     * distributions with TrajectoryConfig::reverseChannelOrder set) —
     * the property the per-channel counter-derived RNG streams exist
     * to guarantee.
     */
    bool checkChannelOrder = true;
};

/** Outcome of a differential run. */
struct DifferentialReport
{
    bool passed = true;
    /** Stage that diverged: "statevector-vs-trajectory" or
     *  "density-matrix-vs-trajectory"; empty when passed. */
    std::string stage;
    /** Worst per-outcome gap (ideal stage) or TVD (channel stage). */
    double divergence = 0.0;
    std::string detail;
    /** Minimized failing circuit; empty when passed. */
    Circuit reproducer;
};

/**
 * Cross-check all simulators on `circuit`. The channel stage keeps the
 * rates of `noise` the density-matrix engine models (bit/phase flips,
 * per-pulse scaling, amplitude damping) and zeroes the rest; it is
 * skipped when what remains is noiseless or the circuit is too wide.
 */
DifferentialReport runDifferential(const Circuit &circuit,
                                   const NoiseModel &noise,
                                   const DifferentialOptions &options = {});

/**
 * Channel-off cross-check: the trajectory engine forced through its
 * loop with every noise channel disabled must reproduce the exact
 * statevector distribution. Returns the worst per-outcome gap
 * (0 up to floating-point identity when the engine is healthy).
 */
double channelsOffGap(const Circuit &circuit, uint64_t seed);

/**
 * Channel-order invariance: run `noise` over `circuit` twice, with the
 * channels applied in registration order and in reverse, and return
 * the worst per-outcome gap. Counter-derived per-channel RNG streams
 * make the two runs bit-identical, so any nonzero gap is a bug.
 */
double channelOrderGap(const Circuit &circuit, const NoiseModel &noise,
                       int trajectories, uint64_t seed);

/**
 * `noise` extended with every composable channel enabled at small
 * probe rates (idle dephasing only when `circuit` is physical — the
 * schedule is undefined otherwise): the model the order-invariance
 * stage exercises.
 */
NoiseModel allChannelProbeModel(const Circuit &circuit,
                                const NoiseModel &noise);

/**
 * Greedy shrink: the shortest prefix of `circuit` on which `stillFails`
 * holds, then single-gate removals to a local minimum. `stillFails` must
 * hold on the full circuit.
 */
Circuit minimizeFailingCircuit(
    const Circuit &circuit,
    const std::function<bool(const Circuit &)> &stillFails);

}  // namespace verify
}  // namespace geyser

#endif  // GEYSER_VERIFY_DIFFERENTIAL_HPP
