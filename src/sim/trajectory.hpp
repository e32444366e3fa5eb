/**
 * @file
 * Monte-Carlo trajectory simulator: the stand-in for the paper's IBMQ
 * QASM noisy simulation. Each trajectory executes the circuit once with
 * every enabled noise channel (sim/noise_channel.hpp) sampling its
 * errors; the full probability vectors of the trajectories are averaged
 * (much lower variance than sampling shots), which converges to the
 * exact output of the composed channel.
 */
#ifndef GEYSER_SIM_TRAJECTORY_HPP
#define GEYSER_SIM_TRAJECTORY_HPP

#include "circuit/circuit.hpp"
#include "common/types.hpp"
#include "sim/noise.hpp"
#include "topology/topology.hpp"

namespace geyser {

/** Configuration for a noisy-output estimate. */
struct TrajectoryConfig
{
    /** Trajectory count; must be positive (validated at entry). */
    int trajectories = 200;
    uint64_t seed = 1234;
    /**
     * Use the global thread pool to run trajectories in parallel.
     * Results are bit-identical to the serial path: trajectories are
     * accumulated in fixed-size chunks whose partial sums are combined
     * in chunk order, so the floating-point reduction order never
     * depends on this flag or on the worker count.
     */
    bool parallel = true;
    /**
     * Atom arrangement, needed only when the noise model enables
     * Rydberg crosstalk (restriction zones depend on positions). Must
     * outlive the simulation call. A crosstalk-enabled model without a
     * topology, or with one whose atom count is not the circuit's
     * qubit count, is rejected with ValidationError.
     */
    const Topology *topology = nullptr;
    /**
     * Run the trajectory loop even when the noise model is noiseless
     * (normally short-circuited to the statevector output). Used by the
     * differential verifier to cross-check the trajectory engine
     * itself. A noiseless forced run is deterministic, so the engine
     * runs exactly one trajectory regardless of `trajectories`.
     */
    bool forceTrajectories = false;
    /**
     * Debug/verify knob: apply the noise channels in reverse
     * registration order. Because every extended channel draws from its
     * own counter-derived stream, the output distribution must be
     * bit-identical either way; the differential verifier asserts this.
     */
    bool reverseChannelOrder = false;
};

/**
 * Average output distribution of `circuit` under `noise`.
 *
 * Each trajectory simulates atoms 0 and 1 and every atom some gate acts
 * on. Every other atom stays |0> and gets no amplitudes
 * (StateVector::pinned); the distribution still covers all 2^n
 * outcomes and is bit-identical to a whole-register run (DESIGN §14).
 *
 * Trajectories run 16 to a chunk and share their noiseless prefix
 * (DESIGN §14, "Shared prefixes"). Every draw is keyed on (shot seed,
 * channel, gate), so each source's query (NoiseSource::actsAtShotStart,
 * actsAtGate) finds a trajectory's first acting gate from the draws
 * alone. Before it the trajectory's state is the chunk's quiet state:
 * each gate's unitary, then each source's onQuietGate. The chunk
 * advances one quiet state through its trajectories' first acting
 * gates in increasing order, checkpoints it there, and runs each
 * trajectory from its checkpoint with every hook, in seed order. The
 * result is bit-identical to running every gate of every trajectory
 * with every hook; `sim.gates_shared` counts the gate applications
 * this saves.
 *
 * Validated at entry (ValidationError):
 *  - every probability in `noise` must be finite and in [0, 1], and
 *    noise.idleDephasing finite and >= 0; the error names the field;
 *  - config.trajectories must be positive;
 *  - noise.crosstalkPhase > 0 requires config.topology, with as many
 *    atoms as the circuit has qubits; the error names both counts;
 *  - noise.perPulse with a nonzero flip rate, and
 *    noise.idleDephasing > 0, require a physical circuit (pulse counts /
 *    the ASAP schedule are undefined otherwise); the error names the
 *    first offending gate.
 */
Distribution noisyDistribution(const Circuit &circuit,
                               const NoiseModel &noise,
                               const TrajectoryConfig &config = {});

}  // namespace geyser

#endif  // GEYSER_SIM_TRAJECTORY_HPP
