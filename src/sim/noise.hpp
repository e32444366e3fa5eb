/**
 * @file
 * Noise-model parameters for the trajectory simulator.
 *
 * The model is a *composition of channels*. The paper's Sec-4 model —
 * bit-flip and phase-flip errors at a configurable rate, self-tensored
 * across the qubits of multi-qubit gates — is one channel together
 * with its Sec-6 Rydberg-crosstalk extension; on top of it the library
 * models the physics that dominates real neutral-atom fidelity as
 * independent channels:
 *
 *  - amplitude damping (T1 decay sampled as quantum jumps per gate),
 *  - time-aware idle dephasing (T2 phase errors scaled by how many
 *    pulses a qubit sits idle before each gate, from the ASAP
 *    schedule),
 *  - atom loss, both the paper's Sec-6 pre-shot loss and mid-circuit
 *    loss (an atom can be lost at any gate; later gates on it do not
 *    fire and its readout is depolarized),
 *  - correlated two-qubit Pauli errors on entangling gates,
 *  - readout assignment error (a symmetric measurement confusion
 *    matrix applied to the output distribution).
 *
 * Each channel is implemented as a `NoiseSource` (sim/noise_channel.hpp)
 * with its own counter-derived RNG stream, so enabling one channel
 * never perturbs another channel's draws and per-channel ablations stay
 * seed-comparable. What a trajectory average must reproduce is the
 * composed channel, not a particular draw order: its exact counterpart
 * is the Kraus evolution in sim/density_matrix.hpp.
 *
 * An optional per-pulse scaling mode multiplies the error probability of
 * a gate by its pulse count — used by an ablation bench to show why
 * Geyser optimizes pulses rather than gate count. With a nonzero flip
 * rate it requires a physical circuit; `noisyDistribution` validates
 * that, and every rate's range, at entry.
 */
#ifndef GEYSER_SIM_NOISE_HPP
#define GEYSER_SIM_NOISE_HPP

#include <string>
#include <vector>

#include "circuit/gate.hpp"

namespace geyser {

/**
 * Stable identity of one noise channel. The enum value keys the
 * channel's counter-derived RNG stream (see sim/noise_channel.hpp), so
 * the order here is part of the reproducibility contract: renumbering
 * changes every extended-channel distribution.
 */
enum class NoiseChannelId : uint8_t {
    LegacyPauli = 0,   ///< Paper Sec-4 flips + Sec-6 crosstalk.
    AmpDamping,        ///< T1 quantum jumps per gate.
    IdleDephasing,     ///< Schedule-derived idle Z errors.
    AtomLossTracking,  ///< Pre-shot and mid-circuit atom loss.
    CorrelatedPauli,   ///< Joint Pauli pairs on entangling gates.
    ReadoutError,      ///< Measurement confusion matrix.
};

/** Number of channel kinds (array sizing). */
inline constexpr size_t kNumNoiseChannels = 6;

/** Stable kebab-case channel name ("legacy-pauli", "amp-damp", ...). */
const char *noiseChannelName(NoiseChannelId id);

/** Parse a channel name back to an id; throws ValidationError. */
NoiseChannelId noiseChannelFromName(const std::string &name);

/** All channel names, in NoiseChannelId order (CLI/bench enumeration). */
const std::vector<std::string> &noiseChannelNames();

/** Composable noise-channel parameters (all probabilities per event). */
struct NoiseModel
{
    /** Probability of an X error per qubit per operation. */
    double bitFlip = 0.001;
    /** Probability of a Z error per qubit per operation. */
    double phaseFlip = 0.001;
    /** Scale error probability by the gate's pulse count. */
    bool perPulse = false;
    /**
     * Per-shot probability that an atom is lost before the circuit runs
     * (paper Sec 6 "Neutral Atom Loss"). A lost atom is replaced by
     * shuttling a spare in, which arrives in |0> having missed every
     * gate so far; we model the pessimistic in-shot variant where the
     * replacement misses the whole circuit (gates on it act as
     * identity and its readout is depolarized). Sampled by the
     * atom-loss channel, which also owns `lossPerGate`.
     */
    double atomLoss = 0.0;
    /**
     * Rydberg crosstalk: probability of a phase flip on each atom in a
     * multi-qubit gate's restriction zone while the gate runs (spectator
     * atoms feel the Rydberg interaction tails). Requires a topology at
     * simulation time; `noisyDistribution` rejects a crosstalk-enabled
     * model without one.
     */
    double crosstalkPhase = 0.0;

    // ---- Extended channels (each one an independent NoiseSource) ----

    /**
     * Amplitude-damping (T1) jump probability per qubit per gate it
     * participates in. Sampled as a quantum jump: with probability
     * gamma * P(q = 1) the qubit collapses to |0>; otherwise the
     * no-jump Kraus operator is applied and the state renormalized.
     */
    double ampDamping = 0.0;
    /**
     * Idle-dephasing rate per pulse of idle time: a qubit that sits
     * idle for t pulses before a gate suffers a Z error with
     * probability 0.5 * (1 - exp(-idleDephasing * t)) (the T2
     * exponential, saturating at the fully-dephased 1/2). Idle
     * durations come from the ASAP schedule, so this channel requires
     * a physical circuit.
     */
    double idleDephasing = 0.0;
    /**
     * Mid-circuit atom-loss probability per qubit per gate: each atom
     * a gate is about to act on can be lost (heating, background-gas
     * collision, failed transfer) just before the gate fires; the gate
     * and all later gates on that atom do not fire, and its readout is
     * depolarized. Unlike `atomLoss`, loss can strike anywhere in the
     * circuit, so early gates still count.
     */
    double lossPerGate = 0.0;
    /**
     * Correlated two-qubit Pauli error probability per entangling
     * gate: with this probability one of the 15 non-identity two-qubit
     * Pauli pairs (uniformly chosen) is applied to two of the gate's
     * operands — the Rydberg-blockade error mechanism that independent
     * per-qubit flips cannot represent.
     */
    double correlatedPauli = 0.0;
    /**
     * Symmetric readout assignment error: each qubit's measured value
     * flips with this probability, applied exactly as a per-qubit
     * confusion matrix on the output distribution.
     */
    double readoutError = 0.0;

    /** The paper's default configuration (0.1% both channels). */
    static NoiseModel paperDefault() { return {0.001, 0.001, false, 0.0}; }

    /** Paper sensitivity points: 0.05% and 0.5%. */
    static NoiseModel withRate(double rate)
    {
        return {rate, rate, false, 0.0};
    }

    /** A model with every channel off (useful as an ablation base). */
    static NoiseModel noiseless()
    {
        return {0.0, 0.0, false, 0.0};
    }

    /** Effective per-qubit error probability for a given gate. */
    double bitFlipFor(const Gate &gate) const;
    double phaseFlipFor(const Gate &gate) const;

    /** True when every channel is off. */
    bool isNoiseless() const
    {
        return bitFlip == 0.0 && phaseFlip == 0.0 && atomLoss == 0.0 &&
               crosstalkPhase == 0.0 && ampDamping == 0.0 &&
               idleDephasing == 0.0 && lossPerGate == 0.0 &&
               correlatedPauli == 0.0 && readoutError == 0.0;
    }

    /**
     * Set one channel's rate by id: the paper channel sets bitFlip and
     * phaseFlip together (the paper couples them); extended channels
     * set their single field. Throws ValidationError for rates outside
     * [0, 1].
     */
    void setChannelRate(NoiseChannelId id, double rate);

    /** A model with only `id` enabled at `rate` (per-channel ablations). */
    static NoiseModel singleChannel(NoiseChannelId id, double rate);
};

}  // namespace geyser

#endif  // GEYSER_SIM_NOISE_HPP
