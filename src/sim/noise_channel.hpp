/**
 * @file
 * Composable noise channels for the trajectory simulator.
 *
 * Each channel is a `NoiseSource`: an object with hooks that the
 * trajectory engine calls at fixed points of a shot (shot start, before
 * a gate fires, after it fires, on idle time, at readout). Per-shot
 * mutable state — the lost-atom set and per-channel event tallies —
 * lives in a `ShotContext` owned by the engine, so one `NoiseSource`
 * instance is shared by every trajectory across every worker thread
 * without synchronization.
 *
 * RNG discipline: every channel draws from a `StreamRng` keyed on
 * (shotSeed, channelId, gateIndex) — a counter-derived splitmix64
 * stream — or on (shotSeed, channelId, kShotEventIndex) for per-shot
 * draws. Consequences, relied on by tests:
 *  - toggling channel B never changes channel A's draws (streams are
 *    keyed, not sequential), so per-channel ablations at one seed are
 *    directly comparable;
 *  - the distribution is invariant under the order channels are
 *    registered in (TrajectoryConfig::reverseChannelOrder flips the
 *    order; verify asserts bit-identity);
 *  - serial and parallel runs agree bit-for-bit (no draw depends on
 *    scheduling).
 */
#ifndef GEYSER_SIM_NOISE_CHANNEL_HPP
#define GEYSER_SIM_NOISE_CHANNEL_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/circuit.hpp"
#include "sim/noise.hpp"
#include "sim/statevector.hpp"

namespace geyser {

/**
 * Counter-derived random stream: the state is a hash of
 * (shotSeed, channelId, eventIndex) and draws advance it with the
 * splitmix64 sequence. Cheap to construct per event, statistically
 * independent across keys, and independent of how many draws any other
 * stream made.
 */
class StreamRng
{
  public:
    StreamRng(uint64_t shot_seed, NoiseChannelId channel,
              uint64_t event_index);

    /** Uniform double in [0, 1) with 53 random bits. */
    double uniform();

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p) { return uniform() < p; }

    /** Uniform integer in [0, n). Requires n > 0. */
    int uniformInt(int n);

  private:
    uint64_t next64();

    uint64_t state_;
};

/** Reserved event index for per-shot (not per-gate) draws. */
inline constexpr uint64_t kShotEventIndex = ~uint64_t{0};

/** Per-shot mutable state shared by the engine and every channel. */
struct ShotContext
{
    ShotContext(uint64_t shot_seed, int num_qubits)
        : shotSeed(shot_seed), numQubits(num_qubits)
    {
    }

    uint64_t shotSeed;
    int numQubits;

    /** Lost-atom flags (lazily sized by markLost). */
    std::vector<char> lost;
    bool anyLost = false;

    /** Events applied per channel this shot (flips, jumps, losses...). */
    std::array<uint64_t, kNumNoiseChannels> events{};

    bool isLost(Qubit q) const
    {
        return anyLost && static_cast<size_t>(q) < lost.size() &&
               lost[static_cast<size_t>(q)] != 0;
    }

    void markLost(Qubit q)
    {
        if (lost.empty())
            lost.assign(static_cast<size_t>(numQubits), 0);
        lost[static_cast<size_t>(q)] = 1;
        anyLost = true;
    }

    void countEvent(NoiseChannelId id, uint64_t n = 1)
    {
        events[static_cast<size_t>(id)] += n;
    }
};

/** One gate occurrence, with the precomputed context channels need. */
struct GateEvent
{
    const Gate *gate = nullptr;
    /** Position in the circuit; keys per-gate RNG streams. */
    size_t index = 0;
    /**
     * Restriction-zone atoms of a multi-qubit gate (crosstalk; empty
     * for a single-qubit gate), or nullptr when crosstalk is off.
     */
    const std::vector<int> *zone = nullptr;
    /**
     * Idle pulses each operand accumulated since its previous gate
     * (ASAP schedule), or nullptr when idle dephasing is off.
     */
    const std::array<long, 3> *idlePulses = nullptr;
};

/**
 * One noise channel. Hooks default to no-ops; implementations override
 * the ones their physics needs. All hooks must be pure w.r.t. the
 * source object (const methods): per-shot state lives in ShotContext.
 *
 * Query contract (DESIGN §14, "Shared prefixes"). A shot's draws
 * *act* at a point when they change the state, the lost set or the
 * event tally there. actsAtShotStart and actsAtGate say whether they
 * do, from the draws alone: they make the same draws as the hooks,
 * through the same routine, change nothing, and may assume that no
 * earlier draw of the shot acted (no atom is lost yet). Before a
 * shot's first acting point every trajectory evolves the same way, so
 * the engine runs that prefix once for many shots: it applies each
 * quiet gate's unitary and then onQuietGate instead of the hooks. A
 * source that overrides onShotStart must override actsAtShotStart; one
 * that overrides onGateStart, onIdle or onGate must override
 * actsAtGate; and a hook that changes the state on a draw that does
 * not act must do the same in onQuietGate.
 */
class NoiseSource
{
  public:
    virtual ~NoiseSource() = default;

    /** Stable channel identity (keys the RNG stream and counters). */
    virtual NoiseChannelId id() const = 0;

    /** Channel name, for counters and reports. */
    const char *name() const { return noiseChannelName(id()); }

    /**
     * True for relaxation channels (amplitude damping): their onGate
     * action does not commute with Pauli injection, so the engine runs
     * them in a second, canonical phase after every injection channel.
     * With that grouping the composed per-gate map is independent of
     * the order sources are registered in — injection channels commute
     * with each other up to a global phase — which is the
     * order-invariance property the verifier asserts bit-exactly.
     */
    virtual bool isRelaxation() const { return false; }

    /** Once per shot, before any gate (pre-shot loss sampling). */
    virtual void onShotStart(ShotContext &ctx) const { (void)ctx; }

    /**
     * Before `ev.gate` fires (and before the engine decides whether it
     * fires at all): the place to sample mid-circuit atom loss.
     */
    virtual void onGateStart(const GateEvent &ev, ShotContext &ctx) const
    {
        (void)ev;
        (void)ctx;
    }

    /**
     * Idle time elapsing on the gate's operands just before it fires.
     * Only called for gates that actually fire.
     */
    virtual void onIdle(StateVector &sv, const GateEvent &ev,
                        ShotContext &ctx) const
    {
        (void)sv;
        (void)ev;
        (void)ctx;
    }

    /** After the gate's unitary was applied. */
    virtual void onGate(StateVector &sv, const GateEvent &ev,
                        ShotContext &ctx) const
    {
        (void)sv;
        (void)ev;
        (void)ctx;
    }

    /** Transform the shot's readout distribution (confusion matrices). */
    virtual void onReadout(Distribution &p, ShotContext &ctx) const
    {
        (void)p;
        (void)ctx;
    }

    /** True when onShotStart's draws for this shot act. */
    virtual bool actsAtShotStart(const ShotContext &ctx) const
    {
        (void)ctx;
        return false;
    }

    /**
     * True when this shot's draws at `ev` act in onGateStart, onIdle or
     * onGate, given that no earlier draw of the shot acted.
     */
    virtual bool actsAtGate(const GateEvent &ev, const ShotContext &ctx) const
    {
        (void)ev;
        (void)ctx;
        return false;
    }

    /**
     * What onGate does to the state after a gate at which no draw of
     * the shot acts, without the draws: it must not depend on the state
     * or the shot. Called in the same phase order as onGate.
     */
    virtual void onQuietGate(StateVector &sv, const GateEvent &ev) const
    {
        (void)sv;
        (void)ev;
    }
};

/**
 * Instantiate one NoiseSource per enabled channel of `model`, in
 * NoiseChannelId order (paper channel first). The returned sources
 * borrow nothing from `model`; they are safe to use across threads for
 * the lifetime of the simulation.
 */
std::vector<std::unique_ptr<NoiseSource>>
buildNoiseSources(const NoiseModel &model);

}  // namespace geyser

#endif  // GEYSER_SIM_NOISE_CHANNEL_HPP
