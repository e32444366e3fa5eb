#include "sim/trajectory.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "circuit/schedule.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/obs.hpp"
#include "sim/noise_channel.hpp"

namespace geyser {

namespace {

/** Per-channel event tally accumulated across trajectories. */
using ChannelTally = std::array<uint64_t, kNumNoiseChannels>;

/** Precomputed per-circuit context shared by every trajectory. */
struct EngineContext
{
    /** Basis-index mask of the atoms that get amplitudes. */
    size_t simulated = 0;
    /**
     * Per gate, its matrix2() when StateVector::apply would build one
     * (StateVector::usesMatrix2): built once per call, not once per
     * trajectory.
     */
    std::vector<std::optional<Matrix2>> unitaries;
    /** Sources in application order (already reversed if requested). */
    std::vector<const NoiseSource *> sources;
    /** Restriction zones per gate (empty when crosstalk is off). */
    std::vector<std::vector<int>> zones;
    /** Idle pulses per gate operand (empty when idle dephasing off). */
    std::vector<std::array<long, 3>> idle;
};

/** Rejects a rate no channel can sample (NaN, negative, p > 1). */
void
validateRates(const NoiseModel &noise)
{
    const std::pair<const char *, double> probabilities[] = {
        {"bitFlip", noise.bitFlip},
        {"phaseFlip", noise.phaseFlip},
        {"atomLoss", noise.atomLoss},
        {"crosstalkPhase", noise.crosstalkPhase},
        {"ampDamping", noise.ampDamping},
        {"lossPerGate", noise.lossPerGate},
        {"correlatedPauli", noise.correlatedPauli},
        {"readoutError", noise.readoutError},
    };
    for (const auto &[name, p] : probabilities)
        if (!std::isfinite(p) || p < 0.0 || p > 1.0)
            throw ValidationError(std::string("noisyDistribution: ") + name +
                                  " must be a probability in [0, 1] (got " +
                                  std::to_string(p) + ")");
    if (!std::isfinite(noise.idleDephasing) || noise.idleDephasing < 0.0)
        throw ValidationError(
            "noisyDistribution: idleDephasing must be finite and >= 0 "
            "(got " +
            std::to_string(noise.idleDephasing) + ")");
}

void
validateRequest(const Circuit &circuit, const NoiseModel &noise,
                const TrajectoryConfig &config)
{
    validateRates(noise);
    if (config.trajectories <= 0)
        throw ValidationError(
            "noisyDistribution: trajectory count must be positive (got " +
            std::to_string(config.trajectories) + ")");
    if (noise.crosstalkPhase > 0.0 && config.topology == nullptr)
        throw ValidationError(
            "noisyDistribution: crosstalkPhase > 0 requires a topology "
            "(restriction zones depend on atom positions); supply "
            "TrajectoryConfig::topology or disable the channel");
    if (noise.crosstalkPhase > 0.0 &&
        config.topology->numAtoms() != circuit.numQubits())
        throw ValidationError(
            "noisyDistribution: the crosstalk topology has " +
            std::to_string(config.topology->numAtoms()) +
            " atoms but the circuit has " +
            std::to_string(circuit.numQubits()) +
            " qubits; restriction zones must index the circuit's atoms");
    // Only the flip rates scale with pulses (NoiseModel::bitFlipFor).
    const bool needsPulses =
        noise.perPulse && (noise.bitFlip > 0.0 || noise.phaseFlip > 0.0);
    const bool needsSchedule = noise.idleDephasing > 0.0;
    if (needsPulses || needsSchedule) {
        for (size_t gi = 0; gi < circuit.size(); ++gi) {
            const Gate &g = circuit.gates()[gi];
            if (g.isPhysical())
                continue;
            throw ValidationError(
                std::string("noisyDistribution: ") +
                (needsPulses ? "perPulse noise" : "idle dephasing") +
                " requires a physical circuit, but gate #" +
                std::to_string(gi) + " (" + g.toString() +
                ") has no pulse cost");
        }
    }
}

/**
 * The atoms a trajectory simulates: every gate operand, plus atoms 0
 * and 1 even when idle. Every other atom stays |0>: the only state
 * operation that reaches one is crosstalk's Z, a no-op on |0>, and
 * pre-shot loss and readout error act on the widened distribution. So
 * those atoms get no amplitudes. Atoms 0 and 1 keep storage bits 0 and
 * 1 and the rest follow in increasing order, so every kernel call takes
 * the SIMD path it takes at full width and the output is bit-identical
 * (DESIGN §14).
 */
size_t
simulatedAtoms(const Circuit &circuit)
{
    size_t mask = (size_t{1} << std::min(circuit.numQubits(), 2)) - 1;
    for (const Gate &g : circuit.gates())
        for (int i = 0; i < g.numQubits(); ++i)
            mask |= size_t{1} << g.qubit(i);
    return mask;
}

/**
 * Idle pulses accumulated by each operand of each gate before the gate
 * starts, from the ASAP schedule: a qubit that last finished at pulse
 * r and whose next gate starts at pulse s sat idle for s - r pulses.
 */
std::vector<std::array<long, 3>>
idleDurations(const Circuit &circuit)
{
    const Schedule sched = scheduleAsap(circuit);
    std::vector<std::array<long, 3>> idle(circuit.size(),
                                          {{0, 0, 0}});
    std::vector<long> readyAt(static_cast<size_t>(circuit.numQubits()), 0);
    for (size_t gi = 0; gi < circuit.size(); ++gi) {
        const Gate &g = circuit.gates()[gi];
        const long start = sched.start[gi];
        for (int i = 0; i < g.numQubits(); ++i) {
            const auto q = static_cast<size_t>(g.qubit(i));
            idle[gi][static_cast<size_t>(i)] = start - readyAt[q];
            readyAt[q] = start + g.pulses();
        }
    }
    return idle;
}

void
accumulateTrajectory(const Circuit &circuit, const EngineContext &engine,
                     uint64_t seed, Distribution &acc, ChannelTally &tally)
{
    ShotContext ctx(seed, circuit.numQubits());
    for (const NoiseSource *s : engine.sources)
        s->onShotStart(ctx);

    StateVector sv = StateVector::pinned(circuit.numQubits(),
                                         engine.simulated);
    for (size_t gi = 0; gi < circuit.size(); ++gi) {
        const Gate &g = circuit.gates()[gi];
        GateEvent ev;
        ev.gate = &g;
        ev.index = gi;
        ev.zone = engine.zones.empty() ? nullptr : &engine.zones[gi];
        ev.idlePulses = engine.idle.empty() ? nullptr : &engine.idle[gi];
        for (const NoiseSource *s : engine.sources)
            s->onGateStart(ev, ctx);
        if (ctx.anyLost) {
            bool involvesLost = false;
            for (int i = 0; i < g.numQubits(); ++i)
                if (ctx.isLost(g.qubit(i)))
                    involvesLost = true;
            if (involvesLost)
                continue;
        }
        for (const NoiseSource *s : engine.sources)
            s->onIdle(sv, ev, ctx);
        if (const auto &u = engine.unitaries[gi])
            sv.apply(*u, g.qubit(0));
        else
            sv.apply(g);
        // Two canonical phases: Pauli-type injection (commutes up to a
        // global phase), then relaxation (damping, which does not
        // commute with injection) — so registration order cannot
        // change the composed map. See NoiseSource::isRelaxation().
        for (const NoiseSource *s : engine.sources)
            if (!s->isRelaxation())
                s->onGate(sv, ev, ctx);
        for (const NoiseSource *s : engine.sources)
            if (s->isRelaxation())
                s->onGate(sv, ev, ctx);
    }

    auto p = sv.probabilities();
    // Depolarized readout: a lost qubit reads either value.
    if (ctx.anyLost)
        for (Qubit q = 0; q < circuit.numQubits(); ++q)
            if (ctx.isLost(q))
                depolarizeOutcome(p, q);
    for (const NoiseSource *s : engine.sources)
        s->onReadout(p, ctx);

    for (size_t i = 0; i < p.size(); ++i)
        acc[i] += p[i];
    for (size_t c = 0; c < kNumNoiseChannels; ++c)
        tally[c] += ctx.events[c];
}

/** Per-channel obs counters ("sim.noise.<channel>_events"). */
obs::Counter &
channelCounter(size_t channel)
{
    static std::array<obs::Counter *, kNumNoiseChannels> counters = [] {
        std::array<obs::Counter *, kNumNoiseChannels> out{};
        for (size_t c = 0; c < kNumNoiseChannels; ++c) {
            std::string name =
                noiseChannelName(static_cast<NoiseChannelId>(c));
            for (auto &ch : name)
                if (ch == '-')
                    ch = '_';
            out[c] = &obs::counter("sim.noise." + name + "_events");
        }
        return out;
    }();
    return *counters[channel];
}

}  // namespace

Distribution
noisyDistribution(const Circuit &circuit, const NoiseModel &noise,
                  const TrajectoryConfig &config)
{
    validateRequest(circuit, noise, config);
    const size_t dim = size_t{1} << circuit.numQubits();
    if (noise.isNoiseless() && !config.forceTrajectories)
        return idealDistribution(circuit);

    // A forced noiseless run is deterministic: every trajectory is the
    // plain statevector evolution, so one shot is the whole average.
    const int traj =
        noise.isNoiseless() ? 1 : config.trajectories;
    EngineContext engine;
    engine.simulated = simulatedAtoms(circuit);
    engine.unitaries.resize(circuit.size());
    for (size_t gi = 0; gi < circuit.size(); ++gi)
        if (StateVector::usesMatrix2(circuit.gates()[gi]))
            engine.unitaries[gi] = circuit.gates()[gi].matrix2();
    obs::Span span("sim.trajectories", "sim");
    span.arg("trajectories", traj);
    span.arg("qubits", circuit.numQubits());
    span.arg("simulated_qubits", std::popcount(engine.simulated));
    span.arg("parallel", config.parallel ? 1.0 : 0.0);
    static obs::Counter &trajectoriesRun =
        obs::counter("sim.trajectories_run");
    trajectoriesRun.add(traj);

    const auto owned = buildNoiseSources(noise);
    for (const auto &s : owned)
        engine.sources.push_back(s.get());
    if (config.reverseChannelOrder)
        std::reverse(engine.sources.begin(), engine.sources.end());
    // Precompute restriction zones once when crosstalk is enabled.
    if (noise.crosstalkPhase > 0.0) {
        engine.zones.resize(circuit.size());
        for (size_t gi = 0; gi < circuit.size(); ++gi) {
            const Gate &g = circuit.gates()[gi];
            if (g.numQubits() < 2)
                continue;
            std::vector<int> involved;
            for (int i = 0; i < g.numQubits(); ++i)
                involved.push_back(g.qubit(i));
            engine.zones[gi] = config.topology->restrictionZone(involved);
        }
    }
    // Precompute the idle-duration pass when idle dephasing is enabled.
    if (noise.idleDephasing > 0.0)
        engine.idle = idleDurations(circuit);

    // Trajectories accumulate in fixed-size chunks and the chunk sums
    // fold into the total in chunk order, so serial and parallel runs
    // (on any worker count) produce bit-identical distributions for the
    // same seed. Chunks run in windows of kWindow whose sums fold as the
    // window completes, so at most kWindow sums (one on the serial path)
    // exist however many trajectories run.
    constexpr int kChunk = 16;
    constexpr int kWindow = 64;
    const int chunks = (traj + kChunk - 1) / kChunk;
    const bool parallel = config.parallel && chunks > 1;
    const int window = parallel ? std::min(chunks, kWindow) : 1;
    std::vector<Distribution> partial(static_cast<size_t>(window));
    std::vector<ChannelTally> tallies(static_cast<size_t>(window));
    Distribution total(dim, 0.0);
    ChannelTally events{};
    for (int first = 0; first < chunks; first += window) {
        const int count = std::min(window, chunks - first);
        auto runChunk = [&](int w) {
            Distribution &acc = partial[static_cast<size_t>(w)];
            acc.assign(dim, 0.0);
            tallies[static_cast<size_t>(w)] = {};
            const int begin = (first + w) * kChunk;
            const int end = std::min(traj, begin + kChunk);
            for (int t = begin; t < end; ++t)
                accumulateTrajectory(circuit, engine,
                                     config.seed + static_cast<uint64_t>(t),
                                     acc, tallies[static_cast<size_t>(w)]);
        };
        if (parallel && count > 1) {
            globalPool().parallelFor(count, runChunk);
        } else {
            for (int w = 0; w < count; ++w)
                runChunk(w);
        }
        for (int w = 0; w < count; ++w) {
            const Distribution &p = partial[static_cast<size_t>(w)];
            for (size_t i = 0; i < dim; ++i)
                total[i] += p[i];
            for (size_t c = 0; c < kNumNoiseChannels; ++c)
                events[c] += tallies[static_cast<size_t>(w)][c];
        }
    }
    for (auto &v : total)
        v /= traj;

    for (size_t c = 0; c < kNumNoiseChannels; ++c) {
        if (events[c] == 0)
            continue;
        channelCounter(c).add(static_cast<long>(events[c]));
        if (span.active())
            span.arg(noiseChannelName(static_cast<NoiseChannelId>(c)),
                     static_cast<double>(events[c]));
    }
    if (span.active()) {
        const double seconds =
            static_cast<double>(span.elapsedMicros()) * 1e-6;
        if (seconds > 0.0)
            span.arg("traj_per_sec", traj / seconds);
    }
    return total;
}

}  // namespace geyser
