/**
 * @file
 * Shared-prefix parity: noisyDistribution runs each chunk's quiet gates
 * once and starts every trajectory from its first acting gate. These
 * tests keep the per-trajectory loop it replaced as a reference and
 * require bit-identical distributions and equal per-channel tallies,
 * and they pin the `sim.gates_shared` counter.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "circuit/schedule.hpp"
#include "obs/obs.hpp"
#include "sim/noise_channel.hpp"
#include "sim/statevector.hpp"
#include "sim/trajectory.hpp"
#include "topology/topology.hpp"
#include "verify/random_circuit.hpp"

namespace geyser {
namespace {

using Tally = std::array<uint64_t, kNumNoiseChannels>;

/** Precomputed per-circuit context of the reference engine. */
struct Reference
{
    size_t simulated = 0;
    std::vector<const NoiseSource *> sources;
    std::vector<std::vector<int>> zones;
    std::vector<std::array<long, 3>> idle;
};

std::vector<std::array<long, 3>>
idleDurations(const Circuit &circuit)
{
    const Schedule sched = scheduleAsap(circuit);
    std::vector<std::array<long, 3>> idle(circuit.size(), {{0, 0, 0}});
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

/** One trajectory with every hook at every gate: the unshared loop. */
void
referenceTrajectory(const Circuit &circuit, const Reference &ref,
                    uint64_t seed, Distribution &acc, Tally &tally)
{
    ShotContext ctx(seed, circuit.numQubits());
    for (const NoiseSource *s : ref.sources)
        s->onShotStart(ctx);
    StateVector sv = StateVector::pinned(circuit.numQubits(), ref.simulated);
    for (size_t gi = 0; gi < circuit.size(); ++gi) {
        const Gate &g = circuit.gates()[gi];
        GateEvent ev;
        ev.gate = &g;
        ev.index = gi;
        ev.zone = ref.zones.empty() ? nullptr : &ref.zones[gi];
        ev.idlePulses = ref.idle.empty() ? nullptr : &ref.idle[gi];
        for (const NoiseSource *s : ref.sources)
            s->onGateStart(ev, ctx);
        bool involvesLost = false;
        for (int i = 0; i < g.numQubits(); ++i)
            involvesLost |= ctx.isLost(g.qubit(i));
        if (involvesLost)
            continue;
        for (const NoiseSource *s : ref.sources)
            s->onIdle(sv, ev, ctx);
        sv.apply(g);
        for (const NoiseSource *s : ref.sources)
            if (!s->isRelaxation())
                s->onGate(sv, ev, ctx);
        for (const NoiseSource *s : ref.sources)
            if (s->isRelaxation())
                s->onGate(sv, ev, ctx);
    }
    auto p = sv.probabilities();
    for (Qubit q = 0; q < circuit.numQubits(); ++q)
        if (ctx.isLost(q))
            depolarizeOutcome(p, q);
    for (const NoiseSource *s : ref.sources)
        s->onReadout(p, ctx);
    for (size_t i = 0; i < p.size(); ++i)
        acc[i] += p[i];
    for (size_t c = 0; c < kNumNoiseChannels; ++c)
        tally[c] += ctx.events[c];
}

/**
 * The engine without prefix sharing: trajectories in seed order, 16 to
 * a chunk, chunk sums folded in chunk order, as noisyDistribution did
 * before it shared prefixes.
 */
Distribution
referenceDistribution(const Circuit &circuit, const NoiseModel &noise,
                      const TrajectoryConfig &config, Tally &tally)
{
    Reference ref;
    ref.simulated = (size_t{1} << std::min(circuit.numQubits(), 2)) - 1;
    for (const Gate &g : circuit.gates())
        for (int i = 0; i < g.numQubits(); ++i)
            ref.simulated |= size_t{1} << g.qubit(i);
    const auto owned = buildNoiseSources(noise);
    for (const auto &s : owned)
        ref.sources.push_back(s.get());
    if (config.reverseChannelOrder)
        std::reverse(ref.sources.begin(), ref.sources.end());
    if (noise.crosstalkPhase > 0.0) {
        ref.zones.resize(circuit.size());
        for (size_t gi = 0; gi < circuit.size(); ++gi) {
            const Gate &g = circuit.gates()[gi];
            if (g.numQubits() < 2)
                continue;
            std::vector<int> involved;
            for (int i = 0; i < g.numQubits(); ++i)
                involved.push_back(g.qubit(i));
            ref.zones[gi] = config.topology->restrictionZone(involved);
        }
    }
    if (noise.idleDephasing > 0.0)
        ref.idle = idleDurations(circuit);

    const size_t dim = size_t{1} << circuit.numQubits();
    constexpr int kChunk = 16;
    const int traj = config.trajectories;
    Distribution total(dim, 0.0);
    tally = {};
    for (int begin = 0; begin < traj; begin += kChunk) {
        Distribution acc(dim, 0.0);
        for (int t = begin; t < std::min(traj, begin + kChunk); ++t)
            referenceTrajectory(circuit, ref,
                                config.seed + static_cast<uint64_t>(t), acc,
                                tally);
        for (size_t i = 0; i < dim; ++i)
            total[i] += acc[i];
    }
    for (auto &v : total)
        v /= traj;
    return total;
}

/** The engine's per-channel event counters. */
std::array<obs::Counter *, kNumNoiseChannels>
channelCounters()
{
    std::array<obs::Counter *, kNumNoiseChannels> out{};
    for (size_t c = 0; c < kNumNoiseChannels; ++c) {
        std::string name = noiseChannelName(static_cast<NoiseChannelId>(c));
        std::replace(name.begin(), name.end(), '-', '_');
        out[c] = &obs::counter("sim.noise." + name + "_events");
    }
    return out;
}

/**
 * noisyDistribution against the reference at 1, 15, 16, 17 and 200
 * trajectories, serial and parallel, in registration and reversed
 * order: every probability bit for bit, every channel's tally equal.
 * The 200-trajectory runs must also share some gates, so the case
 * exercises the sharing it checks.
 */
void
expectMatchesUnshared(const Circuit &circuit, const NoiseModel &noise,
                      const Topology *topology, const std::string &label)
{
    obs::EnabledScope scope(true);
    const auto counters = channelCounters();
    obs::Counter &shared = obs::counter("sim.gates_shared");
    for (const int traj : {1, 15, 16, 17, 200}) {
        for (const bool reversed : {false, true}) {
            TrajectoryConfig cfg{traj, 1000 + static_cast<uint64_t>(traj),
                                 false, topology};
            cfg.reverseChannelOrder = reversed;
            Tally want{};
            const Distribution ref =
                referenceDistribution(circuit, noise, cfg, want);
            for (const bool parallel : {false, true}) {
                cfg.parallel = parallel;
                const std::string where =
                    label + ", " + std::to_string(traj) + " trajectories" +
                    (parallel ? ", parallel" : ", serial") +
                    (reversed ? ", reversed" : "");
                std::array<long, kNumNoiseChannels> before{};
                for (size_t c = 0; c < kNumNoiseChannels; ++c)
                    before[c] = counters[c]->value();
                const long sharedBefore = shared.value();
                const Distribution got = noisyDistribution(circuit, noise, cfg);
                ASSERT_EQ(got.size(), ref.size()) << where;
                EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                                      ref.size() * sizeof(double)),
                          0)
                    << where;
                for (size_t c = 0; c < kNumNoiseChannels; ++c)
                    EXPECT_EQ(counters[c]->value() - before[c],
                              static_cast<long>(want[c]))
                        << where << ", channel "
                        << noiseChannelName(static_cast<NoiseChannelId>(c));
                if (traj == 200) {
                    EXPECT_GT(shared.value() - sharedBefore, 0) << where;
                }
            }
        }
    }
}

/** A physical circuit of U3, CZ and CCZ gates over four atoms. */
Circuit
physicalCircuit()
{
    return verify::randomPhysicalCircuit(4, 24, 7);
}

/**
 * Six atoms of makeTriangular(2, 3), two of which (2 and 5) no gate
 * touches: they are pinned, and restriction zones still reach them.
 */
Circuit
pinnedAtomCircuit()
{
    Circuit c(6);
    c.u3(0, 1.5707963267948966, 0.0, 3.141592653589793);
    c.u3(3, 0.9, 0.2, 0.4);
    c.cz(0, 1);
    c.u3(1, 0.7, 0.1, 0.3);
    c.ccz(0, 1, 3);
    c.cz(3, 4);
    c.u3(4, 0.5, 0.3, 0.2);
    c.cz(1, 4);
    c.u3(0, 1.5707963267948966, 0.0, 3.141592653589793);
    c.u3(3, 1.5707963267948966, 0.0, 3.141592653589793);
    return c;
}

/** One channel on at a time, at rates that spread first events. */
std::vector<std::pair<std::string, NoiseModel>>
singleChannelModels()
{
    std::vector<std::pair<std::string, NoiseModel>> out;
    auto add = [&](const std::string &name, auto set) {
        NoiseModel nm = NoiseModel::noiseless();
        set(nm);
        out.emplace_back(name, nm);
    };
    add("flips", [](NoiseModel &nm) {
        nm.bitFlip = 0.02;
        nm.phaseFlip = 0.02;
    });
    add("per-pulse flips", [](NoiseModel &nm) {
        nm.bitFlip = 0.01;
        nm.phaseFlip = 0.01;
        nm.perPulse = true;
    });
    add("pre-shot loss", [](NoiseModel &nm) { nm.atomLoss = 0.05; });
    add("per-gate loss", [](NoiseModel &nm) { nm.lossPerGate = 0.02; });
    add("crosstalk", [](NoiseModel &nm) { nm.crosstalkPhase = 0.05; });
    // Deferring gamma: most draws u >= gamma. Jumping gamma: most not.
    add("damping 0.02", [](NoiseModel &nm) { nm.ampDamping = 0.02; });
    add("damping 0.6", [](NoiseModel &nm) { nm.ampDamping = 0.6; });
    add("idle dephasing", [](NoiseModel &nm) { nm.idleDephasing = 0.02; });
    add("correlated pauli",
        [](NoiseModel &nm) { nm.correlatedPauli = 0.05; });
    add("readout", [](NoiseModel &nm) { nm.readoutError = 0.03; });
    return out;
}

NoiseModel
allChannels()
{
    NoiseModel nm = NoiseModel::noiseless();
    nm.bitFlip = 0.005;
    nm.phaseFlip = 0.005;
    nm.perPulse = true;
    nm.atomLoss = 0.01;
    nm.crosstalkPhase = 0.02;
    nm.ampDamping = 0.01;
    nm.idleDephasing = 0.005;
    nm.lossPerGate = 0.005;
    nm.correlatedPauli = 0.01;
    nm.readoutError = 0.02;
    return nm;
}

TEST(SharedPrefix, EachChannelAloneMatchesUnsharedEngine)
{
    const Circuit c = physicalCircuit();
    const auto topo = Topology::makeTriangular(2, 2);
    for (const auto &[name, nm] : singleChannelModels())
        expectMatchesUnshared(c, nm, &topo, name);
}

TEST(SharedPrefix, AllChannelsTogetherMatchUnsharedEngine)
{
    const auto topo = Topology::makeTriangular(2, 2);
    expectMatchesUnshared(physicalCircuit(), allChannels(), &topo,
                          "all channels");
    // A longer circuit: first events spread further.
    expectMatchesUnshared(verify::randomPhysicalCircuit(4, 60, 11),
                          allChannels(), &topo, "all channels, 60 gates");
}

TEST(SharedPrefix, PinnedAtomsMatchUnsharedEngine)
{
    const Circuit c = pinnedAtomCircuit();
    const auto topo = Topology::makeTriangular(2, 3);
    for (const auto &[name, nm] : singleChannelModels())
        expectMatchesUnshared(c, nm, &topo, "pinned, " + name);
    expectMatchesUnshared(c, allChannels(), &topo, "pinned, all channels");
}

TEST(SharedPrefix, CounterCountsSkippedGateApplications)
{
    // Readout acts only on the distribution, so no gate of any
    // trajectory acts: each 16-trajectory chunk runs its L gates once
    // and skips them for the other 15 trajectories.
    const Circuit c = physicalCircuit();
    const long gates = static_cast<long>(c.size());
    obs::EnabledScope scope(true);
    obs::Counter &shared = obs::counter("sim.gates_shared");
    long before = shared.value();
    noisyDistribution(
        c, NoiseModel::singleChannel(NoiseChannelId::ReadoutError, 0.02),
        TrajectoryConfig{32, 3, false, nullptr});
    EXPECT_EQ(shared.value() - before, 30 * gates);

    // A forced noiseless run is one trajectory: nothing is shared.
    before = shared.value();
    TrajectoryConfig forced{200, 3, false, nullptr};
    forced.forceTrajectories = true;
    noisyDistribution(c, NoiseModel::noiseless(), forced);
    EXPECT_EQ(shared.value() - before, 0);

    // The span of a traced call reports the same count.
    constexpr uint64_t kTrace = 29;
    obs::beginTrace(kTrace);
    {
        obs::TraceScope traced(kTrace);
        noisyDistribution(
            c, NoiseModel::singleChannel(NoiseChannelId::ReadoutError, 0.02),
            TrajectoryConfig{32, 3, false, nullptr});
    }
    double spanShared = -1.0;
    for (const auto &e : obs::traceEvents(kTrace))
        if (e.name == "sim.trajectories")
            for (const auto &[key, value] : e.numArgs)
                if (key == "gates_shared")
                    spanShared = value;
    EXPECT_EQ(spanShared, static_cast<double>(30 * gates));
}

}  // namespace
}  // namespace geyser
