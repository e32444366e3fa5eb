#include "verify/differential.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "metrics/metrics.hpp"
#include "sim/density_matrix.hpp"
#include "sim/statevector.hpp"
#include "sim/trajectory.hpp"

namespace geyser {
namespace verify {

namespace {

/** Worst per-outcome probability gap. */
double
maxAbsGap(const Distribution &p, const Distribution &q)
{
    double gap = 0.0;
    for (size_t k = 0; k < p.size(); ++k)
        gap = std::max(gap, std::abs(p[k] - q[k]));
    return gap;
}

Distribution
noiselessTrajectoryOutput(const Circuit &circuit, uint64_t seed)
{
    TrajectoryConfig cfg;
    cfg.trajectories = 1;
    cfg.seed = seed;
    cfg.parallel = false;
    cfg.forceTrajectories = true;  // Exercise the trajectory loop itself.
    return noisyDistribution(circuit, NoiseModel::noiseless(), cfg);
}

double
idealStageGap(const Circuit &circuit, const DifferentialOptions &options)
{
    return maxAbsGap(idealDistribution(circuit),
                     noiselessTrajectoryOutput(circuit, options.seed));
}

double
channelStageTvd(const Circuit &circuit, const NoiseModel &kraus,
                const DifferentialOptions &options)
{
    TrajectoryConfig cfg;
    cfg.trajectories = options.trajectories;
    cfg.seed = options.seed;
    const Distribution traj = noisyDistribution(circuit, kraus, cfg);
    const Distribution exact = exactNoisyDistribution(circuit, kraus);
    return totalVariationDistance(exact, traj);
}

void
fillFailure(DifferentialReport &report, const Circuit &circuit,
            const char *stage, double divergence, double bound,
            const DifferentialOptions &options,
            const std::function<bool(const Circuit &)> &stillFails)
{
    report.passed = false;
    report.stage = stage;
    report.divergence = divergence;
    report.reproducer = options.minimizeOnFailure
                            ? minimizeFailingCircuit(circuit, stillFails)
                            : circuit;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s diverged: %.3e (bound %.3e); minimized reproducer "
                  "has %zu gates over %d qubits",
                  stage, divergence, bound, report.reproducer.size(),
                  report.reproducer.numQubits());
    report.detail = std::string(buf) + "\n" + report.reproducer.toString();
}

}  // namespace

DifferentialReport
runDifferential(const Circuit &circuit, const NoiseModel &noise,
                const DifferentialOptions &options)
{
    DifferentialReport report;

    // Stage 1: the trajectory engine with the channel forced off must
    // reproduce the statevector output exactly.
    const double gap = idealStageGap(circuit, options);
    if (gap > options.idealTolerance) {
        fillFailure(report, circuit, "statevector-vs-trajectory", gap,
                    options.idealTolerance, options, [&](const Circuit &c) {
                        return idealStageGap(c, options) >
                               options.idealTolerance;
                    });
        return report;
    }

    // Stage 2: trajectory-averaged per-gate channels vs the exact Kraus
    // evolution. The density-matrix engine models the Pauli flips and
    // amplitude damping (exactNoisyDistribution rejects the rest); atom
    // loss, crosstalk and the other extended channels are checked by
    // the trajectory engine's own tests.
    NoiseModel kraus = noise;
    kraus.atomLoss = 0.0;
    kraus.crosstalkPhase = 0.0;
    kraus.idleDephasing = 0.0;
    kraus.lossPerGate = 0.0;
    kraus.correlatedPauli = 0.0;
    kraus.readoutError = 0.0;
    double channelTvd = -1.0;
    if (!kraus.isNoiseless() &&
        circuit.numQubits() <= options.maxDensityMatrixQubits) {
        channelTvd = channelStageTvd(circuit, kraus, options);
        if (channelTvd > options.channelTolerance) {
            fillFailure(report, circuit, "density-matrix-vs-trajectory",
                        channelTvd, options.channelTolerance, options,
                        [&](const Circuit &c) {
                            return channelStageTvd(c, kraus, options) >
                                   options.channelTolerance;
                        });
            return report;
        }
    }

    // Stage 3: the composed extended-channel model must not care in
    // which order the channels are applied (per-channel RNG streams).
    if (options.checkChannelOrder) {
        const NoiseModel probe = allChannelProbeModel(circuit, noise);
        const int orderShots = std::min(options.trajectories, 16);
        const double orderGap =
            channelOrderGap(circuit, probe, orderShots, options.seed);
        if (orderGap > 0.0) {
            fillFailure(report, circuit, "channel-order-invariance",
                        orderGap, 0.0, options, [&](const Circuit &c) {
                            return channelOrderGap(c, probe, orderShots,
                                                   options.seed) > 0.0;
                        });
            return report;
        }
    }

    report.divergence = channelTvd >= 0.0 ? channelTvd : gap;
    char buf[128];
    if (channelTvd >= 0.0)
        std::snprintf(buf, sizeof(buf),
                      "ideal gap %.3e, channel tvd %.3e: all engines agree",
                      gap, channelTvd);
    else
        std::snprintf(
            buf, sizeof(buf),
            "ideal gap %.3e: statevector and trajectory agree", gap);
    report.detail = buf;
    return report;
}

double
channelsOffGap(const Circuit &circuit, uint64_t seed)
{
    return maxAbsGap(idealDistribution(circuit),
                     noiselessTrajectoryOutput(circuit, seed));
}

double
channelOrderGap(const Circuit &circuit, const NoiseModel &noise,
                int trajectories, uint64_t seed)
{
    TrajectoryConfig cfg;
    cfg.trajectories = trajectories;
    cfg.seed = seed;
    cfg.parallel = false;
    TrajectoryConfig reversed = cfg;
    reversed.reverseChannelOrder = true;
    return maxAbsGap(noisyDistribution(circuit, noise, cfg),
                     noisyDistribution(circuit, noise, reversed));
}

NoiseModel
allChannelProbeModel(const Circuit &circuit, const NoiseModel &noise)
{
    NoiseModel probe = noise;
    // The order-invariance run has no topology, so crosstalk (which
    // would fail validation without one) stays out of the probe.
    probe.crosstalkPhase = 0.0;
    probe.ampDamping = std::max(probe.ampDamping, 0.01);
    probe.lossPerGate = std::max(probe.lossPerGate, 0.005);
    probe.correlatedPauli = std::max(probe.correlatedPauli, 0.01);
    probe.readoutError = std::max(probe.readoutError, 0.02);
    bool physical = true;
    for (const Gate &g : circuit.gates())
        if (!g.isPhysical())
            physical = false;
    if (physical)
        probe.idleDephasing = std::max(probe.idleDephasing, 0.002);
    else
        probe.perPulse = false;  // Pulse costs undefined on logical gates.
    return probe;
}

Circuit
minimizeFailingCircuit(const Circuit &circuit,
                       const std::function<bool(const Circuit &)> &stillFails)
{
    auto prefix = [&](size_t n) {
        Circuit c(circuit.numQubits());
        for (size_t i = 0; i < n && i < circuit.size(); ++i)
            c.append(circuit.gates()[i]);
        return c;
    };

    // Shortest failing prefix (binary search; verified afterwards since
    // failure need not be monotone in prefix length).
    size_t lo = 0, hi = circuit.size();
    while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (stillFails(prefix(mid)))
            hi = mid;
        else
            lo = mid + 1;
    }
    Circuit best = prefix(hi);
    if (!stillFails(best))
        best = circuit;

    // Greedy single-gate removal to a local minimum.
    bool shrunk = true;
    while (shrunk) {
        shrunk = false;
        for (size_t skip = 0; skip < best.size(); ++skip) {
            Circuit candidate(best.numQubits());
            for (size_t i = 0; i < best.size(); ++i)
                if (i != skip)
                    candidate.append(best.gates()[i]);
            if (stillFails(candidate)) {
                best = std::move(candidate);
                shrunk = true;
                break;
            }
        }
    }
    return best;
}

}  // namespace verify
}  // namespace geyser
