#include "metrics/metrics.hpp"

#include <cmath>
#include <stdexcept>

#include "circuit/schedule.hpp"

namespace geyser {

double
totalVariationDistance(const Distribution &p1, const Distribution &p2)
{
    if (p1.size() != p2.size())
        throw std::invalid_argument("TVD: distribution size mismatch");
    double s = 0.0;
    for (size_t i = 0; i < p1.size(); ++i)
        s += std::abs(p1[i] - p2[i]);
    return 0.5 * s;
}

CircuitStats
circuitStats(const Circuit &circuit)
{
    return circuitStats(circuit, nullptr);
}

CircuitStats
circuitStats(const Circuit &circuit, const Topology *topology)
{
    CircuitStats stats;
    stats.numQubits = circuit.numQubits();
    for (const Gate &g : circuit.gates()) {
        switch (g.kind()) {
          case GateKind::U3:
            ++stats.u3Count;
            break;
          case GateKind::CZ:
            ++stats.czCount;
            break;
          case GateKind::CCZ:
            ++stats.cczCount;
            break;
          default:
            break;
        }
        stats.totalPulses += g.pulses();
    }
    stats.depthPulses = topology != nullptr
                            ? depthPulses(circuit, *topology)
                            : depthPulses(circuit);
    return stats;
}

}  // namespace geyser
