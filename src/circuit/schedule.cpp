#include "circuit/schedule.hpp"

#include <algorithm>
#include <array>
#include <span>

namespace geyser {

namespace {

/**
 * List-schedule the gates in program order: each starts once its qubits
 * are free and, given `topo`, once no restriction zone holds them and no
 * atom of its own zone is mid-gate. Writes each gate's start to `start`
 * when non-null and returns the makespan. Allocates the per-atom clocks
 * and one zone buffer, nothing per gate.
 */
long
listSchedule(const Circuit &circuit, const Topology *topo, long *start)
{
    const size_t n = static_cast<size_t>(
        topo != nullptr ? topo->numAtoms() : circuit.numQubits());
    std::vector<long> avail(n, 0);     // Qubit is running its own gates.
    std::vector<long> restrict_(n, 0); // Qubit is inside someone's zone.
    std::vector<int> zone;
    long makespan = 0;
    for (size_t i = 0; i < circuit.size(); ++i) {
        const Gate &g = circuit.gates()[i];
        const size_t arity = static_cast<size_t>(g.numQubits());
        std::array<int, 3> involved{};
        for (size_t k = 0; k < arity; ++k)
            involved[k] = g.qubit(static_cast<int>(k));
        const std::span<const int> operands(involved.data(), arity);

        long begin = 0;
        for (int q : operands) {
            begin = std::max(begin, avail[static_cast<size_t>(q)]);
            begin = std::max(begin, restrict_[static_cast<size_t>(q)]);
        }
        zone.clear();
        if (topo != nullptr && arity >= 2) {
            topo->restrictionZone(operands, zone);
            // A Rydberg gate cannot start while a zone atom is mid-gate
            // (list scheduling: all program-earlier gates on zone atoms
            // are already placed and reflected in avail[]).
            for (int z : zone)
                begin = std::max(begin, avail[static_cast<size_t>(z)]);
        }
        const long end = begin + g.pulses();
        for (int q : operands)
            avail[static_cast<size_t>(q)] = end;
        for (int z : zone)
            restrict_[static_cast<size_t>(z)] =
                std::max(restrict_[static_cast<size_t>(z)], end);
        if (start != nullptr)
            start[i] = begin;
        makespan = std::max(makespan, end);
    }
    return makespan;
}

}  // namespace

Schedule
scheduleAsap(const Circuit &circuit)
{
    Schedule sched;
    sched.start.resize(circuit.size());
    sched.makespan = listSchedule(circuit, nullptr, sched.start.data());
    return sched;
}

Schedule
scheduleRestrictionAware(const Circuit &circuit, const Topology &topo)
{
    Schedule sched;
    sched.start.resize(circuit.size());
    sched.makespan = listSchedule(circuit, &topo, sched.start.data());
    return sched;
}

long
depthPulses(const Circuit &circuit)
{
    return listSchedule(circuit, nullptr, nullptr);
}

long
depthPulses(const Circuit &circuit, const Topology &topo)
{
    return listSchedule(circuit, &topo, nullptr);
}

}  // namespace geyser
