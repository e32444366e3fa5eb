#include "transpile/sabre.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "transpile/basis.hpp"

namespace geyser {

namespace {

/** Gates beyond the front layer contributing to the score. */
constexpr int kLookaheadWindow = 20;
/** Relative weight of the lookahead term. */
constexpr double kLookaheadWeight = 0.5;
/** Decay applied to recently swapped atoms (avoids ping-pong). */
constexpr double kDecay = 0.001;

/** Per-qubit frontier view of the circuit's dependency DAG. */
class Frontier
{
  public:
    explicit Frontier(const Circuit &circuit)
        : circuit_(circuit), opLists_(circuit.qubitOpLists()),
          position_(opLists_.size(), 0), executed_(circuit.size(), false)
    {
    }

    /** True if the gate is ready (frontier op of all its qubits). */
    bool ready(int gate) const
    {
        const Gate &g = circuit_.gates()[static_cast<size_t>(gate)];
        for (int i = 0; i < g.numQubits(); ++i) {
            const auto &list = opLists_[static_cast<size_t>(g.qubit(i))];
            const size_t pos = position_[static_cast<size_t>(g.qubit(i))];
            if (pos >= list.size() || list[pos] != gate)
                return false;
        }
        return true;
    }

    /** Mark a gate executed and advance its qubits' frontiers. */
    void execute(int gate)
    {
        const Gate &g = circuit_.gates()[static_cast<size_t>(gate)];
        executed_[static_cast<size_t>(gate)] = true;
        for (int i = 0; i < g.numQubits(); ++i)
            ++position_[static_cast<size_t>(g.qubit(i))];
    }

    bool executed(int gate) const
    {
        return executed_[static_cast<size_t>(gate)];
    }

    /** All currently ready gate indices, replacing `front`'s contents. */
    void frontLayer(std::vector<int> &front) const
    {
        front.clear();
        for (size_t q = 0; q < opLists_.size(); ++q) {
            const auto &list = opLists_[q];
            const size_t pos = position_[q];
            if (pos >= list.size())
                continue;
            const int gate = list[pos];
            if (ready(gate) &&
                std::find(front.begin(), front.end(), gate) == front.end())
                front.push_back(gate);
        }
    }

    /**
     * The next up-to-`window` unexecuted two-qubit gates in program
     * order (the SABRE lookahead set), replacing `out`'s contents.
     */
    void lookahead(int window, std::vector<int> &out) const
    {
        out.clear();
        for (size_t i = 0; i < circuit_.size() &&
                           static_cast<int>(out.size()) < window;
             ++i) {
            if (executed_[i])
                continue;
            if (circuit_.gates()[i].numQubits() == 2)
                out.push_back(static_cast<int>(i));
        }
    }

  private:
    const Circuit &circuit_;
    std::vector<std::vector<int>> opLists_;
    std::vector<size_t> position_;
    std::vector<bool> executed_;
};

}  // namespace

RoutedCircuit
routeSabre(const Circuit &circuit, const Topology &topo,
           const std::vector<Qubit> &initial_layout)
{
    if (!circuit.isPhysical())
        throw ValidationError("routeSabre: physical basis required");
    if (circuit.numQubits() > topo.numAtoms())
        throw ValidationError("routeSabre: not enough atoms");
    if (initial_layout.size() != static_cast<size_t>(circuit.numQubits()))
        throw ValidationError("routeSabre: bad initial layout");

    RoutedCircuit result;
    result.circuit.setNumQubits(topo.numAtoms());
    result.initialLayout = initial_layout;

    std::vector<Qubit> l2a = initial_layout;
    std::vector<Qubit> a2l(static_cast<size_t>(topo.numAtoms()), -1);
    for (size_t l = 0; l < l2a.size(); ++l)
        a2l[static_cast<size_t>(l2a[l])] = static_cast<Qubit>(l);

    std::vector<double> decay(static_cast<size_t>(topo.numAtoms()), 1.0);
    Frontier frontier(circuit);

    auto gateDistance = [&](int gate) {
        const Gate &g = circuit.gates()[static_cast<size_t>(gate)];
        return topo.hopDistance(l2a[static_cast<size_t>(g.qubit(0))],
                                l2a[static_cast<size_t>(g.qubit(1))]);
    };

    auto emitMapped = [&](int gate) {
        Gate mapped = circuit.gates()[static_cast<size_t>(gate)];
        for (int i = 0; i < mapped.numQubits(); ++i)
            mapped.setQubit(i, l2a[static_cast<size_t>(mapped.qubit(i))]);
        result.circuit.append(mapped);
        frontier.execute(gate);
    };

    auto applySwap = [&](int atom_a, int atom_b) {
        lowerGate(Gate(GateKind::SWAP, atom_a, atom_b), result.circuit);
        const Qubit la = a2l[static_cast<size_t>(atom_a)];
        const Qubit lb = a2l[static_cast<size_t>(atom_b)];
        if (la >= 0)
            l2a[static_cast<size_t>(la)] = atom_b;
        if (lb >= 0)
            l2a[static_cast<size_t>(lb)] = atom_a;
        std::swap(a2l[static_cast<size_t>(atom_a)],
                  a2l[static_cast<size_t>(atom_b)]);
        decay[static_cast<size_t>(atom_a)] += kDecay;
        decay[static_cast<size_t>(atom_b)] += kDecay;
        ++result.swapsInserted;
        static obs::Counter &swaps = obs::counter("sabre.swaps");
        swaps.add();
    };

    // Per-step buffers, reused across steps.
    std::vector<int> front, look;
    std::vector<std::array<int, 2>> candidates;
    int sinceProgress = 0;
    for (;;) {
        // Drain every executable gate.
        bool progressed = true;
        while (progressed) {
            progressed = false;
            frontier.frontLayer(front);
            for (const int gate : front) {
                const Gate &g = circuit.gates()[static_cast<size_t>(gate)];
                if (g.numQubits() == 1 ||
                    (g.numQubits() == 2 && gateDistance(gate) == 1)) {
                    emitMapped(gate);
                    progressed = true;
                }
            }
            if (progressed)
                sinceProgress = 0;
        }

        frontier.frontLayer(front);
        if (front.empty())
            break;  // All gates routed.

        // Candidate SWAPs: every interaction edge touching an atom that
        // hosts a qubit of a front-layer gate.
        candidates.clear();
        for (const int gate : front) {
            const Gate &g = circuit.gates()[static_cast<size_t>(gate)];
            for (int i = 0; i < g.numQubits(); ++i) {
                const int atom = l2a[static_cast<size_t>(g.qubit(i))];
                for (const int nb : topo.neighbors(atom)) {
                    std::array<int, 2> edge{std::min(atom, nb),
                                            std::max(atom, nb)};
                    if (std::find(candidates.begin(), candidates.end(),
                                  edge) == candidates.end())
                        candidates.push_back(edge);
                }
            }
        }

        frontier.lookahead(kLookaheadWindow, look);
        static obs::Counter &lookaheadHits = obs::counter("sabre.lookahead_hits");
        lookaheadHits.add(static_cast<long>(look.size()));
        double bestScore = std::numeric_limits<double>::infinity();
        std::array<int, 2> bestSwap{-1, -1};
        for (const auto &edge : candidates) {
            // Tentatively apply the swap to the layout.
            const Qubit la = a2l[static_cast<size_t>(edge[0])];
            const Qubit lb = a2l[static_cast<size_t>(edge[1])];
            if (la >= 0)
                l2a[static_cast<size_t>(la)] = edge[1];
            if (lb >= 0)
                l2a[static_cast<size_t>(lb)] = edge[0];

            double frontCost = 0.0;
            for (const int gate : front)
                frontCost += gateDistance(gate);
            frontCost /= static_cast<double>(front.size());
            double lookCost = 0.0;
            if (!look.empty()) {
                for (const int gate : look)
                    lookCost += gateDistance(gate);
                lookCost /= static_cast<double>(look.size());
            }
            const double score =
                std::max(decay[static_cast<size_t>(edge[0])],
                         decay[static_cast<size_t>(edge[1])]) *
                (frontCost + kLookaheadWeight * lookCost);

            // Undo the tentative swap.
            if (la >= 0)
                l2a[static_cast<size_t>(la)] = edge[0];
            if (lb >= 0)
                l2a[static_cast<size_t>(lb)] = edge[1];

            if (score < bestScore) {
                bestScore = score;
                bestSwap = edge;
            }
        }
        if (bestSwap[0] < 0)
            throw std::logic_error("routeSabre: no candidate swaps");
        applySwap(bestSwap[0], bestSwap[1]);

        // Anti-livelock: if many swaps pass with no gate becoming
        // executable, reset the decay table (standard SABRE practice).
        if (++sinceProgress > 4 * topo.numAtoms()) {
            std::fill(decay.begin(), decay.end(), 1.0);
            sinceProgress = 0;
        }
    }

    result.finalLayout = l2a;
    return result;
}

RoutedCircuit
routeSabre(const Circuit &circuit, const Topology &topo)
{
    return routeSabre(circuit, topo, chooseInitialLayout(circuit, topo));
}

}  // namespace geyser
