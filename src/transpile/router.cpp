#include "transpile/router.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "transpile/basis.hpp"

namespace geyser {

namespace {

/** Emit a physical SWAP (3 CX worth of gates) between adjacent atoms. */
void
emitSwap(Circuit &out, Qubit a, Qubit b)
{
    lowerGate(Gate(GateKind::SWAP, a, b), out);
}

}  // namespace

RoutedCircuit
route(const Circuit &circuit, const Topology &topo,
      std::vector<int> *sources)
{
    std::vector<Qubit> trivial(static_cast<size_t>(circuit.numQubits()));
    std::iota(trivial.begin(), trivial.end(), 0);
    return route(circuit, topo, trivial, sources);
}

RoutedCircuit
route(const Circuit &circuit, const Topology &topo,
      const std::vector<Qubit> &initial_layout, std::vector<int> *sources)
{
    if (!circuit.isPhysical())
        throw ValidationError("route: circuit must be in {U3, CZ} basis");
    if (circuit.numQubits() > topo.numAtoms())
        throw ValidationError("route: not enough atoms for circuit");
    if (initial_layout.size() != static_cast<size_t>(circuit.numQubits()))
        throw ValidationError("route: bad initial layout size");

    RoutedCircuit result;
    result.circuit.setNumQubits(topo.numAtoms());

    // logical -> atom and its inverse.
    std::vector<Qubit> l2a = initial_layout;
    std::vector<Qubit> a2l(static_cast<size_t>(topo.numAtoms()), -1);
    for (size_t l = 0; l < l2a.size(); ++l)
        a2l[static_cast<size_t>(l2a[l])] = static_cast<Qubit>(l);
    result.initialLayout = l2a;

    auto swap_atoms = [&](Qubit x, Qubit y) {
        emitSwap(result.circuit, x, y);
        if (sources != nullptr)
            sources->resize(result.circuit.size(), -1);
        const Qubit lx = a2l[static_cast<size_t>(x)];
        const Qubit ly = a2l[static_cast<size_t>(y)];
        if (lx >= 0)
            l2a[static_cast<size_t>(lx)] = y;
        if (ly >= 0)
            l2a[static_cast<size_t>(ly)] = x;
        std::swap(a2l[static_cast<size_t>(x)], a2l[static_cast<size_t>(y)]);
        ++result.swapsInserted;
        static obs::Counter &swaps = obs::counter("route.swaps");
        swaps.add();
    };

    for (size_t i = 0; i < circuit.size(); ++i) {
        const Gate &g = circuit.gates()[i];
        if (g.numQubits() == 1) {
            Gate mapped = g;
            mapped.setQubit(0, l2a[static_cast<size_t>(g.qubit(0))]);
            result.circuit.append(mapped);
            if (sources != nullptr)
                sources->push_back(static_cast<int>(i));
            continue;
        }
        if (g.numQubits() != 2)
            throw InternalError("route: unexpected 3-qubit gate");
        Qubit a = l2a[static_cast<size_t>(g.qubit(0))];
        Qubit b = l2a[static_cast<size_t>(g.qubit(1))];
        if (!topo.areAdjacent(a, b)) {
            // Walk a's state along a shortest path until adjacent to b.
            const auto path = topo.shortestPath(a, b);
            for (size_t i = 0; i + 2 < path.size(); ++i)
                swap_atoms(path[i], path[i + 1]);
            a = l2a[static_cast<size_t>(g.qubit(0))];
            b = l2a[static_cast<size_t>(g.qubit(1))];
        }
        Gate mapped = g;
        mapped.setQubit(0, a);
        mapped.setQubit(1, b);
        result.circuit.append(mapped);
        if (sources != nullptr)
            sources->push_back(static_cast<int>(i));
    }
    result.finalLayout = l2a;
    return result;
}

std::vector<Qubit>
chooseInitialLayout(const Circuit &circuit, const Topology &topo)
{
    const int n = circuit.numQubits();
    const int atoms = topo.numAtoms();
    if (n > atoms)
        throw ValidationError("chooseInitialLayout: too many qubits");

    // Interaction weights between logical qubits.
    std::vector<std::vector<int>> weight(
        static_cast<size_t>(n), std::vector<int>(static_cast<size_t>(n), 0));
    std::vector<long> degree(static_cast<size_t>(n), 0);
    for (const auto &g : circuit.gates()) {
        if (g.numQubits() != 2)
            continue;
        const Qubit a = g.qubit(0), b = g.qubit(1);
        ++weight[static_cast<size_t>(a)][static_cast<size_t>(b)];
        ++weight[static_cast<size_t>(b)][static_cast<size_t>(a)];
        ++degree[static_cast<size_t>(a)];
        ++degree[static_cast<size_t>(b)];
    }

    // Placement order: heaviest interactors first (stable tie-break by
    // index for determinism).
    std::vector<Qubit> order(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](Qubit x, Qubit y) {
        return degree[static_cast<size_t>(x)] > degree[static_cast<size_t>(y)];
    });

    // The most-connected atom hosts the heaviest qubit.
    std::vector<Qubit> layout(static_cast<size_t>(n), -1);
    std::vector<bool> used(static_cast<size_t>(atoms), false);
    int center = 0;
    for (int a = 1; a < atoms; ++a)
        if (topo.neighbors(a).size() > topo.neighbors(center).size())
            center = a;

    for (const Qubit q : order) {
        int bestAtom = -1;
        long bestCost = 0;
        for (int a = 0; a < atoms; ++a) {
            if (used[static_cast<size_t>(a)])
                continue;
            long cost = 0;
            bool anyPartner = false;
            for (Qubit p = 0; p < n; ++p) {
                if (layout[static_cast<size_t>(p)] < 0 ||
                    weight[static_cast<size_t>(q)][static_cast<size_t>(p)] == 0)
                    continue;
                anyPartner = true;
                cost += static_cast<long>(
                            weight[static_cast<size_t>(q)][static_cast<size_t>(p)]) *
                        topo.hopDistance(a, layout[static_cast<size_t>(p)]);
            }
            if (!anyPartner)
                cost = topo.hopDistance(a, center);  // Stay central.
            if (bestAtom < 0 || cost < bestCost) {
                bestAtom = a;
                bestCost = cost;
            }
        }
        layout[static_cast<size_t>(q)] = bestAtom;
        used[static_cast<size_t>(bestAtom)] = true;
    }
    return layout;
}

}  // namespace geyser
