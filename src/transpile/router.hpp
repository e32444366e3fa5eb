/**
 * @file
 * Qubit mapping and SWAP routing onto an atom topology (paper Sec 3.2's
 * "circuit mapping" step — the role Qiskit's layout/routing passes play
 * in the paper).
 *
 * The router consumes a physical-basis circuit over logical qubits and
 * produces a physical-basis circuit over atoms in which every CZ acts on
 * adjacent atoms; SWAPs (lowered to 3 CX = 3 CZ + 6 U3) are inserted
 * along shortest interaction paths when needed.
 */
#ifndef GEYSER_TRANSPILE_ROUTER_HPP
#define GEYSER_TRANSPILE_ROUTER_HPP

#include <vector>

#include "circuit/circuit.hpp"
#include "topology/topology.hpp"

namespace geyser {

/** Result of routing: the mapped circuit plus the layouts used. */
struct RoutedCircuit
{
    Circuit circuit;                 ///< Over atom indices; CZs adjacent.
    std::vector<Qubit> initialLayout; ///< logical qubit -> atom.
    std::vector<Qubit> finalLayout;   ///< logical qubit -> atom at the end.
    int swapsInserted = 0;
};

/**
 * Route `circuit` (physical basis {U3, CZ}, logical qubit indices) onto
 * `topo` starting from the given initial layout (logical -> atom).
 * Deterministic. With `sources`, it receives one entry per routed gate:
 * the index of the input gate it copies, or -1 for a gate of an
 * inserted SWAP (a recording run gathers value ids through it).
 */
RoutedCircuit route(const Circuit &circuit, const Topology &topo,
                    const std::vector<Qubit> &initial_layout,
                    std::vector<int> *sources = nullptr);

/** route() with the trivial layout (logical qubit i on atom i). */
RoutedCircuit route(const Circuit &circuit, const Topology &topo,
                    std::vector<int> *sources = nullptr);

/**
 * Interaction-aware greedy initial layout: logical qubits are placed in
 * decreasing order of two-qubit-gate weight, each at the free atom that
 * minimizes the weighted hop distance to its already-placed partners.
 * Reduces inserted SWAPs versus the trivial layout (an OptiMap-level
 * optimization; Baseline keeps the trivial layout).
 */
std::vector<Qubit> chooseInitialLayout(const Circuit &circuit,
                                       const Topology &topo);

}  // namespace geyser

#endif  // GEYSER_TRANSPILE_ROUTER_HPP
