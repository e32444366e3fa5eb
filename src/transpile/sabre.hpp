/**
 * @file
 * SABRE-style lookahead SWAP router (Li, Ding, Xie — ASPLOS'19), the
 * algorithm behind the Qiskit routing pass the paper's mapping step
 * uses. Compared to the shortest-path walker in router.hpp it chooses
 * each SWAP by scoring all candidate SWAPs against the current front
 * layer plus a lookahead window, usually inserting fewer SWAPs on
 * congested circuits.
 */
#ifndef GEYSER_TRANSPILE_SABRE_HPP
#define GEYSER_TRANSPILE_SABRE_HPP

#include "transpile/router.hpp"

namespace geyser {

/**
 * Route a physical-basis circuit onto `topo` with SABRE lookahead
 * scoring, starting from the given initial layout. Output contract is
 * identical to route(): every multi-qubit gate in the result acts on
 * adjacent atoms and the RoutedCircuit layouts relate logical qubits to
 * atoms before/after.
 */
RoutedCircuit routeSabre(const Circuit &circuit, const Topology &topo,
                         const std::vector<Qubit> &initial_layout);

/** routeSabre() with the interaction-aware greedy initial layout. */
RoutedCircuit routeSabre(const Circuit &circuit, const Topology &topo);

}  // namespace geyser

#endif  // GEYSER_TRANSPILE_SABRE_HPP
