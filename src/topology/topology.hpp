/**
 * @file
 * Physical arrangement of neutral atoms: lattice positions, Rydberg
 * interaction edges, triangles (the 3-qubit block sites), and restriction
 * zones (paper Sec 2.2, Fig 4).
 *
 * Atoms interact when their Euclidean distance is within the interaction
 * radius. While a multi-qubit gate runs on a set of atoms, every
 * non-involved atom within the interaction radius of any involved atom is
 * "restricted" and cannot run gates.
 */
#ifndef GEYSER_TOPOLOGY_TOPOLOGY_HPP
#define GEYSER_TOPOLOGY_TOPOLOGY_HPP

#include <array>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace geyser {

/** A 2-D atom position (lattice spacing = 1). */
struct Position
{
    double x = 0.0;
    double y = 0.0;
};

/**
 * An atom arrangement with its interaction structure. Construct via
 * makeTriangular() / makeSquare().
 */
class Topology
{
  public:
    Topology() = default;

    /**
     * Triangular lattice of rows x cols atoms (paper Fig 7(a), the
     * arrangement Geyser selects). Every atom has up to six equidistant
     * neighbours; the interaction radius covers exactly the nearest
     * neighbours.
     */
    static Topology makeTriangular(int rows, int cols);

    /**
     * Square lattice of rows x cols atoms. With include_diagonals the
     * interaction radius covers diagonal neighbours too (paper Fig 7(b),
     * the rejected neutral-atom arrangement); without, it is the
     * 4-neighbour grid used for the superconducting comparison.
     */
    static Topology makeSquare(int rows, int cols, bool include_diagonals);

    /** Smallest triangular lattice with at least n atoms (roughly square). */
    static Topology forQubits(int n);

    /** Smallest 4-neighbour square lattice with at least n atoms. */
    static Topology squareForQubits(int n);

    int numAtoms() const { return static_cast<int>(positions_.size()); }
    const Position &position(int atom) const
    {
        return positions_[static_cast<size_t>(atom)];
    }
    double interactionRadius() const { return radius_; }
    const std::string &name() const { return name_; }

    /** Atoms within the interaction radius of `atom` (excluding itself). */
    const std::vector<int> &neighbors(int atom) const
    {
        return neighbors_[static_cast<size_t>(atom)];
    }

    /** True if a and b can directly interact (Rydberg radius). */
    bool areAdjacent(int a, int b) const;

    /** All interaction edges, each as an (a < b) pair. */
    const std::vector<std::array<int, 2>> &edges() const { return edges_; }

    /** All mutually-adjacent atom triples (candidate 3-qubit block sites). */
    const std::vector<std::array<int, 3>> &triangles() const
    {
        return triangles_;
    }

    /**
     * Restriction zone of a multi-qubit operation on `involved`: every
     * atom not in `involved` that lies within the interaction radius of
     * any involved atom, in increasing order (crosstalk draws one
     * Bernoulli per zone atom in this order). Replaces the contents of
     * `zone`, so a reused buffer allocates nothing once it is large
     * enough.
     */
    void restrictionZone(std::span<const int> involved,
                         std::vector<int> &zone) const;

    /** The restriction zone as a new vector. */
    std::vector<int> restrictionZone(const std::vector<int> &involved) const;

    /**
     * True if two atom sets can host concurrent multi-qubit operations:
     * disjoint, and no atom of one lies in the restriction zone of the
     * other (i.e. no cross-set pair is within the interaction radius).
     */
    bool setsCompatible(const std::vector<int> &a,
                        const std::vector<int> &b) const;

    /** BFS hop distance between atoms over the interaction graph. */
    int hopDistance(int a, int b) const;

    /** Consecutive atoms of a shortest interaction path from a to b. */
    std::vector<int> shortestPath(int a, int b) const;

    /**
     * Maximum restriction-zone size over all single edges / triangles;
     * reproduces the Fig 4 / Fig 7 counts in tests and the topology
     * ablation bench.
     */
    int maxEdgeRestriction() const;
    int maxTriangleRestriction() const;

  private:
    void finalize();
    void computeDistances() const;

    std::string name_;
    std::vector<Position> positions_;
    double radius_ = 1.0;
    std::vector<std::vector<int>> neighbors_;
    std::vector<std::array<int, 2>> edges_;
    std::vector<std::array<int, 3>> triangles_;
    // All-pairs hop distances, computed lazily.
    mutable std::vector<std::vector<int>> dist_;
};

}  // namespace geyser

#endif  // GEYSER_TOPOLOGY_TOPOLOGY_HPP
