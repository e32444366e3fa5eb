#include "topology/topology.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>

namespace geyser {

namespace {

double
dist(const Position &a, const Position &b)
{
    const double dx = a.x - b.x, dy = a.y - b.y;
    return std::sqrt(dx * dx + dy * dy);
}

}  // namespace

Topology
Topology::makeTriangular(int rows, int cols)
{
    Topology t;
    t.name_ = "triangular(" + std::to_string(rows) + "x" +
              std::to_string(cols) + ")";
    const double row_height = std::sqrt(3.0) / 2.0;
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            t.positions_.push_back(
                {static_cast<double>(c) + 0.5 * (r % 2), r * row_height});
    t.radius_ = 1.0 + 1e-9;
    t.finalize();
    return t;
}

Topology
Topology::makeSquare(int rows, int cols, bool include_diagonals)
{
    Topology t;
    t.name_ = std::string(include_diagonals ? "square-diag(" : "square(") +
              std::to_string(rows) + "x" + std::to_string(cols) + ")";
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            t.positions_.push_back(
                {static_cast<double>(c), static_cast<double>(r)});
    t.radius_ = (include_diagonals ? std::sqrt(2.0) : 1.0) + 1e-9;
    t.finalize();
    return t;
}

Topology
Topology::forQubits(int n)
{
    if (n <= 0)
        throw std::invalid_argument("Topology::forQubits: n must be > 0");
    const int cols = std::max(2, static_cast<int>(
        std::ceil(std::sqrt(static_cast<double>(n)))));
    const int rows = std::max(2, (n + cols - 1) / cols);
    return makeTriangular(rows, cols);
}

Topology
Topology::squareForQubits(int n)
{
    if (n <= 0)
        throw std::invalid_argument("Topology::squareForQubits: n must be > 0");
    const int cols = std::max(2, static_cast<int>(
        std::ceil(std::sqrt(static_cast<double>(n)))));
    const int rows = std::max(2, (n + cols - 1) / cols);
    return makeSquare(rows, cols, false);
}

void
Topology::finalize()
{
    const int n = numAtoms();
    neighbors_.assign(static_cast<size_t>(n), {});
    edges_.clear();
    triangles_.clear();
    for (int a = 0; a < n; ++a) {
        for (int b = a + 1; b < n; ++b) {
            if (dist(positions_[static_cast<size_t>(a)],
                     positions_[static_cast<size_t>(b)]) <= radius_) {
                neighbors_[static_cast<size_t>(a)].push_back(b);
                neighbors_[static_cast<size_t>(b)].push_back(a);
                edges_.push_back({a, b});
            }
        }
    }
    for (const auto &e : edges_) {
        for (int c = e[1] + 1; c < n; ++c) {
            if (areAdjacent(e[0], c) && areAdjacent(e[1], c))
                triangles_.push_back({e[0], e[1], c});
        }
    }
}

bool
Topology::areAdjacent(int a, int b) const
{
    if (a == b)
        return false;
    return dist(positions_[static_cast<size_t>(a)],
                positions_[static_cast<size_t>(b)]) <= radius_;
}

void
Topology::restrictionZone(std::span<const int> involved,
                          std::vector<int> &zone) const
{
    zone.clear();
    for (const int q : involved) {
        for (const int nb : neighbors(q)) {
            if (std::find(involved.begin(), involved.end(), nb) !=
                involved.end())
                continue;
            const auto at = std::lower_bound(zone.begin(), zone.end(), nb);
            if (at == zone.end() || *at != nb)
                zone.insert(at, nb);
        }
    }
}

std::vector<int>
Topology::restrictionZone(const std::vector<int> &involved) const
{
    std::vector<int> zone;
    restrictionZone(involved, zone);
    return zone;
}

bool
Topology::setsCompatible(const std::vector<int> &a,
                         const std::vector<int> &b) const
{
    for (int qa : a)
        for (int qb : b)
            if (qa == qb || areAdjacent(qa, qb))
                return false;
    return true;
}

void
Topology::computeDistances() const
{
    const int n = numAtoms();
    dist_.assign(static_cast<size_t>(n), std::vector<int>(
        static_cast<size_t>(n), -1));
    for (int s = 0; s < n; ++s) {
        auto &row = dist_[static_cast<size_t>(s)];
        std::queue<int> queue;
        row[static_cast<size_t>(s)] = 0;
        queue.push(s);
        while (!queue.empty()) {
            const int u = queue.front();
            queue.pop();
            for (int v : neighbors(u)) {
                if (row[static_cast<size_t>(v)] < 0) {
                    row[static_cast<size_t>(v)] = row[static_cast<size_t>(u)] + 1;
                    queue.push(v);
                }
            }
        }
    }
}

int
Topology::hopDistance(int a, int b) const
{
    if (dist_.empty())
        computeDistances();
    return dist_[static_cast<size_t>(a)][static_cast<size_t>(b)];
}

std::vector<int>
Topology::shortestPath(int a, int b) const
{
    if (dist_.empty())
        computeDistances();
    std::vector<int> path{a};
    int cur = a;
    while (cur != b) {
        int next = -1;
        for (int nb : neighbors(cur)) {
            if (hopDistance(nb, b) == hopDistance(cur, b) - 1) {
                next = nb;
                break;
            }
        }
        if (next < 0)
            throw std::logic_error("shortestPath: disconnected topology");
        path.push_back(next);
        cur = next;
    }
    return path;
}

int
Topology::maxEdgeRestriction() const
{
    int best = 0;
    for (const auto &e : edges_)
        best = std::max(best, static_cast<int>(
            restrictionZone({e[0], e[1]}).size()));
    return best;
}

int
Topology::maxTriangleRestriction() const
{
    int best = 0;
    for (const auto &t : triangles_)
        best = std::max(best, static_cast<int>(
            restrictionZone({t[0], t[1], t[2]}).size()));
    return best;
}

}  // namespace geyser
