#include "blocking/blocker.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.hpp"

namespace geyser {

namespace {

/**
 * Number of highest-scoring candidates tried as the seed of a block
 * family per round (Algorithm 1 lines 10-17). Each seed is completed
 * greedily; the best-scoring family wins.
 */
constexpr int kSeedCandidates = 8;

/** A candidate block grown from the current frontier over one triangle. */
struct Candidate
{
    std::vector<int> atoms;      ///< Active atoms only.
    std::vector<int> opIndices;  ///< Consumption order.
    long score = 0;              ///< Pulses or gate count.
    bool hasMulti = false;
};

/**
 * Grow the maximal frontier-consistent block over the atom triple.
 * `frontier` maps each atom to the next unconsumed position in its
 * per-atom op list.
 */
Candidate
growCandidate(const Circuit &circuit,
              const std::vector<std::vector<int>> &opLists,
              const std::vector<int> &frontier,
              const std::array<int, 3> &triple, bool pulse_aware)
{
    Candidate cand;
    std::array<int, 3> local{};  // Local frontier offsets per triple slot.
    auto listOf = [&](int slot) -> const std::vector<int> & {
        return opLists[static_cast<size_t>(triple[static_cast<size_t>(slot)])];
    };
    auto slotOf = [&](Qubit q) {
        for (int s = 0; s < 3; ++s)
            if (triple[static_cast<size_t>(s)] == q)
                return s;
        return -1;
    };

    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (int s = 0; s < 3 && !progressed; ++s) {
            const auto &list = listOf(s);
            const int pos = frontier[static_cast<size_t>(
                                triple[static_cast<size_t>(s)])] +
                            local[static_cast<size_t>(s)];
            if (pos >= static_cast<int>(list.size()))
                continue;
            const int opIdx = list[static_cast<size_t>(pos)];
            const Gate &g = circuit.gates()[static_cast<size_t>(opIdx)];
            // The op is consumable if all of its qubits are in the triple
            // and it is the frontier op of each of them.
            bool ok = true;
            for (int i = 0; i < g.numQubits() && ok; ++i) {
                const int os = slotOf(g.qubit(i));
                if (os < 0) {
                    ok = false;
                    break;
                }
                const auto &olist = listOf(os);
                const int opos = frontier[static_cast<size_t>(
                                     triple[static_cast<size_t>(os)])] +
                                 local[static_cast<size_t>(os)];
                if (opos >= static_cast<int>(olist.size()) ||
                    olist[static_cast<size_t>(opos)] != opIdx)
                    ok = false;
            }
            if (!ok)
                continue;
            // Consume it.
            for (int i = 0; i < g.numQubits(); ++i)
                ++local[static_cast<size_t>(slotOf(g.qubit(i)))];
            cand.opIndices.push_back(opIdx);
            cand.score += pulse_aware ? g.pulses() : 1;
            if (g.numQubits() >= 2)
                cand.hasMulti = true;
            progressed = true;
        }
    }

    // Active atoms only (in triple order for a stable local mapping).
    for (int s = 0; s < 3; ++s) {
        const int atom = triple[static_cast<size_t>(s)];
        for (const int opIdx : cand.opIndices) {
            if (circuit.gates()[static_cast<size_t>(opIdx)].actsOn(atom)) {
                cand.atoms.push_back(atom);
                break;
            }
        }
    }
    return cand;
}

/** Restriction-zone compatibility between two candidate blocks. */
bool
candidatesCompatible(const Topology &topo, const Candidate &a,
                     const Candidate &b)
{
    for (const int qa : a.atoms)
        for (const int qb : b.atoms)
            if (qa == qb)
                return false;
    if (a.hasMulti || b.hasMulti)
        return topo.setsCompatible(a.atoms, b.atoms);
    return true;
}

}  // namespace

BlockedCircuit
blockCircuit(const Circuit &circuit, const Topology &topo,
             const BlockerOptions &options)
{
    if (!circuit.isPhysical())
        throw std::invalid_argument("blockCircuit: physical circuit required");
    if (topo.triangles().empty())
        throw std::invalid_argument("blockCircuit: topology has no triangles");

    BlockedCircuit blocked;
    blocked.source = circuit;

    const auto opLists = circuit.qubitOpLists();
    std::vector<int> frontier(static_cast<size_t>(circuit.numQubits()), 0);
    size_t consumed = 0;

    while (consumed < circuit.size()) {
        // Enumerate candidate blocks over every lattice triangle.
        std::vector<Candidate> candidates;
        for (const auto &tri : topo.triangles()) {
            Candidate cand = growCandidate(circuit, opLists, frontier, tri,
                                           options.pulseAware);
            if (!cand.opIndices.empty())
                candidates.push_back(std::move(cand));
        }
        if (candidates.empty())
            throw std::logic_error("blockCircuit: no progress possible");
        static obs::Counter &candidatesGrown =
            obs::counter("blocking.candidates_grown");
        candidatesGrown.add(static_cast<long>(candidates.size()));

        std::sort(candidates.begin(), candidates.end(),
                  [](const Candidate &a, const Candidate &b) {
                      if (a.score != b.score)
                          return a.score > b.score;
                      return a.opIndices[0] < b.opIndices[0];
                  });

        // Try each of the top seeds; complete greedily by score
        // (Algorithm 1's recursive family construction).
        const int seeds = std::min<int>(kSeedCandidates,
                                        static_cast<int>(candidates.size()));
        std::vector<const Candidate *> bestFamily;
        long bestScore = -1;
        for (int s = 0; s < seeds; ++s) {
            std::vector<const Candidate *> family{&candidates[static_cast<size_t>(s)]};
            long score = candidates[static_cast<size_t>(s)].score;
            for (const auto &cand : candidates) {
                bool ok = true;
                for (const auto *member : family) {
                    // Disjoint atom sets already imply disjoint op sets
                    // (every op's qubits lie inside its block's atoms).
                    if (member == &cand ||
                        !candidatesCompatible(topo, *member, cand)) {
                        ok = false;
                        break;
                    }
                }
                if (ok) {
                    family.push_back(&cand);
                    score += cand.score;
                }
            }
            if (score > bestScore) {
                bestScore = score;
                bestFamily = std::move(family);
            }
        }

        // Materialize the round and advance the frontier.
        Round round;
        for (const auto *cand : bestFamily) {
            Block block;
            block.atoms = cand->atoms;
            block.opIndices = cand->opIndices;
            block.hasMultiQubitOps = cand->hasMulti;
            for (const int idx : cand->opIndices)
                block.pulseCount +=
                    circuit.gates()[static_cast<size_t>(idx)].pulses();
            round.blocks.push_back(std::move(block));
            for (const int idx : cand->opIndices) {
                const Gate &g = circuit.gates()[static_cast<size_t>(idx)];
                for (int i = 0; i < g.numQubits(); ++i)
                    ++frontier[static_cast<size_t>(g.qubit(i))];
            }
            consumed += cand->opIndices.size();
        }
        blocked.rounds.push_back(std::move(round));
    }
    if (obs::enabled()) {
        obs::counter("blocking.rounds")
            .add(static_cast<long>(blocked.rounds.size()));
        obs::counter("blocking.blocks_formed").add(blocked.blockCount());
    }
    return blocked;
}

}  // namespace geyser
