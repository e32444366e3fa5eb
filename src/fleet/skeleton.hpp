/**
 * @file
 * Skeleton/parameter structure sharing for fleet compilation.
 *
 * A parameter sweep (VQE/QAOA) iterates one circuit *structure* with
 * new angles; full recompilation redoes the expensive composition
 * search per member even though only a handful of U3 angles moved. This
 * module factors a sweep into:
 *
 *  1. a grouping step (`groupBySkeleton`): members with identical
 *     structure — gate kinds, operands, qubit count, every parameter
 *     slot position — land in one SkeletonGroup, with the slots whose
 *     values actually differ across the group recorded as the varying
 *     mask;
 *  2. a plan (`buildSkeletonPlan`): the group's representative is
 *     transpiled once, the varying logical slots are traced through the
 *     transpiler onto physical U3 parameters by perturbation
 *     differencing, and compile()'s `blockAndCompose` composes each
 *     block's maximal runs of *fixed* gates while the varying U3s are
 *     emitted verbatim — yielding one stitched "composed skeleton"
 *     circuit plus a re-bind map from stitched varying slots back to
 *     transpiled gate indices;
 *  3. a per-member re-bind (`rebindMember`): transpile the member
 *     (cheap — milliseconds vs seconds of composition), check its
 *     structure and *fixed* parameters bit-exactly against the plan,
 *     then copy its varying physical angles into the cached stitched
 *     circuit. Any divergence (the optimizer is angle-sensitive at
 *     identity/diagonal boundaries) returns nullopt and the caller
 *     falls back to a plain full compile — sharing is an optimization,
 *     never a change in results.
 *
 * Plans serialize (`skeletonPlanToText`) and persist in the result
 * cache under `cache::skeletonCacheKey`, so a warm process re-binds a
 * thousand-member sweep without composing anything at all.
 *
 * Only Technique::Geyser has a composition stage to share; the fleet
 * driver compiles other techniques member-by-member through the exact
 * cache.
 */
#ifndef GEYSER_FLEET_SKELETON_HPP
#define GEYSER_FLEET_SKELETON_HPP

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "geyser/pipeline.hpp"

namespace geyser {
namespace fleet {

/** One parameter slot of a circuit: gate index + param index. */
struct ParamSlot
{
    int gate = 0;
    int param = 0;

    bool operator==(const ParamSlot &o) const
    {
        return gate == o.gate && param == o.param;
    }
};

/**
 * Hex digest of a circuit's structure only: qubit count, gate kinds,
 * operands — every parameter canonicalized out. Equal digests mean the
 * circuits are candidates for one skeleton group.
 */
std::string structureDigest(const Circuit &circuit);

/** A set of same-structure sweep members and their varying slots. */
struct SkeletonGroup
{
    std::string digest;
    /** Indices into the caller's member list, in input order. */
    std::vector<int> members;
    /**
     * Slots whose value differs from the representative (the first
     * member) anywhere in the group, in (gate, param) order. Empty for
     * a group whose members are parameter-identical.
     */
    std::vector<ParamSlot> varyingSlots;
};

/**
 * Partition members into skeleton groups (input order preserved). The
 * circuits stay where the caller keeps them; each group's digest is
 * computed once, from its first member.
 */
std::vector<SkeletonGroup> groupBySkeleton(
    const std::vector<const Circuit *> &members);

/** groupBySkeleton over a vector of circuits. */
std::vector<SkeletonGroup> groupBySkeleton(
    const std::vector<Circuit> &members);

/**
 * The cached composed structure of one skeleton group: everything
 * needed to turn a member's transpiled angles into a full Geyser
 * result without composing.
 */
struct SkeletonPlan
{
    Technique technique = Technique::Geyser;
    /** The representative's routed physical circuit (pre-blocking). */
    Circuit transpiled;
    std::vector<Qubit> initialLayout;
    std::vector<Qubit> finalLayout;
    int swapsInserted = 0;
    /**
     * Per transpiled-gate parameter slot (flat index gate*3+param):
     * nonzero if the slot tracks a varying logical angle. Fixed slots
     * must match the plan bit-exactly for a member to re-bind.
     */
    std::vector<uint8_t> paramVarying;
    /**
     * The composed skeleton: fixed segments composed, varying U3s
     * verbatim (holding the representative's angle values until
     * re-bound). Equals `transpiled` when adopted == false.
     */
    Circuit stitched;
    /** (stitched gate index, transpiled gate index) for varying U3s. */
    std::vector<std::pair<int, int>> rebindMap;
    // Representative's composition metadata, reported for every
    // re-bound member (the search ran once, on the skeleton).
    int blockCount = 0;
    int composedBlockCount = 0;
    long compositionEvaluations = 0;
    double maxBlockHsd = 0.0;
    /** False when no segment composed (Geyser degenerates to OptiMap). */
    bool adopted = false;
};

/**
 * Build a plan from a group representative. `varyingSlots` are the
 * group's varying logical slots (empty: nothing varies). When
 * `cachedCompose` is set, fixed runs compose through the process memo;
 * otherwise the same search runs without it — the oracle path used to
 * verify re-bound results.
 * Returns nullopt when the transpiler output is structurally
 * angle-sensitive for this circuit (perturbation differencing detects
 * it) or a varying angle lands outside a plain U3 — the caller then
 * full-compiles the group.
 */
std::optional<SkeletonPlan> buildSkeletonPlan(
    Technique technique, const Circuit &representative,
    const std::vector<ParamSlot> &varyingSlots,
    const PipelineOptions &options, bool cachedCompose = true);

/**
 * Re-bind one member against a plan: transpile it, validate structure
 * + fixed parameters + layouts against the plan, then substitute its
 * varying angles into the stitched circuit. nullopt on any divergence
 * (caller falls back to compile()).
 */
std::optional<CompileResult> rebindMember(const SkeletonPlan &plan,
                                          const Circuit &memberLogical,
                                          const PipelineOptions &options);

/** Serialize a plan for the persistent cache. */
std::string skeletonPlanToText(const SkeletonPlan &plan);

/** Parse skeletonPlanToText() output; nullopt on malformed input. */
std::optional<SkeletonPlan> skeletonPlanFromText(const std::string &text);

/** The group's varying slots as (gate, param) pairs for cache keys. */
std::vector<std::pair<int, int>> slotPairs(
    const std::vector<ParamSlot> &slots);

}  // namespace fleet
}  // namespace geyser

#endif  // GEYSER_FLEET_SKELETON_HPP
