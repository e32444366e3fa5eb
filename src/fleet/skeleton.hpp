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
 *     transpiled once, with a recorder (transpile/record.hpp). The
 *     record shows which logical slots each physical U3's angles depend
 *     on, so the U3s that hang on a varying slot are the varying mask;
 *     compile()'s `blockAndCompose` composes each block's maximal runs
 *     of *fixed* gates while the varying U3s are emitted verbatim —
 *     yielding one stitched "composed skeleton" circuit plus a re-bind
 *     map from stitched varying slots back to transpiled gate indices;
 *  3. a per-member re-bind (`rebindMember`): replay the record on the
 *     member's angles, which gives its transpile bit for bit (the real
 *     transpile runs only when a recorded angle test comes out the
 *     other way), check its structure and *fixed* parameters
 *     bit-exactly against the plan, then copy its varying physical
 *     angles into the cached stitched circuit. Any divergence (the
 *     optimizer is angle-sensitive at identity/diagonal boundaries)
 *     returns nullopt and the caller falls back to a plain full compile
 *     — sharing is an optimization, never a change in results.
 *
 * Plans serialize (`skeletonPlanToText`) and persist in the result
 * cache under `cache::skeletonCacheKey`, so a warm process re-binds a
 * thousand-member sweep without composing anything at all. The record
 * lives in memory only: a loaded plan records from the first member it
 * re-binds.
 *
 * Only Technique::Geyser has a composition stage to share; the fleet
 * driver compiles other techniques member-by-member through the exact
 * cache.
 */
#ifndef GEYSER_FLEET_SKELETON_HPP
#define GEYSER_FLEET_SKELETON_HPP

#include <functional>
#include <memory>
#include <mutex>
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

/** What a plan re-binds members with (skeleton.cpp). */
struct PlanReplay;

/**
 * A plan's PlanReplay: set at most once per plan object, then shared by
 * copies of the plan. Thread-safe; in memory only, never serialized.
 */
class ReplaySlot
{
  public:
    ReplaySlot() = default;
    explicit ReplaySlot(std::shared_ptr<const PlanReplay> value);
    ReplaySlot(const ReplaySlot &other);
    ReplaySlot &operator=(const ReplaySlot &other);

    /**
     * The replay, made by `make` first if the slot has none: `make`
     * runs under the slot's lock, so one caller makes it while the
     * others wait. A null `make()` installs nothing. The replay lives
     * as long as the slot keeps it.
     */
    const PlanReplay *getOrMake(
        const std::function<std::shared_ptr<const PlanReplay>()> &make) const;

  private:
    mutable std::mutex mu_;
    mutable std::shared_ptr<const PlanReplay> value_;
};

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
    /**
     * The recorded transpile members replay: buildSkeletonPlan's, or,
     * for a plan made without one (skeletonPlanFromText, a copy taken
     * before it existed), recorded from the first member rebindMember
     * sees.
     */
    ReplaySlot replay;
};

/**
 * The plan mask (SkeletonPlan::paramVarying) of a recorded transpile:
 * all three parameters of every output U3 whose angles depend on one of
 * `varyingSlots`, per the record, and nothing else. nullopt if a slot
 * names no parameter of the recorded circuit.
 */
std::optional<std::vector<uint8_t>> varyingMask(
    const RecordedTranspile &recorded,
    const std::vector<ParamSlot> &varyingSlots);

/**
 * Build a plan from a group representative. `varyingSlots` are the
 * group's varying logical slots (empty: nothing varies). The
 * representative is transpiled once, recorded; the record gives the
 * varying mask (varyingMask) and becomes the plan's replay. When
 * `cachedCompose` is set, fixed runs compose through the process memo;
 * otherwise the same search runs without it — the oracle path used to
 * verify re-bound results. Returns nullopt for a technique other than
 * Geyser or a slot that names no parameter of the representative — the
 * caller then full-compiles the group. Throws where the transpile does.
 */
std::optional<SkeletonPlan> buildSkeletonPlan(
    Technique technique, const Circuit &representative,
    const std::vector<ParamSlot> &varyingSlots,
    const PipelineOptions &options, bool cachedCompose = true);

/**
 * Re-bind one member against a plan: replay the plan's recorded
 * transpile on the member's angles (replayTranspile; the plan records
 * from this member first if it has no record yet), validate structure
 * + fixed parameters + layouts against the plan, then substitute its
 * varying angles into the stitched circuit and take the plan's stats.
 * The member is transpiled for real when the replay diverges, and
 * whenever options.verifyEquivalence is on. nullopt on any divergence
 * from the plan (caller falls back to compile()).
 */
std::optional<CompileResult> rebindMember(const SkeletonPlan &plan,
                                          const Circuit &memberLogical,
                                          const PipelineOptions &options);

/**
 * rebindMember, also telling whether the member's replay diverged, so
 * that it took the real transpile (fleet.replay_fallbacks).
 */
std::optional<CompileResult> rebindMember(const SkeletonPlan &plan,
                                          const Circuit &memberLogical,
                                          const PipelineOptions &options,
                                          bool &replayDiverged);

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
