/**
 * @file
 * Fuzz target: the skeleton-plan loader. Fleet plans persist in the
 * result cache, and cache entries are untrusted bytes. Arbitrary input
 * exercises three contracts:
 *   1. skeletonPlanFromText never throws: malformed input is nullopt;
 *   2. an accepted plan is one buildSkeletonPlan could have written:
 *      circuits that validate and share one width, `adopted` exactly
 *      when a block composed, an unadopted plan's stitched circuit
 *      equal to its transpiled one with no re-bind pairs, two layouts
 *      of one length that repeat no atom and stay inside the width,
 *      re-bind pairs naming a U3 in both circuits, one varying flag per
 *      transpiled parameter slot and only on U3s, and counts a compile
 *      can produce (non-negative, composed blocks <= blocks, a finite
 *      non-negative max HSD);
 *   3. skeletonPlanToText of an accepted plan parses back and
 *      re-serializes to the same text.
 */
#include <cmath>
#include <cstdint>
#include <set>
#include <string>

#include "fleet/skeleton.hpp"

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t *data, size_t size)
{
    using namespace geyser;
    const std::string text(reinterpret_cast<const char *>(data), size);

    // Contract 1: an exception escaping here terminates the run.
    const auto plan = fleet::skeletonPlanFromText(text);
    if (!plan)
        return 0;

    // Contract 2: what loads is something a compile could have stored.
    plan->transpiled.validate();
    plan->stitched.validate();
    const int width = plan->transpiled.numQubits();
    if (plan->stitched.numQubits() != width)
        __builtin_trap();
    if (plan->adopted != (plan->composedBlockCount > 0))
        __builtin_trap();
    if (!plan->adopted && (!plan->rebindMap.empty() ||
                           plan->stitched.gates() != plan->transpiled.gates()))
        __builtin_trap();
    auto isU3 = [](const Circuit &circuit, int gate) {
        return gate >= 0 && gate < static_cast<int>(circuit.size()) &&
               circuit.gates()[static_cast<size_t>(gate)].kind() ==
                   GateKind::U3;
    };
    for (const auto &[s, t] : plan->rebindMap)
        if (!isU3(plan->stitched, s) || !isU3(plan->transpiled, t))
            __builtin_trap();
    if (plan->paramVarying.size() != plan->transpiled.size() * 3)
        __builtin_trap();
    for (size_t slot = 0; slot < plan->paramVarying.size(); ++slot)
        if (plan->paramVarying[slot] != 0 &&
            !isU3(plan->transpiled, static_cast<int>(slot / 3)))
            __builtin_trap();
    if (plan->initialLayout.size() != plan->finalLayout.size())
        __builtin_trap();
    for (const auto *layout : {&plan->initialLayout, &plan->finalLayout}) {
        std::set<Qubit> atoms;
        for (const Qubit q : *layout)
            if (q < 0 || q >= width || !atoms.insert(q).second)
                __builtin_trap();
    }
    if (plan->swapsInserted < 0 || plan->blockCount < 0 ||
        plan->composedBlockCount < 0 ||
        plan->composedBlockCount > plan->blockCount ||
        plan->compositionEvaluations < 0 ||
        !std::isfinite(plan->maxBlockHsd) || plan->maxBlockHsd < 0.0)
        __builtin_trap();

    // Contract 3: the serialized form is a fixed point of the codec.
    const std::string again = fleet::skeletonPlanToText(*plan);
    const auto reparsed = fleet::skeletonPlanFromText(again);
    if (!reparsed || fleet::skeletonPlanToText(*reparsed) != again)
        __builtin_trap();
    return 0;
}
