/**
 * @file
 * Fuzz target: the skeleton-plan loader. Fleet plans persist in the
 * result cache, and cache entries are untrusted bytes. Arbitrary input
 * exercises three contracts:
 *   1. skeletonPlanFromText never throws: malformed input is nullopt;
 *   2. an accepted plan carries circuits that validate, re-bind
 *      indices inside both circuits, one varying flag per transpiled
 *      parameter slot, non-negative layout entries, and counts a
 *      compile can produce (non-negative, composed blocks <= blocks, a
 *      finite non-negative max HSD);
 *   3. skeletonPlanToText of an accepted plan parses back and
 *      re-serializes to the same text.
 */
#include <cmath>
#include <cstdint>
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
    for (const auto &[s, t] : plan->rebindMap)
        if (s < 0 || s >= static_cast<int>(plan->stitched.size()) || t < 0 ||
            t >= static_cast<int>(plan->transpiled.size()))
            __builtin_trap();
    if (plan->paramVarying.size() != plan->transpiled.size() * 3)
        __builtin_trap();
    for (const auto *layout : {&plan->initialLayout, &plan->finalLayout})
        for (const Qubit q : *layout)
            if (q < 0)
                __builtin_trap();
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
