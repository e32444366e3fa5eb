/**
 * @file
 * Fuzz target: the framing layer and every text deserializer that reads
 * cache entries. Arbitrary bytes exercise four contracts:
 *   1. unframeWithChecksum never crashes and never throws;
 *   2. frame → unframe is the identity on any payload;
 *   3. circuitFromText either raises a taxonomy error with byte-offset
 *      context or yields a circuit that validates and round-trips
 *      gate-for-gate through circuitToText;
 *   4. compileResultFromText treats malformed or semantically
 *      inconsistent payloads as nullopt, never a crash, and anything it
 *      accepts passes Circuit::validate() and holds values a compile
 *      produces: no more composed blocks than blocks, and a finite,
 *      non-negative max HSD and stage times.
 */
#include <cmath>
#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "geyser/pipeline.hpp"
#include "io/framing.hpp"
#include "io/serialize.hpp"

namespace {

/** Contract 4's bounds on an accepted compile entry. */
bool
compileProduces(const geyser::CompileResult &r)
{
    auto finiteNonNegative = [](double v) {
        return std::isfinite(v) && v >= 0.0;
    };
    return r.composedBlockCount <= r.blockCount &&
           finiteNonNegative(r.maxBlockHsd) &&
           finiteNonNegative(r.transpileMs) &&
           finiteNonNegative(r.blockingMs) &&
           finiteNonNegative(r.composeMs) && finiteNonNegative(r.totalMs);
}

}  // namespace

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t *data, size_t size)
{
    const std::string text(reinterpret_cast<const char *>(data), size);

    // Contract 1: arbitrary bytes through the unframer.
    (void)geyser::io::unframeWithChecksum(text);

    // Contract 2: frame → unframe identity.
    const auto back =
        geyser::io::unframeWithChecksum(geyser::io::frameWithChecksum(text));
    if (!back || *back != text)
        __builtin_trap();

    // Contract 3: the native circuit deserializer.
    try {
        const geyser::Circuit c = geyser::circuitFromText(text);
        c.validate();
        const geyser::Circuit again =
            geyser::circuitFromText(geyser::circuitToText(c));
        if (again.size() != c.size() ||
            again.numQubits() != c.numQubits())
            __builtin_trap();
        for (size_t i = 0; i < c.size(); ++i)
            if (!(again.gates()[i] == c.gates()[i]))
                __builtin_trap();
    } catch (const geyser::Error &) {
        // Structured rejection is fine.
    }

    // Contract 4: cache-entry deserializers never throw on hostile
    // payloads, and accepted results carry validated circuits.
    const geyser::Circuit logical(2);
    if (const auto result = geyser::compileResultFromText(text, logical)) {
        result->physical.validate();
        if (!compileProduces(*result))
            __builtin_trap();
    }
    return 0;
}
