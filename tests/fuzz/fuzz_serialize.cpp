/**
 * @file
 * Fuzz target: the framing layer and every text deserializer that reads
 * cache entries. Arbitrary bytes exercise four contracts:
 *   1. unframeWithChecksum never crashes and never throws;
 *   2. frame → unframe is the identity on any payload;
 *   3. circuitFromText either raises a taxonomy error with byte-offset
 *      context or yields a circuit that validates and round-trips
 *      gate-for-gate through circuitToText;
 *   4. compileResultFromText / composeResultFromText treat malformed or
 *      semantically inconsistent payloads as nullopt, never a crash,
 *      and anything they accept passes Circuit::validate(). A compose
 *      entry is read for a fixed 3-qubit block and must replay it: the
 *      block's width, only U3/CZ/CCZ, the block verbatim when not
 *      composed, otherwise a consistent pulse saving (none only for an
 *      entangler-free block) and an HSD to the block, claimed and
 *      recomputed, within 20x the acceptance threshold.
 */
#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "geyser/pipeline.hpp"
#include "io/framing.hpp"
#include "io/serialize.hpp"
#include "sim/unitary_sim.hpp"
#include "verify/equivalence.hpp"

namespace {

/** The block every compose entry is read for. */
const geyser::Circuit &
fixedBlock()
{
    static const geyser::Circuit block = [] {
        geyser::Circuit c(3);
        c.u3(0, 0.3, 0.1, -0.2);
        c.cz(0, 1);
        c.cz(1, 2);
        c.u3(2, 1.1, 0.0, 0.4);
        c.cz(0, 2);
        return c;
    }();
    return block;
}

/** Contract 4's replay conditions for an accepted compose entry. */
bool
replaysFixedBlock(const geyser::ComposeResult &r)
{
    const geyser::Circuit &block = fixedBlock();
    const geyser::Circuit &body = r.circuit;
    if (body.numQubits() != block.numQubits())
        return false;
    for (const geyser::Gate &g : body.gates())
        if (!g.isPhysical())
            return false;
    if (!r.composed)
        return body.gates() == block.gates();
    // The fixed block entangles, so composing it must save pulses.
    const long saved = block.totalPulses() - body.totalPulses();
    if (saved <= 0 || r.pulsesSaved != saved)
        return false;
    const double bound = 20.0 * geyser::ComposeOptions::threshold;
    const geyser::Matrix target = geyser::circuitUnitary(block);
    const double hsd = geyser::verify::hsdFromTrace(
        geyser::verify::overlapTrace(target,
                                     geyser::circuitUnitary(body)),
        target.rows());
    return r.hsd >= 0.0 && r.hsd <= bound && hsd <= bound;
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
    if (const auto result = geyser::compileResultFromText(text, logical))
        result->physical.validate();
    if (const auto compose =
            geyser::composeResultFromText(text, fixedBlock())) {
        compose->circuit.validate();
        if (!replaysFixedBlock(*compose))
            __builtin_trap();
    }
    return 0;
}
