/**
 * @file
 * Circuit serialization: a compact text format (round-trippable), an
 * OpenQASM 2.0 exporter for interoperability, and the compiled-result
 * payload of the persistent result cache (src/cache).
 */
#ifndef GEYSER_IO_SERIALIZE_HPP
#define GEYSER_IO_SERIALIZE_HPP

#include <optional>
#include <string>
#include <vector>

#include "geyser/pipeline.hpp"

namespace geyser {

/** Serialize a circuit to the native text format. */
std::string circuitToText(const Circuit &circuit);

/** Parse the native text format; throws on malformed input. */
Circuit circuitFromText(const std::string &text);

/**
 * The rule every layout loaded from a cache entry must pass: an
 * injective map of `num_logical` qubits onto atoms [0, num_atoms).
 * Loaded layouts are untrusted, and an out-of-range atom index would
 * otherwise flow into projectToLogical's bit shifts as undefined
 * behavior.
 */
bool layoutIsValid(const std::vector<Qubit> &layout, int num_logical,
                   int num_atoms);

/** Export to OpenQASM 2.0 (logical gates use their standard mnemonics). */
std::string circuitToQasm(const Circuit &circuit);

/**
 * Serialize the replayable parts of a CompileResult (physical circuit,
 * layout, counters) to text. The logical circuit and topology are
 * rebuilt by the loader from the caller, so they are not stored. This is
 * the payload format of the persistent result cache (src/cache).
 */
std::string compileResultToText(const CompileResult &result);

/**
 * Parse compileResultToText() output; returns std::nullopt on any
 * malformed input. `logical` and the topology are filled in from the
 * caller, and derived statistics are recomputed.
 */
std::optional<CompileResult> compileResultFromText(const std::string &text,
                                                   const Circuit &logical);

}  // namespace geyser

#endif  // GEYSER_IO_SERIALIZE_HPP
