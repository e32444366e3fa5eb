/**
 * @file
 * Negative-path coverage for the untrusted-input boundary: one table
 * case per parser/deserializer diagnostic (QASM, angle expressions,
 * native circuit text, cache entries), Circuit::validate() invariants,
 * and round-trip property tests asserting validate() holds after
 * parse → emit → parse.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "algos/algos.hpp"
#include "common/error.hpp"
#include "geyser/pipeline.hpp"
#include "io/qasm_parser.hpp"
#include "io/serialize.hpp"
#include "verify/random_circuit.hpp"

namespace geyser {
namespace {

// ---------------------------------------------------------------------
// QASM diagnostics: every rejection carries `qasm:<line>:` context.

struct QasmCase
{
    const char *name;
    const char *text;
    const char *expect;  ///< Substring the diagnostic must contain.
};

const QasmCase kQasmCases[] = {
    {"operand index beyond qreg size",
     "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[9];\n",
     "operand index 9 out of range"},
    {"negative operand index",
     "OPENQASM 2.0;\nqreg q[2];\nh q[-1];\n",
     "operand index -1 out of range"},
    {"malformed register size",
     "OPENQASM 2.0;\nqreg q[xyz];\n",
     "malformed register size: 'xyz'"},
    {"overflowing register size",
     "OPENQASM 2.0;\nqreg q[99999999999999999999];\n",
     "register size out of range"},
    {"zero register size",
     "OPENQASM 2.0;\nqreg q[0];\n",
     "register size 0 out of range"},
    {"register size above hard cap",
     "OPENQASM 2.0;\nqreg q[2000000];\n",
     "register size 2000000 out of range"},
    {"malformed operand index",
     "OPENQASM 2.0;\nqreg q[2];\nh q[1x];\n",
     "malformed operand index: '1x'"},
    {"unknown operand register",
     "OPENQASM 2.0;\nqreg q[2];\ncx r[0],q[1];\n",
     "unknown register 'r'"},
    {"duplicate operands",
     "OPENQASM 2.0;\nqreg q[2];\ncx q[1],q[1];\n",
     "duplicate operand q[1]"},
    {"trailing junk after operand",
     "OPENQASM 2.0;\nqreg q[2];\nh q[0]junk;\n",
     "trailing characters after operand"},
    {"trailing junk after qreg",
     "OPENQASM 2.0;\nqreg q[2]junk;\n",
     "trailing characters after qreg"},
    {"division by zero in angle",
     "OPENQASM 2.0;\nqreg q[1];\nrz(1/0) q[0];\n",
     "division by zero"},
    {"overflow to infinity in angle",
     "OPENQASM 2.0;\nqreg q[1];\nrz(1e308*100) q[0];\n",
     "non-finite value"},
    {"number literal beyond double range",
     "OPENQASM 2.0;\nqreg q[1];\nrz(1e99999) q[0];\n",
     "number literal out of double range"},
    {"unsupported gate",
     "OPENQASM 2.0;\nqreg q[1];\nbogus q[0];\n",
     "unsupported gate: bogus"},
    {"wrong parameter count",
     "OPENQASM 2.0;\nqreg q[1];\nrz(0.1,0.2) q[0];\n",
     "wrong parameter count"},
    {"wrong operand count",
     "OPENQASM 2.0;\nqreg q[2];\ncx q[0];\n",
     "wrong operand count"},
};

TEST(InputValidation, QasmDiagnosticsCarryLineContext)
{
    for (const auto &c : kQasmCases) {
        try {
            circuitFromQasm(c.text);
            FAIL() << c.name << ": expected ParseError";
        } catch (const ParseError &e) {
            const std::string what = e.what();
            EXPECT_EQ(e.kind(), ErrorKind::Parse) << c.name;
            EXPECT_EQ(e.where().source, "qasm") << c.name;
            EXPECT_GT(e.where().line, 0) << c.name << ": " << what;
            EXPECT_NE(what.find("qasm:"), std::string::npos)
                << c.name << ": " << what;
            EXPECT_NE(what.find(c.expect), std::string::npos)
                << c.name << ": " << what;
        }
    }
}

TEST(InputValidation, QasmMissingHeaderAndQreg)
{
    for (const char *text : {"qreg q[1];\nh q[0];\n", "OPENQASM 2.0;\n"}) {
        try {
            circuitFromQasm(text);
            FAIL() << "expected ParseError";
        } catch (const ParseError &e) {
            EXPECT_EQ(e.where().source, "qasm");
        }
    }
}

// ---------------------------------------------------------------------
// Angle-expression evaluator: byte-offset context, finite results only.

TEST(InputValidation, ExprDiagnosticsCarryByteOffsets)
{
    struct Case
    {
        const char *text;
        const char *expect;
    };
    const Case cases[] = {
        {"1/0", "division by zero"},
        {"1/(2-2)", "division by zero"},
        {"1e309", "number literal out of double range"},
        {"1e308*10", "non-finite value"},
        {"pi/", "expected number"},
        {"(1+2", "missing ')'"},
        {"1+2)", "trailing characters"},
        {"", "expected number"},
    };
    for (const auto &c : cases) {
        try {
            evalAngleExpr(c.text);
            FAIL() << "'" << c.text << "': expected ParseError";
        } catch (const ParseError &e) {
            EXPECT_EQ(e.where().source, "expr") << c.text;
            EXPECT_GE(e.where().offset, 0) << c.text;
            EXPECT_NE(std::string(e.what()).find(c.expect),
                      std::string::npos)
                << c.text << ": " << e.what();
        }
    }
}

TEST(InputValidation, ExprRejectsDeepNesting)
{
    // Unbounded recursion here used to walk the machine stack into a
    // crash; now it is a diagnostic (found by fuzz_expr).
    const std::string parens(100000, '(');
    EXPECT_THROW(evalAngleExpr(parens + "1"), ParseError);
    EXPECT_THROW(evalAngleExpr(std::string(100000, '-') + "1"), ParseError);
    // Shallow nesting still works.
    EXPECT_NEAR(evalAngleExpr("((((1+2))))"), 3.0, 1e-15);
    EXPECT_NEAR(evalAngleExpr("--1"), 1.0, 1e-15);
}

TEST(InputValidation, ExprResultsAreAlwaysFinite)
{
    for (const char *text :
         {"pi*2", "1e300", "-1e300", "1/3", "1e-300/10"}) {
        const double v = evalAngleExpr(text);
        EXPECT_TRUE(std::isfinite(v)) << text;
    }
}

// ---------------------------------------------------------------------
// Native circuit text: byte-offset diagnostics, validated results.

struct TextCase
{
    const char *name;
    const char *text;
    const char *expect;
};

const TextCase kTextCases[] = {
    {"missing header", "nonsense", "missing qubits header"},
    {"negative qubit count", "qubits -1", "out of range"},
    {"qubit count above cap", "qubits 2000000", "out of range"},
    {"unknown mnemonic", "qubits 2\nfoo 0", "unknown gate mnemonic: foo"},
    {"operand out of range", "qubits 1\ncx 0 1",
     "operand qubit 1 out of range"},
    {"negative operand", "qubits 2\ncx 0 -1",
     "operand qubit -1 out of range"},
    {"duplicate operands", "qubits 2\ncx 1 1", "duplicate operand qubit 1"},
    {"missing qubit operand", "qubits 1\nrz 0.5", "bad qubit operand"},
    {"bad parameter", "qubits 1\nrz abc 0", "bad parameter value"},
    {"nan parameter", "qubits 1\nrz nan 0", "bad parameter value"},
};

TEST(InputValidation, CircuitTextDiagnosticsCarryOffsets)
{
    for (const auto &c : kTextCases) {
        try {
            circuitFromText(c.text);
            FAIL() << c.name << ": expected ParseError";
        } catch (const ParseError &e) {
            EXPECT_EQ(e.where().source, "circuit-text") << c.name;
            EXPECT_GE(e.where().offset, 0) << c.name;
            EXPECT_NE(std::string(e.what()).find(c.expect),
                      std::string::npos)
                << c.name << ": " << e.what();
        }
    }
}

// ---------------------------------------------------------------------
// Cache-entry deserialization: semantically invalid payloads are
// misses (nullopt), never exceptions, never out-of-range layouts.

TEST(InputValidation, CacheEntryRejectsBadLayouts)
{
    const std::string body = "endheader\nqubits 2\nu3 0 0 0 0\n";
    const Circuit logical(2);
    // Layout atom out of range for the physical circuit.
    EXPECT_FALSE(compileResultFromText("geyser-cache-v1\n"
                                       "technique Baseline\n"
                                       "layout 0 99\nilayout 0 1\n" +
                                           body,
                                       logical)
                     .has_value());
    // Layout shorter than the logical qubit count.
    EXPECT_FALSE(compileResultFromText("geyser-cache-v1\n"
                                       "technique Baseline\n"
                                       "layout 0\nilayout 0 1\n" +
                                           body,
                                       logical)
                     .has_value());
    // Duplicate atom in the layout (not injective).
    EXPECT_FALSE(compileResultFromText("geyser-cache-v1\n"
                                       "technique Baseline\n"
                                       "layout 1 1\nilayout 0 1\n" +
                                           body,
                                       logical)
                     .has_value());
    // Valid circuit body, but cx is outside the native gate set the
    // pulse-depth computation accepts — used to throw through the
    // nullopt contract (found by fuzz_serialize; reproducer checked in
    // at tests/fuzz/regressions/serialize/nonnative_gate_in_body).
    EXPECT_FALSE(compileResultFromText("geyser-cache-v1\n"
                                       "technique Baseline\n"
                                       "layout 0 1\nilayout 0 1\n"
                                       "endheader\nqubits 2\n"
                                       "u3 0 0 0 0\ncx 0 1\n",
                                       logical)
                     .has_value());
}

TEST(InputValidation, CacheEntryRejectsMalformedHeaders)
{
    const Circuit logical(1);
    for (const char *text : {
             "geyser-cache-v1\ntechnique Bogus\nendheader\nqubits 1\n",
             "geyser-cache-v1\nswaps -3\nlayout 0\nilayout 0\n"
             "endheader\nqubits 1\n",
             "geyser-cache-v1\nswaps xyz\n",
             "geyser-cache-v1\ntechnique Baseline\n",  // No endheader.
             "geyser-cache-v1\nlayout 0\nilayout 0\nendheader\n"
             "qubits 1\ncx 0 1\n",  // Invalid circuit body.
             // Well-formed values no compile produces.
             "geyser-cache-v1\nblocks 1 3\nlayout 0\nilayout 0\n"
             "endheader\nqubits 1\n",  // More composed blocks than blocks.
             "geyser-cache-v1\nmaxhsd -1\nlayout 0\nilayout 0\n"
             "endheader\nqubits 1\n",
             "geyser-cache-v1\ntimes -5 0 0 0\nlayout 0\nilayout 0\n"
             "endheader\nqubits 1\n",
         }) {
        EXPECT_FALSE(compileResultFromText(text, logical).has_value())
            << text;
    }
}

TEST(InputValidation, ProjectToLogicalRejectsBadLayouts)
{
    const Distribution phys(4, 0.25);
    EXPECT_THROW(projectToLogical(phys, {0, 7}, 2, 2), ValidationError);
    EXPECT_THROW(projectToLogical(phys, {0}, 2, 2), ValidationError);
    EXPECT_THROW(projectToLogical(phys, {0, -1}, 2, 2), ValidationError);
    EXPECT_THROW(projectToLogical(Distribution(7), {0}, 1, 3),
                 ValidationError);
    // A well-formed projection still works.
    const Distribution ok = projectToLogical(phys, {0, 1}, 2, 2);
    EXPECT_NEAR(ok[0] + ok[1] + ok[2] + ok[3], 1.0, 1e-12);
}

// ---------------------------------------------------------------------
// Circuit::validate() invariants.

TEST(InputValidation, ValidateAcceptsWellFormedCircuits)
{
    const Circuit c = qftBenchmark(4);
    EXPECT_FALSE(c.validationError().has_value());
    EXPECT_NO_THROW(c.validate());
    EXPECT_NO_THROW(Circuit().validate());  // Empty circuit is valid.
}

TEST(InputValidation, ValidateCatchesDuplicateOperands)
{
    Circuit c(2);
    c.cx(0, 1);
    c.gates()[0].setQubit(1, 0);  // cx q0,q0 behind append's back.
    const auto why = c.validationError();
    ASSERT_TRUE(why.has_value());
    EXPECT_NE(why->find("duplicate operand"), std::string::npos) << *why;
    EXPECT_THROW(c.validate(), ValidationError);
}

TEST(InputValidation, ValidateCatchesNonFiniteAngles)
{
    Circuit c(1);
    c.rz(0, std::numeric_limits<double>::quiet_NaN());
    const auto why = c.validationError();
    ASSERT_TRUE(why.has_value());
    EXPECT_NE(why->find("non-finite parameter"), std::string::npos) << *why;
}

TEST(InputValidation, ValidateCatchesOutOfRangeOperands)
{
    Circuit c(3);
    c.cx(0, 2);
    c.setNumQubits(1);  // Shrink the register under the gate.
    const auto why = c.validationError();
    ASSERT_TRUE(why.has_value());
    EXPECT_NE(why->find("out of range"), std::string::npos) << *why;

    Circuit negative;
    negative.setNumQubits(-1);
    EXPECT_TRUE(negative.validationError().has_value());
}

TEST(InputValidation, ValidateTagsDiagnosticWithSource)
{
    Circuit c(1);
    c.rz(0, std::numeric_limits<double>::infinity());
    try {
        c.validate("cache-entry");
        FAIL() << "expected ValidationError";
    } catch (const ValidationError &e) {
        EXPECT_EQ(e.where().source, "cache-entry");
        EXPECT_NE(std::string(e.what()).find("cache-entry"),
                  std::string::npos);
    }
}

TEST(InputValidation, CompileRejectsInvalidCircuits)
{
    Circuit c(2);
    c.rx(0, std::numeric_limits<double>::quiet_NaN());
    EXPECT_THROW(compile(Technique::Baseline, c), ValidationError);
    EXPECT_THROW(compile(Technique::Geyser, c), ValidationError);
}

// ---------------------------------------------------------------------
// Round-trip properties: validate() holds after parse → emit → parse,
// and a second round trip is gate-for-gate stable.

TEST(InputValidation, QasmRoundTripPreservesValidity)
{
    const Circuit originals[] = {
        qftBenchmark(4),
        adderBenchmark(1, true),
        qaoaBenchmark(4, 4, 2, 9),
        verify::randomLogicalCircuit(5, 40, 12345),
    };
    for (const Circuit &original : originals) {
        const Circuit first = circuitFromQasm(circuitToQasm(original));
        EXPECT_NO_THROW(first.validate());
        EXPECT_EQ(first.numQubits(), original.numQubits());
        // After one trip the gate set is closed under export (CCZ has
        // been rewritten); the second trip must be exact.
        const Circuit second = circuitFromQasm(circuitToQasm(first));
        EXPECT_NO_THROW(second.validate());
        ASSERT_EQ(second.size(), first.size());
        for (size_t i = 0; i < first.size(); ++i)
            EXPECT_TRUE(second.gates()[i] == first.gates()[i]) << i;
    }
}

TEST(InputValidation, TextRoundTripPreservesValidity)
{
    for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
        const Circuit original = verify::randomLogicalCircuit(6, 60, seed);
        const Circuit back = circuitFromText(circuitToText(original));
        EXPECT_NO_THROW(back.validate());
        ASSERT_EQ(back.size(), original.size());
        EXPECT_EQ(back.numQubits(), original.numQubits());
        for (size_t i = 0; i < original.size(); ++i)
            EXPECT_TRUE(original.gates()[i] == back.gates()[i]) << i;
    }
}

}  // namespace
}  // namespace geyser
