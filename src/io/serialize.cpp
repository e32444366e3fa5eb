#include "io/serialize.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"

namespace geyser {

namespace {

std::string
formatDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

Technique
techniqueFromName(const std::string &name)
{
    for (const Technique t :
         {Technique::Baseline, Technique::OptiMap, Technique::Geyser,
          Technique::Superconducting}) {
        if (name == techniqueName(t))
            return t;
    }
    throw ParseError(SourceContext{"cache-entry", 0, -1},
                     "unknown technique: " + name);
}

/** Byte offset of the last successfully consumed stream position. */
long long
offsetOf(std::istream &in)
{
    // tellg() refuses to answer on a failed/eof stream, but diagnostics
    // are raised exactly when extraction has just failed — clear the
    // state so the failure point's offset is still reported.
    in.clear();
    const auto pos = in.tellg();
    return pos < 0 ? -1 : static_cast<long long>(pos);
}

[[noreturn]] void
failText(std::istream &in, const std::string &message)
{
    throw ParseError(SourceContext{"circuit-text", 0, offsetOf(in)}, message);
}

}  // namespace

bool
layoutIsValid(const std::vector<Qubit> &layout, int num_logical,
              int num_atoms)
{
    if (layout.size() != static_cast<size_t>(num_logical))
        return false;
    std::vector<bool> used(static_cast<size_t>(num_atoms), false);
    for (const Qubit atom : layout) {
        if (atom < 0 || atom >= num_atoms ||
            used[static_cast<size_t>(atom)])
            return false;
        used[static_cast<size_t>(atom)] = true;
    }
    return true;
}

std::string
circuitToText(const Circuit &circuit)
{
    std::ostringstream out;
    out << "qubits " << circuit.numQubits() << "\n";
    for (const auto &g : circuit.gates()) {
        out << gateKindName(g.kind());
        for (int i = 0; i < g.numParams(); ++i)
            out << " " << formatDouble(g.param(i));
        for (int i = 0; i < g.numQubits(); ++i)
            out << " " << g.qubit(i);
        out << "\n";
    }
    return out.str();
}

Circuit
circuitFromText(const std::string &text)
{
    std::istringstream in(text);
    std::string tok;
    int n = 0;
    if (!(in >> tok) || tok != "qubits" || !(in >> n))
        throw ParseError(SourceContext{"circuit-text", 0, 0},
                         "missing qubits header");
    if (n < 0 || n > kMaxCircuitQubits)
        failText(in, "qubit count " + std::to_string(n) +
                         " out of range [0, " +
                         std::to_string(kMaxCircuitQubits) + "]");
    Circuit c(n);
    while (in >> tok) {
        GateKind kind;
        try {
            kind = gateKindFromName(tok);
        } catch (const std::exception &) {
            failText(in, "unknown gate mnemonic: " + tok);
        }
        const int np = gateKindParamCount(kind);
        const int nq = gateKindArity(kind);
        double params[3] = {0, 0, 0};
        Qubit qubits[3] = {0, 0, 0};
        for (int i = 0; i < np; ++i) {
            if (!(in >> params[i]))
                failText(in, "bad parameter value for " + tok);
            if (!std::isfinite(params[i]))
                failText(in, "non-finite parameter for " + tok);
        }
        for (int i = 0; i < nq; ++i) {
            if (!(in >> qubits[i]))
                failText(in, "bad qubit operand for " + tok);
            if (qubits[i] < 0 || qubits[i] >= n)
                failText(in, "operand qubit " + std::to_string(qubits[i]) +
                                 " out of range [0, " + std::to_string(n) +
                                 ") for " + tok);
            for (int j = 0; j < i; ++j)
                if (qubits[j] == qubits[i])
                    failText(in, "duplicate operand qubit " +
                                     std::to_string(qubits[i]) + " for " +
                                     tok);
        }
        switch (nq) {
          case 1:
            c.append(Gate(kind, qubits[0], params[0], params[1], params[2]));
            break;
          case 2:
            c.append(Gate(kind, qubits[0], qubits[1], params[0]));
            break;
          default:
            c.append(Gate(kind, qubits[0], qubits[1], qubits[2]));
            break;
        }
    }
    // Boundary contract: deserialized circuits are always valid.
    c.validate("circuit-text");
    return c;
}

std::string
circuitToQasm(const Circuit &circuit)
{
    std::ostringstream out;
    out << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
    out << "qreg q[" << circuit.numQubits() << "];\n";
    for (const auto &g : circuit.gates()) {
        std::string name = gateKindName(g.kind());
        // QASM 2 has no native ccz; emit via h-conjugated Toffoli.
        if (g.kind() == GateKind::CCZ) {
            out << "h q[" << g.qubit(2) << "];\n";
            out << "ccx q[" << g.qubit(0) << "],q[" << g.qubit(1) << "],q["
                << g.qubit(2) << "];\n";
            out << "h q[" << g.qubit(2) << "];\n";
            continue;
        }
        if (g.kind() == GateKind::P)
            name = "u1";
        if (g.kind() == GateKind::CP)
            name = "cu1";
        out << name;
        if (g.numParams() > 0) {
            out << "(";
            for (int i = 0; i < g.numParams(); ++i) {
                out << formatDouble(g.param(i));
                if (i + 1 < g.numParams())
                    out << ",";
            }
            out << ")";
        }
        out << " ";
        for (int i = 0; i < g.numQubits(); ++i) {
            out << "q[" << g.qubit(i) << "]";
            if (i + 1 < g.numQubits())
                out << ",";
        }
        out << ";\n";
    }
    return out.str();
}

std::string
compileResultToText(const CompileResult &result)
{
    std::ostringstream out;
    out << "geyser-cache-v1\n";
    out << "technique " << techniqueName(result.technique) << "\n";
    out << "swaps " << result.swapsInserted << "\n";
    out << "blocks " << result.blockCount << " " << result.composedBlockCount
        << "\n";
    out << "evals " << result.compositionEvaluations << "\n";
    out << "maxhsd " << formatDouble(result.maxBlockHsd) << "\n";
    out << "times " << formatDouble(result.transpileMs) << " "
        << formatDouble(result.blockingMs) << " "
        << formatDouble(result.composeMs) << " "
        << formatDouble(result.totalMs) << "\n";
    out << "layout";
    for (const Qubit q : result.finalLayout)
        out << " " << q;
    out << "\n";
    out << "ilayout";
    for (const Qubit q : result.initialLayout)
        out << " " << q;
    out << "\n";
    out << "endheader\n";
    out << circuitToText(result.physical);
    return out.str();
}

std::optional<CompileResult>
compileResultFromText(const std::string &text, const Circuit &logical)
{
    std::istringstream in(text);
    std::string line;
    if (!std::getline(in, line) || line != "geyser-cache-v1")
        return std::nullopt;

    CompileResult result;
    result.logical = logical;
    try {
        std::string key;
        while (in >> key && key != "endheader") {
            if (key == "technique") {
                std::string name;
                in >> name;
                result.technique = techniqueFromName(name);
            } else if (key == "swaps") {
                in >> result.swapsInserted;
            } else if (key == "blocks") {
                in >> result.blockCount >> result.composedBlockCount;
            } else if (key == "evals") {
                in >> result.compositionEvaluations;
            } else if (key == "maxhsd") {
                in >> result.maxBlockHsd;
            } else if (key == "times") {
                in >> result.transpileMs >> result.blockingMs >>
                    result.composeMs >> result.totalMs;
            } else if (key == "layout") {
                std::getline(in, line);
                std::istringstream ls(line);
                Qubit q;
                while (ls >> q)
                    result.finalLayout.push_back(q);
            } else if (key == "ilayout") {
                std::getline(in, line);
                std::istringstream ls(line);
                Qubit q;
                while (ls >> q)
                    result.initialLayout.push_back(q);
            } else {
                return std::nullopt;
            }
            if (!in)
                return std::nullopt;  // Malformed value for this key.
        }
        if (key != "endheader")
            return std::nullopt;  // Truncated before the circuit body.
        std::ostringstream rest;
        rest << in.rdbuf();
        result.physical = circuitFromText(rest.str());
    } catch (const std::exception &) {
        return std::nullopt;
    }

    // Semantic validation: the entry passed the frame checksum, but the
    // payload is still untrusted (version skew, hand edits, serializer
    // bugs). Anything inconsistent is a miss, never a crash, and so is
    // any count, HSD or stage time no compile produces.
    auto finiteNonNegative = [](double v) {
        return std::isfinite(v) && v >= 0.0;
    };
    if (result.swapsInserted < 0 || result.blockCount < 0 ||
        result.composedBlockCount < 0 ||
        result.composedBlockCount > result.blockCount ||
        result.compositionEvaluations < 0 ||
        !finiteNonNegative(result.maxBlockHsd) ||
        !finiteNonNegative(result.transpileMs) ||
        !finiteNonNegative(result.blockingMs) ||
        !finiteNonNegative(result.composeMs) ||
        !finiteNonNegative(result.totalMs))
        return std::nullopt;
    if (result.physical.numQubits() < logical.numQubits())
        return std::nullopt;
    if (!layoutIsValid(result.finalLayout, logical.numQubits(),
                       result.physical.numQubits()) ||
        !layoutIsValid(result.initialLayout, logical.numQubits(),
                       result.physical.numQubits()))
        return std::nullopt;

    // Derived fields can still reject the payload: a 0-qubit logical
    // circuit has no topology, and a body holding gates outside the
    // native set (e.g. a stray `cx`) throws from fillStats. Found by
    // fuzz_serialize (regressions/serialize/nonnative_gate_in_body);
    // both were escapes from the nullopt contract.
    try {
        result.topology =
            result.technique == Technique::Superconducting
                ? Topology::squareForQubits(logical.numQubits())
                : Topology::forQubits(logical.numQubits());
        if (result.physical.numQubits() > result.topology.numAtoms())
            return std::nullopt;  // Circuit does not fit the topology.
        fillStats(result);
    } catch (const std::exception &) {
        return std::nullopt;
    }
    return result;
}

}  // namespace geyser
