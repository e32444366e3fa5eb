#include "transpile/basis.hpp"

#include <stdexcept>

#include "common/error.hpp"
#include "transpile/zyz.hpp"

namespace geyser {

namespace {

using Lambda = TranspileRecord::Lambda;
constexpr int kConst = TranspileRecord::kConst;

/**
 * Appends lowered gates to `out` and, on a recording run, each one's
 * value id to `rec`. `source` is the logical gate being lowered.
 */
struct Emitter
{
    Circuit &out;
    CircuitRecorder *rec;
    int source;

    void append(const Gate &gate, int id)
    {
        out.append(gate);
        if (rec != nullptr)
            rec->ids.push_back(id);
    }

    void u3(Qubit q, double theta, double phi, double lambda,
            int id = kConst)
    {
        append(Gate(GateKind::U3, q, theta, phi, lambda), id);
    }

    void cz(Qubit a, Qubit b) { append(Gate(GateKind::CZ, a, b), kConst); }

    /** The id of a U3(0, 0, lambda) of the source gate's angle. */
    int lambdaId(Lambda formula) const
    {
        return rec != nullptr ? rec->record->lambda(source, formula)
                              : kConst;
    }
};

/** Emit H as U3(pi/2, 0, pi). */
void
emitH(Emitter &out, Qubit q)
{
    out.u3(q, kPi / 2.0, 0.0, kPi);
}

/** Emit CX(control, target) as (H t)(CZ)(H t). */
void
emitCx(Emitter &out, Qubit control, Qubit target)
{
    emitH(out, target);
    out.cz(control, target);
    emitH(out, target);
}

/** Emit P(lambda) as U3(0, 0, lambda). */
void
emitP(Emitter &out, Qubit q, double lambda, int id = kConst)
{
    out.u3(q, 0.0, 0.0, lambda, id);
}

/**
 * Emit the textbook Toffoli-core phase network: CCZ(a, b, c) built from
 * 6 CX and 7 T/Tdg phase gates (paper Fig 11 modulo 1q fusion).
 */
void
emitCcz(Emitter &out, Qubit a, Qubit b, Qubit c)
{
    const double t = kPi / 4.0;
    emitCx(out, b, c);
    emitP(out, c, -t);
    emitCx(out, a, c);
    emitP(out, c, t);
    emitCx(out, b, c);
    emitP(out, c, -t);
    emitCx(out, a, c);
    emitP(out, c, t);
    emitP(out, b, t);
    emitCx(out, a, b);
    emitP(out, a, t);
    emitP(out, b, -t);
    emitCx(out, a, b);
}

void
lower(const Gate &gate, Emitter &out)
{
    switch (gate.kind()) {
      case GateKind::U3:
        out.append(gate, out.rec != nullptr
                             ? out.rec->record->input(out.source)
                             : kConst);
        return;
      case GateKind::CZ:
        out.append(gate, kConst);
        return;
      case GateKind::CCZ:
        emitCcz(out, gate.qubit(0), gate.qubit(1), gate.qubit(2));
        return;
      case GateKind::CX:
        emitCx(out, gate.qubit(0), gate.qubit(1));
        return;
      case GateKind::CP: {
        // CP(l) = P(l/2) a; P(l/2) b; CX a,b; P(-l/2) b; CX a,b.
        const double half = gate.param(0) / 2.0;
        const Qubit a = gate.qubit(0), b = gate.qubit(1);
        emitP(out, a, half, out.lambdaId(Lambda::Half));
        emitP(out, b, half, out.lambdaId(Lambda::Half));
        emitCx(out, a, b);
        emitP(out, b, -half, out.lambdaId(Lambda::NegHalf));
        emitCx(out, a, b);
        return;
      }
      case GateKind::RZZ: {
        const Qubit a = gate.qubit(0), b = gate.qubit(1);
        emitCx(out, a, b);
        // RZ up to phase.
        out.u3(b, 0.0, 0.0, gate.param(0), out.lambdaId(Lambda::Angle));
        emitCx(out, a, b);
        // Restore the RZZ phase convention: the U3(0,0,theta) form of RZ
        // differs from RZ(theta) only by a global phase, which TVD/HSD
        // metrics ignore.
        return;
      }
      case GateKind::RXX: {
        const Qubit a = gate.qubit(0), b = gate.qubit(1);
        emitH(out, a);
        emitH(out, b);
        lower(Gate(GateKind::RZZ, a, b, gate.param(0)), out);
        emitH(out, a);
        emitH(out, b);
        return;
      }
      case GateKind::RYY: {
        const Qubit a = gate.qubit(0), b = gate.qubit(1);
        // Conjugate RZZ by RX(pi/2).
        out.u3(a, kPi / 2.0, -kPi / 2.0, kPi / 2.0);
        out.u3(b, kPi / 2.0, -kPi / 2.0, kPi / 2.0);
        lower(Gate(GateKind::RZZ, a, b, gate.param(0)), out);
        out.u3(a, kPi / 2.0, kPi / 2.0, -kPi / 2.0);
        out.u3(b, kPi / 2.0, kPi / 2.0, -kPi / 2.0);
        return;
      }
      case GateKind::SWAP: {
        const Qubit a = gate.qubit(0), b = gate.qubit(1);
        emitCx(out, a, b);
        emitCx(out, b, a);
        emitCx(out, a, b);
        return;
      }
      case GateKind::CCX: {
        const Qubit a = gate.qubit(0), b = gate.qubit(1), c = gate.qubit(2);
        emitH(out, c);
        emitCcz(out, a, b, c);
        emitH(out, c);
        return;
      }
      default:
        // Remaining kinds are one-qubit logical gates; those without an
        // angle lower to a constant U3.
        out.append(u3FromGate(gate),
                   out.rec != nullptr && gate.numParams() > 0
                       ? out.rec->record->lowered(out.source)
                       : kConst);
        return;
    }
}

}  // namespace

Gate
u3FromGate(const Gate &gate)
{
    if (gate.numQubits() != 1)
        throw ValidationError("u3FromGate: not a one-qubit gate");
    const U3Params p = u3FromMatrix(gate.matrix2());
    return Gate(GateKind::U3, gate.qubit(0), p.theta, p.phi, p.lambda);
}

void
lowerGate(const Gate &gate, Circuit &out, CircuitRecorder *rec, int source)
{
    Emitter emitter{out, rec, source};
    lower(gate, emitter);
}

Circuit
decomposeToBasis(const Circuit &circuit, CircuitRecorder *rec)
{
    Circuit out(circuit.numQubits());
    for (size_t i = 0; i < circuit.size(); ++i)
        lowerGate(circuit.gates()[i], out, rec, static_cast<int>(i));
    return out;
}

}  // namespace geyser
