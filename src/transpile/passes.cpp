#include "transpile/passes.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "transpile/zyz.hpp"

namespace geyser {

namespace {

/** True if a physical gate is diagonal in the computational basis. */
bool
gateIsDiagonal(const Gate &g)
{
    if (g.kind() == GateKind::CZ || g.kind() == GateKind::CCZ)
        return true;
    if (g.kind() == GateKind::U3) {
        // U3 is diagonal iff theta = 0 mod 2*pi.
        const double c = std::cos(g.param(0) / 2.0);
        return std::abs(std::abs(c) - 1.0) < 1e-12;
    }
    return false;
}

}  // namespace

bool
fuseU3Pass(Circuit &circuit, bool drop_identity)
{
    if (!circuit.isPhysical())
        throw ValidationError("fuseU3Pass: physical circuit required");

    const size_t before = circuit.size();
    Circuit out(circuit.numQubits());
    out.gates().reserve(before);

    // The pending run per qubit: its first gate, its length (0 = no
    // run) and, once it has two gates or more, the 2x2 product.
    struct Run
    {
        Matrix2 product;
        const Gate *first = nullptr;
        int length = 0;
    };
    std::vector<Run> runs(static_cast<size_t>(circuit.numQubits()));
    // Runs of one gate are copied verbatim. If the round changes the
    // circuit they are resynthesized below, so every emitted U3 is the
    // one eager resynthesis would emit; if it does not, the input stays.
    std::vector<size_t> verbatim;
    verbatim.reserve(before);
    int fusedRuns = 0;
    // 2x2 matrices built this round: a lone gate's only when the
    // identity test may hold or the round changes the circuit.
    long matrices = 0;

    auto flush = [&](Qubit q) {
        Run &run = runs[static_cast<size_t>(q)];
        if (run.length == 0)
            return;
        if (run.length > 1) {
            if (!(drop_identity && isIdentityUpToPhase(run.product))) {
                const U3Params p = u3FromMatrix(run.product);
                out.u3(q, p.theta, p.phi, p.lambda);
            }
        } else {
            const Gate &g = *run.first;
            // |u01| = |e^{i lambda} sin(theta/2)| (u3Matrix's expression)
            // exceeds the identity tolerance 1e-9 whenever
            // |sin(theta/2)| > 1e-8, so only gates that fail that test
            // need the matrix. NaN and inf fail it and reach the
            // identity test and the finite-angle check below.
            bool identity = false;
            if (drop_identity &&
                !(std::abs(std::sin(g.param(0) / 2.0)) > 1e-8)) {
                ++matrices;
                identity = isIdentityUpToPhase(g.matrix2());
            }
            if (!identity) {
                // ZYZ would reject a NaN unitary; reject its cause here.
                for (int i = 0; i < g.numParams(); ++i)
                    if (!std::isfinite(g.param(i)))
                        throw ValidationError(
                            "fuseU3Pass: non-finite U3 angle");
                verbatim.push_back(out.size());
                out.append(g);
            }
        }
        run.length = 0;
    };

    for (const auto &g : circuit.gates()) {
        if (g.numQubits() == 1) {
            Run &run = runs[static_cast<size_t>(g.qubit(0))];
            if (run.length == 0) {
                run.first = &g;
            } else {
                // Later gate acts after: left-multiply.
                run.product = g.matrix2() * (run.length == 1
                                                 ? run.first->matrix2()
                                                 : run.product);
                matrices += run.length == 1 ? 2 : 1;
                ++fusedRuns;
            }
            ++run.length;
        } else {
            for (int i = 0; i < g.numQubits(); ++i)
                flush(g.qubit(i));
            out.append(g);
        }
    }
    for (Qubit q = 0; q < circuit.numQubits(); ++q)
        flush(q);

    const bool changed = fusedRuns > 0 || out.size() != before;
    if (changed) {
        for (const size_t index : verbatim) {
            Gate &g = out.gates()[index];
            const U3Params p = u3FromMatrix(g.matrix2());
            g = Gate(GateKind::U3, g.qubit(0), p.theta, p.phi, p.lambda);
        }
        matrices += static_cast<long>(verbatim.size());
        static obs::Counter &fused = obs::counter("transpile.u3_fused");
        static obs::Counter &dropped =
            obs::counter("transpile.gates_dropped");
        fused.add(fusedRuns);
        if (out.size() < before)
            dropped.add(static_cast<long>(before - out.size()));
        circuit = std::move(out);
    }
    static obs::Counter &built = obs::counter("transpile.u3_matrices");
    built.add(matrices);
    return changed;
}

bool
cancelCzPass(Circuit &circuit)
{
    auto &gates = circuit.gates();
    std::vector<bool> removed(gates.size(), false);
    bool changed = false;

    for (size_t i = 0; i < gates.size(); ++i) {
        if (removed[i] || gates[i].kind() != GateKind::CZ)
            continue;
        const Qubit a = gates[i].qubit(0);
        const Qubit b = gates[i].qubit(1);
        // Scan forward through the diagonal subcircuit: every diagonal
        // gate commutes with CZ(a, b), so a later equal CZ cancels it.
        for (size_t j = i + 1; j < gates.size(); ++j) {
            if (removed[j])
                continue;
            const Gate &h = gates[j];
            const bool touches = h.actsOn(a) || h.actsOn(b);
            if (h.kind() == GateKind::CZ && touches) {
                const bool samePair =
                    (h.qubit(0) == a && h.qubit(1) == b) ||
                    (h.qubit(0) == b && h.qubit(1) == a);
                if (samePair) {
                    removed[i] = removed[j] = true;
                    changed = true;
                    break;
                }
            }
            if (!touches)
                continue;
            if (!gateIsDiagonal(h))
                break;  // Non-commuting gate between the pair.
        }
    }

    if (changed) {
        Circuit out(circuit.numQubits());
        size_t cancelled = 0;
        for (size_t i = 0; i < gates.size(); ++i) {
            if (removed[i])
                ++cancelled;
            else
                out.append(gates[i]);
        }
        static obs::Counter &counter =
            obs::counter("transpile.cz_cancelled");
        counter.add(static_cast<long>(cancelled / 2));
        circuit = std::move(out);
    }
    return changed;
}

void
optimize(Circuit &circuit)
{
    obs::Span span("transpile.optimize", "transpile");
    const size_t before = circuit.size();
    constexpr int kMaxRounds = 20;
    int rounds = 0;
    for (; rounds < kMaxRounds; ++rounds) {
        bool changed = fuseU3Pass(circuit, true);
        changed = cancelCzPass(circuit) || changed;
        if (!changed)
            break;
    }
    span.arg("rounds", rounds);
    span.arg("gatesBefore", static_cast<double>(before));
    span.arg("gatesAfter", static_cast<double>(circuit.size()));
}

}  // namespace geyser
