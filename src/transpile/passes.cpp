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
    return g.kind() == GateKind::U3 && u3IsDiagonal(g.param(0));
}

}  // namespace

bool
mayBeIdentity(double theta)
{
    return !(std::abs(std::sin(theta / 2.0)) > 1e-8);
}

bool
u3IsDiagonal(double theta)
{
    const double c = std::cos(theta / 2.0);
    return std::abs(std::abs(c) - 1.0) < 1e-12;
}

bool
fuseU3Pass(Circuit &circuit, bool drop_identity, CircuitRecorder *rec)
{
    if (!circuit.isPhysical())
        throw ValidationError("fuseU3Pass: physical circuit required");

    const size_t before = circuit.size();
    Circuit out(circuit.numQubits());
    out.gates().reserve(before);
    // A recording run's value ids: of the input gates, and of `out`'s.
    TranspileRecord *const record = rec != nullptr ? rec->record : nullptr;
    auto idOf = [&](const Gate &g) {
        return rec->ids[static_cast<size_t>(&g - circuit.gates().data())];
    };
    std::vector<int> outIds;

    // The pending run per qubit: its first gate, its length (0 = no
    // run) and, once it has two gates or more, the 2x2 product (and its
    // value id on a recording run).
    struct Run
    {
        Matrix2 product;
        const Gate *first = nullptr;
        int length = 0;
        int productId = TranspileRecord::kConst;
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
            const bool identity =
                drop_identity && isIdentityUpToPhase(run.product);
            if (record != nullptr && drop_identity)
                record->identityTest(run.productId, identity);
            if (!identity) {
                const U3Params p = u3FromMatrix(run.product);
                out.u3(q, p.theta, p.phi, p.lambda);
                if (record != nullptr)
                    outIds.push_back(record->resynthesis(run.productId));
            }
        } else {
            const Gate &g = *run.first;
            const int id =
                record != nullptr ? idOf(g) : TranspileRecord::kConst;
            // |u01| = |e^{i lambda} sin(theta/2)| (u3Matrix's expression)
            // exceeds the identity tolerance 1e-9 whenever
            // |sin(theta/2)| > 1e-8, so only gates that fail that test
            // need the matrix. NaN and inf fail it and reach the
            // identity test and the finite-angle check below.
            bool identity = false;
            if (drop_identity && mayBeIdentity(g.param(0))) {
                ++matrices;
                identity = isIdentityUpToPhase(g.matrix2());
            }
            if (record != nullptr && drop_identity)
                record->loneIdentityTest(id, identity);
            if (!identity) {
                // ZYZ would reject a NaN unitary; reject its cause here.
                for (int i = 0; i < g.numParams(); ++i)
                    if (!std::isfinite(g.param(i)))
                        throw ValidationError(
                            "fuseU3Pass: non-finite U3 angle");
                verbatim.push_back(out.size());
                out.append(g);
                if (record != nullptr) {
                    record->finiteTest(id);
                    outIds.push_back(id);
                }
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
                const Matrix2 left = g.matrix2();
                const Matrix2 right =
                    run.length == 1 ? run.first->matrix2() : run.product;
                run.product = left * right;
                if (record != nullptr) {
                    const int rightId =
                        run.length == 1 ? record->matrix(idOf(*run.first))
                                        : run.productId;
                    run.productId = record->product(
                        record->matrix(idOf(g)), left, rightId, right);
                }
                matrices += run.length == 1 ? 2 : 1;
                ++fusedRuns;
            }
            ++run.length;
        } else {
            for (int i = 0; i < g.numQubits(); ++i)
                flush(g.qubit(i));
            out.append(g);
            if (record != nullptr)
                outIds.push_back(TranspileRecord::kConst);
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
            if (record != nullptr)
                outIds[index] =
                    record->resynthesis(record->matrix(outIds[index]));
        }
        matrices += static_cast<long>(verbatim.size());
        static obs::Counter &fused = obs::counter("transpile.u3_fused");
        static obs::Counter &dropped =
            obs::counter("transpile.gates_dropped");
        fused.add(fusedRuns);
        if (out.size() < before)
            dropped.add(static_cast<long>(before - out.size()));
        circuit = std::move(out);
        if (rec != nullptr)
            rec->ids = std::move(outIds);
    }
    static obs::Counter &built = obs::counter("transpile.u3_matrices");
    built.add(matrices);
    return changed;
}

bool
cancelCzPass(Circuit &circuit, CircuitRecorder *rec)
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
            const bool diagonal = gateIsDiagonal(h);
            if (rec != nullptr)
                rec->record->diagonalTest(rec->ids[j], diagonal);
            if (!diagonal)
                break;  // Non-commuting gate between the pair.
        }
    }

    if (changed) {
        Circuit out(circuit.numQubits());
        std::vector<int> outIds;
        size_t cancelled = 0;
        for (size_t i = 0; i < gates.size(); ++i) {
            if (removed[i]) {
                ++cancelled;
                continue;
            }
            out.append(gates[i]);
            if (rec != nullptr)
                outIds.push_back(rec->ids[i]);
        }
        static obs::Counter &counter =
            obs::counter("transpile.cz_cancelled");
        counter.add(static_cast<long>(cancelled / 2));
        circuit = std::move(out);
        if (rec != nullptr)
            rec->ids = std::move(outIds);
    }
    return changed;
}

void
optimize(Circuit &circuit, CircuitRecorder *rec)
{
    obs::Span span("transpile.optimize", "transpile");
    const size_t before = circuit.size();
    constexpr int kMaxRounds = 20;
    int rounds = 0;
    for (; rounds < kMaxRounds; ++rounds) {
        bool changed = fuseU3Pass(circuit, true, rec);
        changed = cancelCzPass(circuit, rec) || changed;
        if (!changed)
            break;
    }
    span.arg("rounds", rounds);
    span.arg("gatesBefore", static_cast<double>(before));
    span.arg("gatesAfter", static_cast<double>(circuit.size()));
}

}  // namespace geyser
