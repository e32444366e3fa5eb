#include "verify/kernel_check.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <vector>

#include "circuit/gate.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "compose/ansatz.hpp"
#include "compose/composer.hpp"
#include "compose/evaluator.hpp"
#include "verify/equivalence.hpp"

namespace geyser {
namespace verify {

namespace {

/** Random entangler pattern valid for the qubit count. */
std::vector<Entangler>
randomEntanglers(Rng &rng, int num_qubits, int layers)
{
    std::vector<Entangler> out;
    for (int l = 0; l < layers; ++l) {
        if (num_qubits == 3) {
            constexpr Entangler kChoices[] = {Entangler::Ccz, Entangler::Cz01,
                                              Entangler::Cz02,
                                              Entangler::Cz12};
            out.push_back(kChoices[rng.uniformInt(4)]);
        } else {
            out.push_back(num_qubits == 4 ? Entangler::Cccz
                                          : Entangler::Cz01);
        }
    }
    return out;
}

}  // namespace

KernelCheckReport
checkComposeKernel(const KernelCheckOptions &options)
{
    Rng rng(options.seed);
    KernelCheckReport report;

    for (int trial = 0; trial < options.trials; ++trial) {
        // The last trial takes the deepest shape the evaluator holds: the
        // environment's longest chain of rank-local updates.
        const bool deepest = trial == options.trials - 1;
        const int numQubits =
            deepest ? AnsatzEvaluator::kMaxQubits : 2 + rng.uniformInt(3);
        const int layers = deepest ? AnsatzEvaluator::kMaxColumns - 1
                                   : 1 + rng.uniformInt(5);
        const Ansatz ansatz(numQubits, layers,
                            randomEntanglers(rng, numQubits, layers));

        // Random unitary target: another ansatz instance at random
        // angles (guaranteed unitary and in-distribution for the
        // composer's search).
        const int targetLayers = 1 + rng.uniformInt(4);
        const Ansatz targetGen(numQubits, targetLayers,
                               randomEntanglers(rng, numQubits,
                                                targetLayers));
        const Matrix target = targetGen.unitary(
            rng.uniformVector(targetGen.numAngles(), 0.0, 2.0 * kPi));

        AnsatzEvaluator evaluator(ansatz, target);
        evaluator.setAngles(
            rng.uniformVector(ansatz.numAngles(), 0.0, 2.0 * kPi));

        // The evaluator's U3s as 2x2s, [col * numQubits + q]. The dense
        // oracle multiplies these, so it follows committed 2x2s as well
        // as converted angles.
        std::vector<Matrix2> u3s;
        auto loadAngles = [&] {
            const std::vector<double> &a = evaluator.angles();
            u3s.clear();
            for (size_t o = 0; o < a.size(); o += 3)
                u3s.push_back(u3Matrix(a[o], a[o + 1], a[o + 2]));
        };
        auto u3At = [&](int col, int q) -> Matrix2 & {
            return u3s[static_cast<size_t>(col * numQubits + q)];
        };
        auto check = [&](Complex incremental, const char *where) {
            const Complex dense = overlapTrace(target, ansatz.unitary(u3s));
            const double dev = std::abs(incremental - dense);
            report.maxDeviation = std::max(report.maxDeviation, dev);
            ++report.tracesChecked;
            if (dev > options.tolerance && report.detail.empty()) {
                char buf[160];
                std::snprintf(buf, sizeof(buf),
                              "%s deviated by %.3e (tol %.1e) at trial %d "
                              "(n=%d layers=%d seed=%llu)",
                              where, dev, options.tolerance, trial,
                              numQubits, layers,
                              static_cast<unsigned long long>(options.seed));
                report.detail = buf;
            }
        };
        auto randomU3 = [&] {
            return u3Matrix(rng.uniform(0.0, 2.0 * kPi),
                            rng.uniform(0.0, 2.0 * kPi),
                            rng.uniform(0.0, 2.0 * kPi));
        };
        // One (column, qubit) step: the fold, checked by contracting W
        // with a random U3, then a 2x2 commit — the environment update,
        // or half the time a random U3 times a random global phase, so
        // the state keeps moving — and its confirmed trace.
        auto step = [&](int col, int q) {
            evaluator.beginQubit(q);
            const Matrix2 kept = u3At(col, q);
            const Matrix2 probe = randomU3();
            u3At(col, q) = probe;
            check(evaluator.traceWith(probe), "fold");
            u3At(col, q) = kept;
            const Complex phase =
                std::polar(1.0, rng.uniform(0.0, 2.0 * kPi));
            Matrix2 next = Matrix2(phase, 0.0, 0.0, phase) * probe;
            if (rng.bernoulli(0.5))
                next = environmentUpdate(evaluator.environment())
                           .value_or(kept);
            evaluator.commit(next);
            u3At(col, q) = next;
            check(evaluator.traceWith(next), "confirmed trace");
        };

        loadAngles();
        check(evaluator.trace(), "full trace");

        // Several sweeps in 2x2 state. Every other one ends with a full
        // trace, which converts the 2x2s to angles (the oracle then
        // reloads them); the others carry 2x2s into the next sweep, as
        // rotosolve does — the stale-environment hazard the incremental
        // path must survive.
        const int sweeps = 2 + rng.uniformInt(3);
        for (int sweep = 0; sweep < sweeps; ++sweep) {
            evaluator.beginSweep();
            for (int col = 0; col < evaluator.columns(); ++col) {
                evaluator.beginColumn(col);
                for (int q = 0; q < numQubits; ++q)
                    step(col, q);
            }
            if (sweep % 2 == 1) {
                loadAngles();
                check(evaluator.trace(), "post-sweep trace");
            }
        }
        // The single-qubit update path after many interleaved sweeps:
        // one more sweep that only touches one qubit.
        evaluator.beginSweep();
        const int lastCol = rng.uniformInt(evaluator.columns());
        for (int col = 0; col <= lastCol; ++col)
            evaluator.beginColumn(col);
        step(lastCol, rng.uniformInt(numQubits));
        loadAngles();
        check(evaluator.trace(), "post-update trace");
    }

    report.pass = report.detail.empty();
    if (report.pass) {
        char buf[120];
        std::snprintf(buf, sizeof(buf),
                      "%ld traces matched dense oracle, max deviation %.3e",
                      report.tracesChecked, report.maxDeviation);
        report.detail = buf;
    }
    return report;
}

}  // namespace verify
}  // namespace geyser
