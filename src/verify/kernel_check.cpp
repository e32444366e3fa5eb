#include "verify/kernel_check.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <vector>

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
        const int numQubits = 2 + rng.uniformInt(3);
        const int layers = 1 + rng.uniformInt(5);
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
        std::vector<double> angles =
            rng.uniformVector(ansatz.numAngles(), 0.0, 2.0 * kPi);
        evaluator.setAngles(angles);

        auto check = [&](Complex incremental, const char *where) {
            const Complex dense =
                overlapTrace(target, ansatz.unitary(angles));
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
        auto angleAt = [&](int col, int q, int role) -> double & {
            return angles[static_cast<size_t>(
                ansatz.angleIndex(col, q, role))];
        };
        auto u3At = [&](int col, int q) {
            U3Params u3;
            u3.theta = angleAt(col, q, 0);
            u3.phi = angleAt(col, q, 1);
            u3.lambda = angleAt(col, q, 2);
            return u3;
        };
        auto setU3 = [&](int col, int q, const U3Params &u3) {
            angleAt(col, q, 0) = u3.theta;
            angleAt(col, q, 1) = u3.phi;
            angleAt(col, q, 2) = u3.lambda;
        };
        // One (column, qubit) step: the fold, checked by contracting W
        // with a random U3, then an environment update (or, half the
        // time, a commit of the random U3, so the state keeps moving)
        // and its confirmed trace. `angles` mirrors every commit, so the
        // dense oracle always sees the evaluator's exact state.
        auto step = [&](int col, int q) {
            evaluator.beginQubit(q);
            const U3Params kept = u3At(col, q);
            U3Params probe;
            probe.theta = rng.uniform(0.0, 2.0 * kPi);
            probe.phi = rng.uniform(0.0, 2.0 * kPi);
            probe.lambda = rng.uniform(0.0, 2.0 * kPi);
            setU3(col, q, probe);
            check(evaluator.traceWith(probe), "fold");
            setU3(col, q, kept);
            if (rng.bernoulli(0.5)) {
                updateQubit(evaluator,
                            hsdFromTrace(evaluator.traceWith(kept),
                                         evaluator.dim()));
            } else {
                evaluator.commitU3(probe);
            }
            angles = evaluator.angles();
            check(evaluator.traceWith(u3At(col, q)), "confirmed trace");
        };

        check(evaluator.trace(), "full trace");

        // Several interleaved sweeps — the stale-environment hazard the
        // incremental path must survive.
        const int sweeps = 2 + rng.uniformInt(3);
        for (int sweep = 0; sweep < sweeps; ++sweep) {
            evaluator.beginSweep();
            for (int col = 0; col < evaluator.columns(); ++col) {
                evaluator.beginColumn(col);
                for (int q = 0; q < numQubits; ++q)
                    step(col, q);
            }
            check(evaluator.trace(), "post-sweep trace");
        }
        // The single-qubit update path after many interleaved sweeps:
        // one more sweep that only touches one qubit.
        evaluator.beginSweep();
        const int lastCol = rng.uniformInt(evaluator.columns());
        for (int col = 0; col <= lastCol; ++col)
            evaluator.beginColumn(col);
        step(lastCol, rng.uniformInt(numQubits));
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
