/**
 * @file
 * Property/fuzz suite for the incremental environment-contraction
 * kernel (compose/evaluator): the incremental trace must match the
 * dense reference oracle (verify::overlapTrace of Ansatz::unitary) to
 * 1e-12 across random qubit counts, layer counts, entangler patterns,
 * and angle perturbations — every fold and every confirmed trace of the
 * environment update included, also after many interleaved sweeps
 * (stale-environment hazard) — plus each fold against the reference
 * triple loop, the sweep-protocol state machine, the optimality of the
 * update, and rotosolve on top. A committed 2x2 differs from the U3 of
 * its converted angles by a global phase, so complex traces are
 * compared with the dense oracle after evaluator.angles() converts it.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "circuit/gate.hpp"
#include "common/rng.hpp"
#include "compose/composer.hpp"
#include "compose/evaluator.hpp"
#include "obs/obs.hpp"
#include "transpile/zyz.hpp"
#include "verify/equivalence.hpp"
#include "verify/kernel_check.hpp"

namespace geyser {
namespace {

using verify::hsdFromTrace;

std::vector<Entangler>
patternFor(int num_qubits, int layers, uint64_t seed)
{
    Rng rng(seed);
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

/** The dense oracle: Tr(target^dagger U(angles)) from the Matrix product. */
Complex
denseTrace(const Ansatz &ansatz, const Matrix &target,
           const std::vector<double> &angles)
{
    return verify::overlapTrace(target, ansatz.unitary(angles));
}

TEST(ComposeKernel, FullTraceMatchesDenseAcrossShapes)
{
    Rng rng(11);
    for (int numQubits = 2; numQubits <= 4; ++numQubits) {
        for (int layers = 1; layers <= 5; ++layers) {
            const Ansatz ansatz(
                numQubits, layers,
                patternFor(numQubits, layers,
                           static_cast<uint64_t>(numQubits * 10 + layers)));
            const Matrix target = ansatz.unitary(
                rng.uniformVector(ansatz.numAngles(), 0.0, 2.0 * kPi));
            AnsatzEvaluator evaluator(ansatz, target);
            for (int rep = 0; rep < 5; ++rep) {
                const auto angles =
                    rng.uniformVector(ansatz.numAngles(), 0.0, 2.0 * kPi);
                evaluator.setAngles(angles);
                const Complex dense = denseTrace(ansatz, target, angles);
                EXPECT_LT(std::abs(evaluator.trace() - dense), 1e-12)
                    << "n=" << numQubits << " layers=" << layers;
            }
        }
    }
}

U3Params
randomU3(Rng &rng)
{
    U3Params u3;
    u3.theta = rng.uniform(0.0, 2.0 * kPi);
    u3.phi = rng.uniform(0.0, 2.0 * kPi);
    u3.lambda = rng.uniform(0.0, 2.0 * kPi);
    return u3;
}

/** `angles` with (col, q)'s U3 set to `u3`. */
std::vector<double>
withU3(const Ansatz &ansatz, std::vector<double> angles, int col, int q,
       const U3Params &u3)
{
    angles[static_cast<size_t>(ansatz.angleIndex(col, q, 0))] = u3.theta;
    angles[static_cast<size_t>(ansatz.angleIndex(col, q, 1))] = u3.phi;
    angles[static_cast<size_t>(ansatz.angleIndex(col, q, 2))] = u3.lambda;
    return angles;
}

U3Params
u3At(const Ansatz &ansatz, const std::vector<double> &angles, int col, int q)
{
    U3Params u3;
    u3.theta = angles[static_cast<size_t>(ansatz.angleIndex(col, q, 0))];
    u3.phi = angles[static_cast<size_t>(ansatz.angleIndex(col, q, 1))];
    u3.lambda = angles[static_cast<size_t>(ansatz.angleIndex(col, q, 2))];
    return u3;
}

Matrix2
matrixOf(const U3Params &u3)
{
    return u3Matrix(u3.theta, u3.phi, u3.lambda);
}

/** sqrt(|W|_F^2 + 2 |det W|): sigma_1 + sigma_2, the update's optimum. */
double
nuclearNorm(const Matrix2 &w)
{
    const Complex det = w(0, 0) * w(1, 1) - w(0, 1) * w(1, 0);
    return std::sqrt(std::norm(w(0, 0)) + std::norm(w(0, 1)) +
                     std::norm(w(1, 0)) + std::norm(w(1, 1)) +
                     2.0 * std::abs(det));
}

/** |sum u[a,b] w[a,b]|. */
double
contraction(const Matrix2 &u, const Matrix2 &w)
{
    Complex t = 0.0;
    for (int a = 0; a < 2; ++a)
        for (int b = 0; b < 2; ++b)
            t += u(a, b) * w(a, b);
    return std::abs(t);
}

/**
 * The selected qubit's fold against the dense oracle (contracted with a
 * random U3), then an update (or a commit of that U3) and its confirmed
 * trace. `angles` mirrors the evaluator: reading them converts the
 * selected qubit's commit, which leaves the sweep open.
 */
void
checkedStep(AnsatzEvaluator &evaluator, const Ansatz &ansatz,
            const Matrix &target, std::vector<double> &angles, Rng &rng,
            int col, int q, bool update)
{
    const U3Params probe = randomU3(rng);
    EXPECT_LT(std::abs(evaluator.traceWith(matrixOf(probe)) -
                       denseTrace(ansatz, target,
                                  withU3(ansatz, angles, col, q, probe))),
              1e-12)
        << "fold col=" << col << " q=" << q;
    if (update) {
        updateQubit(evaluator,
                    hsdFromTrace(evaluator.traceWith(matrixOf(
                                     u3At(ansatz, angles, col, q))),
                                 evaluator.dim()));
    } else {
        evaluator.commit(matrixOf(probe));
    }
    angles = evaluator.angles();
    EXPECT_LT(std::abs(evaluator.traceWith(
                           matrixOf(u3At(ansatz, angles, col, q))) -
                       denseTrace(ansatz, target, angles)),
              1e-12)
        << "confirmed trace col=" << col << " q=" << q;
}

TEST(ComposeKernel, ProbesMatchDenseThroughSweepProtocol)
{
    // Drive the full sweep state machine with updates and random
    // commits; every fold and every confirmed trace must equal a fresh
    // dense evaluation of the same angles.
    Rng rng(23);
    const int numQubits = 3, layers = 4;
    const Ansatz ansatz(numQubits, layers, patternFor(numQubits, layers, 7));
    const Matrix target = ansatz.unitary(
        rng.uniformVector(ansatz.numAngles(), 0.0, 2.0 * kPi));
    AnsatzEvaluator evaluator(ansatz, target);
    std::vector<double> angles =
        rng.uniformVector(ansatz.numAngles(), 0.0, 2.0 * kPi);
    evaluator.setAngles(angles);

    for (int sweep = 0; sweep < 4; ++sweep) {
        evaluator.beginSweep();
        for (int col = 0; col < evaluator.columns(); ++col) {
            evaluator.beginColumn(col);
            for (int q = 0; q < numQubits; ++q) {
                evaluator.beginQubit(q);
                checkedStep(evaluator, ansatz, target, angles, rng, col, q,
                            rng.bernoulli(0.6));
            }
        }
    }
    EXPECT_LT(std::abs(evaluator.trace() -
                       denseTrace(ansatz, target, angles)),
              1e-12);
}

TEST(ComposeKernel, SingleCoordinateUpdateAfterInterleavedSweeps)
{
    // The stale-environment trap: many sweeps with commits, then a
    // fresh sweep updating one qubit deep in the circuit.
    Rng rng(31);
    const int numQubits = 3, layers = 5;
    const Ansatz ansatz(numQubits, layers, patternFor(numQubits, layers, 9));
    const Matrix target = ansatz.unitary(
        rng.uniformVector(ansatz.numAngles(), 0.0, 2.0 * kPi));
    AnsatzEvaluator evaluator(ansatz, target);
    std::vector<double> angles =
        rng.uniformVector(ansatz.numAngles(), 0.0, 2.0 * kPi);
    evaluator.setAngles(angles);

    // Churn: three sweeps committing random U3s everywhere.
    for (int sweep = 0; sweep < 3; ++sweep) {
        evaluator.beginSweep();
        for (int col = 0; col < evaluator.columns(); ++col) {
            evaluator.beginColumn(col);
            for (int q = 0; q < numQubits; ++q) {
                evaluator.beginQubit(q);
                evaluator.commit(matrixOf(randomU3(rng)));
            }
        }
    }
    angles = evaluator.angles();
    // Single-qubit sweeps at every column depth.
    for (int targetCol = 0; targetCol < evaluator.columns(); ++targetCol) {
        evaluator.beginSweep();
        for (int col = 0; col <= targetCol; ++col)
            evaluator.beginColumn(col);
        const int q = rng.uniformInt(numQubits);
        evaluator.beginQubit(q);
        checkedStep(evaluator, ansatz, target, angles, rng, targetCol, q,
                    true);
    }
}

TEST(ComposeKernel, EnvironmentUpdateIsOptimal)
{
    Rng rng(41);
    for (int numQubits = 2; numQubits <= 4; ++numQubits) {
        for (int layers = 1; layers <= 3; ++layers) {
            const Ansatz ansatz(
                numQubits, layers,
                patternFor(numQubits, layers,
                           static_cast<uint64_t>(numQubits * 10 + layers)));
            const Ansatz deeper(numQubits, 4,
                                patternFor(numQubits, 4, 99));
            const Matrix target = deeper.unitary(
                rng.uniformVector(deeper.numAngles(), 0.0, 2.0 * kPi));
            AnsatzEvaluator evaluator(ansatz, target);
            evaluator.setAngles(
                rng.uniformVector(ansatz.numAngles(), 0.0, 2.0 * kPi));
            const int dim = evaluator.dim();
            for (int sweep = 0; sweep < 3; ++sweep) {
                const double before = hilbertSchmidtDistance(
                    ansatz.unitary(evaluator.angles()), target);
                evaluator.beginSweep();
                for (int col = 0; col < evaluator.columns(); ++col) {
                    evaluator.beginColumn(col);
                    for (int q = 0; q < numQubits; ++q) {
                        evaluator.beginQubit(q);
                        const Matrix2 w = evaluator.environment();
                        const double optimum = nuclearNorm(w);
                        const U3Params current =
                            u3At(ansatz, evaluator.angles(), col, q);
                        updateQubit(evaluator,
                                    hsdFromTrace(evaluator.traceWith(
                                                     matrixOf(current)),
                                                 dim));
                        const double confirmed =
                            std::abs(evaluator.traceWith(matrixOf(
                                u3At(ansatz, evaluator.angles(), col, q))));
                        EXPECT_NEAR(confirmed, optimum, 1e-12 * optimum)
                            << "n=" << numQubits << " layers=" << layers
                            << " col=" << col << " q=" << q;
                        for (int k = 0; k < 64; ++k)
                            EXPECT_LE(std::abs(evaluator.traceWith(
                                          matrixOf(randomU3(rng)))),
                                      confirmed * (1.0 + 1e-12));
                    }
                }
                const double after = hilbertSchmidtDistance(
                    ansatz.unitary(evaluator.angles()), target);
                EXPECT_LE(after, before + 1e-12)
                    << "n=" << numQubits << " layers=" << layers
                    << " sweep=" << sweep;
            }
        }
    }

    // A rank-1 W: any unit phase is optimal, and the update takes 1.
    auto isUnitary = [](const Matrix2 &u) {
        return (u * u.dagger()).maxAbsDiff(Matrix2::identity()) <= 1e-14;
    };
    for (int trial = 0; trial < 32; ++trial) {
        auto c = [&] {
            return Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
        };
        const Complex a0 = c(), a1 = c(), b0 = c(), b1 = c();
        // An outer product (det W rounds to about 1e-17) and a W with a
        // zero row (det W exactly 0).
        for (const Matrix2 &w :
             {Matrix2(a0 * b0, a0 * b1, a1 * b0, a1 * b1),
              Matrix2(a0, b0, 0.0, 0.0)}) {
            const std::optional<Matrix2> u = environmentUpdate(w);
            ASSERT_TRUE(u.has_value());
            EXPECT_TRUE(isUnitary(*u)) << "trial=" << trial;
            EXPECT_NEAR(contraction(*u, w), nuclearNorm(w),
                        1e-12 * nuclearNorm(w));
        }
    }

    // W = 0: nothing to solve; the qubit keeps its angles bit for bit.
    EXPECT_FALSE(environmentUpdate(Matrix2()).has_value());
    const Ansatz ansatz(3, 2);
    AnsatzEvaluator evaluator(ansatz, Matrix(8, 8));
    evaluator.setAngles(rng.uniformVector(ansatz.numAngles(), 0.0, 2.0 * kPi));
    const std::vector<double> start = evaluator.angles();
    evaluator.beginSweep();
    evaluator.beginColumn(0);
    evaluator.beginQubit(1);
    EXPECT_EQ(evaluator.environment().maxAbsDiff(Matrix2()), 0.0);
    EXPECT_EQ(updateQubit(evaluator, 0.5), 0.5);
    EXPECT_EQ(std::memcmp(start.data(), evaluator.angles().data(),
                          start.size() * sizeof(double)),
              0);
}

TEST(ComposeKernel, VerifyLayerCrossCheckPasses)
{
    verify::KernelCheckOptions options;
    options.trials = 25;
    options.seed = 5;
    const auto report = verify::checkComposeKernel(options);
    EXPECT_TRUE(report.pass) << report.detail;
    EXPECT_GT(report.tracesChecked, 1000);
    EXPECT_LT(report.maxDeviation, 1e-12);
}

TEST(ComposeKernel, RotosolveReportsTrueDistance)
{
    // The honesty guarantee: however a call ends (its sweep budget,
    // convergence, or a stop_at reached mid-sweep), the reported HSD is
    // one trace at the returned angles, after the sweeps' 2x2s are
    // converted: bit for bit what trace() reads there, and the dense HSD
    // of those angles to 1e-12.
    Rng rng(47);
    for (int numQubits = 2; numQubits <= 4; ++numQubits) {
        for (int layers = 1; layers <= 3; ++layers) {
            const Ansatz ansatz(
                numQubits, layers,
                patternFor(numQubits, layers,
                           static_cast<uint64_t>(numQubits * 10 + layers)));
            const Matrix target = ansatz.unitary(
                rng.uniformVector(ansatz.numAngles(), 0.0, 2.0 * kPi));
            const auto start =
                rng.uniformVector(ansatz.numAngles(), 0.0, 2.0 * kPi);
            AnsatzEvaluator evaluator(ansatz, target);
            const int dim = evaluator.dim();

            // The HSD after the first sweep's first two updates: a
            // stop_at that ends the call there, mid-sweep.
            evaluator.setAngles(start);
            double midSweep = hsdFromTrace(evaluator.trace(), dim);
            evaluator.beginSweep();
            evaluator.beginColumn(0);
            for (int q = 0; q < 2; ++q) {
                evaluator.beginQubit(q);
                midSweep = updateQubit(evaluator, midSweep);
            }

            for (const double stopAt : {0.0, midSweep}) {
                evaluator.setAngles(start);
                long evaluations = 0;
                const double reported =
                    rotosolve(evaluator, 40, stopAt, evaluations);
                const double truth = hilbertSchmidtDistance(
                    ansatz.unitary(evaluator.angles()), target);
                EXPECT_NEAR(reported, truth, 1e-12)
                    << "n=" << numQubits << " layers=" << layers
                    << " stop_at=" << stopAt;
                EXPECT_EQ(reported, hsdFromTrace(evaluator.trace(), dim))
                    << "n=" << numQubits << " layers=" << layers
                    << " stop_at=" << stopAt;
                if (stopAt > 0.0)
                    EXPECT_LE(evaluations, 3) << "n=" << numQubits;
                else
                    EXPECT_GT(evaluations, (layers + 1) * numQubits);
            }
        }
    }
}

TEST(ComposeKernel, DenseWrapperMatchesEvaluatorPath)
{
    // The legacy rotosolve signature is a thin wrapper; both entry
    // points must agree exactly (same updates, same commits).
    const Ansatz ansatz(3, 2);
    Rng rng(53);
    const Matrix target = ansatz.unitary(
        rng.uniformVector(ansatz.numAngles(), 0.0, 2.0 * kPi));
    const auto start =
        rng.uniformVector(ansatz.numAngles(), 0.0, 2.0 * kPi);

    std::vector<double> wrapperAngles = start;
    long wrapperEvals = 0;
    const double wrapperHsd = rotosolve(ansatz, target, wrapperAngles, 25,
                                        1e-9, wrapperEvals);

    AnsatzEvaluator evaluator(ansatz, target);
    evaluator.setAngles(start);
    long evals = 0;
    const double hsd = rotosolve(evaluator, 25, 1e-9, evals);

    EXPECT_EQ(wrapperEvals, evals);
    EXPECT_DOUBLE_EQ(wrapperHsd, hsd);
    EXPECT_EQ(wrapperAngles, evaluator.angles());
}

TEST(ComposeKernel, SweepProtocolEnforcesColumnOrder)
{
    const Ansatz ansatz(2, 1);
    const Matrix target = ansatz.unitary({0.3, 1.1, -0.4, 2.0, 0.7, 0.1,
                                          -1.3, 0.5, 0.9, 0.2, 1.7, -2.4});
    AnsatzEvaluator evaluator(ansatz, target);
    EXPECT_THROW(evaluator.beginColumn(0), std::logic_error);  // No sweep.
    evaluator.beginSweep();
    EXPECT_THROW(evaluator.beginColumn(1), std::logic_error);  // Skipped 0.
    evaluator.beginColumn(0);
    // No qubit.
    EXPECT_THROW(evaluator.environment(), std::logic_error);
    EXPECT_THROW(evaluator.traceWith(Matrix2::identity()), std::logic_error);
    EXPECT_THROW(evaluator.commit(Matrix2::identity()), std::logic_error);
    EXPECT_THROW(updateQubit(evaluator, 1.0), std::logic_error);
    evaluator.beginQubit(0);
    std::vector<double> angles = evaluator.angles();
    Rng rng(59);
    checkedStep(evaluator, ansatz, target, angles, rng, 0, 0, true);
    evaluator.beginQubit(1);
    checkedStep(evaluator, ansatz, target, angles, rng, 0, 1, true);
    evaluator.beginColumn(1);
    EXPECT_THROW(evaluator.environment(), std::logic_error);
    evaluator.beginQubit(0);
    checkedStep(evaluator, ansatz, target, angles, rng, 1, 0, true);
}

TEST(ComposeKernel, SweepProtocolEnforcesQubitOrder)
{
    // beginColumn contracts the qubits above each q with their U3s of
    // that moment, so once one of them is committed no qubit below it
    // may be selected in that column.
    const Ansatz ansatz(3, 2);
    Rng rng(67);
    const Matrix target = ansatz.unitary(
        rng.uniformVector(ansatz.numAngles(), 0.0, 2.0 * kPi));
    AnsatzEvaluator evaluator(ansatz, target);
    evaluator.setAngles(rng.uniformVector(ansatz.numAngles(), 0.0, 2.0 * kPi));
    evaluator.beginSweep();
    evaluator.beginColumn(0);
    evaluator.beginQubit(1);
    evaluator.commit(matrixOf(randomU3(rng)));
    EXPECT_THROW(evaluator.beginQubit(0), std::logic_error);
    evaluator.beginQubit(1);  // The committed qubit itself, and any
    evaluator.beginQubit(2);  // above it, may still be selected.
    evaluator.commit(matrixOf(randomU3(rng)));
    EXPECT_THROW(evaluator.beginQubit(1), std::logic_error);
    EXPECT_THROW(evaluator.beginQubit(3), std::logic_error);  // No qubit 3.
    evaluator.beginColumn(1);  // A new column contracts afresh.
    evaluator.beginQubit(0);

    // Reading the angles converts every committed 2x2. Converting only
    // the selected qubit's commit leaves the sweep open; column 0's are
    // in the prefix environment, so converting them ends it.
    std::vector<double> angles = evaluator.angles();
    EXPECT_THROW(evaluator.beginQubit(1), std::logic_error);
    EXPECT_THROW(evaluator.beginColumn(2), std::logic_error);
    evaluator.beginSweep();
    evaluator.beginColumn(0);
    evaluator.beginQubit(0);
    checkedStep(evaluator, ansatz, target, angles, rng, 0, 0, true);
    evaluator.beginQubit(1);
    checkedStep(evaluator, ansatz, target, angles, rng, 0, 1, false);
    evaluator.beginQubit(2);
    checkedStep(evaluator, ansatz, target, angles, rng, 0, 2, false);
}

TEST(ComposeKernel, TraceEndsTheOpenSweep)
{
    // trace() rebuilds the environment the sweep runs on, so it ends an
    // open sweep even where reading angles() would leave it open, and it
    // counts as one full trace and nothing else.
    obs::EnabledScope collect(true);
    obs::Counter &fullTraces = obs::counter("compose.kernel_full_traces");
    obs::Counter &sweeps = obs::counter("compose.kernel_sweeps");
    obs::Counter &envBuilds = obs::counter("compose.kernel_env_builds");
    obs::Counter &folds = obs::counter("compose.kernel_folds");

    Rng rng(71);
    const int numQubits = 3, layers = 3;
    const Ansatz ansatz(numQubits, layers, patternFor(numQubits, layers, 13));
    const Matrix target = ansatz.unitary(
        rng.uniformVector(ansatz.numAngles(), 0.0, 2.0 * kPi));
    AnsatzEvaluator evaluator(ansatz, target);
    evaluator.setAngles(rng.uniformVector(ansatz.numAngles(), 0.0, 2.0 * kPi));
    // One sweep of updates, converted to angles.
    evaluator.beginSweep();
    for (int col = 0; col < evaluator.columns(); ++col) {
        evaluator.beginColumn(col);
        for (int q = 0; q < numQubits; ++q) {
            evaluator.beginQubit(q);
            updateQubit(evaluator, 1.0);
        }
    }
    evaluator.angles();

    // Mid-sweep, with the selected qubit of column 2 committed: the one
    // commit that reading angles() converts without ending the sweep.
    evaluator.beginSweep();
    for (int col = 0; col <= 2; ++col)
        evaluator.beginColumn(col);
    for (int q = 0; q < numQubits; ++q)
        evaluator.beginQubit(q);
    evaluator.commit(matrixOf(randomU3(rng)));
    AnsatzEvaluator readOnly = evaluator;
    readOnly.angles();
    readOnly.beginColumn(3);

    const long before[] = {fullTraces.value(), sweeps.value(),
                           envBuilds.value(), folds.value()};
    const Complex trace = evaluator.trace();
    EXPECT_EQ(fullTraces.value(), before[0] + 1);
    EXPECT_EQ(sweeps.value(), before[1]);
    EXPECT_EQ(envBuilds.value(), before[2]);
    EXPECT_EQ(folds.value(), before[3]);
    std::vector<double> angles = evaluator.angles();
    EXPECT_LT(std::abs(trace - denseTrace(ansatz, target, angles)), 1e-12);

    EXPECT_THROW(evaluator.beginColumn(3), std::logic_error);
    EXPECT_THROW(evaluator.beginColumn(0), std::logic_error);
    EXPECT_THROW(evaluator.beginQubit(0), std::logic_error);
    EXPECT_THROW(evaluator.environment(), std::logic_error);

    // The next sweep starts from the converted angles.
    evaluator.beginSweep();
    for (int col = 0; col < evaluator.columns(); ++col) {
        evaluator.beginColumn(col);
        for (int q = 0; q < numQubits; ++q) {
            evaluator.beginQubit(q);
            checkedStep(evaluator, ansatz, target, angles, rng, col, q,
                        rng.bernoulli(0.5));
        }
    }
}

/**
 * The reference fold, a triple loop over a split dim x dim environment:
 * W[a*2+b] = sum_{k_q=a, r_q=b} env(r,k) . prod_{p!=q} u3_p[k_p,r_p],
 * with u3Re/u3Im indexed [qubit][entry].
 */
void
foldReference(const double *envRe, const double *envIm,
              const double (*u3Re)[4], const double (*u3Im)[4], int numQubits,
              int qubit, double *wRe, double *wIm)
{
    const int d = 1 << numQubits;
    for (int i = 0; i < 4; ++i) {
        wRe[i] = 0.0;
        wIm[i] = 0.0;
    }
    for (int k = 0; k < d; ++k) {
        for (int r = 0; r < d; ++r) {
            double fre = 1.0, fim = 0.0;
            for (int p = 0; p < numQubits; ++p) {
                if (p == qubit)
                    continue;
                const int e = ((k >> p) & 1) * 2 + ((r >> p) & 1);
                const double ure = u3Re[p][e];
                const double uim = u3Im[p][e];
                const double nre = fre * ure - fim * uim;
                fim = fre * uim + fim * ure;
                fre = nre;
            }
            const double ere = envRe[r * d + k], eim = envIm[r * d + k];
            const int idx = ((k >> qubit) & 1) * 2 + ((r >> qubit) & 1);
            wRe[idx] += fre * ere - fim * eim;
            wIm[idx] += fre * eim + fim * ere;
        }
    }
}

TEST(ComposeKernel, FoldMatchesReferenceLoop)
{
    // With identity U3s in every other column, column col's environment
    // is E = S_R . T^dagger . S_L, S_R and S_L the entangler signs
    // before and after it, for a random complex T. Each qubit's fold,
    // taken in sweep order with a random commit after it, must match the
    // reference loop over E and the column's current U3s.
    Rng rng(61);
    for (int numQubits = 2; numQubits <= 4; ++numQubits) {
        const int d = 1 << numQubits, layers = 2;
        const Ansatz ansatz(numQubits, layers,
                            patternFor(numQubits, layers, 5));
        Matrix target(d, d);
        for (int r = 0; r < d; ++r)
            for (int c = 0; c < d; ++c)
                target(r, c) = {rng.uniform(-1.0, 1.0),
                                rng.uniform(-1.0, 1.0)};
        AnsatzEvaluator evaluator(ansatz, target);
        // The sign of basis state `index` under layers [from, to).
        auto sign = [&](int index, int from, int to) {
            double s = 1.0;
            for (int l = from; l < to; ++l) {
                const int mask = entanglerFlipMask(
                    ansatz.entanglers()[static_cast<size_t>(l)], numQubits);
                if ((index & mask) == mask)
                    s = -s;
            }
            return s;
        };
        for (int col = 0; col <= layers; ++col) {
            std::vector<double> envRe(static_cast<size_t>(d * d));
            std::vector<double> envIm(envRe.size());
            for (int r = 0; r < d; ++r) {
                for (int k = 0; k < d; ++k) {
                    const Complex e = sign(r, 0, col) *
                                      std::conj(target(k, r)) *
                                      sign(k, col, layers);
                    envRe[static_cast<size_t>(r * d + k)] = e.real();
                    envIm[static_cast<size_t>(r * d + k)] = e.imag();
                }
            }

            std::vector<double> angles(
                static_cast<size_t>(ansatz.numAngles()), 0.0);
            double u3Re[4][4] = {}, u3Im[4][4] = {};
            for (int q = 0; q < numQubits; ++q) {
                const U3Params u3 = randomU3(rng);
                angles = withU3(ansatz, angles, col, q, u3);
                kernels::u3Entries(u3.theta, u3.phi, u3.lambda, u3Re[q],
                                   u3Im[q]);
            }
            evaluator.setAngles(angles);
            evaluator.beginSweep();
            for (int c = 0; c <= col; ++c)
                evaluator.beginColumn(c);
            for (int q = 0; q < numQubits; ++q) {
                evaluator.beginQubit(q);
                double wRe[4], wIm[4];
                foldReference(envRe.data(), envIm.data(), u3Re, u3Im,
                              numQubits, q, wRe, wIm);
                const Matrix2 w = evaluator.environment();
                for (int j = 0; j < 4; ++j)
                    EXPECT_LT(std::abs(w(j / 2, j % 2) -
                                       Complex(wRe[j], wIm[j])),
                              1e-13)
                        << "n=" << numQubits << " col=" << col
                        << " q=" << q << " entry=" << j;
                const Matrix2 u = matrixOf(randomU3(rng));
                evaluator.commit(u);
                for (int j = 0; j < 4; ++j) {
                    u3Re[q][j] = u.data()[j].real();
                    u3Im[q][j] = u.data()[j].imag();
                }
            }
        }
    }
}

TEST(ComposeKernel, RejectsMismatchedInputs)
{
    const Ansatz ansatz(3, 1);
    EXPECT_THROW(AnsatzEvaluator(ansatz, Matrix::identity(4)),
                 std::invalid_argument);
    AnsatzEvaluator evaluator(ansatz, Matrix::identity(8));
    EXPECT_THROW(evaluator.setAngles(std::vector<double>(5, 0.0)),
                 std::invalid_argument);
}

}  // namespace
}  // namespace geyser
