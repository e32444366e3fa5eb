#include "verify/equivalence.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "sim/statevector.hpp"
#include "sim/unitary_sim.hpp"

namespace geyser {
namespace verify {

namespace {

std::string
fmt(const char *format, double a, double b = 0.0)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), format, a, b);
    return buf;
}

EquivalenceReport
distributionReport(const Distribution &reference,
                   const Distribution &candidate,
                   const EquivalenceOptions &options)
{
    EquivalenceReport report;
    report.method = "distribution";
    const DistributionReport d =
        compareDistributions(reference, candidate, options.tvdTolerance);
    report.tvd = d.tvd;
    report.equivalent = d.pass;
    report.detail = fmt("tvd=%.3e fidelity=%.6f", d.tvd, d.fidelity);
    return report;
}

}  // namespace

Complex
overlapTrace(const Matrix &target, const Matrix &candidate)
{
    if (target.rows() != candidate.rows() ||
        target.cols() != candidate.cols())
        throw std::invalid_argument("overlapTrace: shape mismatch");
    Complex t{};
    for (int i = 0; i < target.rows(); ++i)
        for (int j = 0; j < target.cols(); ++j)
            t += std::conj(target(i, j)) * candidate(i, j);
    return t;
}

double
hsdFromTrace(Complex t, int dim)
{
    return 1.0 - std::abs(t) / static_cast<double>(dim);
}

EquivalenceReport
checkUnitary(const Circuit &reference, const Circuit &candidate,
             const EquivalenceOptions &options)
{
    EquivalenceReport report;
    if (reference.numQubits() != candidate.numQubits()) {
        report.method = "unitary";
        report.detail = "width mismatch: " +
                        std::to_string(reference.numQubits()) + " vs " +
                        std::to_string(candidate.numQubits());
        return report;
    }
    if (reference.numQubits() > options.maxUnitaryQubits)
        return distributionReport(idealDistribution(reference),
                                  idealDistribution(candidate), options);

    report.method = "unitary";
    report.hsd = circuitHsd(reference, candidate);
    report.equivalent = report.hsd < options.unitaryTolerance;
    report.detail = fmt("hsd=%.3e", report.hsd);
    return report;
}

Matrix
routedLogicalUnitary(const Circuit &physical,
                     const std::vector<Qubit> &initial_layout,
                     const std::vector<Qubit> &final_layout, int num_logical,
                     double *leakage)
{
    const int atoms = physical.numQubits();
    if (initial_layout.size() != static_cast<size_t>(num_logical) ||
        final_layout.size() != static_cast<size_t>(num_logical))
        throw std::invalid_argument("routedLogicalUnitary: bad layout size");
    if (atoms > 14)
        throw std::invalid_argument("routedLogicalUnitary: circuit too wide");

    const size_t dimLogical = size_t{1} << num_logical;
    // Atoms that hold logical data at the end; everything else must
    // come back to |0>.
    size_t dataMask = 0;
    for (const Qubit atom : final_layout)
        dataMask |= size_t{1} << atom;

    if (leakage != nullptr)
        *leakage = 0.0;
    Matrix effective(static_cast<int>(dimLogical),
                     static_cast<int>(dimLogical));
    for (size_t j = 0; j < dimLogical; ++j) {
        size_t atomIndex = 0;
        for (int q = 0; q < num_logical; ++q)
            if (j & (size_t{1} << q))
                atomIndex |= size_t{1}
                             << initial_layout[static_cast<size_t>(q)];
        StateVector sv(atoms, atomIndex);
        sv.apply(physical);
        const auto &amps = sv.amplitudes();
        for (size_t y = 0; y < amps.size(); ++y) {
            if (amps[y] == Complex{})
                continue;
            if ((y & ~dataMask) != 0) {
                if (leakage != nullptr)
                    *leakage += std::norm(amps[y]);
                continue;
            }
            size_t x = 0;
            for (int q = 0; q < num_logical; ++q)
                if (y & (size_t{1} << final_layout[static_cast<size_t>(q)]))
                    x |= size_t{1} << q;
            effective(static_cast<int>(x), static_cast<int>(j)) = amps[y];
        }
    }
    return effective;
}

EquivalenceReport
checkRouted(const Circuit &reference, const Circuit &physical,
            const std::vector<Qubit> &initial_layout,
            const std::vector<Qubit> &final_layout,
            const EquivalenceOptions &options)
{
    EquivalenceReport report;
    report.method = "routed-unitary";
    if (reference.numQubits() > options.maxUnitaryQubits ||
        physical.numQubits() > options.maxUnitaryQubits + 4) {
        // Wide fallback: exact distributions through the layout
        // projection ( |0...0> input needs no initial-layout embedding).
        const Distribution projected = projectToLogical(
            idealDistribution(physical), final_layout, reference.numQubits(),
            physical.numQubits());
        return distributionReport(idealDistribution(reference), projected,
                                  options);
    }

    double leakage = 0.0;
    const Matrix effective =
        routedLogicalUnitary(physical, initial_layout, final_layout,
                             reference.numQubits(), &leakage);
    const Matrix target = circuitUnitary(reference);
    report.leakage = leakage;
    report.hsd = hsdFromTrace(overlapTrace(target, effective),
                              static_cast<int>(target.rows()));
    report.equivalent = leakage < options.leakageTolerance &&
                        report.hsd < options.unitaryTolerance;
    report.detail = fmt("hsd=%.3e leakage=%.3e", report.hsd, leakage);
    return report;
}

DistributionReport
compareDistributions(const Distribution &p, const Distribution &q,
                     double tvd_tolerance)
{
    if (p.size() != q.size())
        throw std::invalid_argument("compareDistributions: size mismatch");
    DistributionReport report;
    double half = 0.0, bc = 0.0;
    for (size_t k = 0; k < p.size(); ++k) {
        half += std::abs(p[k] - q[k]);
        bc += std::sqrt(p[k] * q[k]);
    }
    report.tvd = 0.5 * half;
    report.fidelity = bc * bc;
    report.pass = report.tvd < tvd_tolerance;
    return report;
}

EquivalenceReport
checkCompileResult(const CompileResult &result,
                   const EquivalenceOptions &options)
{
    const bool exactTechnique = result.technique != Technique::Geyser;
    if (exactTechnique && !result.initialLayout.empty() &&
        result.logical.numQubits() <= options.maxUnitaryQubits &&
        result.physical.numQubits() <= 14) {
        return checkRouted(result.logical, result.physical,
                           result.initialLayout, result.finalLayout, options);
    }
    // Geyser composition is approximate (and reorders gates round-by-
    // round), so the paper's Sec 6 distribution bound is the contract.
    const Distribution projected = projectToLogical(
        idealDistribution(result.physical), result.finalLayout,
        result.logical.numQubits(), result.physical.numQubits());
    return distributionReport(idealDistribution(result.logical), projected,
                              options);
}

}  // namespace verify
}  // namespace geyser
