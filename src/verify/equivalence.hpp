/**
 * @file
 * Differential-verification primitives: circuit equivalence up to global
 * phase, layout/permutation-aware equivalence for routed circuits, and
 * distribution comparison. This is the reusable layer the ISCA paper's
 * whole claim rests on — the compiled circuit must be functionally
 * equivalent to the logical one — shared by tests, benches, the pipeline's
 * opt-in self-check (PipelineOptions::verifyEquivalence) and
 * `geyserc --verify`.
 *
 * Tolerances: exact transpiler passes (basis translation, fusion,
 * cancellation, routing) preserve the unitary to floating-point error, so
 * they are checked against `unitaryTolerance` (1e-8 HSD by default).
 * Geyser's block composition is approximate by design (per-block HSD
 * threshold 1e-5, paper Sec 3.4), so composed circuits are checked
 * against the distribution threshold `tvdTolerance` (1e-2, the paper's
 * Sec 6 bound).
 */
#ifndef GEYSER_VERIFY_EQUIVALENCE_HPP
#define GEYSER_VERIFY_EQUIVALENCE_HPP

#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/types.hpp"
#include "geyser/pipeline.hpp"
#include "linalg/matrix.hpp"

namespace geyser {
namespace verify {

/** Thrown by the pipeline when an enabled equivalence check fails. */
class VerificationError : public std::runtime_error
{
  public:
    explicit VerificationError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Tolerances and limits for the equivalence checks. */
struct EquivalenceOptions
{
    /** HSD bound for exact (pass-preserving) transformations. */
    double unitaryTolerance = 1e-8;
    /** TVD bound for approximate (composed) circuits. */
    double tvdTolerance = 1e-2;
    /** Probability mass allowed outside the layout subspace. */
    double leakageTolerance = 1e-9;
    /**
     * Widest circuit checked at the unitary level; wider circuits fall
     * back to the (weaker, but still 2^n-sized) distribution check.
     */
    int maxUnitaryQubits = 10;
};

/** Outcome of one equivalence check. */
struct EquivalenceReport
{
    bool equivalent = false;
    /** "unitary", "routed-unitary" or "distribution". */
    std::string method;
    double hsd = -1.0;      ///< Set by the unitary methods.
    double tvd = -1.0;      ///< Set by the distribution method.
    double leakage = -1.0;  ///< Set by the routed-unitary method.
    /** One-line human-readable summary (always filled). */
    std::string detail;
};

/**
 * Tr(target^dagger candidate) — the overlap driving the HSD, summed
 * entry by entry with no kernel dispatch. With candidate =
 * Ansatz::unitary(angles) it is the one dense oracle of the composition
 * objective, which the incremental evaluator is checked against
 * (verify/kernel_check). Throws std::invalid_argument when the shapes
 * differ.
 */
Complex overlapTrace(const Matrix &target, const Matrix &candidate);

/** HSD from an overlap trace: 1 - |t| / dim. */
double hsdFromTrace(Complex t, int dim);

/**
 * Unitary equivalence up to global phase between two same-width
 * circuits. Falls back to the distribution check above
 * options.maxUnitaryQubits.
 */
EquivalenceReport checkUnitary(const Circuit &reference,
                               const Circuit &candidate,
                               const EquivalenceOptions &options = {});

/**
 * The effective logical-space unitary of a routed circuit over
 * `num_logical` qubits: basis state |j> enters through `initial_layout`
 * (logical qubit q on atom initial_layout[q], every other atom in |0>)
 * and exits through `final_layout`. Probability mass on states where a
 * non-layout atom ended outside |0> is accumulated into *leakage (a
 * correctly routed circuit has none: SWAP chains return vacated atoms
 * to |0>).
 */
Matrix routedLogicalUnitary(const Circuit &physical,
                            const std::vector<Qubit> &initial_layout,
                            const std::vector<Qubit> &final_layout,
                            int num_logical, double *leakage = nullptr);

/**
 * Layout-aware equivalence: does `physical` (over atoms, SWAPs inserted)
 * implement `reference` (over logical qubits) through the given layouts,
 * up to global phase?
 */
EquivalenceReport checkRouted(const Circuit &reference,
                              const Circuit &physical,
                              const std::vector<Qubit> &initial_layout,
                              const std::vector<Qubit> &final_layout,
                              const EquivalenceOptions &options = {});

/** Distribution comparison: TVD plus Bhattacharyya fidelity. */
struct DistributionReport
{
    bool pass = false;
    double tvd = 1.0;
    double fidelity = 0.0;  ///< (sum_k sqrt(p_k q_k))^2, 1 when identical.
};

DistributionReport compareDistributions(const Distribution &p,
                                        const Distribution &q,
                                        double tvd_tolerance = 1e-2);

/**
 * Check a full compilation result against its logical source. Exact
 * techniques (Baseline/OptiMap/Superconducting) are verified at the
 * routed-unitary level when narrow enough and the initial layout is
 * known; Geyser (approximate composition) and wide circuits are verified
 * at the distribution level through the final layout projection.
 */
EquivalenceReport checkCompileResult(const CompileResult &result,
                                     const EquivalenceOptions &options = {});

}  // namespace verify
}  // namespace geyser

#endif  // GEYSER_VERIFY_EQUIVALENCE_HPP
