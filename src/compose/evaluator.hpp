/**
 * @file
 * Incremental environment-contraction kernel for the composition
 * objective Tr(T^dagger U(angles)) — the rotosolve hot path.
 *
 * The ansatz unitary factorizes as U = C_L E_{L-1} C_{L-1} ... E_0 C_0
 * (U3 columns C interleaved with diagonal entanglers E). For a sweep
 * position (column `col`, qubit `q`) write U = L . C(col) . R with
 * L = C_L ... E_col the product *after* the column and
 * R = E_{col-1} ... C_0 the product *before* it. By trace cyclicity
 *
 *     Tr(T^dagger U) = Tr(T^dagger L C R) = Tr((R T^dagger L) C)
 *                    = Tr(Env . C)          with Env = R . T^dagger . L,
 *
 * and because C is a Kronecker product of per-qubit U3s, the trace is
 * *linear in the 4 entries of qubit q's U3*:
 *
 *     Tr(Env C) = sum_{a,b in {0,1}} u3_q[a,b] . W_q[a,b],
 *     W_q[a,b] = sum_{k_q=a, r_q=b} Env(r,k) . prod_{p!=q} u3_p[k_p,r_p].
 *
 * Rotosolve solves that qubit's best U3 from W_q in closed form
 * (environmentUpdate, compose/composer.hpp) and confirms it with one
 * 4-entry contraction of W_q with the solved 2x2 itself. The evaluator
 * keeps each qubit's U3 as that 2x2 while it sweeps (the HSD is
 * phase-blind, so the solved matrix's global phase does no harm) and
 * converts committed matrices to angles only when they are read out
 * (angles(), trace()), which is once per rotosolve call.
 *
 * One column environment runs through a sweep. beginSweep builds
 * Env(0) = T^dagger . C_L . E_{L-1} ... C_1 . E_0 with right
 * multiplies, and each beginColumn(col) advances it rank-locally,
 *
 *     Env(col) = E_{col-1} . C_{col-1} . Env(col-1)
 *                . E_{col-1} . C_col^dagger,
 *
 * so a sweep's maintenance is O(L n d^2) and no d x d product is formed.
 * trace() reads Tr(T^dagger U) = Tr(Env(0) . C_0) from a fresh Env(0).
 *
 * W_q contracts every qubit but q out of Env, and the contraction order
 * follows the sweep: beginColumn contracts the qubits above each q once
 * with their current U3s, top down, and beginQubit(q) contracts the
 * qubits below q, which this sweep has just updated (~180 complex
 * multiply-adds a 3-qubit column, kernels::contractQubit). A commit
 * above q since beginColumn would leave the upper contraction stale, so
 * beginQubit(q) refuses it.
 *
 * All buffers are fixed-size split-complex (SoA) arrays owned by the
 * evaluator: T^dagger, the U3 cache, one environment and its upper
 * contractions, about 15 KB in all. No heap allocation happens after
 * construction. The dense oracle is verify::overlapTrace(target,
 * Ansatz::unitary(angles)), which enters no compute backend and shares
 * no arithmetic with this path; the verify layer cross-checks the two
 * to 1e-12 (verify/kernel_check).
 */
#ifndef GEYSER_COMPOSE_EVALUATOR_HPP
#define GEYSER_COMPOSE_EVALUATOR_HPP

#include <cstdint>
#include <vector>

#include "compose/ansatz.hpp"
#include "linalg/kernels/backend.hpp"
#include "linalg/matrix.hpp"

namespace geyser {

/**
 * Incremental trace evaluator bound to one (ansatz shape, target)
 * pair. Reusable across restarts/basin hops: call setAngles() to load
 * a new start point, then drive the sweep protocol
 *
 *   beginSweep();
 *   for col in 0..layers: beginColumn(col);
 *     for q in 0..n-1: beginQubit(q);
 *       environment(); traceWith(u) ... commit(u);
 *
 * Columns must be visited in order (the environment advances forward),
 * and within a column no qubit may be selected after a qubit above it
 * was committed. environment() and traceWith() never mutate state;
 * commit() replaces the selected qubit's cached 2x2. A sweep may be
 * abandoned at any point (e.g. on early convergence) and restarted with
 * beginSweep().
 *
 * Reading angles() or trace() converts every committed 2x2 to U3
 * angles (u3FromMatrix, then the U3 built from those angles replaces
 * the 2x2: the same gate up to a global phase). When that converts a
 * qubit that the open sweep's environment holds (any but the selected
 * qubit, committed since beginColumn), the sweep ends, and beginSweep()
 * must start a new one. trace() rebuilds the environment, so it always
 * ends the open sweep.
 */
class AnsatzEvaluator
{
  public:
    static constexpr int kMaxQubits = 4;
    static constexpr int kMaxDim = 1 << kMaxQubits;
    static constexpr int kMaxColumns = 16;

    /** `target` must be dim x dim for the ansatz's qubit count. */
    AnsatzEvaluator(const Ansatz &ansatz, const Matrix &target);

    int numQubits() const { return numQubits_; }
    int layers() const { return layers_; }
    int columns() const { return layers_ + 1; }
    int dim() const { return dim_; }
    int numAngles() const { return static_cast<int>(angles_.size()); }

    /** Load a fresh angle vector (rebuilds the U3 cache). */
    void setAngles(const std::vector<double> &angles);

    /** The current angles, committed 2x2s converted first. */
    const std::vector<double> &angles();

    /**
     * Tr(target^dagger U(angles())) from a fresh Env(0): the
     * environment beginSweep builds, contracted with column 0 —
     * O(layers d^2 n), no std::exp (U3s come from the cache). Matches
     * the dense oracle to floating-point rounding. Ends any open sweep.
     */
    Complex trace();

    /** setAngles(angles) + trace(): the global-optimizer objective. */
    Complex traceAt(const std::vector<double> &angles)
    {
        setAngles(angles);
        return trace();
    }

    /** Start a sweep: build Env(0) from the current U3s. */
    void beginSweep();

    /**
     * Enter a column (must be beginSweep order: 0, 1, ..., layers).
     * Advances the environment past the previous column, Env(col) =
     * E_{col-1} C_{col-1} Env(col-1) E_{col-1} C_col^dagger, and
     * contracts the qubits above each qubit out of it.
     */
    void beginColumn(int col);

    /**
     * Select a qubit of the current column: contracts the qubits below
     * it out of the column's upper contraction, leaving W_q. Throws
     * std::logic_error if a qubit above it was committed since
     * beginColumn.
     */
    void beginQubit(int qubit);

    /**
     * The selected qubit's fold W_q as a 2x2: with that qubit's U3 set
     * to u and every other U3 current, the trace is
     * sum_{a,b} u[a,b] W_q[a,b].
     */
    Matrix2 environment() const;

    /**
     * Trace with the selected qubit's U3 set to the 2x2 `u`, other U3s
     * current: the 4-entry contraction against W_q (kernels::contractW).
     * Does not mutate.
     */
    Complex traceWith(const Matrix2 &u) const;

    /**
     * Make the unitary `u` the selected qubit's U3. It stays a 2x2
     * until angles() or trace() converts it.
     */
    void commit(const Matrix2 &u);

  private:
    int angleIndex(int col, int qubit, int role) const
    {
        return (col * numQubits_ + qubit) * 3 + role;
    }
    void loadU3(int col, int qubit);
    void materialize();
    void endSweep();
    void buildEnvironment();
    void contractUpper(int col);
    void foldQubit(int col, int qubit);
    void requireQubit(const char *where) const;

    int numQubits_ = 0;
    int layers_ = 0;
    int dim_ = 0;
    std::vector<double> angles_;
    int flipMask_[kMaxColumns] = {};  ///< Per-layer entangler masks.

    /** Dispatched kernel table (resolved once at construction). */
    const kernels::ComputeBackend *backend_ = nullptr;

    // target^dagger, split row-major.
    alignas(64) double tdRe_[kMaxDim * kMaxDim] = {};
    alignas(64) double tdIm_[kMaxDim * kMaxDim] = {};

    // Cached per-column, per-qubit U3 entries (row-major 2x2).
    alignas(64) double u3Re_[kMaxColumns][kMaxQubits][4] = {};
    alignas(64) double u3Im_[kMaxColumns][kMaxQubits][4] = {};
    // Bit col * kMaxQubits + q: that cached U3 is a committed 2x2 not
    // yet converted to angles.
    uint64_t staleMask_ = 0;
    static_assert(kMaxColumns * kMaxQubits <= 64, "one stale bit per U3");

    // Env(col) = R . T^dagger . L for the current column.
    alignas(64) double envRe_[kMaxDim * kMaxDim] = {};
    alignas(64) double envIm_[kMaxDim * kMaxDim] = {};
    // upper[q]: Env with qubits q+1..n-1 contracted out, 2^(q+1) square
    // (the top qubit's is Env itself).
    alignas(64) double upperRe_[kMaxQubits - 1][kMaxDim * kMaxDim / 4] = {};
    alignas(64) double upperIm_[kMaxQubits - 1][kMaxDim * kMaxDim / 4] = {};
    // W_q fold of the current (column, qubit).
    alignas(64) double wRe_[4] = {};
    alignas(64) double wIm_[4] = {};

    int curCol_ = -1;
    int curQubit_ = -1;
    int committedMask_ = 0;  ///< Current column's commits since beginColumn.
    bool sweeping_ = false;
};

}  // namespace geyser

#endif  // GEYSER_COMPOSE_EVALUATOR_HPP
