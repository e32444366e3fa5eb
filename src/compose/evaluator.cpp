#include "compose/evaluator.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"
#include "transpile/zyz.hpp"

namespace geyser {

AnsatzEvaluator::AnsatzEvaluator(const Ansatz &ansatz, const Matrix &target)
    : numQubits_(ansatz.numQubits()), layers_(ansatz.layers()),
      dim_(1 << ansatz.numQubits()), backend_(&kernels::active())
{
    if (layers_ + 1 > kMaxColumns)
        throw std::invalid_argument(
            "AnsatzEvaluator: too many layers for the fixed buffers");
    if (target.rows() != dim_ || target.cols() != dim_)
        throw std::invalid_argument("AnsatzEvaluator: target dimension");

    for (int l = 0; l < layers_; ++l)
        flipMask_[l] = entanglerFlipMask(
            ansatz.entanglers()[static_cast<size_t>(l)], numQubits_);

    // Store target^dagger once, split.
    for (int r = 0; r < dim_; ++r) {
        for (int c = 0; c < dim_; ++c) {
            const Complex v = std::conj(target(c, r));
            tdRe_[r * dim_ + c] = v.real();
            tdIm_[r * dim_ + c] = v.imag();
        }
    }
    angles_.assign(static_cast<size_t>(ansatz.numAngles()), 0.0);
    setAngles(angles_);
}

void
AnsatzEvaluator::loadU3(int col, int qubit)
{
    const double *a =
        &angles_[static_cast<size_t>(angleIndex(col, qubit, 0))];
    kernels::u3Entries(a[0], a[1], a[2], u3Re_[col][qubit],
                       u3Im_[col][qubit]);
}

void
AnsatzEvaluator::setAngles(const std::vector<double> &angles)
{
    if (angles.size() != angles_.size())
        throw std::invalid_argument("AnsatzEvaluator: wrong angle count");
    angles_ = angles;
    for (int col = 0; col <= layers_; ++col)
        for (int q = 0; q < numQubits_; ++q)
            loadU3(col, q);
    staleMask_ = 0;
    endSweep();
}

void
AnsatzEvaluator::endSweep()
{
    sweeping_ = false;
    curCol_ = -1;
    curQubit_ = -1;
}

void
AnsatzEvaluator::materialize()
{
    if (staleMask_ == 0)
        return;
    bool held = false;
    for (int col = 0; col <= layers_; ++col) {
        for (int q = 0; q < numQubits_; ++q) {
            const uint64_t bit = uint64_t{1} << (col * kMaxQubits + q);
            if ((staleMask_ & bit) == 0)
                continue;
            const double *re = u3Re_[col][q], *im = u3Im_[col][q];
            const U3Params p = u3FromMatrix(
                Matrix2({re[0], im[0]}, {re[1], im[1]}, {re[2], im[2]},
                        {re[3], im[3]}));
            const size_t at = static_cast<size_t>(angleIndex(col, q, 0));
            angles_[at] = p.theta;
            angles_[at + 1] = p.phi;
            angles_[at + 2] = p.lambda;
            loadU3(col, q);
            staleMask_ &= ~bit;
            // Only the selected qubit, committed since beginColumn, is
            // in no environment; any other just changed its phase under
            // one.
            held = held || col != curCol_ || q != curQubit_ ||
                   (committedMask_ & (1 << q)) == 0;
        }
    }
    if (held)
        endSweep();
}

const std::vector<double> &
AnsatzEvaluator::angles()
{
    materialize();
    return angles_;
}

void
AnsatzEvaluator::buildEnvironment()
{
    // Env(0) = T^dagger . C_L . E_{L-1} ... C_1 . E_0. A U3 column on
    // the right pairs matrix columns by qubit bit; a sign layer negates
    // the columns whose index covers its flip mask.
    const size_t bytes = sizeof(double) * static_cast<size_t>(dim_ * dim_);
    std::memcpy(envRe_, tdRe_, bytes);
    std::memcpy(envIm_, tdIm_, bytes);
    for (int col = layers_; col > 0; --col) {
        for (int q = 0; q < numQubits_; ++q)
            backend_->apply2x2Cols(envRe_, envIm_, u3Re_[col][q],
                                   u3Im_[col][q], 1 << q, dim_);
        kernels::flipCols(envRe_, envIm_, flipMask_[col - 1], dim_);
    }
}

void
AnsatzEvaluator::contractUpper(int col)
{
    // Contract the qubits above each q out of Env, top down, with their
    // current U3s: upper[q] keeps qubits 0..q.
    for (int q = numQubits_ - 2; q >= 0; --q) {
        const bool top = q == numQubits_ - 2;
        kernels::contractQubit(top ? envRe_ : upperRe_[q + 1],
                               top ? envIm_ : upperIm_[q + 1], 4 << q, q + 1,
                               u3Re_[col][q + 1], u3Im_[col][q + 1],
                               upperRe_[q], upperIm_[q]);
    }
}

void
AnsatzEvaluator::foldQubit(int col, int qubit)
{
    // Contract the qubits below, which this sweep just updated, out of
    // upper[qubit]; each leaves at bit 0, so qubit ends as the only bit.
    const bool top = qubit == numQubits_ - 1;
    const double *re = top ? envRe_ : upperRe_[qubit];
    const double *im = top ? envIm_ : upperIm_[qubit];
    alignas(64) double bufRe[2][kMaxDim * kMaxDim / 4];
    alignas(64) double bufIm[2][kMaxDim * kMaxDim / 4];
    int d = 2 << qubit;
    for (int p = 0; p < qubit; ++p) {
        kernels::contractQubit(re, im, d, 0, u3Re_[col][p], u3Im_[col][p],
                               bufRe[p & 1], bufIm[p & 1]);
        re = bufRe[p & 1];
        im = bufIm[p & 1];
        d /= 2;
    }
    // What is left is indexed (r_q, k_q); W_q[a * 2 + b] pairs k_q = a
    // with r_q = b.
    wRe_[0] = re[0];
    wIm_[0] = im[0];
    wRe_[1] = re[2];
    wIm_[1] = im[2];
    wRe_[2] = re[1];
    wIm_[2] = im[1];
    wRe_[3] = re[3];
    wIm_[3] = im[3];
}

Complex
AnsatzEvaluator::trace()
{
    static obs::Counter &fullTraces =
        obs::counter("compose.kernel_full_traces");
    fullTraces.add();
    materialize();

    // Tr(T^dagger U) = Tr(Env(0) . C_0): qubit 0's fold of column 0,
    // contracted with its U3. Env(0) is rebuilt, so the sweep ends.
    buildEnvironment();
    contractUpper(0);
    foldQubit(0, 0);
    endSweep();
    double tre = 0.0, tim = 0.0;
    kernels::contractW(wRe_, wIm_, u3Re_[0][0], u3Im_[0][0], &tre, &tim);
    return {tre, tim};
}

void
AnsatzEvaluator::beginSweep()
{
    static obs::Counter &sweeps = obs::counter("compose.kernel_sweeps");
    sweeps.add();

    buildEnvironment();
    sweeping_ = true;
    curCol_ = -1;
    curQubit_ = -1;
}

void
AnsatzEvaluator::beginColumn(int col)
{
    static obs::Counter &envBuilds =
        obs::counter("compose.kernel_env_builds");
    envBuilds.add();

    if (!sweeping_ || col != curCol_ + 1)
        throw std::logic_error(
            "AnsatzEvaluator::beginColumn: columns must be swept in order");
    if (col > 0) {
        // Env(col) = E_{col-1} . C_{col-1} . Env(col-1) . E_{col-1} .
        // C_col^dagger: the finished (committed) column joins the prefix
        // on the left, and the entered one leaves the suffix on the
        // right. The U3s are unitary, so C_col^dagger undoes C_col.
        const int prev = col - 1, d = dim_;
        for (int q = 0; q < numQubits_; ++q)
            backend_->apply2x2Rows(envRe_, envIm_, u3Re_[prev][q],
                                   u3Im_[prev][q], 1 << q, d);
        kernels::flipRows(envRe_, envIm_, flipMask_[prev], d);
        kernels::flipCols(envRe_, envIm_, flipMask_[prev], d);
        for (int q = 0; q < numQubits_; ++q) {
            const double *re = u3Re_[col][q], *im = u3Im_[col][q];
            const double daggerRe[4] = {re[0], re[2], re[1], re[3]};
            const double daggerIm[4] = {-im[0], -im[2], -im[1], -im[3]};
            backend_->apply2x2Cols(envRe_, envIm_, daggerRe, daggerIm,
                                   1 << q, d);
        }
    }
    contractUpper(col);
    curCol_ = col;
    curQubit_ = -1;
    committedMask_ = 0;
}

void
AnsatzEvaluator::beginQubit(int qubit)
{
    static obs::Counter &folds = obs::counter("compose.kernel_folds");
    folds.add();

    if (curCol_ < 0)
        throw std::logic_error("AnsatzEvaluator::beginQubit: no column");
    if (qubit < 0 || qubit >= numQubits_)
        throw std::logic_error("AnsatzEvaluator::beginQubit: no qubit " +
                               std::to_string(qubit));
    if ((committedMask_ >> (qubit + 1)) != 0)
        throw std::logic_error(
            "AnsatzEvaluator::beginQubit: a qubit above " +
            std::to_string(qubit) +
            " was committed since beginColumn, after its contraction");
    foldQubit(curCol_, qubit);
    curQubit_ = qubit;
}

void
AnsatzEvaluator::requireQubit(const char *where) const
{
    if (curQubit_ < 0)
        throw std::logic_error(std::string("AnsatzEvaluator::") + where +
                               ": no qubit selected");
}

Matrix2
AnsatzEvaluator::environment() const
{
    requireQubit("environment");
    return Matrix2({wRe_[0], wIm_[0]}, {wRe_[1], wIm_[1]},
                   {wRe_[2], wIm_[2]}, {wRe_[3], wIm_[3]});
}

Complex
AnsatzEvaluator::traceWith(const Matrix2 &u) const
{
    requireQubit("traceWith");
    double ure[4], uim[4];
    for (int j = 0; j < 4; ++j) {
        ure[j] = u.data()[j].real();
        uim[j] = u.data()[j].imag();
    }
    double tre = 0.0, tim = 0.0;
    kernels::contractW(wRe_, wIm_, ure, uim, &tre, &tim);
    return {tre, tim};
}

void
AnsatzEvaluator::commit(const Matrix2 &u)
{
    requireQubit("commit");
    for (int j = 0; j < 4; ++j) {
        u3Re_[curCol_][curQubit_][j] = u.data()[j].real();
        u3Im_[curCol_][curQubit_][j] = u.data()[j].imag();
    }
    staleMask_ |= uint64_t{1} << (curCol_ * kMaxQubits + curQubit_);
    committedMask_ |= 1 << curQubit_;
}

}  // namespace geyser
