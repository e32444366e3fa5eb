#include "linalg/matrix.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <vector>

#include "linalg/kernels/backend.hpp"

namespace geyser {

namespace {

/** std::max(m, d) that keeps a NaN. std::max(m, NaN) returns m, so a
 *  NaN matrix would pass isUnitary(). */
double
maxKeepingNan(double m, double d)
{
    return std::isnan(d) || d > m ? d : m;
}

}  // namespace

Matrix2
Matrix2::dagger() const
{
    Matrix2 out;
    for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j)
            out(j, i) = std::conj((*this)(i, j));
    return out;
}

double
Matrix2::maxAbsDiff(const Matrix2 &rhs) const
{
    double m = 0.0;
    for (size_t i = 0; i < m_.size(); ++i)
        m = maxKeepingNan(m, std::abs(m_[i] - rhs.m_[i]));
    return m;
}

bool
Matrix2::isUnitary(double tol) const
{
    const Matrix2 prod = (*this) * dagger();
    return prod.maxAbsDiff(identity()) <= tol;
}

Matrix::Matrix(int rows, int cols)
    : rows_(rows), cols_(cols),
      data_(static_cast<size_t>(rows) * static_cast<size_t>(cols))
{
    assert(rows >= 0 && cols >= 0);
}

Matrix::Matrix(std::initializer_list<std::initializer_list<Complex>> rows)
{
    rows_ = static_cast<int>(rows.size());
    cols_ = rows_ > 0 ? static_cast<int>(rows.begin()->size()) : 0;
    data_.reserve(static_cast<size_t>(rows_) * static_cast<size_t>(cols_));
    for (const auto &row : rows) {
        if (static_cast<int>(row.size()) != cols_)
            throw std::invalid_argument("Matrix: ragged initializer list");
        for (const auto &v : row)
            data_.push_back(v);
    }
}

Matrix::Matrix(const Matrix2 &m)
    : rows_(2), cols_(2), data_{m(0, 0), m(0, 1), m(1, 0), m(1, 1)}
{
}

Matrix
Matrix::identity(int n)
{
    Matrix m(n, n);
    for (int i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

Matrix
Matrix::diagonal(const std::vector<Complex> &entries)
{
    int n = static_cast<int>(entries.size());
    Matrix m(n, n);
    for (int i = 0; i < n; ++i)
        m(i, i) = entries[static_cast<size_t>(i)];
    return m;
}

Matrix
Matrix::operator*(const Matrix &rhs) const
{
    if (cols_ != rhs.rows_)
        throw std::invalid_argument("Matrix multiply: shape mismatch");

    // Dense square products route through the dispatched SIMD backend.
    // The zero-skip loop below stays: circuit-unitary expansion
    // multiplies mostly-zero gate embeddings, where skipping beats
    // vectorizing. 25% non-zero is the crossover gate.
    if (rows_ == cols_ && rhs.rows_ == rhs.cols_ && rows_ >= 8) {
        size_t nonZero = 0;
        for (const auto &v : data_)
            if (v != Complex{})
                ++nonZero;
        if (nonZero * 4 > data_.size()) {
            const size_t n = data_.size();
            std::vector<double> split(6 * n);
            double *aRe = split.data(), *aIm = aRe + n;
            double *bRe = aIm + n, *bIm = bRe + n;
            double *oRe = bIm + n, *oIm = oRe + n;
            for (size_t i = 0; i < n; ++i) {
                aRe[i] = data_[i].real();
                aIm[i] = data_[i].imag();
                bRe[i] = rhs.data_[i].real();
                bIm[i] = rhs.data_[i].imag();
            }
            kernels::active().matmul(aRe, aIm, bRe, bIm, oRe, oIm, rows_);
            Matrix out(rows_, cols_);
            for (size_t i = 0; i < n; ++i)
                out.data_[i] = {oRe[i], oIm[i]};
            return out;
        }
    }

    Matrix out(rows_, rhs.cols_);
    for (int i = 0; i < rows_; ++i) {
        for (int k = 0; k < cols_; ++k) {
            const Complex a = (*this)(i, k);
            if (a == Complex{})
                continue;
            for (int j = 0; j < rhs.cols_; ++j)
                out(i, j) += a * rhs(k, j);
        }
    }
    return out;
}

Matrix
Matrix::operator*(Complex scalar) const
{
    Matrix out = *this;
    for (auto &v : out.data_)
        v *= scalar;
    return out;
}

Matrix
Matrix::operator+(const Matrix &rhs) const
{
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
        throw std::invalid_argument("Matrix add: shape mismatch");
    Matrix out = *this;
    for (size_t i = 0; i < data_.size(); ++i)
        out.data_[i] += rhs.data_[i];
    return out;
}

Matrix
Matrix::operator-(const Matrix &rhs) const
{
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
        throw std::invalid_argument("Matrix subtract: shape mismatch");
    Matrix out = *this;
    for (size_t i = 0; i < data_.size(); ++i)
        out.data_[i] -= rhs.data_[i];
    return out;
}

Matrix
Matrix::dagger() const
{
    Matrix out(cols_, rows_);
    for (int i = 0; i < rows_; ++i)
        for (int j = 0; j < cols_; ++j)
            out(j, i) = std::conj((*this)(i, j));
    return out;
}

Matrix
Matrix::kron(const Matrix &rhs) const
{
    Matrix out(rows_ * rhs.rows_, cols_ * rhs.cols_);
    for (int i = 0; i < rows_; ++i) {
        for (int j = 0; j < cols_; ++j) {
            const Complex a = (*this)(i, j);
            if (a == Complex{})
                continue;
            for (int p = 0; p < rhs.rows_; ++p)
                for (int q = 0; q < rhs.cols_; ++q)
                    out(i * rhs.rows_ + p, j * rhs.cols_ + q) = a * rhs(p, q);
        }
    }
    return out;
}

Complex
Matrix::trace() const
{
    if (rows_ != cols_)
        throw std::invalid_argument("Matrix trace: not square");
    Complex t{};
    for (int i = 0; i < rows_; ++i)
        t += (*this)(i, i);
    return t;
}

double
Matrix::frobeniusNorm() const
{
    double s = 0.0;
    for (const auto &v : data_)
        s += std::norm(v);
    return std::sqrt(s);
}

double
Matrix::maxAbsDiff(const Matrix &rhs) const
{
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
        throw std::invalid_argument("maxAbsDiff: shape mismatch");
    double m = 0.0;
    for (size_t i = 0; i < data_.size(); ++i)
        m = maxKeepingNan(m, std::abs(data_[i] - rhs.data_[i]));
    return m;
}

bool
Matrix::isUnitary(double tol) const
{
    if (rows_ != cols_)
        return false;
    const Matrix prod = (*this) * dagger();
    return prod.maxAbsDiff(identity(rows_)) <= tol;
}

bool
Matrix::equalsUpToPhase(const Matrix &rhs, double tol) const
{
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_ || rows_ != cols_)
        return false;
    return hilbertSchmidtDistance(*this, rhs) <= tol;
}

std::string
Matrix::toString(int precision) const
{
    std::string out;
    char buf[64];
    for (int i = 0; i < rows_; ++i) {
        out += "[ ";
        for (int j = 0; j < cols_; ++j) {
            const Complex v = (*this)(i, j);
            std::snprintf(buf, sizeof(buf), "%.*f%+.*fi ", precision,
                          v.real(), precision, v.imag());
            out += buf;
        }
        out += "]\n";
    }
    return out;
}

double
hilbertSchmidtDistance(const Matrix &u1, const Matrix &u2)
{
    if (u1.rows() != u2.rows() || u1.cols() != u2.cols())
        throw std::invalid_argument("HSD: shape mismatch");
    // Tr(U1^dagger U2) without forming the product matrix.
    Complex t{};
    for (int i = 0; i < u1.rows(); ++i)
        for (int j = 0; j < u1.cols(); ++j)
            t += std::conj(u1(i, j)) * u2(i, j);
    return 1.0 - std::abs(t) / static_cast<double>(u1.rows());
}

std::vector<double>
symmetricEigenvalues(std::vector<double> a, int n)
{
    if (n < 0 || a.size() != static_cast<size_t>(n) * static_cast<size_t>(n))
        throw std::invalid_argument("symmetricEigenvalues: shape mismatch");
    auto at = [&](int r, int c) -> double & {
        return a[static_cast<size_t>(r) * static_cast<size_t>(n) +
                 static_cast<size_t>(c)];
    };
    double total = 0.0;
    for (const double v : a)
        total += v * v;
    // Jacobi converges quadratically: a handful of sweeps take the
    // off-diagonal mass down to rounding, which is where this stops.
    for (int sweep = 0; sweep < 64; ++sweep) {
        double off = 0.0;
        for (int p = 0; p < n; ++p)
            for (int q = p + 1; q < n; ++q)
                off += at(p, q) * at(p, q);
        if (off <= 1e-30 * total)
            break;
        for (int p = 0; p < n; ++p) {
            for (int q = p + 1; q < n; ++q) {
                const double apq = at(p, q);
                if (apq == 0.0)
                    continue;
                // The rotation (c, s) = (cos, sin) of the angle that
                // zeroes a_pq in J^T A J; t is its tangent, the smaller
                // root of t^2 + 2 theta t - 1 = 0.
                const double theta = (at(q, q) - at(p, p)) / (2.0 * apq);
                const double t =
                    (theta >= 0.0 ? 1.0 : -1.0) /
                    (std::abs(theta) + std::sqrt(theta * theta + 1.0));
                const double c = 1.0 / std::sqrt(t * t + 1.0);
                const double s = t * c;
                for (int k = 0; k < n; ++k) {
                    const double akp = at(k, p), akq = at(k, q);
                    at(k, p) = c * akp - s * akq;
                    at(k, q) = s * akp + c * akq;
                }
                for (int k = 0; k < n; ++k) {
                    const double apk = at(p, k), aqk = at(q, k);
                    at(p, k) = c * apk - s * aqk;
                    at(q, k) = s * apk + c * aqk;
                }
            }
        }
    }
    std::vector<double> eigenvalues(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        eigenvalues[static_cast<size_t>(i)] = at(i, i);
    std::sort(eigenvalues.begin(), eigenvalues.end(), std::greater<>());
    return eigenvalues;
}

}  // namespace geyser
