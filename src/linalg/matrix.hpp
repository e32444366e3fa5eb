/**
 * @file
 * Dense complex matrix used for gate unitaries and small-circuit unitaries.
 *
 * Dimensions in this library are small (2x2 for one-qubit gates up to a
 * few thousand for whole-circuit unitaries of <= ~10 qubits), so a plain
 * row-major dense representation is the right tool. One-qubit unitaries
 * on the transpile path and in the statevector simulator use the
 * fixed-size Matrix2 instead.
 */
#ifndef GEYSER_LINALG_MATRIX_HPP
#define GEYSER_LINALG_MATRIX_HPP

#include <array>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace geyser {

/**
 * Fixed-size 2x2 complex matrix: the one representation of a one-qubit
 * unitary on the transpile path (gate matrices, ZYZ resynthesis,
 * one-qubit fusion) and in the statevector simulator. A stack value;
 * nothing allocates.
 *
 * Its arithmetic is Matrix's, entry for entry, so a product or check
 * computed here is bit-identical to the same one on a 2x2 Matrix.
 */
class Matrix2
{
  public:
    /** Zero matrix. */
    Matrix2() = default;

    /** [[a, b], [c, d]], row by row. */
    Matrix2(Complex a, Complex b, Complex c, Complex d) : m_{{a, b, c, d}} {}

    static Matrix2 identity() { return Matrix2(1.0, 0.0, 0.0, 1.0); }

    Complex &operator()(int r, int c) { return m_[index(r, c)]; }
    const Complex &operator()(int r, int c) const { return m_[index(r, c)]; }

    /** The four entries, row by row. */
    const Complex *data() const { return m_.data(); }

    /**
     * Matrix::operator*'s loop: start from zero, skip zero entries of
     * the left factor, accumulate a * b in (i, k, j) order.
     */
    Matrix2 operator*(const Matrix2 &rhs) const
    {
        Matrix2 out;
        for (int i = 0; i < 2; ++i) {
            for (int k = 0; k < 2; ++k) {
                const Complex a = (*this)(i, k);
                if (a == Complex{})
                    continue;
                for (int j = 0; j < 2; ++j)
                    out(i, j) += a * rhs(k, j);
            }
        }
        return out;
    }

    /** Conjugate transpose. */
    Matrix2 dagger() const;

    /** Max |a_ij - b_ij|; NaN if any difference is NaN. */
    double maxAbsDiff(const Matrix2 &rhs) const;

    /** True if U U^dagger = I within tol (entrywise); false on NaN. */
    bool isUnitary(double tol = 1e-9) const;

  private:
    static size_t index(int r, int c)
    {
        return static_cast<size_t>(2 * r + c);
    }

    std::array<Complex, 4> m_{};
};

/**
 * Row-major dense complex matrix with the operations needed for quantum
 * circuit manipulation: multiplication, Kronecker product, conjugate
 * transpose, trace, and unitarity / equivalence checks.
 */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() = default;

    /** Zero-initialized rows x cols matrix. */
    Matrix(int rows, int cols);

    /** Construct from nested initializer lists (row by row). */
    Matrix(std::initializer_list<std::initializer_list<Complex>> rows);

    /** The 2x2 matrix holding a Matrix2's entries. */
    explicit Matrix(const Matrix2 &m);

    /** n x n identity. */
    static Matrix identity(int n);

    /** Diagonal matrix from the given entries. */
    static Matrix diagonal(const std::vector<Complex> &entries);

    int rows() const { return rows_; }
    int cols() const { return cols_; }

    /** Element access (no bounds check in release builds). */
    Complex &operator()(int r, int c) { return data_[index(r, c)]; }
    const Complex &operator()(int r, int c) const { return data_[index(r, c)]; }

    /** Raw storage (row-major). */
    const std::vector<Complex> &data() const { return data_; }
    std::vector<Complex> &data() { return data_; }

    Matrix operator*(const Matrix &rhs) const;
    Matrix operator*(Complex scalar) const;
    Matrix operator+(const Matrix &rhs) const;
    Matrix operator-(const Matrix &rhs) const;

    /** Conjugate transpose. */
    Matrix dagger() const;

    /** Kronecker (tensor) product: this (x) rhs. */
    Matrix kron(const Matrix &rhs) const;

    /** Sum of diagonal entries. Requires a square matrix. */
    Complex trace() const;

    /** Frobenius norm. */
    double frobeniusNorm() const;

    /** Max |a_ij - b_ij| between two same-shape matrices; NaN if any
     *  difference is NaN. */
    double maxAbsDiff(const Matrix &rhs) const;

    /** True if U U^dagger = I within tol (entrywise); false on NaN. */
    bool isUnitary(double tol = 1e-9) const;

    /**
     * True if the two matrices are equal up to a global phase, i.e.
     * |Tr(A^dagger B)| = dim within tol. Both must be unitary for this
     * test to be meaningful.
     */
    bool equalsUpToPhase(const Matrix &rhs, double tol = 1e-9) const;

    /** Human-readable form for debugging and test failure messages. */
    std::string toString(int precision = 3) const;

  private:
    size_t index(int r, int c) const
    {
        return static_cast<size_t>(r) * static_cast<size_t>(cols_) +
               static_cast<size_t>(c);
    }

    int rows_ = 0;
    int cols_ = 0;
    std::vector<Complex> data_;
};

/**
 * Hilbert-Schmidt distance between two same-dimension unitaries:
 * 1 - |Tr(U1^dagger U2)| / dim. In [0, 1]; 0 means equal up to global
 * phase. This is the composition metric of the paper (Sec 2.3).
 */
double hilbertSchmidtDistance(const Matrix &u1, const Matrix &u2);

/**
 * Eigenvalues of the real symmetric n x n matrix `a` (row-major; only
 * symmetric input is meaningful), in descending order, by cyclic Jacobi
 * rotations in plain double arithmetic. For the small eigenproblems of
 * the composer: a Hermitian k x k matrix H enters as its 2k x 2k real
 * embedding [[Re H, -Im H], [Im H, Re H]], whose spectrum is H's with
 * every eigenvalue twice.
 */
std::vector<double> symmetricEigenvalues(std::vector<double> a, int n);

}  // namespace geyser

#endif  // GEYSER_LINALG_MATRIX_HPP
