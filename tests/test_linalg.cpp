/**
 * @file
 * Unit tests for the dense complex matrix substrate and its fixed-size
 * 2x2 counterpart.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>

#include "linalg/matrix.hpp"

namespace geyser {
namespace {

TEST(Matrix, IdentityHasOnesOnDiagonal)
{
    const auto id = Matrix::identity(4);
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            EXPECT_EQ(id(i, j), (i == j ? Complex{1.0} : Complex{}));
}

TEST(Matrix, MultiplyByIdentityIsNoop)
{
    Matrix m{{1.0, 2.0}, {Complex{0, 1}, -3.0}};
    const auto prod = m * Matrix::identity(2);
    EXPECT_NEAR(prod.maxAbsDiff(m), 0.0, 1e-15);
}

TEST(Matrix, MultiplyKnownProduct)
{
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    Matrix b{{5.0, 6.0}, {7.0, 8.0}};
    const auto c = a * b;
    EXPECT_EQ(c(0, 0), Complex{19.0});
    EXPECT_EQ(c(0, 1), Complex{22.0});
    EXPECT_EQ(c(1, 0), Complex{43.0});
    EXPECT_EQ(c(1, 1), Complex{50.0});
}

TEST(Matrix, ShapeMismatchThrows)
{
    Matrix a(2, 3);
    Matrix b(2, 3);
    EXPECT_THROW(a * b, std::invalid_argument);
    EXPECT_THROW(a.trace(), std::invalid_argument);
}

TEST(Matrix, DaggerConjugatesAndTransposes)
{
    Matrix m{{Complex{1, 2}, Complex{3, 4}}, {Complex{5, 6}, Complex{7, 8}}};
    const auto d = m.dagger();
    EXPECT_EQ(d(0, 0), (Complex{1, -2}));
    EXPECT_EQ(d(0, 1), (Complex{5, -6}));
    EXPECT_EQ(d(1, 0), (Complex{3, -4}));
    EXPECT_EQ(d(1, 1), (Complex{7, -8}));
}

TEST(Matrix, KronDimensionsAndValues)
{
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    Matrix b{{0.0, 1.0}, {1.0, 0.0}};
    const auto k = a.kron(b);
    ASSERT_EQ(k.rows(), 4);
    ASSERT_EQ(k.cols(), 4);
    EXPECT_EQ(k(0, 1), Complex{1.0});
    EXPECT_EQ(k(0, 3), Complex{2.0});
    EXPECT_EQ(k(3, 2), Complex{4.0});
    EXPECT_EQ(k(0, 0), Complex{0.0});
}

TEST(Matrix, KronWithIdentityPreservesUnitarity)
{
    const double r = 1.0 / std::sqrt(2.0);
    Matrix h{{r, r}, {r, -r}};
    EXPECT_TRUE(h.isUnitary());
    EXPECT_TRUE(h.kron(Matrix::identity(2)).isUnitary());
    EXPECT_TRUE(Matrix::identity(4).kron(h).isUnitary());
}

TEST(Matrix, TraceSumsDiagonal)
{
    Matrix m{{Complex{1, 1}, 0.0}, {0.0, Complex{2, -3}}};
    EXPECT_EQ(m.trace(), (Complex{3, -2}));
}

TEST(Matrix, FrobeniusNormOfIdentity)
{
    EXPECT_NEAR(Matrix::identity(4).frobeniusNorm(), 2.0, 1e-15);
}

TEST(Matrix, DiagonalBuilder)
{
    const auto d = Matrix::diagonal({1.0, Complex{0, 1}, -1.0});
    EXPECT_EQ(d.rows(), 3);
    EXPECT_EQ(d(1, 1), (Complex{0, 1}));
    EXPECT_EQ(d(0, 1), Complex{});
}

TEST(Matrix, IsUnitaryRejectsNonUnitary)
{
    Matrix m{{1.0, 1.0}, {0.0, 1.0}};
    EXPECT_FALSE(m.isUnitary());
}

TEST(Matrix, NanEntryPropagatesAndIsNotUnitary)
{
    // std::max(m, NaN) keeps m; the fold must not, or a NaN entry reads
    // as a 0 difference and passes isUnitary() where an infinite one
    // fails.
    const double nan = std::nan("");
    const Matrix m{{nan, 0.0}, {0.0, 1.0}};
    EXPECT_TRUE(std::isnan(m.maxAbsDiff(Matrix::identity(2))));
    EXPECT_TRUE(std::isnan(Matrix::identity(2).maxAbsDiff(m)));
    EXPECT_FALSE(m.isUnitary());
    const Matrix inf{{HUGE_VAL, 0.0}, {0.0, 1.0}};
    EXPECT_FALSE(inf.isUnitary());
}

/** Bitwise equality of both parts (distinguishes -0.0 from 0.0). */
bool
sameBits(Complex a, Complex b)
{
    return std::bit_cast<uint64_t>(a.real()) ==
               std::bit_cast<uint64_t>(b.real()) &&
           std::bit_cast<uint64_t>(a.imag()) ==
               std::bit_cast<uint64_t>(b.imag());
}

void
expectSameBits(const Matrix2 &a, const Matrix &b)
{
    ASSERT_EQ(b.rows(), 2);
    ASSERT_EQ(b.cols(), 2);
    for (int r = 0; r < 2; ++r)
        for (int c = 0; c < 2; ++c)
            EXPECT_TRUE(sameBits(a(r, c), b(r, c)))
                << "(" << r << ", " << c << "): " << a(r, c) << " vs "
                << b(r, c);
}

TEST(Matrix2, ArithmeticIsBitIdenticalToMatrix)
{
    // Entries from a pool with exact and signed zeros, so the zero skip
    // and the accumulation order both matter.
    std::mt19937_64 rng(22);
    std::uniform_real_distribution<double> uniform(-2.0, 2.0);
    std::uniform_int_distribution<int> pick(0, 5);
    auto entry = [&] {
        switch (pick(rng)) {
          case 0:
            return Complex{};
          case 1:
            return Complex{-0.0, 0.0};
          case 2:
            return Complex{uniform(rng), -0.0};
          case 3:
            return Complex{0.0, uniform(rng)};
          default:
            return Complex{uniform(rng), uniform(rng)};
        }
    };
    for (int trial = 0; trial < 2000; ++trial) {
        const Matrix2 a(entry(), entry(), entry(), entry());
        const Matrix2 b(entry(), entry(), entry(), entry());
        expectSameBits(a * b, Matrix(a) * Matrix(b));
        expectSameBits(a.dagger(), Matrix(a).dagger());
        const double diff = a.maxAbsDiff(b);
        EXPECT_EQ(std::bit_cast<uint64_t>(diff),
                  std::bit_cast<uint64_t>(Matrix(a).maxAbsDiff(Matrix(b))));
        EXPECT_EQ(a.isUnitary(), Matrix(a).isUnitary());
    }
    expectSameBits(Matrix2::identity(), Matrix::identity(2));
    expectSameBits(Matrix2(), Matrix(2, 2));
}

TEST(Matrix2, NanEntryPropagatesAndIsNotUnitary)
{
    const Matrix2 m(std::nan(""), 0.0, 0.0, 1.0);
    EXPECT_TRUE(std::isnan(m.maxAbsDiff(Matrix2::identity())));
    EXPECT_FALSE(m.isUnitary());
    const double r = 1.0 / std::sqrt(2.0);
    EXPECT_TRUE(Matrix2(r, r, r, -r).isUnitary());
    EXPECT_FALSE(Matrix2(1.0, 1.0, 0.0, 1.0).isUnitary());
}

TEST(Hsd, ZeroForEqualUnitaries)
{
    const double r = 1.0 / std::sqrt(2.0);
    Matrix h{{r, r}, {r, -r}};
    EXPECT_NEAR(hilbertSchmidtDistance(h, h), 0.0, 1e-15);
}

TEST(Hsd, ZeroUpToGlobalPhase)
{
    const double r = 1.0 / std::sqrt(2.0);
    Matrix h{{r, r}, {r, -r}};
    const auto phased = h * std::exp(kI * 0.7);
    EXPECT_NEAR(hilbertSchmidtDistance(h, phased), 0.0, 1e-12);
    EXPECT_TRUE(h.equalsUpToPhase(phased));
}

TEST(Hsd, OneishForOrthogonalUnitaries)
{
    // Tr(X^dagger Z) = 0 -> HSD = 1.
    Matrix x{{0.0, 1.0}, {1.0, 0.0}};
    Matrix z{{1.0, 0.0}, {0.0, -1.0}};
    EXPECT_NEAR(hilbertSchmidtDistance(x, z), 1.0, 1e-15);
}

TEST(Hsd, SymmetricInArguments)
{
    Matrix x{{0.0, 1.0}, {1.0, 0.0}};
    const double r = 1.0 / std::sqrt(2.0);
    Matrix h{{r, r}, {r, -r}};
    EXPECT_NEAR(hilbertSchmidtDistance(x, h), hilbertSchmidtDistance(h, x),
                1e-15);
}

}  // namespace
}  // namespace geyser
