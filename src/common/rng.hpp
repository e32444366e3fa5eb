/**
 * @file
 * Deterministic random-number utilities.
 *
 * Every stochastic component in the library (annealer, trajectory
 * simulator, random circuit generators) draws from an explicitly seeded
 * Rng so that benches and tests are reproducible run-to-run.
 */
#ifndef GEYSER_COMMON_RNG_HPP
#define GEYSER_COMMON_RNG_HPP

#include <cstdint>
#include <random>
#include <vector>

namespace geyser {

/**
 * A seeded pseudo-random generator with the handful of draw shapes the
 * library needs. Thin wrapper over std::mt19937_64.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : engine_(seed) {}

    /** Uniform double in [0, 1). */
    double uniform() { return unit_(engine_); }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

    /** Uniform integer in [0, n). Requires n > 0. */
    int uniformInt(int n)
    {
        return static_cast<int>(engine_() % static_cast<uint64_t>(n));
    }

    /** Standard normal draw. */
    double normal() { return normal_(engine_); }

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p) { return uniform() < p; }

    /** A vector of n uniform draws in [lo, hi). */
    std::vector<double> uniformVector(int n, double lo, double hi);

    /** Access to the raw engine for std distributions. */
    std::mt19937_64 &engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
    std::uniform_real_distribution<double> unit_{0.0, 1.0};
    std::normal_distribution<double> normal_{0.0, 1.0};
};

}  // namespace geyser

#endif  // GEYSER_COMMON_RNG_HPP
