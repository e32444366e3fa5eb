#include "opt/dual_annealing.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/types.hpp"
#include "opt/nelder_mead.hpp"

namespace geyser {

namespace {

/** Starting temperature of every annealing cycle (scipy's default). */
constexpr double kInitialTemperature = 5230.0;
/** A cycle ends when the temperature falls below this share of it. */
constexpr double kRestartTemperatureRatio = 2e-5;
/** Annealing steps per cycle. */
constexpr int kStepsPerCycle = 1000;

/** Clamp x into the box. */
void
clampToBox(std::vector<double> &x, const std::vector<double> &lo,
           const std::vector<double> &hi)
{
    for (size_t i = 0; i < x.size(); ++i)
        x[i] = std::clamp(x[i], lo[i], hi[i]);
}

}  // namespace

OptResult
dualAnnealing(const Objective &f, const std::vector<double> &lower,
              const std::vector<double> &upper,
              const DualAnnealingOptions &options)
{
    if (lower.size() != upper.size() || lower.empty())
        throw std::invalid_argument("dualAnnealing: bad bounds");
    const size_t n = lower.size();
    Rng rng(options.seed);

    OptResult result;
    auto evaluate = [&](const std::vector<double> &x) {
        ++result.evaluations;
        return f(x);
    };

    // Random start inside the box.
    std::vector<double> x(n);
    for (size_t i = 0; i < n; ++i)
        x[i] = rng.uniform(lower[i], upper[i]);
    double e = evaluate(x);
    result.x = x;
    result.value = e;

    // Nelder-Mead around the best point, after every cycle.
    auto polish = [&]() {
        NelderMeadOptions nm;
        nm.initialStep = 0.3;
        nm.maxIterations = 300;
        const auto polished = nelderMead(f, result.x, nm);
        result.evaluations += polished.evaluations;
        if (polished.value < result.value) {
            result.value = polished.value;
            result.x = polished.x;
            clampToBox(result.x, lower, upper);
        }
    };

    const double t0 = kInitialTemperature;
    const double tRestart = t0 * kRestartTemperatureRatio;
    // Visiting-step scale relative to the box size.
    std::vector<double> span(n);
    for (size_t i = 0; i < n; ++i)
        span[i] = upper[i] - lower[i];

    int cycle = 0;
    while (result.evaluations < options.maxEvaluations &&
           result.value > options.targetValue) {
        // One annealing cycle: temperature decays with the generalized
        // visiting schedule t_q = t0 * (2^{qv-1}-1) / ((1+k)^{qv-1}-1).
        constexpr double kQv = 2.62;
        const double qvm1 = kQv - 1.0;
        const double num = std::pow(2.0, qvm1) - 1.0;
        for (int k = 1; k <= kStepsPerCycle; ++k) {
            const double temp =
                t0 * num / (std::pow(1.0 + k, qvm1) - 1.0);
            if (temp < tRestart)
                break;
            if (result.evaluations >= options.maxEvaluations ||
                result.value <= options.targetValue)
                break;

            // Heavy-tailed (Cauchy) visiting move scaled by the current
            // temperature fraction, one trial per annealing step.
            std::vector<double> y = x;
            const double scale =
                std::min(1.0, temp / t0 + 1e-3);
            for (size_t i = 0; i < n; ++i) {
                const double u = rng.uniform(-0.5, 0.5);
                const double step =
                    scale * span[i] * 0.1 * std::tan(kPi * u);
                y[i] += std::clamp(step, -span[i], span[i]);
            }
            clampToBox(y, lower, upper);

            const double ey = evaluate(y);
            bool accept = ey <= e;
            if (!accept) {
                const double prob = std::exp(-(ey - e) / std::max(temp, 1e-12));
                accept = rng.bernoulli(prob);
            }
            if (accept) {
                x = y;
                e = ey;
                if (e < result.value) {
                    result.value = e;
                    result.x = x;
                }
            }
        }
        polish();
        if (result.value <= options.targetValue ||
            result.evaluations >= options.maxEvaluations)
            break;
        // Reanneal: alternate fresh uniform restarts (basin hopping)
        // with perturbations of the best-known point.
        ++cycle;
        if (cycle % 2 == 1) {
            for (size_t i = 0; i < n; ++i)
                x[i] = rng.uniform(lower[i], upper[i]);
        } else {
            x = result.x;
            for (size_t i = 0; i < n; ++i)
                x[i] = std::clamp(x[i] + 0.1 * span[i] * rng.normal(),
                                  lower[i], upper[i]);
        }
        e = evaluate(x);
    }

    polish();
    return result;
}

}  // namespace geyser
