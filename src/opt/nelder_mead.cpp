#include "opt/nelder_mead.hpp"

#include <algorithm>
#include <cmath>

namespace geyser {

namespace {

/** Stop once the simplex's values spread by less than this. */
constexpr double kTolerance = 1e-12;

}  // namespace

OptResult
nelderMead(const Objective &f, const std::vector<double> &x0,
           const NelderMeadOptions &options)
{
    const size_t n = x0.size();
    OptResult result;

    // Build the initial simplex: x0 plus one offset vertex per dimension.
    std::vector<std::vector<double>> simplex(n + 1, x0);
    for (size_t i = 0; i < n; ++i)
        simplex[i + 1][i] += options.initialStep;

    std::vector<double> values(n + 1);
    for (size_t i = 0; i <= n; ++i) {
        values[i] = f(simplex[i]);
        ++result.evaluations;
    }

    constexpr double kAlpha = 1.0;   // reflection
    constexpr double kGamma = 2.0;   // expansion
    constexpr double kRho = 0.5;     // contraction
    constexpr double kSigma = 0.5;   // shrink

    std::vector<size_t> order(n + 1);
    for (int iter = 0; iter < options.maxIterations; ++iter) {
        for (size_t i = 0; i <= n; ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](size_t a, size_t b) { return values[a] < values[b]; });
        const size_t best = order[0];
        const size_t worst = order[n];
        const size_t second = order[n - 1];

        if (values[worst] - values[best] < kTolerance)
            break;

        // Centroid of all but the worst vertex.
        std::vector<double> centroid(n, 0.0);
        for (size_t i = 0; i <= n; ++i) {
            if (i == worst)
                continue;
            for (size_t d = 0; d < n; ++d)
                centroid[d] += simplex[i][d];
        }
        for (auto &c : centroid)
            c /= static_cast<double>(n);

        auto blend = [&](double coeff) {
            std::vector<double> x(n);
            for (size_t d = 0; d < n; ++d)
                x[d] = centroid[d] + coeff * (centroid[d] - simplex[worst][d]);
            return x;
        };

        const auto reflected = blend(kAlpha);
        const double fr = f(reflected);
        ++result.evaluations;

        if (fr < values[best]) {
            const auto expanded = blend(kGamma);
            const double fe = f(expanded);
            ++result.evaluations;
            if (fe < fr) {
                simplex[worst] = expanded;
                values[worst] = fe;
            } else {
                simplex[worst] = reflected;
                values[worst] = fr;
            }
        } else if (fr < values[second]) {
            simplex[worst] = reflected;
            values[worst] = fr;
        } else {
            const auto contracted = blend(-kRho);
            const double fc = f(contracted);
            ++result.evaluations;
            if (fc < values[worst]) {
                simplex[worst] = contracted;
                values[worst] = fc;
            } else {
                // Shrink toward the best vertex.
                for (size_t i = 0; i <= n; ++i) {
                    if (i == best)
                        continue;
                    for (size_t d = 0; d < n; ++d)
                        simplex[i][d] = simplex[best][d] +
                            kSigma * (simplex[i][d] - simplex[best][d]);
                    values[i] = f(simplex[i]);
                    ++result.evaluations;
                }
            }
        }
    }

    size_t best = 0;
    for (size_t i = 1; i <= n; ++i)
        if (values[i] < values[best])
            best = i;
    result.x = simplex[best];
    result.value = values[best];
    return result;
}

}  // namespace geyser
