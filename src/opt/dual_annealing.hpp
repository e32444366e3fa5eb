/**
 * @file
 * Dual annealing: a generalized simulated annealing global search with a
 * heavy-tailed (Cauchy) visiting distribution, geometric-restart
 * reannealing, and a Nelder-Mead local polish after each annealing cycle
 * — the C++ counterpart of scipy's dual_annealing, which the paper uses
 * to minimize the Hilbert-Schmidt distance during block composition
 * (Sec 3.4).
 */
#ifndef GEYSER_OPT_DUAL_ANNEALING_HPP
#define GEYSER_OPT_DUAL_ANNEALING_HPP

#include "common/rng.hpp"
#include "opt/objective.hpp"

namespace geyser {

/**
 * Options for a dual annealing run. The annealing schedule and the
 * Nelder-Mead polish after each cycle are constants in
 * dual_annealing.cpp: no caller tunes them.
 */
struct DualAnnealingOptions
{
    int maxEvaluations = 200000;  ///< Global evaluation budget.
    double targetValue = -1e300;  ///< Early stop when reached.
    uint64_t seed = 42;
};

/**
 * Minimize f within the box [lower, upper]^n. Stops at the evaluation
 * budget or as soon as the best value drops to targetValue.
 */
OptResult dualAnnealing(const Objective &f, const std::vector<double> &lower,
                        const std::vector<double> &upper,
                        const DualAnnealingOptions &options = {});

}  // namespace geyser

#endif  // GEYSER_OPT_DUAL_ANNEALING_HPP
