/**
 * @file
 * Nelder-Mead downhill simplex — the local-search component of the dual
 * annealing optimizer (paper Sec 3.4 uses scipy's dual annealing, which
 * pairs a generalized-annealing global phase with local minimization).
 */
#ifndef GEYSER_OPT_NELDER_MEAD_HPP
#define GEYSER_OPT_NELDER_MEAD_HPP

#include "opt/objective.hpp"

namespace geyser {

/** Options for a Nelder-Mead run. */
struct NelderMeadOptions
{
    double initialStep = 0.5;  ///< Simplex edge length around x0.
    int maxIterations = 2000;
};

/**
 * Minimize f starting from x0. Stops after options.maxIterations or
 * once the simplex's values agree to a fixed tolerance
 * (nelder_mead.cpp).
 */
OptResult nelderMead(const Objective &f, const std::vector<double> &x0,
                     const NelderMeadOptions &options = {});

}  // namespace geyser

#endif  // GEYSER_OPT_NELDER_MEAD_HPP
