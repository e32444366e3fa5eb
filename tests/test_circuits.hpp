/**
 * @file
 * Circuits shared by several test files: physical circuits whose U3
 * angles sit on the branches of the transpiler's angle tests (0, +-pi
 * and 2*pi, near-identity values and random values), and the skeletons
 * of perfbench's fleet-sweep workload.
 */
#ifndef GEYSER_TESTS_TEST_CIRCUITS_HPP
#define GEYSER_TESTS_TEST_CIRCUITS_HPP

#include <vector>

#include "algos/algos.hpp"
#include "circuit/circuit.hpp"
#include "common/rng.hpp"

namespace geyser {

/**
 * One angle from the grid: 0, pi, -pi or 2*pi, a near-identity value,
 * or (half the time) a uniform value in [-2*pi, 2*pi).
 */
inline double
gridAngle(Rng &rng)
{
    const double nearIdentity[] = {
        1e-9, -1e-9, 5e-9, -5e-9, 1e-8, -1e-8, 2e-8, -2e-8,
        2.0 * kPi + 1e-8, 2.0 * kPi - 1e-8, 4.0 * kPi};
    switch (rng.uniformInt(8)) {
      case 0:
        return 0.0;
      case 1:
        return kPi;
      case 2:
        return -kPi;
      case 3:
        return 2.0 * kPi;
      case 4:
        return nearIdentity[rng.uniformInt(11)];
      default:
        return rng.uniform(-2.0 * kPi, 2.0 * kPi);
    }
}

/**
 * A physical circuit whose U3 angles come from gridAngle, so runs hit
 * identity products, the theta = pi branch and the diagonal branch of
 * the ZYZ decomposition, and lone gates fall on both sides of
 * fuseU3Pass's |sin(theta/2)| > 1e-8 pre-test; CZ and CCZ gates sit
 * between the U3s.
 */
inline Circuit
gridCircuit(int width, int numGates, Rng &rng)
{
    auto angle = [&] { return gridAngle(rng); };
    Circuit c(width);
    for (int i = 0; i < numGates; ++i) {
        const int kind = rng.uniformInt(10);
        if (kind == 0 && width >= 2) {
            const int a = rng.uniformInt(width);
            const int b = (a + 1 + rng.uniformInt(width - 1)) % width;
            c.cz(a, b);
        } else if (kind == 1 && width >= 3) {
            const int a = rng.uniformInt(width);
            const int b = (a + 1 + rng.uniformInt(width - 1)) % width;
            int d = rng.uniformInt(width);
            while (d == a || d == b)
                d = rng.uniformInt(width);
            c.ccz(a, b, d);
        } else {
            const double theta = angle();
            const double phi = angle();
            c.u3(rng.uniformInt(width), theta, phi, angle());
        }
    }
    return c;
}

/**
 * The four skeletons of perfbench's fleet-sweep workload
 * (perfbench/fleet_sweep.cpp): VQE 4x1 and 4x2 at its operating
 * points, then the Toffoli pair and the Toffoli ladder.
 */
inline std::vector<Circuit>
fleetSweepSkeletons()
{
    Circuit pair(4);
    pair.h(0);
    pair.h(1);
    pair.ccx(0, 1, 2);
    pair.ry(3, 1.1);
    pair.ccx(1, 2, 3);
    pair.rz(0, 2.3);
    pair.cx(0, 3);
    Circuit ladder(3);
    ladder.ry(0, 0.7);
    ladder.ry(1, 1.9);
    ladder.ry(2, 2.6);
    ladder.ccx(0, 1, 2);
    ladder.h(2);
    ladder.ccx(2, 0, 1);
    ladder.rz(0, 0.4);
    ladder.rz(1, 1.3);
    ladder.rz(2, 2.2);
    return {vqeBenchmark(4, 1, 20220611), vqeBenchmark(4, 2, 20220612),
            pair, ladder};
}

}  // namespace geyser

#endif  // GEYSER_TESTS_TEST_CIRCUITS_HPP
