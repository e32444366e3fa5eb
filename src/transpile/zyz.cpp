#include "transpile/zyz.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/error.hpp"

namespace geyser {

U3Params
u3FromMatrix(const Matrix2 &u)
{
    if (!u.isUnitary(1e-8))
        throw ValidationError("u3FromMatrix: not unitary");

    U3Params p;
    const Complex v00 = u(0, 0), v01 = u(0, 1), v10 = u(1, 0), v11 = u(1, 1);
    const double a00 = std::abs(v00);

    if (a00 < 1e-12) {
        // theta = pi: U3 = [[0, -e^{i lambda}], [e^{i phi}, 0]].
        p.theta = kPi;
        p.phase = 0.0;
        p.phi = std::arg(v10);
        p.lambda = std::arg(-v01);
        return p;
    }

    p.phase = std::arg(v00);
    const double c = std::clamp(a00, 0.0, 1.0);
    p.theta = 2.0 * std::acos(c);
    if (std::abs(v10) < 1e-12) {
        // theta ~ 0: diagonal matrix; only phi + lambda matters.
        p.phi = 0.0;
        p.lambda = std::arg(v11) - p.phase;
    } else {
        p.phi = std::arg(v10) - p.phase;
        p.lambda = std::arg(-v01) - p.phase;
    }
    return p;
}

bool
isIdentityUpToPhase(const Matrix2 &u, double tol)
{
    const Complex t = u(0, 0) + u(1, 1);
    return std::abs(u(0, 1)) <= tol && std::abs(u(1, 0)) <= tol &&
           std::abs(std::abs(t) - 2.0) <= tol;
}

}  // namespace geyser
