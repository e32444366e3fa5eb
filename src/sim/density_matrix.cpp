#include "sim/density_matrix.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace geyser {

DensityMatrix::DensityMatrix(int num_qubits)
    : numQubits_(num_qubits),
      rho_(1 << num_qubits, 1 << num_qubits)
{
    if (num_qubits < 0 || num_qubits > 8)
        throw std::invalid_argument(
            "DensityMatrix: too many qubits for exact simulation");
    rho_(0, 0) = 1.0;
}

void
DensityMatrix::applyMatrix(const Matrix &u, const std::vector<Qubit> &qubits)
{
    const int k = static_cast<int>(qubits.size());
    const size_t sub = size_t{1} << k;
    const size_t d = dim();
    assert(u.rows() == static_cast<int>(sub));

    size_t qmask = 0;
    for (const Qubit q : qubits)
        qmask |= size_t{1} << q;

    Complex local[8], out[8];
    const size_t outer = d >> k;

    auto expand = [&](size_t o) {
        size_t base = 0;
        size_t rem = o;
        for (int bit = 0; bit < numQubits_; ++bit) {
            const size_t bmask = size_t{1} << bit;
            if (qmask & bmask)
                continue;
            if (rem & 1)
                base |= bmask;
            rem >>= 1;
        }
        return base;
    };
    auto lift = [&](size_t base, size_t v) {
        size_t idx = base;
        for (int b = 0; b < k; ++b)
            if (v & (size_t{1} << b))
                idx |= size_t{1} << qubits[static_cast<size_t>(b)];
        return idx;
    };

    // rho -> U rho (transform the row space of every column).
    for (size_t c = 0; c < d; ++c) {
        for (size_t o = 0; o < outer; ++o) {
            const size_t base = expand(o);
            for (size_t v = 0; v < sub; ++v)
                local[v] = rho_(static_cast<int>(lift(base, v)),
                                static_cast<int>(c));
            for (size_t r = 0; r < sub; ++r) {
                Complex acc{};
                for (size_t kk = 0; kk < sub; ++kk)
                    acc += u(static_cast<int>(r), static_cast<int>(kk)) *
                           local[kk];
                out[r] = acc;
            }
            for (size_t v = 0; v < sub; ++v)
                rho_(static_cast<int>(lift(base, v)), static_cast<int>(c)) =
                    out[v];
        }
    }
    // rho -> rho U^dagger (transform the column space of every row,
    // with conj(u)).
    for (size_t r = 0; r < d; ++r) {
        for (size_t o = 0; o < outer; ++o) {
            const size_t base = expand(o);
            for (size_t v = 0; v < sub; ++v)
                local[v] = rho_(static_cast<int>(r),
                                static_cast<int>(lift(base, v)));
            for (size_t c = 0; c < sub; ++c) {
                Complex acc{};
                for (size_t kk = 0; kk < sub; ++kk)
                    acc += std::conj(u(static_cast<int>(c),
                                       static_cast<int>(kk))) *
                           local[kk];
                out[c] = acc;
            }
            for (size_t v = 0; v < sub; ++v)
                rho_(static_cast<int>(r), static_cast<int>(lift(base, v))) =
                    out[v];
        }
    }
}

void
DensityMatrix::apply(const Gate &gate)
{
    std::vector<Qubit> qs;
    qs.reserve(static_cast<size_t>(gate.numQubits()));
    for (int i = 0; i < gate.numQubits(); ++i)
        qs.push_back(gate.qubit(i));
    applyMatrix(gate.matrix(), qs);
}

void
DensityMatrix::apply(const Circuit &circuit)
{
    if (circuit.numQubits() > numQubits_)
        throw std::invalid_argument("DensityMatrix::apply: circuit too wide");
    for (const auto &g : circuit.gates())
        apply(g);
}

void
DensityMatrix::applyFlipChannel(Qubit qubit, double bit_flip,
                                double phase_flip)
{
    const size_t mask = size_t{1} << qubit;
    const size_t d = dim();
    if (bit_flip > 0.0) {
        // rho' = (1-p) rho + p X rho X.
        Matrix next(static_cast<int>(d), static_cast<int>(d));
        for (size_t r = 0; r < d; ++r)
            for (size_t c = 0; c < d; ++c)
                next(static_cast<int>(r), static_cast<int>(c)) =
                    (1.0 - bit_flip) * rho_(static_cast<int>(r),
                                            static_cast<int>(c)) +
                    bit_flip * rho_(static_cast<int>(r ^ mask),
                                    static_cast<int>(c ^ mask));
        rho_ = std::move(next);
    }
    if (phase_flip > 0.0) {
        // rho' = (1-p) rho + p Z rho Z: off-diagonal (in this qubit)
        // entries are scaled by (1 - 2p).
        for (size_t r = 0; r < d; ++r) {
            for (size_t c = 0; c < d; ++c) {
                const bool rb = r & mask, cb = c & mask;
                if (rb != cb)
                    rho_(static_cast<int>(r), static_cast<int>(c)) *=
                        1.0 - 2.0 * phase_flip;
            }
        }
    }
}

void
DensityMatrix::applyAmplitudeDamping(Qubit qubit, double gamma)
{
    // Per 2x2 block of the qubit: K1 moves the |1><1| entry onto
    // |0><0|, K0 scales the coherences by sqrt(1 - gamma) and what
    // stays in |1><1| by 1 - gamma.
    const size_t mask = size_t{1} << qubit;
    const double keep = std::sqrt(1.0 - gamma);
    const auto at = [this](size_t r, size_t c) -> Complex & {
        return rho_(static_cast<int>(r), static_cast<int>(c));
    };
    for (size_t r = 0; r < dim(); ++r) {
        if (r & mask)
            continue;
        for (size_t c = 0; c < dim(); ++c) {
            if (c & mask)
                continue;
            at(r, c) += gamma * at(r | mask, c | mask);
            at(r, c | mask) *= keep;
            at(r | mask, c) *= keep;
            at(r | mask, c | mask) *= 1.0 - gamma;
        }
    }
}

void
DensityMatrix::applyNoisy(const Gate &gate, const NoiseModel &noise)
{
    apply(gate);
    const double pb = noise.bitFlipFor(gate);
    const double pp = noise.phaseFlipFor(gate);
    for (int i = 0; i < gate.numQubits(); ++i)
        applyFlipChannel(gate.qubit(i), pb, pp);
    if (noise.ampDamping > 0.0)
        for (int i = 0; i < gate.numQubits(); ++i)
            applyAmplitudeDamping(gate.qubit(i), noise.ampDamping);
}

void
DensityMatrix::applyNoisy(const Circuit &circuit, const NoiseModel &noise)
{
    if (circuit.numQubits() > numQubits_)
        throw std::invalid_argument("DensityMatrix: circuit too wide");
    for (const auto &g : circuit.gates())
        applyNoisy(g, noise);
}

Distribution
DensityMatrix::probabilities() const
{
    Distribution p(dim());
    for (size_t i = 0; i < dim(); ++i)
        p[i] = rho_(static_cast<int>(i), static_cast<int>(i)).real();
    return p;
}

double
DensityMatrix::traceReal() const
{
    return rho_.trace().real();
}

double
DensityMatrix::purity() const
{
    // Tr(rho^2) = sum_ij rho_ij rho_ji = sum_ij |rho_ij|^2 (Hermitian).
    double s = 0.0;
    for (const auto &v : rho_.data())
        s += std::norm(v);
    return s;
}

Distribution
exactNoisyDistribution(const Circuit &circuit, const NoiseModel &noise)
{
    const std::pair<const char *, double> unmodelled[] = {
        {"atomLoss", noise.atomLoss},
        {"crosstalkPhase", noise.crosstalkPhase},
        {"idleDephasing", noise.idleDephasing},
        {"lossPerGate", noise.lossPerGate},
        {"correlatedPauli", noise.correlatedPauli},
        {"readoutError", noise.readoutError},
    };
    std::string named;
    for (const auto &[name, rate] : unmodelled)
        if (rate != 0.0)
            named += std::string(named.empty() ? "" : ", ") + name;
    if (!named.empty())
        throw ValidationError(
            "exactNoisyDistribution: the density-matrix reference models "
            "bit/phase flips and amplitude damping only; " +
            named + " must be 0");
    obs::Span span("sim.density_matrix", "sim");
    span.arg("qubits", circuit.numQubits());
    span.arg("gates", static_cast<double>(circuit.size()));
    static obs::Counter &runs = obs::counter("sim.density_matrix_runs");
    runs.add();
    DensityMatrix dm(circuit.numQubits());
    dm.applyNoisy(circuit, noise);
    return dm.probabilities();
}

}  // namespace geyser
