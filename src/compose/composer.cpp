#include "compose/composer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "blocking/blocker.hpp"
#include "common/cancel.hpp"
#include "common/rng.hpp"
#include "io/framing.hpp"
#include "linalg/kernels/backend.hpp"
#include "obs/obs.hpp"
#include "opt/dual_annealing.hpp"
#include "sim/unitary_sim.hpp"
#include "transpile/zyz.hpp"
#include "verify/equivalence.hpp"

namespace geyser {

// The HSD objective helper lives in the verification layer, shared with
// the equivalence checkers.
using verify::hsdFromTrace;

namespace {

// The search setup of Algorithm 2. No caller tunes these: every compile
// runs on this one footing, and kPipelineVersion covers any change.

/** Hard cap on ansatz layers tried. */
constexpr int kMaxLayers = 6;
/** Rotosolve restarts per layer depth (zeros, near-zeros, random). */
constexpr int kRestarts = 8;
/** Rotosolve sweep budget per restart. */
constexpr int kMaxSweeps = 400;
/**
 * Objective-evaluation budget per ansatz depth tried for one block
 * (each depth gets a fresh slice, so deeper — often easier — ansatze
 * are never starved by failed shallow searches). One evaluation is one
 * qubit's environment update; this is 60000 / 9, rounded up, from when
 * an update cost up to 9 one-angle probes, so no depth gets fewer
 * sweeps. Blocks that cannot compose keep their original circuit, as
 * always.
 */
constexpr long kMaxEvaluationsPerBlock = 6667;
/** Dual-annealing evaluation budget per layer depth (DualAnnealing). */
constexpr int kAnnealingEvaluations = 60000;
/**
 * When a whole block fails to compose, split it at the midpoint and
 * compose the halves independently, recursively to this depth.
 * Over-greedy blocks often contain recomposable sub-patterns (e.g. a
 * full Toffoli inside a long MAJ/UMA chain) even when the whole block
 * exceeds the expressible ansatz depth.
 */
constexpr int kMaxSplitDepth = 2;
/** Search seed of a whole block; split halves derive theirs from it. */
constexpr uint64_t kSeed = 7;
/** HSD acceptance threshold (public as ComposeOptions::threshold). */
constexpr double kThreshold = ComposeOptions::threshold;
/**
 * How far depthOneHsdBound() must clear the threshold to skip a search:
 * far above the bound's rounding (~1e-14), far below the threshold.
 */
constexpr double kCertificateMargin = 1e-9;

/** Exact resynthesis of a block with no entangling gates. */
ComposeResult
composeWithoutEntanglers(const Circuit &block)
{
    ComposeResult result;
    result.composed = true;
    result.hsd = 0.0;

    Circuit out(block.numQubits());
    for (Qubit q = 0; q < block.numQubits(); ++q) {
        Matrix2 m = Matrix2::identity();
        bool any = false;
        for (const auto &g : block.gates()) {
            if (g.numQubits() == 1 && g.qubit(0) == q) {
                m = g.matrix2() * m;
                any = true;
            }
        }
        if (any && !isIdentityUpToPhase(m)) {
            const U3Params p = u3FromMatrix(m);
            out.u3(q, p.theta, p.phi, p.lambda);
        }
    }
    result.circuit = std::move(out);
    return result;
}

/** The two largest operator-Schmidt coefficients across each one-qubit cut. */
using CutSpectra = std::vector<std::array<double, 2>>;

/**
 * `u`'s coefficients across the cut of local qubit q from the others,
 * for every q. Realigned into a 4 x (d/2)^2 matrix R, whose rows index
 * (r_q, c_q) and whose columns index the other qubits' (r, c), u's
 * coefficients are R's singular values: the square roots of the
 * eigenvalues of the 4 x 4 Hermitian Gram R R^dagger.
 */
CutSpectra
cutSpectra(const Matrix &u)
{
    const int d = u.rows();
    const int rest = d / 2 * (d / 2);
    CutSpectra spectra;
    for (int q = 0; (1 << q) < d; ++q) {
        auto others = [q](int i) {
            return ((i >> (q + 1)) << q) | (i & ((1 << q) - 1));
        };
        std::vector<Complex> realigned(static_cast<size_t>(4 * rest));
        for (int r = 0; r < d; ++r)
            for (int c = 0; c < d; ++c)
                realigned[static_cast<size_t>(
                    (((r >> q) & 1) * 2 + ((c >> q) & 1)) * rest +
                    others(r) * (d / 2) + others(c))] = u(r, c);
        // The Gram's real embedding [[Re G, -Im G], [Im G, Re G]].
        std::vector<double> embedding(64);
        for (int i = 0; i < 4; ++i) {
            for (int j = 0; j < 4; ++j) {
                const Complex *a = realigned.data() + i * rest;
                const Complex *b = realigned.data() + j * rest;
                double re = 0.0, im = 0.0;
                for (int k = 0; k < rest; ++k) {
                    re += a[k].real() * b[k].real() +
                          a[k].imag() * b[k].imag();
                    im += a[k].imag() * b[k].real() -
                          a[k].real() * b[k].imag();
                }
                embedding[static_cast<size_t>(i * 8 + j)] = re;
                embedding[static_cast<size_t>((i + 4) * 8 + j + 4)] = re;
                embedding[static_cast<size_t>(i * 8 + j + 4)] = -im;
                embedding[static_cast<size_t>((i + 4) * 8 + j)] = im;
            }
        }
        // Each eigenvalue appears twice; rounding can leave a zero one
        // slightly negative.
        const std::vector<double> ev =
            symmetricEigenvalues(std::move(embedding), 8);
        spectra.push_back({std::sqrt(std::max(ev[0], 0.0)),
                           std::sqrt(std::max(ev[2], 0.0))});
    }
    return spectra;
}

/** depthOneHsdBound() from the target's spectra. */
double
depthOneBound(const CutSpectra &target, Entangler e, int num_qubits)
{
    const int d = 1 << num_qubits;
    const int mask = entanglerFlipMask(e, num_qubits);
    Matrix entangler = Matrix::identity(d);
    for (int r = 0; r < d; ++r)
        if ((r & mask) == mask)
            entangler(r, r) = -1.0;
    const CutSpectra tau = cutSpectra(entangler);
    double bound = 0.0;
    for (size_t q = 0; q < target.size(); ++q) {
        const double overlap =
            target[q][0] * tau[q][0] + target[q][1] * tau[q][1];
        bound = std::max(bound, 1.0 - overlap / static_cast<double>(d));
    }
    return bound;
}

}  // namespace

double
depthOneHsdBound(const Matrix &target, Entangler e)
{
    const int d = target.rows();
    if (target.cols() != d || (d != 4 && d != 8))
        throw std::invalid_argument(
            "depthOneHsdBound: target must be 2- or 3-qubit");
    return depthOneBound(cutSpectra(target), e, d == 4 ? 2 : 3);
}

std::optional<Matrix2>
environmentUpdate(const Matrix2 &w)
{
    const Complex w00 = w(0, 0), w01 = w(0, 1), w10 = w(1, 0), w11 = w(1, 1);
    const Complex det = w00 * w11 - w01 * w10;
    const double absDet = std::abs(det);
    const double s = std::sqrt(std::norm(w00) + std::norm(w01) +
                               std::norm(w10) + std::norm(w11) +
                               2.0 * absDet);
    if (!(s > 0.0))
        return std::nullopt;
    // e^{-i arg det W}; a rank-1 W has sigma_2 = 0, so any unit phase
    // reaches the optimum there, and it takes 1.
    const Complex phase = absDet > 0.0 ? std::conj(det) / absDet : 1.0;
    return Matrix2((std::conj(w00) + phase * w11) / s,
                   (std::conj(w01) - phase * w10) / s,
                   (std::conj(w10) - phase * w01) / s,
                   (std::conj(w11) + phase * w00) / s);
}

double
updateQubit(AnsatzEvaluator &evaluator, double best)
{
    const std::optional<Matrix2> u = environmentUpdate(evaluator.environment());
    if (!u)
        return best;
    // Keep U only if an actual contraction confirms it: `best` must
    // track the true trace, not the closed form's optimum.
    const double actual =
        hsdFromTrace(evaluator.traceWith(*u), evaluator.dim());
    if (actual > best + 1e-15)
        return best;
    evaluator.commit(*u);
    return actual;
}

namespace {

/** rotosolve()'s sweeps, from `best` at the evaluator's angles. */
void
sweepUntil(AnsatzEvaluator &evaluator, int max_sweeps, double stop_at,
           double best, long &evaluations, const CancelToken *cancel)
{
    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
        if (cancel != nullptr)
            cancel->checkpoint("compose");
        const double sweepStart = best;
        evaluator.beginSweep();
        for (int col = 0; col < evaluator.columns(); ++col) {
            evaluator.beginColumn(col);
            for (int q = 0; q < evaluator.numQubits(); ++q) {
                evaluator.beginQubit(q);
                ++evaluations;
                best = updateQubit(evaluator, best);
                if (best <= stop_at)
                    return;
            }
        }
        // Early-abandon by convergence projection: coordinate descent
        // shrinks the gap to the target roughly geometrically. If the
        // observed per-sweep ratio cannot close the gap within the
        // remaining sweep budget, stop now (basin hops will try a
        // different start instead).
        const double gapBefore = sweepStart - stop_at;
        const double gapAfter = best - stop_at;
        if (gapAfter <= 0.0)
            break;
        const double ratio = gapAfter / std::max(gapBefore, 1e-300);
        if (ratio >= 1.0 - 1e-12)
            break;  // No measurable progress.
        // Early convergence is often slower than the asymptotic rate, so
        // only project after a few sweeps and keep a 2x safety factor.
        if (sweep < 8)
            continue;
        const double margin = std::max(0.5 * stop_at, 1e-12);
        const double needed =
            std::log(gapAfter / margin) / -std::log(ratio);
        if (needed > 2.0 * static_cast<double>(max_sweeps - sweep - 1))
            break;
    }
}

}  // namespace

double
rotosolve(AnsatzEvaluator &evaluator, int max_sweeps, double stop_at,
          long &evaluations, const CancelToken *cancel)
{
    ++evaluations;
    sweepUntil(evaluator, max_sweeps, stop_at,
               hsdFromTrace(evaluator.trace(), evaluator.dim()), evaluations,
               cancel);
    // The sweeps left their updates as 2x2s. trace() converts them to
    // the angles the caller emits and measures the distance there, so
    // the value acceptance trusts is taken at those angles (uncharged:
    // it confirms the sweeps' work rather than searching).
    return hsdFromTrace(evaluator.trace(), evaluator.dim());
}

double
rotosolve(const Ansatz &ansatz, const Matrix &target,
          std::vector<double> &angles, int max_sweeps, double stop_at,
          long &evaluations)
{
    AnsatzEvaluator evaluator(ansatz, target);
    evaluator.setAngles(angles);
    const double best = rotosolve(evaluator, max_sweeps, stop_at, evaluations);
    angles = evaluator.angles();
    return best;
}

namespace {

/** composeBlock() searching from `seed`. */
ComposeResult
composeSeeded(const Circuit &block, const ComposeOptions &options,
              uint64_t seed, const CancelToken *cancel)
{
    if (block.numQubits() < 1 || block.numQubits() > 3)
        throw std::invalid_argument("composeBlock: block must be 1-3 qubits");

    bool hasEntangler = false;
    for (const auto &g : block.gates())
        if (g.isEntangling())
            hasEntangler = true;
    if (!hasEntangler)
        return composeWithoutEntanglers(block);

    // A search that ends in failure keeps the block as it is.
    ComposeResult result;
    result.circuit = block;
    const long origPulses = block.totalPulses();
    const int numQubits = block.numQubits();
    // Candidate per-layer entangler choices, the same at every depth.
    std::vector<Entangler> tries{Entangler::Ccz};
    if (options.entanglerMode == EntanglerMode::Extended && numQubits == 3)
        tries = {Entangler::Ccz, Entangler::Cz01, Entangler::Cz02,
                 Entangler::Cz12};

    // The pulse budget, checked before the unitary is built: which
    // depth-1 tries are cheaper than the block, and whether any deeper
    // one can be (pulses add up per layer, so the cheapest entangler
    // twice decides).
    std::vector<Entangler> shallow;
    bool deeper = false;
    for (const Entangler e : tries) {
        if (Ansatz(numQubits, 1, {e}).pulses() < origPulses)
            shallow.push_back(e);
        deeper = deeper || Ansatz(numQubits, 2, {e, e}).pulses() < origPulses;
    }
    if (shallow.empty())
        return result;

    const Matrix target = circuitUnitary(block);
    const int dim = target.rows();

    // When only depth-1 tries fit and the bound rules each one out, the
    // search cannot succeed: skip it. Every depth draws from the one
    // Rng below, so a search is skipped whole or not at all, and the
    // result is the failed search's, evaluation count aside.
    if (!deeper) {
        const CutSpectra spectra = cutSpectra(target);
        const bool futile = std::all_of(
            shallow.begin(), shallow.end(), [&](Entangler e) {
                return depthOneBound(spectra, e, numQubits) >
                       kThreshold + kCertificateMargin;
            });
        if (futile) {
            static obs::Counter &certified = obs::counter("compose.certified");
            certified.add();
            result.certified = 1;
            return result;
        }
    }

    Rng rng(seed);
    const bool anneal = options.optimizer == ComposeOptimizer::DualAnnealing;

    std::vector<Entangler> entanglers;
    for (int layers = 1; layers <= kMaxLayers; ++layers) {
        if (cancel != nullptr)
            cancel->checkpoint("compose");
        Entangler depthBestEntangler = Entangler::Ccz;
        double depthBestHsd = 2.0;

        for (const Entangler e : tries) {
            auto chosen = entanglers;
            chosen.push_back(e);
            const Ansatz ansatz(numQubits, layers, chosen);
            if (ansatz.pulses() >= origPulses)
                continue;
            // One incremental evaluator per (depth, entangler) try,
            // shared by every restart, polish and basin hop (or by the
            // annealing objective and its polish).
            AnsatzEvaluator evaluator(ansatz, target);

            const long depthStart = result.evaluations;
            // Budget scales with the search dimensionality: deeper
            // ansatze get proportionally more evaluations.
            const long depthBudget =
                kMaxEvaluationsPerBlock * std::max(1, ansatz.numAngles() / 18);
            auto depthBudgetLeft = [&] {
                return result.evaluations - depthStart < depthBudget;
            };
            double bestHsd = 1.0;
            std::vector<double> bestAngles;

            if (!anneal) {
                // Explore-then-exploit: good basins can be narrow, so
                // basin *discovery* (many short runs) matters more than
                // deep polishing of a few starts. Triage with short
                // sweeps, keep the most promising starts, then polish.
                struct Start
                {
                    double hsd;
                    std::vector<double> angles;
                };
                std::vector<Start> shortlist;
                auto consider = [&](double h, std::vector<double> angles) {
                    shortlist.push_back({h, std::move(angles)});
                    std::sort(shortlist.begin(), shortlist.end(),
                              [](const Start &x, const Start &y) {
                                  return x.hsd < y.hsd;
                              });
                    if (shortlist.size() > 3)
                        shortlist.pop_back();
                };
                const int triage = 4 * kRestarts;
                const int triageSweeps = std::max(10, kMaxSweeps / 10);
                for (int r = 0; r < triage; ++r) {
                    // Reserve ~40% of the budget for polish and hops.
                    if (result.evaluations - depthStart >
                        depthBudget * 6 / 10)
                        break;
                    // Start schedule: zeros (structured blocks are often
                    // near sparse-angle solutions), a small perturbation
                    // of zeros, then fully random points.
                    std::vector<double> angles;
                    if (r == 0) {
                        angles.assign(
                            static_cast<size_t>(ansatz.numAngles()), 0.0);
                    } else if (r == 1) {
                        angles = rng.uniformVector(ansatz.numAngles(),
                                                   -0.3, 0.3);
                    } else {
                        angles = rng.uniformVector(ansatz.numAngles(), 0.0,
                                                   2.0 * kPi);
                    }
                    evaluator.setAngles(angles);
                    const double h =
                        rotosolve(evaluator, triageSweeps, kThreshold,
                                  result.evaluations, cancel);
                    if (h <= kThreshold) {
                        bestHsd = h;
                        bestAngles = evaluator.angles();
                        break;
                    }
                    consider(h, evaluator.angles());
                }
                for (auto &start : shortlist) {
                    if (bestHsd <= kThreshold || !depthBudgetLeft())
                        break;
                    evaluator.setAngles(start.angles);
                    const double h =
                        rotosolve(evaluator, kMaxSweeps, kThreshold,
                                  result.evaluations, cancel);
                    if (h < bestHsd) {
                        bestHsd = h;
                        bestAngles = evaluator.angles();
                    }
                }
                // Basin hopping: perturb the best point and re-sweep
                // with shrinking step sizes. Escapes the shallow local
                // minima coordinate descent can stall in. A depth whose
                // best HSD stays far from the threshold after triage
                // almost certainly cannot represent the block; leave the
                // budget to deeper ansatze instead.
                const double hopeless = std::max(0.25, 500.0 * kThreshold);
                for (int hop = 0;
                     hop < 2 * kRestarts && bestHsd > kThreshold &&
                     bestHsd < hopeless && depthBudgetLeft();
                     ++hop) {
                    const double sigma = hop % 3 == 0 ? 0.5
                                        : hop % 3 == 1 ? 0.2 : 0.05;
                    std::vector<double> angles = bestAngles;
                    for (auto &a : angles)
                        a += sigma * rng.normal();
                    evaluator.setAngles(angles);
                    const double h =
                        rotosolve(evaluator, kMaxSweeps, kThreshold,
                                  result.evaluations, cancel);
                    if (h < bestHsd) {
                        bestHsd = h;
                        bestAngles = evaluator.angles();
                    }
                }
            } else if (depthBudgetLeft()) {
                // The paper's optimizer: global annealing, then a short
                // rotosolve polish of the point it found.
                const int n = ansatz.numAngles();
                const std::vector<double> lo(static_cast<size_t>(n), 0.0);
                const std::vector<double> hi(static_cast<size_t>(n),
                                             2.0 * kPi);
                DualAnnealingOptions da;
                da.maxEvaluations = kAnnealingEvaluations;
                da.targetValue = kThreshold;
                da.seed = seed + static_cast<uint64_t>(layers);
                // The annealing objective closes over the incremental
                // evaluator's full-trace path (cached U3 phases, split
                // buffers), not a dense product.
                long annealProbes = 0;
                const auto out = dualAnnealing(
                    countedObjective(
                        [&](const std::vector<double> &a) {
                            // Checkpoint per probe: negligible next to
                            // the trace contraction, and annealing runs
                            // can otherwise monopolise tens of seconds.
                            if (cancel != nullptr)
                                cancel->checkpoint("compose");
                            return hsdFromTrace(evaluator.traceAt(a), dim);
                        },
                        annealProbes),
                    lo, hi, da);
                result.evaluations += annealProbes;
                static obs::Counter &annealEvals =
                    obs::counter("compose.annealing_evaluations");
                annealEvals.add(annealProbes);
                evaluator.setAngles(out.x);
                const double h = rotosolve(evaluator, 30, kThreshold,
                                           result.evaluations, cancel);
                if (h < bestHsd) {
                    bestHsd = h;
                    bestAngles = evaluator.angles();
                }
            }

            if (bestHsd <= kThreshold) {
                result.circuit = ansatz.toCircuit(bestAngles);
                result.composed = true;
                result.layersUsed = layers;
                result.hsd = bestHsd;
                return result;
            }
            if (bestHsd < depthBestHsd) {
                depthBestHsd = bestHsd;
                depthBestEntangler = e;
            }
        }
        // Greedy layer-wise structure search (Extended mode): extend
        // with the entangler whose depth came closest to the target.
        entanglers.push_back(depthBestEntangler);
    }
    // No composed circuit beat the original: keep the original block.
    return result;
}

/**
 * Composition with fallback splitting: when the whole block cannot be
 * composed, try composing its halves (prefix/suffix over the same
 * qubits -- their concatenation is trivially the same circuit).
 */
ComposeResult
composeRecursive(const Circuit &block, const ComposeOptions &options,
                 int depth, uint64_t seed, const CancelToken *cancel)
{
    ComposeResult direct = composeSeeded(block, options, seed, cancel);
    if (direct.composed || depth >= kMaxSplitDepth || block.size() < 6)
        return direct;
    static obs::Counter &splits = obs::counter("compose.splits");
    splits.add();

    const size_t mid = block.size() / 2;
    Circuit first(block.numQubits()), second(block.numQubits());
    for (size_t i = 0; i < block.size(); ++i)
        (i < mid ? first : second).append(block.gates()[i]);

    const uint64_t sub = seed + 0x9e3779b9u * static_cast<uint64_t>(depth + 1);
    ComposeResult ra =
        composeRecursive(first, options, depth + 1, sub, cancel);
    ComposeResult rb =
        composeRecursive(second, options, depth + 1, sub, cancel);
    direct.evaluations += ra.evaluations + rb.evaluations;
    direct.certified += ra.certified + rb.certified;
    if (!ra.composed && !rb.composed)
        return direct;

    Circuit combined = ra.circuit;
    combined.append(rb.circuit);
    if (combined.totalPulses() >= block.totalPulses())
        return direct;

    ComposeResult result;
    result.circuit = std::move(combined);
    result.composed = true;
    result.layersUsed = std::max(ra.layersUsed, rb.layersUsed);
    // Unitary errors of concatenated halves add at most linearly.
    result.hsd = ra.hsd + rb.hsd;
    result.evaluations = direct.evaluations;
    result.certified = direct.certified;
    return result;
}

}  // namespace

ComposeKey
composeKey(const Circuit &block, const ComposeOptions &options)
{
    // Raw bytes, not a string key: no heap allocation per lookup, and
    // 128 bits make accidental collisions across a process lifetime
    // vanishingly unlikely.
    io::Fnv128 h;
    h.feedValue(block.numQubits());
    feedBehaviourOptions(h, options);
    for (const auto &g : block.gates()) {
        h.feedValue(static_cast<int>(g.kind()));
        h.feedValue(g.qubit(0));
        h.feedValue(g.numQubits() > 1 ? g.qubit(1) : -1);
        h.feedValue(g.numQubits() > 2 ? g.qubit(2) : -1);
        h.feedValue(g.param(0));
        h.feedValue(g.param(1));
        h.feedValue(g.param(2));
    }
    return {h.hi, h.lo};
}

namespace {

/**
 * The memo is sharded behind 16 striped mutexes so pool workers hashing
 * different blocks stop contending on one global lock.
 */
constexpr int kMemoShards = 16;

struct MemoShard
{
    std::mutex mutex;
    std::unordered_map<ComposeKey, ComposeResult, ComposeKeyHash> map;
};

MemoShard &
memoShard(const ComposeKey &key)
{
    static MemoShard shards[kMemoShards];
    return shards[key.lo & (kMemoShards - 1)];
}

}  // namespace

ComposeResult
composeBlock(const Circuit &block, const ComposeOptions &options)
{
    return composeSeeded(block, options, kSeed, nullptr);
}

ComposeResult
composeBlockWithSplits(const Circuit &block, const ComposeOptions &options,
                       const CancelToken *cancel)
{
    return composeRecursive(block, options, 0, kSeed, cancel);
}

void
feedBehaviourOptions(io::Fnv128 &h, const ComposeOptions &compose,
                     const BlockerOptions *blocker)
{
    h.feedValue(static_cast<int>(compose.optimizer));
    h.feedValue(static_cast<int>(compose.entanglerMode));
    if (blocker != nullptr)
        h.feedValue(blocker->pulseAware);
    // The arithmetic the search runs on. Backends round differently, so
    // rotosolve can settle on other angles within the threshold; another
    // compiler's codegen and libm can do the same. Each name is fed with
    // its terminating NUL so the two cannot run together.
    const char *backend = kernels::active().name;
    h.feed(backend, std::strlen(backend) + 1);
    h.feed(__VERSION__, sizeof(__VERSION__));
}

ComposeResult
composeBlockCached(const Circuit &block, const ComposeOptions &options,
                   const CancelToken *cancel)
{
    static obs::Counter &memoHits = obs::counter("compose.memo_hits");
    static obs::Counter &memoMisses = obs::counter("compose.memo_misses");
    static obs::Counter &evaluations = obs::counter("compose.evaluations");
    static obs::Counter &composedBlocks = obs::counter("compose.blocks_composed");

    const ComposeKey key = composeKey(block, options);
    MemoShard &shard = memoShard(key);
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        const auto it = shard.map.find(key);
        if (it != shard.map.end()) {
            memoHits.add();
            return it->second;
        }
    }
    memoMisses.add();

    const ComposeResult result =
        composeBlockWithSplits(block, options, cancel);
    evaluations.add(result.evaluations);
    if (result.composed)
        composedBlocks.add();
    if (obs::enabled())
        obs::histogram("compose.evaluations_per_block")
            .record(static_cast<double>(result.evaluations));
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.map.emplace(key, result);
    }
    return result;
}

}  // namespace geyser
