#include "sim/noise_channel.hpp"

#include <cmath>

namespace geyser {

namespace {

constexpr uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ull;

/** The splitmix64 output mix (Steele/Lea/Flood). */
uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

}  // namespace

StreamRng::StreamRng(uint64_t shot_seed, NoiseChannelId channel,
                     uint64_t event_index)
{
    // Fold the three key parts through the mixer so that nearby keys
    // (consecutive gates, adjacent channels) land in unrelated states.
    uint64_t s = mix64(shot_seed + kSplitMixGamma);
    s = mix64(s ^ (static_cast<uint64_t>(channel) + kSplitMixGamma));
    s = mix64(s ^ (event_index + kSplitMixGamma));
    state_ = s;
}

uint64_t
StreamRng::next64()
{
    state_ += kSplitMixGamma;
    return mix64(state_);
}

double
StreamRng::uniform()
{
    return static_cast<double>(next64() >> 11) * 0x1.0p-53;
}

int
StreamRng::uniformInt(int n)
{
    return static_cast<int>(next64() % static_cast<uint64_t>(n));
}

namespace {

/**
 * The paper's Sec-4 bit/phase flips plus its Sec-6 Rydberg crosstalk.
 * Per fired gate, in stream order: a bit-flip then a phase-flip
 * Bernoulli per operand, then one crosstalk Bernoulli per zone atom.
 */
class PaperPauliSource final : public NoiseSource
{
  public:
    explicit PaperPauliSource(const NoiseModel &model) : model_(model) {}

    NoiseChannelId id() const override
    {
        return NoiseChannelId::LegacyPauli;
    }

    void onGate(StateVector &sv, const GateEvent &ev,
                ShotContext &ctx) const override
    {
        draw(ev, ctx, [&](Qubit q, bool bitFlip) {
            if (bitFlip)
                sv.applyX(q);
            else
                sv.applyZ(q);
            ctx.countEvent(id());
        });
    }

    bool actsAtGate(const GateEvent &ev,
                    const ShotContext &ctx) const override
    {
        bool acts = false;
        draw(ev, ctx, [&](Qubit, bool) { acts = true; });
        return acts;
    }

  private:
    /** The gate's draws in stream order; flip(q, isX) per success. */
    template <typename Flip>
    void draw(const GateEvent &ev, const ShotContext &ctx,
              Flip &&flip) const
    {
        StreamRng rng(ctx.shotSeed, id(), ev.index);
        const Gate &g = *ev.gate;
        const double pb = model_.bitFlipFor(g);
        const double pp = model_.phaseFlipFor(g);
        for (int i = 0; i < g.numQubits(); ++i) {
            const Qubit q = g.qubit(i);
            if (rng.bernoulli(pb))
                flip(q, true);
            if (rng.bernoulli(pp))
                flip(q, false);
        }
        if (ev.zone == nullptr)
            return;
        for (const int z : *ev.zone)
            if (rng.bernoulli(model_.crosstalkPhase))
                flip(z, false);
    }

    NoiseModel model_;
};

/** T1 decay as quantum jumps, one damping step per operand per gate. */
class AmpDampingSource final : public NoiseSource
{
  public:
    explicit AmpDampingSource(double gamma) : gamma_(gamma) {}

    NoiseChannelId id() const override { return NoiseChannelId::AmpDamping; }

    bool isRelaxation() const override { return true; }

    void onGate(StateVector &sv, const GateEvent &ev,
                ShotContext &ctx) const override
    {
        draw(ev, ctx, [&](Qubit q, double u) {
            if (sv.applyAmplitudeDamping(q, gamma_, u))
                ctx.countEvent(id());
        });
    }

    /** A draw u < gamma may jump; one u >= gamma only defers K0. */
    bool actsAtGate(const GateEvent &ev,
                    const ShotContext &ctx) const override
    {
        bool acts = false;
        draw(ev, ctx, [&](Qubit, double u) { acts |= u < gamma_; });
        return acts;
    }

    void onQuietGate(StateVector &sv, const GateEvent &ev) const override
    {
        const Gate &g = *ev.gate;
        for (int i = 0; i < g.numQubits(); ++i)
            sv.applyNoJump(g.qubit(i), gamma_);
    }

  private:
    /** One uniform draw per operand, in operand order: step(q, u). */
    template <typename Step>
    void draw(const GateEvent &ev, const ShotContext &ctx,
              Step &&step) const
    {
        StreamRng rng(ctx.shotSeed, id(), ev.index);
        const Gate &g = *ev.gate;
        for (int i = 0; i < g.numQubits(); ++i)
            step(g.qubit(i), rng.uniform());
    }

    double gamma_;
};

/** Z errors with probability 0.5*(1 - exp(-rate * idlePulses)). */
class IdleDephasingSource final : public NoiseSource
{
  public:
    explicit IdleDephasingSource(double rate) : rate_(rate) {}

    NoiseChannelId id() const override
    {
        return NoiseChannelId::IdleDephasing;
    }

    void onIdle(StateVector &sv, const GateEvent &ev,
                ShotContext &ctx) const override
    {
        draw(ev, ctx, [&](Qubit q) {
            sv.applyZ(q);
            ctx.countEvent(id());
        });
    }

    bool actsAtGate(const GateEvent &ev,
                    const ShotContext &ctx) const override
    {
        bool acts = false;
        draw(ev, ctx, [&](Qubit) { acts = true; });
        return acts;
    }

  private:
    /**
     * One Bernoulli per operand that sat idle, in operand order:
     * dephase(q) per success.
     */
    template <typename Dephase>
    void draw(const GateEvent &ev, const ShotContext &ctx,
              Dephase &&dephase) const
    {
        if (ev.idlePulses == nullptr)
            return;
        StreamRng rng(ctx.shotSeed, id(), ev.index);
        const Gate &g = *ev.gate;
        for (int i = 0; i < g.numQubits(); ++i) {
            const long t = (*ev.idlePulses)[static_cast<size_t>(i)];
            if (t <= 0)
                continue;
            const double p =
                0.5 * (1.0 - std::exp(-rate_ * static_cast<double>(t)));
            if (rng.bernoulli(p))
                dephase(g.qubit(i));
        }
    }

    double rate_;
};

/**
 * Atom loss: each atom can be lost before the shot (`atomLoss`, paper
 * Sec 6) and each operand right before its gate (`lossPerGate`).
 */
class AtomLossTrackingSource final : public NoiseSource
{
  public:
    AtomLossTrackingSource(double pre_shot, double per_gate)
        : preShot_(pre_shot), perGate_(per_gate)
    {
    }

    NoiseChannelId id() const override
    {
        return NoiseChannelId::AtomLossTracking;
    }

    void onShotStart(ShotContext &ctx) const override
    {
        drawShot(ctx, [&](Qubit q) {
            ctx.markLost(q);
            ctx.countEvent(id());
        });
    }

    void onGateStart(const GateEvent &ev, ShotContext &ctx) const override
    {
        drawGate(ev, ctx, [&](Qubit q) {
            ctx.markLost(q);
            ctx.countEvent(id());
        });
    }

    bool actsAtShotStart(const ShotContext &ctx) const override
    {
        bool acts = false;
        drawShot(ctx, [&](Qubit) { acts = true; });
        return acts;
    }

    bool actsAtGate(const GateEvent &ev,
                    const ShotContext &ctx) const override
    {
        bool acts = false;
        drawGate(ev, ctx, [&](Qubit) { acts = true; });
        return acts;
    }

  private:
    /** One Bernoulli per atom, in atom order: lose(q) per success. */
    template <typename Lose>
    void drawShot(const ShotContext &ctx, Lose &&lose) const
    {
        if (preShot_ <= 0.0)
            return;
        StreamRng rng(ctx.shotSeed, id(), kShotEventIndex);
        for (Qubit q = 0; q < ctx.numQubits; ++q)
            if (rng.bernoulli(preShot_))
                lose(q);
    }

    /**
     * One Bernoulli per operand not yet lost, in operand order:
     * lose(q) per success.
     */
    template <typename Lose>
    void drawGate(const GateEvent &ev, const ShotContext &ctx,
                  Lose &&lose) const
    {
        if (perGate_ <= 0.0)
            return;
        StreamRng rng(ctx.shotSeed, id(), ev.index);
        const Gate &g = *ev.gate;
        for (int i = 0; i < g.numQubits(); ++i) {
            const Qubit q = g.qubit(i);
            if (ctx.isLost(q))
                continue;
            if (rng.bernoulli(perGate_))
                lose(q);
        }
    }

    double preShot_;
    double perGate_;
};

/** Joint Pauli pairs on entangling gates (Rydberg-blockade errors). */
class CorrelatedPauliSource final : public NoiseSource
{
  public:
    explicit CorrelatedPauliSource(double rate) : rate_(rate) {}

    NoiseChannelId id() const override
    {
        return NoiseChannelId::CorrelatedPauli;
    }

    void onGate(StateVector &sv, const GateEvent &ev,
                ShotContext &ctx) const override
    {
        draw(ev, ctx, [&](Qubit a, int pa, Qubit b, int pb) {
            applyPauli(sv, a, pa);
            applyPauli(sv, b, pb);
            ctx.countEvent(id());
        });
    }

    bool actsAtGate(const GateEvent &ev,
                    const ShotContext &ctx) const override
    {
        bool acts = false;
        draw(ev, ctx, [&](Qubit, int, Qubit, int) { acts = true; });
        return acts;
    }

  private:
    /**
     * On an entangling gate: one Bernoulli, and on success the pair
     * and its Paulis, then pair(a, pa, b, pb).
     */
    template <typename Pair>
    void draw(const GateEvent &ev, const ShotContext &ctx,
              Pair &&pair) const
    {
        const Gate &g = *ev.gate;
        if (!g.isEntangling())
            return;
        StreamRng rng(ctx.shotSeed, id(), ev.index);
        if (!rng.bernoulli(rate_))
            return;
        // Pick the affected pair: the operands for a two-qubit gate,
        // one of the three pairs uniformly for a CCZ/CCX.
        int ai = 0, bi = 1;
        if (g.numQubits() == 3) {
            static constexpr int kPairs[3][2] = {{0, 1}, {0, 2}, {1, 2}};
            const int pick = rng.uniformInt(3);
            ai = kPairs[pick][0];
            bi = kPairs[pick][1];
        }
        // Uniform non-identity Pauli pair: index 1..15 as (P_a, P_b)
        // base-4 digits, 0=I 1=X 2=Y 3=Z.
        const int joint = 1 + rng.uniformInt(15);
        pair(g.qubit(ai), joint >> 2, g.qubit(bi), joint & 3);
    }

    static void applyPauli(StateVector &sv, Qubit q, int pauli)
    {
        switch (pauli) {
          case 1:
            sv.applyX(q);
            break;
          case 2:
            sv.applyY(q);
            break;
          case 3:
            sv.applyZ(q);
            break;
          default:
            break;
        }
    }

    double rate_;
};

/** Symmetric per-qubit measurement confusion matrix, applied exactly. */
class ReadoutErrorSource final : public NoiseSource
{
  public:
    explicit ReadoutErrorSource(double flip) : flip_(flip) {}

    NoiseChannelId id() const override
    {
        return NoiseChannelId::ReadoutError;
    }

    void onReadout(Distribution &p, ShotContext &ctx) const override
    {
        for (Qubit q = 0; q < ctx.numQubits; ++q)
            applyReadoutFlip(p, q, flip_);
        ctx.countEvent(id());
    }

  private:
    double flip_;
};

}  // namespace

std::vector<std::unique_ptr<NoiseSource>>
buildNoiseSources(const NoiseModel &model)
{
    std::vector<std::unique_ptr<NoiseSource>> sources;
    if (model.bitFlip > 0.0 || model.phaseFlip > 0.0 ||
        model.crosstalkPhase > 0.0)
        sources.push_back(std::make_unique<PaperPauliSource>(model));
    if (model.ampDamping > 0.0)
        sources.push_back(
            std::make_unique<AmpDampingSource>(model.ampDamping));
    if (model.idleDephasing > 0.0)
        sources.push_back(
            std::make_unique<IdleDephasingSource>(model.idleDephasing));
    if (model.atomLoss > 0.0 || model.lossPerGate > 0.0)
        sources.push_back(std::make_unique<AtomLossTrackingSource>(
            model.atomLoss, model.lossPerGate));
    if (model.correlatedPauli > 0.0)
        sources.push_back(
            std::make_unique<CorrelatedPauliSource>(model.correlatedPauli));
    if (model.readoutError > 0.0)
        sources.push_back(
            std::make_unique<ReadoutErrorSource>(model.readoutError));
    return sources;
}

}  // namespace geyser
