#include "sim/noise.hpp"

#include <cmath>

#include "common/error.hpp"

namespace geyser {

namespace {

constexpr const char *kChannelNames[kNumNoiseChannels] = {
    "legacy-pauli",  "amp-damp",         "idle-dephasing",
    "atom-loss",     "correlated-pauli", "readout",
};

}  // namespace

const char *
noiseChannelName(NoiseChannelId id)
{
    return kChannelNames[static_cast<size_t>(id)];
}

NoiseChannelId
noiseChannelFromName(const std::string &name)
{
    for (size_t i = 0; i < kNumNoiseChannels; ++i)
        if (name == kChannelNames[i])
            return static_cast<NoiseChannelId>(i);
    std::string known;
    for (size_t i = 0; i < kNumNoiseChannels; ++i) {
        if (i)
            known += ", ";
        known += kChannelNames[i];
    }
    throw ValidationError("unknown noise channel '" + name +
                          "' (known: " + known + ")");
}

const std::vector<std::string> &
noiseChannelNames()
{
    static const std::vector<std::string> names(
        kChannelNames, kChannelNames + kNumNoiseChannels);
    return names;
}

// A zero rate stays zero without asking for the gate's pulse cost, so
// perPulse models whose flips are off also run on logical gates.
double
NoiseModel::bitFlipFor(const Gate &gate) const
{
    return perPulse && bitFlip > 0.0 ? bitFlip * gate.pulses() : bitFlip;
}

double
NoiseModel::phaseFlipFor(const Gate &gate) const
{
    return perPulse && phaseFlip > 0.0 ? phaseFlip * gate.pulses()
                                       : phaseFlip;
}

void
NoiseModel::setChannelRate(NoiseChannelId id, double rate)
{
    // Every channel parameter is a probability except idle dephasing,
    // whose rate-per-pulse feeds an exponential that saturates at 1/2
    // on its own — any finite non-negative rate is meaningful there.
    const bool probability = id != NoiseChannelId::IdleDephasing;
    if (!std::isfinite(rate) || rate < 0.0 ||
        (probability && rate > 1.0))
        throw ValidationError(std::string("noise channel '") +
                              noiseChannelName(id) +
                              (probability ? "': rate must be in [0, 1]"
                                           : "': rate must be >= 0"));
    switch (id) {
      case NoiseChannelId::LegacyPauli:
        bitFlip = rate;
        phaseFlip = rate;
        break;
      case NoiseChannelId::AmpDamping:
        ampDamping = rate;
        break;
      case NoiseChannelId::IdleDephasing:
        idleDephasing = rate;
        break;
      case NoiseChannelId::AtomLossTracking:
        lossPerGate = rate;
        break;
      case NoiseChannelId::CorrelatedPauli:
        correlatedPauli = rate;
        break;
      case NoiseChannelId::ReadoutError:
        readoutError = rate;
        break;
    }
}

NoiseModel
NoiseModel::singleChannel(NoiseChannelId id, double rate)
{
    NoiseModel nm = noiseless();
    nm.setChannelRate(id, rate);
    return nm;
}

}  // namespace geyser
