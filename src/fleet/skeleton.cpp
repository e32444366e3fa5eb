#include "fleet/skeleton.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <unordered_map>

#include "io/framing.hpp"
#include "io/serialize.hpp"
#include "obs/obs.hpp"

namespace geyser {
namespace fleet {

namespace {

using StageClock = std::chrono::steady_clock;

double
msSince(StageClock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(StageClock::now() - t0)
        .count();
}

/** Gate kinds, arities, and operands equal; parameters ignored. */
bool
structureEquals(const Circuit &a, const Circuit &b)
{
    if (a.numQubits() != b.numQubits() || a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        const Gate &ga = a.gates()[i];
        const Gate &gb = b.gates()[i];
        if (ga.kind() != gb.kind() || ga.numQubits() != gb.numQubits())
            return false;
        for (int q = 0; q < ga.numQubits(); ++q)
            if (ga.qubit(q) != gb.qubit(q))
                return false;
    }
    return true;
}

/**
 * A word-wise 64-bit hash of what structureEquals compares: width, and
 * per gate its kind, arity and operands. Equal structures hash equal.
 */
uint64_t
structureKey(const Circuit &circuit)
{
    uint64_t h = static_cast<uint64_t>(circuit.numQubits());
    auto mix = [&h](uint64_t v) {
        h = (h ^ v) * 0x9E3779B97F4A7C15ULL;
        h ^= h >> 32;
    };
    for (const Gate &gate : circuit.gates()) {
        mix(static_cast<uint64_t>(gate.kind()) |
            static_cast<uint64_t>(gate.numQubits()) << 8);
        for (int q = 0; q < gate.numQubits(); ++q)
            mix(static_cast<uint32_t>(gate.qubit(q)));
    }
    return h;
}

/** A transpile that routed to the plan's structure, layouts and swaps. */
bool
routesLike(const CompileResult &t, const SkeletonPlan &plan)
{
    return structureEquals(t.physical, plan.transpiled) &&
           t.initialLayout == plan.initialLayout &&
           t.finalLayout == plan.finalLayout &&
           t.swapsInserted == plan.swapsInserted;
}

}  // namespace

/**
 * A plan's recorded transpile, and the stats of its stitched circuit:
 * they depend on the structure alone, so every re-bound member of an
 * adopted plan takes them.
 */
struct PlanReplay
{
    RecordedTranspile transpile;
    CircuitStats stitchedStats;
};

ReplaySlot::ReplaySlot(std::shared_ptr<const PlanReplay> value)
    : value_(std::move(value))
{
}

ReplaySlot::ReplaySlot(const ReplaySlot &other)
{
    std::lock_guard<std::mutex> lock(other.mu_);
    value_ = other.value_;
}

ReplaySlot &
ReplaySlot::operator=(const ReplaySlot &other)
{
    if (this != &other) {
        std::scoped_lock lock(mu_, other.mu_);
        value_ = other.value_;
    }
    return *this;
}

const PlanReplay *
ReplaySlot::getOrMake(
    const std::function<std::shared_ptr<const PlanReplay>()> &make) const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (value_ == nullptr)
        value_ = make();
    return value_.get();
}

std::string
structureDigest(const Circuit &circuit)
{
    io::Fnv128 h;
    h.feedValue(circuit.numQubits());
    h.feedValue(static_cast<long long>(circuit.size()));
    for (const Gate &gate : circuit.gates()) {
        h.feedValue(static_cast<int>(gate.kind()));
        h.feedValue(gate.numQubits());
        for (int q = 0; q < gate.numQubits(); ++q)
            h.feedValue(static_cast<int>(gate.qubit(q)));
    }
    return h.hex();
}

std::vector<SkeletonGroup>
groupBySkeleton(const std::vector<const Circuit *> &members)
{
    std::vector<SkeletonGroup> groups;
    // Per group, one flag per (gate, param) slot of its representative:
    // set once the slot is in varyingSlots.
    std::vector<std::vector<uint8_t>> marked;
    // Structure key -> candidate group indices; structural equality
    // against the representative settles key collisions exactly.
    std::unordered_map<uint64_t, std::vector<size_t>> byKey;
    for (int m = 0; m < static_cast<int>(members.size()); ++m) {
        const Circuit &circuit = *members[static_cast<size_t>(m)];
        auto &candidates = byKey[structureKey(circuit)];
        size_t found = groups.size();
        for (const size_t gi : candidates) {
            const Circuit &rep =
                *members[static_cast<size_t>(groups[gi].members.front())];
            if (structureEquals(rep, circuit)) {
                found = gi;
                break;
            }
        }
        if (found == groups.size()) {
            SkeletonGroup group;
            group.digest = structureDigest(circuit);
            group.members.push_back(m);
            groups.push_back(std::move(group));
            marked.emplace_back(circuit.size() * 3, 0);
            candidates.push_back(found);
            continue;
        }
        SkeletonGroup &group = groups[found];
        std::vector<uint8_t> &slotMarked = marked[found];
        const Circuit &rep =
            *members[static_cast<size_t>(group.members.front())];
        for (size_t i = 0; i < circuit.size(); ++i) {
            const Gate &ga = rep.gates()[i];
            const Gate &gb = circuit.gates()[i];
            const int params = gateKindParamCount(ga.kind());
            for (int p = 0; p < params; ++p) {
                uint8_t &flag = slotMarked[i * 3 + static_cast<size_t>(p)];
                if (flag != 0 || ga.param(p) == gb.param(p))
                    continue;
                flag = 1;
                group.varyingSlots.push_back({static_cast<int>(i), p});
            }
        }
        group.members.push_back(m);
    }
    for (auto &group : groups)
        std::sort(group.varyingSlots.begin(), group.varyingSlots.end(),
                  [](const ParamSlot &a, const ParamSlot &b) {
                      return a.gate != b.gate ? a.gate < b.gate
                                              : a.param < b.param;
                  });
    return groups;
}

std::vector<SkeletonGroup>
groupBySkeleton(const std::vector<Circuit> &members)
{
    std::vector<const Circuit *> pointers;
    pointers.reserve(members.size());
    for (const Circuit &circuit : members)
        pointers.push_back(&circuit);
    return groupBySkeleton(pointers);
}

std::vector<std::pair<int, int>>
slotPairs(const std::vector<ParamSlot> &slots)
{
    std::vector<std::pair<int, int>> pairs;
    pairs.reserve(slots.size());
    for (const ParamSlot &slot : slots)
        pairs.emplace_back(slot.gate, slot.param);
    return pairs;
}

std::optional<std::vector<uint8_t>>
varyingMask(const RecordedTranspile &recorded,
            const std::vector<ParamSlot> &varyingSlots)
{
    const Circuit &logical = recorded.result.logical;
    std::vector<uint8_t> slots(logical.size() * 3, 0);
    for (const ParamSlot &slot : varyingSlots) {
        if (slot.gate < 0 || slot.gate >= static_cast<int>(logical.size()))
            return std::nullopt;
        const Gate &gate = logical.gates()[static_cast<size_t>(slot.gate)];
        if (slot.param < 0 || slot.param >= gateKindParamCount(gate.kind()))
            return std::nullopt;
        slots[static_cast<size_t>(slot.gate) * 3 +
              static_cast<size_t>(slot.param)] = 1;
    }
    // A U3's three angles come out of one resynthesis, so the whole
    // gate varies; re-binding copies all three.
    const std::vector<uint8_t> gates = recorded.record.dependents(slots);
    std::vector<uint8_t> mask(gates.size() * 3, 0);
    for (size_t i = 0; i < gates.size(); ++i)
        if (gates[i] != 0)
            mask[i * 3] = mask[i * 3 + 1] = mask[i * 3 + 2] = 1;
    return mask;
}

std::optional<SkeletonPlan>
buildSkeletonPlan(Technique technique, const Circuit &representative,
                  const std::vector<ParamSlot> &varyingSlots,
                  const PipelineOptions &options, bool cachedCompose)
{
    if (technique != Technique::Geyser)
        return std::nullopt;
    obs::Span span("fleet.plan", "fleet");

    // One recorded transpile: the record traces every varying logical
    // slot onto the physical U3s whose angles depend on it, and members
    // replay it instead of transpiling.
    auto replay = std::make_shared<PlanReplay>();
    replay->transpile = recordTranspile(technique, representative, options);
    std::optional<std::vector<uint8_t>> varying =
        varyingMask(replay->transpile, varyingSlots);
    if (!varying)
        return std::nullopt;

    CompileResult t0 = replay->transpile.result;
    SkeletonPlan plan;
    plan.technique = technique;
    plan.transpiled = t0.physical;
    plan.initialLayout = t0.initialLayout;
    plan.finalLayout = t0.finalLayout;
    plan.swapsInserted = t0.swapsInserted;
    plan.rebindMap = blockAndCompose(t0, options, *varying, cachedCompose);
    plan.paramVarying = std::move(*varying);
    fillStats(t0);
    replay->stitchedStats = t0.stats;
    plan.stitched = std::move(t0.physical);
    plan.blockCount = t0.blockCount;
    plan.composedBlockCount = t0.composedBlockCount;
    plan.compositionEvaluations = t0.compositionEvaluations;
    plan.maxBlockHsd = t0.maxBlockHsd;
    plan.adopted = t0.composedBlockCount > 0;
    plan.replay = ReplaySlot(std::move(replay));
    return plan;
}

namespace {

/**
 * The plan's replay, recorded from `member` if the plan has none yet
 * (once per plan object). A member whose transpile does not route like
 * the plan installs nothing: the result is nullptr and `transpiled`
 * receives that transpile, so the member is not transpiled twice.
 */
const PlanReplay *
planReplay(const SkeletonPlan &plan, const Circuit &member,
           const PipelineOptions &options,
           std::optional<CompileResult> &transpiled)
{
    return plan.replay.getOrMake([&]() -> std::shared_ptr<PlanReplay> {
        auto made = std::make_shared<PlanReplay>();
        made->transpile = recordTranspile(plan.technique, member, options);
        if (!routesLike(made->transpile.result, plan)) {
            transpiled = std::move(made->transpile.result);
            return nullptr;
        }
        CompileResult stitched = made->transpile.result;
        stitched.physical = plan.stitched;
        fillStats(stitched);
        made->stitchedStats = stitched.stats;
        return made;
    });
}

}  // namespace

std::optional<CompileResult>
rebindMember(const SkeletonPlan &plan, const Circuit &memberLogical,
             const PipelineOptions &options)
{
    bool replayDiverged = false;
    return rebindMember(plan, memberLogical, options, replayDiverged);
}

std::optional<CompileResult>
rebindMember(const SkeletonPlan &plan, const Circuit &memberLogical,
             const PipelineOptions &options, bool &replayDiverged)
{
    replayDiverged = false;
    if (plan.technique != Technique::Geyser)
        return std::nullopt;
    const auto t0 = StageClock::now();
    obs::Span span("fleet.rebind", "fleet");

    // The member's transpile, by replaying the plan's record; the real
    // one when the replay diverges or the stage checks are on.
    std::optional<CompileResult> tm;
    const PlanReplay *replay = nullptr;
    if (!options.verifyEquivalence) {
        replay = planReplay(plan, memberLogical, options, tm);
        if (replay != nullptr) {
            tm = replayTranspile(replay->transpile, memberLogical, options);
            replayDiverged = !tm.has_value();
        }
    }
    if (!tm)
        tm = transpileForTechnique(plan.technique, memberLogical, options);
    const auto tRebind = StageClock::now();

    // The plan applies only if this member routed to the exact same
    // structure with the exact same fixed angles; the transpiler's
    // angle-dependent passes (identity dropping, diagonal commutation)
    // make this a per-member check, not an assumption.
    if (!routesLike(*tm, plan))
        return std::nullopt;
    if (plan.paramVarying.size() != tm->physical.size() * 3)
        return std::nullopt;
    if (plan.stitched.numQubits() != plan.transpiled.numQubits())
        return std::nullopt;
    for (size_t i = 0; i < tm->physical.size(); ++i) {
        const Gate &got = tm->physical.gates()[i];
        const Gate &want = plan.transpiled.gates()[i];
        const int params = gateKindParamCount(got.kind());
        for (int p = 0; p < params; ++p) {
            if (plan.paramVarying[i * 3 + static_cast<size_t>(p)] != 0)
                continue;
            if (got.param(p) != want.param(p))
                return std::nullopt;
        }
    }

    CompileResult result = std::move(*tm);
    result.blockCount = plan.blockCount;
    result.composedBlockCount = plan.composedBlockCount;
    result.compositionEvaluations = plan.compositionEvaluations;
    result.maxBlockHsd = plan.maxBlockHsd;
    if (plan.adopted) {
        Circuit stitched = plan.stitched;
        for (const auto &[s, t] : plan.rebindMap) {
            if (s < 0 || s >= static_cast<int>(stitched.size()) || t < 0 ||
                t >= static_cast<int>(result.physical.size()))
                return std::nullopt;
            Gate &dst = stitched.gates()[static_cast<size_t>(s)];
            const Gate &src = result.physical.gates()[static_cast<size_t>(t)];
            if (dst.kind() != GateKind::U3 || src.kind() != GateKind::U3)
                return std::nullopt;
            for (int p = 0; p < 3; ++p)
                dst.setParam(p, src.param(p));
        }
        result.physical = std::move(stitched);
        if (replay != nullptr)
            result.stats = replay->stitchedStats;
        else
            fillStats(result);
    }
    result.composeMs = msSince(tRebind);
    result.totalMs = msSince(t0);
    return result;
}

namespace {

/** Line/byte-chunk cursor over a serialized plan. */
struct Cursor
{
    const std::string &text;
    size_t pos = 0;

    bool line(std::string &out)
    {
        if (pos >= text.size())
            return false;
        const size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            return false;
        out = text.substr(pos, nl - pos);
        pos = nl + 1;
        return true;
    }

    bool chunk(size_t n, std::string &out)
    {
        if (pos + n > text.size())
            return false;
        out = text.substr(pos, n);
        pos += n;
        return true;
    }
};

bool
parseLong(const std::string &s, long long &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoll(s.c_str(), &end, 10);
    return errno == 0 && end == s.c_str() + s.size();
}

/** "key v1 v2 ..." -> values; false on key mismatch or parse failure. */
bool
parseKeyedLongs(const std::string &line, const std::string &key,
                std::vector<long long> &out, size_t expected = 0)
{
    if (line.compare(0, key.size(), key) != 0 ||
        (line.size() > key.size() && line[key.size()] != ' '))
        return false;
    out.clear();
    size_t pos = key.size();
    while (pos < line.size()) {
        while (pos < line.size() && line[pos] == ' ')
            ++pos;
        if (pos >= line.size())
            break;
        size_t end = line.find(' ', pos);
        if (end == std::string::npos)
            end = line.size();
        long long v = 0;
        if (!parseLong(line.substr(pos, end - pos), v))
            return false;
        out.push_back(v);
        pos = end;
    }
    return expected == 0 || out.size() == expected;
}

std::string
formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

}  // namespace

std::string
skeletonPlanToText(const SkeletonPlan &plan)
{
    std::string out = "geyser-skeleton v1\n";
    char buf[128];
    std::snprintf(buf, sizeof(buf), "technique %d\n",
                  static_cast<int>(plan.technique));
    out += buf;
    std::snprintf(buf, sizeof(buf), "swaps %d\n", plan.swapsInserted);
    out += buf;
    std::snprintf(buf, sizeof(buf), "blocks %d\n", plan.blockCount);
    out += buf;
    std::snprintf(buf, sizeof(buf), "composedblocks %d\n",
                  plan.composedBlockCount);
    out += buf;
    std::snprintf(buf, sizeof(buf), "evaluations %ld\n",
                  plan.compositionEvaluations);
    out += buf;
    out += "maxhsd " + formatDouble(plan.maxBlockHsd) + "\n";
    out += std::string("adopted ") + (plan.adopted ? "1" : "0") + "\n";

    auto writeInts = [&out](const char *key, const std::vector<long long> &v) {
        out += key;
        out += ' ';
        out += std::to_string(v.size());
        for (const long long x : v) {
            out += ' ';
            out += std::to_string(x);
        }
        out += '\n';
    };
    std::vector<long long> ints;
    for (const Qubit q : plan.initialLayout)
        ints.push_back(q);
    writeInts("ilayout", ints);
    ints.clear();
    for (const Qubit q : plan.finalLayout)
        ints.push_back(q);
    writeInts("flayout", ints);
    ints.clear();
    for (size_t i = 0; i < plan.paramVarying.size(); ++i)
        if (plan.paramVarying[i] != 0)
            ints.push_back(static_cast<long long>(i));
    writeInts("varying", ints);
    ints.clear();
    for (const auto &[s, t] : plan.rebindMap) {
        ints.push_back(s);
        ints.push_back(t);
    }
    writeInts("rebind", ints);

    const std::string transpiled = circuitToText(plan.transpiled);
    out += "transpiled " + std::to_string(transpiled.size()) + "\n";
    out += transpiled;
    const std::string stitched = circuitToText(plan.stitched);
    out += "stitched " + std::to_string(stitched.size()) + "\n";
    out += stitched;
    out += "end\n";
    return out;
}

std::optional<SkeletonPlan>
skeletonPlanFromText(const std::string &text)
{
    Cursor cursor{text};
    std::string line;
    if (!cursor.line(line) || line != "geyser-skeleton v1")
        return std::nullopt;

    SkeletonPlan plan;
    std::vector<long long> v;
    if (!cursor.line(line) || !parseKeyedLongs(line, "technique", v, 1))
        return std::nullopt;
    if (v[0] < 0 || v[0] > 3)
        return std::nullopt;
    plan.technique = static_cast<Technique>(v[0]);
    // rebindMember copies these counts into every re-bound member's
    // CompileResult, so a value the compiler never produces (negative,
    // out of range, more composed blocks than blocks, a non-finite or
    // negative distance) must load as a miss, never be served.
    auto readCount = [&](const char *key, long long max, long long &out) {
        if (!cursor.line(line) || !parseKeyedLongs(line, key, v, 1))
            return false;
        out = v[0];
        return out >= 0 && out <= max;
    };
    constexpr long long kIntMax = std::numeric_limits<int>::max();
    long long swaps = 0, blocks = 0, composed = 0, evaluations = 0;
    if (!readCount("swaps", kIntMax, swaps) ||
        !readCount("blocks", kIntMax, blocks) ||
        !readCount("composedblocks", blocks, composed) ||
        !readCount("evaluations", std::numeric_limits<long>::max(),
                   evaluations))
        return std::nullopt;
    plan.swapsInserted = static_cast<int>(swaps);
    plan.blockCount = static_cast<int>(blocks);
    plan.composedBlockCount = static_cast<int>(composed);
    plan.compositionEvaluations = static_cast<long>(evaluations);
    if (!cursor.line(line) || line.compare(0, 7, "maxhsd ") != 0)
        return std::nullopt;
    {
        const std::string value = line.substr(7);
        char *end = nullptr;
        plan.maxBlockHsd = std::strtod(value.c_str(), &end);
        if (end != value.c_str() + value.size() ||
            !std::isfinite(plan.maxBlockHsd) || plan.maxBlockHsd < 0.0)
            return std::nullopt;
    }
    if (!cursor.line(line) || !parseKeyedLongs(line, "adopted", v, 1))
        return std::nullopt;
    plan.adopted = v[0] != 0;

    auto readCounted = [&](const char *key,
                           std::vector<long long> &out) -> bool {
        if (!cursor.line(line) || !parseKeyedLongs(line, key, out))
            return false;
        if (out.empty())
            return false;
        const long long count = out.front();
        out.erase(out.begin());
        return count >= 0 && out.size() == static_cast<size_t>(count);
    };
    // Layout entries are atom indices: non-negative ints.
    auto readLayout = [&](const char *key, std::vector<Qubit> &out) {
        if (!readCounted(key, v))
            return false;
        for (const long long x : v) {
            if (x < 0 || x > kIntMax)
                return false;
            out.push_back(static_cast<Qubit>(x));
        }
        return true;
    };
    if (!readLayout("ilayout", plan.initialLayout) ||
        !readLayout("flayout", plan.finalLayout))
        return std::nullopt;
    std::vector<long long> varyingIdx;
    if (!readCounted("varying", varyingIdx))
        return std::nullopt;
    std::vector<long long> rebind;
    if (!readCounted("rebind", rebind))
        return std::nullopt;
    if (rebind.size() % 2 != 0)
        return std::nullopt;

    auto readCircuit = [&](const char *key, Circuit &out) -> bool {
        if (!cursor.line(line) || !parseKeyedLongs(line, key, v, 1))
            return false;
        if (v[0] < 0)
            return false;
        std::string body;
        if (!cursor.chunk(static_cast<size_t>(v[0]), body))
            return false;
        try {
            out = circuitFromText(body);
        } catch (const std::exception &) {
            return false;
        }
        return true;
    };
    if (!readCircuit("transpiled", plan.transpiled))
        return std::nullopt;
    if (!readCircuit("stitched", plan.stitched))
        return std::nullopt;
    if (!cursor.line(line) || line != "end")
        return std::nullopt;

    // Beyond parsing, the plan must be one buildSkeletonPlan writes and
    // rebindMember relies on: otherwise a checksummed plan re-binds every
    // member wrongly, or none at all, and loads as a hit forever.
    const int width = plan.transpiled.numQubits();
    if (plan.adopted != (plan.composedBlockCount > 0) ||
        plan.stitched.numQubits() != width)
        return std::nullopt;
    if (!plan.adopted &&
        (!rebind.empty() || plan.stitched.gates() != plan.transpiled.gates()))
        return std::nullopt;
    const int logicalQubits = static_cast<int>(plan.initialLayout.size());
    if (!layoutIsValid(plan.initialLayout, logicalQubits, width) ||
        !layoutIsValid(plan.finalLayout, logicalQubits, width))
        return std::nullopt;
    auto isU3 = [](const Circuit &circuit, long long gate) {
        return gate >= 0 && gate < static_cast<long long>(circuit.size()) &&
               circuit.gates()[static_cast<size_t>(gate)].kind() ==
                   GateKind::U3;
    };
    plan.paramVarying.assign(plan.transpiled.size() * 3, 0);
    for (const long long idx : varyingIdx) {
        if (idx < 0 || !isU3(plan.transpiled, idx / 3))
            return std::nullopt;
        plan.paramVarying[static_cast<size_t>(idx)] = 1;
    }
    for (size_t i = 0; i + 1 < rebind.size(); i += 2) {
        const long long s = rebind[i];
        const long long t = rebind[i + 1];
        if (!isU3(plan.stitched, s) || !isU3(plan.transpiled, t))
            return std::nullopt;
        plan.rebindMap.emplace_back(static_cast<int>(s),
                                    static_cast<int>(t));
    }
    return plan;
}

}  // namespace fleet
}  // namespace geyser
