/**
 * @file
 * Fleet compilation tests: skeleton-key canonicalization properties,
 * skeleton grouping, plan serialization round trips, the 1e-12 re-bind
 * vs from-scratch oracle guarantee, warm-cache plan reuse, and the
 * batch payload parser.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "algos/algos.hpp"
#include "algos/suite.hpp"
#include "cache/result_cache.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "fleet/fleet.hpp"
#include "io/serialize.hpp"
#include "obs/obs.hpp"
#include "test_circuits.hpp"

using namespace geyser;
using fleet::ParamSlot;

namespace {

/** Every (gate, param) slot of a circuit — the explicit full mask. */
std::vector<std::pair<int, int>>
allSlots(const Circuit &circuit)
{
    std::vector<std::pair<int, int>> slots;
    for (size_t g = 0; g < circuit.size(); ++g)
        for (int p = 0; p < circuit.gates()[g].numParams(); ++p)
            slots.emplace_back(static_cast<int>(g), p);
    return slots;
}

/** Structure equal and every parameter within `tol`. */
void
expectCircuitsMatch(const Circuit &a, const Circuit &b, double tol)
{
    ASSERT_EQ(a.numQubits(), b.numQubits());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        const Gate &ga = a.gates()[i];
        const Gate &gb = b.gates()[i];
        ASSERT_EQ(ga.kind(), gb.kind()) << "gate " << i;
        ASSERT_EQ(ga.numQubits(), gb.numQubits()) << "gate " << i;
        for (int q = 0; q < ga.numQubits(); ++q)
            ASSERT_EQ(ga.qubit(q), gb.qubit(q)) << "gate " << i;
        for (int p = 0; p < ga.numParams(); ++p)
            ASSERT_LE(std::abs(ga.param(p) - gb.param(p)), tol)
                << "gate " << i << " param " << p;
    }
}

std::string
tempDir(const char *tag)
{
    std::string pattern =
        ::testing::TempDir() + "geyser_fleet_" + tag + "_XXXXXX";
    EXPECT_NE(::mkdtemp(pattern.data()), nullptr);
    return pattern;
}

/** Gate kinds, arities, operands and width equal; parameters ignored. */
bool
sameStructure(const Circuit &a, const Circuit &b)
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
 * Reference grouping: a map keyed by every member's structureDigest,
 * and a linear search of the varying slots per differing parameter.
 * groupBySkeleton must produce the same groups.
 */
std::vector<fleet::SkeletonGroup>
referenceGroups(const std::vector<Circuit> &members)
{
    std::vector<fleet::SkeletonGroup> groups;
    std::unordered_map<std::string, std::vector<size_t>> byDigest;
    for (int m = 0; m < static_cast<int>(members.size()); ++m) {
        const Circuit &circuit = members[static_cast<size_t>(m)];
        const std::string digest = fleet::structureDigest(circuit);
        auto &candidates = byDigest[digest];
        size_t found = groups.size();
        for (const size_t gi : candidates) {
            if (sameStructure(
                    members[static_cast<size_t>(groups[gi].members[0])],
                    circuit)) {
                found = gi;
                break;
            }
        }
        if (found == groups.size()) {
            fleet::SkeletonGroup group;
            group.digest = digest;
            group.members.push_back(m);
            groups.push_back(std::move(group));
            candidates.push_back(found);
            continue;
        }
        fleet::SkeletonGroup &group = groups[found];
        const Circuit &rep =
            members[static_cast<size_t>(group.members.front())];
        for (size_t i = 0; i < circuit.size(); ++i) {
            for (int p = 0; p < rep.gates()[i].numParams(); ++p) {
                if (rep.gates()[i].param(p) == circuit.gates()[i].param(p))
                    continue;
                const ParamSlot slot{static_cast<int>(i), p};
                if (std::find(group.varyingSlots.begin(),
                              group.varyingSlots.end(),
                              slot) == group.varyingSlots.end())
                    group.varyingSlots.push_back(slot);
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

/** Gate kinds, qubits and parameter bits equal. */
void
expectBitIdentical(const Circuit &a, const Circuit &b, const std::string &what)
{
    ASSERT_EQ(a.numQubits(), b.numQubits()) << what;
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t i = 0; i < a.size(); ++i) {
        const Gate &ga = a.gates()[i];
        const Gate &gb = b.gates()[i];
        ASSERT_EQ(ga.kind(), gb.kind()) << what << " gate " << i;
        for (int q = 0; q < ga.numQubits(); ++q)
            ASSERT_EQ(ga.qubit(q), gb.qubit(q)) << what << " gate " << i;
        for (int p = 0; p < ga.numParams(); ++p)
            ASSERT_EQ(std::bit_cast<uint64_t>(ga.param(p)),
                      std::bit_cast<uint64_t>(gb.param(p)))
                << what << " gate " << i << " param " << p;
    }
}

/**
 * The varying mask plans were built with before transpiles were
 * recorded, kept as the reference: nudge every varying slot by two
 * deltas, re-transpile, flag each physical parameter that moved, then
 * widen the flags to whole gates. nullopt when a nudge moved the routed
 * structure (that plan was refused).
 */
std::optional<std::vector<uint8_t>>
perturbationMask(const Circuit &representative,
                 const std::vector<ParamSlot> &varyingSlots)
{
    const CompileResult t0 =
        transpileForTechnique(Technique::Geyser, representative);
    std::vector<uint8_t> varying(t0.physical.size() * 3, 0);
    for (const double delta : {1.2345e-3, -2.3456e-3}) {
        if (varyingSlots.empty())
            break;
        Circuit perturbed = representative;
        for (const ParamSlot &slot : varyingSlots) {
            Gate &gate = perturbed.gates()[static_cast<size_t>(slot.gate)];
            gate.setParam(slot.param, gate.param(slot.param) + delta);
        }
        const CompileResult ti =
            transpileForTechnique(Technique::Geyser, perturbed);
        if (!sameStructure(t0.physical, ti.physical) ||
            t0.initialLayout != ti.initialLayout ||
            t0.finalLayout != ti.finalLayout ||
            t0.swapsInserted != ti.swapsInserted)
            return std::nullopt;
        for (size_t i = 0; i < t0.physical.size(); ++i) {
            const Gate &a = t0.physical.gates()[i];
            const Gate &b = ti.physical.gates()[i];
            for (int p = 0; p < a.numParams(); ++p)
                if (a.param(p) != b.param(p))
                    varying[i * 3 + static_cast<size_t>(p)] = 1;
        }
    }
    for (size_t i = 0; i < t0.physical.size(); ++i)
        if (varying[i * 3] != 0 || varying[i * 3 + 1] != 0 ||
            varying[i * 3 + 2] != 0)
            varying[i * 3] = varying[i * 3 + 1] = varying[i * 3 + 2] = 1;
    return varying;
}

/** Every parameter slot of a circuit, as varying slots. */
std::vector<ParamSlot>
everySlot(const Circuit &circuit)
{
    std::vector<ParamSlot> slots;
    for (const auto &[gate, param] : allSlots(circuit))
        slots.push_back({gate, param});
    return slots;
}

/** Complete "transpile" spans (one per transpiler run) recorded so far. */
long
transpileRuns()
{
    long runs = 0;
    for (const obs::TraceEvent &e : obs::events())
        runs += e.phase == 'X' && e.name == "transpile" ? 1 : 0;
    return runs;
}

}  // namespace

// ---- Satellite 4: skeleton-key canonicalization properties -----------

TEST(SkeletonKey, SameStructureDifferentAnglesShareOneKey)
{
    const PipelineOptions options;
    const Circuit a = vqeBenchmark(4, 2, 1);
    const Circuit b = vqeBenchmark(4, 2, 2);

    // Every slot varies: a pure structure hash.
    const std::string keyA =
        cache::skeletonCacheKey(a, allSlots(a), options, Technique::Geyser);
    const std::string keyB =
        cache::skeletonCacheKey(b, allSlots(b), options, Technique::Geyser);
    EXPECT_EQ(keyA, keyB);
    EXPECT_EQ(keyA.rfind("s-", 0), 0u) << keyA;

    // An empty mask means nothing varies, as in the plan it addresses:
    // it hashes every angle, so the two angle sets get two keys.
    const std::string fixedA =
        cache::skeletonCacheKey(a, {}, options, Technique::Geyser);
    EXPECT_NE(fixedA,
              cache::skeletonCacheKey(b, {}, options, Technique::Geyser));
    EXPECT_NE(fixedA, keyA);

    // And the skeleton key is distinct from the exact compile key,
    // which hashes the angles.
    EXPECT_NE(keyA,
              cache::compileCacheKey(a, options, Technique::Geyser));
}

TEST(SkeletonKey, StructuralChangesChangeTheKey)
{
    const PipelineOptions options;
    Circuit base(3);
    base.u3(0, 0.1, 0.2, 0.3);
    base.cx(0, 1);
    base.u3(2, 0.4, 0.5, 0.6);
    const std::string key =
        cache::skeletonCacheKey(base, {}, options, Technique::Geyser);

    {  // Different gate kind at one position.
        Circuit c(3);
        c.u3(0, 0.1, 0.2, 0.3);
        c.cz(0, 1);
        c.u3(2, 0.4, 0.5, 0.6);
        EXPECT_NE(cache::skeletonCacheKey(c, {}, options,
                                          Technique::Geyser),
                  key);
    }
    {  // Different operands.
        Circuit c(3);
        c.u3(0, 0.1, 0.2, 0.3);
        c.cx(1, 0);
        c.u3(2, 0.4, 0.5, 0.6);
        EXPECT_NE(cache::skeletonCacheKey(c, {}, options,
                                          Technique::Geyser),
                  key);
    }
    {  // Extra qubit.
        Circuit c(4);
        c.u3(0, 0.1, 0.2, 0.3);
        c.cx(0, 1);
        c.u3(2, 0.4, 0.5, 0.6);
        EXPECT_NE(cache::skeletonCacheKey(c, {}, options,
                                          Technique::Geyser),
                  key);
    }
    {  // Extra gate.
        Circuit c = base;
        c.h(2);
        EXPECT_NE(cache::skeletonCacheKey(c, {}, options,
                                          Technique::Geyser),
                  key);
    }
    // Different technique (and hence topology).
    EXPECT_NE(cache::skeletonCacheKey(base, {}, options,
                                      Technique::Superconducting),
              key);
    // Each behaviour option splits the key.
    PipelineOptions gateAware = options;
    gateAware.blocker.pulseAware = false;
    PipelineOptions annealing = options;
    annealing.compose.optimizer = ComposeOptimizer::DualAnnealing;
    PipelineOptions extended = options;
    extended.compose.entanglerMode = EntanglerMode::Extended;
    for (const PipelineOptions &other : {gateAware, annealing, extended})
        EXPECT_NE(cache::skeletonCacheKey(base, {}, other, Technique::Geyser),
                  key);
}

TEST(SkeletonKey, FixedAnglesAreBitExactVaryingAnglesCanonicalize)
{
    const PipelineOptions options;
    Circuit base(2);
    base.u3(0, 0.1, 0.2, 0.3);
    base.cx(0, 1);
    base.u3(1, 0.4, 0.5, 0.6);

    // Only gate 2's angles vary; gate 0's are fixed.
    const std::vector<std::pair<int, int>> mask = {{2, 0}, {2, 1}, {2, 2}};
    const std::string key =
        cache::skeletonCacheKey(base, mask, options, Technique::Geyser);

    // Changing a varying angle keeps the key.
    {
        Circuit c(2);
        c.u3(0, 0.1, 0.2, 0.3);
        c.cx(0, 1);
        c.u3(1, 9.4, 9.5, 9.6);
        EXPECT_EQ(cache::skeletonCacheKey(c, mask, options,
                                          Technique::Geyser),
                  key);
    }
    // Changing a fixed angle changes the key.
    {
        Circuit c(2);
        c.u3(0, 0.1000000001, 0.2, 0.3);
        c.cx(0, 1);
        c.u3(1, 0.4, 0.5, 0.6);
        EXPECT_NE(cache::skeletonCacheKey(c, mask, options,
                                          Technique::Geyser),
                  key);
    }
    // Shrinking the mask (slot becomes fixed) changes the key.
    EXPECT_NE(cache::skeletonCacheKey(base, {{2, 0}}, options,
                                      Technique::Geyser),
              key);
}

// ---- Grouping --------------------------------------------------------

TEST(SkeletonGrouping, PartitionsByStructureAndDerivesVaryingSlots)
{
    std::vector<Circuit> members;
    for (uint64_t seed = 0; seed < 3; ++seed)
        members.push_back(vqeBenchmark(4, 1, seed));
    members.push_back(vqeBenchmark(5, 1, 0));  // Different skeleton.
    members.push_back(vqeBenchmark(4, 1, 7));  // Back to the first.

    const auto groups = fleet::groupBySkeleton(members);
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0].members, (std::vector<int>{0, 1, 2, 4}));
    EXPECT_EQ(groups[1].members, (std::vector<int>{3}));

    // The varying slots are exactly the slots that differ somewhere in
    // the group, and every one is a real parameter slot.
    ASSERT_FALSE(groups[0].varyingSlots.empty());
    const Circuit &rep = members[0];
    for (const ParamSlot &slot : groups[0].varyingSlots) {
        ASSERT_GE(slot.gate, 0);
        ASSERT_LT(slot.gate, static_cast<int>(rep.size()));
        ASSERT_LT(slot.param, rep.gates()[slot.gate].numParams());
        bool differs = false;
        for (const int m : groups[0].members)
            differs = differs ||
                      members[static_cast<size_t>(m)]
                              .gates()[slot.gate]
                              .param(slot.param) !=
                          rep.gates()[slot.gate].param(slot.param);
        EXPECT_TRUE(differs)
            << "slot (" << slot.gate << "," << slot.param << ")";
    }
    // A single-member group has nothing varying.
    EXPECT_TRUE(groups[1].varyingSlots.empty());
    // Digests separate the structures.
    EXPECT_NE(groups[0].digest, groups[1].digest);
    EXPECT_EQ(groups[0].digest, fleet::structureDigest(members[4]));
}

TEST(SkeletonGrouping, MatchesReference)
{
    // Four skeletons, one of them the same gates as another on a wider
    // register, so only the width tells them apart.
    Circuit toffoli(3);
    toffoli.ry(0, 0.7);
    toffoli.ccx(0, 1, 2);
    toffoli.rz(2, 0.4);
    Circuit wide(toffoli.numQubits() + 1);
    for (const Gate &g : toffoli.gates())
        wide.append(g);
    const std::vector<Circuit> skeletons = {
        vqeBenchmark(4, 1, 11), vqeBenchmark(4, 2, 12), toffoli, wide};

    Rng rng(25);
    for (int trial = 0; trial < 20; ++trial) {
        // Interleave the first `kinds` skeletons; each member moves a
        // seeded subset of its angles, so some slots never vary.
        const int kinds = 3 + trial % 2;
        const int count = 1 + rng.uniformInt(40);
        std::vector<Circuit> members;
        for (int m = 0; m < count; ++m) {
            Circuit c = skeletons[static_cast<size_t>(
                (m + rng.uniformInt(2)) % kinds)];
            for (Gate &g : c.gates())
                for (int p = 0; p < g.numParams(); ++p)
                    if (rng.uniformInt(4) == 0)
                        g.setParam(p, g.param(p) + rng.uniform(-0.2, 0.2));
            members.push_back(std::move(c));
        }
        std::vector<const Circuit *> pointers;
        for (const Circuit &c : members)
            pointers.push_back(&c);

        const auto want = referenceGroups(members);
        for (const auto &got : {fleet::groupBySkeleton(members),
                                fleet::groupBySkeleton(pointers)}) {
            ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
            for (size_t g = 0; g < want.size(); ++g) {
                EXPECT_EQ(got[g].digest, want[g].digest);
                EXPECT_EQ(got[g].members, want[g].members);
                EXPECT_EQ(got[g].varyingSlots, want[g].varyingSlots);
            }
        }
    }
}

// ---- Plan build / re-bind / oracle -----------------------------------

TEST(SkeletonPlan, RebindMatchesFromScratchOracleTo1e12)
{
    // A VQE sweep (nothing composes, angles vary) and two identical
    // copies each of adder-9 and multiplier-10 (nothing varies, and
    // some blocks compose only through the midpoint split).
    std::vector<Circuit> vqe;
    for (uint64_t seed = 0; seed < 4; ++seed)
        vqe.push_back(vqeBenchmark(4, 1, seed));
    const Circuit adder = benchmarkByName("adder-9").make();
    const Circuit multiplier = benchmarkByName("multiplier-10").make();
    const std::vector<std::vector<Circuit>> sweeps = {
        vqe, {adder, adder}, {multiplier, multiplier}};

    PipelineOptions options;
    for (const std::vector<Circuit> &members : sweeps) {
        const auto groups = fleet::groupBySkeleton(members);
        ASSERT_EQ(groups.size(), 1u);
        const auto plan = fleet::buildSkeletonPlan(
            Technique::Geyser, members[0], groups[0].varyingSlots, options);
        ASSERT_TRUE(plan.has_value());
        EXPECT_GT(plan->blockCount, 0);

        for (size_t m = 1; m < members.size(); ++m) {
            const auto rebound =
                fleet::rebindMember(*plan, members[m], options);
            ASSERT_TRUE(rebound.has_value()) << "member " << m;

            // Oracle: the same stitched construction, rebuilt from
            // scratch for this member — no memo, no persistent cache.
            const auto oracle = fleet::buildSkeletonPlan(
                Technique::Geyser, members[m], groups[0].varyingSlots,
                options, /*cachedCompose=*/false);
            ASSERT_TRUE(oracle.has_value()) << "member " << m;
            const auto fromScratch =
                fleet::rebindMember(*oracle, members[m], options);
            ASSERT_TRUE(fromScratch.has_value()) << "member " << m;

            expectCircuitsMatch(rebound->physical, fromScratch->physical,
                                1e-12);
            EXPECT_EQ(rebound->stats.totalPulses,
                      fromScratch->stats.totalPulses);
            EXPECT_EQ(rebound->swapsInserted, fromScratch->swapsInserted);
        }
    }

    // The fleet driver's own verification agrees on the skeletons that
    // compose.
    for (const Circuit &circuit : {adder, multiplier}) {
        std::vector<fleet::FleetJob> jobs(2);
        for (size_t m = 0; m < jobs.size(); ++m) {
            jobs[m].name = "m" + std::to_string(m);
            jobs[m].logical = circuit;
        }
        const fleet::FleetReport report =
            fleet::compileFleet(jobs, fleet::FleetOptions{});
        EXPECT_EQ(report.rebound, 2);
        EXPECT_EQ(report.verified, 1);
        EXPECT_EQ(report.verifyFailures, 0);
    }
}

TEST(SkeletonPlan, RecordedMaskEqualsThePerturbationReference)
{
    // With every parameter slot varying, the mask the record gives must
    // be the one perturbation differencing and widening gave: any other
    // mask composes other segments and changes outputs.
    std::vector<std::pair<std::string, Circuit>> circuits;
    const char *names[] = {"vqe 4x1", "vqe 4x2", "toffoli pair",
                           "toffoli ladder"};
    const std::vector<Circuit> skeletons = fleetSweepSkeletons();
    for (size_t i = 0; i < skeletons.size(); ++i)
        circuits.emplace_back(names[i], skeletons[i]);
    for (const BenchmarkSpec &spec : benchmarkSuite())
        if (spec.numQubits <= 10)
            circuits.emplace_back(spec.name, spec.make());

    std::vector<std::string> refused;
    for (const auto &[name, circuit] : circuits) {
        const std::vector<ParamSlot> slots = everySlot(circuit);
        const auto reference = perturbationMask(circuit, slots);
        const auto recorded = fleet::varyingMask(
            recordTranspile(Technique::Geyser, circuit), slots);
        ASSERT_TRUE(recorded.has_value()) << name;
        if (!reference) {
            refused.push_back(name);
            continue;
        }
        EXPECT_EQ(*recorded, *reference) << name;
    }
    // Rows where the reference refused a plan (a nudge moved the
    // structure); a recorded plan serves them and lets the members whose
    // replay diverges fall back one by one.
    EXPECT_EQ(refused, std::vector<std::string>{}) << refused.size();
}

TEST(SkeletonPlan, BuildTranspilesTheRepresentativeOnce)
{
    std::vector<Circuit> members;
    for (uint64_t seed = 0; seed < 3; ++seed)
        members.push_back(vqeBenchmark(4, 1, seed));
    const auto groups = fleet::groupBySkeleton(members);
    ASSERT_FALSE(groups[0].varyingSlots.empty());

    obs::reset();
    std::optional<fleet::SkeletonPlan> plan;
    {
        obs::EnabledScope on(true);
        plan = fleet::buildSkeletonPlan(Technique::Geyser, members[0],
                                        groups[0].varyingSlots,
                                        PipelineOptions{});
        ASSERT_TRUE(plan.has_value());
        EXPECT_EQ(transpileRuns(), 1);
        // Its members replay the record: no transpile at all.
        for (const Circuit &member : members)
            ASSERT_TRUE(
                fleet::rebindMember(*plan, member, PipelineOptions{}));
        EXPECT_EQ(transpileRuns(), 1);
    }
    obs::reset();
}

TEST(SkeletonPlan, LoadedPlanRecordsOnceAndReplaysFromParallelThreads)
{
    Rng rng(5);
    const Circuit skeleton = fleetSweepSkeletons()[2];  // Composes.
    std::vector<Circuit> members = {skeleton};
    for (int m = 0; m < 63; ++m) {
        Circuit c = skeleton;
        for (Gate &g : c.gates())
            for (int p = 0; p < g.numParams(); ++p)
                g.setParam(p, g.param(p) + rng.uniform(-0.2, 0.2));
        members.push_back(std::move(c));
    }
    const auto groups = fleet::groupBySkeleton(members);
    ASSERT_EQ(groups.size(), 1u);
    PipelineOptions options;
    const auto plan = fleet::buildSkeletonPlan(
        Technique::Geyser, members[0], groups[0].varyingSlots, options);
    ASSERT_TRUE(plan.has_value());
    ASSERT_TRUE(plan->adopted);
    const auto loaded =
        fleet::skeletonPlanFromText(fleet::skeletonPlanToText(*plan));
    ASSERT_TRUE(loaded.has_value());

    // Four threads race to re-bind the loaded plan, which has no record
    // yet: exactly one of them records, and no replay diverges.
    std::vector<std::optional<CompileResult>> fromLoaded(members.size());
    std::vector<char> diverged(members.size(), 0);
    obs::reset();
    {
        obs::EnabledScope on(true);
        std::vector<std::thread> threads;
        constexpr size_t kThreads = 4;
        for (size_t t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                for (size_t m = t; m < members.size(); m += kThreads) {
                    bool d = false;
                    fromLoaded[m] =
                        fleet::rebindMember(*loaded, members[m], options, d);
                    diverged[m] = d ? 1 : 0;
                }
            });
        for (std::thread &thread : threads)
            thread.join();
        EXPECT_EQ(transpileRuns(), 1);
    }
    obs::reset();

    for (size_t m = 0; m < members.size(); ++m) {
        EXPECT_EQ(diverged[m], 0) << "member " << m;
        ASSERT_TRUE(fromLoaded[m].has_value()) << "member " << m;
        const auto inMemory = fleet::rebindMember(*plan, members[m], options);
        ASSERT_TRUE(inMemory.has_value()) << "member " << m;
        expectBitIdentical(fromLoaded[m]->physical, inMemory->physical,
                           "member " + std::to_string(m));
        EXPECT_EQ(fromLoaded[m]->stats.totalPulses,
                  inMemory->stats.totalPulses);
        EXPECT_EQ(fromLoaded[m]->stats.depthPulses,
                  inMemory->stats.depthPulses);
        EXPECT_EQ(fromLoaded[m]->finalLayout, inMemory->finalLayout);
    }
    // Both are what the checked transpile gives the members.
    PipelineOptions checked;
    checked.verifyEquivalence = true;
    for (size_t m = 0; m < members.size(); m += 8) {
        const auto transpiled = fleet::rebindMember(*plan, members[m], checked);
        ASSERT_TRUE(transpiled.has_value()) << "member " << m;
        expectBitIdentical(transpiled->physical, fromLoaded[m]->physical,
                           "checked member " + std::to_string(m));
    }
}

TEST(SkeletonPlan, RebindRejectsDivergentMembers)
{
    std::vector<Circuit> members;
    for (uint64_t seed = 0; seed < 2; ++seed)
        members.push_back(vqeBenchmark(4, 1, seed));
    const auto groups = fleet::groupBySkeleton(members);
    PipelineOptions options;
    const auto plan = fleet::buildSkeletonPlan(
        Technique::Geyser, members[0], groups[0].varyingSlots, options);
    ASSERT_TRUE(plan.has_value());

    // A structurally different circuit cannot re-bind.
    EXPECT_FALSE(
        fleet::rebindMember(*plan, vqeBenchmark(4, 2, 0), options)
            .has_value());
    EXPECT_FALSE(
        fleet::rebindMember(*plan, vqeBenchmark(5, 1, 0), options)
            .has_value());
}

TEST(SkeletonPlan, SerializationRoundTripsAndRebindsIdentically)
{
    std::vector<Circuit> members;
    for (uint64_t seed = 0; seed < 3; ++seed)
        members.push_back(vqeBenchmark(4, 1, seed));
    const auto groups = fleet::groupBySkeleton(members);
    PipelineOptions options;
    const auto plan = fleet::buildSkeletonPlan(
        Technique::Geyser, members[0], groups[0].varyingSlots, options);
    ASSERT_TRUE(plan.has_value());

    const std::string text = fleet::skeletonPlanToText(*plan);
    const auto parsed = fleet::skeletonPlanFromText(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->technique, plan->technique);
    EXPECT_EQ(parsed->swapsInserted, plan->swapsInserted);
    EXPECT_EQ(parsed->blockCount, plan->blockCount);
    EXPECT_EQ(parsed->composedBlockCount, plan->composedBlockCount);
    EXPECT_EQ(parsed->adopted, plan->adopted);
    EXPECT_EQ(parsed->initialLayout, plan->initialLayout);
    EXPECT_EQ(parsed->finalLayout, plan->finalLayout);
    EXPECT_EQ(parsed->paramVarying, plan->paramVarying);
    EXPECT_EQ(parsed->rebindMap, plan->rebindMap);
    expectCircuitsMatch(parsed->transpiled, plan->transpiled, 0.0);
    expectCircuitsMatch(parsed->stitched, plan->stitched, 0.0);
    // Round-tripping the parsed plan is byte-stable.
    EXPECT_EQ(fleet::skeletonPlanToText(*parsed), text);

    // Re-binding through the parsed plan gives the identical result.
    const auto a = fleet::rebindMember(*plan, members[2], options);
    const auto b = fleet::rebindMember(*parsed, members[2], options);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    expectCircuitsMatch(a->physical, b->physical, 0.0);

    // Malformed text is rejected, not crashed on.
    EXPECT_FALSE(fleet::skeletonPlanFromText("").has_value());
    EXPECT_FALSE(fleet::skeletonPlanFromText("garbage\n").has_value());
    EXPECT_FALSE(
        fleet::skeletonPlanFromText(text.substr(0, text.size() / 2))
            .has_value());
}

TEST(SkeletonPlan, LoaderRejectsCountsTheCompilerNeverProduces)
{
    // rebindMember copies a plan's counts into every re-bound member's
    // CompileResult, so a disk entry must not load with a count or
    // distance no compile produces: it is a miss, then a recompute.
    std::vector<Circuit> members;
    for (uint64_t seed = 0; seed < 2; ++seed)
        members.push_back(vqeBenchmark(4, 1, seed));
    const auto groups = fleet::groupBySkeleton(members);
    const auto plan =
        fleet::buildSkeletonPlan(Technique::Geyser, members[0],
                                 groups[0].varyingSlots, PipelineOptions{});
    ASSERT_TRUE(plan.has_value());
    const std::string text = fleet::skeletonPlanToText(*plan);
    ASSERT_TRUE(fleet::skeletonPlanFromText(text).has_value());

    // The plan text with one header line's value replaced.
    auto withValue = [&](const std::string &key, const std::string &value) {
        const size_t at = text.find("\n" + key + " ") + 1;
        EXPECT_NE(at, 0u) << key;
        const size_t eol = text.find('\n', at);
        return text.substr(0, at) + key + " " + value + text.substr(eol);
    };
    const std::pair<std::string, std::string> corrupt[] = {
        {"swaps", "-1"},
        {"swaps", "2147483648"},
        {"blocks", "-1"},
        {"blocks", "4294967296"},
        {"composedblocks", "-1"},
        {"composedblocks", "2147483648"},
        {"composedblocks", std::to_string(plan->blockCount + 1)},
        {"evaluations", "-1"},
        {"maxhsd", "nan"},
        {"maxhsd", "inf"},
        {"maxhsd", "-inf"},
        {"maxhsd", "-1e-09"},
        {"ilayout", "4 0 1 2 -1"},
        {"flayout", "4 0 1 2 2147483648"},
    };
    for (const auto &[key, value] : corrupt)
        EXPECT_FALSE(
            fleet::skeletonPlanFromText(withValue(key, value)).has_value())
            << key << " " << value;

    // Header lines that break what buildSkeletonPlan guarantees and
    // rebindMember relies on: `adopted` disagreeing with the composed
    // blocks, a repeated atom, an atom outside the transpiled circuit,
    // and layouts of unequal length.
    ASSERT_GE(plan->initialLayout.size(), 2u);
    auto layoutText = [](std::vector<Qubit> layout) {
        std::string out = std::to_string(layout.size());
        for (const Qubit q : layout)
            out += " " + std::to_string(q);
        return out;
    };
    std::vector<Qubit> repeated = plan->initialLayout;
    repeated.back() = repeated.front();
    std::vector<Qubit> outside = plan->finalLayout;
    outside.back() = plan->transpiled.numQubits();
    std::vector<Qubit> shorter = plan->finalLayout;
    shorter.pop_back();
    const std::pair<std::string, std::string> inconsistent[] = {
        {"adopted", plan->adopted ? "0" : "1"},
        {"ilayout", layoutText(repeated)},
        {"flayout", layoutText(outside)},
        {"flayout", layoutText(shorter)},
    };
    for (const auto &[key, value] : inconsistent)
        EXPECT_FALSE(
            fleet::skeletonPlanFromText(withValue(key, value)).has_value())
            << key << " " << value;

    // Body-level cases: a stitched circuit wider than the transpiled
    // one, and a re-bind pair whose stitched gate is not a U3.
    ASSERT_TRUE(plan->adopted);
    ASSERT_FALSE(plan->rebindMap.empty());
    fleet::SkeletonPlan wider = *plan;
    wider.stitched = Circuit(plan->stitched.numQubits() + 1);
    for (const Gate &gate : plan->stitched.gates())
        wider.stitched.append(gate);
    EXPECT_FALSE(fleet::skeletonPlanFromText(fleet::skeletonPlanToText(wider))
                     .has_value());
    fleet::SkeletonPlan onCz = *plan;
    const auto &stitchedGates = plan->stitched.gates();
    const auto cz = std::find_if(
        stitchedGates.begin(), stitchedGates.end(),
        [](const Gate &gate) { return gate.kind() == GateKind::CZ; });
    ASSERT_NE(cz, stitchedGates.end());
    onCz.rebindMap.front().first =
        static_cast<int>(cz - stitchedGates.begin());
    EXPECT_FALSE(fleet::skeletonPlanFromText(fleet::skeletonPlanToText(onCz))
                     .has_value());
}

// ---- Fleet engine ----------------------------------------------------

TEST(FleetCompile, WarmCacheServesThePlanWithoutRebuilding)
{
    std::vector<fleet::FleetJob> jobs;
    for (uint64_t seed = 0; seed < 4; ++seed) {
        fleet::FleetJob job;
        job.name = "m" + std::to_string(seed);
        job.logical = vqeBenchmark(4, 1, seed);
        jobs.push_back(std::move(job));
    }

    const std::string dir = tempDir("warm");
    cache::CacheConfig cacheConfig;
    cacheConfig.dir = dir;

    fleet::FleetReport cold;
    {
        cache::ResultCache cacheStore(cacheConfig);
        fleet::FleetOptions options;
        options.pipeline.cache = &cacheStore;
        cold = fleet::compileFleet(jobs, options);
    }
    EXPECT_EQ(cold.members, 4);
    EXPECT_EQ(cold.groups, 1);
    EXPECT_GE(cold.planStores, 1);
    EXPECT_EQ(cold.planHits, 0);
    EXPECT_EQ(cold.verifyFailures, 0);
    EXPECT_EQ(cold.rebound + cold.fallback, cold.members);

    fleet::FleetReport warm;
    {
        cache::ResultCache cacheStore(cacheConfig);
        fleet::FleetOptions options;
        options.pipeline.cache = &cacheStore;
        warm = fleet::compileFleet(jobs, options);
    }
    EXPECT_GE(warm.planHits, 1);
    EXPECT_EQ(warm.planStores, 0);
    EXPECT_EQ(warm.verifyFailures, 0);
    EXPECT_EQ(warm.cacheCorrupt, 0);
    EXPECT_GT(warm.reuseRatio(), 0.9);

    // Same results either way.
    ASSERT_EQ(warm.rows.size(), cold.rows.size());
    for (size_t i = 0; i < warm.rows.size(); ++i) {
        EXPECT_EQ(warm.rows[i].pulses, cold.rows[i].pulses) << i;
        EXPECT_EQ(warm.rows[i].depth, cold.rows[i].depth) << i;
    }
}

TEST(FleetCompile, StoredPlanNoBuildWritesIsQuarantinedAndRebuilt)
{
    // A plan entry with a valid frame whose header contradicts itself or
    // its circuits must not be served: flipping `adopted` re-bound every
    // member to the uncomposed circuit (330 pulses instead of 126), and
    // a layout naming a repeated or missing atom made every member fall
    // back on every run. Both now load as a miss, quarantined and
    // rebuilt.
    std::vector<fleet::FleetJob> jobs(6);
    for (size_t m = 0; m < jobs.size(); ++m) {
        Circuit circuit(3);
        circuit.ry(0, 0.7 + 0.01 * static_cast<double>(m));
        circuit.ry(1, 1.9);
        circuit.ry(2, 2.6);
        circuit.ccx(0, 1, 2);
        circuit.h(2);
        circuit.ccx(2, 0, 1);
        circuit.rz(0, 0.4 + 0.02 * static_cast<double>(m));
        jobs[m].name = "m" + std::to_string(m);
        jobs[m].logical = std::move(circuit);
    }
    const std::string dir = tempDir("rewritten");
    cache::CacheConfig cacheConfig;
    cacheConfig.dir = dir;
    cache::ResultCache cacheStore(cacheConfig);
    fleet::FleetOptions options;
    options.pipeline.cache = &cacheStore;
    auto totalPulses = [](const fleet::FleetReport &report) {
        long total = 0;
        for (const auto &row : report.rows)
            total += row.pulses;
        return total;
    };

    const fleet::FleetReport cold = fleet::compileFleet(jobs, options);
    EXPECT_EQ(cold.planStores, 1);
    EXPECT_EQ(cold.rebound, 6);
    ASSERT_EQ(totalPulses(cold), 126);
    std::string key;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("s-", 0) == 0 && entry.path().extension() == ".gce")
            key = entry.path().stem().string();
    }
    ASSERT_FALSE(key.empty());
    const std::string text = cacheStore.load(key).value_or("");
    ASSERT_NE(text.find("\nadopted 1\n"), std::string::npos) << text;
    ASSERT_NE(text.find("\nilayout 3 0 1 2\n"), std::string::npos) << text;

    const std::pair<std::string, std::string> rewrites[] = {
        {"adopted 1", "adopted 0"},
        {"ilayout 3 0 1 2", "ilayout 3 0 1 1"},
        {"ilayout 3 0 1 2", "ilayout 3 0 1 9"},
    };
    for (const auto &[from, to] : rewrites) {
        std::string rewritten = text;
        rewritten.replace(rewritten.find("\n" + from + "\n") + 1,
                          from.size(), to);
        ASSERT_TRUE(cacheStore.store(key, rewritten));
        const fleet::FleetReport warm = fleet::compileFleet(jobs, options);
        EXPECT_EQ(warm.planHits, 0) << to;
        EXPECT_EQ(warm.planStores, 1) << to;
        EXPECT_EQ(warm.cacheCorrupt, 1) << to;
        EXPECT_EQ(warm.rebound, 6) << to;
        EXPECT_EQ(warm.fallback, 0) << to;
        EXPECT_EQ(warm.verifyFailures, 0) << to;
        EXPECT_EQ(totalPulses(warm), 126) << to;
        // The rebuilt plan is the one the cold run stored.
        EXPECT_EQ(cacheStore.load(key).value_or(""), text) << to;
    }
}

TEST(FleetCompile, IdenticalMembersGetAPlanPerAngleSet)
{
    // A group of identical members, or of one member, has nothing
    // varying, so its plan fixes every angle — and so must its key.
    // Otherwise a later group with other angles loads that plan, fails
    // the fixed-angle check on every member and never stores its own.
    auto fleetOf = [](uint64_t seed, int copies) {
        std::vector<fleet::FleetJob> jobs(static_cast<size_t>(copies));
        for (size_t m = 0; m < jobs.size(); ++m) {
            jobs[m].name = "m" + std::to_string(m);
            jobs[m].logical = vqeBenchmark(4, 2, seed);
        }
        return jobs;
    };
    const std::string dir = tempDir("fixed");
    cache::CacheConfig cacheConfig;
    cacheConfig.dir = dir;
    cache::ResultCache cacheStore(cacheConfig);
    fleet::FleetOptions options;
    options.pipeline.cache = &cacheStore;

    // Three identical members per angle set, then single members.
    const std::pair<uint64_t, int> fleets[] = {{1, 3}, {2, 3}, {3, 1}, {4, 1}};
    for (const auto &[seed, copies] : fleets) {
        const fleet::FleetReport report =
            fleet::compileFleet(fleetOf(seed, copies), options);
        EXPECT_EQ(report.planHits, 0) << "seed " << seed;
        EXPECT_EQ(report.planStores, 1) << "seed " << seed;
        EXPECT_EQ(report.rebound, copies) << "seed " << seed;
        EXPECT_EQ(report.fallback, 0) << "seed " << seed;
    }
    // Each angle set's plan is served on a warm run.
    const fleet::FleetReport warm =
        fleet::compileFleet(fleetOf(2, 3), options);
    EXPECT_EQ(warm.planHits, 1);
    EXPECT_EQ(warm.rebound, 3);
}

TEST(FleetCompile, MultiTechniqueReportCoversEveryMember)
{
    std::vector<fleet::FleetJob> jobs;
    for (uint64_t seed = 0; seed < 2; ++seed) {
        fleet::FleetJob job;
        job.name = "m" + std::to_string(seed);
        job.logical = vqeBenchmark(4, 1, seed);
        jobs.push_back(std::move(job));
    }
    fleet::FleetOptions options;
    options.techniques = {Technique::Baseline, Technique::Geyser};
    const fleet::FleetReport report = fleet::compileFleet(jobs, options);

    EXPECT_EQ(report.members, 2);
    EXPECT_EQ(report.jobs, 4);
    ASSERT_EQ(report.techniques.size(), 2u);
    EXPECT_EQ(report.techniques[0].technique, Technique::Baseline);
    EXPECT_EQ(report.techniques[0].members, 2);
    EXPECT_EQ(report.techniques[1].technique, Technique::Geyser);
    // Geyser (optimized, composed) must not be worse than baseline on
    // total pulses — the paper's core claim, embedded in the report.
    EXPECT_LE(report.techniques[1].totalPulses,
              report.techniques[0].totalPulses);

    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"geyser-fleet\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"techniques\""), std::string::npos);
    EXPECT_NE(json.find("\"reuseRatio\""), std::string::npos);
    const std::string table = report.renderTable();
    EXPECT_NE(table.find("Baseline"), std::string::npos) << table;
    EXPECT_NE(table.find("Geyser"), std::string::npos);
}

TEST(FleetCompile, CountsReplayFallbacks)
{
    // A seeded sweep replays every member.
    std::vector<fleet::FleetJob> jobs;
    for (uint64_t seed = 0; seed < 6; ++seed) {
        fleet::FleetJob job;
        job.name = "m" + std::to_string(seed);
        job.logical = vqeBenchmark(4, 1, seed);
        jobs.push_back(std::move(job));
    }
    const long before =
        obs::serviceCounter("fleet.replay_fallbacks").value();
    const fleet::FleetReport sweep =
        fleet::compileFleet(jobs, fleet::FleetOptions{});
    EXPECT_EQ(sweep.rebound, 6);
    EXPECT_EQ(sweep.replayFallbacks, 0);
    EXPECT_NE(sweep.toJson().find("\"replayFallbacks\": 0"),
              std::string::npos)
        << sweep.toJson();
    EXPECT_NE(sweep.renderTable().find("replay fallbacks 0"),
              std::string::npos)
        << sweep.renderTable();

    // A member whose leading rotation is the identity drops it: its
    // replay diverges at fusion's identity test, it transpiles, and the
    // transpile routes apart from the plan, so it compiles in full.
    auto member = [](double angle) {
        Circuit c(2);
        c.rz(0, angle);
        c.cx(0, 1);
        c.ry(1, 0.4 + angle);
        return c;
    };
    jobs.clear();
    for (const double angle : {0.3, 0.0, 0.7}) {
        fleet::FleetJob job;
        job.name = "a" + std::to_string(jobs.size());
        job.logical = member(angle);
        jobs.push_back(std::move(job));
    }
    const fleet::FleetReport divergent =
        fleet::compileFleet(jobs, fleet::FleetOptions{});
    EXPECT_EQ(divergent.replayFallbacks, 1);
    EXPECT_EQ(divergent.fallback, 1);
    EXPECT_EQ(divergent.rebound, 2);
    EXPECT_NE(divergent.toJson().find("\"replayFallbacks\": 1"),
              std::string::npos);
    EXPECT_EQ(obs::serviceCounter("fleet.replay_fallbacks").value() - before,
              1);
}

TEST(FleetCompile, VerifiesTheFirstSampledReboundMembersInOrder)
{
    std::vector<fleet::FleetJob> jobs;
    for (uint64_t seed = 0; seed < 6; ++seed) {
        fleet::FleetJob job;
        job.name = "m" + std::to_string(seed);
        job.logical = vqeBenchmark(4, 1, seed);
        jobs.push_back(std::move(job));
    }
    fleet::FleetOptions options;
    options.verifySample = 3;
    const fleet::FleetReport report = fleet::compileFleet(jobs, options);

    EXPECT_EQ(report.groups, 1);
    ASSERT_EQ(report.rebound, 6);
    EXPECT_EQ(report.verified, 3);
    EXPECT_EQ(report.verifyFailures, 0);
    ASSERT_EQ(report.rows.size(), 6u);
    for (size_t m = 0; m < report.rows.size(); ++m)
        EXPECT_EQ(report.rows[m].verified, m < 3) << "member " << m;
}

// ---- Batch payload parser --------------------------------------------

TEST(FleetPayload, SplitsOnSeparatorLinesAndNamesMembers)
{
    const std::string a = circuitToQasm(vqeBenchmark(3, 1, 0));
    const std::string b = circuitToQasm(vqeBenchmark(3, 1, 1));
    const auto jobs = fleet::parseFleetPayload(a + "%%\n" + b);
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].name, "m0");
    EXPECT_EQ(jobs[1].name, "m1");
    EXPECT_EQ(jobs[0].logical.numQubits(), 3);
    EXPECT_EQ(fleet::structureDigest(jobs[0].logical),
              fleet::structureDigest(jobs[1].logical));

    // CRLF separators and whitespace-only trailing parts are tolerated.
    const auto crlf = fleet::parseFleetPayload(a + "%%\r\n" + b +
                                               "%%\n  \n");
    EXPECT_EQ(crlf.size(), 2u);
}

TEST(FleetPayload, MalformedMemberNamesItsIndex)
{
    const std::string good = circuitToQasm(vqeBenchmark(3, 1, 0));
    try {
        fleet::parseFleetPayload(good + "%%\nthis is not qasm\n");
        FAIL() << "expected ParseError";
    } catch (const ParseError &e) {
        EXPECT_NE(std::string(e.what()).find("fleet member 1"),
                  std::string::npos)
            << e.what();
    }
}
