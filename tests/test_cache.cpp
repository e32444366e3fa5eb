/**
 * @file
 * Tests for the persistent result cache (src/cache) and its checksummed
 * framing (src/io/framing): crash-safety and corruption fallback,
 * single-flight deduplication, LRU eviction, and end-to-end replay of
 * compiled circuits through PipelineOptions::cache.
 */
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "algos/suite.hpp"
#include "cache/result_cache.hpp"
#include "compose/composer.hpp"
#include "geyser/pipeline.hpp"
#include "io/framing.hpp"
#include "io/serialize.hpp"
#include "linalg/kernels/backend.hpp"

namespace geyser {
namespace {

namespace fs = std::filesystem;

/** Fresh unique cache directory per test, removed on teardown. */
class CacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        char pattern[] = "/tmp/geyser_cache_test_XXXXXX";
        ASSERT_NE(::mkdtemp(pattern), nullptr);
        dir_ = pattern;
    }

    void TearDown() override
    {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    cache::CacheConfig config(long long max_bytes = 0) const
    {
        cache::CacheConfig cfg;
        cfg.dir = dir_;
        cfg.maxBytes = max_bytes;
        return cfg;
    }

    std::string dir_;
};

TEST(Framing, RoundTripsArbitraryPayload)
{
    const std::string payload = "line one\nline two\n\0binary\x7f ok";
    const std::string framed = io::frameWithChecksum(payload);
    const auto back = io::unframeWithChecksum(framed);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, payload);
}

TEST(Framing, DetectsTruncationAtEveryLength)
{
    const std::string framed = io::frameWithChecksum("some cached payload");
    for (size_t len = 0; len < framed.size(); ++len)
        EXPECT_FALSE(io::unframeWithChecksum(framed.substr(0, len)))
            << "truncation to " << len << " bytes must not unframe";
}

TEST(Framing, DetectsBitFlip)
{
    std::string framed = io::frameWithChecksum("payload under test");
    const size_t mid = framed.size() / 2;
    framed[mid] = static_cast<char>(framed[mid] ^ 0x20);
    EXPECT_FALSE(io::unframeWithChecksum(framed).has_value());
}

TEST(Framing, RejectsVersionSkew)
{
    std::string framed = io::frameWithChecksum("payload");
    const size_t v = framed.find("v1");
    ASSERT_NE(v, std::string::npos);
    framed[v + 1] = '9';
    EXPECT_FALSE(io::unframeWithChecksum(framed).has_value());
}

TEST(Framing, AtomicWriteLeavesNoTempFileBehind)
{
    char pattern[] = "/tmp/geyser_framing_test_XXXXXX";
    ASSERT_NE(::mkdtemp(pattern), nullptr);
    const std::string dir = pattern;
    const std::string path = dir + "/file.txt";
    ASSERT_TRUE(io::writeFileAtomic(path, "hello"));
    EXPECT_EQ(io::readFileBytes(path).value_or(""), "hello");
    size_t files = 0;
    for ([[maybe_unused]] const auto &e : fs::directory_iterator(dir))
        ++files;
    EXPECT_EQ(files, 1u);
    std::error_code ec;
    fs::remove_all(dir, ec);
}

TEST(Framing, ConcurrentAtomicWritesToOnePathAllLand)
{
    // Threads of one process publishing the same path (two compiles
    // composing the same block) must each get their own temp file: a
    // shared one is truncated under one writer and renamed away under
    // another, failing the store or tearing the entry.
    char pattern[] = "/tmp/geyser_framing_race_XXXXXX";
    ASSERT_NE(::mkdtemp(pattern), nullptr);
    const std::string dir = pattern;
    const std::string path = dir + "/entry";
    constexpr int kThreads = 8;
    constexpr int kRounds = 50;
    constexpr size_t kBytes = 4096;
    std::atomic<int> failures{0};
    std::barrier start(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const std::string payload(kBytes, static_cast<char>('a' + t));
            for (int r = 0; r < kRounds; ++r) {
                start.arrive_and_wait();
                if (!io::writeFileAtomic(path, payload))
                    ++failures;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    const auto back = io::readFileBytes(path);
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(back->size(), kBytes);
    EXPECT_EQ(back->find_first_not_of((*back)[0]), std::string::npos)
        << "entry holds bytes from two writers";
    size_t files = 0;
    for ([[maybe_unused]] const auto &e : fs::directory_iterator(dir))
        ++files;
    EXPECT_EQ(files, 1u) << "temp files left behind";
    std::error_code ec;
    fs::remove_all(dir, ec);
}

TEST(Framing, CreateDirectoriesIsRecursive)
{
    char pattern[] = "/tmp/geyser_framing_dirs_XXXXXX";
    ASSERT_NE(::mkdtemp(pattern), nullptr);
    const std::string nested = std::string(pattern) + "/a/b/c";
    EXPECT_TRUE(io::createDirectories(nested));
    EXPECT_TRUE(fs::is_directory(nested));
    EXPECT_TRUE(io::createDirectories(nested));  // Idempotent.
    std::error_code ec;
    fs::remove_all(pattern, ec);
}

TEST(CacheConfig, ToolRuleTakesFlagThenEnvThenNoCache)
{
    for (const char *name : {"GEYSER_NO_CACHE", "GEYSER_CACHE_MAX_MB"})
        ::unsetenv(name);

    // --cache-dir wins over GEYSER_CACHE_DIR.
    ::setenv("GEYSER_CACHE_DIR", "/tmp/from-env", 1);
    cache::CacheConfig cfg = cache::CacheConfig::forTool("/tmp/flag", false);
    EXPECT_EQ(cfg.dir, "/tmp/flag");
    EXPECT_TRUE(cfg.enabled);

    // Without the flag, GEYSER_CACHE_DIR names the directory.
    cfg = cache::CacheConfig::forTool("", false);
    EXPECT_EQ(cfg.dir, "/tmp/from-env");
    EXPECT_TRUE(cfg.enabled);

    // With neither, the tool runs uncached.
    ::unsetenv("GEYSER_CACHE_DIR");
    EXPECT_FALSE(cache::CacheConfig::forTool("", false).enabled);

    // --no-cache or GEYSER_NO_CACHE=1 turns even a named cache off.
    EXPECT_FALSE(cache::CacheConfig::forTool("/tmp/flag", true).enabled);
    ::setenv("GEYSER_NO_CACHE", "1", 1);
    EXPECT_FALSE(cache::CacheConfig::forTool("/tmp/flag", false).enabled);
    ::setenv("GEYSER_NO_CACHE", "0", 1);
    EXPECT_TRUE(cache::CacheConfig::forTool("/tmp/flag", false).enabled);
    ::unsetenv("GEYSER_NO_CACHE");
}

TEST_F(CacheTest, StoreLoadRoundTrip)
{
    cache::ResultCache cache(config());
    ASSERT_TRUE(cache.enabled());
    EXPECT_FALSE(cache.load("c-abc").has_value());
    ASSERT_TRUE(cache.store("c-abc", "the payload"));
    const auto hit = cache.load("c-abc");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "the payload");
    EXPECT_EQ(cache.stats().hits, 1);
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_EQ(cache.stats().corrupt, 0);
}

TEST_F(CacheTest, NestedCacheDirIsCreatedRecursively)
{
    cache::CacheConfig cfg = config();
    cfg.dir = dir_ + "/deeply/nested/cache";
    cache::ResultCache cache(cfg);
    ASSERT_TRUE(cache.enabled());  // Used to silently disable forever.
    ASSERT_TRUE(cache.store("c-key", "value"));
    EXPECT_EQ(cache.load("c-key").value_or(""), "value");
}

TEST_F(CacheTest, UncreatableDirDisablesGracefully)
{
    cache::CacheConfig cfg = config();
    cfg.dir = "/proc/definitely/not/writable";
    cache::ResultCache cache(cfg);
    EXPECT_FALSE(cache.enabled());
    EXPECT_FALSE(cache.store("c-key", "value"));
    EXPECT_FALSE(cache.load("c-key").has_value());
}

TEST_F(CacheTest, DisabledCacheNeverTouchesDisk)
{
    cache::CacheConfig cfg = config();
    cfg.enabled = false;
    cache::ResultCache cache(cfg);
    EXPECT_FALSE(cache.enabled());
    EXPECT_FALSE(cache.store("c-key", "value"));
    size_t files = 0;
    for ([[maybe_unused]] const auto &e : fs::directory_iterator(dir_))
        ++files;
    EXPECT_EQ(files, 0u);
}

TEST_F(CacheTest, TruncatedEntryIsQuarantinedAndRecomputable)
{
    cache::ResultCache cache(config());
    ASSERT_TRUE(cache.store("c-trunc", "a payload long enough to truncate"));
    const std::string path = cache.entryPath("c-trunc");
    const auto framed = io::readFileBytes(path);
    ASSERT_TRUE(framed.has_value());
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << framed->substr(0, framed->size() / 2);
    }
    EXPECT_FALSE(cache.load("c-trunc").has_value());
    EXPECT_EQ(cache.stats().corrupt, 1);
    EXPECT_FALSE(fs::exists(path)) << "corrupt entry must be quarantined";
    EXPECT_TRUE(fs::exists(path + ".corrupt"));
    // The slot is reusable: a recompute stores and loads cleanly.
    ASSERT_TRUE(cache.store("c-trunc", "recomputed"));
    EXPECT_EQ(cache.load("c-trunc").value_or(""), "recomputed");
    EXPECT_EQ(cache.stats().corrupt, 1);
}

TEST_F(CacheTest, BitFlippedEntryIsMissNotCrash)
{
    cache::ResultCache cache(config());
    ASSERT_TRUE(cache.store("c-rot", "payload whose bits will rot"));
    const std::string path = cache.entryPath("c-rot");
    auto framed = io::readFileBytes(path);
    ASSERT_TRUE(framed.has_value());
    (*framed)[framed->size() / 2] ^= 0x01;
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << *framed;
    }
    EXPECT_FALSE(cache.load("c-rot").has_value());
    EXPECT_EQ(cache.stats().corrupt, 1);
}

TEST_F(CacheTest, FrameVersionSkewIsMiss)
{
    cache::ResultCache cache(config());
    // An entry written by a hypothetical future/incompatible frame
    // format must be treated as a miss, not parsed.
    ASSERT_TRUE(io::writeFileAtomic(cache.entryPath("c-skew"),
                                    "geyser-frame v9 5\nhello\nfnv64 "
                                    "0000000000000000\n"));
    EXPECT_FALSE(cache.load("c-skew").has_value());
    EXPECT_EQ(cache.stats().corrupt, 1);
}

TEST_F(CacheTest, GetOrComputeMissThenHit)
{
    cache::ResultCache cache(config());
    int computes = 0;
    bool hit = true;
    const auto value = cache.getOrCompute("c-k", [&] {
        ++computes;
        return std::string("computed-value");
    }, &hit);
    EXPECT_EQ(value, "computed-value");
    EXPECT_FALSE(hit);
    EXPECT_EQ(computes, 1);
    const auto again = cache.getOrCompute("c-k", [&] {
        ++computes;
        return std::string("should-not-run");
    }, &hit);
    EXPECT_EQ(again, "computed-value");
    EXPECT_TRUE(hit);
    EXPECT_EQ(computes, 1);
}

TEST_F(CacheTest, SingleFlightComputesOnceAcrossThreads)
{
    cache::ResultCache cache(config());
    std::atomic<int> computes{0};
    constexpr int kThreads = 8;
    std::vector<std::string> results(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            results[static_cast<size_t>(t)] =
                cache.getOrCompute("c-flight", [&] {
                    ++computes;
                    // Give the other threads time to pile onto the latch.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(100));
                    return std::string("flight-payload");
                });
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(computes.load(), 1) << "concurrent misses must compute once";
    for (const auto &r : results)
        EXPECT_EQ(r, "flight-payload");
    EXPECT_GE(cache.stats().singleflightWaits, 1);
}

TEST_F(CacheTest, SingleFlightHoldsWhenWinnerLeavesBeforeLateMissLatches)
{
    // A caller whose first load missed can reach the latch only after
    // the winner has stored its entry and left; it must replay that
    // entry, not compute the key again. Instant computes and threads
    // released together onto each key make that interleaving common.
    cache::ResultCache cache(config());
    constexpr int kKeys = 200;
    constexpr int kThreads = 8;
    std::vector<std::atomic<int>> computes(kKeys);
    std::barrier start(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int k = 0; k < kKeys; ++k) {
                start.arrive_and_wait();
                cache.getOrCompute("c-late-" + std::to_string(k), [&, k] {
                    ++computes[static_cast<size_t>(k)];
                    return std::string("late-payload");
                });
            }
        });
    }
    for (auto &t : threads)
        t.join();
    for (int k = 0; k < kKeys; ++k)
        EXPECT_EQ(computes[static_cast<size_t>(k)].load(), 1) << "key " << k;
}

TEST_F(CacheTest, SingleFlightRecoversWhenComputeThrows)
{
    cache::ResultCache cache(config());
    EXPECT_THROW(cache.getOrCompute("c-throw", []() -> std::string {
        throw std::runtime_error("compose exploded");
    }), std::runtime_error);
    // The flight latch must have been released: a retry computes.
    const auto value =
        cache.getOrCompute("c-throw", [] { return std::string("ok"); });
    EXPECT_EQ(value, "ok");
}

TEST_F(CacheTest, LeftoverLockFileDoesNotDelayACompile)
{
    // A process killed mid-compile by an older build left <entry>.lock
    // behind. It is an inert foreign file: a miss on that key computes
    // at once, waits on nothing, and creates only its entry.
    cache::CacheConfig cfg;
    cfg.dir = dir_;
    cache::ResultCache cache(cfg);
    const std::string lockPath = cache.entryPath("c-leftover") + ".lock";
    std::ofstream(lockPath) << "12345";

    int computes = 0;
    const auto value = cache.getOrCompute("c-leftover", [&] {
        ++computes;
        return std::string("computed");
    });
    EXPECT_EQ(value, "computed");
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(cache.stats().singleflightWaits, 0);

    std::vector<std::string> files;
    for (const auto &entry : fs::directory_iterator(dir_))
        files.push_back(entry.path().string());
    std::sort(files.begin(), files.end());
    EXPECT_EQ(files, (std::vector<std::string>{
                         cache.entryPath("c-leftover"), lockPath}));
}

TEST_F(CacheTest, LruEvictionRespectsSizeCapAndRecency)
{
    const std::string payload(4096, 'x');
    // Cap at roughly four entries' worth of payload.
    cache::ResultCache cache(config(4 * 5000));
    for (int i = 0; i < 12; ++i) {
        ASSERT_TRUE(cache.store("c-entry" + std::to_string(i), payload));
        // Distinct mtimes so LRU ordering is well defined even on
        // coarse-grained filesystem timestamps.
        std::this_thread::sleep_for(std::chrono::milliseconds(15));
    }
    EXPECT_LE(cache.diskUsageBytes(), 4 * 5000);
    EXPECT_GE(cache.stats().evicted, 1);
    // The newest entry always survives; the oldest must be gone.
    EXPECT_TRUE(cache.load("c-entry11").has_value());
    EXPECT_FALSE(fs::exists(cache.entryPath("c-entry0")));
}

TEST_F(CacheTest, CompileThroughCacheReplaysIdenticalResult)
{
    Circuit logical(3);
    logical.append(Gate(GateKind::U3, 0, 0.3, 0.1, -0.4));
    logical.append(Gate(GateKind::CZ, 0, 1));
    logical.append(Gate(GateKind::U3, 2, -1.0, 0.2, 0.7));
    logical.append(Gate(GateKind::CZ, 1, 2));

    cache::ResultCache cache(config());
    PipelineOptions options;
    options.cache = &cache;

    const CompileResult cold =
        compile(Technique::Baseline, logical, options);
    EXPECT_EQ(cache.stats().hits, 0);
    const CompileResult warm =
        compile(Technique::Baseline, logical, options);
    EXPECT_GE(cache.stats().hits, 1);

    EXPECT_EQ(circuitToText(warm.physical), circuitToText(cold.physical));
    EXPECT_EQ(warm.technique, cold.technique);
    EXPECT_EQ(warm.swapsInserted, cold.swapsInserted);
    EXPECT_EQ(warm.finalLayout, cold.finalLayout);
    EXPECT_EQ(warm.initialLayout, cold.initialLayout);
    EXPECT_EQ(warm.stats.totalPulses, cold.stats.totalPulses);
    EXPECT_EQ(warm.stats.depthPulses, cold.stats.depthPulses);
}

TEST_F(CacheTest, CompileKeySeparatesTechniquesAndCircuits)
{
    Circuit a(2);
    a.append(Gate(GateKind::CZ, 0, 1));
    Circuit b(2);
    b.append(Gate(GateKind::CZ, 0, 1));
    b.append(Gate(GateKind::U3, 0, 0.1, 0.2, 0.3));

    PipelineOptions options;
    const auto keyA =
        cache::compileCacheKey(a, options, Technique::Baseline);
    EXPECT_EQ(keyA, cache::compileCacheKey(a, options, Technique::Baseline));
    EXPECT_NE(keyA, cache::compileCacheKey(a, options, Technique::OptiMap));
    EXPECT_NE(keyA, cache::compileCacheKey(b, options, Technique::Baseline));
    // Each behaviour option splits the key.
    PipelineOptions gateAware = options;
    gateAware.blocker.pulseAware = false;
    PipelineOptions annealing = options;
    annealing.compose.optimizer = ComposeOptimizer::DualAnnealing;
    PipelineOptions extended = options;
    extended.compose.entanglerMode = EntanglerMode::Extended;
    for (const PipelineOptions &other : {gateAware, annealing, extended})
        EXPECT_NE(keyA,
                  cache::compileCacheKey(a, other, Technique::Baseline));
    // Verification does not change the output.
    PipelineOptions verified = options;
    verified.verifyEquivalence = true;
    EXPECT_EQ(keyA,
              cache::compileCacheKey(a, verified, Technique::Baseline));
}

TEST_F(CacheTest, CorruptCompileEntryRecompilesWithoutError)
{
    Circuit logical(2);
    logical.append(Gate(GateKind::U3, 0, 0.5, 0.0, 0.0));
    logical.append(Gate(GateKind::CZ, 0, 1));

    cache::ResultCache cache(config());
    PipelineOptions options;
    options.cache = &cache;
    const CompileResult cold =
        compile(Technique::Baseline, logical, options);

    // Truncate the stored entry mid-payload.
    const std::string key =
        cache::compileCacheKey(logical, options, Technique::Baseline);
    const std::string path = cache.entryPath(key);
    ASSERT_TRUE(fs::exists(path));
    const auto framed = io::readFileBytes(path);
    ASSERT_TRUE(framed.has_value());
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << framed->substr(0, framed->size() / 3);
    }

    const CompileResult recovered =
        compile(Technique::Baseline, logical, options);
    EXPECT_EQ(circuitToText(recovered.physical),
              circuitToText(cold.physical));
    EXPECT_EQ(cache.stats().corrupt, 1);
    // And the recompute healed the entry: next compile is a clean hit.
    const long corruptBefore = cache.stats().corrupt;
    compile(Technique::Baseline, logical, options);
    EXPECT_EQ(cache.stats().corrupt, corruptBefore);
    EXPECT_GE(cache.stats().hits, 1);
}

TEST_F(CacheTest, CompileEntryOfAnotherTechniqueIsQuarantined)
{
    // The key hashes the technique and so does the payload: a Baseline
    // payload stored under the Geyser key must not replay as the Geyser
    // compile (105 pulses instead of 66).
    const Circuit logical = benchmarkByName("adder-4").make();
    cache::ResultCache cache(config());
    PipelineOptions options;
    options.cache = &cache;
    const std::string key =
        cache::compileCacheKey(logical, options, Technique::Geyser);
    ASSERT_TRUE(cache.store(
        key, compileResultToText(compile(Technique::Baseline, logical))));

    const CompileResult result =
        compile(Technique::Geyser, logical, options);
    EXPECT_EQ(result.technique, Technique::Geyser);
    EXPECT_EQ(result.stats.totalPulses, 66);
    EXPECT_FALSE(result.cacheHit);
    EXPECT_EQ(cache.stats().corrupt, 1);
    EXPECT_TRUE(fs::exists(cache.entryPath(key) + ".corrupt"));
}

TEST_F(CacheTest, CompileOnAnotherBackendMisses)
{
    // Backends round differently, so a Geyser compile can settle on
    // other angles: an entry a scalar compile stored must not be served
    // to a compile on a SIMD backend.
    std::string simd;
    for (const auto &info : kernels::availableBackends()) {  // best first
        if (info.backend != nullptr && info.name != "scalar") {
            simd = info.name;
            break;
        }
    }
    if (simd.empty())
        GTEST_SKIP() << "only the scalar backend is usable on this host";
    const Circuit logical = benchmarkByName("adder-4").make();
    cache::ResultCache cache(config());
    PipelineOptions options;
    options.cache = &cache;
    {
        kernels::ScopedBackend scoped("scalar");
        EXPECT_FALSE(compile(Technique::Geyser, logical, options).cacheHit);
    }
    kernels::ScopedBackend scoped(simd);
    ASSERT_TRUE(scoped.honoured()) << simd;
    const CompileResult served = compile(Technique::Geyser, logical, options);
    EXPECT_FALSE(served.cacheHit);
    EXPECT_EQ(cache.stats().hits, 0);
    PipelineOptions uncached;
    EXPECT_EQ(circuitToText(served.physical),
              circuitToText(compile(Technique::Geyser, logical, uncached)
                                .physical));
}

TEST_F(CacheTest, GeyserCompileStoresOnlyItsCompileEntry)
{
    // Repeated blocks are reused through the process memo alone: the
    // cache holds the whole compile and nothing per block.
    cache::ResultCache cache(config());
    PipelineOptions options;
    options.cache = &cache;
    compile(Technique::Geyser, benchmarkByName("adder-4").make(), options);

    std::vector<std::string> entries;
    for (const auto &entry : fs::directory_iterator(dir_))
        if (entry.path().extension() == ".gce")
            entries.push_back(entry.path().filename().string());
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].rfind("c-", 0), 0u) << entries[0];
}

// ---- Eviction vs non-entry files ------------------------------------

TEST_F(CacheTest, EvictionSkipsNonEntryFilesAndJanitorsStaleLitter)
{
    const auto backdate = [](const fs::path &p) {
        fs::last_write_time(p,
                            fs::file_time_type::clock::now() -
                                std::chrono::minutes(20));
    };
    const auto plant = [&](const std::string &name, bool old) {
        const fs::path p = fs::path(dir_) / name;
        std::ofstream(p) << std::string(64, 'z');
        if (old)
            backdate(p);
        return p;
    };
    // Litter a dead process abandoned (old), and foreign files that are
    // not the cache's to manage however old they are: a lock file an
    // older build left behind is one of them.
    const fs::path freshLock = plant("inflight.lock", false);
    const fs::path staleLock = plant("dead.lock", true);
    const fs::path staleTmp = plant("e.gce.tmp4242", true);
    const fs::path staleCorrupt = plant("bad.gce.corrupt", true);
    const fs::path foreign = plant("README.txt", true);

    const std::string payload(4096, 'x');
    cache::ResultCache cache(config(4 * 5000));
    for (int i = 0; i < 12; ++i) {
        ASSERT_TRUE(cache.store("c-entry" + std::to_string(i), payload));
        std::this_thread::sleep_for(std::chrono::milliseconds(15));
    }

    // Entries were evicted, but never the non-entry files...
    EXPECT_GE(cache.stats().evicted, 1);
    EXPECT_TRUE(fs::exists(freshLock));
    EXPECT_TRUE(fs::exists(staleLock));
    EXPECT_TRUE(fs::exists(foreign));
    // ...while the janitor reaped exactly the abandoned litter.
    EXPECT_FALSE(fs::exists(staleTmp));
    EXPECT_FALSE(fs::exists(staleCorrupt));
    EXPECT_EQ(cache.stats().janitorRemoved, 2);
}

TEST_F(CacheTest, EvictionFromASecondProcessSparesLocksAndFreshEntries)
{
    // Two-process shape of the same invariants: the directory holds a
    // lock file an older build left behind; another process's eviction
    // pass (over the shared directory) must delete neither it nor the
    // entry that process has just published.
    const std::string payload(4096, 'x');
    {
        cache::ResultCache writer(config());  // Unbounded: no eviction.
        for (int i = 0; i < 12; ++i)
            ASSERT_TRUE(writer.store("c-old" + std::to_string(i),
                                     payload));
    }
    for (int i = 0; i < 12; ++i) {
        const fs::path p = fs::path(dir_) / ("c-old" + std::to_string(i) +
                                             ".gce");
        fs::last_write_time(p, fs::file_time_type::clock::now() -
                                   std::chrono::minutes(2) -
                                   std::chrono::seconds(i));
    }
    const fs::path leftoverLock = fs::path(dir_) / "c-held.gce.lock";
    std::ofstream(leftoverLock) << "pid 12345";

    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // The second process: a capped cache stores one fresh entry,
        // which runs eviction over everything the first process left.
        cache::CacheConfig cfg;
        cfg.dir = dir_;
        cfg.maxBytes = 4 * 5000;
        cache::ResultCache evictor(cfg);
        const bool stored = evictor.store("c-fresh", payload);
        const bool evicted = evictor.stats().evicted >= 1;
        ::_exit(stored && evicted ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);

    // The foreign lock file survived, as did the second process's own
    // fresh entry (LRU removes the newest entry last); the old
    // generation was trimmed toward the cap.
    EXPECT_TRUE(fs::exists(leftoverLock));
    cache::ResultCache reader(config());
    EXPECT_TRUE(reader.load("c-fresh").has_value());
    // LRU trims oldest-first, so the most backdated entry goes first.
    EXPECT_FALSE(fs::exists(reader.entryPath("c-old11")));
    long long remaining = 0;
    for (const auto &entry : fs::directory_iterator(dir_))
        if (entry.path().extension() == ".gce")
            remaining += static_cast<long long>(entry.file_size());
    EXPECT_LE(remaining, 4 * 5000 + 5000);
}

}  // namespace
}  // namespace geyser
