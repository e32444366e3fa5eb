#include "cache/result_cache.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "common/env.hpp"
#include "io/framing.hpp"
#include "io/serialize.hpp"
#include "obs/obs.hpp"

namespace geyser {
namespace cache {

namespace fs = std::filesystem;

namespace {

constexpr const char *kEntrySuffix = ".gce";

/** A .tmp* or .corrupt file older than this was abandoned: reapable. */
constexpr auto kStaleLitterAge = std::chrono::minutes(10);

/** How skeletonCacheKey reads its mask (see there); fed into s- keys. */
constexpr int kSkeletonKeyFormat = 2;

long long
envMaxBytes()
{
    // 0 keeps the historical "unbounded" meaning; garbage or a negative
    // value now raises instead of silently disabling the cap.
    const long long mb =
        env::envInt("GEYSER_CACHE_MAX_MB", 0, 0, 1'000'000'000);
    return mb > 0 ? mb * 1024 * 1024 : 0;
}

}  // namespace

CacheConfig
CacheConfig::fromEnv()
{
    CacheConfig config;
    const char *dir = std::getenv("GEYSER_CACHE_DIR");
    config.dir = dir != nullptr ? dir : "/tmp/geyser_cache";
    config.maxBytes = envMaxBytes();
    config.enabled = env::envInt("GEYSER_NO_CACHE", 0, 0, 1) == 0;
    return config;
}

CacheConfig
CacheConfig::forTool(const std::string &cacheDir, bool noCache)
{
    CacheConfig config = fromEnv();
    if (!cacheDir.empty())
        config.dir = cacheDir;
    else if (std::getenv("GEYSER_CACHE_DIR") == nullptr)
        config.enabled = false;  // No cache unless asked for one.
    if (noCache)
        config.enabled = false;
    return config;
}

ResultCache::ResultCache(CacheConfig config) : config_(std::move(config))
{
    if (!config_.enabled || config_.dir.empty())
        return;
    if (io::createDirectories(config_.dir)) {
        enabled_ = true;
        return;
    }
    // A nested GEYSER_CACHE_DIR=/a/b/c used to silently disable caching
    // forever (single-level mkdir); now parents are created recursively
    // and a genuine failure is surfaced exactly once per cache.
    obs::counter("cache.dir_error").add();
    std::fprintf(stderr,
                 "geyser cache disabled: cannot create directory %s\n",
                 config_.dir.c_str());
}

ResultCache &
ResultCache::global()
{
    static ResultCache instance(CacheConfig::fromEnv());
    return instance;
}

ResultCache::Flight &
ResultCache::flightFor(const std::string &key)
{
    const uint64_t h = io::fnv1a64(key.data(), key.size());
    return flights_[h % kFlightStripes];
}

std::string
ResultCache::entryPath(const std::string &key) const
{
    return config_.dir + "/" + key + kEntrySuffix;
}

void
ResultCache::quarantine(const std::string &path)
{
    std::error_code ec;
    fs::rename(path, path + ".corrupt", ec);
    if (ec)
        fs::remove(path, ec);  // Rename failed: at least stop re-reading it.
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++stats_.corrupt;
    }
    obs::counter("cache.corrupt").add();
}

void
ResultCache::quarantineEntry(const std::string &key)
{
    if (!enabled_)
        return;
    quarantine(entryPath(key));
}

std::optional<std::string>
ResultCache::load(const std::string &key)
{
    return read(key, true);
}

std::optional<std::string>
ResultCache::read(const std::string &key, bool countMiss)
{
    static obs::Counter &hits = obs::counter("cache.hit");
    static obs::Counter &misses = obs::counter("cache.miss");
    if (!enabled_)
        return std::nullopt;
    obs::Span span("cache.load", "cache");
    const auto miss = [&]() -> std::optional<std::string> {
        if (countMiss) {
            misses.add();
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++stats_.misses;
        }
        return std::nullopt;
    };
    const std::string path = entryPath(key);
    const auto framed = io::readFileBytes(path);
    if (!framed)
        return miss();
    auto payload = io::unframeWithChecksum(*framed);
    if (!payload) {
        // Torn, truncated, bit-rotted, or written by an incompatible
        // frame version: quarantine and treat as a miss.
        quarantine(path);
        return miss();
    }
    // Refresh LRU recency so hot entries survive the size cap.
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    hits.add();
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++stats_.hits;
    }
    return payload;
}

bool
ResultCache::store(const std::string &key, const std::string &payload)
{
    if (!enabled_)
        return false;
    obs::Span span("cache.store", "cache");
    const bool ok =
        io::writeFileAtomic(entryPath(key), io::frameWithChecksum(payload));
    if (!ok) {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++stats_.storeFailures;
        return false;
    }
    evictIfNeeded();
    return true;
}

std::string
ResultCache::getOrCompute(const std::string &key,
                          const std::function<std::string()> &compute,
                          bool *wasHit)
{
    static obs::Counter &waits = obs::counter("cache.singleflight_wait");
    if (wasHit != nullptr)
        *wasHit = false;
    if (!enabled_)
        return compute();

    obs::Span span("cache.lookup", "cache");
    if (auto hit = load(key)) {
        if (wasHit != nullptr)
            *wasHit = true;
        return *hit;
    }

    // In-process single-flight: one winner per key; everyone else waits
    // on the stripe latch, then reads the winner's entry back from disk.
    Flight &flight = flightFor(key);
    {
        std::unique_lock<std::mutex> lock(flight.mutex);
        while (flight.inFlight.count(key) != 0) {
            waits.add();
            {
                std::lock_guard<std::mutex> slock(statsMutex_);
                ++stats_.singleflightWaits;
            }
            flight.cv.wait(lock, [&] {
                return flight.inFlight.count(key) == 0;
            });
            lock.unlock();
            if (auto again = load(key)) {
                if (wasHit != nullptr)
                    *wasHit = true;
                return *again;
            }
            // The winner failed to produce an entry (compute threw or
            // the store failed): take over as the new winner.
            lock.lock();
        }
        flight.inFlight.insert(key);
    }
    struct FlightRelease
    {
        Flight &flight;
        const std::string &key;
        ~FlightRelease()
        {
            {
                std::lock_guard<std::mutex> lock(flight.mutex);
                flight.inFlight.erase(key);
            }
            flight.cv.notify_all();
        }
    } flightRelease{flight, key};

    // A winner that stored its entry and left between the miss above
    // and taking the latch is invisible to the wait loop: re-check the
    // disk before computing so the key still computes once.
    if (auto late = read(key, false)) {
        if (wasHit != nullptr)
            *wasHit = true;
        return *late;
    }

    const std::string payload = compute();
    store(key, payload);
    return payload;
}

long long
ResultCache::diskUsageBytes() const
{
    if (!enabled_)
        return 0;
    long long total = 0;
    std::error_code ec;
    for (fs::directory_iterator it(config_.dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->path().extension() != kEntrySuffix)
            continue;
        std::error_code sizeEc;
        const auto size = it->file_size(sizeEc);
        if (!sizeEc)
            total += static_cast<long long>(size);
    }
    return total;
}

void
ResultCache::evictIfNeeded()
{
    static obs::Counter &evictions = obs::counter("cache.evicted");
    static obs::Counter &janitor = obs::counter("cache.janitor_removed");
    if (config_.maxBytes <= 0)
        return;
    std::lock_guard<std::mutex> evictLock(evictMutex_);

    struct Entry
    {
        fs::path path;
        long long size = 0;
        fs::file_time_type mtime;
    };
    std::vector<Entry> entries;
    long long total = 0;
    const auto now = fs::file_time_type::clock::now();
    std::error_code ec;
    for (fs::directory_iterator it(config_.dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        const std::string ext = it->path().extension().string();
        if (ext != kEntrySuffix) {
            // Never an eviction candidate: .tmp* files are mid-publish
            // and .corrupt files are quarantined evidence. The janitor
            // reaps only the ones a dead process abandoned; any other
            // file is not the cache's to manage.
            const bool reapable =
                ext == ".corrupt" || ext.rfind(".tmp", 0) == 0;
            if (!reapable)
                continue;
            std::error_code staleEc;
            const auto mtime = fs::last_write_time(it->path(), staleEc);
            if (staleEc || now - mtime < kStaleLitterAge)
                continue;
            std::error_code removeEc;
            if (fs::remove(it->path(), removeEc) && !removeEc) {
                janitor.add();
                std::lock_guard<std::mutex> lock(statsMutex_);
                ++stats_.janitorRemoved;
            }
            continue;
        }
        Entry entry;
        entry.path = it->path();
        std::error_code entryEc;
        entry.size = static_cast<long long>(it->file_size(entryEc));
        if (entryEc)
            continue;
        entry.mtime = fs::last_write_time(entry.path, entryEc);
        if (entryEc)
            continue;
        total += entry.size;
        entries.push_back(std::move(entry));
    }
    if (total <= config_.maxBytes)
        return;

    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) { return a.mtime < b.mtime; });
    for (const Entry &entry : entries) {
        if (total <= config_.maxBytes)
            break;
        std::error_code removeEc;
        if (!fs::remove(entry.path, removeEc) || removeEc)
            continue;
        total -= entry.size;
        evictions.add();
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++stats_.evicted;
    }
}

CacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    return stats_;
}

std::string
compileCacheKey(const Circuit &logical, const PipelineOptions &options,
                Technique technique)
{
    io::Fnv128 h;
    h.feedValue(kPipelineVersion);
    h.feedValue(static_cast<int>(technique));
    h.feedString(circuitToText(logical));
    // Every option (and the arithmetic) that can change the compiled
    // output, and nothing else: verifyEquivalence adds checks, never
    // changes the result.
    feedBehaviourOptions(h, options.compose, &options.blocker);
    return "c-" + h.hex();
}

std::string
skeletonCacheKey(const Circuit &logical,
                 const std::vector<std::pair<int, int>> &varyingSlots,
                 const PipelineOptions &options, Technique technique)
{
    // Varying-slot membership, encoded gate*4+param (<= 3 params/gate).
    std::unordered_set<long long> varying;
    for (const auto &[g, p] : varyingSlots)
        varying.insert(static_cast<long long>(g) * 4 + p);

    io::Fnv128 h;
    h.feedValue(kPipelineVersion);
    // Key format 2 reads the mask literally: an empty mask hashes every
    // angle, as the plan it addresses (nothing varies) requires. Format
    // 1 hashed structure only for it, so a plan of identical members
    // was served to every angle set; the tag retires all format-1 keys.
    h.feedValue(kSkeletonKeyFormat);
    h.feedValue(static_cast<int>(technique));
    h.feedValue(logical.numQubits());
    const auto &gates = logical.gates();
    h.feedValue(static_cast<long long>(gates.size()));
    for (size_t i = 0; i < gates.size(); ++i) {
        const Gate &gate = gates[i];
        h.feedValue(static_cast<int>(gate.kind()));
        h.feedValue(gate.numQubits());
        for (int q = 0; q < gate.numQubits(); ++q)
            h.feedValue(static_cast<int>(gate.qubit(q)));
        // Per parameter slot: a varying-or-fixed tag, and for fixed
        // slots the value bit-exact. The tags make the key a function of
        // the effective mask, not of how the slot list is ordered.
        const int params = gateKindParamCount(gate.kind());
        for (int p = 0; p < params; ++p) {
            const bool slotVaries =
                varying.count(static_cast<long long>(i) * 4 + p) != 0;
            h.feedValue(static_cast<int>(slotVaries));
            if (!slotVaries)
                h.feedValue(gate.param(p));
        }
    }
    feedBehaviourOptions(h, options.compose, &options.blocker);
    return "s-" + h.hex();
}

}  // namespace cache
}  // namespace geyser
