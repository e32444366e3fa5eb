/**
 * @file
 * Crash-safe persistent result cache for whole compiles (`c-` keys) and
 * fleet skeleton plans (`s-` keys) — the first-class promotion of what
 * used to be an ad-hoc per-bench-binary file cache in bench/common.cpp.
 * Usable by the pipeline (PipelineOptions::cache), geyserc (--cache-dir),
 * and every bench binary; composition dominates every evaluation run, so
 * serving repeated traffic hinges on never recomputing a circuit that
 * any process on the machine has already compiled. Repeated blocks are
 * reused in-process by the composition memo, not here.
 *
 * Guarantees:
 *  - Content-addressed keys: FNV-1a 128 over the serialized logical
 *    circuit, the behaviour-relevant PipelineOptions, the technique,
 *    and kPipelineVersion. A pipeline change bumps the version constant
 *    once; old entries stop matching and age out — no hand-maintained
 *    version strings at call sites.
 *  - Crash-safe writes: entries are framed with a length header and an
 *    FNV-1a 64 checksum footer (io/framing), written to a temp file and
 *    published with an atomic rename. Readers never see a torn entry.
 *  - Graceful degradation: a corrupt, truncated, or version-skewed
 *    entry is treated as a miss, quarantined to <entry>.corrupt, and
 *    counted (cache.corrupt) — never a crash, never a wrong result.
 *  - Single-flight: concurrent misses on the same key inside one
 *    process compute once (striped latches). Across processes there is
 *    no lock: two processes missing at once both compute, and the
 *    atomic rename lets the last publish win with an identical entry.
 *  - Bounded size: GEYSER_CACHE_MAX_MB (or CacheConfig::maxBytes) caps
 *    the directory; least-recently-used entries are evicted (hits
 *    refresh an entry's mtime) and abandoned .tmp and .corrupt files
 *    are reaped. Any other file in the directory is left alone.
 *
 * Obs surface: cache.hit / cache.miss / cache.corrupt / cache.evicted /
 * cache.singleflight_wait counters and a cache.lookup span, plus
 * always-on CacheStats atomics for tests and reports.
 */
#ifndef GEYSER_CACHE_RESULT_CACHE_HPP
#define GEYSER_CACHE_RESULT_CACHE_HPP

#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "geyser/pipeline.hpp"

namespace geyser {
namespace cache {

/** Construction-time configuration. */
struct CacheConfig
{
    /** Entry directory (created recursively; empty disables the cache). */
    std::string dir;
    /** Size cap in bytes; <= 0 means unbounded. */
    long long maxBytes = 0;
    /** Master switch (GEYSER_NO_CACHE=1 turns it off from the env). */
    bool enabled = true;

    /**
     * Environment-driven config: GEYSER_CACHE_DIR (default
     * /tmp/geyser_cache), GEYSER_NO_CACHE (0 or 1), GEYSER_CACHE_MAX_MB.
     */
    static CacheConfig fromEnv();

    /**
     * fromEnv() under the command-line tools' rule: `cacheDir`
     * (--cache-dir) wins, else GEYSER_CACHE_DIR, else no cache at all;
     * `noCache` (--no-cache) or GEYSER_NO_CACHE=1 turns the cache off.
     */
    static CacheConfig forTool(const std::string &cacheDir, bool noCache);
};

/** Always-on activity counters (obs counters mirror these when enabled). */
struct CacheStats
{
    long hits = 0;
    long misses = 0;
    long corrupt = 0;       ///< Entries quarantined (checksum/frame skew).
    long evicted = 0;       ///< Entries removed by the LRU size cap.
    long singleflightWaits = 0;  ///< Lookups that waited on another thread.
    long storeFailures = 0; ///< Best-effort writes that did not land.
    long janitorRemoved = 0;  ///< Stale .tmp*/.corrupt files cleaned.
};

/**
 * A persistent, process-shared result cache rooted at one directory.
 * All methods are thread-safe; all failures degrade to "cache miss" or
 * "entry not stored" — the cache never throws for I/O reasons.
 */
class ResultCache
{
  public:
    explicit ResultCache(CacheConfig config);

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /**
     * Process-wide cache configured from the environment. Lazily
     * constructed on first use; shared by the bench binaries.
     */
    static ResultCache &global();

    /** False when disabled by config/env or the directory is unusable. */
    bool enabled() const { return enabled_; }

    const std::string &dir() const { return config_.dir; }

    /**
     * Fetch an entry's payload. Missing → nullopt (cache.miss); corrupt
     * or truncated or version-skewed → quarantined + nullopt
     * (cache.corrupt); hit refreshes the entry's LRU recency.
     */
    std::optional<std::string> load(const std::string &key);

    /**
     * Store a payload crash-safely (temp file + checksum + rename),
     * then enforce the size cap. Best-effort: returns false if the
     * entry could not be written.
     */
    bool store(const std::string &key, const std::string &payload);

    /**
     * load(), falling back to compute() exactly once per key across
     * every concurrent caller in this process: late arrivals block
     * until the winner has stored the entry, then read it back.
     * `wasHit`, when given, reports whether the payload came from disk.
     * If compute() throws, the flight is released and the exception
     * propagates.
     */
    std::string getOrCompute(const std::string &key,
                             const std::function<std::string()> &compute,
                             bool *wasHit = nullptr);

    /** On-disk path of a key's entry file. */
    std::string entryPath(const std::string &key) const;

    /**
     * Quarantine a key's entry whose payload passed the frame checksum
     * but failed semantic validation downstream (deserialize error,
     * invalid circuit or layout). Moves it to <entry>.corrupt exactly
     * like a framing failure, so the next lookup recomputes instead of
     * replaying the same poisoned payload forever.
     */
    void quarantineEntry(const std::string &key);

    /** Total bytes currently held in entry files (scans the directory). */
    long long diskUsageBytes() const;

    /** Snapshot of the activity counters. */
    CacheStats stats() const;

  private:
    struct Flight
    {
        std::mutex mutex;
        std::condition_variable cv;
        std::unordered_set<std::string> inFlight;
    };

    static constexpr int kFlightStripes = 16;

    Flight &flightFor(const std::string &key);
    /** load() body; `countMiss` false lets getOrCompute re-check an
     *  entry without counting one lookup as two misses. */
    std::optional<std::string> read(const std::string &key, bool countMiss);
    void quarantine(const std::string &path);
    void evictIfNeeded();

    CacheConfig config_;
    bool enabled_ = false;
    Flight flights_[kFlightStripes];
    std::mutex evictMutex_;
    mutable std::mutex statsMutex_;
    CacheStats stats_;
};

/**
 * Content-addressed key for a whole-circuit compile: FNV-1a 128 over
 * kPipelineVersion, the technique, the serialized logical circuit, and
 * the options and arithmetic (compute backend, compiler) that can change
 * the compiled output, as fed by feedBehaviourOptions (verifyEquivalence
 * is excluded — it does not alter the result).
 */
std::string compileCacheKey(const Circuit &logical,
                            const PipelineOptions &options,
                            Technique technique);

/**
 * Content-addressed key for a circuit *skeleton*: the structural
 * identity shared by every member of a parameter sweep. Hashes the
 * gate sequence with the parameters at `varyingSlots` (pairs of
 * 0-based gate index and parameter index within the gate) canonicalized
 * out, while every *fixed* parameter is fed bit-exactly — plus the same
 * behaviour-relevant options, technique, and kPipelineVersion as
 * compileCacheKey, and the varying-slot mask itself. Two circuits with
 * the same structure and fixed angles but different varying angles map
 * to the same key; any change to a gate kind, operand, qubit count,
 * technique (and hence topology), fixed angle, or the mask changes it.
 * The mask is read literally: an empty mask means nothing varies, so
 * every angle is hashed, exactly as buildSkeletonPlan reads it.
 */
std::string skeletonCacheKey(
    const Circuit &logical,
    const std::vector<std::pair<int, int>> &varyingSlots,
    const PipelineOptions &options, Technique technique);

}  // namespace cache
}  // namespace geyser

#endif  // GEYSER_CACHE_RESULT_CACHE_HPP
