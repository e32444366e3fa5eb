/**
 * @file
 * Low-overhead tracing and metrics for the whole pipeline, service-grade
 * since PR 7 (bounded recorder, metric domains, per-job trace contexts).
 *
 * Design: one process-wide atomic flag gates span recording into the
 * global event recorder. While tracing is disabled (the default) a Span
 * construction is a relaxed atomic load, a thread-local load, and a
 * predicted branch — a few nanoseconds, cheap enough to leave
 * permanently compiled into the hot paths (verified by the overhead
 * smoke test; the measured number lives in DESIGN.md §12). When
 * enabled, spans record complete trace_event-style events (name,
 * category, wall-clock interval, thread, nesting depth, key/value args)
 * into a process-global recorder, and counters/gauges/histograms
 * accumulate in a named registry.
 *
 * Metric domains (PR 7): every metric belongs to one of two domains.
 *  - Trace domain (counter()/gauge()/histogram()): hooks are dropped
 *    while the tracing flag is off — free enough for per-evaluation
 *    hot-path counters.
 *  - Service domain (serviceCounter()/serviceGauge()/serviceHistogram()):
 *    always counted, independent of the tracing flag, so a long-running
 *    daemon reports real queue depths, latencies, and cache hit counts
 *    without paying for span collection.
 * A name requested through both accessors is one metric; the service
 * accessor stickily promotes it to always-on.
 *
 * Bounded recorder (PR 7): the global recorder is a fixed-capacity ring
 * buffer (setEventCapacity). When full, the oldest event is overwritten
 * and the always-on `obs.events_dropped` counter increments, so a
 * week-long traced daemon cannot OOM and the loss is observable.
 *
 * Trace contexts (PR 7): beginTrace(id) opens a bounded per-trace event
 * buffer; a TraceScope tags the calling thread so spans it records are
 * copied into that buffer even while the global flag is off (this is
 * how geyserd captures per-job traces with tracing disabled). Buffers
 * are retained for later retrieval (traceEvents) under an LRU cap on
 * both traces retained and events per trace.
 *
 * Two exporters serialize a session:
 *  - Chrome trace_event JSON (chrome://tracing, Perfetto): nested spans
 *    per thread, thread-name metadata, 'C' counter tracks.
 *  - JSONL: one JSON object per line — every span event followed by the
 *    final value of every metric — for machine-readable perf logs.
 * A third, Prometheus text exposition, lives in obs/prometheus.hpp.
 *
 * Threading: all hooks are safe to call concurrently, and reset() is
 * safe against concurrent recording and scraping (the epoch is atomic;
 * everything else is under the registry mutex or per-metric locks).
 * Metric references returned by the accessors are stable for the
 * process lifetime; reset() zeroes values and drops events but never
 * invalidates references, so call sites may cache them in
 * function-local statics.
 */
#ifndef GEYSER_OBS_OBS_HPP
#define GEYSER_OBS_OBS_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace geyser {
namespace obs {

namespace detail {
extern std::atomic<bool> g_enabled;
/** Nonzero while the calling thread is inside a TraceScope. */
extern thread_local uint64_t t_traceId;
/** Enter/leave the calling thread's span nesting scope. */
int pushSpanDepth();
void popSpanDepth();
}  // namespace detail

/** True while global tracing/metrics collection is on. */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/**
 * True when a span constructed now would record somewhere: globally
 * (tracing flag) or into the calling thread's trace context. This is
 * the span fast path; both loads are relaxed/thread-local.
 */
inline bool
collecting()
{
    return enabled() || detail::t_traceId != 0;
}

/** Turn collection on or off (off drops nothing already recorded). */
void setEnabled(bool on);

/**
 * Drop all recorded events (global ring and per-trace buffers) and zero
 * every metric (references survive). Safe to call while other threads
 * record or scrape.
 */
void reset();

/**
 * RAII: when constructed with on == true while collection is off,
 * enables it and turns it back off on destruction. Otherwise it is a
 * no-op: it never turns off a flag it did not turn on (an enclosing
 * session, or another thread's setEnabled).
 */
class EnabledScope
{
  public:
    explicit EnabledScope(bool on) : owned_(on && !enabled())
    {
        if (owned_)
            setEnabled(true);
    }
    ~EnabledScope()
    {
        if (owned_)
            setEnabled(false);
    }
    EnabledScope(const EnabledScope &) = delete;
    EnabledScope &operator=(const EnabledScope &) = delete;

  private:
    bool owned_;
};

/** Monotonic microseconds since the trace epoch (process start/reset). */
uint64_t nowMicros();

/** Small dense id for the calling thread (assigned on first use). */
int currentThreadId();

/** Name the calling thread in trace exports ("main", "geyser-wk0"...). */
void setThreadName(const std::string &name);

/** One recorded event (Chrome trace_event phases). */
struct TraceEvent
{
    std::string name;
    std::string category;
    char phase = 'X';     ///< 'X' complete span, 'C' counter sample.
    uint64_t tsMicros = 0;
    uint64_t durMicros = 0;  ///< For 'X' events.
    int tid = 0;
    int depth = 0;        ///< Span nesting depth within the thread.
    uint64_t traceId = 0; ///< Owning trace context (0 = none).
    std::vector<std::pair<std::string, double>> numArgs;
    std::vector<std::pair<std::string, std::string>> strArgs;
};

// ---- Trace contexts (per-job traces) --------------------------------

/**
 * Open (or clear) the bounded event buffer for trace `id` so spans
 * recorded under a TraceScope with that id are retained for retrieval.
 * Beyond the retained-traces cap the oldest buffer is evicted.
 * id 0 is reserved ("no trace") and ignored.
 */
void beginTrace(uint64_t id);

/** True while a buffer for `id` is retained. */
bool hasTrace(uint64_t id);

/** Chronological copy of the events captured for trace `id`. */
std::vector<TraceEvent> traceEvents(uint64_t id);

/** Events dropped from trace `id` by its per-trace cap (-1: unknown). */
long traceDropped(uint64_t id);

/** Retained trace ids, oldest first. */
std::vector<uint64_t> traceIds();

/**
 * Bound the per-trace buffers: at most `eventsPerTrace` events are kept
 * per trace (the rest are counted as dropped) and at most
 * `retainedTraces` trace buffers are retained (oldest evicted first).
 * Applies to traces begun afterwards; both clamp to >= 1.
 */
void setTraceLimits(size_t eventsPerTrace, size_t retainedTraces);

/**
 * RAII: tags the calling thread with trace `id` for its lifetime, so
 * spans it opens are copied into that trace's buffer (if begun) even
 * while the global flag is off. TraceScope(0) is a no-op — it neither
 * sets nor clears an enclosing scope — which makes propagating
 * currentTraceId() across thread-pool tasks unconditional.
 */
class TraceScope
{
  public:
    explicit TraceScope(uint64_t id) : previous_(detail::t_traceId),
                                       active_(id != 0)
    {
        if (active_)
            detail::t_traceId = id;
    }
    ~TraceScope()
    {
        if (active_)
            detail::t_traceId = previous_;
    }
    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

  private:
    uint64_t previous_;
    bool active_;
};

/** The calling thread's trace id (0 outside any TraceScope). */
inline uint64_t
currentTraceId()
{
    return detail::t_traceId;
}

// ---- Spans ----------------------------------------------------------

/**
 * RAII span covering a scope. Construction is free when nothing is
 * collecting; when the global flag or a thread trace context is active,
 * the destructor records a complete event with any args attached in
 * between.
 */
class Span
{
  public:
    explicit Span(const char *name, const char *category = "geyser")
    {
        if (collecting())
            begin(name, category);
    }
    ~Span()
    {
        if (active_)
            end();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** True if this span is recording (collection was on at entry). */
    bool active() const { return active_; }

    /** Microseconds since span entry (0 when inactive). */
    uint64_t elapsedMicros() const
    {
        return active_ ? nowMicros() - start_ : 0;
    }

    /** Attach args, recorded when the span closes. No-ops when inactive. */
    void arg(const char *key, double value)
    {
        if (active_)
            numArgs_.emplace_back(key, value);
    }
    void arg(const char *key, const char *value)
    {
        if (active_)
            strArgs_.emplace_back(key, value);
    }
    void arg(const char *key, const std::string &value)
    {
        if (active_)
            strArgs_.emplace_back(key, value);
    }

  private:
    void begin(const char *name, const char *category);
    void end();

    bool active_ = false;
    int depth_ = 0;
    uint64_t start_ = 0;
    const char *name_ = nullptr;
    const char *category_ = nullptr;
    std::vector<std::pair<std::string, double>> numArgs_;
    std::vector<std::pair<std::string, std::string>> strArgs_;
};

// ---- Metrics --------------------------------------------------------

/**
 * Monotonic counter. Trace-domain add() is dropped while collection is
 * disabled; a service-domain counter (setAlwaysOn) always counts.
 */
class Counter
{
  public:
    void add(long delta = 1)
    {
        if (enabled() || always_.load(std::memory_order_relaxed))
            value_.fetch_add(delta, std::memory_order_relaxed);
    }
    long value() const { return value_.load(std::memory_order_relaxed); }
    void reset() { value_.store(0, std::memory_order_relaxed); }

    /** Promote to the always-counted service domain (sticky). */
    void setAlwaysOn() { always_.store(true, std::memory_order_relaxed); }
    bool alwaysOn() const
    {
        return always_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<long> value_{0};
    std::atomic<bool> always_{false};
};

/** Last-value gauge (same domain rules as Counter). */
class Gauge
{
  public:
    void set(double v)
    {
        if (enabled() || always_.load(std::memory_order_relaxed))
            value_.store(v, std::memory_order_relaxed);
    }
    double value() const { return value_.load(std::memory_order_relaxed); }
    void reset() { value_.store(0.0, std::memory_order_relaxed); }

    void setAlwaysOn() { always_.store(true, std::memory_order_relaxed); }
    bool alwaysOn() const
    {
        return always_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
    std::atomic<bool> always_{false};
};

/**
 * Histogram over base-2 exponential buckets: bucket 0 holds values < 1,
 * bucket i >= 1 holds [2^(i-1), 2^i). Tracks count/sum/min/max exactly;
 * percentiles are bucket-resolution estimates. Same domain rules as
 * Counter.
 */
class Histogram
{
  public:
    static constexpr int kBuckets = 64;

    struct Snapshot
    {
        long count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;
        std::vector<long> buckets;

        double mean() const { return count > 0 ? sum / count : 0.0; }
        /** Upper-bound estimate of the p-quantile (p in [0, 1]). */
        double percentile(double p) const;
    };

    void record(double value);
    Snapshot snapshot() const;
    void reset();

    void setAlwaysOn() { always_.store(true, std::memory_order_relaxed); }
    bool alwaysOn() const
    {
        return always_.load(std::memory_order_relaxed);
    }

    /** Inclusive upper edge of bucket i. */
    static double bucketUpperBound(int i);

  private:
    mutable std::mutex mutex_;
    std::atomic<bool> always_{false};
    long count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    long buckets_[kBuckets] = {};
};

/** Trace-domain named metrics. References are process-stable. */
Counter &counter(const std::string &name);
Gauge &gauge(const std::string &name);
Histogram &histogram(const std::string &name);

/** Service-domain (always-counted) named metrics; same registry. */
Counter &serviceCounter(const std::string &name);
Gauge &serviceGauge(const std::string &name);
Histogram &serviceHistogram(const std::string &name);

/** Record an instantaneous counter sample as a 'C' trace event. */
void counterEvent(const char *name, double value);

// ---- The bounded global recorder ------------------------------------

/** Default capacity of the global event ring buffer. */
inline constexpr size_t kDefaultEventCapacity = 1u << 16;

/**
 * Resize the global ring buffer (clamped to >= 1). When shrinking, the
 * oldest events are discarded and counted as dropped.
 */
void setEventCapacity(size_t capacity);
size_t eventCapacity();

/** Events overwritten by the ring since the last reset(). */
long eventsDropped();

/** Chronological copy of the global ring (bounded by its capacity). */
std::vector<TraceEvent> events();

/** Final values of every registered metric. */
struct MetricsSnapshot
{
    std::vector<std::pair<std::string, long>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
};
MetricsSnapshot metricsSnapshot();

/** Registered thread names by obs thread id. */
std::vector<std::pair<int, std::string>> threadNames();

/** Chrome trace_event JSON of the session (load in Perfetto). */
std::string chromeTraceJson();
/** Chrome trace_event JSON of an explicit event set (per-job traces). */
std::string chromeTraceJson(
    const std::vector<TraceEvent> &events,
    const std::vector<std::pair<int, std::string>> &threads);
void writeChromeTrace(const std::string &path);

/** JSONL: one line per span event, then one line per metric. */
std::string metricsJsonl();
void writeMetricsJsonl(const std::string &path);

}  // namespace obs
}  // namespace geyser

#endif  // GEYSER_OBS_OBS_HPP
