/**
 * @file
 * Tests for the observability subsystem (src/obs): the enable flag and
 * RAII scopes, span nesting on one thread and across pool workers,
 * counter/gauge/histogram semantics, the JSON value class, both
 * exporters (Chrome trace_event and JSONL), the run report, the
 * thread-pool activity counters, the pipeline wall-time fields and
 * their cache round-trip, and a smoke test that the disabled hooks
 * stay in the nanosecond range.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "algos/algos.hpp"
#include "algos/suite.hpp"
#include "common/thread_pool.hpp"
#include "geyser/pipeline.hpp"
#include "io/serialize.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"

namespace geyser {
namespace {

/** Every obs test runs against fresh, enabled state and leaves it off. */
class ObsTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        obs::setEnabled(false);
        obs::reset();
    }
    void TearDown() override
    {
        obs::setEnabled(false);
        obs::reset();
        // Restore the process-wide capacity knobs tests may shrink.
        obs::setEventCapacity(obs::kDefaultEventCapacity);
        obs::setTraceLimits(2048, 64);
    }
};

const obs::TraceEvent *
findEvent(const std::vector<obs::TraceEvent> &events, const std::string &name)
{
    for (const auto &e : events)
        if (e.name == name)
            return &e;
    return nullptr;
}

TEST_F(ObsTest, DisabledByDefaultAndScopeRestores)
{
    EXPECT_FALSE(obs::enabled());
    {
        obs::EnabledScope scope(true);
        EXPECT_TRUE(obs::enabled());
        {
            // A nested no-op scope must not disable the enclosing session.
            obs::EnabledScope inner(false);
            EXPECT_TRUE(obs::enabled());
        }
        EXPECT_TRUE(obs::enabled());
    }
    EXPECT_FALSE(obs::enabled());
}

TEST_F(ObsTest, SpansRecordNothingWhileDisabled)
{
    {
        obs::Span span("ghost");
        EXPECT_FALSE(span.active());
        span.arg("ignored", 1.0);
    }
    obs::counter("ghost.counter").add(5);
    obs::gauge("ghost.gauge").set(2.5);
    obs::histogram("ghost.hist").record(10.0);
    EXPECT_TRUE(obs::events().empty());
    EXPECT_EQ(obs::counter("ghost.counter").value(), 0);
    EXPECT_EQ(obs::gauge("ghost.gauge").value(), 0.0);
    EXPECT_EQ(obs::histogram("ghost.hist").snapshot().count, 0);
}

TEST_F(ObsTest, SpanNestingDepthsAndContainment)
{
    obs::setEnabled(true);
    {
        obs::Span outer("outer");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        {
            obs::Span inner("inner");
            inner.arg("key", 42.0);
            inner.arg("label", "value");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        EXPECT_GT(outer.elapsedMicros(), 0u);
    }
    const auto events = obs::events();
    ASSERT_EQ(events.size(), 2u);
    const auto *outer = findEvent(events, "outer");
    const auto *inner = findEvent(events, "inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->phase, 'X');
    EXPECT_EQ(outer->depth, 0);
    EXPECT_EQ(inner->depth, 1);
    EXPECT_EQ(outer->tid, inner->tid);
    // The inner interval is contained in the outer one.
    EXPECT_GE(inner->tsMicros, outer->tsMicros);
    EXPECT_LE(inner->tsMicros + inner->durMicros,
              outer->tsMicros + outer->durMicros);
    ASSERT_EQ(inner->numArgs.size(), 1u);
    EXPECT_EQ(inner->numArgs[0].first, "key");
    EXPECT_EQ(inner->numArgs[0].second, 42.0);
    ASSERT_EQ(inner->strArgs.size(), 1u);
    EXPECT_EQ(inner->strArgs[0].second, "value");
}

TEST_F(ObsTest, SpansAcrossThreadsGetDistinctThreadIds)
{
    obs::setEnabled(true);
    // A private 2-worker pool (the machine may have one core): a barrier
    // inside the first two tasks guarantees both workers participate.
    ThreadPool pool(2);
    std::mutex m;
    std::condition_variable cv;
    int arrived = 0;
    for (int i = 0; i < 2; ++i) {
        pool.submit([&] {
            obs::Span span("worker.task", "test");
            std::unique_lock<std::mutex> lock(m);
            ++arrived;
            cv.notify_all();
            cv.wait(lock, [&] { return arrived == 2; });
        });
    }
    pool.waitIdle();
    std::set<int> tids;
    for (const auto &e : obs::events())
        if (e.name == "worker.task")
            tids.insert(e.tid);
    EXPECT_EQ(tids.size(), 2u);
    // Workers named themselves for the trace exports.
    int named = 0;
    for (const auto &[tid, name] : obs::threadNames())
        if (name.rfind("geyser-wk", 0) == 0 && tids.count(tid))
            ++named;
    EXPECT_EQ(named, 2);
}

TEST_F(ObsTest, CounterGaugeSemantics)
{
    obs::setEnabled(true);
    obs::Counter &c = obs::counter("test.counter");
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42);
    EXPECT_EQ(&c, &obs::counter("test.counter"))
        << "registry references must be stable";
    obs::gauge("test.gauge").set(2.5);
    EXPECT_EQ(obs::gauge("test.gauge").value(), 2.5);
    obs::reset();
    EXPECT_EQ(c.value(), 0) << "reset zeroes in place";
    EXPECT_EQ(obs::gauge("test.gauge").value(), 0.0);
}

TEST_F(ObsTest, HistogramBucketsAndPercentiles)
{
    obs::setEnabled(true);
    obs::Histogram &h = obs::histogram("test.hist");
    for (int i = 0; i < 99; ++i)
        h.record(2.0);  // Bucket [2,4).
    h.record(1000.0);   // One far outlier.
    const auto snap = h.snapshot();
    EXPECT_EQ(snap.count, 100);
    EXPECT_DOUBLE_EQ(snap.min, 2.0);
    EXPECT_DOUBLE_EQ(snap.max, 1000.0);
    EXPECT_NEAR(snap.mean(), (99 * 2.0 + 1000.0) / 100.0, 1e-9);
    // p50 lands in the [2,4) bucket; p100 in the outlier's bucket.
    EXPECT_LE(snap.percentile(0.5), 4.0);
    EXPECT_GE(snap.percentile(1.0), 1000.0);
    long total = 0;
    for (const long b : snap.buckets)
        total += b;
    EXPECT_EQ(total, snap.count);
    // Bucket upper bounds are the base-2 edges.
    EXPECT_DOUBLE_EQ(obs::Histogram::bucketUpperBound(0), 1.0);
    EXPECT_DOUBLE_EQ(obs::Histogram::bucketUpperBound(3), 8.0);
}

TEST_F(ObsTest, JsonRoundTrip)
{
    obs::Json root = obs::Json::object();
    root.set("string", "with \"quotes\" and \n newline");
    root.set("number", 12345.0);
    root.set("flag", true);
    root.set("nothing", obs::Json());
    obs::Json arr = obs::Json::array();
    arr.push(1.0);
    arr.push("two");
    root.set("list", std::move(arr));

    const obs::Json back = obs::Json::parse(root.dump());
    ASSERT_NE(back.find("string"), nullptr);
    EXPECT_EQ(back.find("string")->str(), "with \"quotes\" and \n newline");
    EXPECT_EQ(back.find("number")->number(), 12345.0);
    EXPECT_TRUE(back.find("flag")->boolean());
    EXPECT_TRUE(back.find("nothing")->isNull());
    EXPECT_EQ(back.find("list")->size(), 2u);
    // Pretty printing parses back to the same structure.
    EXPECT_EQ(obs::Json::parse(root.dump(2)).dump(), back.dump());
    EXPECT_THROW(obs::Json::parse("{broken"), std::invalid_argument);
}

TEST_F(ObsTest, ChromeTraceExportIsValidAndComplete)
{
    obs::setEnabled(true);
    obs::setThreadName("test-main");
    {
        obs::Span span("alpha", "cat");
        span.arg("n", 3.0);
        obs::Span child("beta", "cat");
    }
    obs::counterEvent("queue", 7.0);

    const obs::Json doc = obs::Json::parse(obs::chromeTraceJson());
    const obs::Json *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->type(), obs::Json::Type::Array);

    bool sawAlpha = false, sawBeta = false, sawCounter = false,
         sawThreadName = false;
    for (const obs::Json &e : events->items()) {
        // Chrome trace_event required keys.
        ASSERT_NE(e.find("name"), nullptr);
        ASSERT_NE(e.find("ph"), nullptr);
        ASSERT_NE(e.find("pid"), nullptr);
        ASSERT_NE(e.find("tid"), nullptr);
        const std::string ph = e.find("ph")->str();
        const std::string name = e.find("name")->str();
        if (ph == "X") {
            ASSERT_NE(e.find("ts"), nullptr);
            ASSERT_NE(e.find("dur"), nullptr);
            if (name == "alpha") {
                sawAlpha = true;
                const obs::Json *args = e.find("args");
                ASSERT_NE(args, nullptr);
                EXPECT_EQ(args->find("n")->number(), 3.0);
            }
            sawBeta = sawBeta || name == "beta";
        } else if (ph == "C") {
            sawCounter = sawCounter || name == "queue";
        } else if (ph == "M" && name == "thread_name") {
            const obs::Json *args = e.find("args");
            ASSERT_NE(args, nullptr);
            sawThreadName =
                sawThreadName || args->find("name")->str() == "test-main";
        }
    }
    EXPECT_TRUE(sawAlpha);
    EXPECT_TRUE(sawBeta);
    EXPECT_TRUE(sawCounter);
    EXPECT_TRUE(sawThreadName);
}

TEST_F(ObsTest, MetricsJsonlEveryLineParsesAndCoversMetrics)
{
    obs::setEnabled(true);
    {
        obs::Span span("gamma");
    }
    obs::counter("test.jsonl_counter").add(9);
    obs::gauge("test.jsonl_gauge").set(1.5);
    obs::histogram("test.jsonl_hist").record(4.0);

    std::set<std::string> kinds;
    std::set<std::string> names;
    std::istringstream in(obs::metricsJsonl());
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const obs::Json row = obs::Json::parse(line);
        ASSERT_NE(row.find("type"), nullptr) << line;
        kinds.insert(row.find("type")->str());
        if (row.find("name"))
            names.insert(row.find("name")->str());
    }
    EXPECT_TRUE(kinds.count("span"));
    EXPECT_TRUE(kinds.count("counter"));
    EXPECT_TRUE(kinds.count("gauge"));
    EXPECT_TRUE(kinds.count("histogram"));
    EXPECT_TRUE(names.count("gamma"));
    EXPECT_TRUE(names.count("test.jsonl_counter"));
    EXPECT_TRUE(names.count("test.jsonl_hist"));
}

TEST_F(ObsTest, RunReportAggregatesStagesAndMetrics)
{
    obs::setEnabled(true);
    {
        obs::Span span("stage.work");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    obs::counter("report.counter").add(3);

    obs::RunReport report("test-tool");
    report.setConfig("mode", "unit");
    obs::Json row = obs::Json::object();
    row.set("name", "circ");
    report.addCircuit(std::move(row));

    const obs::Json doc = report.toJson();
    EXPECT_EQ(doc.find("tool")->str(), "test-tool");
    EXPECT_FALSE(doc.find("gitSha")->str().empty());
    EXPECT_NE(doc.find("timestamp"), nullptr);
    EXPECT_EQ(doc.find("config")->find("mode")->str(), "unit");
    EXPECT_EQ(doc.find("circuits")->size(), 1u);
    const obs::Json *stages = doc.find("stages");
    ASSERT_NE(stages, nullptr);
    const obs::Json *stage = nullptr;
    for (const obs::Json &s : stages->items())
        if (s.find("name") && s.find("name")->str() == "stage.work")
            stage = &s;
    ASSERT_NE(stage, nullptr);
    EXPECT_EQ(stage->find("count")->number(), 1.0);
    EXPECT_GT(stage->find("wallMs")->number(), 0.0);
    // Counters land in metrics.counters.
    const obs::Json *counters = doc.find("metrics")->find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->find("report.counter")->number(), 3.0);

    // write() produces a parseable file.
    const std::string path = ::testing::TempDir() + "obs_report.json";
    report.write(path);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_NO_THROW(obs::Json::parse(buf.str()));
    std::remove(path.c_str());
}

TEST_F(ObsTest, ThreadPoolCountersTrackSubmittedAndCompleted)
{
    ThreadPool pool(2);
    constexpr int kTasks = 32;
    std::atomic<int> ran{0};
    for (int i = 0; i < kTasks; ++i)
        pool.submit([&] { ran.fetch_add(1); });
    pool.waitIdle();
    const PoolStats stats = pool.snapshot();
    EXPECT_EQ(ran.load(), kTasks);
    EXPECT_EQ(stats.submitted, kTasks);
    EXPECT_EQ(stats.completed, kTasks);
    EXPECT_EQ(stats.inFlight, 0);
    EXPECT_EQ(stats.queued, 0);
    EXPECT_EQ(stats.workers, 2);
}

TEST_F(ObsTest, PipelineTraceOptionRecordsNestedStages)
{
    // One compile traced through a trace context, as geyserd traces a
    // job: the global flag stays off.
    constexpr uint64_t kTrace = 11;
    obs::beginTrace(kTrace);
    const CompileResult result = [&] {
        obs::TraceScope trace(kTrace);
        return compileGeyser(adderBenchmark(1, true));
    }();
    EXPECT_FALSE(obs::enabled());
    const auto events = obs::traceEvents(kTrace);
    const auto *compile = findEvent(events, "compile");
    const auto *transpile = findEvent(events, "transpile");
    const auto *blocking = findEvent(events, "blocking");
    const auto *compose = findEvent(events, "compose");
    ASSERT_NE(compile, nullptr);
    ASSERT_NE(transpile, nullptr);
    ASSERT_NE(blocking, nullptr);
    ASSERT_NE(compose, nullptr);
    EXPECT_NE(findEvent(events, "compose.block"), nullptr);
    // Stage spans nest inside the top-level compile span.
    for (const auto *stage : {transpile, blocking, compose}) {
        EXPECT_GE(stage->tsMicros, compile->tsMicros);
        EXPECT_LE(stage->tsMicros + stage->durMicros,
                  compile->tsMicros + compile->durMicros);
    }
    EXPECT_GT(result.blockCount, 0);
}

TEST_F(ObsTest, CompileResultWallTimesPopulatedUnconditionally)
{
    // No tracing enabled: wall times must still be measured.
    const CompileResult gey = compileGeyser(adderBenchmark(1, true));
    EXPECT_GT(gey.totalMs, 0.0);
    EXPECT_GT(gey.transpileMs, 0.0);
    EXPECT_GT(gey.blockingMs, 0.0);
    EXPECT_GT(gey.composeMs, 0.0);
    EXPECT_LE(gey.transpileMs + gey.blockingMs + gey.composeMs,
              gey.totalMs * 1.5);

    const CompileResult base = compileBaseline(adderBenchmark(1, true));
    EXPECT_GT(base.totalMs, 0.0);
    EXPECT_EQ(base.blockingMs, 0.0) << "baseline never runs blocking";
    EXPECT_EQ(base.composeMs, 0.0);
}

TEST_F(ObsTest, SerializeRoundTripsWallTimes)
{
    const Circuit logical = adderBenchmark(1, true);
    const CompileResult result = compileGeyser(logical);
    const auto loaded =
        compileResultFromText(compileResultToText(result), logical);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_DOUBLE_EQ(loaded->transpileMs, result.transpileMs);
    EXPECT_DOUBLE_EQ(loaded->blockingMs, result.blockingMs);
    EXPECT_DOUBLE_EQ(loaded->composeMs, result.composeMs);
    EXPECT_DOUBLE_EQ(loaded->totalMs, result.totalMs);
}

TEST_F(ObsTest, RingBufferBoundsEventsAndCountsDrops)
{
    obs::setEnabled(true);
    obs::setEventCapacity(8);
    EXPECT_EQ(obs::eventCapacity(), 8u);
    for (int i = 0; i < 20; ++i) {
        obs::Span span(i < 12 ? "old.span" : "new.span");
    }
    const auto events = obs::events();
    ASSERT_EQ(events.size(), 8u) << "ring must stay at capacity";
    EXPECT_EQ(obs::eventsDropped(), 12);
    // The survivors are the newest events, oldest-first order.
    for (const auto &e : events)
        EXPECT_EQ(e.name, "new.span");
    for (size_t i = 1; i < events.size(); ++i)
        EXPECT_GE(events[i].tsMicros, events[i - 1].tsMicros);
    // The drop counter is a first-class metric for scrapes/reports.
    bool sawDropCounter = false;
    for (const auto &[name, value] : obs::metricsSnapshot().counters)
        if (name == "obs.events_dropped") {
            sawDropCounter = true;
            EXPECT_EQ(value, 12);
        }
    EXPECT_TRUE(sawDropCounter);
    EXPECT_EQ(obs::counter("obs.events_dropped").value(), 12);
    // Shrinking keeps the newest events and counts the discards.
    obs::setEventCapacity(2);
    EXPECT_EQ(obs::events().size(), 2u);
    EXPECT_EQ(obs::eventsDropped(), 18);
    obs::reset();
    EXPECT_EQ(obs::eventsDropped(), 0);
}

TEST_F(ObsTest, ServiceDomainCountsWhileTracingDisabled)
{
    ASSERT_FALSE(obs::enabled());
    obs::Counter &c = obs::serviceCounter("svc.counter");
    obs::Gauge &g = obs::serviceGauge("svc.gauge");
    obs::Histogram &h = obs::serviceHistogram("svc.hist");
    c.add(3);
    g.set(7.5);
    h.record(4.0);
    EXPECT_EQ(c.value(), 3) << "service domain must count with tracing off";
    EXPECT_EQ(g.value(), 7.5);
    EXPECT_EQ(h.snapshot().count, 1);
    // Trace-domain metrics stay silent in the same mode.
    obs::counter("svc.plain").add(3);
    EXPECT_EQ(obs::counter("svc.plain").value(), 0);
    // Both domains count when tracing is on.
    obs::setEnabled(true);
    c.add();
    obs::counter("svc.plain").add();
    EXPECT_EQ(c.value(), 4);
    EXPECT_EQ(obs::counter("svc.plain").value(), 1);
}

TEST_F(ObsTest, ServicePromotionIsStickyAndSharesTheEntry)
{
    // The same name reached through both accessors is one metric, and
    // promotion to the service domain survives later counter() lookups.
    obs::Counter &plain = obs::counter("svc.shared");
    obs::Counter &promoted = obs::serviceCounter("svc.shared");
    EXPECT_EQ(&plain, &promoted);
    ASSERT_FALSE(obs::enabled());
    obs::counter("svc.shared").add(2);
    EXPECT_EQ(plain.value(), 2);
}

TEST_F(ObsTest, TraceContextCapturesSpansWhileGloballyDisabled)
{
    ASSERT_FALSE(obs::enabled());
    obs::beginTrace(7);
    {
        obs::TraceScope scope(7);
        obs::Span span("traced.work", "test");
        span.arg("n", 1.0);
        obs::Span child("traced.child", "test");
    }
    {
        obs::Span outside("untraced.work");
    }
    EXPECT_TRUE(obs::events().empty())
        << "the global ring must stay quiet while disabled";
    ASSERT_TRUE(obs::hasTrace(7));
    const auto events = obs::traceEvents(7);
    ASSERT_EQ(events.size(), 2u);
    for (const auto &e : events)
        EXPECT_EQ(e.traceId, 7u);
    EXPECT_NE(findEvent(events, "traced.work"), nullptr);
    EXPECT_NE(findEvent(events, "traced.child"), nullptr);
    EXPECT_EQ(findEvent(events, "untraced.work"), nullptr);
    EXPECT_EQ(obs::traceDropped(7), 0);
    // The per-trace event set renders as loadable Chrome trace JSON.
    const obs::Json doc = obs::Json::parse(
        obs::chromeTraceJson(events, obs::threadNames()));
    const obs::Json *rendered = doc.find("traceEvents");
    ASSERT_NE(rendered, nullptr);
    bool sawTraceId = false;
    for (const obs::Json &e : rendered->items()) {
        const obs::Json *args = e.find("args");
        if (args != nullptr && args->find("trace_id") != nullptr)
            sawTraceId = true;
    }
    EXPECT_TRUE(sawTraceId);
}

TEST_F(ObsTest, TraceScopeZeroIsNoOpAndScopesNest)
{
    EXPECT_EQ(obs::currentTraceId(), 0u);
    {
        obs::TraceScope outer(11);
        EXPECT_EQ(obs::currentTraceId(), 11u);
        {
            // The pool-propagation idiom: TraceScope(currentTraceId())
            // re-enters the context, TraceScope(0) must not clear it.
            obs::TraceScope noop(0);
            EXPECT_EQ(obs::currentTraceId(), 11u);
            obs::TraceScope inner(12);
            EXPECT_EQ(obs::currentTraceId(), 12u);
        }
        EXPECT_EQ(obs::currentTraceId(), 11u);
    }
    EXPECT_EQ(obs::currentTraceId(), 0u);
}

TEST_F(ObsTest, TraceBuffersAreBoundedAndEvictedLru)
{
    obs::setTraceLimits(4, 2);
    obs::beginTrace(1);
    {
        obs::TraceScope scope(1);
        for (int i = 0; i < 10; ++i) {
            obs::Span span("burst.span");
        }
    }
    EXPECT_EQ(obs::traceEvents(1).size(), 4u);
    EXPECT_EQ(obs::traceDropped(1), 6);
    // Two more traces evict the oldest buffer (retained cap is 2).
    obs::beginTrace(2);
    obs::beginTrace(3);
    EXPECT_FALSE(obs::hasTrace(1));
    EXPECT_TRUE(obs::hasTrace(2));
    EXPECT_TRUE(obs::hasTrace(3));
    const auto ids = obs::traceIds();
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_EQ(ids[0], 2u);
    EXPECT_EQ(ids[1], 3u);
    EXPECT_TRUE(obs::traceEvents(1).empty());
    EXPECT_EQ(obs::traceDropped(1), -1);
}

TEST_F(ObsTest, TraceContextPropagatesAcrossThePipelinePool)
{
    // The real per-job path: compile under a trace context with global
    // tracing off. Compose-block spans run on pool workers, so this
    // fails unless the pipeline re-enters the scope per block.
    ASSERT_FALSE(obs::enabled());
    obs::beginTrace(42);
    {
        obs::TraceScope scope(42);
        const CompileResult result = compileGeyser(adderBenchmark(1, true));
        EXPECT_GT(result.blockCount, 0);
    }
    const auto events = obs::traceEvents(42);
    EXPECT_NE(findEvent(events, "compile"), nullptr);
    EXPECT_NE(findEvent(events, "transpile"), nullptr);
    EXPECT_NE(findEvent(events, "compose"), nullptr);
    EXPECT_NE(findEvent(events, "compose.block"), nullptr)
        << "pool workers must inherit the submitting thread's trace";
    EXPECT_TRUE(obs::events().empty());
}

TEST_F(ObsTest, ComposeBlockSpansCarryCopiesAndCertified)
{
    // One compose.block span per distinct run: `copies` counts the
    // blocks that take its result, `certified` the searches the depth-1
    // bound skipped. Every vqe-4 search is certified.
    constexpr uint64_t kTrace = 77;
    obs::beginTrace(kTrace);
    const CompileResult result = [&] {
        obs::TraceScope trace(kTrace);
        return compileGeyser(benchmarkByName("vqe-4").make());
    }();
    auto numArg = [](const obs::TraceEvent &e, const std::string &key) {
        for (const auto &[name, value] : e.numArgs)
            if (name == key)
                return value;
        ADD_FAILURE() << "compose.block has no " << key << " arg";
        return 0.0;
    };
    int spans = 0;
    double copies = 0.0, certified = 0.0;
    for (const auto &e : obs::traceEvents(kTrace)) {
        if (e.name != "compose.block")
            continue;
        ++spans;
        copies += numArg(e, "copies");
        certified += numArg(e, "certified");
    }
    EXPECT_GT(spans, 0);
    EXPECT_EQ(copies, result.blockCount);
    EXPECT_EQ(certified, spans);
}

TEST_F(ObsTest, PercentileBucketEdges)
{
    obs::setEnabled(true);
    // Empty histogram: all percentiles are 0.
    EXPECT_DOUBLE_EQ(obs::histogram("edge.empty").snapshot().percentile(0.5),
                     0.0);
    // A single sample is every percentile.
    obs::Histogram &one = obs::histogram("edge.one");
    one.record(5.0);
    const auto oneSnap = one.snapshot();
    EXPECT_DOUBLE_EQ(oneSnap.percentile(0.0), 5.0);
    EXPECT_DOUBLE_EQ(oneSnap.percentile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(oneSnap.percentile(1.0), 5.0);
    // Values exactly at the base-2 edges: 2^i opens bucket i+1
    // ([2^i, 2^(i+1))), so the percentile's bucket bound covers it.
    obs::Histogram &edges = obs::histogram("edge.pow2");
    for (const double v : {1.0, 2.0, 4.0, 8.0})
        edges.record(v);
    const auto edgeSnap = edges.snapshot();
    EXPECT_DOUBLE_EQ(edgeSnap.min, 1.0);
    EXPECT_DOUBLE_EQ(edgeSnap.max, 8.0);
    EXPECT_DOUBLE_EQ(edgeSnap.percentile(0.25), 2.0);
    EXPECT_DOUBLE_EQ(edgeSnap.percentile(1.0), 8.0);
    EXPECT_GE(edgeSnap.percentile(0.5), 2.0);
    // Sub-1 values all land in bucket 0 with upper bound 1.
    obs::Histogram &tiny = obs::histogram("edge.tiny");
    for (int i = 0; i < 8; ++i)
        tiny.record(0.1);
    const auto tinySnap = tiny.snapshot();
    EXPECT_EQ(tinySnap.buckets[0], 8);
    EXPECT_LE(tinySnap.percentile(0.99), 1.0);
    EXPECT_DOUBLE_EQ(tinySnap.percentile(1.0), 0.1)
        << "percentile never exceeds the observed max";
}

TEST_F(ObsTest, ScrapeWhileRecordingIsRaceFree)
{
    // A live daemon is scraped (metricsSnapshot/events) and reset while
    // workers record spans and bump metrics. Run all of it concurrently
    // for a bounded burst — the sanitizer presets turn any data race or
    // iterator invalidation into a failure.
    obs::setEnabled(true);
    obs::setEventCapacity(128);
    std::atomic<bool> stop{false};
    std::thread recorder([&] {
        obs::TraceScope scope(99);
        while (!stop.load()) {
            obs::Span span("race.span", "test");
            obs::serviceCounter("race.counter").add();
            obs::serviceHistogram("race.hist").record(3.0);
        }
    });
    std::thread tracer([&] {
        while (!stop.load()) {
            obs::beginTrace(99);
            (void)obs::traceEvents(99);
            (void)obs::hasTrace(99);
        }
    });
    std::thread scraper([&] {
        while (!stop.load()) {
            const auto snap = obs::metricsSnapshot();
            EXPECT_LE(obs::events().size(), obs::eventCapacity());
            (void)snap;
        }
    });
    for (int i = 0; i < 20; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (i % 5 == 4)
            obs::reset();
    }
    stop.store(true);
    recorder.join();
    tracer.join();
    scraper.join();
}

TEST_F(ObsTest, DisabledHooksStayCheap)
{
    ASSERT_FALSE(obs::enabled());
    obs::Counter &c = obs::counter("overhead.counter");
    constexpr int kIters = 10'000'000;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
        obs::Span span("overhead.span");
        c.add();
    }
    const double ns =
        std::chrono::duration<double, std::nano>(
            std::chrono::steady_clock::now() - t0)
            .count() /
        kIters;
    EXPECT_EQ(c.value(), 0);
    RecordProperty("ns_per_pair", std::to_string(ns));
    std::printf("disabled span+counter pair: %.2f ns\n", ns);
    // One span + one counter hook: an atomic load, a thread-local read,
    // and predicted branches (~4 ns measured); 100 ns/pair leaves an
    // order of headroom for CI noise. Sanitizer instrumentation slows
    // every load severalfold — and the suite runs in parallel — so
    // those builds get a proportionally looser bound.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    constexpr double kBound = 1000.0;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    constexpr double kBound = 1000.0;
#else
    constexpr double kBound = 100.0;
#endif
#else
    constexpr double kBound = 100.0;
#endif
    EXPECT_LT(ns, kBound) << "disabled obs hooks cost " << ns
                          << " ns per span+counter pair";
}

}  // namespace
}  // namespace geyser
