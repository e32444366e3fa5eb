/**
 * @file
 * End-to-end tests for the compile service: in-process CompileService
 * round trips (submit/poll/fetch, error-kind assertions for invalid
 * QASM, deadline expiry, cancellation mid-compile, warm-cache
 * resubmission) and full socket round trips through SocketServer +
 * ServiceClient, including malformed-frame and shutdown handling.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <fstream>
#include <future>
#include <string>
#include <thread>

#include "algos/algos.hpp"
#include "algos/suite.hpp"
#include "cache/result_cache.hpp"
#include "common/error.hpp"
#include "io/serialize.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/prometheus.hpp"
#include "service/access_log.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/service.hpp"

using namespace geyser;
using namespace geyser::service;

namespace {

/**
 * QASM text of a built-in benchmark. Geyser compiles on a 4-vCPU host:
 * multiplier-5 ≈ 0.2 ms, adder-4 ≈ 15 ms, heisenberg-16 ≈ 250 ms (the
 * tests that must catch a compile in flight use heisenberg-16).
 */
std::string
qasmFor(const std::string &benchmark)
{
    return circuitToQasm(benchmarkByName(benchmark).make());
}

JobSpec
specFor(const std::string &benchmark)
{
    JobSpec spec;
    spec.qasm = qasmFor(benchmark);
    spec.useCache = false;
    return spec;
}

/** Poll until the job reaches a terminal state (fails the test if it
 *  never does within `budget`). */
JobInfo
waitTerminal(CompileService &service, uint64_t id,
             std::chrono::milliseconds budget = std::chrono::seconds(120))
{
    const auto deadline = std::chrono::steady_clock::now() + budget;
    for (;;) {
        const auto info = service.status(id);
        if (!info) {
            ADD_FAILURE() << "job " << id << " vanished while waiting";
            return JobInfo{};
        }
        if (jobStateTerminal(info->state))
            return *info;
        if (std::chrono::steady_clock::now() > deadline) {
            ADD_FAILURE() << "job " << id << " stuck in "
                          << jobStateName(info->state);
            return *info;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

std::string
tempDir(const char *tag)
{
    std::string pattern =
        ::testing::TempDir() + "geyser_svc_" + tag + "_XXXXXX";
    EXPECT_NE(::mkdtemp(pattern.data()), nullptr);
    return pattern;
}

}  // namespace

TEST(JobQueue, OrdersByPriorityThenFifo)
{
    JobQueue queue;
    EXPECT_TRUE(queue.push(1, 0));
    EXPECT_TRUE(queue.push(2, 5));
    EXPECT_TRUE(queue.push(3, 0));
    EXPECT_TRUE(queue.push(4, 5));
    EXPECT_TRUE(queue.push(5, -1));
    EXPECT_EQ(queue.size(), 5u);
    const uint64_t expected[] = {2, 4, 1, 3, 5};
    for (const uint64_t id : expected) {
        const auto item = queue.tryPop();
        ASSERT_TRUE(item.has_value());
        EXPECT_EQ(item->id, id);
    }
    EXPECT_FALSE(queue.tryPop().has_value());
}

TEST(JobQueue, CloseDropsPendingAndRejectsPushes)
{
    JobQueue queue;
    queue.push(1, 0);
    queue.close();
    EXPECT_EQ(queue.size(), 0u);
    EXPECT_FALSE(queue.tryPop().has_value());
    EXPECT_FALSE(queue.push(2, 0));
    EXPECT_TRUE(queue.closed());
}

TEST(CompileService, SubmitCompileFetch)
{
    ServiceConfig config;
    config.workers = 2;
    CompileService service(config);

    const uint64_t id = service.submit(specFor("multiplier-5"));
    const JobInfo info = waitTerminal(service, id);
    EXPECT_EQ(info.state, JobState::Done);
    EXPECT_GT(info.totalMs, 0.0);
    EXPECT_GT(info.u3Count + info.czCount + info.cczCount, 0);
    EXPECT_FALSE(info.cacheHit);

    const FetchResult fetch = service.result(id);
    EXPECT_EQ(fetch.status, FetchStatus::Ready);
    EXPECT_NE(fetch.payload.find("OPENQASM"), std::string::npos);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 1);
    EXPECT_EQ(stats.done, 1);
    EXPECT_EQ(stats.queued, 0);
    EXPECT_EQ(stats.running, 0);
    EXPECT_EQ(service.poolStats().exceptions, 0);
}

TEST(CompileService, TextFormatRendersNativeCircuit)
{
    ServiceConfig config;
    config.workers = 1;
    CompileService service(config);
    JobSpec spec = specFor("multiplier-5");
    spec.format = ResultFormat::Text;
    const uint64_t id = service.submit(spec);
    EXPECT_EQ(waitTerminal(service, id).state, JobState::Done);
    const FetchResult fetch = service.result(id);
    ASSERT_EQ(fetch.status, FetchStatus::Ready);
    EXPECT_EQ(fetch.payload.find("OPENQASM"), std::string::npos);
    EXPECT_FALSE(fetch.payload.empty());
}

TEST(CompileService, RejectsInvalidQasmAtTheBoundary)
{
    ServiceConfig config;
    config.workers = 0;  // Any accepted job would freeze in the queue.
    CompileService service(config);

    JobSpec garbage;
    garbage.qasm = "this is not qasm";
    EXPECT_THROW(service.submit(garbage), ParseError);

    JobSpec dupOperand;
    dupOperand.qasm =
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
        "qreg q[2];\ncx q[0],q[0];\n";
    EXPECT_THROW(service.submit(dupOperand), ParseError);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 0);
    EXPECT_EQ(stats.rejected, 2);
    EXPECT_EQ(stats.queued, 0);  // Nothing entered the queue.
}

TEST(CompileService, RejectsOversizeQasm)
{
    ServiceConfig config;
    config.workers = 0;
    config.maxQasmBytes = 16;
    CompileService service(config);
    EXPECT_THROW(service.submit(specFor("multiplier-5")), ValidationError);
}

TEST(CompileService, StatusAndResultOfUnknownId)
{
    ServiceConfig config;
    config.workers = 0;
    CompileService service(config);
    EXPECT_FALSE(service.status(99).has_value());
    EXPECT_EQ(service.result(99).status, FetchStatus::NotFound);
    EXPECT_EQ(service.cancel(99), CancelOutcome::NotFound);
}

TEST(CompileService, ResultNotReadyWhileQueued)
{
    ServiceConfig config;
    config.workers = 0;
    CompileService service(config);
    const uint64_t id = service.submit(specFor("multiplier-5"));
    EXPECT_EQ(service.result(id).status, FetchStatus::NotReady);
    const auto info = service.status(id);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->state, JobState::Queued);
}

TEST(CompileService, CancelQueuedJobIsImmediate)
{
    ServiceConfig config;
    config.workers = 0;
    CompileService service(config);
    const uint64_t id = service.submit(specFor("multiplier-5"));
    EXPECT_EQ(service.cancel(id), CancelOutcome::Cancelled);

    const auto info = service.status(id);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->state, JobState::Cancelled);

    const FetchResult fetch = service.result(id);
    EXPECT_EQ(fetch.status, FetchStatus::Failed);
    EXPECT_EQ(fetch.info.errorKind, ErrorKind::Cancelled);

    EXPECT_EQ(service.cancel(id), CancelOutcome::AlreadyTerminal);
    EXPECT_EQ(service.stats().cancelled, 1);
}

TEST(CompileService, QueuedDeadlineExpiresLazily)
{
    ServiceConfig config;
    config.workers = 0;  // No worker will ever pick the job up.
    CompileService service(config);
    JobSpec spec = specFor("multiplier-5");
    spec.deadlineMs = 1;
    const uint64_t id = service.submit(spec);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));

    const auto info = service.status(id);  // Polling observes the expiry.
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->state, JobState::Expired);
    EXPECT_EQ(info->errorKind, ErrorKind::Deadline);
    EXPECT_EQ(service.stats().expired, 1);
    EXPECT_EQ(service.result(id).status, FetchStatus::Failed);
}

TEST(CompileService, DeadlineExpiresMidCompile)
{
    ServiceConfig config;
    config.workers = 1;
    CompileService service(config);
    JobSpec spec = specFor("heisenberg-16");  // ≈ 250 ms compile.
    spec.deadlineMs = 40;
    const uint64_t id = service.submit(spec);

    const JobInfo info = waitTerminal(service, id);
    EXPECT_EQ(info.state, JobState::Expired);
    EXPECT_EQ(info.errorKind, ErrorKind::Deadline);
    EXPECT_NE(info.errorMessage.find("deadline"), std::string::npos);
    EXPECT_EQ(service.stats().expired, 1);
    EXPECT_EQ(service.poolStats().exceptions, 0);
}

TEST(CompileService, CancelMidCompileUnwindsAtCheckpoint)
{
    ServiceConfig config;
    config.workers = 1;
    CompileService service(config);
    const uint64_t id = service.submit(specFor("heisenberg-16"));

    // Wait for a worker to pick it up, then cancel mid-flight.
    const auto begin = std::chrono::steady_clock::now();
    while (true) {
        const auto info = service.status(id);
        ASSERT_TRUE(info.has_value());
        if (info->state != JobState::Queued)
            break;
        ASSERT_LT(std::chrono::steady_clock::now() - begin,
                  std::chrono::seconds(60));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    service.cancel(id);

    const JobInfo info = waitTerminal(service, id);
    EXPECT_EQ(info.state, JobState::Cancelled);
    EXPECT_EQ(info.errorKind, ErrorKind::Cancelled);
    EXPECT_NE(info.errorMessage.find("cancelled"), std::string::npos);
    EXPECT_EQ(service.stats().cancelled, 1);
    EXPECT_EQ(service.poolStats().exceptions, 0);

    // The queue is not poisoned: the next job compiles normally.
    const uint64_t next = service.submit(specFor("multiplier-5"));
    EXPECT_EQ(waitTerminal(service, next).state, JobState::Done);
}

TEST(CompileService, WarmCacheResubmissionHitsWithoutRecompiling)
{
    const std::string dir = tempDir("warm");
    cache::CacheConfig cacheConfig;
    cacheConfig.dir = dir;
    cache::ResultCache cache(cacheConfig);
    ASSERT_TRUE(cache.enabled());

    ServiceConfig config;
    config.workers = 1;
    config.cache = &cache;
    CompileService service(config);

    JobSpec spec = specFor("multiplier-5");
    spec.useCache = true;
    const uint64_t cold = service.submit(spec);
    const JobInfo coldInfo = waitTerminal(service, cold);
    EXPECT_EQ(coldInfo.state, JobState::Done);
    EXPECT_FALSE(coldInfo.cacheHit);

    const uint64_t warm = service.submit(spec);
    const JobInfo warmInfo = waitTerminal(service, warm);
    EXPECT_EQ(warmInfo.state, JobState::Done);
    EXPECT_TRUE(warmInfo.cacheHit);

    // Identical payloads, one compile: the second run replayed.
    EXPECT_EQ(service.result(cold).payload, service.result(warm).payload);
    const cache::CacheStats cs = cache.stats();
    EXPECT_EQ(cs.misses, 1);
    EXPECT_EQ(cs.hits, 1);
    EXPECT_EQ(cs.corrupt, 0);
    EXPECT_EQ(service.stats().cacheHits, 1);
}

TEST(CompileService, BackpressureThrowsUnavailable)
{
    ServiceConfig config;
    config.workers = 0;
    config.maxQueuedJobs = 1;
    CompileService service(config);
    service.submit(specFor("multiplier-5"));
    EXPECT_THROW(service.submit(specFor("multiplier-5")), UnavailableError);
    EXPECT_EQ(service.stats().rejected, 1);
}

TEST(CompileService, SubmitAfterShutdownRejected)
{
    ServiceConfig config;
    config.workers = 1;
    CompileService service(config);
    service.shutdown(/*drain=*/true);
    EXPECT_THROW(service.submit(specFor("multiplier-5")), UnavailableError);
    service.shutdown(/*drain=*/false);  // Idempotent.
}

TEST(CompileService, ShutdownDrainFinishesQueuedJobs)
{
    ServiceConfig config;
    config.workers = 1;
    CompileService service(config);
    const uint64_t a = service.submit(specFor("multiplier-5"));
    const uint64_t b = service.submit(specFor("advantage-9"));
    const uint64_t c = service.submit(specFor("multiplier-5"));
    service.shutdown(/*drain=*/true);
    for (const uint64_t id : {a, b, c}) {
        const auto info = service.status(id);
        ASSERT_TRUE(info.has_value());
        EXPECT_EQ(info->state, JobState::Done) << "job " << id;
    }
    EXPECT_EQ(service.stats().done, 3);
}

TEST(CompileService, AbortShutdownCancelsQueuedJobs)
{
    ServiceConfig config;
    config.workers = 0;
    CompileService service(config);
    const uint64_t a = service.submit(specFor("multiplier-5"));
    const uint64_t b = service.submit(specFor("multiplier-5"));
    service.shutdown(/*drain=*/false);
    for (const uint64_t id : {a, b}) {
        const auto info = service.status(id);
        ASSERT_TRUE(info.has_value());
        EXPECT_EQ(info->state, JobState::Cancelled);
        EXPECT_EQ(info->errorKind, ErrorKind::Cancelled);
    }
}

TEST(CompileService, RetentionDropsOldestTerminalRecords)
{
    ServiceConfig config;
    config.workers = 1;
    config.maxRetainedJobs = 2;
    CompileService service(config);
    uint64_t ids[3];
    for (uint64_t &id : ids) {
        id = service.submit(specFor("multiplier-5"));
        waitTerminal(service, id);
    }
    EXPECT_FALSE(service.status(ids[0]).has_value());  // Trimmed.
    EXPECT_TRUE(service.status(ids[1]).has_value());
    EXPECT_TRUE(service.status(ids[2]).has_value());
}

// ---------------------------------------------------------------------
// Socket round trips.
// ---------------------------------------------------------------------

namespace {

struct TcpHarness
{
    explicit TcpHarness(ServiceConfig serviceConfig = {},
                        ServerConfig serverConfig = {})
        : service(std::move(serviceConfig)),
          server(service, std::move(serverConfig))
    {
        server.start();
    }

    CompileService service;
    SocketServer server;
};

}  // namespace

TEST(SocketService, EndToEndOverTcp)
{
    ServiceConfig config;
    config.workers = 2;
    TcpHarness harness(config);
    ServiceClient client = ServiceClient::overTcp(harness.server.port());

    const Response pong = client.ping();
    ASSERT_TRUE(pong.ok);
    EXPECT_EQ(*pong.find("protocol"), std::to_string(kProtocolVersion));
    EXPECT_EQ(*pong.find("pipeline"), std::to_string(kPipelineVersion));
    EXPECT_EQ(*pong.find("workers"), "2");

    const Response accepted =
        client.submit(qasmFor("multiplier-5"), Technique::Geyser, 0, 0, false);
    ASSERT_TRUE(accepted.ok);
    EXPECT_EQ(*accepted.find("state"), "queued");
    const uint64_t id = std::stoull(*accepted.find("id"));

    const Response done = client.waitResult(id);
    ASSERT_TRUE(done.ok);
    EXPECT_EQ(*done.find("state"), "done");
    EXPECT_EQ(*done.find("cache_hit"), "0");
    EXPECT_NE(done.payload.find("OPENQASM"), std::string::npos);

    Request statsReq;
    statsReq.verb = Verb::Stats;
    const Response stats = client.roundTrip(statsReq);
    ASSERT_TRUE(stats.ok);
    EXPECT_EQ(*stats.find("submitted"), "1");
    EXPECT_EQ(*stats.find("done"), "1");
    EXPECT_EQ(*stats.find("pool_exceptions"), "0");
}

TEST(SocketService, EndToEndOverUnixSocket)
{
    const std::string path = tempDir("unix") + "/geyserd.sock";
    ServiceConfig serviceConfig;
    serviceConfig.workers = 1;
    ServerConfig serverConfig;
    serverConfig.unixPath = path;
    TcpHarness harness(serviceConfig, serverConfig);

    ServiceClient client = ServiceClient::overUnix(path);
    EXPECT_TRUE(client.ping().ok);
    const Response accepted =
        client.submit(qasmFor("advantage-9"), Technique::Baseline, 0, 0, false);
    ASSERT_TRUE(accepted.ok);
    const Response done =
        client.waitResult(std::stoull(*accepted.find("id")));
    ASSERT_TRUE(done.ok);
    EXPECT_EQ(*done.find("technique"), "baseline");
}

TEST(SocketService, InvalidQasmIsStructuredErrorAndConnectionSurvives)
{
    ServiceConfig config;
    config.workers = 0;
    TcpHarness harness(config);
    ServiceClient client = ServiceClient::overTcp(harness.server.port());

    const Response err = client.submit("not qasm", Technique::Geyser);
    ASSERT_FALSE(err.ok);
    EXPECT_EQ(*err.find("kind"), "parse");
    EXPECT_EQ(*err.find("code"), "400");
    EXPECT_FALSE(err.payload.empty());

    // Semantic errors keep the connection usable.
    EXPECT_TRUE(client.ping().ok);
}

TEST(SocketService, MalformedFrameRepliesThenClosesConnection)
{
    TcpHarness harness(ServiceConfig{});
    Fd fd = connectTcp(harness.server.port());
    writeAll(fd.get(), "geyser/1 frobnicate\n");
    SocketReader reader(fd.get());
    const auto line = reader.readLine(kMaxHeaderBytes);
    ASSERT_TRUE(line.has_value());
    const Frame<Response> frame = parseResponseHeader(*line);
    EXPECT_FALSE(frame.message.ok);
    EXPECT_EQ(*frame.message.find("kind"), "parse");
    EXPECT_EQ(*frame.message.find("code"), "400");
    reader.readExact(frame.payloadBytes + 1);
    // After a framing error the server hangs up: clean EOF.
    EXPECT_FALSE(reader.readLine(kMaxHeaderBytes).has_value());
}

TEST(SocketService, UnknownJobAndNotReadyOverWire)
{
    ServiceConfig config;
    config.workers = 0;
    TcpHarness harness(config);
    ServiceClient client = ServiceClient::overTcp(harness.server.port());

    const Response missing = client.result(12345);
    ASSERT_FALSE(missing.ok);
    EXPECT_EQ(*missing.find("kind"), "not_found");
    EXPECT_EQ(*missing.find("code"), "404");

    const Response accepted =
        client.submit(qasmFor("multiplier-5"), Technique::Geyser);
    ASSERT_TRUE(accepted.ok);
    const Response pending =
        client.result(std::stoull(*accepted.find("id")));
    ASSERT_FALSE(pending.ok);
    EXPECT_EQ(*pending.find("kind"), "not_ready");
    EXPECT_EQ(*pending.find("code"), "409");
}

TEST(SocketService, CancelOverWireReportsTerminalState)
{
    ServiceConfig config;
    config.workers = 0;
    TcpHarness harness(config);
    ServiceClient client = ServiceClient::overTcp(harness.server.port());

    const Response accepted =
        client.submit(qasmFor("multiplier-5"), Technique::Geyser);
    ASSERT_TRUE(accepted.ok);
    const uint64_t id = std::stoull(*accepted.find("id"));

    const Response cancelled = client.cancel(id);
    ASSERT_TRUE(cancelled.ok);
    EXPECT_EQ(*cancelled.find("delivered"), "1");
    EXPECT_EQ(*cancelled.find("state"), "cancelled");

    const Response fetch = client.result(id);
    ASSERT_FALSE(fetch.ok);
    EXPECT_EQ(*fetch.find("state"), "cancelled");
    EXPECT_EQ(*fetch.find("kind"), "cancelled");
    EXPECT_EQ(*fetch.find("code"), "410");
}

TEST(SocketService, DeadlineExpiryOverWire)
{
    ServiceConfig config;
    config.workers = 1;
    TcpHarness harness(config);
    ServiceClient client = ServiceClient::overTcp(harness.server.port());

    const Response accepted =
        client.submit(qasmFor("heisenberg-16"), Technique::Geyser, 0,
                      /*deadlineMs=*/40, false);
    ASSERT_TRUE(accepted.ok);
    const Response expired =
        client.waitResult(std::stoull(*accepted.find("id")));
    ASSERT_FALSE(expired.ok);
    EXPECT_EQ(*expired.find("state"), "expired");
    EXPECT_EQ(*expired.find("kind"), "deadline");
    EXPECT_EQ(*expired.find("code"), "408");
    EXPECT_NE(expired.payload.find("deadline"), std::string::npos);
}

TEST(SocketService, ShutdownVerbSignalsOwnerAfterReply)
{
    std::promise<void> requested;
    auto requestedFuture = requested.get_future();
    ServerConfig serverConfig;
    serverConfig.onShutdownRequest = [&requested] { requested.set_value(); };

    ServiceConfig serviceConfig;
    serviceConfig.workers = 0;
    TcpHarness harness(serviceConfig, serverConfig);
    ServiceClient client = ServiceClient::overTcp(harness.server.port());

    Request shutdownReq;
    shutdownReq.verb = Verb::Shutdown;
    const Response ack = client.roundTrip(shutdownReq);
    ASSERT_TRUE(ack.ok);
    EXPECT_EQ(*ack.find("stopping"), "1");

    // The owner callback fires (after the reply), and the daemon-side
    // connection closes; the owner then tears the server down.
    ASSERT_EQ(requestedFuture.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    harness.server.stop();
    EXPECT_THROW(client.ping(), IoError);
}

TEST(SocketService, HandleRejectsOversizeSubmitInline)
{
    ServiceConfig config;
    config.workers = 0;
    config.maxQasmBytes = 8;
    TcpHarness harness(config);

    Request request;
    request.verb = Verb::Submit;
    request.qasm = "OPENQASM 2.0; more than eight bytes";
    bool closeConnection = false;
    const Response response =
        harness.server.handle(request, &closeConnection);
    ASSERT_FALSE(response.ok);
    EXPECT_EQ(*response.find("kind"), "validation");
    EXPECT_FALSE(closeConnection);
}

// ---- PR 7: observability ---------------------------------------------

TEST(ServiceObservability, ServiceMetricsCountWithTracingOff)
{
    obs::setEnabled(false);
    obs::reset();
    ServiceConfig config;
    config.workers = 2;
    CompileService service(config);

    const uint64_t ok = service.submit(specFor("multiplier-5"));
    EXPECT_EQ(waitTerminal(service, ok).state, JobState::Done);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.done, 1);
    // The always-on service domain agrees with ServiceStats even though
    // span tracing is off.
    EXPECT_EQ(obs::serviceCounter("service.submitted").value(),
              stats.submitted);
    EXPECT_EQ(obs::serviceCounter("service.done").value(), stats.done);
    {
        // Deterministic cancel: a workers=0 service freezes the job in
        // its queue, so the cancelled-while-queued counter must move.
        ServiceConfig frozen;
        frozen.workers = 0;
        CompileService held(frozen);
        const uint64_t doomed = held.submit(specFor("multiplier-5"));
        held.cancel(doomed);
        EXPECT_EQ(held.stats().cancelled, 1);
        EXPECT_EQ(obs::serviceCounter("service.cancelled").value(), 1);
        EXPECT_EQ(obs::serviceCounter("service.submitted").value(),
                  stats.submitted + 1);
    }
    EXPECT_EQ(obs::serviceGauge("service.queue_depth").value(), 0.0);
    EXPECT_EQ(obs::serviceGauge("service.in_flight").value(), 0.0);
    EXPECT_GE(obs::serviceHistogram("service.queue_wait_ms")
                  .snapshot().count, 1);
    EXPECT_GE(obs::serviceHistogram("service.compile_ms").snapshot().count,
              1);
    EXPECT_GE(obs::serviceHistogram("service.e2e_ms").snapshot().count, 1);
    // And the ring stayed quiet: no span collection without the flag.
    EXPECT_TRUE(obs::events().empty());
    EXPECT_EQ(obs::eventsDropped(), 0);
    // The live exposition carries the series the CI smoke scrapes.
    const std::string text = obs::prometheusText();
    EXPECT_NE(text.find("geyser_jobs_total{outcome=\"done\"} 1\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("geyser_compile_seconds_bucket"),
              std::string::npos);
    EXPECT_NE(text.find("geyser_queue_depth 0\n"), std::string::npos);
}

TEST(ServiceObservability, StatsAgreeWithObsRegistryWhenTracingOn)
{
    obs::setEnabled(true);
    obs::reset();
    ServiceConfig config;
    config.workers = 2;
    CompileService service(config);
    const uint64_t id = service.submit(specFor("multiplier-5"));
    EXPECT_EQ(waitTerminal(service, id).state, JobState::Done);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(obs::serviceCounter("service.done").value(), stats.done);
    EXPECT_EQ(obs::serviceCounter("service.submitted").value(),
              stats.submitted);
    obs::setEnabled(false);
    obs::reset();
}

TEST(ServiceObservability, MetricsVerbServesPrometheusText)
{
    obs::setEnabled(false);
    obs::reset();
    ServiceConfig config;
    config.workers = 2;
    TcpHarness harness(config);

    const uint64_t id = harness.service.submit(specFor("multiplier-5"));
    waitTerminal(harness.service, id);

    Request request;
    request.verb = Verb::Metrics;
    bool closeConnection = false;
    const Response response =
        harness.server.handle(request, &closeConnection);
    ASSERT_TRUE(response.ok);
    ASSERT_NE(response.find("format"), nullptr);
    EXPECT_EQ(*response.find("format"), "prometheus");
    ASSERT_TRUE(response.hasPayload);
    EXPECT_NE(response.payload.find("# TYPE geyser_jobs_total counter"),
              std::string::npos)
        << response.payload;
    EXPECT_NE(
        response.payload.find("geyser_jobs_total{outcome=\"done\"} 1\n"),
        std::string::npos);
    EXPECT_FALSE(closeConnection);
}

TEST(ServiceObservability, TraceVerbServesPerJobChromeTrace)
{
    obs::setEnabled(false);
    obs::reset();
    ServiceConfig config;
    config.workers = 2;
    TcpHarness harness(config);

    const uint64_t id = harness.service.submit(specFor("multiplier-5"));
    EXPECT_EQ(waitTerminal(harness.service, id).state, JobState::Done);

    Request request;
    request.verb = Verb::Trace;
    request.id = id;
    bool closeConnection = false;
    const Response response =
        harness.server.handle(request, &closeConnection);
    ASSERT_TRUE(response.ok) << response.payload;
    EXPECT_EQ(*response.find("id"), std::to_string(id));
    EXPECT_EQ(*response.find("dropped"), "0");
    ASSERT_TRUE(response.hasPayload);
    // The payload is loadable Chrome trace JSON with the job's spans.
    const obs::Json doc = obs::Json::parse(response.payload);
    const obs::Json *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    bool sawJob = false, sawCompile = false, sawCompose = false;
    for (const obs::Json &e : events->items()) {
        const std::string name =
            e.find("name") != nullptr ? e.find("name")->str() : "";
        sawJob = sawJob || name == "service.job";
        sawCompile = sawCompile || name == "compile";
        sawCompose = sawCompose || name == "compose.block";
    }
    EXPECT_TRUE(sawJob);
    EXPECT_TRUE(sawCompile);
    EXPECT_TRUE(sawCompose)
        << "parallel compose spans must join the job trace";

    // Unknown job ids are a structured 404, not an empty trace.
    Request missing;
    missing.verb = Verb::Trace;
    missing.id = id + 1000;
    const Response notFound =
        harness.server.handle(missing, &closeConnection);
    ASSERT_FALSE(notFound.ok);
    EXPECT_EQ(*notFound.find("kind"), "not_found");
}

TEST(ServiceObservability, AccessLogWritesOneJsonlLinePerTerminalJob)
{
    obs::setEnabled(false);
    obs::reset();
    const std::string dir = tempDir("accesslog");
    const std::string path = dir + "/access.jsonl";
    AccessLog accessLog(path);

    {
        ServiceConfig config;
        config.workers = 2;
        config.accessLog = &accessLog;
        CompileService service(config);
        JobSpec spec = specFor("multiplier-5");
        spec.peer = "tcp:127.0.0.1:5555";
        const uint64_t done = service.submit(spec);
        waitTerminal(service, done);
        service.shutdown(/*drain=*/true);
    }
    {
        // A workers=0 service freezes the job in the queue, so the
        // cancel deterministically takes the cancelled-while-queued
        // path (and must still produce an access-log line).
        ServiceConfig config;
        config.workers = 0;
        config.accessLog = &accessLog;
        CompileService service(config);
        const uint64_t cancelled = service.submit(specFor("multiplier-5"));
        service.cancel(cancelled);
        waitTerminal(service, cancelled);
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    int lines = 0;
    bool sawDone = false, sawCancelled = false;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        ++lines;
        const obs::Json row = obs::Json::parse(line);
        ASSERT_NE(row.find("id"), nullptr) << line;
        ASSERT_NE(row.find("outcome"), nullptr) << line;
        ASSERT_NE(row.find("queue_us"), nullptr) << line;
        ASSERT_NE(row.find("cache_hit"), nullptr) << line;
        const std::string outcome = row.find("outcome")->str();
        if (outcome == "done") {
            sawDone = true;
            EXPECT_EQ(row.find("peer")->str(), "tcp:127.0.0.1:5555");
            EXPECT_GT(row.find("compile_us")->number(), 0.0);
            EXPECT_NE(row.find("total_pulses"), nullptr);
        } else if (outcome == "cancelled") {
            sawCancelled = true;
            EXPECT_EQ(row.find("peer")->str(), "local");
            EXPECT_NE(row.find("error_kind"), nullptr);
        }
    }
    EXPECT_EQ(lines, 2);
    EXPECT_TRUE(sawDone);
    EXPECT_TRUE(sawCancelled);
}

// ---- PR 10: fleet batch verb -----------------------------------------

namespace {

/** N VQE members sharing one skeleton (same structure, seeded angles). */
std::string
fleetPayloadFor(int members)
{
    std::string payload;
    for (int seed = 0; seed < members; ++seed) {
        if (seed > 0)
            payload += "%%\n";
        payload += circuitToQasm(
            vqeBenchmark(4, 1, static_cast<uint64_t>(seed)));
    }
    return payload;
}

}  // namespace

TEST(ServiceBatch, CompileBatchSharesOneSkeletonAcrossMembers)
{
    ServiceConfig config;
    config.workers = 1;
    CompileService service(config);

    BatchSpec spec;
    spec.payload = fleetPayloadFor(6);
    spec.useCache = false;
    const fleet::FleetReport report = service.compileBatch(spec);

    EXPECT_EQ(report.members, 6);
    EXPECT_EQ(report.jobs, 6);
    EXPECT_EQ(report.groups, 1);
    EXPECT_EQ(report.rebound + report.fallback, report.members);
    EXPECT_GE(report.rebound, 1);
    EXPECT_EQ(report.verifyFailures, 0);
    EXPECT_GE(report.verified, 1);
    ASSERT_EQ(report.rows.size(), 6u);
    for (const fleet::MemberRow &row : report.rows)
        EXPECT_GT(row.pulses, 0) << row.name;
}

TEST(ServiceBatch, CompileBatchRejectsAtTheBoundary)
{
    ServiceConfig config;
    config.workers = 0;
    config.maxBatchMembers = 2;
    CompileService service(config);

    BatchSpec empty;
    empty.payload = "\n%%\n\n";
    EXPECT_THROW(service.compileBatch(empty), ValidationError);

    BatchSpec garbage;
    garbage.payload = "this is not qasm";
    EXPECT_THROW(service.compileBatch(garbage), std::invalid_argument);

    BatchSpec tooMany;
    tooMany.payload = fleetPayloadFor(3);
    EXPECT_THROW(service.compileBatch(tooMany), ValidationError);

    EXPECT_EQ(service.stats().rejected, 3);

    service.shutdown(false);
    BatchSpec late;
    late.payload = fleetPayloadFor(1);
    EXPECT_THROW(service.compileBatch(late), UnavailableError);
}

TEST(SocketService, BatchOverWireCarriesReportJson)
{
    ServiceConfig config;
    config.workers = 1;
    TcpHarness harness(config);
    ServiceClient client = ServiceClient::overTcp(harness.server.port());

    Request request;
    request.verb = Verb::Batch;
    request.technique = Technique::Geyser;
    request.useCache = false;
    request.verifySample = 1;
    request.qasm = fleetPayloadFor(4);
    const Response response = client.roundTrip(request);
    ASSERT_TRUE(response.ok);
    EXPECT_EQ(*response.find("members"), "4");
    EXPECT_EQ(*response.find("jobs"), "4");
    EXPECT_EQ(*response.find("groups"), "1");
    EXPECT_EQ(*response.find("verify_failures"), "0");
    ASSERT_TRUE(response.hasPayload);
    EXPECT_NE(response.payload.find("geyser-fleet"), std::string::npos);
    EXPECT_NE(response.payload.find("\"members\""), std::string::npos);
    EXPECT_NE(response.payload.find("\"techniques\""), std::string::npos);

    // A batch error is structured, not a framing error: the connection
    // survives for the next request.
    Request bad = request;
    bad.qasm = "not qasm at all";
    const Response err = client.roundTrip(bad);
    ASSERT_FALSE(err.ok);
    EXPECT_EQ(*err.find("kind"), "parse");
    EXPECT_NE(err.payload.find("fleet member 0"), std::string::npos);
    EXPECT_TRUE(client.ping().ok);
}
