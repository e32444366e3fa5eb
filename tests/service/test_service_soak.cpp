/**
 * @file
 * Concurrency soak tests for the compile service (run under the
 * Sanitize preset in CI): N socket clients hammering one daemon with a
 * seeded mix of duplicate and distinct jobs, asserting single-flight
 * deduplication through the persistent cache, no lost or duplicated
 * completions, a cancel storm that leaves the queue healthy, and a
 * clean shutdown with jobs still in flight.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "algos/suite.hpp"
#include "cache/result_cache.hpp"
#include "common/error.hpp"
#include "io/serialize.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/service.hpp"

using namespace geyser;
using namespace geyser::service;

namespace {

std::string
qasmFor(const std::string &benchmark)
{
    return circuitToQasm(benchmarkByName(benchmark).make());
}

std::string
tempDir(const char *tag)
{
    std::string pattern =
        ::testing::TempDir() + "geyser_soak_" + tag + "_XXXXXX";
    EXPECT_NE(::mkdtemp(pattern.data()), nullptr);
    return pattern;
}

JobInfo
waitTerminal(CompileService &service, uint64_t id)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(5);
    for (;;) {
        const auto info = service.status(id);
        if (!info) {
            ADD_FAILURE() << "job " << id << " vanished";
            return JobInfo{};
        }
        if (jobStateTerminal(info->state))
            return *info;
        if (std::chrono::steady_clock::now() > deadline) {
            ADD_FAILURE() << "job " << id << " stuck";
            return *info;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

}  // namespace

TEST(ServiceSoak, ConcurrentClientsDedupeThroughSingleFlight)
{
    const std::string dir = tempDir("dedup");
    cache::CacheConfig cacheConfig;
    cacheConfig.dir = dir;
    cache::ResultCache cache(cacheConfig);
    ASSERT_TRUE(cache.enabled());

    ServiceConfig serviceConfig;
    serviceConfig.workers = 4;
    serviceConfig.cache = &cache;
    CompileService service(serviceConfig);
    SocketServer server(service, ServerConfig{});
    server.start();

    // Three distinct programs; every other submission is a duplicate.
    const std::vector<std::string> programs = {
        qasmFor("multiplier-5"), qasmFor("advantage-9"), qasmFor("adder-4")};
    constexpr int kThreads = 6;
    constexpr int kJobsPerThread = 8;

    std::atomic<int> failures{0};
    std::mutex resultMutex;
    std::map<uint64_t, std::string> completions;  // id → state (once).

    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            // Seeded per-thread mix: deterministic, but interleaved
            // differently on every thread.
            std::mt19937 rng(0xC0FFEEu + static_cast<unsigned>(t));
            try {
                ServiceClient client = ServiceClient::overTcp(server.port());
                std::vector<uint64_t> ids;
                for (int j = 0; j < kJobsPerThread; ++j) {
                    const auto &program = programs[rng() % programs.size()];
                    const int priority = static_cast<int>(rng() % 3);
                    const Response accepted = client.submit(
                        program, Technique::Geyser, priority, 0, true);
                    if (!accepted.ok) {
                        ++failures;
                        continue;
                    }
                    ids.push_back(std::stoull(*accepted.find("id")));
                }
                for (const uint64_t id : ids) {
                    const Response done = client.waitResult(id);
                    std::lock_guard<std::mutex> lock(resultMutex);
                    const bool fresh =
                        completions
                            .emplace(id, done.ok ? *done.find("state")
                                                 : "error")
                            .second;
                    if (!fresh || !done.ok ||
                        done.payload.find("OPENQASM") == std::string::npos)
                        ++failures;
                }
            } catch (const std::exception &e) {
                ADD_FAILURE() << "client thread " << t << ": " << e.what();
                ++failures;
            }
        });
    }
    for (auto &c : clients)
        c.join();
    server.stop();

    constexpr int kTotal = kThreads * kJobsPerThread;
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(completions.size(), static_cast<size_t>(kTotal));

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, kTotal);
    EXPECT_EQ(stats.done, kTotal);  // No lost or failed completions.
    EXPECT_EQ(stats.failed + stats.cancelled + stats.expired, 0);

    // Single-flight dedup: each distinct program compiled exactly once;
    // every other job replayed from the cache (as a plain hit or after
    // waiting out another job's flight).
    EXPECT_EQ(stats.done - stats.cacheHits,
              static_cast<long>(programs.size()));
    const cache::CacheStats cs = cache.stats();
    EXPECT_EQ(cs.storeFailures, 0);
    EXPECT_EQ(cs.corrupt, 0);
    EXPECT_GE(cs.hits, static_cast<long>(kTotal - programs.size()));
    EXPECT_EQ(service.poolStats().exceptions, 0);
}

TEST(ServiceSoak, CancelStormLeavesQueueHealthy)
{
    ServiceConfig config;
    config.workers = 1;
    CompileService service(config);

    // A long job at the head of the queue (heisenberg-16, ~190 ms on a
    // 4-vCPU host) keeps the single worker busy, so the storm's cancels
    // land while the short jobs behind it are still queued, however
    // late this thread reaches the storm: the short jobs alone drain in
    // ~10 ms.
    JobSpec head;
    head.qasm = qasmFor("heisenberg-16");
    head.useCache = false;
    const uint64_t headId = service.submit(head);

    const std::string program = qasmFor("multiplier-5");
    constexpr int kJobs = 30;
    std::vector<uint64_t> ids;
    ids.reserve(kJobs);
    for (int j = 0; j < kJobs; ++j) {
        JobSpec spec;
        spec.qasm = program;
        spec.useCache = false;
        ids.push_back(service.submit(spec));
    }

    // Storm: two threads cancelling interleaved halves while the worker
    // drains the queue underneath them.
    std::thread even([&] {
        for (size_t i = 0; i < ids.size(); i += 2)
            service.cancel(ids[i]);
    });
    std::thread odd([&] {
        for (size_t i = 1; i < ids.size(); i += 2)
            service.cancel(ids[i]);
    });
    even.join();
    odd.join();
    // The storm is over: the head job need not run to the end.
    service.cancel(headId);

    long done = 0, cancelled = 0;
    for (const uint64_t id : ids) {
        const JobInfo info = waitTerminal(service, id);
        EXPECT_TRUE(jobStateTerminal(info.state)) << "job " << id;
        EXPECT_NE(info.state, JobState::Failed) << "job " << id;
        done += info.state == JobState::Done;
        cancelled += info.state == JobState::Cancelled;
    }
    EXPECT_EQ(done + cancelled, kJobs);
    EXPECT_GT(cancelled, 0);  // The storm actually landed.

    const JobInfo headInfo = waitTerminal(service, headId);
    EXPECT_TRUE(headInfo.state == JobState::Done ||
                headInfo.state == JobState::Cancelled);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.done, done + (headInfo.state == JobState::Done));
    EXPECT_EQ(stats.cancelled,
              cancelled + (headInfo.state == JobState::Cancelled));
    EXPECT_EQ(stats.failed, 0);
    EXPECT_EQ(service.poolStats().exceptions, 0);

    // The queue is not poisoned: a fresh job still compiles.
    JobSpec fresh;
    fresh.qasm = program;
    fresh.useCache = false;
    EXPECT_EQ(waitTerminal(service, service.submit(fresh)).state,
              JobState::Done);
}

TEST(ServiceSoak, ShutdownWithJobsInFlightIsClean)
{
    ServiceConfig config;
    config.workers = 2;
    CompileService service(config);

    std::vector<uint64_t> ids;
    for (int j = 0; j < 10; ++j) {
        JobSpec spec;
        spec.qasm = qasmFor(j == 0 ? "adder-4" : "multiplier-5");
        spec.useCache = false;
        ids.push_back(service.submit(spec));
    }
    service.shutdown(/*drain=*/false);  // Jobs still queued and running.

    for (const uint64_t id : ids) {
        const auto info = service.status(id);
        ASSERT_TRUE(info.has_value()) << "job " << id;
        EXPECT_TRUE(jobStateTerminal(info->state))
            << "job " << id << " left in " << jobStateName(info->state);
        EXPECT_NE(info->state, JobState::Failed);
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.done + stats.cancelled + stats.expired,
              static_cast<long>(ids.size()));
    EXPECT_EQ(service.poolStats().exceptions, 0);
}

TEST(ServiceSoak, DestructorAbortsInFlightJobs)
{
    const std::string program = qasmFor("heisenberg-16");
    const auto begin = std::chrono::steady_clock::now();
    {
        ServiceConfig config;
        config.workers = 1;
        CompileService service(config);
        for (int j = 0; j < 4; ++j) {
            JobSpec spec;
            spec.qasm = program;
            spec.useCache = false;
            service.submit(spec);
        }
        // ~1 s of queued compile work (4 × ~250 ms of heisenberg-16 on
        // a 4-vCPU host) dies with the service.
    }
    // Cancellation unwinds at the next checkpoint, not after the queue
    // drains: teardown must be far cheaper than the queued work.
    EXPECT_LT(std::chrono::steady_clock::now() - begin,
              std::chrono::seconds(60));
}
