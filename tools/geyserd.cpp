/**
 * @file
 * geyserd — the long-running compile daemon: accepts line-framed
 * protocol requests (see src/service/protocol.hpp) over loopback TCP or
 * a Unix-domain socket, compiles submitted OpenQASM programs on a
 * worker pool with priorities, deadlines, and cooperative cancellation,
 * and serves results back — deduplicating identical jobs through the
 * persistent result cache's single-flight path when one is attached.
 *
 * Usage:
 *   geyserd [options]
 *
 * Options:
 *   --port <n>         listen on loopback TCP port n (default 0 picks
 *                      an ephemeral port; the bound port is printed)
 *   --socket <path>    listen on a Unix-domain socket instead of TCP
 *   --workers <n>      compile worker threads (default: hardware)
 *   --max-queued <n>   backpressure cap on pending jobs (default 4096)
 *   --deadline-ms <n>  default per-job deadline when a submit carries
 *                      none (default 0 = unlimited)
 *   --cache-dir <dir>  persistent result cache rooted at <dir>
 *                      (defaults to $GEYSER_CACHE_DIR when set)
 *   --no-cache         compile uncached even if GEYSER_CACHE_DIR is set
 *   --access-log <f>   append one JSONL line per finished job (id,
 *                      peer, outcome, queue/compile micros, cache hit)
 *   --trace <file>     write a Chrome trace_event JSON on exit
 *   --metrics <file>   write the JSONL span/metric log on exit
 *   --report <file>    write a structured run report on exit (the CI
 *                      smoke asserts its counters: zero cache.corrupt,
 *                      zero pool exceptions)
 *
 * Shutdown: SIGINT, SIGTERM, or a protocol `shutdown` request all wake
 * the main thread through a self-pipe (the only async-signal-safe
 * option), which then stops the socket front end and aborts in-flight
 * jobs via their cancel tokens.
 */
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include <unistd.h>

#include "cache/result_cache.hpp"
#include "common/error.hpp"
#include "linalg/kernels/backend.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "service/access_log.hpp"
#include "service/server.hpp"
#include "service/service.hpp"

using namespace geyser;
using namespace geyser::service;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [options]\n"
                 "options:\n"
                 "  --port <n>        --socket <path>\n"
                 "  --workers <n>     --max-queued <n>  --deadline-ms <n>\n"
                 "  --cache-dir <dir> --no-cache       --access-log <file>\n"
                 "  --trace <file>    --metrics <file>  --report <file>\n",
                 argv0);
    std::exit(2);
}

long
parseLongArg(const char *flag, const std::string &text, long lo, long hi)
{
    size_t consumed = 0;
    long v = 0;
    try {
        v = std::stol(text, &consumed);
    } catch (const std::exception &) {
        consumed = std::string::npos;
    }
    if (consumed != text.size() || text.empty() || v < lo || v > hi)
        throw ParseError(std::string(flag) + ": bad number '" + text + "'");
    return v;
}

// Self-pipe: the one mechanism that is both async-signal-safe (the
// handler) and thread-safe (the protocol shutdown callback).
int gWakePipe[2] = {-1, -1};

void
requestShutdown(int)
{
    const char byte = 'x';
    // The result is irrelevant: a full pipe means a wake-up is already
    // pending. (void)! silences -Wunused-result without a cast warning.
    const ssize_t rc = ::write(gWakePipe[1], &byte, 1);
    (void)rc;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string socketPath, cacheDir, accessLogPath;
    std::string tracePath, metricsPath, reportPath;
    int port = 0;
    int workers = -1;
    long maxQueued = 4096, deadlineMs = 0;
    bool noCache = false;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (++i >= argc)
                    usage(argv[0]);
                return argv[i];
            };
            if (arg == "--port")
                port = static_cast<int>(
                    parseLongArg("--port", next(), 0, 65535));
            else if (arg == "--socket")
                socketPath = next();
            else if (arg == "--workers")
                workers = static_cast<int>(
                    parseLongArg("--workers", next(), 1, 1024));
            else if (arg == "--max-queued")
                maxQueued = parseLongArg("--max-queued", next(), 1, 1 << 20);
            else if (arg == "--deadline-ms")
                deadlineMs = parseLongArg("--deadline-ms", next(), 0,
                                          1000L * 1000 * 1000);
            else if (arg == "--cache-dir")
                cacheDir = next();
            else if (arg == "--no-cache")
                noCache = true;
            else if (arg == "--access-log")
                accessLogPath = next();
            else if (arg == "--trace")
                tracePath = next();
            else if (arg == "--metrics")
                metricsPath = next();
            else if (arg == "--report")
                reportPath = next();
            else if (arg == "--help" || arg == "-h")
                usage(argv[0]);
            else
                usage(argv[0]);
        }

        const bool observing = !tracePath.empty() || !metricsPath.empty() ||
                               !reportPath.empty();
        if (observing) {
            obs::setEnabled(true);
            obs::setThreadName("main");
        }

        cache::ResultCache resultCache(
            cache::CacheConfig::forTool(cacheDir, noCache));

        std::unique_ptr<AccessLog> accessLog;
        if (!accessLogPath.empty())
            accessLog = std::make_unique<AccessLog>(accessLogPath);

        ServiceConfig serviceConfig;
        serviceConfig.workers = workers;
        serviceConfig.maxQueuedJobs = static_cast<int>(maxQueued);
        serviceConfig.defaultDeadlineMs = deadlineMs;
        serviceConfig.accessLog = accessLog.get();
        if (resultCache.enabled())
            serviceConfig.cache = &resultCache;
        CompileService compileService(serviceConfig);

        if (::pipe(gWakePipe) != 0) {
            std::fprintf(stderr, "geyserd: pipe failed: %s\n",
                         std::strerror(errno));
            return 1;
        }
        std::signal(SIGINT, requestShutdown);
        std::signal(SIGTERM, requestShutdown);
        std::signal(SIGPIPE, SIG_IGN);

        ServerConfig serverConfig;
        serverConfig.unixPath = socketPath;
        serverConfig.tcpPort = port;
        serverConfig.onShutdownRequest = [] { requestShutdown(0); };
        SocketServer server(compileService, serverConfig);
        server.start();

        if (socketPath.empty())
            std::printf(
                "geyserd: listening on 127.0.0.1:%d (workers=%d, "
                "backend=%s)\n",
                server.port(), compileService.workerCount(),
                kernels::activeName());
        else
            std::printf(
                "geyserd: listening on %s (workers=%d, backend=%s)\n",
                socketPath.c_str(), compileService.workerCount(),
                kernels::activeName());
        std::fflush(stdout);

        // Block until a signal or a protocol shutdown pokes the pipe.
        char byte = 0;
        while (::read(gWakePipe[0], &byte, 1) < 0 && errno == EINTR) {
        }

        std::fprintf(stderr, "geyserd: shutting down\n");
        server.stop();
        compileService.shutdown(/*drain=*/false);

        const ServiceStats stats = compileService.stats();
        const PoolStats pool = compileService.poolStats();
        std::fprintf(stderr,
                     "geyserd: served %ld jobs (%ld done, %ld failed, "
                     "%ld cancelled, %ld expired, %ld rejected, "
                     "%ld cache hits)\n",
                     stats.submitted, stats.done, stats.failed,
                     stats.cancelled, stats.expired, stats.rejected,
                     stats.cacheHits);

        if (!reportPath.empty()) {
            obs::RunReport report("geyserd");
            report.setConfig("workers", compileService.workerCount());
            report.setConfig("cache_enabled", resultCache.enabled());
            report.setConfig("submitted", stats.submitted);
            report.setConfig("done", stats.done);
            report.setConfig("failed", stats.failed);
            report.setConfig("cancelled", stats.cancelled);
            report.setConfig("expired", stats.expired);
            report.setConfig("rejected", stats.rejected);
            report.setConfig("cache_hits", stats.cacheHits);
            report.setConfig("pool_exceptions",
                             static_cast<long>(pool.exceptions));
            report.write(reportPath);
        }
        if (!tracePath.empty())
            obs::writeChromeTrace(tracePath);
        if (!metricsPath.empty())
            obs::writeMetricsJsonl(metricsPath);
        return 0;
    } catch (const std::exception &e) {
        return renderCliError("geyserd", e);
    }
}
