#include "service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>

#include "cache/result_cache.hpp"
#include "linalg/kernels/backend.hpp"
#include "obs/obs.hpp"
#include "obs/prometheus.hpp"
#include "service/service.hpp"

namespace geyser {
namespace service {

namespace {

std::string
fixed3(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

/** "tcp:<ip>:<port>" / "unix" identity of the connected client, for
 *  the access log. Best effort; empty on getpeername failure. */
std::string
peerName(int fd)
{
    sockaddr_storage addr{};
    socklen_t len = sizeof(addr);
    if (::getpeername(fd, reinterpret_cast<sockaddr *>(&addr), &len) != 0)
        return "";
    char host[INET6_ADDRSTRLEN] = {0};
    if (addr.ss_family == AF_INET) {
        const auto *in = reinterpret_cast<const sockaddr_in *>(&addr);
        ::inet_ntop(AF_INET, &in->sin_addr, host, sizeof(host));
        return std::string("tcp:") + host + ":" +
               std::to_string(ntohs(in->sin_port));
    }
    if (addr.ss_family == AF_INET6) {
        const auto *in6 = reinterpret_cast<const sockaddr_in6 *>(&addr);
        ::inet_ntop(AF_INET6, &in6->sin6_addr, host, sizeof(host));
        return std::string("tcp:") + host + ":" +
               std::to_string(ntohs(in6->sin6_port));
    }
    return "unix";
}

Response
errorResponse(const std::exception &e)
{
    if (dynamic_cast<const UnavailableError *>(&e) != nullptr)
        return Response::error(kErrUnavailable, 503, e.what());
    if (const auto *err = dynamic_cast<const Error *>(&e))
        return Response::error(wireErrorKind(err->kind()),
                               wireErrorCode(err->kind()), e.what());
    return Response::error("internal", 500, e.what());
}

}  // namespace

SocketServer::SocketServer(CompileService &service, ServerConfig config)
    : service_(service), config_(std::move(config))
{
}

SocketServer::~SocketServer()
{
    stop();
}

void
SocketServer::start()
{
    if (!config_.unixPath.empty())
        listener_ = listenUnix(config_.unixPath, config_.backlog);
    else
        listener_ = listenTcp(config_.tcpPort, config_.backlog, &port_);
    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
SocketServer::stop()
{
    if (stopping_.exchange(true))
        return;
    // shutdown() wakes the thread blocked in accept() (close() alone
    // does not on Linux); shutting the connection fds likewise fails
    // their blocking recv()s. The listener is closed only after the
    // accept thread has exited: it reads the fd until then, and a closed
    // fd number can be handed out again.
    if (listener_.valid())
        ::shutdown(listener_.get(), SHUT_RDWR);
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        for (const int fd : connFds_)
            ::shutdown(fd, SHUT_RDWR);
        threads.swap(connThreads_);
    }
    if (acceptThread_.joinable())
        acceptThread_.join();
    listener_.close();
    if (!config_.unixPath.empty())
        ::unlink(config_.unixPath.c_str());
    for (auto &t : threads)
        if (t.joinable())
            t.join();
}

void
SocketServer::acceptLoop()
{
    obs::setThreadName("geyserd-accept");
    while (!stopping_.load()) {
        const int fd = ::accept(listener_.get(), nullptr, nullptr);
        if (fd < 0) {
            if (stopping_.load())
                break;
            continue;  // EINTR / transient accept failure.
        }
        std::lock_guard<std::mutex> lock(connMutex_);
        if (stopping_.load()) {
            ::close(fd);
            break;
        }
        connFds_.push_back(fd);
        connThreads_.emplace_back([this, fd] { serveConnection(fd); });
    }
}

void
SocketServer::serveConnection(int fd)
{
    static obs::Counter &requests = obs::serviceCounter("service.requests");
    static obs::Counter &connErrors =
        obs::serviceCounter("service.conn_error");
    obs::setThreadName("geyserd-conn");
    Fd owned(fd);
    const std::string peer = peerName(fd);

    try {
        SocketReader reader(fd);
        for (;;) {
            const auto line = reader.readLine(kMaxHeaderBytes);
            if (!line)
                break;  // Client closed between frames.
            requests.add();
            Response response;
            bool closeAfter = false;
            try {
                Frame<Request> frame = parseRequestHeader(*line);
                if (frame.hasPayload) {
                    std::string payload =
                        reader.readExact(frame.payloadBytes + 1);
                    if (payload.back() != '\n') {
                        SourceContext ctx;
                        ctx.source = "protocol";
                        throw ParseError(ctx,
                                         "missing payload terminator");
                    }
                    payload.pop_back();
                    frame.message.qasm = std::move(payload);
                }
                response = handle(frame.message, &closeAfter, peer);
            } catch (const ParseError &e) {
                // The stream cannot be resynchronised after a framing
                // error — reply, then drop the connection.
                response = errorResponse(e);
                closeAfter = true;
            } catch (const std::exception &e) {
                response = errorResponse(e);
            }
            writeAll(fd, encodeResponse(response));
            if (shutdownPending_.load() &&
                !shutdownSignalled_.exchange(true) &&
                config_.onShutdownRequest != nullptr)
                config_.onShutdownRequest();
            if (closeAfter)
                break;
        }
    } catch (const std::exception &) {
        // Torn connection (IoError) or an encode bug: drop the client,
        // never the daemon.
        connErrors.add();
    }

    std::lock_guard<std::mutex> lock(connMutex_);
    for (auto it = connFds_.begin(); it != connFds_.end(); ++it) {
        if (*it == fd) {
            connFds_.erase(it);
            break;
        }
    }
}

Response
SocketServer::handle(const Request &request, bool *closeConnection,
                     const std::string &peer)
{
    Response response;
    switch (request.verb) {
      case Verb::Submit: {
        JobSpec spec;
        spec.qasm = request.qasm;
        spec.technique = request.technique;
        spec.format = request.format;
        spec.priority = request.priority;
        spec.deadlineMs = request.deadlineMs;
        spec.useCache = request.useCache;
        spec.peer = peer;
        try {
            const uint64_t id = service_.submit(spec);
            response.set("id", std::to_string(id));
            response.set("state", jobStateName(JobState::Queued));
        } catch (const std::exception &e) {
            return errorResponse(e);
        }
        return response;
      }
      case Verb::Status: {
        const auto info = service_.status(request.id);
        if (!info)
            return Response::error(kErrNotFound, 404,
                                   "unknown job id " +
                                       std::to_string(request.id));
        response.set("id", std::to_string(info->id));
        response.set("state", jobStateName(info->state));
        response.set("stage", info->stage.empty() ? "start" : info->stage);
        response.set("priority", std::to_string(info->priority));
        response.set("queue_ms", fixed3(info->queueMs));
        return response;
      }
      case Verb::Result: {
        const FetchResult fetch = service_.result(request.id);
        const JobInfo &info = fetch.info;
        switch (fetch.status) {
          case FetchStatus::NotFound:
            return Response::error(kErrNotFound, 404,
                                   "unknown job id " +
                                       std::to_string(request.id));
          case FetchStatus::NotReady:
            return Response::error(
                kErrNotReady, 409,
                "job " + std::to_string(request.id) + " not finished (" +
                    jobStateName(info.state) + ")");
          case FetchStatus::Failed: {
            Response err = Response::error(wireErrorKind(info.errorKind),
                                           wireErrorCode(info.errorKind),
                                           info.errorMessage);
            // Splice the terminal state in before kind/code's payload.
            err.fields.insert(err.fields.begin(),
                              {"state", jobStateName(info.state)});
            return err;
          }
          case FetchStatus::Ready:
            response.set("id", std::to_string(info.id));
            response.set("state", jobStateName(info.state));
            response.set("technique", wireTechniqueName(info.technique));
            response.set("cache_hit", info.cacheHit ? "1" : "0");
            response.set("u3", std::to_string(info.u3Count));
            response.set("cz", std::to_string(info.czCount));
            response.set("ccz", std::to_string(info.cczCount));
            response.set("swaps", std::to_string(info.swaps));
            response.set("total_pulses", std::to_string(info.totalPulses));
            response.set("depth_pulses", std::to_string(info.depthPulses));
            response.set("queue_ms", fixed3(info.queueMs));
            response.set("total_ms", fixed3(info.totalMs));
            response.set("transpile_ms", fixed3(info.transpileMs));
            response.set("blocking_ms", fixed3(info.blockingMs));
            response.set("compose_ms", fixed3(info.composeMs));
            response.hasPayload = true;
            response.payload = fetch.payload;
            return response;
        }
        return Response::error("internal", 500, "unreachable");
      }
      case Verb::Cancel: {
        const CancelOutcome outcome = service_.cancel(request.id);
        if (outcome == CancelOutcome::NotFound)
            return Response::error(kErrNotFound, 404,
                                   "unknown job id " +
                                       std::to_string(request.id));
        response.set("id", std::to_string(request.id));
        response.set("delivered",
                     outcome == CancelOutcome::Cancelled ? "1" : "0");
        if (const auto info = service_.status(request.id))
            response.set("state", jobStateName(info->state));
        return response;
      }
      case Verb::Ping:
        response.set("protocol", std::to_string(kProtocolVersion));
        response.set("pipeline", std::to_string(kPipelineVersion));
        response.set("workers", std::to_string(service_.workerCount()));
        return response;
      case Verb::Stats: {
        const ServiceStats s = service_.stats();
        response.set("submitted", std::to_string(s.submitted));
        response.set("done", std::to_string(s.done));
        response.set("failed", std::to_string(s.failed));
        response.set("cancelled", std::to_string(s.cancelled));
        response.set("expired", std::to_string(s.expired));
        response.set("rejected", std::to_string(s.rejected));
        response.set("cache_hits", std::to_string(s.cacheHits));
        response.set("queued", std::to_string(s.queued));
        response.set("running", std::to_string(s.running));
        const PoolStats pool = service_.poolStats();
        response.set("pool_exceptions", std::to_string(pool.exceptions));
        response.set("backend", kernels::activeName());
        return response;
      }
      case Verb::Metrics:
        // Live, lock-consistent snapshot of the whole obs registry in
        // Prometheus text format. Works with tracing off: the service
        // domain is always counted.
        response.set("format", "prometheus");
        response.hasPayload = true;
        response.payload = obs::prometheusText();
        return response;
      case Verb::Trace: {
        if (!obs::hasTrace(request.id))
            return Response::error(kErrNotFound, 404,
                                   "no trace for job id " +
                                       std::to_string(request.id) +
                                       " (evicted or never run)");
        const auto events = obs::traceEvents(request.id);
        response.set("id", std::to_string(request.id));
        response.set("events", std::to_string(events.size()));
        response.set("dropped",
                     std::to_string(obs::traceDropped(request.id)));
        response.hasPayload = true;
        response.payload =
            obs::chromeTraceJson(events, obs::threadNames());
        return response;
      }
      case Verb::Batch: {
        try {
            BatchSpec spec;
            spec.payload = request.qasm;
            spec.technique = request.technique;
            spec.useCache = request.useCache;
            spec.verifySample = request.verifySample;
            const fleet::FleetReport report = service_.compileBatch(spec);
            response.set("members", std::to_string(report.members));
            response.set("jobs", std::to_string(report.jobs));
            response.set("groups", std::to_string(report.groups));
            response.set("rebound", std::to_string(report.rebound));
            response.set("fallback", std::to_string(report.fallback));
            response.set("verify_failures",
                         std::to_string(report.verifyFailures));
            response.set("wall_ms", fixed3(report.wallMs));
            response.hasPayload = true;
            response.payload = report.toJson();
        } catch (const std::exception &e) {
            return errorResponse(e);
        }
        return response;
      }
      case Verb::Shutdown:
        response.set("stopping", "1");
        if (closeConnection != nullptr)
            *closeConnection = true;
        // The owner is notified by serveConnection() only after the
        // acknowledgement has been written, so the reply cannot race
        // the teardown it requests.
        shutdownPending_.store(true);
        return response;
    }
    return Response::error("internal", 500, "unknown verb");
}

}  // namespace service
}  // namespace geyser
