/**
 * @file
 * CompileService — the long-running heart of geyserd, usable fully
 * in-process (the test harness embeds it; the socket server is a thin
 * shell around it).
 *
 * submit() is an untrusted-input boundary in the PR-5 sense: the QASM
 * program is parsed and Circuit::validate()d on the caller's thread, so
 * malformed input is rejected synchronously with a taxonomy error and
 * never enters the queue. Accepted jobs carry a priority, an optional
 * deadline, and a CancelToken; workers drain the JobQueue in priority
 * order on a dedicated ThreadPool (the exception-safe PR-4 pool — its
 * per-task catch means a service bug can never std::terminate the
 * daemon), calling geyser::compile() with the token so a cancel or an
 * expired deadline unwinds at the next stage/block checkpoint.
 * Duplicate jobs are deduplicated through the persistent ResultCache's
 * single-flight path when a cache is attached; per-job stage progress
 * is readable live from the token, and per-job spans/counters flow
 * through src/obs into the daemon's run report.
 *
 * Memory: finished job records are retained for polling but bounded —
 * beyond ServiceConfig::maxRetainedJobs the oldest terminal records
 * are dropped, and fetching them again reports not_found (clients are
 * expected to fetch a result once).
 */
#ifndef GEYSER_SERVICE_SERVICE_HPP
#define GEYSER_SERVICE_SERVICE_HPP

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "fleet/fleet.hpp"
#include "geyser/pipeline.hpp"
#include "service/job_queue.hpp"
#include "service/protocol.hpp"

namespace geyser {
namespace cache {
class ResultCache;
}  // namespace cache

namespace service {

class AccessLog;

/**
 * The service cannot take the job right now: the queue is at its
 * backpressure cap or the daemon is shutting down. Maps to a 503-class
 * `unavailable` wire reply; clients should retry elsewhere/later.
 */
class UnavailableError : public std::runtime_error, public Error
{
  public:
    explicit UnavailableError(const std::string &message)
        : std::runtime_error(message) {}

    ErrorKind kind() const noexcept override { return ErrorKind::Io; }
    const char *what() const noexcept override
    {
        return std::runtime_error::what();
    }
};

/** Construction-time service configuration. */
struct ServiceConfig
{
    /**
     * Compile worker threads (<= 0 selects hardware concurrency). 0 is
     * honoured literally in tests to freeze jobs in the queue.
     */
    int workers = -1;
    /** Optional persistent result cache (not owned, may be nullptr). */
    cache::ResultCache *cache = nullptr;
    /** submit() beyond this many pending jobs throws UnavailableError. */
    int maxQueuedJobs = 4096;
    /** Terminal records retained for polling before being dropped. */
    int maxRetainedJobs = 10000;
    /** Cap on a submitted QASM program (the protocol also caps frames). */
    size_t maxQasmBytes = kMaxPayloadBytes;
    /** Applied when a submit carries no deadline; 0 = none. */
    long defaultDeadlineMs = 0;
    /**
     * Optional JSONL access log (not owned): one line per job reaching
     * a terminal state. The write happens with the job table locked —
     * AccessLog is lock-leaf so this cannot deadlock, and a line write
     * is trivial next to a compile.
     */
    AccessLog *accessLog = nullptr;
    /** Cap on members in one `batch` request (each is one circuit). */
    int maxBatchMembers = 4096;
};

/** What a client may ask for per batch (the batch verb's fields). */
struct BatchSpec
{
    std::string payload;  ///< QASM programs separated by "%%" lines.
    Technique technique = Technique::Geyser;
    bool useCache = true;
    int verifySample = 1;
};

/** What a client may ask for per job (the submit verb's fields). */
struct JobSpec
{
    std::string qasm;
    Technique technique = Technique::Geyser;
    ResultFormat format = ResultFormat::Qasm;
    int priority = 0;
    long deadlineMs = 0;  ///< 0 = ServiceConfig::defaultDeadlineMs.
    bool useCache = true;
    std::string peer;     ///< Client identity for the access log.
};

/** Point-in-time public view of one job (status/result replies). */
struct JobInfo
{
    uint64_t id = 0;
    JobState state = JobState::Queued;
    Technique technique = Technique::Geyser;
    int priority = 0;
    std::string stage;        ///< Live pipeline stage while running.
    bool cacheHit = false;
    std::string peer;         ///< From the submitting connection.
    double queueMs = 0.0;     ///< Submit → worker pickup.
    double wallMs = 0.0;      ///< Worker pickup → terminal (measured
                              ///< by the service; 0 if never run).
    double totalMs = 0.0;     ///< compile() wall time (a cache hit
                              ///< replays the original compute's).
    double transpileMs = 0.0;
    double blockingMs = 0.0;
    double composeMs = 0.0;
    // Compiled-circuit stats (valid when state == Done).
    int u3Count = 0, czCount = 0, cczCount = 0, swaps = 0;
    long totalPulses = 0, depthPulses = 0;
    // Failure detail (valid in Failed/Cancelled/Expired).
    ErrorKind errorKind = ErrorKind::Internal;
    std::string errorMessage;
};

/** Lifetime activity counters (monotonic; mirrors obs service.*). */
struct ServiceStats
{
    long submitted = 0;
    long done = 0;
    long failed = 0;
    long cancelled = 0;
    long expired = 0;
    long rejected = 0;   ///< submit() calls refused at the boundary.
    long cacheHits = 0;  ///< Done jobs served from the persistent cache.
    int queued = 0;      ///< Snapshot: jobs waiting for a worker.
    int running = 0;     ///< Snapshot: jobs inside compile().
};

/** Outcome classification of result(). */
enum class FetchStatus { Ready, NotReady, NotFound, Failed };

/** result() reply: the payload when Ready, the error detail when not. */
struct FetchResult
{
    FetchStatus status = FetchStatus::NotFound;
    JobInfo info;
    std::string payload;  ///< Compiled circuit (Ready only).
};

/** Outcome of cancel(). */
enum class CancelOutcome { Cancelled, AlreadyTerminal, NotFound };

class CompileService
{
  public:
    explicit CompileService(ServiceConfig config);
    /** Aborts in-flight jobs (cancel + drain) before returning. */
    ~CompileService();

    CompileService(const CompileService &) = delete;
    CompileService &operator=(const CompileService &) = delete;

    /**
     * Validate and enqueue one job; returns its id. Throws ParseError /
     * ValidationError for bad QASM (the job never enters the queue) and
     * UnavailableError when the queue is full or the service stopped.
     */
    uint64_t submit(const JobSpec &spec);

    /**
     * Compile a fleet synchronously on the caller's thread (the fleet
     * engine fans out internally on the global pool — batch wall time
     * is dominated by compiles, not queueing, so it bypasses the job
     * queue). Validation mirrors submit(): malformed members throw
     * ParseError/ValidationError, oversize payloads and member counts
     * ValidationError, a stopped service UnavailableError.
     */
    fleet::FleetReport compileBatch(const BatchSpec &spec);

    /**
     * Snapshot of one job; nullopt for an unknown/expired-out id.
     * Non-const: polling lazily expires queued jobs past their
     * deadline, so a dead job reads as Expired without waiting for a
     * worker to pick it up.
     */
    std::optional<JobInfo> status(uint64_t id);

    /** Fetch a finished job's compiled circuit (or why there is none). */
    FetchResult result(uint64_t id);

    /**
     * Request cancellation. A queued job flips to Cancelled immediately;
     * a running job trips its token and unwinds at the next checkpoint.
     * (For a running job the returned outcome is Cancelled — meaning
     * "cancel delivered" — though the compile may still complete if it
     * was past its last checkpoint.)
     */
    CancelOutcome cancel(uint64_t id);

    ServiceStats stats() const;

    /**
     * Stop the service. drain=true finishes every queued job first;
     * drain=false cancels queued and running jobs and returns when the
     * workers are quiet. Idempotent; submit() rejects afterwards.
     */
    void shutdown(bool drain);

    int workerCount() const { return pool_.size(); }

    /** The pool's counters (the CI smoke asserts exceptions == 0). */
    PoolStats poolStats() const { return pool_.snapshot(); }

  private:
    struct JobRecord
    {
        uint64_t id = 0;
        JobSpec spec;
        Circuit logical;
        JobState state = JobState::Queued;
        CancelToken token;
        std::chrono::steady_clock::time_point submitted;
        JobInfo info;          ///< Stats mirror, updated on transitions.
        std::string payload;   ///< Rendered result (Done only).
    };

    void runOne();
    void execute(JobRecord &record);
    void finish(JobRecord &record, JobState state, const CompileResult *r,
                std::string payload, ErrorKind kind,
                const std::string &message, double wallMs);
    /** Lazily expire a queued job whose deadline passed (mutex held). */
    void expireIfOverdue(JobRecord &record);
    void trimRetained();
    JobInfo infoSnapshot(const JobRecord &record) const;

    ServiceConfig config_;
    mutable std::mutex mutex_;
    std::unordered_map<uint64_t, std::unique_ptr<JobRecord>> jobs_;
    std::deque<uint64_t> retired_;  ///< Terminal ids, oldest first.
    JobQueue queue_;
    uint64_t nextId_ = 1;
    bool stopped_ = false;
    ServiceStats stats_;
    ThreadPool pool_;  ///< Last member: workers die before the state.
};

}  // namespace service
}  // namespace geyser

#endif  // GEYSER_SERVICE_SERVICE_HPP
