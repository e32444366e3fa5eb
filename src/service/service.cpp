#include "service/service.hpp"

#include <utility>

#include "cache/result_cache.hpp"
#include "io/qasm_parser.hpp"
#include "io/serialize.hpp"
#include "obs/obs.hpp"
#include "service/access_log.hpp"

namespace geyser {
namespace service {

namespace {

// Service-domain metrics: always counted, independent of the span
// tracing flag, so a production daemon can be scraped with tracing
// off. Registered once; reset() zeroes them in place so these
// references stay valid for the process lifetime.
struct ServiceMetrics
{
    obs::Counter &submitted = obs::serviceCounter("service.submitted");
    obs::Counter &rejected = obs::serviceCounter("service.rejected");
    obs::Counter &done = obs::serviceCounter("service.done");
    obs::Counter &failed = obs::serviceCounter("service.failed");
    obs::Counter &cancelled = obs::serviceCounter("service.cancelled");
    obs::Counter &expired = obs::serviceCounter("service.expired");
    obs::Counter &cacheHits = obs::serviceCounter("service.cache_hit");
    obs::Gauge &queueDepth = obs::serviceGauge("service.queue_depth");
    obs::Gauge &inFlight = obs::serviceGauge("service.in_flight");
    obs::Histogram &queueWaitMs =
        obs::serviceHistogram("service.queue_wait_ms");
    obs::Histogram &compileMs =
        obs::serviceHistogram("service.compile_ms");
    obs::Histogram &e2eMs = obs::serviceHistogram("service.e2e_ms");
};

ServiceMetrics &
metrics()
{
    static ServiceMetrics m;
    return m;
}

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

int
poolSizeFor(int workers)
{
    // workers == 0 is a test mode: the pool exists but no drain task is
    // ever submitted, freezing jobs in the queue deterministically.
    if (workers < 0)
        return 0;  // ThreadPool(0) selects hardware concurrency.
    return workers == 0 ? 1 : workers;
}

}  // namespace

CompileService::CompileService(ServiceConfig config)
    : config_(std::move(config)), pool_(poolSizeFor(config_.workers))
{
    if (config_.maxQueuedJobs <= 0)
        config_.maxQueuedJobs = 1;
    if (config_.maxRetainedJobs <= 0)
        config_.maxRetainedJobs = 1;
    metrics();  // Register the service domain before the first scrape.
}

CompileService::~CompileService()
{
    shutdown(false);
}

uint64_t
CompileService::submit(const JobSpec &spec)
{
    ServiceMetrics &m = metrics();

    auto countRejected = [&] {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.rejected;
        m.rejected.add();
    };

    // The untrusted-input boundary: parse + validate on the caller's
    // thread so a malformed program is a synchronous structured error
    // and never occupies a queue slot or a worker.
    if (spec.qasm.size() > config_.maxQasmBytes) {
        countRejected();
        throw ValidationError(
            "submit: program of " + std::to_string(spec.qasm.size()) +
            " bytes exceeds the " + std::to_string(config_.maxQasmBytes) +
            "-byte limit");
    }
    Circuit logical;
    try {
        logical = circuitFromQasm(spec.qasm);
        logical.validate();
    } catch (const std::invalid_argument &) {
        countRejected();  // ParseError and ValidationError both.
        throw;
    }

    auto record = std::make_unique<JobRecord>();
    record->spec = spec;
    record->logical = std::move(logical);
    record->info.peer = spec.peer;
    record->submitted = std::chrono::steady_clock::now();
    const long deadlineMs =
        spec.deadlineMs > 0 ? spec.deadlineMs : config_.defaultDeadlineMs;
    record->token.setDeadlineAfterMs(deadlineMs);

    uint64_t id = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopped_) {
            ++stats_.rejected;
            m.rejected.add();
            throw UnavailableError("submit: service is shutting down");
        }
        if (stats_.queued >= config_.maxQueuedJobs) {
            ++stats_.rejected;
            m.rejected.add();
            throw UnavailableError(
                "submit: queue full (" + std::to_string(stats_.queued) +
                " pending jobs)");
        }
        id = nextId_++;
        record->id = id;
        record->info.id = id;
        jobs_.emplace(id, std::move(record));
        queue_.push(id, spec.priority);
        ++stats_.submitted;
        ++stats_.queued;
        m.queueDepth.set(stats_.queued);
    }
    m.submitted.add();
    // One drain slot per accepted job: the pool provides the threads,
    // the JobQueue provides the priority order.
    if (config_.workers != 0)
        pool_.submit([this] { runOne(); });
    return id;
}

fleet::FleetReport
CompileService::compileBatch(const BatchSpec &spec)
{
    ServiceMetrics &m = metrics();

    auto countRejected = [&] {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.rejected;
        m.rejected.add();
    };

    if (spec.payload.size() > config_.maxQasmBytes) {
        countRejected();
        throw ValidationError(
            "batch: payload of " + std::to_string(spec.payload.size()) +
            " bytes exceeds the " + std::to_string(config_.maxQasmBytes) +
            "-byte limit");
    }
    std::vector<fleet::FleetJob> jobs;
    try {
        jobs = fleet::parseFleetPayload(spec.payload);
    } catch (const std::invalid_argument &) {
        countRejected();
        throw;
    }
    if (jobs.empty()) {
        countRejected();
        throw ValidationError("batch: payload contains no members");
    }
    if (jobs.size() > static_cast<size_t>(config_.maxBatchMembers)) {
        countRejected();
        throw ValidationError(
            "batch: " + std::to_string(jobs.size()) +
            " members exceed the " +
            std::to_string(config_.maxBatchMembers) + "-member limit");
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopped_) {
            ++stats_.rejected;
            m.rejected.add();
            throw UnavailableError("batch: service is shutting down");
        }
    }

    fleet::FleetOptions options;
    options.techniques = {spec.technique};
    options.pipeline.cache = spec.useCache ? config_.cache : nullptr;
    options.verifySample = spec.verifySample;
    return fleet::compileFleet(jobs, options);
}

void
CompileService::runOne()
{
    const auto item = queue_.tryPop();
    if (!item)
        return;  // Cancelled-by-close or a skipped entry's slot.

    JobRecord *record = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = jobs_.find(item->id);
        if (it == jobs_.end())
            return;
        record = it->second.get();
        if (record->state != JobState::Queued)
            return;  // Cancelled (or expired) while waiting; skip.
        expireIfOverdue(*record);
        if (record->state != JobState::Queued)
            return;
        record->state = JobState::Running;
        record->info.queueMs = msSince(record->submitted);
        --stats_.queued;
        ++stats_.running;
        ServiceMetrics &m = metrics();
        m.queueDepth.set(stats_.queued);
        m.inFlight.set(stats_.running);
        m.queueWaitMs.record(record->info.queueMs);
    }
    execute(*record);
}

void
CompileService::execute(JobRecord &record)
{
    // Per-job trace context: every span recorded under this scope —
    // including the pipeline's, on whatever worker thread it runs —
    // lands in a bounded buffer keyed by the job id, served later by
    // the `trace <job-id>` wire verb. Independent of the global
    // tracing flag; obs bounds the buffers (obs::setTraceLimits).
    obs::beginTrace(record.id);
    obs::TraceScope trace(record.id);

    obs::Span span("service.job", "service");
    span.arg("id", static_cast<double>(record.id));
    span.arg("technique", techniqueName(record.spec.technique));
    span.arg("priority", record.spec.priority);

    const auto started = std::chrono::steady_clock::now();
    try {
        PipelineOptions options;
        options.cancel = &record.token;
        options.cache = record.spec.useCache ? config_.cache : nullptr;
        const CompileResult result =
            compile(record.spec.technique, record.logical, options);
        std::string payload = record.spec.format == ResultFormat::Qasm
                                  ? circuitToQasm(result.physical)
                                  : circuitToText(result.physical);
        span.arg("cache_hit", result.cacheHit ? 1.0 : 0.0);
        finish(record, JobState::Done, &result, std::move(payload),
               ErrorKind::Internal, "", msSince(started));
    } catch (const std::exception &e) {
        ErrorKind kind = ErrorKind::Internal;
        if (const auto *err = dynamic_cast<const Error *>(&e))
            kind = err->kind();
        const JobState state = kind == ErrorKind::Cancelled
                                   ? JobState::Cancelled
                               : kind == ErrorKind::Deadline
                                   ? JobState::Expired
                                   : JobState::Failed;
        span.arg("error", e.what());
        finish(record, state, nullptr, "", kind, e.what(),
               msSince(started));
    } catch (...) {
        finish(record, JobState::Failed, nullptr, "", ErrorKind::Internal,
               "unknown exception during compile", msSince(started));
    }
}

void
CompileService::finish(JobRecord &record, JobState state,
                       const CompileResult *result, std::string payload,
                       ErrorKind kind, const std::string &message,
                       double wallMs)
{
    ServiceMetrics &m = metrics();

    std::lock_guard<std::mutex> lock(mutex_);
    record.state = state;
    --stats_.running;
    m.inFlight.set(stats_.running);
    JobInfo &info = record.info;
    info.wallMs = wallMs;
    m.compileMs.record(wallMs);
    m.e2eMs.record(msSince(record.submitted));
    if (result != nullptr) {
        info.cacheHit = result->cacheHit;
        info.totalMs = result->totalMs;
        info.transpileMs = result->transpileMs;
        info.blockingMs = result->blockingMs;
        info.composeMs = result->composeMs;
        info.u3Count = result->stats.u3Count;
        info.czCount = result->stats.czCount;
        info.cczCount = result->stats.cczCount;
        info.swaps = result->swapsInserted;
        info.totalPulses = result->stats.totalPulses;
        info.depthPulses = result->stats.depthPulses;
        record.payload = std::move(payload);
    } else {
        info.errorKind = kind;
        info.errorMessage = message;
    }
    switch (state) {
      case JobState::Done:
        ++stats_.done;
        m.done.add();
        if (info.cacheHit) {
            ++stats_.cacheHits;
            m.cacheHits.add();
        }
        break;
      case JobState::Failed:
        ++stats_.failed;
        m.failed.add();
        break;
      case JobState::Cancelled:
        ++stats_.cancelled;
        m.cancelled.add();
        break;
      case JobState::Expired:
        ++stats_.expired;
        m.expired.add();
        break;
      case JobState::Queued:
      case JobState::Running:
        break;  // finish() is only called with terminal states.
    }
    if (config_.accessLog != nullptr)
        config_.accessLog->log(infoSnapshot(record));
    retired_.push_back(record.id);
    trimRetained();
}

void
CompileService::expireIfOverdue(JobRecord &record)
{
    ServiceMetrics &m = metrics();
    if (record.state != JobState::Queued || !record.token.deadlineExpired())
        return;
    record.state = JobState::Expired;
    record.info.errorKind = ErrorKind::Deadline;
    record.info.errorMessage = "deadline exceeded while queued";
    record.info.queueMs = msSince(record.submitted);
    --stats_.queued;
    ++stats_.expired;
    m.queueDepth.set(stats_.queued);
    m.expired.add();
    if (config_.accessLog != nullptr)
        config_.accessLog->log(infoSnapshot(record));
    retired_.push_back(record.id);
    trimRetained();
}

void
CompileService::trimRetained()
{
    while (retired_.size() > static_cast<size_t>(config_.maxRetainedJobs)) {
        jobs_.erase(retired_.front());
        retired_.pop_front();
    }
}

JobInfo
CompileService::infoSnapshot(const JobRecord &record) const
{
    JobInfo info = record.info;
    info.id = record.id;
    info.state = record.state;
    info.technique = record.spec.technique;
    info.priority = record.spec.priority;
    info.stage = record.state == JobState::Queued    ? "queued"
                 : record.state == JobState::Running ? record.token.stage()
                                                     : jobStateName(
                                                           record.state);
    return info;
}

std::optional<JobInfo>
CompileService::status(uint64_t id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return std::nullopt;
    expireIfOverdue(*it->second);
    return infoSnapshot(*it->second);
}

FetchResult
CompileService::result(uint64_t id)
{
    FetchResult fetch;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        fetch.status = FetchStatus::NotFound;
        return fetch;
    }
    JobRecord &record = *it->second;
    expireIfOverdue(record);
    fetch.info = infoSnapshot(record);
    switch (record.state) {
      case JobState::Queued:
      case JobState::Running:
        fetch.status = FetchStatus::NotReady;
        break;
      case JobState::Done:
        fetch.status = FetchStatus::Ready;
        fetch.payload = record.payload;
        break;
      case JobState::Failed:
      case JobState::Cancelled:
      case JobState::Expired:
        fetch.status = FetchStatus::Failed;
        break;
    }
    return fetch;
}

CancelOutcome
CompileService::cancel(uint64_t id)
{
    ServiceMetrics &m = metrics();
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return CancelOutcome::NotFound;
    JobRecord &record = *it->second;
    switch (record.state) {
      case JobState::Queued:
        record.state = JobState::Cancelled;
        record.info.errorKind = ErrorKind::Cancelled;
        record.info.errorMessage = "cancelled while queued";
        record.info.queueMs = msSince(record.submitted);
        record.token.requestCancel();
        --stats_.queued;
        ++stats_.cancelled;
        m.queueDepth.set(stats_.queued);
        m.cancelled.add();
        if (config_.accessLog != nullptr)
            config_.accessLog->log(infoSnapshot(record));
        retired_.push_back(record.id);
        trimRetained();
        return CancelOutcome::Cancelled;
      case JobState::Running:
        // Cooperative: the compile unwinds at its next checkpoint and
        // finish() records the terminal state.
        record.token.requestCancel();
        return CancelOutcome::Cancelled;
      case JobState::Done:
      case JobState::Failed:
      case JobState::Cancelled:
      case JobState::Expired:
        return CancelOutcome::AlreadyTerminal;
    }
    return CancelOutcome::NotFound;
}

ServiceStats
CompileService::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
CompileService::shutdown(bool drain)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopped_ = true;
    }
    // With no dispatch (the workers == 0 test mode) a drain would wait
    // on jobs nothing will ever run; abort instead.
    if (!drain || config_.workers == 0) {
        ServiceMetrics &m = metrics();
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &[id, record] : jobs_) {
            if (record->state == JobState::Queued) {
                record->state = JobState::Cancelled;
                record->info.errorKind = ErrorKind::Cancelled;
                record->info.errorMessage = "service shut down";
                record->info.queueMs = msSince(record->submitted);
                --stats_.queued;
                ++stats_.cancelled;
                m.cancelled.add();
                if (config_.accessLog != nullptr)
                    config_.accessLog->log(infoSnapshot(*record));
                retired_.push_back(id);
            } else if (record->state == JobState::Running) {
                record->token.requestCancel();
            }
        }
        m.queueDepth.set(stats_.queued);
        trimRetained();
        queue_.close();
    }
    pool_.waitIdle();
}

}  // namespace service
}  // namespace geyser
