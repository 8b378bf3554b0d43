/**
 * @file
 * orion_served job engine (docs/ROBUSTNESS.md, "Resident service"):
 * a bounded request queue with admission control, worker threads,
 * per-job deadlines/retries, and result caching.
 *
 * The Server owns no sockets — the daemon (tools/orion_served.cc)
 * speaks the wire protocol and calls submit/status/result/cancel/
 * stats; this layer owns the robustness semantics:
 *
 *  - **Admission control.** The queue has a high-water mark
 *    (ServerOptions::queueMax). A submit beyond it is rejected with
 *    the structured "queue_full" code instead of growing memory
 *    without bound; the client backs off and retries.
 *
 *  - **Deadlines.** Each job may carry a wall-clock budget; every
 *    point arms the remaining budget on its CancelToken
 *    (CancelToken::armDeadline), so a wedged point stops with
 *    StopReason::Deadline instead of pinning a worker forever.
 *
 *  - **Retries and isolation.** Points run through the sweep's
 *    core::PointRunner: the same RetryPolicy (rederived seed per
 *    attempt) and, with ServerOptions::worker, the same forked
 *    orion_sim workers, so a crashing point (SIGSEGV) fails one job,
 *    not the daemon.
 *
 *  - **Caching.** With a ResultCache attached, each point is keyed
 *    by its single-point sweepFingerprint; hits skip the simulation
 *    entirely and are byte-identical to a fresh run because entries
 *    round-trip through the hexfloat checkpoint format. A hit at grid
 *    index 0 appends the cache's stored line as it is; only later
 *    grid positions re-serialize (their ri= field differs).
 *
 *  - **Retention.** Memory is bounded by what is live: queued and
 *    running jobs, plus the newest kRetainedJobs settled ones. A job
 *    drops its JobSpec when it settles; past the bound the oldest
 *    settled job is erased, and its id answers "expired" (retired())
 *    from then on. Its points stay in the cache, so a resubmit of the
 *    same job is served from there.
 *
 * Determinism contract: a point always runs as its own single-point
 * grid — the runner's coordinates are (0, 0) regardless of the
 * point's position in the submitted rate list — so the same
 * configuration always produces the same bytes (and the same cache
 * key) no matter how jobs are batched, in process or isolated.
 *
 * Locking: one Mutex guards the queue, the job table, and the
 * counters. Simulations run with the lock released; no blocking I/O
 * of any kind happens under the lock (the socket-under-lock analyzer
 * rule enforces the socket half of that on this file).
 */
#ifndef ORION_CORE_SERVER_HH
#define ORION_CORE_SERVER_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/annotations.hh"
#include "core/cache.hh"
#include "core/cancel.hh"
#include "core/config.hh"
#include "core/sweep.hh"
#include "core/sync.hh"

namespace orion::core {

/** Settled (done, failed or cancelled) jobs kept for status/result;
 * older ones are erased (docs/ROBUSTNESS.md, "Job engine"). */
constexpr std::size_t kRetainedJobs = 1024;

enum class JobState
{
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
};

/** "queued"/"running"/"done"/"failed"/"cancelled". */
const char* jobStateName(JobState s);

/** One submitted job: a validated configuration plus the rate grid
 * to evaluate. */
struct JobSpec
{
    NetworkConfig network;
    TrafficConfig traffic;
    SimConfig sim;
    std::vector<double> rates;
    /** Wall-clock budget for the whole job (0 = server default;
     * the default itself may be 0 = unbounded). */
    double timeoutSeconds = 0.0;
    /** The submitted orion_sim-style flags, verbatim. Isolated
     * workers are exec'd with these (see core::workerArgs); in-process
     * mode ignores them. */
    std::vector<std::string> argv;
};

/** A point-in-time snapshot of one job. */
struct JobStatus
{
    std::uint64_t id = 0;
    JobState state = JobState::Queued;
    std::uint64_t pointsDone = 0;
    std::uint64_t pointsTotal = 0;
    std::uint64_t cacheHits = 0;
    /** Failed/Cancelled: the structured reason ("deadline",
     * "cancelled", or the first point's failure message). */
    std::string error;
    /** Done or Failed: one checkpoint-entry line per point, in rate
     * order, newline-terminated. Hexfloat doubles make these bytes
     * reproducible, which is what the serve drill `cmp`s. */
    std::string resultText;
};

struct ServerOptions
{
    /** Worker threads executing jobs. */
    unsigned workers = 1;
    /** Admission high-water mark: queued (not yet running) jobs
     * beyond this are rejected with "queue_full". */
    std::size_t queueMax = 16;
    /** Per-point retry policy (rederived seed per attempt). */
    RetryPolicy retry;
    /** Default per-job deadline when the request names none
     * (0 = unbounded). */
    double defaultTimeoutSeconds = 0.0;
    /** Run each point in a forked orion_sim worker; each job's
     * JobSpec::argv follows WorkerCommand::args. */
    std::optional<WorkerCommand> worker;
    /** Optional persistent result cache (not owned). */
    ResultCache* cache = nullptr;
};

/** Aggregate counters for the stats verb. */
struct ServerStats
{
    std::uint64_t submitted = 0;
    std::uint64_t rejectedQueueFull = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t queueDepth = 0;
    std::uint64_t running = 0;
    std::uint64_t pointsComputed = 0;
    std::uint64_t pointsFromCache = 0;
    /** Jobs in the table: live ones plus at most kRetainedJobs
     * settled ones. */
    std::uint64_t jobsResident = 0;
};

class Server
{
  public:
    explicit Server(const ServerOptions& opts);
    /** Drains (as by drain()) before returning. */
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /**
     * Enqueue @p spec. Returns the job id, or 0 with @p error_code /
     * @p error_message set ("queue_full" past the high-water mark,
     * "draining" after drain() began). The spec must already be
     * validated (validateConfig) — the daemon rejects malformed
     * configurations as "invalid_config" before they get here.
     */
    std::uint64_t submit(const JobSpec& spec, std::string& error_code,
                         std::string& error_message)
        ORION_EXCLUDES(mutex_);

    /** Snapshot @p id into @p out; false for an id that is not in
     * the table (never issued, or retired). */
    bool status(std::uint64_t id, JobStatus& out) const
        ORION_EXCLUDES(mutex_);

    /** True when @p id was issued and has since been erased past
     * the retention bound (the "expired" reply). */
    bool retired(std::uint64_t id) const ORION_EXCLUDES(mutex_);

    /** Cancel @p id (the "cancel" verb): a queued job flips to Cancelled; a running job's
     * token fires and the job winds down cooperatively. False for an
     * id that is not in the table. */
    bool cancelJob(std::uint64_t id) ORION_EXCLUDES(mutex_);

    ServerStats stats() const ORION_EXCLUDES(mutex_);

    /**
     * Graceful drain (SIGTERM semantics): stop admitting, cancel
     * still-queued jobs, let running jobs finish, join the workers.
     * Idempotent.
     */
    void drain() ORION_EXCLUDES(mutex_);

  private:
    struct Job
    {
        /** Reset when the job settles. */
        std::optional<JobSpec> spec;
        JobStatus status;
        /** Fired by cancelJob() and by job-deadline promotion. */
        CancelToken token;
    };

    void workerMain() ORION_EXCLUDES(mutex_);
    /** Execute @p job (lock NOT held; only status updates lock). */
    void runJob(Job& job) ORION_EXCLUDES(mutex_);
    /** @p job has reached a terminal state: drop its spec, and erase
     * the oldest settled job past kRetainedJobs. */
    void settle(Job& job) ORION_REQUIRES(mutex_);

    const ServerOptions opts_;

    mutable core::Mutex mutex_;
    core::CondVar cv_;
    std::map<std::uint64_t, std::unique_ptr<Job>> jobs_
        ORION_GUARDED_BY(mutex_);
    std::deque<std::uint64_t> queue_ ORION_GUARDED_BY(mutex_);
    /** Settled job ids, oldest first (at most kRetainedJobs). */
    std::deque<std::uint64_t> settled_ ORION_GUARDED_BY(mutex_);
    std::uint64_t nextJobId_ ORION_GUARDED_BY(mutex_) = 1;
    bool draining_ ORION_GUARDED_BY(mutex_) = false;
    std::uint64_t submitted_ ORION_GUARDED_BY(mutex_) = 0;
    std::uint64_t rejectedQueueFull_ ORION_GUARDED_BY(mutex_) = 0;
    std::uint64_t completed_ ORION_GUARDED_BY(mutex_) = 0;
    std::uint64_t failed_ ORION_GUARDED_BY(mutex_) = 0;
    std::uint64_t cancelled_ ORION_GUARDED_BY(mutex_) = 0;
    std::uint64_t running_ ORION_GUARDED_BY(mutex_) = 0;
    std::uint64_t pointsComputed_ ORION_GUARDED_BY(mutex_) = 0;
    std::uint64_t pointsFromCache_ ORION_GUARDED_BY(mutex_) = 0;

    std::vector<std::thread> workers_; // analyze-allow: unguarded -- ctor-spawn, drain-join only
    bool joined_ = false; // analyze-allow: unguarded -- drain() callers serialize (daemon main thread)
};

} // namespace orion::core

#endif // ORION_CORE_SERVER_HH
