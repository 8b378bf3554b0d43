#include "core/server.hh"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "core/log.hh"
#include "core/point_runner.hh"
#include "core/profile.hh"

namespace orion::core {

const char*
jobStateName(JobState s)
{
    switch (s) {
      case JobState::Queued:    return "queued";
      case JobState::Running:   return "running";
      case JobState::Done:      return "done";
      case JobState::Failed:    return "failed";
      case JobState::Cancelled: return "cancelled";
    }
    return "unknown";
}

Server::Server(const ServerOptions& opts) : opts_(opts)
{
    const unsigned n = std::max(1u, opts_.workers);
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerMain(); });
}

Server::~Server()
{
    drain();
}

std::uint64_t
Server::submit(const JobSpec& spec, std::string& error_code,
               std::string& error_message)
{
    core::LockGuard lock(mutex_);
    if (draining_) {
        error_code = "draining";
        error_message = "the daemon is shutting down";
        return 0;
    }
    if (queue_.size() >= opts_.queueMax) {
        ++rejectedQueueFull_;
        error_code = "queue_full";
        error_message =
            "queue high-water mark reached (" +
            std::to_string(opts_.queueMax) + " queued jobs); retry "
            "after backoff";
        return 0;
    }
    const std::uint64_t id = nextJobId_++;
    auto job = std::make_unique<Job>();
    job->spec = spec;
    job->status.id = id;
    job->status.state = JobState::Queued;
    job->status.pointsTotal = spec.rates.size();
    jobs_[id] = std::move(job);
    queue_.push_back(id);
    ++submitted_;
    cv_.notifyOne();
    return id;
}

bool
Server::status(std::uint64_t id, JobStatus& out) const
{
    core::LockGuard lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    out = it->second->status;
    return true;
}

bool
Server::retired(std::uint64_t id) const
{
    core::LockGuard lock(mutex_);
    // Ids are issued in order and a job leaves the table only when
    // retired, so an issued id that is missing has expired.
    return id != 0 && id < nextJobId_ && jobs_.count(id) == 0;
}

bool
Server::cancelJob(std::uint64_t id)
{
    core::LockGuard lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    Job& job = *it->second;
    if (job.status.state == JobState::Queued) {
        job.status.state = JobState::Cancelled;
        job.status.error = "cancelled";
        ++cancelled_;
        // Leave the id in queue_; workers skip entries that are no
        // longer Queued or no longer in the table.
        settle(job);
    }
    job.token.cancel(CancelCause::Interrupt);
    return true;
}

ServerStats
Server::stats() const
{
    core::LockGuard lock(mutex_);
    ServerStats s;
    s.submitted = submitted_;
    s.rejectedQueueFull = rejectedQueueFull_;
    s.completed = completed_;
    s.failed = failed_;
    s.cancelled = cancelled_;
    s.queueDepth = queue_.size();
    s.running = running_;
    s.pointsComputed = pointsComputed_;
    s.pointsFromCache = pointsFromCache_;
    s.jobsResident = jobs_.size();
    return s;
}

void
Server::drain()
{
    {
        core::LockGuard lock(mutex_);
        if (!draining_) {
            draining_ = true;
            // Queued jobs are cancelled — only in-flight work is
            // drained; SIGTERM should not wait for a deep backlog.
            for (const std::uint64_t id : queue_) {
                const auto it = jobs_.find(id);
                if (it != jobs_.end() &&
                    it->second->status.state == JobState::Queued) {
                    it->second->status.state = JobState::Cancelled;
                    it->second->status.error = "cancelled (drain)";
                    ++cancelled_;
                    settle(*it->second);
                }
            }
            queue_.clear();
        }
        cv_.notifyAll();
    }
    if (!joined_) {
        joined_ = true;
        for (std::thread& t : workers_) {
            if (t.joinable())
                t.join();
        }
    }
}

void
Server::workerMain()
{
    for (;;) {
        Job* job = nullptr;
        {
            core::LockGuard lock(mutex_);
            for (;;) {
                while (!queue_.empty()) {
                    const std::uint64_t id = queue_.front();
                    queue_.pop_front();
                    const auto it = jobs_.find(id);
                    if (it == jobs_.end() ||
                        it->second->status.state != JobState::Queued)
                        continue; // cancelled while queued
                    job = it->second.get();
                    break;
                }
                if (job != nullptr || draining_)
                    break;
                cv_.wait(mutex_);
            }
            if (job == nullptr)
                return; // draining and the queue is dry
            job->status.state = JobState::Running;
            ++running_;
        }
        runJob(*job);
    }
}

void
Server::settle(Job& job)
{
    // The newest settled job is never the one erased here, so @p job
    // stays valid for the caller.
    job.spec.reset();
    settled_.push_back(job.status.id);
    while (settled_.size() > kRetainedJobs) {
        jobs_.erase(settled_.front());
        settled_.pop_front();
    }
}

void
Server::runJob(Job& job)
{
    // Running jobs are never retired, so the spec outlives this call.
    const JobSpec& spec = *job.spec;
    const double budget = spec.timeoutSeconds > 0.0
                              ? spec.timeoutSeconds
                              : opts_.defaultTimeoutSeconds;
    const double t0 = monotonicSeconds();

    std::string text;
    bool any_failed = false;
    bool deadline_hit = false;
    std::string first_error;
    // Built on the first miss: a job served wholly from the cache
    // never pays for it (with --isolate, a scratch directory).
    std::optional<PointRunner> runner;

    for (std::size_t i = 0; i < spec.rates.size(); ++i) {
        if (job.token.cancelled())
            break;
        double remaining = 0.0;
        if (budget > 0.0) {
            remaining = budget - (monotonicSeconds() - t0);
            if (remaining <= 0.0) {
                deadline_hit = true;
                break;
            }
        }
        const double rate = spec.rates[i];
        std::uint64_t key = 0;
        bool cached = false;
        // The point in its canonical ri=0,si=0 form; `entry` is its
        // parsed form, filled on a miss or when i > 0 needs it.
        CachedEntry point;
        CheckpointEntry entry;
        if (opts_.cache != nullptr) {
            TrafficConfig t = spec.traffic;
            t.injectionRate = rate;
            key = sweepFingerprint(spec.network, t, spec.sim, {rate},
                                   1);
            cached = opts_.cache->lookup(key, point);
        }
        if (!cached) {
            if (!runner) {
                std::optional<WorkerCommand> worker = opts_.worker;
                if (worker) {
                    worker->args.insert(worker->args.end(),
                                        spec.argv.begin(),
                                        spec.argv.end());
                }
                try {
                    runner.emplace(spec.network, spec.traffic,
                                   spec.sim, opts_.retry, worker);
                } catch (const std::runtime_error& e) {
                    // No scratch directory for the workers: this job
                    // fails, the daemon does not.
                    any_failed = true;
                    first_error = e.what();
                    break;
                }
            }
            // Every point runs as its own single-point grid at (0, 0),
            // so its seed, like its cache key, ignores how the job
            // batched it.
            entry = runner->run(rate, 0, 0, &job.token, remaining).entry;
            point = CachedEntry::of(entry);
            // Only deterministic outcomes are cached — the same
            // exclusion the checkpoint journal applies.
            if (opts_.cache != nullptr && journalable(entry)) {
                try {
                    opts_.cache->insert(key, point);
                } catch (const CacheError& e) {
                    // A full disk must not fail the job; the result
                    // is still returned, just not cached.
                    log::event(log::Level::Warn, "served.cache_error",
                               {log::str("error", e.what())});
                }
            }
        }
        if (point.stopReason == StopReason::Deadline) {
            deadline_hit = true;
            break;
        }
        if (point.stopReason == StopReason::Interrupted)
            break;
        if (point.failed) {
            any_failed = true;
            if (first_error.empty())
                first_error = point.failureMessage;
        }
        // The job's result addresses points by their position in the
        // submitted grid. At i == 0 that is the canonical line itself.
        if (i == 0) {
            text += point.line;
        } else {
            if (cached)
                entry = parseEntry(point.line);
            entry.rateIndex = i;
            entry.seedIndex = 0;
            text += serializeEntry(entry);
        }
        text += "\n";

        core::LockGuard lock(mutex_);
        ++job.status.pointsDone;
        if (cached) {
            ++job.status.cacheHits;
            ++pointsFromCache_;
        } else {
            ++pointsComputed_;
        }
    }

    core::LockGuard lock(mutex_);
    job.status.resultText = std::move(text);
    if (job.token.cancelled() &&
        job.token.cause() == CancelCause::Interrupt) {
        job.status.state = JobState::Cancelled;
        job.status.error = "cancelled";
        ++cancelled_;
    } else if (deadline_hit) {
        job.status.state = JobState::Failed;
        job.status.error = "deadline: the job exceeded its " +
                           std::to_string(budget) +
                           " second wall-clock budget";
        ++failed_;
    } else if (any_failed) {
        job.status.state = JobState::Failed;
        job.status.error = first_error;
        ++failed_;
    } else {
        job.status.state = JobState::Done;
        ++completed_;
    }
    --running_;
    settle(job);
}

} // namespace orion::core
