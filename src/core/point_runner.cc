#include "core/point_runner.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include <stdlib.h>

#include "core/cli.hh"
#include "core/forensics.hh"
#include "core/log.hh"
#include "core/profile.hh"
#include "core/progress.hh"
#include "sim/rng.hh"

namespace orion::core {

namespace {

/** CPU seconds consumed by the calling thread so far. */
double
threadCpuSeconds()
{
    timespec ts{};
    if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0)
        return 0.0;
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Mark @p e failed with @p why, the report carrying the same stop
 * reason. */
void
fail(CheckpointEntry& e, StopReason why, std::string message)
{
    e.report.stopReason = why;
    e.failed = true;
    e.failureReason = why;
    e.failureMessage = std::move(message);
}

/** A check failure is seed-dependent and may pass on a rederived
 * seed; so may a crashed worker. Nothing else is retried. */
bool
retryable(const CheckpointEntry& e)
{
    return e.failed && (e.failureReason == StopReason::CheckFailure ||
                        e.failureReason == StopReason::WorkerCrash);
}

/** The entry a worker wrote with --report-out; nullopt when the file
 * is missing, empty or corrupt (a crashed worker). */
std::optional<CheckpointEntry>
loadReportFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::string line;
    if (!in || !std::getline(in, line) || line.empty())
        return std::nullopt;
    try {
        return parseEntry(line);
    } catch (const CheckpointError&) {
        return std::nullopt;
    }
}

} // namespace

std::vector<std::string>
workerArgs(const std::vector<std::string>& args)
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const auto* row = flags::find(cli::kSimFlags, args[i]);
        const bool valued =
            row != nullptr && row->type.kind != flags::Kind::Switch;
        const bool keep = row == nullptr || row->cls != flags::Class::Local;
        if (keep)
            out.push_back(args[i]);
        if (valued && ++i < args.size() && keep)
            out.push_back(args[i]);
    }
    return out;
}

CheckpointEntry
triage(Simulation& run, const Report& report)
{
    CheckpointEntry e;
    e.report = report;
    switch (report.stopReason) {
    case StopReason::CheckFailure:
        fail(e, StopReason::CheckFailure,
             report.checkFailureDiagnostic);
        e.failureForensics =
            forensicSnapshot(run, report.checkFailureDiagnostic);
        break;
    case StopReason::Deadline:
        fail(e, StopReason::Deadline,
             "point exceeded its deadline after " +
                 std::to_string(report.totalCycles) + " cycles");
        e.failureForensics =
            forensicSnapshot(run, "point deadline expired");
        break;
    case StopReason::Interrupted:
        fail(e, StopReason::Interrupted,
             "interrupted mid-run (SIGINT/SIGTERM)");
        break;
    default:
        break;
    }
    return e;
}

CheckpointEntry
triage(const IsolateResult& res, const CheckpointEntry* got)
{
    CheckpointEntry e;
    if (res.interrupted || (res.exited && res.exitCode == 5)) {
        fail(e, StopReason::Interrupted,
             "interrupted mid-run (SIGINT/SIGTERM)");
    } else if (res.timedOut) {
        // The worker blew past even the watchdog backstop: a wedge
        // its own cooperative deadline could not reach.
        fail(e, StopReason::Deadline,
             "worker exceeded the watchdog deadline and was killed (" +
                 res.describe() + ")");
    } else if (res.exited && res.exitCode == 6) {
        // The worker's --point-timeout: its entry carries the
        // deadline forensics.
        if (got != nullptr)
            e = *got;
        else
            fail(e, StopReason::Deadline,
                 "worker hit --point-timeout (exit 6)");
    } else if (res.healthyExit() && got != nullptr) {
        e = *got;
    } else {
        // Crash, OOM kill, exec failure, or a healthy-looking exit
        // that wrote no parseable report.
        std::string message =
            res.healthyExit()
                ? "worker " + res.describe() +
                      " but wrote no parseable report"
                : "worker crashed (" + res.describe() + ")";
        if (!res.stderrTail.empty())
            message += ": " + res.stderrTail;
        fail(e, StopReason::WorkerCrash, std::move(message));
        e.workerExit = res.describe();
    }
    return e;
}

bool
journalable(const CheckpointEntry& e)
{
    const StopReason sr = e.failed ? e.failureReason
                                   : e.report.stopReason;
    return sr != StopReason::Deadline && sr != StopReason::Interrupted;
}

PointRunner::PointRunner(const NetworkConfig& network,
                         const TrafficConfig& traffic,
                         const SimConfig& sim, const RetryPolicy& retry,
                         const std::optional<WorkerCommand>& worker)
    : network_(network), traffic_(traffic), sim_(sim), retry_(retry),
      worker_(worker)
{
    if (!worker_)
        return;
    worker_->args = workerArgs(worker_->args);
    const char* tmpdir = std::getenv("TMPDIR");
    const std::string base =
        tmpdir != nullptr && *tmpdir != '\0' ? tmpdir : "/tmp";
    std::string tmpl = base + "/orion_worker.XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr)
        throw std::runtime_error(
            "point runner: cannot create the worker scratch directory "
            "under '" + base + "'");
    scratchDir_ = tmpl;
}

PointRunner::~PointRunner()
{
    if (!scratchDir_.empty()) {
        std::error_code ec; // best effort
        std::filesystem::remove_all(scratchDir_, ec);
    }
}

PointRun
PointRunner::run(double rate, std::size_t rate_index,
                 unsigned seed_index, const CancelToken* parent,
                 double deadline_seconds, ProgressScope* scope) const
{
    TrafficConfig t = traffic_;
    t.injectionRate = rate;
    const double wall0 = monotonicSeconds();
    const double cpu0 = threadCpuSeconds();

    PointRun out;
    CheckpointEntry& e = out.entry;
    unsigned attempts = 1;
    const unsigned max_attempts = std::max(1u, retry_.maxAttempts);
    for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
        // An interrupt between attempts ends the point immediately:
        // retrying a point nobody will wait for helps no one.
        if (parent != nullptr && parent->cancelled()) {
            e = CheckpointEntry{};
            fail(e, StopReason::Interrupted,
                 "sweep interrupted before the cell could run");
            break;
        }
        if (attempt > 0 && retry_.backoffMs > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(retry_.backoffMs));
        }
        SimConfig s = sim_;
        s.seed = sim::deriveSeed(sim_.seed, rate_index,
                                 seed_index + attempt * kRetrySeedOffset);
        // The transient flavor of the poison drill only fails the
        // first attempt, modelling a seed-dependent transient.
        if (attempt > 0 && s.debugPoisonTransient)
            s.debugPoisonRate = -1.0;
        attempts = attempt + 1;
        if (scope != nullptr) {
            scope->setAttempt(attempts);
            // Publish live cycle counts for the heartbeat thread.
            // Observability only: the periodic hook this installs is
            // a relaxed store, so results stay bit-identical.
            s.progressCycles = scope->cycles();
        }
        e = worker_ ? runWorker(rate, rate_index, attempt, s, parent,
                                deadline_seconds, out.resources)
                    : runInProcess(t, std::move(s), seed_index, parent,
                                   deadline_seconds, out);
        if (!retryable(e))
            break;
    }
    e.rateIndex = rate_index;
    e.seedIndex = seed_index;
    e.attempts = attempts;

    PointResources& rs = out.resources;
    if (!worker_) {
        rs.valid = true;
        rs.cpuSeconds = threadCpuSeconds() - cpu0;
    }
    if (rs.valid)
        rs.wallSeconds = monotonicSeconds() - wall0;
    return out;
}

CheckpointEntry
PointRunner::runInProcess(const TrafficConfig& traffic, SimConfig sim,
                          unsigned seed_index, const CancelToken* parent,
                          double deadline_seconds, PointRun& out) const
{
    CancelToken token(parent);
    token.armDeadline(deadline_seconds);
    if (deadline_seconds > 0.0 || parent != nullptr)
        sim.cancel = &token;
    try {
        Simulation run(network_, traffic, sim);
        const Report report = run.run();
        if (sim.telemetry.enabled()) {
            out.metricsCsv = run.metricsCsv();
            out.traceJson = run.traceJson(
                "rate " + std::to_string(traffic.injectionRate) +
                " seed " + std::to_string(seed_index));
        }
        return triage(run, report);
    } catch (const std::exception& ex) {
        // A throwing constructor is a check failure of this point,
        // never an exception into the worker pool.
        CheckpointEntry e;
        fail(e, StopReason::CheckFailure, ex.what());
        e.report.checkFailureDiagnostic = ex.what();
        return e;
    }
}

CheckpointEntry
PointRunner::runWorker(double rate, std::size_t rate_index,
                       unsigned attempt, const SimConfig& sim,
                       const CancelToken* parent,
                       double deadline_seconds,
                       PointResources& resources) const
{
    const std::string report_path =
        scratchDir_ + "/" + std::to_string(nextReport_++) + ".entry";
    IsolateOptions io;
    io.argv.push_back(worker_->exe);
    io.argv.insert(io.argv.end(), worker_->args.begin(),
                   worker_->args.end());
    // Appended flags win over forwarded ones: the worker runs exactly
    // this attempt's rate (a hexfloat, so it parses back to the
    // identical double), derived seed and deadline.
    const auto add = [&io](const char* flag, std::string value) {
        io.argv.emplace_back(flag);
        io.argv.push_back(std::move(value));
    };
    add("--rate", exactDouble(rate));
    add("--seed", std::to_string(sim.seed));
    add("--report-out", report_path);
    if (attempt > 0 && sim.debugPoisonTransient)
        add("--debug-poison-rate", "-1");
    if (deadline_seconds > 0.0) {
        // The cooperative deadline lives in the worker; the parent
        // watchdog only backstops a wedged process.
        add("--point-timeout", exactDouble(deadline_seconds));
        io.timeoutSeconds = deadline_seconds * 2.0 + 5.0;
    }
    io.maxAddressSpaceBytes = worker_->memMb * 1024 * 1024;
    io.maxCpuSeconds = worker_->cpuSeconds;
    io.quietStdout = true;
    io.cancel = parent;

    const IsolateResult res = runIsolated(io);
    if (res.haveRusage) {
        // Child rusage from wait4: CPU and peak RSS across attempts.
        resources.valid = true;
        resources.cpuSeconds += res.cpuSeconds;
        resources.maxRssKb = std::max(resources.maxRssKb, res.maxRssKb);
    }
    if (log::enabled(log::Level::Debug)) {
        log::event(log::Level::Debug, "sweep.worker_exit",
                   {log::u64("rate_index", rate_index),
                    log::u64("attempt", attempt + 1),
                    log::str("exit", res.describe()),
                    log::num("cpu_s", res.cpuSeconds),
                    log::u64("maxrss_kb",
                             static_cast<std::uint64_t>(
                                 std::max(0L, res.maxRssKb)))});
    }
    const std::optional<CheckpointEntry> got =
        loadReportFile(report_path);
    std::remove(report_path.c_str());
    return triage(res, got ? &*got : nullptr);
}

} // namespace orion::core
