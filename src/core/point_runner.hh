/**
 * @file
 * One sweep point, run to its final outcome (docs/ROBUSTNESS.md,
 * "Survivable runs").
 *
 * Every driver that evaluates a (configuration, injection rate)
 * point hands it to a PointRunner: Sweep::overRates and
 * overRatesAveraged (and through them orion_sweep, --isolate
 * included) and the orion_served job engine. The runner owns the one
 * attempt loop:
 *
 *  - attempt k runs on sim::deriveSeed(seed, rate index, seed index +
 *    k * kRetrySeedOffset);
 *  - only a check failure is retried (plus, isolated, a worker crash
 *    or an exit that wrote no report);
 *  - Deadline and Interrupted end the point at once.
 *
 * An attempt runs in process through Simulation or, given a
 * WorkerCommand, in a fork/exec'd orion_sim through core::runIsolated,
 * so a SIGSEGV, OOM kill or wedge is one structured failed point.
 * Both backends return the same CheckpointEntry bytes for the same
 * point: the worker writes its outcome with `--report-out` through
 * the same triage the in-process backend uses.
 */

#ifndef ORION_CORE_POINT_RUNNER_HH
#define ORION_CORE_POINT_RUNNER_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/cancel.hh"
#include "core/checkpoint.hh"
#include "core/config.hh"
#include "core/isolate.hh"
#include "core/simulation.hh"

namespace orion {

/**
 * Wall/CPU/memory cost of executing one sweep cell, measured on the
 * worker that ran it (observability only — never journaled, excluded
 * from determinism comparisons; the values depend on machine load).
 * `valid` is false for cached (resumed) cells and cells that never
 * ran.
 */
struct PointResources
{
    bool valid = false;
    /** Wall-clock seconds spent on the cell (all attempts). */
    double wallSeconds = 0.0;
    /** CPU seconds consumed — thread CPU time for in-process cells,
     * child user+system time (wait4 rusage) for isolated cells. */
    double cpuSeconds = 0.0;
    /** Peak resident set in kilobytes, when known (isolated cells
     * only — ru_maxrss of the worker process); 0 otherwise. */
    long maxRssKb = 0;
};

/**
 * Bounded retry of a failed point. Attempt k reruns it on the
 * rederived seed stream sim::deriveSeed(seed, rate index, seed index
 * + k * kRetrySeedOffset) — disjoint from every sibling cell — so
 * transient, seed-dependent failures recover while results stay
 * deterministic. The default (2 attempts, no backoff) reproduces the
 * historical "one rederived-seed retry" exactly.
 */
struct RetryPolicy
{
    /** Total attempts per cell (>= 1; 1 disables retry). */
    unsigned maxAttempts = 2;
    /** Milliseconds slept before each retry attempt, easing transient
     * resource pressure (ENOMEM, thrashing). 0 = none. */
    unsigned backoffMs = 0;
};

/**
 * Retry attempts rederive the seed in a disjoint seed-index band —
 * attempt k runs on sim::deriveSeed(seed, rate index, seed index +
 * k * kRetrySeedOffset) — so a retried cell cannot collide with any
 * sibling cell's stream. Only core::PointRunner applies it, in
 * process and isolated alike.
 */
constexpr std::uint64_t kRetrySeedOffset = 1ULL << 32;

} // namespace orion

namespace orion::core {

class ProgressScope;

/** The isolated backend: each attempt execs an orion_sim worker. */
struct WorkerCommand
{
    /** Path to the orion_sim binary. */
    std::string exe;
    /** orion_sim flags every worker gets; the runner drops the ones
     * never forwarded (see workerArgs) and appends the point's own
     * rate, seed, deadline and report file. */
    std::vector<std::string> args;
    /** Worker RLIMIT_AS cap in MiB (0 = none). */
    std::uint64_t memMb = 0;
    /** Worker RLIMIT_CPU cap in seconds (0 = none). */
    std::uint64_t cpuSeconds = 0;
};

/**
 * @p args without the orion_sim flags of class Local (and their
 * values): per-run outputs, which concurrent workers would race to
 * overwrite, and the flags the runner passes per point. See
 * cli::kSimFlags.
 */
std::vector<std::string> workerArgs(const std::vector<std::string>& args);

/** What one point produced. */
struct PointRun
{
    /** The outcome at the point's (rate index, seed index): the wire
     * type of journals, caches and served results. */
    CheckpointEntry entry;
    PointResources resources;
    /** Telemetry exports, captured in process when SimConfig::
     * telemetry enables the sampler/tracer; empty otherwise. */
    std::string metricsCsv;
    std::string traceJson;
};

/// @name Outcome triage
/// Map one attempt's outcome to an entry at coordinates (0, 0).
/// @{
/** An in-process run: a check failure, deadline or interrupt becomes
 * the entry's failure, with forensics where the run has them.
 * `orion_sim --report-out` writes exactly this entry. */
CheckpointEntry triage(Simulation& run, const Report& report);

/** An isolated worker: @p got is the entry it wrote with
 * --report-out, or null when it wrote none. A crash, kill or missing
 * report becomes a StopReason::WorkerCrash failure carrying the exit
 * status and stderr tail. */
CheckpointEntry triage(const IsolateResult& res,
                       const CheckpointEntry* got);
/// @}

/** True when @p e is deterministic given its seed, so journals and
 * caches may keep it: everything but Deadline and Interrupted, which
 * depend on wall-clock time and machine load. */
bool journalable(const CheckpointEntry& e);

/**
 * Runs points of one configuration. The configuration references
 * must outlive the runner. run() is const and thread-safe: sweep
 * workers share one runner.
 */
class PointRunner
{
  public:
    /**
     * @p worker selects the backend: unset runs attempts in process,
     * set runs each attempt in its own orion_sim and creates the
     * scratch directory their report files pass through
     * (orion_worker.XXXXXX under $TMPDIR, or /tmp when it is unset).
     * @throw std::runtime_error when that directory cannot be made.
     */
    PointRunner(const NetworkConfig& network, const TrafficConfig& traffic,
                const SimConfig& sim, const RetryPolicy& retry,
                const std::optional<WorkerCommand>& worker);
    /** Removes the scratch directory. */
    ~PointRunner();

    PointRunner(const PointRunner&) = delete;
    PointRunner& operator=(const PointRunner&) = delete;

    /**
     * Run the point at @p rate, grid coordinates (@p rate_index,
     * @p seed_index). Every attempt chains to @p parent (may be null)
     * and gets @p deadline_seconds of wall clock (<= 0: none). In
     * process, a CancelToken goes on the simulation only when one of
     * the two exists, so plain sweeps keep the token-free cycle loop.
     * @p scope (may be null) sees each attempt and live cycle counts.
     */
    PointRun run(double rate, std::size_t rate_index,
                 unsigned seed_index, const CancelToken* parent,
                 double deadline_seconds,
                 ProgressScope* scope = nullptr) const;

  private:
    CheckpointEntry runInProcess(const TrafficConfig& traffic,
                                 SimConfig sim, unsigned seed_index,
                                 const CancelToken* parent,
                                 double deadline_seconds,
                                 PointRun& out) const;
    CheckpointEntry runWorker(double rate, std::size_t rate_index,
                              unsigned attempt, const SimConfig& sim,
                              const CancelToken* parent,
                              double deadline_seconds,
                              PointResources& resources) const;

    const NetworkConfig& network_;
    const TrafficConfig& traffic_;
    const SimConfig& sim_;
    const RetryPolicy retry_;
    /** Set for the isolated backend, its args already stripped. */
    std::optional<WorkerCommand> worker_;
    /** Where workers write their report files (isolated only). */
    std::string scratchDir_;
    /** Names each worker report file uniquely. */
    mutable std::atomic<std::uint64_t> nextReport_{0};
};

} // namespace orion::core

#endif // ORION_CORE_POINT_RUNNER_HH
