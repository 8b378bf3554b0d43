#include "core/sweep.hh"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "core/executor.hh"
#include "core/progress.hh"

namespace orion {

namespace {

/** One (rate, seed) cell: run fresh, merged from a resumed journal,
 * or (default-constructed) never dispensed by a cancelled sweep. */
struct Cell
{
    core::PointRun run;
    /** See SweepPoint::ran / SweepPoint::fromCheckpoint. */
    bool ran = false;
    bool fromCheckpoint = false;
};

/** (rate index, seed index) -> cached entry; duplicates last-wins
 * (repeated resumes re-journal nothing, but stay safe anyway). */
using ResumeIndex =
    std::unordered_map<std::uint64_t, const core::CheckpointEntry*>;

ResumeIndex
buildResumeIndex(const std::vector<core::CheckpointEntry>* entries,
                 std::size_t num_rates, unsigned num_seeds)
{
    ResumeIndex index;
    if (entries == nullptr)
        return index;
    for (const core::CheckpointEntry& e : *entries) {
        if (e.rateIndex >= num_rates || e.seedIndex >= num_seeds)
            continue; // defensive; the fingerprint binds the grid
        index[(e.rateIndex << 32) | e.seedIndex] = &e;
    }
    return index;
}

/**
 * Cell (@p i, @p k) at @p rate: merged from the resume cache when it
 * holds one, else run by @p runner — whose failures come back as
 * entries, never as exceptions into the worker pool, which would
 * abort the whole sweep and discard every completed point. Fresh
 * deterministic outcomes are journaled.
 */
Cell
runCell(const core::PointRunner& runner, const SweepOptions& opts,
        const ResumeIndex& cached, double rate, std::size_t i,
        unsigned k)
{
    Cell cell;
    cell.ran = true;
    const auto hit =
        cached.find((static_cast<std::uint64_t>(i) << 32) | k);
    if (hit != cached.end()) {
        cell.run.entry = *hit->second;
        cell.fromCheckpoint = true;
        if (opts.progress != nullptr)
            opts.progress->noteCached();
        return cell;
    }
    core::ProgressScope scope(opts.progress, i, k);
    cell.run = runner.run(rate, i, k, opts.cancel,
                          opts.pointTimeoutSeconds, &scope);
    if (opts.journal != nullptr && core::journalable(cell.run.entry))
        opts.journal->append(cell.run.entry);
    // End after the journal append so a heartbeat's done count never
    // exceeds the journal's entry count.
    scope.end(cell.run.entry.failed);
    return cell;
}

SweepPoint
toPoint(Cell cell, double rate)
{
    core::CheckpointEntry& e = cell.run.entry;
    SweepPoint p;
    p.injectionRate = rate;
    p.report = std::move(e.report);
    if (e.failed) {
        p.failure = PointFailure{e.failureReason,
                                 std::move(e.failureMessage),
                                 std::move(e.failureForensics)};
    }
    p.attempts = e.attempts;
    p.ran = cell.ran;
    p.fromCheckpoint = cell.fromCheckpoint;
    p.metricsCsv = std::move(cell.run.metricsCsv);
    p.traceJson = std::move(cell.run.traceJson);
    p.resources = cell.run.resources;
    return p;
}

} // namespace

std::vector<SweepPoint>
Sweep::overRates(const NetworkConfig& network, const TrafficConfig& traffic,
                 const SimConfig& sim, const std::vector<double>& rates,
                 const SweepOptions& opts)
{
    const core::PointRunner runner(network, traffic, sim, opts.retry,
                                   opts.worker);
    // Index-addressed capture: worker i writes only slot i, so the
    // merged vector is independent of completion order. WorkerSlots
    // makes that contract a checked capability instead of a comment.
    const ResumeIndex cached =
        buildResumeIndex(opts.resume, rates.size(), 1);
    core::WorkerSlots<SweepPoint> points(rates.size());
    core::parallelFor(
        opts.jobs, rates.size(),
        [&](std::size_t i) {
            core::RoleGuard guard(points.role());
            points.slot(i) = toPoint(
                runCell(runner, opts, cached, rates[i], i, 0), rates[i]);
        },
        opts.cancel);
    std::vector<SweepPoint> out = std::move(points).take();
    // Cells the cancelled cursor never dispensed still carry their
    // rate (slots default-construct with ran == false).
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i].injectionRate = rates[i];
    return out;
}

std::vector<AveragedPoint>
Sweep::overRatesAveraged(const NetworkConfig& network,
                         const TrafficConfig& traffic,
                         const SimConfig& sim,
                         const std::vector<double>& rates,
                         unsigned num_seeds, const SweepOptions& opts)
{
    assert(num_seeds >= 1);

    const core::PointRunner runner(network, traffic, sim, opts.retry,
                                   opts.worker);
    // Fan out over the flattened (rate, seed) grid — finer-grained
    // than per-rate fan-out, so a few rates with many seeds still
    // saturate the pool.
    const ResumeIndex cached =
        buildResumeIndex(opts.resume, rates.size(), num_seeds);
    core::WorkerSlots<Cell> cells(rates.size() * num_seeds);
    core::parallelFor(
        opts.jobs, rates.size() * num_seeds,
        [&](std::size_t cell) {
            const std::size_t i = cell / num_seeds;
            const unsigned k = static_cast<unsigned>(cell % num_seeds);
            core::RoleGuard guard(cells.role());
            cells.slot(cell) =
                runCell(runner, opts, cached, rates[i], i, k);
        },
        opts.cancel);
    std::vector<Cell> grid = std::move(cells).take();

    // Deterministic merge: aggregate each rate's seeds in seed order,
    // on the calling thread, so the floating-point accumulation order
    // (hence the bits of every mean) is independent of opts.jobs.
    // Failed seeds are excluded from the aggregates; dividing by the
    // success count leaves the fault-free path bit-identical (success
    // count == num_seeds) while keeping partially failed points usable.
    std::vector<AveragedPoint> points;
    points.reserve(rates.size());
    for (std::size_t i = 0; i < rates.size(); ++i) {
        AveragedPoint avg;
        avg.injectionRate = rates[i];
        avg.seeds = num_seeds;
        avg.allCompleted = true;
        unsigned ok = 0;
        for (unsigned k = 0; k < num_seeds; ++k) {
            Cell& cell = grid[i * num_seeds + k];
            const core::CheckpointEntry& e = cell.run.entry;
            // Telemetry merges for every seed (empty for failed
            // seeds), keeping seed indexes aligned for per-seed
            // export directories.
            avg.metricsCsvBySeed.push_back(
                std::move(cell.run.metricsCsv));
            avg.traceJsonBySeed.push_back(
                std::move(cell.run.traceJson));
            avg.attemptsBySeed.push_back(cell.ran ? e.attempts : 0);
            const PointResources& rs = cell.run.resources;
            if (rs.valid) {
                avg.resources.valid = true;
                avg.resources.wallSeconds += rs.wallSeconds;
                avg.resources.cpuSeconds += rs.cpuSeconds;
                avg.resources.maxRssKb =
                    std::max(avg.resources.maxRssKb, rs.maxRssKb);
            }
            // A cell the cancelled sweep never dispensed is neither a
            // success nor a failure; it just hasn't run yet.
            if (!cell.ran) {
                avg.allCompleted = false;
                continue;
            }
            ++avg.ranSeeds;
            if (e.failed) {
                ++avg.failedSeeds;
                if (avg.firstFailure.empty())
                    avg.firstFailure = e.failureMessage;
                avg.allCompleted = false;
                continue;
            }
            const Report& r = e.report;
            avg.allCompleted = avg.allCompleted && r.completed;
            avg.meanLatency += r.avgLatencyCycles;
            avg.meanPowerWatts += r.networkPowerWatts;
            avg.meanThroughput += r.acceptedFlitsPerNodePerCycle;
            if (ok == 0) {
                avg.minLatency = r.avgLatencyCycles;
                avg.maxLatency = r.avgLatencyCycles;
            } else {
                avg.minLatency =
                    std::min(avg.minLatency, r.avgLatencyCycles);
                avg.maxLatency =
                    std::max(avg.maxLatency, r.avgLatencyCycles);
            }
            ++ok;
        }
        if (ok > 0) {
            avg.meanLatency /= ok;
            avg.meanPowerWatts /= ok;
            avg.meanThroughput /= ok;
        }
        points.push_back(avg);
    }
    return points;
}

double
Sweep::zeroLoadLatency(const NetworkConfig& network,
                       const TrafficConfig& traffic, const SimConfig& sim)
{
    TrafficConfig t = traffic;
    t.injectionRate = 0.002;
    SimConfig s = sim;
    s.samplePackets = std::min<std::uint64_t>(sim.samplePackets, 500);
    Simulation run(network, t, s);
    return run.run().avgLatencyCycles;
}

double
Sweep::saturationRate(const std::vector<SweepPoint>& points,
                      double zero_load_latency)
{
    assert(zero_load_latency > 0.0);
    for (const auto& p : points) {
        if (!p.report.completed ||
            p.report.avgLatencyCycles > 2.0 * zero_load_latency) {
            return p.injectionRate;
        }
    }
    return -1.0;
}

std::vector<double>
Sweep::linspace(double first, double last, unsigned count)
{
    assert(count >= 2 && last >= first);
    std::vector<double> v;
    v.reserve(count);
    for (unsigned i = 0; i < count; ++i) {
        v.push_back(first + (last - first) * i /
                    static_cast<double>(count - 1));
    }
    return v;
}

} // namespace orion
