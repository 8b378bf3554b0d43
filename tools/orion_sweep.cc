/**
 * @file
 * orion_sweep — injection-rate sweep driver.
 *
 * Runs the same configuration across a range of injection rates and
 * emits one CSV row per point (the series behind latency/power vs.
 * load figures), plus the measured zero-load latency and the paper's
 * 2x-zero-load saturation point. Accepts every orion_sim option plus
 * the sweep options (rate grid, seeds, per-point telemetry
 * directories, checkpoint/resume journals, --isolate workers,
 * heartbeat); `orion_sweep --help` lists them (cli::kSweepFlags).
 *
 * Exit codes: 0 ok; 1 usage error or unexpected exception; 3 one or
 * more points failed (rows for healthy points still printed); 5
 * interrupted by SIGINT/SIGTERM (no CSV; a resume hint is printed
 * when journaling). See docs/ROBUSTNESS.md.
 *
 * Example:
 *   orion_sweep --preset vc64 --rates 0.02:0.18:9 --seeds 3 > vc64.csv
 */

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cancel.hh"
#include "core/checkpoint.hh"
#include "core/cli.hh"
#include "core/log.hh"
#include "core/manifest.hh"
#include "core/progress.hh"
#include "core/report.hh"
#include "core/sweep.hh"

using namespace orion;

namespace {

namespace log = core::log;

/** CSV cell for an optional resource value ("" when unmeasured). */
std::string
resourceCell(bool valid, double seconds)
{
    return valid ? report::fmt(seconds, 3) : std::string{};
}

/** DIR/point_NNN.EXT for sweep point @p i. */
std::string
pointPath(const std::string& dir, std::size_t i, const char* ext)
{
    char name[32];
    std::snprintf(name, sizeof name, "point_%03zu.%s", i, ext);
    return (std::filesystem::path(dir) / name).string();
}

/** DIR/seed_K for seed @p k of a multi-seed sweep. */
std::string
seedDir(const std::string& dir, unsigned k)
{
    char name[24];
    std::snprintf(name, sizeof name, "seed_%u", k);
    return (std::filesystem::path(dir) / name).string();
}

} // namespace

int
main(int argc, char** argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    try {
        const cli::SweepArgs sa = cli::parseSweep(args);
        const cli::Options& opts = sa.sim;
        if (opts.helpRequested) {
            std::fputs(("usage: orion_sweep [options]\n" +
                        core::flags::help(cli::kSimFlags) +
                        core::flags::help(cli::kSweepFlags))
                           .c_str(),
                       stdout);
            return 0;
        }
        const auto usageError = [](const char* what) {
            log::diag(log::Level::Error, "sweep.usage",
                      log::strf("orion_sweep: %s\n", what));
            return 1;
        };
        if (!sa.checkpointPath.empty() && !sa.resumePath.empty()) {
            return usageError("--checkpoint and --resume are mutually "
                              "exclusive (--resume keeps appending to "
                              "its journal)");
        }
        const bool journaling =
            !sa.checkpointPath.empty() || !sa.resumePath.empty();
        if (journaling && (!sa.metricsDir.empty() || !sa.traceDir.empty())) {
            return usageError("--checkpoint/--resume cannot be combined "
                              "with --metrics-dir/--trace-dir (telemetry "
                              "exports are not journaled)");
        }
        if (sa.isolate && sa.seeds > 1)
            return usageError("--isolate supports --seeds 1 only");
        if (sa.isolate && (!sa.metricsDir.empty() || !sa.traceDir.empty())) {
            return usageError("--isolate cannot be combined with "
                              "--metrics-dir/--trace-dir");
        }
        if (!sa.isolate && (!sa.isolateExe.empty() || sa.isolateMemMb != 0 ||
                         sa.isolateCpuSeconds != 0)) {
            return usageError("--isolate-exe/--isolate-mem/--isolate-cpu "
                              "require --isolate");
        }
        log::configureCli(opts.logOut, opts.logLevel);

        // One Ctrl-C/SIGTERM stops every in-flight point
        // cooperatively; a second one kills the process the
        // old-fashioned way (the handler stays installed but the
        // token is already cancelled).
        std::signal(SIGPIPE, SIG_IGN);
        core::installInterruptHandlers();

        const double zero_load = Sweep::zeroLoadLatency(
            opts.network, opts.traffic, opts.sim);

        // Per-point telemetry export: the dir options imply the same
        // telemetry defaults --metrics-out/--trace-out do in
        // orion_sim. Telemetry stays off in parallel sweeps unless
        // explicitly requested here.
        SimConfig sim_cfg = opts.sim;
        if (!sa.metricsDir.empty()) {
            if (sim_cfg.telemetry.sampleInterval == 0)
                sim_cfg.telemetry.sampleInterval = 1000;
            std::filesystem::create_directories(sa.metricsDir);
        }
        if (!sa.traceDir.empty()) {
            sim_cfg.telemetry.traceEnabled = true;
            std::filesystem::create_directories(sa.traceDir);
        }

        // Checkpoint plumbing: the fingerprint binds the journal to
        // this exact configuration and grid; a mismatched --resume is
        // a structured error, never a silent mix of results.
        const std::uint64_t fingerprint = core::sweepFingerprint(
            opts.network, opts.traffic, sim_cfg, sa.rates, sa.seeds);
        std::vector<core::CheckpointEntry> resume_entries;
        std::unique_ptr<core::CheckpointJournal> journal;
        if (!sa.resumePath.empty()) {
            core::CheckpointLoad load =
                core::loadCheckpoint(sa.resumePath, fingerprint);
            resume_entries = std::move(load.entries);
            if (load.truncatedTail) {
                log::diag(log::Level::Warn, "sweep.torn_journal",
                          "orion_sweep: note: dropped a torn "
                          "final journal line (crash artifact); "
                          "that cell reruns\n");
            }
            log::diag(log::Level::Info, "sweep.resume",
                      log::strf("orion_sweep: resuming: %zu cells "
                                "cached in '%s'\n",
                                resume_entries.size(),
                                sa.resumePath.c_str()),
                      {log::u64("cached", resume_entries.size()),
                       log::str("journal", sa.resumePath)});
            journal = std::make_unique<core::CheckpointJournal>(
                sa.resumePath, fingerprint, /*resume=*/true);
        } else if (!sa.checkpointPath.empty()) {
            journal = std::make_unique<core::CheckpointJournal>(
                sa.checkpointPath, fingerprint, /*resume=*/false);
        }
        const std::string journal_path =
            !sa.resumePath.empty() ? sa.resumePath : sa.checkpointPath;

        // Run manifest: explicit --manifest-out, or automatically
        // beside a checkpoint journal so long runs self-describe.
        std::string manifest_path = opts.manifestOut;
        if (manifest_path.empty() && !journal_path.empty())
            manifest_path = journal_path + ".manifest.json";
        core::RunManifest manifest =
            core::RunManifest::begin("orion_sweep");
        manifest.fingerprintHex = core::hex16(fingerprint);
        manifest.seed = sim_cfg.seed;
        manifest.seeds = sa.seeds;
        manifest.ratePoints = sa.rates.size();
        manifest.pointsTotal =
            static_cast<std::uint64_t>(sa.rates.size()) * sa.seeds;
        const auto writeManifest = [&](const char* reason) {
            if (manifest_path.empty())
                return;
            manifest.finish(reason);
            try {
                core::writeFileAtomic(manifest_path,
                                      manifest.toJson());
            } catch (const std::exception& e) {
                log::diag(log::Level::Warn, "sweep.manifest_failed",
                          log::strf("orion_sweep: cannot write "
                                    "manifest '%s': %s\n",
                                    manifest_path.c_str(), e.what()));
            }
        };

        // Live progress: heartbeat file and/or TTY progress line.
        std::unique_ptr<core::ProgressTracker> tracker;
        if (!sa.heartbeatPath.empty() || sa.progressLine) {
            core::ProgressTracker::Options po;
            po.heartbeatPath = sa.heartbeatPath;
            po.heartbeatIntervalSeconds = sa.heartbeatIntervalSeconds;
            po.progressLine = sa.progressLine;
            po.totalCells =
                static_cast<std::uint64_t>(sa.rates.size()) * sa.seeds;
            po.jobs = opts.jobs != 0
                          ? opts.jobs
                          : std::max(
                                1u,
                                std::thread::hardware_concurrency());
            tracker = std::make_unique<core::ProgressTracker>(po);
        }
        log::event(log::Level::Info, "sweep.start",
                   {log::str("fingerprint", manifest.fingerprintHex),
                    log::u64("rate_points", sa.rates.size()),
                    log::u64("seeds", sa.seeds),
                    log::u64("cells", manifest.pointsTotal),
                    log::boolean("isolate", sa.isolate),
                    log::u64("cached", resume_entries.size())});

        SweepOptions sweep_opts;
        sweep_opts.jobs = opts.jobs;
        sweep_opts.retry =
            RetryPolicy{opts.pointRetries, opts.pointBackoffMs};
        sweep_opts.pointTimeoutSeconds = opts.pointTimeoutSeconds;
        sweep_opts.cancel = &core::interruptToken();
        sweep_opts.journal = journal.get();
        sweep_opts.resume =
            sa.resumePath.empty() ? nullptr : &resume_entries;
        sweep_opts.progress = tracker.get();
        if (sa.isolate) {
            core::WorkerCommand worker{sa.isolateExe, sa.simArgs,
                                       sa.isolateMemMb,
                                       sa.isolateCpuSeconds};
            // Default worker: the orion_sim built next to this binary.
            if (worker.exe.empty()) {
                worker.exe = (std::filesystem::path(argv[0]).parent_path() /
                              "orion_sim")
                                 .string();
            }
            sweep_opts.worker = std::move(worker);
        }

        // After any sweep: an interrupt means no CSV (a partial
        // table masquerading as a full sweep is worse than none) —
        // print the resume recipe instead and exit 5.
        const auto interruptedEpilogue = [&]() -> int {
            writeManifest("interrupted");
            log::diag(log::Level::Warn, "sweep.interrupted",
                      log::strf("orion_sweep: interrupted (signal %d) "
                                "mid-sweep; no CSV emitted\n",
                                core::interruptSignal()));
            if (!journal_path.empty()) {
                log::diag(
                    log::Level::Info, "sweep.resume_hint",
                    log::strf("orion_sweep: finished cells are "
                              "journaled; rerun with --resume '%s' "
                              "(instead of --checkpoint) to pick up "
                              "where this run stopped\n",
                              journal_path.c_str()));
            } else {
                log::diag(log::Level::Info, "sweep.resume_hint",
                          "orion_sweep: no --checkpoint journal, "
                          "so finished cells were discarded\n");
            }
            return 5;
        };

        if (sa.seeds > 1) {
            const auto points = Sweep::overRatesAveraged(
                opts.network, opts.traffic, sim_cfg, sa.rates, sa.seeds,
                sweep_opts);
            if (tracker)
                tracker->finalize();
            manifest.pointsFromCheckpoint =
                tracker ? tracker->fromCheckpoint()
                        : resume_entries.size();
            for (const auto& p : points) {
                manifest.pointsCompleted += p.ranSeeds - p.failedSeeds;
                manifest.pointsFailed += p.failedSeeds;
            }
            if (core::interruptToken().cancelled())
                return interruptedEpilogue();

            // Multi-seed telemetry lands in per-seed subdirectories:
            // DIR/seed_K/point_NNN.{csv,json} (failed seeds captured
            // nothing and are skipped).
            for (unsigned k = 0; k < sa.seeds; ++k) {
                if (!sa.metricsDir.empty())
                    std::filesystem::create_directories(
                        seedDir(sa.metricsDir, k));
                if (!sa.traceDir.empty())
                    std::filesystem::create_directories(
                        seedDir(sa.traceDir, k));
            }
            for (std::size_t i = 0; i < points.size(); ++i) {
                const auto& p = points[i];
                for (unsigned k = 0; k < sa.seeds; ++k) {
                    if (!sa.metricsDir.empty() &&
                        !p.metricsCsvBySeed[k].empty()) {
                        core::writeFileAtomic(
                            pointPath(seedDir(sa.metricsDir, k), i, "csv"),
                            p.metricsCsvBySeed[k]);
                    }
                    if (!sa.traceDir.empty() &&
                        !p.traceJsonBySeed[k].empty()) {
                        core::writeFileAtomic(
                            pointPath(seedDir(sa.traceDir, k), i, "json"),
                            p.traceJsonBySeed[k]);
                    }
                }
            }
            report::Table t;
            t.headers = {"rate",        "completed",   "latency_mean",
                         "latency_min", "latency_max", "throughput",
                         "power_w",     "failed_seeds", "attempts"};
            if (sa.resources) {
                t.headers.insert(t.headers.end(),
                                 {"wall_s", "cpu_s", "maxrss_kb"});
            }
            unsigned failed = 0;
            for (const auto& p : points) {
                failed += p.failedSeeds;
                unsigned attempts = 0;
                for (unsigned a : p.attemptsBySeed)
                    attempts += a;
                std::vector<std::string> row{
                    report::fmt(p.injectionRate, 4),
                    p.allCompleted ? "1" : "0",
                    report::fmt(p.meanLatency, 3),
                    report::fmt(p.minLatency, 3),
                    report::fmt(p.maxLatency, 3),
                    report::fmt(p.meanThroughput, 4),
                    report::fmt(p.meanPowerWatts, 4),
                    std::to_string(p.failedSeeds),
                    std::to_string(attempts),
                };
                if (sa.resources) {
                    const PointResources& rs = p.resources;
                    row.push_back(
                        resourceCell(rs.valid, rs.wallSeconds));
                    row.push_back(
                        resourceCell(rs.valid, rs.cpuSeconds));
                    row.push_back(rs.valid
                                      ? std::to_string(rs.maxRssKb)
                                      : std::string{});
                }
                t.addRow(std::move(row));
            }
            writeManifest(failed > 0 ? "failed-points" : "ok");
            std::fputs(report::formatCsv(t).c_str(), stdout);
            log::diag(log::Level::Info, "sweep.done",
                      log::strf("# zero-load latency: %.2f cycles; "
                                "%u seeds per point\n",
                                zero_load, sa.seeds),
                      {log::u64("failed_seeds", failed)});
            if (failed > 0) {
                for (const auto& p : points) {
                    if (p.failedSeeds == 0)
                        continue;
                    log::diag(
                        log::Level::Error, "sweep.point_failed",
                        log::strf("orion_sweep: rate %.4f: %u of %u "
                                  "seeds failed: %s\n",
                                  p.injectionRate, p.failedSeeds,
                                  p.seeds, p.firstFailure.c_str()));
                }
                return 3;
            }
            return 0;
        }

        const std::vector<SweepPoint> points = Sweep::overRates(
            opts.network, opts.traffic, sim_cfg, sa.rates, sweep_opts);
        if (tracker)
            tracker->finalize();
        manifest.pointsFromCheckpoint =
            tracker ? tracker->fromCheckpoint() : resume_entries.size();
        for (const auto& p : points) {
            if (!p.ran)
                continue;
            if (p.failure)
                ++manifest.pointsFailed;
            else
                ++manifest.pointsCompleted;
        }
        if (core::interruptToken().cancelled())
            return interruptedEpilogue();

        for (std::size_t i = 0; i < points.size(); ++i) {
            if (!sa.metricsDir.empty())
                core::writeFileAtomic(pointPath(sa.metricsDir, i, "csv"),
                                      points[i].metricsCsv);
            if (!sa.traceDir.empty())
                core::writeFileAtomic(pointPath(sa.traceDir, i, "json"),
                                      points[i].traceJson);
        }

        report::Table t;
        t.headers = {"rate",    "completed", "latency", "p95",
                     "throughput", "power_w", "buffer_w", "crossbar_w",
                     "arbiter_w",  "link_w",  "status",   "attempts"};
        if (sa.resources) {
            t.headers.insert(t.headers.end(),
                             {"wall_s", "cpu_s", "maxrss_kb"});
        }
        for (const auto& p : points) {
            const Report& r = p.report;
            std::vector<std::string> row{
                report::fmt(p.injectionRate, 4),
                r.completed ? "1" : "0",
                report::fmt(r.avgLatencyCycles, 3),
                report::fmt(r.p95LatencyCycles, 0),
                report::fmt(r.acceptedFlitsPerNodePerCycle, 4),
                report::fmt(r.networkPowerWatts, 4),
                report::fmt(r.breakdownWatts.buffer, 4),
                report::fmt(r.breakdownWatts.crossbar, 4),
                report::fmt(r.breakdownWatts.arbiter, 5),
                report::fmt(r.breakdownWatts.link, 4),
                stopReasonName(r.stopReason),
                std::to_string(p.attempts),
            };
            if (sa.resources) {
                const PointResources& rs = p.resources;
                row.push_back(resourceCell(rs.valid, rs.wallSeconds));
                row.push_back(resourceCell(rs.valid, rs.cpuSeconds));
                row.push_back(rs.valid ? std::to_string(rs.maxRssKb)
                                       : std::string{});
            }
            t.addRow(std::move(row));
        }
        bool any_failed = false;
        for (const auto& p : points)
            any_failed = any_failed || p.failure.has_value();
        writeManifest(any_failed ? "failed-points" : "ok");
        std::fputs(report::formatCsv(t).c_str(), stdout);

        const double sat = Sweep::saturationRate(points, zero_load);
        log::diag(log::Level::Info, "sweep.done",
                  log::strf("# zero-load latency: %.2f cycles; "
                            "saturation (2x zero-load): %s\n",
                            zero_load,
                            sat < 0 ? "beyond swept range"
                                    : report::fmt(sat, 3).c_str()),
                  {log::num("zero_load_cycles", zero_load),
                   log::num("saturation_rate", sat)});

        // Failure isolation: every healthy point above still printed;
        // failed points carry their diagnosis (and forensics on
        // stderr) and flip the exit code.
        for (const auto& p : points) {
            if (!p.failure)
                continue;
            log::diag(log::Level::Error, "sweep.point_failed",
                      log::strf("orion_sweep: rate %.4f failed (%s): "
                                "%s\n",
                                p.injectionRate,
                                stopReasonName(p.failure->reason),
                                p.failure->message.c_str()),
                      {log::num("rate", p.injectionRate),
                       log::str("reason",
                                stopReasonName(p.failure->reason))});
            if (!p.failure->forensicsJson.empty())
                log::rawStderr(p.failure->forensicsJson);
        }
        return any_failed ? 3 : 0;
    } catch (const std::exception& e) {
        log::diag(log::Level::Error, "sweep.error",
                  log::strf("%s\n", e.what()));
        return 1;
    }
}
