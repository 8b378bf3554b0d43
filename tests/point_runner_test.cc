/**
 * @file
 * Tests for core::PointRunner, the one attempt loop behind sweeps,
 * `orion_sweep --isolate` and the orion_served job engine: the
 * in-process and isolated backends must return byte-identical
 * entries, retries must behave the same in both, and every driver
 * must see the same bytes for the same point.
 *
 * The isolated cases exec the real orion_sim (ORION_SIM_EXE, set by
 * the build).
 */

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.hh"
#include "core/cli.hh"
#include "core/point_runner.hh"
#include "core/server.hh"
#include "core/sweep.hh"

namespace {

using namespace orion;

/** A small, fast vc16 point: both backends parse these flags. */
const std::vector<std::string> kArgs = {
    "--preset", "vc16", "--sample", "200", "--max-cycles", "60000"};

std::vector<std::string>
withArgs(std::vector<std::string> extra)
{
    std::vector<std::string> args = kArgs;
    args.insert(args.end(), extra.begin(), extra.end());
    return args;
}

core::WorkerCommand
worker(const std::vector<std::string>& args)
{
    return core::WorkerCommand{ORION_SIM_EXE, args, 0, 0};
}

/** Run the point at @p rate at (0, 0) with @p args, in process or in
 * an orion_sim worker. */
core::PointRun
runPoint(const std::vector<std::string>& args, double rate,
         bool isolated, bool transient_poison = false)
{
    cli::Options o = cli::parse(args);
    o.sim.debugPoisonTransient = transient_poison;
    std::optional<core::WorkerCommand> w;
    if (isolated)
        w = worker(args);
    const core::PointRunner runner(o.network, o.traffic, o.sim,
                                   RetryPolicy{}, w);
    return runner.run(rate, 0, 0, nullptr, 0.0);
}

/** The result bytes an orion_served job returns for @p rate. */
std::string
serverResult(const std::vector<std::string>& args, double rate,
             bool isolated)
{
    const cli::Options o = cli::parse(args);
    core::ServerOptions sopts;
    if (isolated)
        sopts.worker = worker({});
    core::Server server(sopts);
    core::JobSpec spec;
    spec.network = o.network;
    spec.traffic = o.traffic;
    spec.sim = o.sim;
    spec.rates = {rate};
    spec.argv = args;
    std::string code;
    std::string message;
    const std::uint64_t id = server.submit(spec, code, message);
    EXPECT_NE(id, 0u) << code << ": " << message;
    core::JobStatus st;
    for (int i = 0; i < 6000; ++i) {
        server.status(id, st);
        if (st.state == core::JobState::Done ||
            st.state == core::JobState::Failed)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(st.state, core::JobState::Done) << st.error;
    return st.resultText;
}

TEST(PointRunner, CleanPointIsByteIdenticalAcrossBackends)
{
    const core::PointRun in = runPoint(kArgs, 0.05, false);
    const core::PointRun iso = runPoint(kArgs, 0.05, true);
    EXPECT_FALSE(in.entry.failed);
    EXPECT_TRUE(in.entry.report.completed);
    EXPECT_EQ(in.entry.attempts, 1u);
    EXPECT_EQ(core::serializeEntry(in.entry),
              core::serializeEntry(iso.entry));
    // A healthy isolated entry records no worker exit.
    EXPECT_TRUE(iso.entry.workerExit.empty());
    EXPECT_TRUE(in.resources.valid);
    EXPECT_TRUE(iso.resources.valid);
    EXPECT_GT(iso.resources.maxRssKb, 0);
}

TEST(PointRunner, TransientPoisonRetriesOnceInBothBackends)
{
    const std::vector<std::string> args =
        withArgs({"--debug-poison-rate", "0.04"});
    const core::PointRun in = runPoint(args, 0.04, false, true);
    const core::PointRun iso = runPoint(args, 0.04, true, true);
    EXPECT_FALSE(in.entry.failed) << in.entry.failureMessage;
    EXPECT_EQ(in.entry.attempts, 2u);
    EXPECT_EQ(iso.entry.attempts, 2u);
    EXPECT_EQ(core::serializeEntry(in.entry),
              core::serializeEntry(iso.entry));
}

TEST(PointRunner, PersistentPoisonFailsIdenticallyInBothBackends)
{
    const std::vector<std::string> args =
        withArgs({"--debug-poison-rate", "0.04"});
    const core::PointRun in = runPoint(args, 0.04, false);
    const core::PointRun iso = runPoint(args, 0.04, true);
    EXPECT_TRUE(in.entry.failed);
    EXPECT_EQ(in.entry.failureReason, StopReason::CheckFailure);
    EXPECT_EQ(in.entry.attempts, 2u);
    EXPECT_EQ(core::serializeEntry(in.entry),
              core::serializeEntry(iso.entry));
}

TEST(PointRunner, CrashingWorkerIsAStructuredFailure)
{
    const std::vector<std::string> args =
        withArgs({"--debug-segv-rate", "0.04"});
    const core::PointRun iso = runPoint(args, 0.04, true);
    EXPECT_TRUE(iso.entry.failed);
    EXPECT_EQ(iso.entry.failureReason, StopReason::WorkerCrash);
    EXPECT_EQ(iso.entry.report.stopReason, StopReason::WorkerCrash);
    EXPECT_EQ(iso.entry.attempts, RetryPolicy{}.maxAttempts);
    EXPECT_EQ(iso.entry.workerExit, "signal 11");
    EXPECT_NE(core::serializeEntry(iso.entry).find("|wx=signal 11"),
              std::string::npos);
}

TEST(PointRunner, SweepAndServerReturnTheSameEntryBytes)
{
    const cli::Options o = cli::parse(kArgs);
    const std::string journal_path =
        ::testing::TempDir() + "point_runner_test.journal";
    const std::uint64_t fp = core::sweepFingerprint(
        o.network, o.traffic, o.sim, {0.05}, 1);
    {
        core::CheckpointJournal journal(journal_path, fp, false);
        SweepOptions opts;
        opts.journal = &journal;
        const auto points = Sweep::overRates(o.network, o.traffic,
                                             o.sim, {0.05}, opts);
        ASSERT_EQ(points.size(), 1u);
        EXPECT_FALSE(points[0].failure.has_value());
    }
    const core::CheckpointLoad load =
        core::loadCheckpoint(journal_path, fp);
    std::remove(journal_path.c_str());
    ASSERT_EQ(load.entries.size(), 1u);
    const std::string swept = core::serializeEntry(load.entries[0]) + "\n";

    EXPECT_EQ(serverResult(kArgs, 0.05, false), swept);
    EXPECT_EQ(serverResult(kArgs, 0.05, true), swept);
}

/** Names under @p dir (no "." or ".."). */
std::vector<std::string>
listDir(const std::string& dir)
{
    std::vector<std::string> names;
    for (const auto& e : std::filesystem::directory_iterator(dir))
        names.push_back(e.path().filename().string());
    return names;
}

TEST(PointRunner, ScratchDirectoryFollowsTmpdir)
{
    std::string base = ::testing::TempDir() + "point_runner_tmpdir.XXXXXX";
    ASSERT_NE(::mkdtemp(base.data()), nullptr);
    const char* old = std::getenv("TMPDIR");
    const std::string saved = old != nullptr ? old : "";
    ::setenv("TMPDIR", base.c_str(), 1);

    const cli::Options o = cli::parse(kArgs);
    std::vector<std::string> during;
    core::PointRun run;
    {
        const core::PointRunner runner(o.network, o.traffic, o.sim,
                                       RetryPolicy{}, worker(kArgs));
        during = listDir(base);
        run = runner.run(0.05, 0, 0, nullptr, 0.0);
    }
    const std::vector<std::string> after = listDir(base);
    if (old != nullptr)
        ::setenv("TMPDIR", saved.c_str(), 1);
    else
        ::unsetenv("TMPDIR");
    std::filesystem::remove_all(base);

    ASSERT_EQ(during.size(), 1u);
    EXPECT_EQ(during[0].rfind("orion_worker.", 0), 0u) << during[0];
    EXPECT_TRUE(after.empty()) << "scratch directory left behind";
    EXPECT_FALSE(run.entry.failed) << run.entry.failureMessage;
    EXPECT_TRUE(run.entry.report.completed);
}

TEST(PointRunner, WorkerArgsDropEveryPerRunOutput)
{
    const std::vector<std::string> args = {
        "--preset",        "vc16",    "--report-out",  "r.entry",
        "--metrics-out",   "m.csv",   "--trace-out",   "t.json",
        "--manifest-out",  "m.json",  "--log-out",     "l.jsonl",
        "--log-level",     "debug",   "--profile-phases",
        "--point-timeout", "3",       "--rate",        "0.1"};
    EXPECT_EQ(core::workerArgs(args),
              (std::vector<std::string>{"--preset", "vc16", "--rate",
                                        "0.1"}));
}

} // namespace
