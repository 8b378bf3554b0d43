/**
 * @file
 * Tests for the orion_served job engine (core::Server) over a real
 * ResultCache: memory stays bounded by live jobs plus kRetainedJobs,
 * retired ids answer "expired" while never-issued ids stay unknown,
 * and every cache hit returns the bytes a fresh run would, both at
 * grid index 0 (the stored line as it is) and at later indices.
 */

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/cache.hh"
#include "core/checkpoint.hh"
#include "core/cli.hh"
#include "core/server.hh"

namespace {

using namespace orion;

// ASan's quarantine keeps freed blocks resident, so there peak RSS
// grows with every free and says nothing about live memory.
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kRssTracksLiveMemory = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kRssTracksLiveMemory = false;
#else
constexpr bool kRssTracksLiveMemory = true;
#endif
#else
constexpr bool kRssTracksLiveMemory = true;
#endif

/** A small, fast vc16 point. */
const std::vector<std::string> kArgs = {
    "--preset", "vc16", "--sample", "200", "--max-cycles", "60000"};

core::JobSpec
makeSpec(const std::vector<std::string>& args,
         const std::vector<double>& rates)
{
    const cli::Options o = cli::parse(args);
    core::JobSpec spec;
    spec.network = o.network;
    spec.traffic = o.traffic;
    spec.sim = o.sim;
    spec.rates = rates;
    return spec;
}

bool
settled(core::JobState s)
{
    return s == core::JobState::Done || s == core::JobState::Failed ||
           s == core::JobState::Cancelled;
}

/** Submit @p spec and poll it until it settles. */
core::JobStatus
runToEnd(core::Server& server, const core::JobSpec& spec)
{
    std::string code;
    std::string message;
    const std::uint64_t id = server.submit(spec, code, message);
    EXPECT_NE(id, 0u) << code << ": " << message;
    core::JobStatus st;
    for (;;) {
        EXPECT_TRUE(server.status(id, st)) << "job " << id;
        if (settled(st.state))
            return st;
        std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
}

/** Peak resident set of this process (kB), from /proc/self/status. */
long
vmHwmKb()
{
    std::ifstream in("/proc/self/status");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtol(line.c_str() + 6, nullptr, 10);
    }
    return -1;
}

/** The result text's lines, without their newlines. */
std::vector<std::string>
lines(const std::string& text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    for (std::string l; std::getline(in, l);)
        out.push_back(l);
    return out;
}

/** A cache in a fresh temporary directory, removed afterwards. */
class ServerTest : public testing::Test
{
  protected:
    void SetUp() override
    {
        std::string dir = testing::TempDir() + "server_test.XXXXXX";
        ASSERT_NE(::mkdtemp(dir.data()), nullptr);
        dir_ = dir;
        core::CacheOptions opts;
        opts.dir = dir_ + "/cache";
        cache_ = std::make_unique<core::ResultCache>(opts);
    }

    void TearDown() override
    {
        cache_.reset();
        std::filesystem::remove_all(dir_);
    }

    core::ServerOptions options(std::size_t queue_max = 16) const
    {
        core::ServerOptions o;
        o.cache = cache_.get();
        o.queueMax = queue_max;
        return o;
    }

    std::string dir_;
    std::unique_ptr<core::ResultCache> cache_;
};

TEST_F(ServerTest, RetiresPastTheBoundAndServesResubmitsFromCache)
{
    core::Server server(options());
    const core::JobSpec spec = makeSpec(kArgs, {0.05});

    // Job 1 computes the point and fills the cache.
    const core::JobStatus first = runToEnd(server, spec);
    ASSERT_EQ(first.state, core::JobState::Done) << first.error;
    ASSERT_EQ(first.id, 1u);
    EXPECT_EQ(first.cacheHits, 0u);
    const std::vector<std::string> first_lines = lines(first.resultText);
    ASSERT_EQ(first_lines.size(), 1u);
    EXPECT_EQ(first_lines[0],
              core::serializeEntry(core::parseEntry(first_lines[0])));

    long hwm_at_2x = 0;
    for (std::size_t n = 1; n <= 8 * core::kRetainedJobs; ++n) {
        const core::JobStatus st = runToEnd(server, spec);
        ASSERT_EQ(st.state, core::JobState::Done) << st.error;
        ASSERT_EQ(st.cacheHits, 1u);
        // A hit at index 0 is the stored line, byte for byte.
        ASSERT_EQ(st.resultText, first.resultText) << "job " << st.id;
        const core::ServerStats s = server.stats();
        ASSERT_LE(s.jobsResident,
                  s.queueDepth + s.running + core::kRetainedJobs);
        if (n == 2 * core::kRetainedJobs)
            hwm_at_2x = vmHwmKb();
    }
    const long hwm_at_8x = vmHwmKb();
    ASSERT_GT(hwm_at_2x, 0);
    if (kRssTracksLiveMemory) {
        EXPECT_LT(hwm_at_8x - hwm_at_2x, 1024)
            << "peak RSS grew from " << hwm_at_2x << " to " << hwm_at_8x
            << " kB between 2x and 8x the retention bound";
    }
    EXPECT_EQ(server.stats().jobsResident, core::kRetainedJobs);

    // Job 1 was issued and retired; an id never issued is unknown.
    core::JobStatus st;
    EXPECT_FALSE(server.status(1, st));
    EXPECT_TRUE(server.retired(1));
    EXPECT_FALSE(server.cancelJob(1));
    const std::uint64_t never = std::uint64_t{1} << 40;
    EXPECT_FALSE(server.status(never, st));
    EXPECT_FALSE(server.retired(never));
    EXPECT_FALSE(server.retired(0));

    // A resubmit of the retired job is served from the cache.
    const core::JobStatus again = runToEnd(server, spec);
    ASSERT_EQ(again.state, core::JobState::Done) << again.error;
    EXPECT_EQ(again.cacheHits, 1u);
    EXPECT_EQ(again.resultText, first.resultText);
}

TEST_F(ServerTest, GridHitsAtLaterIndicesMatchFreshBytes)
{
    const core::JobSpec spec = makeSpec(kArgs, {0.05, 0.03, 0.04});

    // Reference: no cache at all, every point simulated.
    std::string reference;
    {
        core::ServerOptions plain;
        core::Server server(plain);
        const core::JobStatus st = runToEnd(server, spec);
        ASSERT_EQ(st.state, core::JobState::Done) << st.error;
        reference = st.resultText;
    }

    core::Server server(options());
    const core::JobStatus miss = runToEnd(server, spec);
    ASSERT_EQ(miss.state, core::JobState::Done) << miss.error;
    EXPECT_EQ(miss.cacheHits, 0u);
    const core::JobStatus hit = runToEnd(server, spec);
    ASSERT_EQ(hit.state, core::JobState::Done) << hit.error;
    EXPECT_EQ(hit.cacheHits, 3u);

    EXPECT_EQ(miss.resultText, reference);
    EXPECT_EQ(hit.resultText, reference);
    const std::vector<std::string> got = lines(hit.resultText);
    ASSERT_EQ(got.size(), 3u);
    for (std::size_t i = 0; i < got.size(); ++i) {
        const core::CheckpointEntry e = core::parseEntry(got[i]);
        EXPECT_EQ(e.rateIndex, i);
        EXPECT_EQ(e.seedIndex, 0u);
        EXPECT_EQ(got[i], core::serializeEntry(e)) << "index " << i;
    }
}

TEST_F(ServerTest, CancelledWhileQueuedJobsAreRetired)
{
    core::ServerOptions opts = options(core::kRetainedJobs + 64);
    opts.workers = 1;
    core::Server server(opts);
    const core::JobSpec hit = makeSpec(kArgs, {0.05});
    ASSERT_EQ(runToEnd(server, hit).state, core::JobState::Done);

    // A long miss pins the only worker so later jobs stay queued.
    const core::JobSpec blocker = makeSpec(
        {"--preset", "vc16", "--sample", "400000", "--max-cycles",
         "20000000"},
        {0.25});
    std::string code;
    std::string message;
    const std::uint64_t blocker_id =
        server.submit(blocker, code, message);
    ASSERT_NE(blocker_id, 0u) << code << ": " << message;
    core::JobStatus st;
    while (server.status(blocker_id, st) &&
           st.state == core::JobState::Queued)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(st.state, core::JobState::Running);

    std::vector<std::uint64_t> queued;
    for (std::size_t n = 0; n < core::kRetainedJobs + 32; ++n) {
        const std::uint64_t id = server.submit(hit, code, message);
        ASSERT_NE(id, 0u) << code << ": " << message;
        queued.push_back(id);
    }
    for (std::size_t n = 0; n < queued.size(); ++n) {
        ASSERT_TRUE(server.cancelJob(queued[n]));
        // Live: the blocker plus the jobs not cancelled yet.
        const std::size_t live = 1 + queued.size() - (n + 1);
        ASSERT_LE(server.stats().jobsResident,
                  live + core::kRetainedJobs);
    }
    EXPECT_EQ(server.stats().jobsResident, 1 + core::kRetainedJobs);
    // 1 + kRetainedJobs + 32 jobs have settled: job 1 and the first
    // 32 cancelled ones are past the bound.
    EXPECT_TRUE(server.retired(1));
    EXPECT_TRUE(server.retired(queued[31]));
    EXPECT_FALSE(server.status(queued[31], st));
    ASSERT_TRUE(server.status(queued[32], st));
    EXPECT_EQ(st.state, core::JobState::Cancelled);
    EXPECT_TRUE(server.status(blocker_id, st));

    // Jobs still queued at drain are cancelled and retired the same
    // way; the cancelled blocker settles last.
    for (int n = 0; n < 8; ++n)
        ASSERT_NE(server.submit(hit, code, message), 0u);
    ASSERT_TRUE(server.cancelJob(blocker_id));
    server.drain();
    const core::ServerStats s = server.stats();
    EXPECT_EQ(s.running, 0u);
    EXPECT_EQ(s.jobsResident, core::kRetainedJobs);
    EXPECT_TRUE(server.retired(queued[38]));
    ASSERT_TRUE(server.status(blocker_id, st));
    EXPECT_EQ(st.state, core::JobState::Cancelled);
}

} // namespace
