/**
 * @file
 * Tests for the option tables of every tool (core/flags.hh): each
 * numeric row obeys the one number rule and error shape, --help lists
 * each row once, the row classes agree with the config fingerprint
 * and the worker argv, and every pinned command line still resolves
 * to the fingerprint in fingerprints.txt (which keys --resume
 * journals and the orion_served cache).
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iomanip>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/check.hh"
#include "core/checkpoint.hh"
#include "core/cli.hh"
#include "core/model_cli.hh"
#include "core/point_runner.hh"

namespace {

using namespace orion;
using core::flags::Class;
using core::flags::Kind;
using core::flags::Type;

using Args = std::vector<std::string>;

const std::string kTraceA = std::string(ORION_TEST_DIR) +
                            "/fingerprint_trace.txt";

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** The fingerprint orion_sim records for @p args. */
std::string
fingerprint(const Args& args)
{
    const cli::Options o = cli::parse(args);
    return hex(core::sweepFingerprint(o.network, o.traffic, o.sim,
                                      {o.traffic.injectionRate}, 1));
}

/** Values outside @p t's range, or too large for its storage. */
std::vector<std::string>
outOfRange(const Type& t)
{
    std::vector<std::string> out;
    const auto text = [](double v) {
        std::ostringstream s;
        s << std::setprecision(17) << v;
        return s.str();
    };
    if (t.kind == Kind::Unsigned ? t.lo > 0 : t.lo > -core::flags::kInf)
        out.push_back(text(t.openLo ? t.lo : t.lo - 1));
    if (t.hi < core::flags::kInf)
        out.push_back(text(t.hi + 1));
    if (t.kind == Kind::Double)
        out.push_back("1e999");
    else if (t.limit < std::numeric_limits<std::uint64_t>::max())
        out.push_back(std::to_string(t.limit + 1));
    else
        out.push_back("18446744073709551616");
    return out;
}

/**
 * Every numeric row of @p rows must refuse -1 (unsigned rows), 2x, an
 * empty value and out-of-range values, each in the one message shape
 * naming @p tool and the flag. @p run parses one command line.
 */
template <class T>
void
expectNumberRule(const std::string& tool, core::flags::Table<T> rows,
                 const std::function<void(const Args&)>& run)
{
    for (const core::flags::Row<T>& r : rows) {
        if (r.type.kind != Kind::Unsigned && r.type.kind != Kind::Double)
            continue;
        const std::string flag(r.flag);
        std::vector<std::string> bad = {"2x", ""};
        if (r.type.kind == Kind::Unsigned)
            bad.push_back("-1");
        for (const std::string& v : outOfRange(r.type))
            bad.push_back(v);
        for (const std::string& v : bad) {
            try {
                run({flag, v});
                ADD_FAILURE() << tool << " " << flag << " '" << v
                              << "' was accepted";
            } catch (const std::invalid_argument& e) {
                const std::string msg = e.what();
                const std::string suffix = " (--help for usage)";
                EXPECT_EQ(msg.rfind(tool + ": " + flag + ": ", 0), 0u)
                    << msg;
                EXPECT_TRUE(msg.size() > suffix.size() &&
                            msg.compare(msg.size() - suffix.size(),
                                        suffix.size(), suffix) == 0)
                    << msg;
            }
        }
    }
}

TEST(NumberRule, EveryNumericRowOfEveryToolRefusesBadValues)
{
    expectNumberRule<cli::Options>(
        "orion_sim", cli::kSimFlags,
        [](const Args& a) { cli::parse(a); });
    expectNumberRule<cli::Options>(
        "orion_sweep", cli::kSimFlags,
        [](const Args& a) { cli::parseSweep(a); });
    expectNumberRule<cli::SweepArgs>(
        "orion_sweep", cli::kSweepFlags,
        [](const Args& a) { cli::parseSweep(a); });
    expectNumberRule<cli::DaemonArgs>(
        "orion_served", cli::kDaemonFlags,
        [](const Args& a) { cli::parseDaemon(a); });
    expectNumberRule<cli::SubmitArgs>(
        "orion_submit", cli::kSubmitFlags,
        [](const Args& a) { cli::parseSubmit(a); });
    for (const cli::ModelComponent& c : cli::kModelComponents) {
        const std::string name(c.name);
        const auto query = [&name](const Args& a) {
            Args q{name};
            q.insert(q.end(), a.begin(), a.end());
            cli::runModelQuery(q);
        };
        expectNumberRule<cli::ModelQuery>("orion_models", c.rows, query);
        expectNumberRule<cli::ModelQuery>("orion_models",
                                          cli::kModelCommonFlags, query);
    }
}

TEST(NumberRule, OrionSimMessagesKeepTheirWording)
{
    const auto message = [](const Args& a) -> std::string {
        try {
            cli::parse(a);
        } catch (const std::invalid_argument& e) {
            return e.what();
        }
        return "accepted";
    };
    EXPECT_EQ(message({"--sample", "-3"}),
              "orion_sim: --sample: must be non-negative: '-3' (--help "
              "for usage)");
    EXPECT_EQ(message({"--rate", "fast"}),
              "orion_sim: --rate: not a number: 'fast' (--help for "
              "usage)");
    EXPECT_EQ(message({"--jobs", "0"}),
              "orion_sim: --jobs: must be >= 1 (--help for usage)");
    EXPECT_EQ(message({"--retry-limit", "50"}),
              "orion_sim: --retry-limit: must be <= 32 (--help for "
              "usage)");
    EXPECT_EQ(message({"--point-retries", "0"}),
              "orion_sim: --point-retries: must be in [1, 32] (--help "
              "for usage)");
    EXPECT_EQ(message({"--link-ber", "1.5"}),
              "orion_sim: --link-ber: must be in [0, 1] (--help for "
              "usage)");
    EXPECT_EQ(message({"--point-timeout", "0"}),
              "orion_sim: --point-timeout: must be > 0 seconds (--help "
              "for usage)");
    EXPECT_EQ(message({"--dims", "4xx4"}),
              "orion_sim: --dims: malformed '4xx4' (--help for usage)");
    EXPECT_EQ(message({"--preset", "nope"}),
              "orion_sim: --preset: unknown preset 'nope' (--help for "
              "usage)");
    EXPECT_EQ(message({"--log-level", "off"}),
              "orion_sim: --log-level: wants debug|info|warn|error: "
              "'off' (--help for usage)");
    EXPECT_EQ(message({"--vcs"}),
              "orion_sim: --vcs: missing value (--help for usage)");
    EXPECT_EQ(message({"--bogus"}),
              "orion_sim: unknown option '--bogus' (--help for usage)");
}

/** Count the help lines that list @p flag. */
std::size_t
listings(const std::string& help, std::string_view flag)
{
    std::size_t n = 0;
    std::istringstream in(help);
    for (std::string line; std::getline(in, line);) {
        std::istringstream words(line);
        std::string first;
        words >> first;
        if (first == flag && line.rfind("  ", 0) == 0)
            ++n;
    }
    return n;
}

template <class T>
void
expectListedOnce(core::flags::Table<T> rows)
{
    const std::string listing = core::flags::help(rows);
    for (const core::flags::Row<T>& r : rows)
        EXPECT_EQ(listings(listing, r.flag), 1u) << r.flag;
}

TEST(Help, ListsEveryRowOnce)
{
    expectListedOnce(cli::kSimFlags);
    EXPECT_NE(cli::usage().find(core::flags::help(cli::kSimFlags)),
              std::string::npos);
    expectListedOnce(cli::kSweepFlags);
    expectListedOnce(cli::kDaemonFlags);
    expectListedOnce(cli::kSubmitFlags);
    expectListedOnce(cli::kModelCommonFlags);
    for (const cli::ModelComponent& c : cli::kModelComponents) {
        expectListedOnce(c.rows);
        EXPECT_NE(cli::modelUsage().find(core::flags::help(c.rows)),
                  std::string::npos);
    }
}

/** A non-default use of one orion_sim flag: @p args after @p base. */
struct Example
{
    std::string flag;
    Args args;
    Args base = {};
};

std::vector<Example>
simExamples(const std::string& trace_b)
{
    return {
        {"--preset", {"--preset", "wh64"}},
        {"--dims", {"--dims", "8x8"}},
        {"--mesh", {"--mesh"}},
        {"--vcs", {"--vcs", "4"}},
        {"--buffer", {"--buffer", "16"}},
        {"--flit-bits", {"--flit-bits", "64"}},
        {"--packet-length", {"--packet-length", "4"}},
        {"--deadlock", {"--deadlock", "bubble"}},
        {"--speculative", {"--speculative"}},
        {"--arbiter", {"--arbiter", "rr"}},
        {"--injection", {"--injection", "spread"}},
        {"--tie-break", {"--tie-break", "prefer-wrap"}},
        {"--pattern", {"--pattern", "tornado"}},
        {"--rate", {"--rate", "0.1"}},
        {"--broadcast-source", {"--broadcast-source", "3"}},
        {"--hotspot", {"--hotspot", "9"}},
        {"--hotspot-frac", {"--hotspot-frac", "0.4"}},
        {"--trace",
         {"--trace", trace_b},
         {"--pattern", "trace", "--trace", kTraceA}},
        {"--sample", {"--sample", "500"}},
        {"--warmup", {"--warmup", "200"}},
        {"--max-cycles", {"--max-cycles", "50000"}},
        {"--seed", {"--seed", "7"}},
        {"--link-ber", {"--link-ber", "1e-6"}},
        {"--link-outage", {"--link-outage", "1000:2000:3"}},
        {"--fault-seed", {"--fault-seed", "99"}},
        {"--retry-limit", {"--retry-limit", "4"}},
        {"--retry-backoff", {"--retry-backoff", "16"}},
        {"--reroute", {"--reroute"}},
        {"--deadlock-detect", {"--deadlock-detect", "500"}},
        {"--debug-poison-rate", {"--debug-poison-rate", "0.01"}},
        {"--debug-segv-rate", {"--debug-segv-rate", "0.5"}},
        {"--jobs", {"--jobs", "3"}},
        {"--point-timeout", {"--point-timeout", "2.5"}},
        {"--point-retries", {"--point-retries", "3"}},
        {"--point-backoff-ms", {"--point-backoff-ms", "50"}},
        {"--csv", {"--csv"}},
        {"--breakdown", {"--breakdown"}},
        {"--report-out", {"--report-out", "r.entry"}},
        {"--metrics-out", {"--metrics-out", "m.csv"}},
        {"--sample-interval", {"--sample-interval", "500"}},
        {"--trace-out", {"--trace-out", "t.json"}},
        {"--trace-capacity", {"--trace-capacity", "1024"}},
        {"--log-out", {"--log-out", "l.jsonl"}},
        {"--log-level", {"--log-level", "debug"}},
        {"--manifest-out", {"--manifest-out", "m.json"}},
        {"--profile-phases", {"--profile-phases"}},
    };
}

class SimRowClasses : public testing::Test
{
  protected:
    void SetUp() override
    {
        traceB_ = testing::TempDir() + "flags_test_trace.txt";
        std::ofstream(traceB_) << "0 1 2\n";
        examples_ = simExamples(traceB_);
    }
    void TearDown() override { std::remove(traceB_.c_str()); }

    const Example& example(std::string_view flag) const
    {
        for (const Example& e : examples_) {
            if (e.flag == flag)
                return e;
        }
        throw std::logic_error("no example for " + std::string(flag));
    }

    std::string traceB_;
    std::vector<Example> examples_;
};

TEST_F(SimRowClasses, OnlyResultRowsMoveTheFingerprint)
{
    ASSERT_EQ(examples_.size(), cli::kSimFlags.size());
    for (const auto& r : cli::kSimFlags) {
        const Example& e = example(r.flag);
        Args perturbed = e.base;
        perturbed.insert(perturbed.end(), e.args.begin(), e.args.end());
        const bool moved = fingerprint(perturbed) != fingerprint(e.base);
        EXPECT_EQ(moved, r.cls == Class::Result) << r.flag;
    }
}

TEST_F(SimRowClasses, WorkerArgvDropsExactlyTheLocalRows)
{
    std::set<std::string> local;
    for (const auto& r : cli::kSimFlags) {
        const Args worker = core::workerArgs(example(r.flag).args);
        if (r.cls == Class::Local) {
            local.insert(std::string(r.flag));
            EXPECT_TRUE(worker.empty()) << r.flag;
        } else {
            EXPECT_EQ(worker, example(r.flag).args) << r.flag;
        }
    }
    EXPECT_EQ(local, (std::set<std::string>{
                         "--report-out", "--metrics-out", "--trace-out",
                         "--manifest-out", "--log-out", "--log-level",
                         "--profile-phases", "--point-timeout"}));
    // A value is never mistaken for a flag.
    EXPECT_EQ(core::workerArgs({"--trace", "--report-out", "--csv"}),
              (Args{"--trace", "--report-out", "--csv"}));
}

TEST(FingerprintFixture, EveryPinnedCommandLineResolvesAsBefore)
{
    const core::CheckLevel saved = core::checkLevel();
    core::setCheckLevel(core::CheckLevel::Cheap);
    if (core::checkLevel() != core::CheckLevel::Cheap)
        GTEST_SKIP() << "the pins hash the cheap runtime check level";

    std::ifstream in(std::string(ORION_TEST_DIR) + "/fingerprints.txt");
    ASSERT_TRUE(in) << "fingerprints.txt missing";
    std::set<std::string> covered;
    std::size_t cases = 0;
    std::string name;
    Args args;
    for (std::string line; std::getline(in, line);) {
        if (line.empty() || line[0] == '#')
            continue;
        if (line.rfind("@ ", 0) == 0) {
            std::istringstream words(line.substr(2));
            words >> name;
            args.clear();
            for (std::string w; words >> w;) {
                if (!args.empty() && args.back() == "--trace")
                    w = std::string(ORION_TEST_DIR) + "/" + w;
                args.push_back(w);
                covered.insert(w);
            }
            continue;
        }
        ++cases;
        EXPECT_EQ(fingerprint(args), line) << name;
    }
    EXPECT_GE(cases, 80u);
    for (const auto& r : cli::kSimFlags)
        EXPECT_EQ(covered.count(std::string(r.flag)), 1u) << r.flag;
    core::setCheckLevel(saved);
}

} // namespace
