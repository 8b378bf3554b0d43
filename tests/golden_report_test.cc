/**
 * @file
 * Golden Reports: every router microarchitecture, arbiter, topology,
 * the fault and deadlock paths and the permutation traffic patterns
 * must reproduce, byte for byte, the checkpoint-entry line pinned in
 * golden_reports.txt. The entry holds each Report figure as an exact
 * hexfloat (latency, throughput, power by class and by node) and
 * every event count, so any change to the flit-hop datapath that
 * moves a single energy bit or reorders one power event fails here
 * with the differing fields in view.
 */

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.hh"
#include "core/cli.hh"
#include "core/point_runner.hh"
#include "core/simulation.hh"

namespace {

using namespace orion;

struct GoldenCase
{
    std::string name;
    std::vector<std::string> args;
    std::string expected;
};

std::vector<GoldenCase>
loadGoldenCases()
{
    std::ifstream in(ORION_GOLDEN_REPORTS);
    std::vector<GoldenCase> cases;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("@ ", 0) == 0) {
            std::istringstream words(line.substr(2));
            GoldenCase c;
            words >> c.name;
            for (std::string w; words >> w;)
                c.args.push_back(w);
            cases.push_back(std::move(c));
        } else if (!line.empty() && line[0] != '#' && !cases.empty()) {
            cases.back().expected = line;
        }
    }
    return cases;
}

/** gtest parameter names allow only [A-Za-z0-9_]. */
std::string
testName(const testing::TestParamInfo<GoldenCase>& info)
{
    std::string n = info.param.name;
    for (char& ch : n)
        if (!std::isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    return n;
}

class GoldenReport : public testing::TestWithParam<GoldenCase>
{
};

TEST_P(GoldenReport, EntryIsBitIdentical)
{
    const GoldenCase& c = GetParam();
    ASSERT_FALSE(c.expected.empty()) << "no pinned line for " << c.name;
    const cli::Options opts = cli::parse(c.args);
    Simulation run(opts.network, opts.traffic, opts.sim);
    const Report report = run.run();
    EXPECT_EQ(core::serializeEntry(core::triage(run, report)), c.expected);
}

INSTANTIATE_TEST_SUITE_P(Pinned, GoldenReport,
                         testing::ValuesIn(loadGoldenCases()), testName);

TEST(GoldenReports, CoverEveryPinnedConfiguration)
{
    // Guards against a truncated or unreadable data file silently
    // instantiating no cases.
    EXPECT_EQ(loadGoldenCases().size(), 34u);
}

} // namespace
