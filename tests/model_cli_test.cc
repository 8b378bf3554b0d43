/**
 * @file
 * Tests for the standalone power-model query tool: every component
 * query, parameter defaulting, technology overrides, CSV output, and
 * error handling.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/model_cli.hh"
#include "core/report.hh"
#include "power/buffer_model.hh"
#include "tech/tech_node.hh"

namespace {

using namespace orion;
using orion::cli::runModelQuery;

TEST(ModelCli, EmptyAndHelpShowUsage)
{
    EXPECT_EQ(runModelQuery({}), cli::modelUsage());
    EXPECT_EQ(runModelQuery({"--help"}), cli::modelUsage());
    EXPECT_NE(cli::modelUsage().find("buffer"), std::string::npos);
}

TEST(ModelCli, BufferQueryListsTable2Quantities)
{
    const std::string out =
        runModelQuery({"buffer", "--flits", "64", "--bits", "256"});
    for (const char* key : {"L_wl", "L_bl", "C_wl", "C_br", "C_bw",
                            "C_chg", "C_cell", "E_read", "E_wrt"}) {
        EXPECT_NE(out.find(key), std::string::npos) << key;
    }
}

TEST(ModelCli, BufferValuesMatchLibrary)
{
    // The printed E_read must be the library model's value.
    const tech::TechNode t = tech::TechNode::scaled(0.1, 1.2, 2e9);
    const power::BufferModel m(t, {64, 256, 1, 1});
    const std::string expect =
        report::fmtEng(m.readEnergy(), "J", 2);
    const std::string out =
        runModelQuery({"buffer", "--flits", "64", "--bits", "256"});
    EXPECT_NE(out.find(expect), std::string::npos);
}

TEST(ModelCli, CrossbarMatrixAndMuxTree)
{
    const std::string matrix = runModelQuery(
        {"crossbar", "--inputs", "5", "--outputs", "5", "--width",
         "256"});
    EXPECT_NE(matrix.find("matrix crossbar"), std::string::npos);
    const std::string tree = runModelQuery(
        {"crossbar", "--inputs", "5", "--outputs", "5", "--width",
         "256", "--mux-tree"});
    EXPECT_NE(tree.find("mux-tree crossbar"), std::string::npos);
    EXPECT_NE(matrix, tree);
}

TEST(ModelCli, ArbiterKinds)
{
    const std::string m =
        runModelQuery({"arbiter", "--requests", "4"});
    EXPECT_NE(m.find("priority flip-flops"), std::string::npos);
    EXPECT_NE(m.find("| 6"), std::string::npos); // 4*3/2

    const std::string rr = runModelQuery(
        {"arbiter", "--requests", "4", "--kind", "rr"});
    EXPECT_NE(rr.find("| 4"), std::string::npos);

    EXPECT_THROW(
        runModelQuery({"arbiter", "--requests", "4", "--kind", "x"}),
        std::invalid_argument);
}

TEST(ModelCli, CentralBufferAndLinks)
{
    const std::string cb = runModelQuery(
        {"central-buffer", "--banks", "4", "--rows", "2560", "--bits",
         "32"});
    EXPECT_NE(cb.find("bank E_read"), std::string::npos);

    const std::string link = runModelQuery(
        {"link", "--length-um", "3000", "--width", "256"});
    EXPECT_NE(link.find("C_wire/bit"), std::string::npos);

    const std::string c2c = runModelQuery({"c2c-link"});
    EXPECT_NE(c2c.find("3.00 W"), std::string::npos);
}

TEST(ModelCli, TechnologyOverridesChangeResults)
{
    const std::string base =
        runModelQuery({"buffer", "--flits", "16", "--bits", "64"});
    const std::string scaled = runModelQuery(
        {"buffer", "--flits", "16", "--bits", "64", "--feature-um",
         "0.07", "--vdd", "0.9"});
    EXPECT_NE(base, scaled);
}

TEST(ModelCli, CsvOutput)
{
    const std::string out = runModelQuery(
        {"buffer", "--flits", "16", "--bits", "64", "--csv"});
    EXPECT_NE(out.find("quantity,value"), std::string::npos);
    EXPECT_EQ(out.find("+---"), std::string::npos);
}

TEST(ModelCli, Errors)
{
    EXPECT_THROW(runModelQuery({"bogus"}), std::invalid_argument);
    EXPECT_THROW(runModelQuery({"buffer"}), std::invalid_argument);
    EXPECT_THROW(runModelQuery({"buffer", "--flits"}),
                 std::invalid_argument);
    EXPECT_THROW(runModelQuery({"buffer", "--flits", "ten", "--bits",
                                "64"}),
                 std::invalid_argument);
    EXPECT_THROW(runModelQuery({"buffer", "--flits", "1.5", "--bits",
                                "64"}),
                 std::invalid_argument);
    EXPECT_THROW(runModelQuery({"link", "--width", "64"}),
                 std::invalid_argument);
    EXPECT_THROW(runModelQuery({"buffer", "--flits", "16", "--bits",
                                "64", "--vdd", "-1"}),
                 std::invalid_argument);
}

TEST(ModelCli, RejectsOptionsTheComponentDoesNotRead)
{
    try {
        runModelQuery(
            {"buffer", "--flits", "8", "--bits", "32", "--vd", "0.5"});
        ADD_FAILURE() << "--vd was accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_STREQ(e.what(), "orion_models: unknown option '--vd' "
                               "(--help for usage)");
    }
    // Every other component's option is refused, not ignored.
    for (const cli::ModelComponent& c : cli::kModelComponents) {
        for (const cli::ModelComponent& other : cli::kModelComponents) {
            for (const auto& row : other.rows) {
                if (core::flags::find(c.rows, row.flag) != nullptr)
                    continue;
                EXPECT_THROW(runModelQuery({std::string(c.name),
                                            std::string(row.flag), "1"}),
                             std::invalid_argument)
                    << c.name << " " << row.flag;
            }
        }
    }
}

} // namespace
