#include "core/model_cli.hh"

#include <stdexcept>

#include "core/report.hh"
#include "power/buffer_model.hh"
#include "power/central_buffer_model.hh"
#include "power/crossbar_model.hh"
#include "power/link_model.hh"

namespace orion::cli {

namespace {

using core::flags::kSwitch;
using core::flags::kText;
using core::flags::real;
using core::flags::u32;
using orion::report::fmt;
using orion::report::fmtEng;

constexpr std::string_view kTool = "orion_models";

/** @p value, which the component cannot do without. */
template <class V>
V
need(const std::optional<V>& value, const char* flag)
{
    if (!value)
        core::flags::fail(kTool, std::string(flag) + " is required");
    return *value;
}

using ModelRow = core::flags::Row<ModelQuery>;
constexpr auto kResult = core::flags::Class::Result;
constexpr auto kControl = core::flags::Class::Control;

// Component headings come from modelUsage(), so the rows carry none.
constexpr const char* kNoGroup = "";

constexpr core::flags::Type kPositive =
    real(0.0, std::numeric_limits<double>::infinity(), true);

constexpr ModelRow kFlits{
    "--flits", "B", "buffer depth (flits)", kNoGroup, kResult, u32(),
    [](auto& q, auto& v) { q.flits = v.u32(); }};
constexpr ModelRow kBits{
    "--bits", "F", "flit width (bits)", kNoGroup, kResult, u32(),
    [](auto& q, auto& v) { q.bits = v.u32(); }};
constexpr ModelRow kReadPorts{
    "--read-ports", "N", "read ports (default: buffer 1,\ncentral-buffer 2)",
    kNoGroup, kResult, u32(),
    [](auto& q, auto& v) { q.readPorts = v.u32(); }};
constexpr ModelRow kWritePorts{
    "--write-ports", "N", "write ports (default: buffer 1,\ncentral-buffer 2)",
    kNoGroup, kResult, u32(),
    [](auto& q, auto& v) { q.writePorts = v.u32(); }};
constexpr ModelRow kWidth{
    "--width", "W", "data path width (bits)", kNoGroup, kResult,
    u32(), [](auto& q, auto& v) { q.width = v.u32(); }};

constexpr ModelRow kBufferRows[] = {kFlits, kBits, kReadPorts, kWritePorts};

constexpr ModelRow kCrossbarRows[] = {
    {"--inputs", "I", "input ports", kNoGroup, kResult, u32(),
     [](auto& q, auto& v) { q.inputs = v.u32(); }},
    {"--outputs", "O", "output ports", kNoGroup, kResult, u32(),
     [](auto& q, auto& v) { q.outputs = v.u32(); }},
    kWidth,
    {"--mux-tree", nullptr, "multiplexer tree instead of a matrix",
     kNoGroup, kResult, kSwitch,
     [](auto& q, auto&) { q.muxTree = true; }},
    {"--load-ff", "F", "extra output load (fF, default 0)", kNoGroup,
     kResult, real(),
     [](auto& q, auto& v) { q.loadFf = v.d; }},
};

constexpr ModelRow kArbiterRows[] = {
    {"--requests", "R", "requesters", kNoGroup, kResult, u32(),
     [](auto& q, auto& v) { q.requests = v.u32(); }},
    {"--kind", "matrix|rr|queuing", "arbiter kind (default matrix)",
     kNoGroup, kResult, kText, [](auto& q, auto& v) {
         if (v.text == "matrix")
             q.kind = power::ArbiterKind::Matrix;
         else if (v.text == "rr")
             q.kind = power::ArbiterKind::RoundRobin;
         else if (v.text == "queuing")
             q.kind = power::ArbiterKind::Queuing;
         else
             core::flags::reject("unknown arbiter kind '" + v.text + "'");
     }},
    {"--xbar-ctrl-ff", "F", "crossbar control load (fF, default 0)",
     kNoGroup, kResult, real(),
     [](auto& q, auto& v) { q.xbarCtrlFf = v.d; }},
};

constexpr ModelRow kCentralBufferRows[] = {
    {"--banks", "N", "banks", kNoGroup, kResult, u32(),
     [](auto& q, auto& v) { q.banks = v.u32(); }},
    {"--rows", "N", "rows per bank", kNoGroup, kResult, u32(),
     [](auto& q, auto& v) { q.rows = v.u32(); }},
    kBits,
    kReadPorts,
    kWritePorts,
    {"--router-ports", "N", "router ports (default 5)", kNoGroup,
     kResult, u32(),
     [](auto& q, auto& v) { q.routerPorts = v.u32(); }},
};

constexpr ModelRow kLinkRows[] = {
    {"--length-um", "L", "wire length (um)", kNoGroup, kResult,
     kPositive, [](auto& q, auto& v) { q.lengthUm = v.d; }},
    kWidth,
};

constexpr ModelRow kC2cLinkRows[] = {
    {"--watts", "W", "constant link power (default 3)", kNoGroup,
     kResult, real(),
     [](auto& q, auto& v) { q.watts = v.d; }},
};

constexpr ModelRow kCommonRows[] = {
    {"--feature-um", "F", "drawn feature size (default 0.1)", kNoGroup,
     kResult, kPositive,
     [](auto& q, auto& v) { q.featureUm = v.d; }},
    {"--vdd", "V", "supply voltage (default 1.2)", kNoGroup,
     kResult, kPositive,
     [](auto& q, auto& v) { q.vdd = v.d; }},
    {"--freq-ghz", "G", "clock (default 2.0)", kNoGroup, kResult,
     kPositive, [](auto& q, auto& v) { q.freqGhz = v.d; }},
    {"--csv", nullptr, "CSV output", kNoGroup, kControl, kSwitch,
     [](auto& q, auto&) { q.csv = true; }},
};

std::string
render(const ModelQuery& q, report::Table& t)
{
    return q.csv ? report::formatCsv(t) : report::formatTable(t);
}

std::string
bufferQuery(const ModelQuery& q, const tech::TechNode& tech)
{
    const power::BufferParams p{need(q.flits, "--flits"),
                                need(q.bits, "--bits"),
                                q.readPorts.value_or(1),
                                q.writePorts.value_or(1)};
    const power::BufferModel m(tech, p);
    report::Table t;
    t.title = "FIFO buffer model (Table 2)";
    t.headers = {"quantity", "value"};
    t.addRow({"L_wl", fmt(m.wordlineLengthUm(), 1) + " um"});
    t.addRow({"L_bl", fmt(m.bitlineLengthUm(), 1) + " um"});
    t.addRow({"C_wl", fmtEng(m.wordlineCap(), "F", 2)});
    t.addRow({"C_br", fmtEng(m.readBitlineCap(), "F", 2)});
    t.addRow({"C_bw", fmtEng(m.writeBitlineCap(), "F", 2)});
    t.addRow({"C_chg", fmtEng(m.prechargeCap(), "F", 2)});
    t.addRow({"C_cell", fmtEng(m.cellCap(), "F", 2)});
    t.addRow({"E_read", fmtEng(m.readEnergy(), "J", 2)});
    t.addRow({"E_wrt (avg)", fmtEng(m.avgWriteEnergy(), "J", 2)});
    t.addRow({"area", fmt(m.areaUm2() / 1e6, 4) + " mm2"});
    return render(q, t);
}

std::string
crossbarQuery(const ModelQuery& q, const tech::TechNode& tech)
{
    const power::CrossbarParams p{
        need(q.inputs, "--inputs"), need(q.outputs, "--outputs"),
        need(q.width, "--width"),
        q.muxTree ? power::CrossbarKind::MuxTree
                  : power::CrossbarKind::Matrix,
        q.loadFf * 1e-15};
    const power::CrossbarModel m(tech, p);
    report::Table t;
    t.title = q.muxTree ? "mux-tree crossbar model (Table 3)"
                        : "matrix crossbar model (Table 3)";
    t.headers = {"quantity", "value"};
    t.addRow({"L_in", fmt(m.inputLengthUm(), 1) + " um"});
    t.addRow({"L_out", fmt(m.outputLengthUm(), 1) + " um"});
    t.addRow({"C_in/bit", fmtEng(m.inputCap(), "F", 2)});
    t.addRow({"C_out/bit", fmtEng(m.outputCap(), "F", 2)});
    t.addRow({"C_xb_ctr", fmtEng(m.controlCap(), "F", 2)});
    t.addRow({"E_xb (avg)", fmtEng(m.avgTraversalEnergy(), "J", 2)});
    t.addRow({"E_xb_ctr", fmtEng(m.controlEnergy(), "J", 2)});
    t.addRow({"area", fmt(m.areaUm2() / 1e6, 4) + " mm2"});
    return render(q, t);
}

std::string
arbiterQuery(const ModelQuery& q, const tech::TechNode& tech)
{
    const power::ArbiterModel m(
        tech, {need(q.requests, "--requests"), q.kind,
               q.xbarCtrlFf * 1e-15});
    report::Table t;
    t.title = "arbiter model (Table 4)";
    t.headers = {"quantity", "value"};
    t.addRow({"priority flip-flops",
              std::to_string(m.priorityFlipFlops())});
    t.addRow({"C_req", fmtEng(m.requestCap(), "F", 2)});
    t.addRow({"C_pri", fmtEng(m.priorityCap(), "F", 2)});
    t.addRow({"C_int", fmtEng(m.internalCap(), "F", 2)});
    t.addRow({"C_gnt", fmtEng(m.grantCap(), "F", 2)});
    t.addRow({"E_arb (avg)",
              fmtEng(m.avgArbitrationEnergy(), "J", 2)});
    return render(q, t);
}

std::string
centralBufferQuery(const ModelQuery& q, const tech::TechNode& tech)
{
    const power::CentralBufferParams p{
        need(q.banks, "--banks"),     need(q.rows, "--rows"),
        need(q.bits, "--bits"),       q.readPorts.value_or(2),
        q.writePorts.value_or(2),     q.routerPorts.value_or(5),
        2};
    const power::CentralBufferModel m(tech, p);
    report::Table t;
    t.title = "central buffer model (hierarchical, Section 3.2)";
    t.headers = {"quantity", "value"};
    t.addRow({"bank E_read", fmtEng(m.bankModel().readEnergy(), "J",
                                    2)});
    t.addRow({"E_write (avg)", fmtEng(m.avgWriteEnergy(), "J", 2)});
    t.addRow({"E_read (avg)", fmtEng(m.avgReadEnergy(), "J", 2)});
    t.addRow({"area", fmt(m.areaUm2() / 1e6, 4) + " mm2"});
    return render(q, t);
}

std::string
linkQuery(const ModelQuery& q, const tech::TechNode& tech)
{
    const power::OnChipLinkModel m(tech, need(q.lengthUm, "--length-um"),
                                   need(q.width, "--width"));
    report::Table t;
    t.title = "on-chip link model";
    t.headers = {"quantity", "value"};
    t.addRow({"C_wire/bit", fmtEng(m.wireCap(), "F", 2)});
    t.addRow({"E_link (avg)", fmtEng(m.avgTraversalEnergy(), "J", 2)});
    t.addRow({"E_link/bit", fmtEng(m.traversalEnergy(1), "J", 2)});
    return render(q, t);
}

std::string
c2cLinkQuery(const ModelQuery& q, const tech::TechNode& tech)
{
    const power::ChipToChipLinkModel m(q.watts);
    report::Table t;
    t.title = "chip-to-chip link model (constant power)";
    t.headers = {"quantity", "value"};
    t.addRow({"power", fmt(m.powerWatts(), 2) + " W"});
    t.addRow({"energy/cycle",
              fmtEng(m.energyOver(tech.cyclePeriod(), 1.0), "J", 2)});
    return render(q, t);
}

constexpr ModelComponent kComponents[] = {
    {"buffer", kBufferRows, &bufferQuery},
    {"crossbar", kCrossbarRows, &crossbarQuery},
    {"arbiter", kArbiterRows, &arbiterQuery},
    {"central-buffer", kCentralBufferRows, &centralBufferQuery},
    {"link", kLinkRows, &linkQuery},
    {"c2c-link", kC2cLinkRows, &c2cLinkQuery},
};

} // namespace

const std::span<const ModelComponent> kModelComponents = kComponents;

const core::flags::Table<ModelQuery> kModelCommonFlags = kCommonRows;

std::string
modelUsage()
{
    std::string out = "usage: orion_models COMPONENT [options]\n";
    for (const ModelComponent& c : kComponents) {
        out += "\n";
        out += c.name;
        out += ":\n";
        out += core::flags::help(c.rows);
    }
    return out + "\ncommon options:\n" + core::flags::help(kModelCommonFlags);
}

std::string
runModelQuery(const std::vector<std::string>& args)
{
    ModelQuery q;
    std::vector<std::string> rest;
    if (args.empty() ||
        core::flags::parse(kTool, kModelCommonFlags, args, q, &rest))
        return modelUsage();
    if (rest.empty())
        core::flags::fail(kTool, "missing component");
    const ModelComponent* component = nullptr;
    for (const ModelComponent& c : kComponents) {
        if (c.name == rest.front())
            component = &c;
    }
    if (component == nullptr)
        core::flags::fail(kTool, "unknown component '" + rest.front() + "'");
    core::flags::parse(kTool, component->rows,
                       std::vector<std::string>(rest.begin() + 1, rest.end()),
                       q);
    return component->evaluate(
        q, tech::TechNode::scaled(q.featureUm, q.vdd, q.freqGhz * 1e9));
}

} // namespace orion::cli
