#include "core/cli.hh"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include <cstdio>

#include "core/log.hh"
#include "core/report.hh"
#include "core/sweep.hh"
#include "net/trace.hh"

namespace orion::cli {

namespace {

using core::flags::kSwitch;
using core::flags::kText;
using core::flags::real;
using core::flags::reject;
using core::flags::u32;
using core::flags::u64;

constexpr auto kResult = core::flags::Class::Result;
constexpr auto kControl = core::flags::Class::Control;
constexpr auto kLocal = core::flags::Class::Local;

/** One accepted spelling of an enumerated flag value. */
template <class V>
struct Name
{
    const char* name;
    V value;
};

template <class V, std::size_t N>
V
byName(const std::string& text, const Name<V> (&names)[N],
       const char* what)
{
    for (const Name<V>& n : names) {
        if (text == n.name)
            return n.value;
    }
    reject(std::string("unknown ") + what + " '" + text + "'");
}

constexpr Name<NetworkConfig (*)()> kPresets[] = {
    {"wh64", &NetworkConfig::wh64}, {"vc16", &NetworkConfig::vc16},
    {"vc64", &NetworkConfig::vc64}, {"vc128", &NetworkConfig::vc128},
    {"xb", &NetworkConfig::xb},     {"cb", &NetworkConfig::cb},
};

constexpr Name<net::TrafficPattern> kPatterns[] = {
    {"uniform", net::TrafficPattern::UniformRandom},
    {"broadcast", net::TrafficPattern::Broadcast},
    {"transpose", net::TrafficPattern::Transpose},
    {"bitcomp", net::TrafficPattern::BitComplement},
    {"tornado", net::TrafficPattern::Tornado},
    {"neighbor", net::TrafficPattern::NearestNeighbor},
    {"hotspot", net::TrafficPattern::Hotspot},
    {"trace", net::TrafficPattern::Trace},
};

constexpr Name<router::DeadlockMode> kDeadlockModes[] = {
    {"none", router::DeadlockMode::None},
    {"bubble", router::DeadlockMode::Bubble},
    {"dateline", router::DeadlockMode::Dateline},
};

constexpr Name<router::ArbiterKind> kArbiters[] = {
    {"matrix", router::ArbiterKind::Matrix},
    {"rr", router::ArbiterKind::RoundRobin},
    {"queuing", router::ArbiterKind::Queuing},
};

constexpr Name<net::InjectionPolicy> kInjection[] = {
    {"single", net::InjectionPolicy::SingleVc},
    {"spread", net::InjectionPolicy::SpreadVcs},
};

constexpr Name<net::TieBreak> kTieBreaks[] = {
    {"random", net::TieBreak::Random},
    {"prefer-wrap", net::TieBreak::PreferWrap},
};

std::vector<unsigned>
parseDims(const std::string& v)
{
    std::vector<unsigned> dims;
    std::string part;
    std::istringstream in(v);
    while (std::getline(in, part, 'x')) {
        if (part.empty())
            reject("malformed '" + v + "'");
        dims.push_back(static_cast<unsigned>(core::flags::toUnsigned(
            part, std::numeric_limits<unsigned>::max())));
    }
    if (dims.empty())
        reject("malformed '" + v + "'");
    return dims;
}

net::OutageWindow
parseOutageSpec(const std::string& spec)
{
    net::OutageWindow w;
    unsigned long long start = 0;
    unsigned long long end = 0;
    long long link = -1;
    char tail = 0;
    const int n3 = std::sscanf(spec.c_str(), "%llu:%llu:%lld%c",
                               &start, &end, &link, &tail);
    if (n3 != 3) {
        link = -1;
        const int n2 = std::sscanf(spec.c_str(), "%llu:%llu%c",
                                   &start, &end, &tail);
        if (n2 != 2)
            reject("wants START:END[:LINK]: '" + spec + "'");
    }
    if (end <= start)
        reject("window end must be after start: '" + spec + "'");
    if (link < -1)
        reject("link must be >= 0 (or omitted): '" + spec + "'");
    w.start = start;
    w.end = end;
    w.link = static_cast<int>(link);
    return w;
}

/** A --log-level value: one of @p names, as log::parseLevel reads it. */
std::string
logLevel(const std::string& text, bool allow_off, const char* names)
{
    core::log::Level level = core::log::Level::Info;
    if (!core::log::parseLevel(text, level) ||
        (!allow_off && level == core::log::Level::Off))
        reject(std::string("wants ") + names + ": '" + text + "'");
    return text;
}

constexpr auto kNode =
    u32(0, core::flags::kInf, std::numeric_limits<int>::max());
constexpr auto kSec = core::flags::seconds(0.0, true);

constexpr const char* kNetwork = "network (defaults to --preset vc16)";
constexpr const char* kWorkload = "workload";
constexpr const char* kMeasure = "measurement (paper defaults)";
constexpr const char* kFaults = "fault injection (defaults: disabled)";
constexpr const char* kRobust =
    "robustness (defaults: disabled; docs/ROBUSTNESS.md)";
constexpr const char* kRun = "execution and survivability";
constexpr const char* kOutput = "output";
constexpr const char* kObserve =
    "telemetry and observability (docs/OBSERVABILITY.md)";

// Setters are generic lambdas; each converts to the row's
// void (*)(Options&, const Value&).
constexpr core::flags::Row<Options> kSimRows[] = {
    {"--preset", "wh64|vc16|vc64|vc128|xb|cb", "paper presets", kNetwork,
     kResult, kText, [](auto& o, auto& v) {
         o.network = byName(v.text, kPresets, "preset")();
     }},
    {"--dims", "KxK[xK]", "topology radices (default 4x4)", kNetwork,
     kResult, kText,
     [](auto& o, auto& v) { o.network.net.dims = parseDims(v.text); }},
    {"--mesh", nullptr, "mesh instead of torus", kNetwork, kResult, kSwitch,
     [](auto& o, auto&) {
         o.network.net.wrap = false;
         o.network.net.deadlock = router::DeadlockMode::None;
     }},
    {"--vcs", "N", "virtual channels per port", kNetwork, kResult, u32(),
     [](auto& o, auto& v) { o.network.net.vcs = v.u32(); }},
    {"--buffer", "N", "buffer depth per VC (flits)", kNetwork, kResult,
     u32(), [](auto& o, auto& v) { o.network.net.bufferDepth = v.u32(); }},
    {"--flit-bits", "N", "flit width", kNetwork, kResult, u32(),
     [](auto& o, auto& v) { o.network.net.flitBits = v.u32(); }},
    {"--packet-length", "N", "flits per packet", kNetwork, kResult, u32(),
     [](auto& o, auto& v) { o.network.net.packetLength = v.u32(); }},
    {"--deadlock", "none|bubble|dateline", "deadlock avoidance", kNetwork,
     kResult, kText, [](auto& o, auto& v) {
         o.network.net.deadlock = byName(v.text, kDeadlockModes, "mode");
     }},
    {"--speculative", nullptr, "2-stage speculative VC pipeline", kNetwork,
     kResult, kSwitch,
     [](auto& o, auto&) { o.network.net.speculative = true; }},
    {"--arbiter", "matrix|rr|queuing", "arbiter kind", kNetwork, kResult,
     kText, [](auto& o, auto& v) {
         o.network.net.arbiterKind = byName(v.text, kArbiters, "kind");
     }},
    {"--injection", "single|spread", "source VC policy", kNetwork, kResult,
     kText, [](auto& o, auto& v) {
         o.network.net.injection = byName(v.text, kInjection, "policy");
     }},
    {"--tie-break", "random|prefer-wrap", "equidistant torus routes",
     kNetwork, kResult, kText, [](auto& o, auto& v) {
         o.network.net.tieBreak = byName(v.text, kTieBreaks, "policy");
     }},

    {"--pattern",
     "uniform|broadcast|transpose|bitcomp|tornado|neighbor|hotspot|trace",
     "destination pattern (default uniform)", kWorkload, kResult, kText,
     [](auto& o, auto& v) {
         o.traffic.pattern = byName(v.text, kPatterns, "pattern");
     }},
    {"--rate", "R", "packets/cycle/node (default 0.05)", kWorkload,
     kResult, real(),
     [](auto& o, auto& v) { o.traffic.injectionRate = v.d; }},
    {"--broadcast-source", "N", "broadcast source node", kWorkload,
     kResult, kNode, [](auto& o, auto& v) {
         o.traffic.broadcastSource = static_cast<int>(v.u);
     }},
    {"--hotspot", "N", "hotspot node", kWorkload, kResult, kNode,
     [](auto& o, auto& v) { o.traffic.hotspotNode = static_cast<int>(v.u); }},
    {"--hotspot-frac", "F", "share of traffic sent to the hotspot",
     kWorkload, kResult, real(),
     [](auto& o, auto& v) { o.traffic.hotspotFraction = v.d; }},
    {"--trace", "FILE", "trace file ('cycle src dst' lines)", kWorkload,
     kResult, kText, [](auto& o, auto& v) {
         o.traffic.trace =
             std::make_shared<const std::vector<net::TraceRecord>>(
                 net::Trace::load(v.text));
     }},

    {"--sample", "N", "sample packets (default 10000)", kMeasure, kResult,
     u64(), [](auto& o, auto& v) { o.sim.samplePackets = v.u; }},
    {"--warmup", "N", "warm-up cycles (default 1000)", kMeasure, kResult,
     u64(), [](auto& o, auto& v) { o.sim.warmupCycles = v.u; }},
    {"--max-cycles", "N", "cycle cap (default 1000000)", kMeasure, kResult,
     u64(), [](auto& o, auto& v) { o.sim.maxCycles = v.u; }},
    {"--seed", "N", "RNG seed (default 1)", kMeasure, kResult, u64(),
     [](auto& o, auto& v) { o.sim.seed = v.u; }},

    {"--link-ber", "F", "per-bit link error rate", kFaults, kResult,
     real(0.0, 1.0),
     [](auto& o, auto& v) { o.sim.fault.linkBitErrorRate = v.d; }},
    {"--link-outage", "START:END[:LINK]",
     "drop all flits on LINK (a random link\nif omitted) in [START, END)",
     kFaults, kResult, kText, [](auto& o, auto& v) {
         o.sim.fault.outages.push_back(parseOutageSpec(v.text));
     }},
    {"--fault-seed", "N", "fault schedule seed (default: from --seed)",
     kFaults, kResult, u64(),
     [](auto& o, auto& v) { o.sim.fault.faultSeed = v.u; }},
    {"--retry-limit", "N", "retransmissions per packet (default 8)",
     kFaults, kResult, u32(0, 32),
     [](auto& o, auto& v) { o.sim.fault.retryLimit = v.u32(); }},
    {"--retry-backoff", "N", "base retry backoff cycles (default 8)",
     kFaults, kResult, u64(1),
     [](auto& o, auto& v) { o.sim.fault.retryBackoffCycles = v.u; }},

    {"--reroute", nullptr, "reroute around dead links; fail fast as\n"
     "'unreachable' when a destination is cut off",
     kRobust, kResult, kSwitch,
     [](auto& o, auto&) { o.sim.rerouteOnOutage = true; }},
    {"--deadlock-detect", "N", "detect wait-for cycles after N frozen\n"
     "cycles; recover by worm poisoning", kRobust, kResult, u64(1),
     [](auto& o, auto& v) {
         o.sim.deadlockDetect.enabled = true;
         o.sim.deadlockDetect.thresholdCycles = v.u;
         o.sim.deadlockDetect.probeCycles = std::max<sim::Cycle>(
             1, std::min<sim::Cycle>(128, v.u / 4));
     }},
    {"--debug-poison-rate", "F", "drill: poison worms at this rate",
     kRobust, kResult, real(),
     [](auto& o, auto& v) { o.sim.debugPoisonRate = v.d; }},
    {"--debug-segv-rate", "F", "drill: crash the run at this rate",
     kRobust, kResult, real(),
     [](auto& o, auto& v) { o.sim.debugSegvRate = v.d; }},

    {"--jobs", "N", "sweep worker threads (default: all cores;\n"
     "results are identical for any N)", kRun, kControl, u32(1),
     [](auto& o, auto& v) { o.jobs = v.u32(); }},
    {"--point-timeout", "SEC", "wall-clock deadline per run or sweep\n"
     "point; overruns stop as 'deadline'", kRun, kLocal, kSec,
     [](auto& o, auto& v) { o.pointTimeoutSeconds = v.d; }},
    {"--point-retries", "N", "attempts per sweep cell (default 2)", kRun,
     kControl, u32(1, 32), [](auto& o, auto& v) { o.pointRetries = v.u32(); }},
    {"--point-backoff-ms", "N", "sleep before each retry (default 0)",
     kRun, kControl, u32(),
     [](auto& o, auto& v) { o.pointBackoffMs = v.u32(); }},

    {"--csv", nullptr, "machine-readable one-row CSV", kOutput, kControl,
     kSwitch, [](auto& o, auto&) { o.csv = true; }},
    {"--breakdown", nullptr, "per-node power map + event counts", kOutput,
     kControl, kSwitch, [](auto& o, auto&) { o.breakdown = true; }},
    {"--report-out", "FILE", "the report as a checkpoint entry line\n"
     "(exact hexfloat doubles)", kOutput, kLocal, kText,
     [](auto& o, auto& v) { o.reportOut = v.text; }},

    {"--metrics-out", "FILE", "windowed metric time series (CSV)",
     kObserve, kLocal, kText, [](auto& o, auto& v) { o.metricsOut = v.text; }},
    {"--sample-interval", "N", "cycles per sampling window (default\n"
     "1000 with --metrics-out)", kObserve, kControl, u64(1),
     [](auto& o, auto& v) { o.sim.telemetry.sampleInterval = v.u; }},
    {"--trace-out", "FILE", "Chrome trace-event JSON (Perfetto)",
     kObserve, kLocal, kText, [](auto& o, auto& v) { o.traceOut = v.text; }},
    {"--trace-capacity", "N", "trace ring-buffer records (default 65536)",
     kObserve, kControl, u64(1), [](auto& o, auto& v) {
         o.sim.telemetry.traceCapacity = static_cast<std::size_t>(v.u);
     }},
    {"--log-out", "FILE", "structured JSON-lines log (or ORION_LOG)",
     kObserve, kLocal, kText, [](auto& o, auto& v) { o.logOut = v.text; }},
    {"--log-level", "L", "debug|info|warn|error (default info)", kObserve,
     kLocal, kText, [](auto& o, auto& v) {
         o.logLevel = logLevel(v.text, false, "debug|info|warn|error");
     }},
    {"--manifest-out", "FILE", "run manifest JSON (fingerprint, build,\n"
     "rusage, stop reason)", kObserve, kLocal, kText,
     [](auto& o, auto& v) { o.manifestOut = v.text; }},
    {"--profile-phases", nullptr, "time each simulator stage (manifest)",
     kObserve, kLocal, kSwitch,
     [](auto& o, auto&) { o.sim.profilePhases = true; }},
};

constexpr const char* kSweep = "sweep";

constexpr core::flags::Row<SweepArgs> kSweepRows[] = {
    {"--rates", "FIRST:LAST:COUNT", "evenly spaced rates (default "
     "0.01:0.20:10)", kSweep, kResult, kText,
     [](auto& s, auto& v) { s.rates = parseRateSpec(v.text); }},
    {"--seeds", "N", "average each point over N seeds", kSweep, kResult,
     u32(1), [](auto& s, auto& v) { s.seeds = v.u32(); }},
    {"--metrics-dir", "DIR", "per-point metric CSVs (DIR/point_NNN.csv,\n"
     "DIR/seed_K/... with --seeds N>1)", kSweep, kLocal, kText,
     [](auto& s, auto& v) { s.metricsDir = v.text; }},
    {"--trace-dir", "DIR", "per-point Chrome traces, laid out the\n"
     "same way", kSweep, kLocal, kText,
     [](auto& s, auto& v) { s.traceDir = v.text; }},
    {"--checkpoint", "FILE", "journal finished cells (crash-safe)", kSweep,
     kControl, kText, [](auto& s, auto& v) { s.checkpointPath = v.text; }},
    {"--resume", "FILE", "skip the cells FILE journals, append new\n"
     "ones; the CSV is byte-identical to an\nuninterrupted run's",
     kSweep, kControl, kText,
     [](auto& s, auto& v) { s.resumePath = v.text; }},
    {"--isolate", nullptr, "one orion_sim subprocess per point; a\n"
     "crash becomes a failed row", kSweep, kControl, kSwitch,
     [](auto& s, auto&) { s.isolate = true; }},
    {"--isolate-exe", "PATH", "worker binary (default: beside this one)",
     kSweep, kControl, kText, [](auto& s, auto& v) { s.isolateExe = v.text; }},
    {"--isolate-mem", "MB", "worker RLIMIT_AS cap (MiB)", kSweep, kControl,
     u64(), [](auto& s, auto& v) { s.isolateMemMb = v.u; }},
    {"--isolate-cpu", "SEC", "worker RLIMIT_CPU cap (seconds)", kSweep,
     kControl, u64(), [](auto& s, auto& v) { s.isolateCpuSeconds = v.u; }},
    {"--heartbeat", "FILE", "progress JSON, rewritten atomically\n"
     "(tools/orion_status.py reads it)", kSweep, kLocal, kText,
     [](auto& s, auto& v) { s.heartbeatPath = v.text; }},
    {"--heartbeat-interval", "SEC", "heartbeat period (default 1)", kSweep,
     kLocal, kSec,
     [](auto& s, auto& v) { s.heartbeatIntervalSeconds = v.d; }},
    {"--progress", nullptr, "stderr progress line (TTY only)", kSweep,
     kLocal, kSwitch, [](auto& s, auto&) { s.progressLine = true; }},
    {"--resources", nullptr, "append wall_s/cpu_s/maxrss_kb columns\n"
     "(nondeterministic values)", kSweep, kControl, kSwitch,
     [](auto& s, auto&) { s.resources = true; }},
};

constexpr const char* kDaemon = "options";

constexpr core::flags::Row<DaemonArgs> kDaemonRows[] = {
    {"--socket", "PATH", "Unix-domain socket to listen on", kDaemon,
     kControl, kText, [](auto& d, auto& v) { d.socketPath = v.text; }},
    {"--cache-dir", "DIR", "persistent result cache directory", kDaemon,
     kControl, kText, [](auto& d, auto& v) { d.cacheDir = v.text; }},
    {"--cache-max-entries", "N", "LRU eviction bound (default 4096)",
     kDaemon, kControl, u64(),
     [](auto& d, auto& v) { d.cacheMaxEntries = v.u; }},
    {"--cache-segment-entries", "N", "segment rotation size (default 256)",
     kDaemon, kControl, u64(1),
     [](auto& d, auto& v) { d.cacheSegmentEntries = v.u; }},
    {"--workers", "N", "worker threads (default 1)", kDaemon, kControl,
     u32(1), [](auto& d, auto& v) { d.workers = v.u32(); }},
    {"--queue-max", "N", "admission high-water mark (default 16)", kDaemon,
     kControl, u64(), [](auto& d, auto& v) { d.queueMax = v.u; }},
    {"--timeout", "SEC", "default per-job deadline (default none)",
     kDaemon, kControl, core::flags::seconds(0.0, false),
     [](auto& d, auto& v) { d.defaultTimeoutSeconds = v.d; }},
    {"--retries", "N", "per-point attempts (default 2)", kDaemon, kControl,
     u32(1, 32), [](auto& d, auto& v) { d.retries = v.u32(); }},
    {"--backoff-ms", "N", "sleep between attempts (default 0)", kDaemon,
     kControl, u32(), [](auto& d, auto& v) { d.backoffMs = v.u32(); }},
    {"--isolate", "EXE", "run each point in a forked orion_sim", kDaemon,
     kControl, kText, [](auto& d, auto& v) { d.isolateExe = v.text; }},
    {"--manifest-out", "FILE", "shutdown manifest (default\n"
     "<socket>.manifest.json)", kDaemon, kLocal, kText,
     [](auto& d, auto& v) { d.manifestOut = v.text; }},
    {"--log-out", "FILE", "structured JSON-lines log", kDaemon, kLocal,
     kText, [](auto& d, auto& v) { d.logOut = v.text; }},
    {"--log-level", "L", "debug|info|warn|error|off (default info)",
     kDaemon, kLocal, kText, [](auto& d, auto& v) {
         d.logLevel = logLevel(v.text, true, "debug|info|warn|error|off");
     }},
};

constexpr const char* kSubmit = "options (before --)";

constexpr core::flags::Row<SubmitArgs> kSubmitRows[] = {
    {"--socket", "PATH", "the daemon's socket", kSubmit, kControl, kText,
     [](auto& s, auto& v) { s.socketPath = v.text; }},
    {"--rates", "F:L:N", "submit: sweep this rate grid", kSubmit, kResult,
     kText, [](auto& s, auto& v) { s.rates = v.text; }},
    {"--timeout", "SEC", "submit: per-job deadline", kSubmit, kControl,
     core::flags::seconds(0.0, false),
     [](auto& s, auto& v) { s.timeoutSeconds = v.d; }},
    {"--wait", nullptr, "submit: wait for the job, write its result",
     kSubmit, kControl, kSwitch, [](auto& s, auto&) { s.wait = true; }},
    {"--poll-ms", "N", "submit --wait: poll period (default 200)", kSubmit,
     kControl, u32(1), [](auto& s, auto& v) { s.pollMs = v.u32(); }},
    {"--out", "FILE", "submit --wait, result: result file\n"
     "(default stdout)", kSubmit, kLocal, kText,
     [](auto& s, auto& v) { s.outPath = v.text; }},
};

} // namespace

const core::flags::Table<Options> kSimFlags = kSimRows;

Options
parse(const std::vector<std::string>& args, std::string_view tool)
{
    Options o;
    o.traffic.injectionRate = 0.05;
    if (core::flags::parse(tool, kSimFlags, args, o)) {
        o.helpRequested = true;
        return o;
    }

    // --metrics-out without an explicit interval samples every 1000
    // cycles; --trace-out enables the tracer.
    if (!o.metricsOut.empty() && o.sim.telemetry.sampleInterval == 0)
        o.sim.telemetry.sampleInterval = 1000;
    if (!o.traceOut.empty())
        o.sim.telemetry.traceEnabled = true;

    // Cross-field checks happen in the library validators; run them
    // here so errors surface before the (possibly long) run starts.
    try {
        validateConfig(o.network, o.traffic, o.sim);
    } catch (const std::invalid_argument& e) {
        core::flags::fail(tool, e.what());
    }
    return o;
}

std::string
usage()
{
    return "usage: orion_sim [options]\n" + core::flags::help(kSimFlags);
}

const core::flags::Table<SweepArgs> kSweepFlags = kSweepRows;

SweepArgs
parseSweep(const std::vector<std::string>& args)
{
    constexpr std::string_view kTool = "orion_sweep";
    SweepArgs s;
    s.rates = Sweep::linspace(0.01, 0.20, 10);
    if (core::flags::parse(kTool, kSweepFlags, args, s, &s.simArgs))
        s.sim.helpRequested = true;
    else
        s.sim = parse(s.simArgs, kTool);
    return s;
}

const core::flags::Table<DaemonArgs> kDaemonFlags = kDaemonRows;

DaemonArgs
parseDaemon(const std::vector<std::string>& args)
{
    constexpr std::string_view kTool = "orion_served";
    DaemonArgs d;
    d.helpRequested = core::flags::parse(kTool, kDaemonFlags, args, d);
    if (d.helpRequested)
        return d;
    if (d.socketPath.empty())
        core::flags::fail(kTool, "--socket is required");
    if (d.manifestOut.empty())
        d.manifestOut = d.socketPath + ".manifest.json";
    return d;
}

const core::flags::Table<SubmitArgs> kSubmitFlags = kSubmitRows;

SubmitArgs
parseSubmit(const std::vector<std::string>& args)
{
    constexpr std::string_view kTool = "orion_submit";
    SubmitArgs s;
    const auto dashes = std::find(args.begin(), args.end(), "--");
    s.helpRequested = core::flags::parse(
        kTool, kSubmitFlags, {args.begin(), dashes}, s, &s.words);
    if (s.helpRequested)
        return s;
    if (dashes != args.end())
        s.simArgs.assign(dashes + 1, args.end());
    if (s.socketPath.empty())
        core::flags::fail(kTool, "--socket PATH is required");
    if (s.words.empty())
        core::flags::fail(kTool, "missing verb");
    if (s.words.front() != "submit" &&
        (!s.rates.empty() || s.timeoutSeconds >= 0.0 || s.wait ||
         dashes != args.end()))
        core::flags::fail(kTool, "--rates, --timeout, --wait and -- "
                                 "apply to submit only");
    return s;
}

std::vector<double>
parseRateSpec(const std::string& spec)
{
    double first = 0.0;
    double last = 0.0;
    unsigned count = 0;
    char tail = 0;
    if (std::sscanf(spec.c_str(), "%lf:%lf:%u%c", &first, &last,
                    &count, &tail) != 3 ||
        first <= 0.0 || last < first || count < 2) {
        reject("rate spec wants FIRST:LAST:COUNT with 0 < FIRST <= LAST "
               "and COUNT >= 2: '" +
               spec + "'");
    }
    return Sweep::linspace(first, last, count);
}

std::string
formatReport(const Options& opts, const Report& r)
{
    std::ostringstream out;
    out << "orion_sim run summary\n";
    out << "  status            : " << stopReasonName(r.stopReason)
        << "\n";
    if (r.stopReason == StopReason::CheckFailure &&
        !r.checkFailureDiagnostic.empty()) {
        out << "  diagnostic        : " << r.checkFailureDiagnostic
            << "\n";
    }
    out << "  cycles            : " << r.totalCycles << " ("
        << r.measuredCycles << " measured)\n";
    out << "  sample packets    : " << r.sampleEjected << "/"
        << r.sampleInjected << "\n";
    out << "  offered load      : " << report::fmt(r.offeredLoad, 4)
        << " pkts/cycle/node\n";
    out << "  throughput        : "
        << report::fmt(r.acceptedFlitsPerNodePerCycle, 4)
        << " flits/node/cycle\n";
    out << "  latency mean      : "
        << report::fmt(r.avgLatencyCycles, 2) << " cycles\n";
    out << "  latency p50/95/99 : "
        << report::fmt(r.p50LatencyCycles, 0) << " / "
        << report::fmt(r.p95LatencyCycles, 0) << " / "
        << report::fmt(r.p99LatencyCycles, 0) << " cycles\n";
    out << "  network power     : "
        << report::fmt(r.networkPowerWatts, 3) << " W\n";
    out << "    buffers         : "
        << report::fmt(r.breakdownWatts.buffer, 3) << " W\n";
    out << "    crossbars       : "
        << report::fmt(r.breakdownWatts.crossbar, 3) << " W\n";
    out << "    arbiters        : "
        << report::fmt(r.breakdownWatts.arbiter, 4) << " W\n";
    out << "    central buffers : "
        << report::fmt(r.breakdownWatts.centralBuffer, 3) << " W\n";
    out << "    links           : "
        << report::fmt(r.breakdownWatts.link, 3) << " W\n";

    if (r.flitsCorrupted + r.flitsOutageDropped + r.flitsDiscarded +
            r.packetsRetransmitted + r.packetsLost >
        0) {
        out << "  faults            : " << r.flitsCorrupted
            << " corrupted, " << r.flitsOutageDropped
            << " outage-dropped, " << r.flitsDiscarded
            << " discarded flits\n";
        out << "  recovery          : " << r.packetsRetransmitted
            << " retransmitted, " << r.packetsLost
            << " lost packets\n";
    }
    if (r.reroutes + r.packetsUnreachable > 0) {
        out << "  rerouting         : " << r.reroutes
            << " detours, " << r.packetsUnreachable
            << " unreachable packets\n";
    }
    if (r.deadlocksDetected > 0) {
        out << "  deadlocks         : " << r.deadlocksDetected
            << " detected, " << r.deadlocksRecovered
            << " recovered\n";
    }

    if (opts.breakdown) {
        const auto& dims = opts.network.net.dims;
        if (dims.size() == 2) {
            report::Table map;
            map.title = "per-node power (W)";
            map.headers = {"y\\x"};
            for (unsigned x = 0; x < dims[0]; ++x)
                map.headers.push_back(std::to_string(x));
            for (unsigned yy = dims[1]; yy-- > 0;) {
                std::vector<std::string> row{std::to_string(yy)};
                for (unsigned x = 0; x < dims[0]; ++x) {
                    row.push_back(report::fmt(
                        r.nodePowerWatts[yy * dims[0] + x], 3));
                }
                map.addRow(std::move(row));
            }
            out << report::formatTable(map);
        }

        report::Table ev;
        ev.title = "event counts (measurement window)";
        ev.headers = {"event", "count"};
        for (unsigned t = 0; t < sim::kNumEventTypes; ++t) {
            ev.addRow({sim::eventTypeName(
                           static_cast<sim::EventType>(t)),
                       std::to_string(r.eventCounts[t])});
        }
        out << report::formatTable(ev);
    }
    return out.str();
}

std::string
formatCsvReport(const Options& opts, const Report& r)
{
    // New columns append at the end so the historical header prefix
    // (and existing column positions) stay stable for downstream
    // scripts.
    report::Table t;
    t.headers = {"rate",          "completed",  "deadlock",
                 "cycles",        "latency",    "p50",
                 "p95",           "p99",        "throughput",
                 "power_w",       "buffer_w",   "crossbar_w",
                 "arbiter_w",     "cbuffer_w",  "link_w",
                 "stop_reason",   "flits_corrupted",
                 "packets_retransmitted",      "packets_lost",
                 "packets_unreachable",        "reroutes",
                 "deadlocks_recovered"};
    t.addRow({
        report::fmt(opts.traffic.injectionRate, 4),
        r.completed ? "1" : "0",
        r.deadlockSuspected ? "1" : "0",
        std::to_string(r.measuredCycles),
        report::fmt(r.avgLatencyCycles, 3),
        report::fmt(r.p50LatencyCycles, 0),
        report::fmt(r.p95LatencyCycles, 0),
        report::fmt(r.p99LatencyCycles, 0),
        report::fmt(r.acceptedFlitsPerNodePerCycle, 4),
        report::fmt(r.networkPowerWatts, 4),
        report::fmt(r.breakdownWatts.buffer, 4),
        report::fmt(r.breakdownWatts.crossbar, 4),
        report::fmt(r.breakdownWatts.arbiter, 5),
        report::fmt(r.breakdownWatts.centralBuffer, 4),
        report::fmt(r.breakdownWatts.link, 4),
        stopReasonName(r.stopReason),
        std::to_string(r.flitsCorrupted),
        std::to_string(r.packetsRetransmitted),
        std::to_string(r.packetsLost),
        std::to_string(r.packetsUnreachable),
        std::to_string(r.reroutes),
        std::to_string(r.deadlocksRecovered),
    });
    return report::formatCsv(t);
}

} // namespace orion::cli
