/**
 * @file
 * orion_perf: the repository benchmark's harness (README.md in this
 * directory). It links liborion, runs one named workload for a fixed
 * number of seconds, checks every simulated result against pinned
 * digests, and prints one JSON object as its last line.
 *
 *   orion_perf --workload W --seed N --seconds S --trace 0|1
 *              --pins FILE --run-dir DIR --served EXE --sim EXE
 *   orion_perf --print-pins        (regenerates the pins file)
 *
 * Every timing is taken here, around calls into the library's public
 * functions or around requests to the orion_served daemon. The only
 * program-side numbers read are existing counters and timers:
 * Report::eventCounts, SweepPoint::resources, the phase profiler and
 * the daemon's stats verb.
 */
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/build_info.hh"
#include "core/cache.hh"
#include "core/checkpoint.hh"
#include "core/cli.hh"
#include "core/config.hh"
#include "core/executor.hh"
#include "core/isolate.hh"
#include "core/profile.hh"
#include "core/proto.hh"
#include "core/simulation.hh"
#include "core/sweep.hh"
#include "net/routing.hh"
#include "net/topology.hh"
#include "perf.hh"
#include "router/arbiter.hh"
#include "sim/event.hh"
#include "sim/rng.hh"

// Heap allocations made by the whole program (library included) while
// counting is on; read by the traced run's alloc.per_flit.
namespace {
std::atomic<bool> gCountAllocs{false};
std::atomic<std::uint64_t> gAllocs{0};
} // namespace

void*
operator new(std::size_t n)
{
    if (gCountAllocs.load(std::memory_order_relaxed))
        gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

namespace fs = std::filesystem;
using namespace orion;
using obench::now;
using obench::Scope;
using obench::SpanRecorder;
using core::proto::jsonString;

/// @name Workload definitions
/// @{

/** Sweep worker threads: two load threads, never more, on a 4-vCPU
 * host (README.md, "Rejected designs"). */
constexpr unsigned kJobs = 2;

/** paper_sweep draws simulation seeds from this pinned universe; the
 * workload seed picks the starting offset. */
constexpr unsigned kSimSeeds = 8;

/** served_mixed key universe: kServedRates x (kServedKeys /
 * kServedRates) seeds, every one pinned. */
const std::vector<std::string> kServedRates = {"0.02", "0.05", "0.08",
                                               "0.11"};
constexpr std::size_t kServedKeys = 1024;
constexpr std::size_t kServedHitKeys = 64;
/** Hits per miss, fixed by the clients' lockstep (obench::Pacer). A
 * result cache in steady use answers most requests from the cache;
 * 512 keeps the repeat client busy for about a third of each miss, so the
 * hit path stays warm, with room for hits 2.5x slower before a batch
 * outlasts its miss (README.md, "Why 512 hits per miss"). */
constexpr std::uint64_t kHitsPerMiss = 512;
/** Length of the repeat client's seeded key sequence (it wraps). */
constexpr std::size_t kServedRepeats = 1 << 16;
/** The daemon's peak RSS is read when this many misses have completed
 * (with kHitsPerMiss hits each), so peak_rss_mb always covers the same
 * work; the window runs on until then if it must. */
constexpr std::uint64_t kRssMisses = 20;
/** Sample packets of a served point: the paper's 10,000. Cheaper
 * misses mean more cache inserts a second, and a hit that meets an
 * insert waits out its fsync, which moved the hit p95 from run to run
 * (README.md, "Rejected designs"). */
constexpr const char* kServedSample = "10000";
/** Pause between result polls of the fresh-key client. A miss takes
 * about 200 ms, so this bounds its poll quantum below 0.2% while
 * freeing the CPUs a spinning client and the daemon's accept loop
 * would burn. The repeat client never pauses: hit latencies carry no
 * quantum. */
constexpr std::chrono::microseconds kMissPollGap{250};
/** Requests recorded in spans per client in a traced run. */
constexpr std::size_t kTracedRequests = 20000;
/** Daemon starts per run; setup_s is their median. */
constexpr int kServedStarts = 9;

SimConfig
paperSim(std::uint64_t seed)
{
    SimConfig s; // Section 4.1: 1000 warm-up cycles, 10,000 packets
    s.seed = seed;
    return s;
}

TrafficConfig
uniform(double rate)
{
    TrafficConfig t;
    t.pattern = net::TrafficPattern::UniformRandom;
    t.injectionRate = rate;
    return t;
}

const std::vector<double>&
sweepRates()
{
    static const std::vector<double> r = Sweep::linspace(0.02, 0.20, 10);
    return r;
}

/** orion_sim flags of served key @p key. */
std::vector<std::string>
servedArgs(std::size_t key)
{
    const std::size_t r = key % kServedRates.size();
    const std::size_t seed = 1 + key / kServedRates.size();
    return {"--preset", "vc16",          "--rate",
            kServedRates[r], "--seed",   std::to_string(seed),
            "--sample", kServedSample};
}
/// @}

/// @name Digests and pins
/// @{

struct Digest
{
    std::uint64_t cycles = 0;
    /** Flits ejected in the measurement window: PacketEjected events
     * times the packet length. */
    std::uint64_t flits = 0;
    double latency = 0.0;
    double power = 0.0;
};

Digest
digestOf(const Report& r, unsigned packet_length)
{
    Digest d;
    d.cycles = r.totalCycles;
    d.flits = r.eventCounts[static_cast<unsigned>(
                  sim::EventType::PacketEjected)] *
              packet_length;
    d.latency = r.avgLatencyCycles;
    d.power = r.networkPowerWatts;
    return d;
}

std::string
hexfloat(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

std::string
pinText(const Digest& d)
{
    return "cycles=" + std::to_string(d.cycles) +
           " flits=" + std::to_string(d.flits) +
           " latency=" + hexfloat(d.latency) +
           " power=" + hexfloat(d.power);
}

std::string
sweepPinKey(std::size_t rate_index, std::uint64_t seed)
{
    return "paper_sweep r" + std::to_string(rate_index) + " s" +
           std::to_string(seed);
}

std::string
servedPinKey(std::size_t key)
{
    return "served_mixed k" + std::to_string(key);
}

/** "<pin key> cycles=.. flits=.. latency=.. power=.." lines. */
std::map<std::string, std::string>
loadPins(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read pins file '" + path + "'");
    std::map<std::string, std::string> pins;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t at = line.find(" cycles=");
        if (at == std::string::npos)
            throw std::runtime_error("malformed pin line: " + line);
        pins[line.substr(0, at)] = line.substr(at + 1);
    }
    return pins;
}
/// @}

/** Operations attempted and failed, with the first few causes. */
struct Ledger
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> causes;

    void
    record(bool ok, const std::string& what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (causes.size() < 8)
            causes.push_back(what);
    }
};

/** Check @p d against the pin named @p key; on a mismatch, say why. */
bool
matchesPin(const std::map<std::string, std::string>& pins,
           const std::string& key, const Digest& d, std::string& why)
{
    const auto it = pins.find(key);
    const std::string got = pinText(d);
    if (it == pins.end()) {
        why = "no pin for " + key;
        return false;
    }
    if (it->second != got) {
        why = "pin mismatch " + key + ": want " + it->second + " got " +
              got;
        return false;
    }
    return true;
}

/// @name Output
/// @{

struct Metric
{
    double value = 0.0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}


/** Details kept beside the result: tail percentile bookkeeping and
 * free-form facts. */
struct Details
{
    std::map<std::string, obench::Tail> tails;
    std::map<std::string, double> facts;
};


/// @}

/// @name Host facts
/// @{

std::string
readSmallFile(const std::string& path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string s = ss.str();
    while (!s.empty() && (s.back() == '\n' || s.back() == ' '))
        s.pop_back();
    return s;
}

/** Peak resident set of process @p pid in MiB (VmHWM), 0 if
 * unreadable. */
double
peakRssMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

double
selfPeakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
cpuSeconds()
{
    double total = 0.0;
    for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        rusage ru{};
        ::getrusage(who, &ru);
        total += static_cast<double>(ru.ru_utime.tv_sec) +
                 static_cast<double>(ru.ru_stime.tv_sec) +
                 1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                            ru.ru_stime.tv_usec);
    }
    return total;
}

/**
 * Memory-latency probe kept as provenance, not as a metric: ns per
 * dependent load of a pointer chase through 32 MiB in a fixed random
 * cycle.
 */
double
memoryLatencyNs()
{
    const std::size_t n = (32u << 20) / sizeof(std::size_t);
    std::vector<std::size_t> next(n);
    obench::SplitMix rng(12345);
    const std::vector<std::size_t> order = obench::permutation(n, rng);
    for (std::size_t i = 0; i < n; ++i)
        next[order[i]] = order[(i + 1) % n];
    const std::size_t loads = 4u << 20;
    std::size_t at = order[0];
    const double t0 = now();
    for (std::size_t i = 0; i < loads; ++i)
        at = next[at];
    const double dt = now() - t0;
    volatile std::size_t sink = at; // keeps the chase alive
    (void)sink;
    return dt * 1e9 / static_cast<double>(loads);
}
/// @}

/// @name Daemon plumbing
/// @{

/** One request on a fresh connection; returns the reply line. Throws
 * std::runtime_error when the daemon cannot be reached. */
std::string
request(const std::string& sock, const std::string& line)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error("socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (sock.size() >= sizeof addr.sun_path) {
        ::close(fd);
        throw std::invalid_argument("socket path too long: " + sock);
    }
    std::memcpy(addr.sun_path, sock.c_str(), sock.size() + 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        throw std::runtime_error("connect failed: " +
                                 std::string(std::strerror(errno)));
    }
    const std::string out = line + "\n";
    std::size_t off = 0;
    while (off < out.size()) {
        const ssize_t n = ::write(fd, out.data() + off, out.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            ::close(fd);
            throw std::runtime_error("write to daemon failed");
        }
        off += static_cast<std::size_t>(n);
    }
    std::string reply;
    char buf[8192];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        reply.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    while (!reply.empty() && reply.back() == '\n')
        reply.pop_back();
    return reply;
}

const std::string kStatsLine =
    "{\"schema\":\"orion-served-v1\",\"verb\":\"stats\"}";

std::string
submitLine(const std::vector<std::string>& args)
{
    std::string s = "{\"schema\":\"orion-served-v1\",\"verb\":\"submit\","
                    "\"args\":[";
    for (std::size_t i = 0; i < args.size(); ++i)
        s += (i ? "," : "") + jsonString(args[i]);
    return s + "]}";
}

std::string
resultLine(std::uint64_t job)
{
    return "{\"schema\":\"orion-served-v1\",\"verb\":\"result\",\"job\":" +
           std::to_string(job) + "}";
}

/** A running orion_served; killed and reaped on destruction. */
class Daemon
{
  public:
    Daemon() = default;
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;
    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }

    /**
     * fork/exec @p argv with output to @p log_path, then re-request
     * stats without sleeping until the daemon answers. Returns the
     * seconds from just before exec to the first stats reply.
     */
    double
    start(const std::vector<std::string>& argv, const std::string& sock,
          const std::string& log_path)
    {
        sock_ = sock;
        std::vector<char*> cargv;
        for (const std::string& a : argv)
            cargv.push_back(const_cast<char*>(a.c_str()));
        cargv.push_back(nullptr);
        const double t0 = now();
        pid_ = ::fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL); // never outlive the harness
            const int fd =
                ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                       0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
                ::close(fd);
            }
            ::execv(cargv[0], cargv.data());
            ::_exit(127);
        }
        for (;;) {
            try {
                const std::string reply = request(sock_, kStatsLine);
                if (reply.find("\"ok\":true") != std::string::npos)
                    return now() - t0;
            } catch (const std::runtime_error&) {
            }
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("orion_served exited at start "
                                         "(see " + log_path + ")");
            }
            if (now() - t0 > 30.0)
                throw std::runtime_error("orion_served did not answer");
            ::sched_yield();
        }
    }

    pid_t pid() const { return pid_; }

    /** SIGTERM (graceful drain) and reap; true on exit status 0. */
    bool
    stop()
    {
        if (pid_ <= 0)
            return false;
        ::kill(pid_, SIGTERM);
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

  private:
    pid_t pid_ = -1;
    std::string sock_;
};

/// @}

/// @name Harness state shared by the workloads
/// @{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string pinsPath;
    std::string runDir;
    std::string servedExe;
    std::string simExe;
    bool printPins = false;
};

struct Context
{
    Options opts;
    std::map<std::string, std::string> pins;
    Ledger ledger;
    Metrics metrics;
    Details details;
    SpanRecorder spans;
    /** Spans of served client threads, merged at exit. */
    std::vector<SpanRecorder> clientSpans;
    /** Unit walls of traced and untraced units (trace.overhead_frac). */
    std::vector<double> tracedUnits;
    std::vector<double> plainUnits;
};

/** Median (ms) and tail percentile (ms) of @p v seconds as
 * <prefix>_p50_ms and <prefix>_p95_ms. */
void
setLatency(Context& cx, const std::string& prefix,
           const std::vector<double>& v)
{
    const obench::Tail t = obench::tail(v, 0.95);
    cx.details.tails[prefix + "_p95_ms"] = t;
    cx.metrics[prefix + "_p50_ms"] = {obench::median(v) * 1e3, "ms"};
    cx.metrics[prefix + "_p95_ms"] = {t.value * 1e3, "ms"};
}

/** The end-to-end metrics of an untraced run; every sample vector is
 * in seconds. */
void
reportEndToEnd(Context& cx, const std::vector<double>& setup,
               double flits_per_s, double points_per_s,
               const std::vector<double>& point, double run_p50_s,
               const std::vector<double>& cold,
               const std::vector<double>& warm, double peak_rss_mb)
{
    Metrics& m = cx.metrics;
    m["setup_s"] = {obench::median(setup), "s"};
    m["flits_per_s"] = {flits_per_s, "flits/s"};
    m["points_per_s"] = {points_per_s, "points/s"};
    m["run_p50_s"] = {run_p50_s, "s"};
    m["peak_rss_mb"] = {peak_rss_mb, "MB"};
    setLatency(cx, "point", point);
    setLatency(cx, "cold", cold);
    setLatency(cx, "warm", warm);
}

/** Record a unit wall under the alternating traced/untraced split. */
void
noteUnit(Context& cx, bool traced, double wall)
{
    (traced ? cx.tracedUnits : cx.plainUnits).push_back(wall);
}

/** Entry round trip a checkpoint journal would make: serialize. */
std::string
journalLine(const Report& r)
{
    core::CheckpointEntry e;
    e.report = r;
    return core::serializeEntry(e);
}

/**
 * A "warm" point: an already-computed point re-served from its journal
 * line (parseEntry + a resumed single-point sweep). Returns the wall
 * time; checks the resumed report's digest against @p want.
 */
double
warmPoint(Context& cx, const NetworkConfig& net, double rate,
          const SimConfig& sim, const std::string& line,
          const Digest& want)
{
    const double t0 = now();
    std::vector<core::CheckpointEntry> resume{core::parseEntry(line)};
    SweepOptions o = SweepOptions::withJobs(1);
    o.resume = &resume;
    const std::vector<SweepPoint> p =
        Sweep::overRates(net, uniform(rate), sim, {rate}, o);
    const double dt = now() - t0;
    const Digest got = digestOf(p[0].report, net.net.packetLength);
    cx.ledger.record(p[0].fromCheckpoint && pinText(got) == pinText(want),
                     "resumed point differs from its fresh run");
    return dt;
}
/// @}

/// @name Traced-run probes
/// Each probe times calls into one layer's public functions with the
/// workload's own configuration, under a span named after the layer.
/// @{

/** The workload's representative configuration for the probes. */
struct ProbeConfig
{
    NetworkConfig net;
    double rate = 0.0;
    SimConfig sim;
    /** Pin naming the representative run's digest. */
    std::string pinKey;
    /** Rates of the probe sweep (core.sweep.* outside paper_sweep). */
    std::vector<double> sweepRates;
    /** Submit lines of the workload (core.proto.parse_us). */
    std::vector<std::string> requestLines;
};

/** Representative run with the phase profiler and allocation
 * counting on; returns its report. */
Report
probeRepresentative(Context& cx, const ProbeConfig& pc)
{
    Scope s(cx.spans, "probe.sim.representative");
    SimConfig sim = pc.sim;
    sim.profilePhases = true;
    gAllocs.store(0);
    gCountAllocs.store(true);
    const double t0 = now();
    Simulation run(pc.net, uniform(pc.rate), sim);
    const double t1 = now();
    Report r;
    {
        Scope sr(cx.spans, "sim.run");
        r = run.run();
    }
    const double t2 = now();
    gCountAllocs.store(false);
    cx.spans.add("core.simulation.construct", 0, t0, t1);
    const std::uint64_t allocs = gAllocs.load();

    const Digest d = digestOf(r, pc.net.net.packetLength);
    std::string why = "representative run incomplete";
    cx.ledger.record(r.completed && matchesPin(cx.pins, pc.pinKey, d, why),
                     why);
    const double flits = static_cast<double>(std::max<std::uint64_t>(
        d.flits, 1));
    Metrics& m = cx.metrics;
    const core::PhaseProfiler& pp = *run.phaseProfiler();
    using P = core::PhaseProfiler::Phase;
    m["sim.phase.warmup_s"] = {pp.seconds(P::Warmup), "s"};
    m["sim.phase.measure_s"] = {pp.seconds(P::Measure), "s"};
    m["sim.phase.drain_s"] = {pp.seconds(P::Drain), "s"};
    const double cyc = pp.seconds(P::RouterAdvance) +
                       pp.seconds(P::ChannelAdvance) +
                       pp.seconds(P::Audit) + pp.seconds(P::Periodic);
    const double denom = cyc > 0.0 ? cyc : 1.0;
    m["sim.cycle.router_share"] = {pp.seconds(P::RouterAdvance) / denom,
                                   "fraction"};
    m["sim.cycle.channel_share"] = {pp.seconds(P::ChannelAdvance) / denom,
                                    "fraction"};
    m["sim.cycle.audit_share"] = {pp.seconds(P::Audit) / denom,
                                  "fraction"};
    m["sim.cycles"] = {static_cast<double>(r.totalCycles), "count"};
    m["sim.cycles_per_s"] = {static_cast<double>(r.totalCycles) /
                                 (t2 - t1),
                             "1/s"};
    std::uint64_t events = 0;
    for (const std::uint64_t c : r.eventCounts)
        events += c;
    m["sim.events_per_flit"] = {static_cast<double>(events) / flits,
                                "count"};
    const auto per_flit = [&](sim::EventType t) {
        return static_cast<double>(
                   r.eventCounts[static_cast<unsigned>(t)]) /
               flits;
    };
    using E = sim::EventType;
    m["power.events.buffer_write_per_flit"] = {per_flit(E::BufferWrite),
                                               "count"};
    m["power.events.buffer_read_per_flit"] = {per_flit(E::BufferRead),
                                              "count"};
    m["power.events.arbitration_per_flit"] = {per_flit(E::Arbitration),
                                              "count"};
    m["power.events.vc_allocation_per_flit"] = {
        per_flit(E::VcAllocation), "count"};
    m["power.events.crossbar_per_flit"] = {
        per_flit(E::CrossbarTraversal), "count"};
    m["power.events.link_per_flit"] = {per_flit(E::LinkTraversal),
                                       "count"};
    m["power.events.credit_per_flit"] = {per_flit(E::CreditTransfer),
                                         "count"};
    m["router.hops_per_flit"] = {per_flit(E::CrossbarTraversal), "count"};
    m["alloc.per_flit"] = {static_cast<double>(allocs) / flits, "count"};
    return r;
}

/** Power-relevant events drawn in the representative run's mix, with
 * switching deltas inside each model's valid range. */
std::vector<sim::Event>
eventMix(const Report& r, const NetworkConfig& net,
         const net::PowerModelSet& models, std::size_t n)
{
    using E = sim::EventType;
    const E kinds[] = {E::BufferWrite,   E::BufferRead,
                       E::Arbitration,   E::VcAllocation,
                       E::CrossbarTraversal, E::LinkTraversal,
                       E::CreditTransfer};
    std::uint64_t total = 0;
    for (const E k : kinds)
        total += r.eventCounts[static_cast<unsigned>(k)];
    net::Topology topo(net.net.dims, net.net.wrap);
    obench::SplitMix rng(99);
    std::vector<sim::Event> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t pick = rng.below(std::max<std::uint64_t>(total, 1));
        E type = kinds[0];
        for (const E k : kinds) {
            const std::uint64_t c = r.eventCounts[static_cast<unsigned>(k)];
            if (pick < c) {
                type = k;
                break;
            }
            pick -= c;
        }
        sim::Event ev{};
        ev.type = type;
        ev.node = static_cast<int>(rng.below(topo.numNodes()));
        ev.component = static_cast<int>(rng.below(topo.portsPerRouter()));
        std::uint64_t range_a = net.net.flitBits;
        std::uint64_t range_b = net.net.flitBits;
        const power::ArbiterModel* arb =
            type == E::Arbitration    ? models.switchArbiter.get()
            : type == E::VcAllocation ? models.vcArbiter.get()
                                      : nullptr;
        if (arb != nullptr) {
            range_a = arb->params().requests;
            range_b = std::max(arb->priorityFlipFlops(), 2u);
        }
        ev.deltaA = static_cast<std::uint32_t>(rng.below(range_a + 1));
        ev.deltaB = static_cast<std::uint32_t>(rng.below(range_b + 1));
        out.push_back(ev);
    }
    return out;
}

/** Median ns per call of @p body over @p batches timed batches of
 * @p per_batch calls. */
double
nsPerCall(int batches, std::size_t per_batch,
          const std::function<void()>& body)
{
    std::vector<double> v;
    for (int b = 0; b < batches; ++b) {
        const double t0 = now();
        body();
        v.push_back((now() - t0) * 1e9 / static_cast<double>(per_batch));
    }
    return obench::median(v);
}

void
probeKernelLayers(Context& cx, const ProbeConfig& pc, const Report& rep)
{
    Metrics& m = cx.metrics;
    {
        Scope s(cx.spans, "probe.core.simulation");
        std::vector<double> ctor;
        for (int i = 0; i < 15; ++i) {
            const double t0 = now();
            Simulation sim(pc.net, uniform(pc.rate), pc.sim);
            const double t1 = now();
            cx.spans.add("core.simulation.construct", 0, t0, t1);
            ctor.push_back(t1 - t0);
        }
        m["core.simulation.construct_ms"] = {obench::median(ctor) * 1e3,
                                             "ms"};
    }
    {
        Scope s(cx.spans, "probe.power.build_models");
        std::vector<double> v;
        for (int i = 0; i < 200; ++i) {
            const double t0 = now();
            net::PowerModelSet set = pc.net.buildModels();
            v.push_back(now() - t0);
        }
        m["power.build_models_us"] = {obench::median(v) * 1e6, "us"};
    }
    const net::PowerModelSet models = pc.net.buildModels();
    const std::vector<sim::Event> mix = eventMix(rep, pc.net, models, 4096);
    {
        Scope s(cx.spans, "probe.sim.dispatch");
        Simulation throwaway(pc.net, uniform(pc.rate), pc.sim);
        sim::EventBus& bus = throwaway.simulator().bus();
        m["sim.dispatch_ns"] = {nsPerCall(31, mix.size() * 8,
                                          [&] {
                                              for (int k = 0; k < 8; ++k)
                                                  for (const sim::Event& e :
                                                       mix)
                                                      bus.emit(e);
                                          }),
                                "ns"};
    }
    {
        Scope s(cx.spans, "probe.power.energy_eval");
        volatile double sink = 0.0;
        m["power.energy_eval_ns"] = {
            nsPerCall(31, mix.size() * 8,
                      [&] {
                          double acc = 0.0;
                          for (int k = 0; k < 8; ++k) {
                              for (const sim::Event& e : mix) {
                                  using E = sim::EventType;
                                  switch (e.type) {
                                  case E::BufferWrite:
                                      acc += models.buffer->writeEnergy(
                                          e.deltaA, e.deltaB);
                                      break;
                                  case E::BufferRead:
                                      acc += models.buffer->readEnergy();
                                      break;
                                  case E::Arbitration:
                                      acc += models.switchArbiter
                                                 ->arbitrationEnergy(
                                                     e.deltaA, e.deltaB);
                                      break;
                                  case E::VcAllocation:
                                      acc += models.vcArbiter
                                                 ->arbitrationEnergy(
                                                     e.deltaA, e.deltaB);
                                      break;
                                  case E::CrossbarTraversal:
                                      acc += models.crossbar
                                                 ->traversalEnergy(e.deltaA);
                                      break;
                                  case E::LinkTraversal:
                                      acc += models.onChipLink
                                                 ->traversalEnergy(e.deltaA);
                                      break;
                                  default:
                                      break;
                                  }
                              }
                          }
                          sink = sink + acc;
                      }),
            "ns"};
    }
    {
        Scope s(cx.spans, "probe.router.arbitrate");
        net::Topology topo(pc.net.net.dims, pc.net.net.wrap);
        const unsigned width = topo.portsPerRouter() * pc.net.net.vcs;
        router::MatrixArbiter arb(width);
        obench::SplitMix rng(7);
        std::vector<std::vector<bool>> reqs(1024,
                                            std::vector<bool>(width));
        for (auto& r : reqs)
            for (unsigned i = 0; i < width; ++i)
                r[i] = rng.below(3) == 0;
        volatile int sink = 0;
        m["router.arbitrate_ns"] = {
            nsPerCall(31, reqs.size() * 8,
                      [&] {
                          int acc = 0;
                          for (int k = 0; k < 8; ++k)
                              for (const auto& r : reqs)
                                  acc += arb.arbitrate(r).winner;
                          sink = sink + acc;
                      }),
            "ns"};
    }
    {
        Scope s(cx.spans, "probe.net.route");
        net::Topology topo(pc.net.net.dims, pc.net.net.wrap);
        net::DorRouting routing(topo, net::DorRouting::defaultOrder(topo),
                                pc.net.net.deadlock, pc.net.net.tieBreak);
        obench::SplitMix pick(11);
        std::vector<std::pair<int, int>> pairs;
        while (pairs.size() < 4096) {
            const int a = static_cast<int>(pick.below(topo.numNodes()));
            const int b = static_cast<int>(pick.below(topo.numNodes()));
            if (a != b)
                pairs.emplace_back(a, b);
        }
        sim::Rng rng(5);
        std::vector<router::RouteHop> hops;
        volatile std::size_t sink = 0;
        m["net.route_ns"] = {nsPerCall(31, pairs.size(),
                                       [&] {
                                           std::size_t acc = 0;
                                           for (const auto& [a, b] : pairs) {
                                               routing.routeInto(a, b, rng,
                                                                 hops);
                                               acc += hops.size();
                                           }
                                           sink = sink + acc;
                                       }),
                             "ns"};
    }
}

/** core.sweep.* from one sweep of @p pc.sweepRates at kJobs. */
void
probeSweep(Context& cx, const ProbeConfig& pc)
{
    Scope s(cx.spans, "probe.core.sweep");
    const double t0 = now();
    const std::vector<SweepPoint> pts =
        Sweep::overRates(pc.net, uniform(pc.rate), pc.sim, pc.sweepRates,
                         SweepOptions::withJobs(kJobs));
    const double wall = now() - t0;
    double sum = 0.0;
    double worst = 0.0;
    for (const SweepPoint& p : pts) {
        sum += p.resources.wallSeconds;
        worst = std::max(worst, p.resources.wallSeconds);
        cx.ledger.record(!p.failure && p.report.completed,
                         "probe sweep point failed");
    }
    cx.metrics["core.sweep.busy_frac"] = {sum / (kJobs * wall), "fraction"};
    cx.metrics["core.sweep.straggler_frac"] = {worst / wall, "fraction"};
}

void
probeServiceLayers(Context& cx, const ProbeConfig& pc, const Report& rep)
{
    Metrics& m = cx.metrics;
    {
        Scope s(cx.spans, "probe.core.proto");
        std::vector<std::string> lines = pc.requestLines;
        lines.push_back(resultLine(12));
        lines.push_back(kStatsLine);
        std::vector<double> v;
        for (int b = 0; b < 31; ++b) {
            const double t0 = now();
            for (int k = 0; k < 16; ++k)
                for (const std::string& l : lines)
                    (void)core::proto::parseRequest(l);
            v.push_back((now() - t0) * 1e6 /
                        static_cast<double>(16 * lines.size()));
        }
        m["core.proto.parse_us"] = {obench::median(v), "us"};
    }
    {
        Scope s(cx.spans, "probe.core.cache");
        const std::string dir = cx.opts.runDir + "/cacheprobe";
        fs::remove_all(dir);
        core::CacheOptions co;
        co.dir = dir;
        core::CheckpointEntry e;
        e.report = rep;
        std::vector<std::uint64_t> keys;
        for (std::uint64_t i = 1; i <= 64; ++i) {
            SimConfig sim = pc.sim;
            sim.seed = i;
            keys.push_back(core::sweepFingerprint(
                pc.net, uniform(pc.rate), sim, {pc.rate}, 1));
        }
        std::vector<double> ins;
        {
            core::ResultCache cache(co);
            for (const std::uint64_t k : keys) {
                const double t0 = now();
                cache.insert(k, e);
                const double t1 = now();
                cx.spans.add("core.cache.insert", 0, t0, t1);
                ins.push_back(t1 - t0);
            }
        }
        std::vector<double> open;
        std::vector<double> look;
        for (int r = 0; r < 7; ++r) {
            const double t0 = now();
            core::ResultCache cache(co);
            const double t1 = now();
            cx.spans.add("core.cache.open", 0, t0, t1);
            open.push_back(t1 - t0);
            core::CheckpointEntry out;
            bool all = true;
            const double t2 = now();
            for (const std::uint64_t k : keys)
                all = cache.lookup(k, out) && all;
            look.push_back((now() - t2) / static_cast<double>(keys.size()));
            cx.ledger.record(all && core::serializeEntry(out) ==
                                        core::serializeEntry(e),
                             "cache probe lookup lost an entry");
        }
        fs::remove_all(dir);
        m["core.cache.insert_ms"] = {obench::median(ins) * 1e3, "ms"};
        m["core.cache.open_ms"] = {obench::median(open) * 1e3, "ms"};
        m["core.cache.lookup_us"] = {obench::median(look) * 1e6, "us"};
    }
    {
        Scope s(cx.spans, "probe.core.isolate");
        core::IsolateOptions io;
        io.argv = {cx.opts.simExe, "--preset", "vc16", "--rate", "0.02",
                   "--sample", "1", "--warmup", "0"};
        io.quietStdout = true;
        std::vector<double> v;
        for (int i = 0; i < 11; ++i) {
            const double t0 = now();
            const core::IsolateResult r = core::runIsolated(io);
            const double t1 = now();
            cx.spans.add("core.isolate.run", 0, t0, t1);
            cx.ledger.record(r.exited && r.exitCode == 0,
                             "isolated point: " + r.describe());
            v.push_back(t1 - t0);
        }
        m["core.isolate.spawn_ms"] = {obench::median(v) * 1e3, "ms"};
    }
}

/** served.stats_rtt_us against @p sock (a live daemon). */
void
probeStatsRtt(Context& cx, const std::string& sock)
{
    Scope s(cx.spans, "probe.served.stats");
    std::vector<double> v;
    for (int i = 0; i < 201; ++i) {
        const double t0 = now();
        const std::string reply = request(sock, kStatsLine);
        v.push_back(now() - t0);
        if (reply.find("\"ok\":true") == std::string::npos)
            cx.ledger.record(false, "stats request failed: " + reply);
    }
    cx.metrics["served.stats_rtt_us"] = {obench::median(v) * 1e6, "us"};
}

/**
 * orion_served with in-process workers. Not --isolate: isolated points
 * write their reports under a fixed /tmp directory, and the benchmark
 * writes only inside its checkout; core.isolate is probed directly
 * instead (probeServiceLayers).
 */
std::vector<std::string>
daemonArgv(const Context& cx, const std::string& sock,
           const std::string& cache_dir)
{
    return {cx.opts.servedExe, "--socket", sock,
            "--cache-dir", cache_dir, "--workers", std::to_string(kJobs),
            "--queue-max", "256"};
}

/** Probe daemon for workloads that run none of their own. */
void
probeStatsRttOwnDaemon(Context& cx)
{
    const std::string dir = cx.opts.runDir + "/statsprobe";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string sock = dir + "/s.sock";
    Daemon d;
    d.start(daemonArgv(cx, sock, dir + "/cache"), sock, dir + "/log");
    probeStatsRtt(cx, sock);
    cx.ledger.record(d.stop(), "probe daemon did not stop cleanly");
    fs::remove_all(dir);
}

/** The probes every traced run makes, with the workload's config. */
void
runProbes(Context& cx, const ProbeConfig& pc, bool own_daemon)
{
    Scope s(cx.spans, "probes");
    const Report rep = probeRepresentative(cx, pc);
    probeKernelLayers(cx, pc, rep);
    if (!pc.sweepRates.empty())
        probeSweep(cx, pc);
    probeServiceLayers(cx, pc, rep);
    if (own_daemon)
        probeStatsRttOwnDaemon(cx);
}

/** served.* counters are zero on workloads that send no requests. */
void
noRequests(Context& cx)
{
    cx.metrics["served.hit_frac"] = {0.0, "fraction"};
    cx.metrics["served.polls_per_job"] = {0.0, "count"};
    cx.metrics["served.queue_full"] = {0.0, "count"};
}
/// @}

/// @name Workloads
/// @{

/** Simulation seed of unit @p k: a seeded walk over the pinned
 * universe. */
std::uint64_t
unitSeed(const Options& o, std::uint64_t k)
{
    obench::SplitMix rng(o.seed);
    return 1 + (rng.next() + k) % kSimSeeds;
}

void
paperSweep(Context& cx)
{
    const NetworkConfig net = NetworkConfig::vc16();
    const std::vector<double>& rates = sweepRates();
    const unsigned plen = net.net.packetLength;
    std::vector<double> setup, sweep_wall, point_wall, warm, fps, pps;
    std::vector<double> busy, straggler;

    const double end = now() + cx.opts.seconds;
    const int window = cx.spans.open("window", 0);
    for (std::uint64_t k = 0; now() < end || k < 2; ++k) {
        const bool traced = cx.opts.trace && (k % 2 == 1);
        cx.spans.setEnabled(traced);
        const std::uint64_t seed = unitSeed(cx.opts, k);
        const SimConfig sim = paperSim(seed);
        Scope unit(cx.spans, "unit.sweep", k);

        double t0 = now();
        std::vector<SweepPoint> pts;
        {
            Scope s(cx.spans, "core.sweep.overRates", k);
            pts = Sweep::overRates(net, uniform(0.0), sim, rates,
                                   SweepOptions::withJobs(kJobs));
        }
        const double wall = now() - t0;
        noteUnit(cx, traced, wall);

        std::vector<std::string> lines;
        std::vector<Digest> digests;
        std::uint64_t flits = 0;
        double sum = 0.0;
        double worst = 0.0;
        {
            Scope s(cx.spans, "harness.check", k);
            for (std::size_t i = 0; i < pts.size(); ++i) {
                const SweepPoint& p = pts[i];
                const Digest d = digestOf(p.report, plen);
                std::string why = "sweep point failed or incomplete";
                cx.ledger.record(!p.failure && p.report.completed &&
                                     matchesPin(cx.pins, sweepPinKey(i, seed),
                                                d, why),
                                 why);
                flits += d.flits;
                point_wall.push_back(p.resources.wallSeconds);
                sum += p.resources.wallSeconds;
                worst = std::max(worst, p.resources.wallSeconds);
                digests.push_back(d);
                lines.push_back(journalLine(p.report));
            }
        }
        sweep_wall.push_back(wall);
        fps.push_back(static_cast<double>(flits) / wall);
        pps.push_back(static_cast<double>(pts.size()) / wall);
        busy.push_back(sum / (kJobs * wall));
        straggler.push_back(worst / wall);

        for (int pass = 0; pass < 8; ++pass) {
            for (std::size_t i = 0; i < pts.size(); ++i) {
                Scope s(cx.spans, "core.checkpoint.resume", k);
                warm.push_back(
                    warmPoint(cx, net, rates[i], sim, lines[i], digests[i]));
            }
        }
        for (std::size_t i = 0; i < rates.size(); ++i) {
            t0 = now();
            Simulation s(net, uniform(rates[i]), sim);
            const double t1 = now();
            cx.spans.add("core.simulation.construct", k, t0, t1);
            setup.push_back(t1 - t0);
        }
    }
    cx.spans.setEnabled(cx.opts.trace);
    cx.spans.close(window);

    Metrics& m = cx.metrics;
    cx.details.facts["sweeps"] = static_cast<double>(sweep_wall.size());
    if (!cx.opts.trace) {
        // A point is a sweep point, computed fresh; a run is one sweep.
        reportEndToEnd(cx, setup, obench::median(fps), obench::median(pps),
                       point_wall, obench::median(sweep_wall), point_wall,
                       warm, selfPeakRssMb());
        return;
    }
    m["core.sweep.busy_frac"] = {obench::median(busy), "fraction"};
    m["core.sweep.straggler_frac"] = {obench::median(straggler),
                                      "fraction"};
    noRequests(cx);
    ProbeConfig pc;
    pc.net = net;
    pc.rate = rates[4];
    // Seed of rate index 4 in a seed-1 sweep, so the pin applies.
    pc.sim = paperSim(sim::deriveSeed(1, 4, 0));
    pc.pinKey = sweepPinKey(4, 1);
    pc.requestLines = {submitLine({"--preset", "vc16", "--seed", "1"})};
    runProbes(cx, pc, true);
}

/** One request of a served client, as observed by the client. */
struct Outcome
{
    std::size_t key = 0;
    bool ok = false;
    std::string error;
    double latency = 0.0;
    std::uint64_t polls = 0;
    bool traced = false;
    /** The job's "result" text (kept for misses only) and its
     * "cache_hits" count. */
    std::string result;
    std::uint64_t cacheHits = 0;
    /** Hits: the result bytes equal the key's fresh result. */
    bool sameAsFresh = false;
};

/** Submit one job and re-poll its result, pausing @p gap between
 * polls (zero: re-poll without sleeping). */
Outcome
serveOne(const std::string& sock, std::size_t key, SpanRecorder& rec,
         std::uint64_t unit, std::chrono::microseconds gap)
{
    Outcome out;
    out.key = key;
    out.traced = rec.enabled();
    Scope u(rec, "unit.request", unit);
    const double t0 = now();
    std::uint64_t job = 0;
    {
        Scope s(rec, "served.submit", unit);
        const std::string reply = request(sock, submitLine(servedArgs(key)));
        const std::size_t at = reply.find("\"job\":");
        if (reply.find("\"ok\":true") == std::string::npos ||
            at == std::string::npos) {
            out.error = "submit rejected: " + reply;
            return out;
        }
        job = std::strtoull(reply.c_str() + at + 6, nullptr, 10);
    }
    Scope s(rec, "served.await_result", unit);
    const std::string line = resultLine(job);
    for (;;) {
        const std::string reply = request(sock, line);
        ++out.polls;
        if (reply.find("\"not_ready\"") != std::string::npos) {
            if (gap.count() > 0)
                std::this_thread::sleep_for(gap);
            else
                ::sched_yield();
            continue;
        }
        out.latency = now() - t0;
        try {
            const core::proto::JsonValue v = core::proto::parseJson(reply);
            const core::proto::JsonValue* ok = v.find("ok");
            const core::proto::JsonValue* res = v.find("result");
            const core::proto::JsonValue* hits = v.find("cache_hits");
            if (ok == nullptr || !ok->boolean || res == nullptr ||
                hits == nullptr) {
                out.error = "result failed: " + reply;
                return out;
            }
            out.result = res->text;
            out.cacheHits = static_cast<std::uint64_t>(hits->number);
            out.ok = true;
        } catch (const std::exception& e) {
            out.error = std::string("bad result reply: ") + e.what();
        }
        return out;
    }
}

/** Digest of a served result text (one serialized entry line). */
bool
servedDigest(const std::string& text, Digest& d, std::string& why)
{
    std::string line = text;
    while (!line.empty() && line.back() == '\n')
        line.pop_back();
    if (line.find('\n') != std::string::npos) {
        why = "result holds more than one point";
        return false;
    }
    try {
        const core::CheckpointEntry e = core::parseEntry(line);
        if (e.failed || !e.report.completed) {
            why = "point failed or incomplete";
            return false;
        }
        d = digestOf(e.report, NetworkConfig::vc16().net.packetLength);
        return true;
    } catch (const std::exception& e) {
        why = e.what();
        return false;
    }
}

void
servedMixed(Context& cx)
{
    const std::string dir = cx.opts.runDir + "/served";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string sock = dir + "/s.sock";
    const std::string cache_dir = dir + "/cache";
    const std::string log = dir + "/daemon.log";
    const std::vector<std::string> argv = daemonArgv(cx, sock, cache_dir);
    const obench::Schedule plan = obench::makeSchedule(
        cx.opts.seed, kServedKeys, kServedHitKeys, kServedRepeats);

    // Pre-fill: compute every hit key fresh through the daemon; those
    // bytes are what later cache hits must reproduce.
    std::map<std::size_t, std::string> fresh;
    {
        Scope s(cx.spans, "setup.prefill");
        Daemon d;
        d.start(argv, sock, log);
        std::vector<std::pair<std::size_t, std::uint64_t>> jobs;
        for (const std::size_t key : plan.hitKeys) {
            const std::string reply =
                request(sock, submitLine(servedArgs(key)));
            const std::size_t at = reply.find("\"job\":");
            if (at == std::string::npos)
                throw std::runtime_error("prefill submit rejected: " + reply);
            jobs.emplace_back(key, std::strtoull(reply.c_str() + at + 6,
                                                 nullptr, 10));
        }
        for (const auto& [key, job] : jobs) {
            for (;;) {
                const std::string reply = request(sock, resultLine(job));
                if (reply.find("\"not_ready\"") != std::string::npos) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(2));
                    continue;
                }
                const core::proto::JsonValue v =
                    core::proto::parseJson(reply);
                const core::proto::JsonValue* res = v.find("result");
                if (res == nullptr)
                    throw std::runtime_error("prefill failed: " + reply);
                fresh[key] = res->text;
                break;
            }
        }
        if (!d.stop())
            throw std::runtime_error("prefill daemon did not stop cleanly");
        for (const auto& [key, text] : fresh) {
            Digest dg;
            std::string why;
            cx.ledger.record(servedDigest(text, dg, why) &&
                                 matchesPin(cx.pins, servedPinKey(key), dg,
                                            why),
                             "pre-filled k" + std::to_string(key) + ": " +
                                 why);
        }
    }

    // Set-up: exec -> first stats reply (cache replay included),
    // several times; the last daemon serves the window.
    std::vector<double> setup;
    Daemon daemon;
    for (int i = 0; i < kServedStarts; ++i) {
        Scope s(cx.spans, "setup.daemon_start");
        if (i > 0 && !daemon.stop())
            cx.ledger.record(false,
                             "daemon did not stop cleanly between starts");
        setup.push_back(daemon.start(argv, sock, log));
    }

    // Window: two closed-loop clients, each waiting for its result
    // before sending the next request. Client 0 re-asks pre-filled keys
    // (hits), client 1 asks fresh keys (misses); kept apart, a hit
    // never waits behind the same client's simulation. The pacer holds
    // them to kHitsPerMiss hits per miss: each batch of hits runs
    // beside one miss, after the previous miss's cache insert.
    std::vector<std::vector<Outcome>> outcomes(2);
    cx.clientSpans.assign(2, SpanRecorder(false));
    obench::Pacer pace(kHitsPerMiss);
    bool exhausted = false;
    double rss = 0.0;
    const double t_start = now();
    const double end = t_start + cx.opts.seconds;
    {
        const auto client = [&](unsigned c, std::size_t i, std::size_t key) {
            SpanRecorder& rec = cx.clientSpans[c];
            rec.setEnabled(cx.opts.trace && i % 2 == 1 &&
                           i < kTracedRequests);
            Outcome o;
            try {
                o = serveOne(sock, key, rec, c * 1000000000 + i,
                             c == 0 ? std::chrono::microseconds{0}
                                    : kMissPollGap);
            } catch (const std::exception& e) {
                o.key = key;
                o.error = e.what();
            }
            outcomes[c].push_back(std::move(o));
        };
        std::thread repeat([&] {
            for (std::size_t h = 0; pace.awaitHit(h); ++h) {
                const std::size_t key =
                    plan.repeats[h % plan.repeats.size()];
                client(0, h, key);
                Outcome& o = outcomes[0].back();
                o.sameAsFresh = o.result == fresh.at(key);
                o.result.clear();
                pace.hitDone();
            }
        });
        std::size_t m = 0;
        for (; m < plan.fresh.size() && (now() < end || m < kRssMisses);
             ++m) {
            pace.awaitMiss(m);
            client(1, m, plan.fresh[m]);
            if (pace.missDone() == kRssMisses)
                rss = peakRssMb(daemon.pid());
        }
        exhausted = m == plan.fresh.size();
        pace.stop();
        repeat.join();
    }
    const double window = now() - t_start;
    if (exhausted)
        cx.ledger.record(false, "served key universe exhausted before the "
                                "window ended");

    // The daemon's own counters, then shutdown.
    const std::string stats = request(sock, kStatsLine);
    if (cx.opts.trace)
        probeStatsRtt(cx, sock);
    cx.ledger.record(daemon.stop(), "daemon did not stop cleanly");

    std::vector<double> all, cold, warm, warm_traced, warm_plain;
    std::uint64_t polls = 0;
    std::uint64_t flits = 0;
    for (unsigned c = 0; c < 2; ++c) {
        for (const Outcome& o : outcomes[c]) {
            const std::string key = "k" + std::to_string(o.key);
            if (!o.ok) {
                cx.ledger.record(false, key + ": " + o.error);
                continue;
            }
            polls += o.polls;
            all.push_back(o.latency);
            if (c == 0) {
                cx.ledger.record(o.cacheHits == 1 && o.sameAsFresh,
                                 "hit " + key + " not served from the "
                                 "cache or bytes differ from its fresh "
                                 "result");
                warm.push_back(o.latency);
                (o.traced ? warm_traced : warm_plain).push_back(o.latency);
                continue;
            }
            Digest d;
            std::string why = "answered from the cache";
            cx.ledger.record(o.cacheHits == 0 &&
                                 servedDigest(o.result, d, why) &&
                                 matchesPin(cx.pins, servedPinKey(o.key), d,
                                            why),
                             "miss " + key + ": " + why);
            flits += d.flits;
            cold.push_back(o.latency);
        }
    }
    const std::uint64_t hits = warm.size();
    const std::uint64_t jobs = all.size();

    const core::proto::JsonValue sv = core::proto::parseJson(stats);
    const core::proto::JsonValue* server = sv.find("server");
    const auto counter = [&](const char* name) {
        const core::proto::JsonValue* v =
            server != nullptr ? server->find(name) : nullptr;
        return v != nullptr ? v->number : -1.0;
    };
    const double queue_full = counter("rejected_queue_full");
    if (counter("points_from_cache") != static_cast<double>(hits) ||
        counter("points_computed") !=
            static_cast<double>(jobs - hits) ||
        counter("failed") != 0.0)
        cx.ledger.record(false,
                         "daemon counters disagree with the clients: " +
                             stats);

    Metrics& m = cx.metrics;
    Details& det = cx.details;
    det.facts["window_s"] = window;
    det.facts["jobs"] = static_cast<double>(jobs);
    det.facts["hits"] = static_cast<double>(hits);
    det.facts["hit_frac"] =
        jobs ? static_cast<double>(hits) / static_cast<double>(jobs) : 0.0;
    det.facts["rss_at_misses"] = static_cast<double>(kRssMisses);
    if (!cx.opts.trace) {
        // A point and a run are both one single-point job.
        reportEndToEnd(cx, setup, static_cast<double>(flits) / window,
                       static_cast<double>(jobs) / window, all,
                       obench::median(all), cold, warm, rss);
        fs::remove_all(dir);
        return;
    }
    cx.tracedUnits = warm_traced;
    cx.plainUnits = warm_plain;
    m["served.hit_frac"] = {jobs ? static_cast<double>(hits) /
                                       static_cast<double>(jobs)
                                 : 0.0,
                            "fraction"};
    m["served.polls_per_job"] = {jobs ? static_cast<double>(polls) /
                                            static_cast<double>(jobs)
                                      : 0.0,
                                 "count"};
    m["served.queue_full"] = {queue_full, "count"};

    ProbeConfig pc;
    pc.net = NetworkConfig::vc16();
    const cli::Options o = cli::parse(servedArgs(0));
    pc.rate = o.traffic.injectionRate;
    pc.sim = o.sim;
    pc.pinKey = servedPinKey(0);
    for (const std::string& r : kServedRates)
        pc.sweepRates.push_back(std::strtod(r.c_str(), nullptr));
    for (std::size_t i = 0; i < 16; ++i) {
        pc.requestLines.push_back(submitLine(servedArgs(plan.repeats[i])));
        pc.requestLines.push_back(submitLine(servedArgs(plan.fresh[i])));
    }
    // The served representative run must use the daemon's derived
    // seed so its digest is the pinned one.
    pc.sim.seed = sim::deriveSeed(o.sim.seed, 0, 0);
    runProbes(cx, pc, false);
    fs::remove_all(dir);
}
/// @}

/// @name Pins regeneration
/// @{

/** Compute every pinned digest in-process and print the pins file. */
int
printPins()
{
    std::printf("# Pinned digests of every simulated result the benchmark "
                "checks.\n# Regenerate: python3 orion_bench/run.py "
                "--regen-pins\n");
    const NetworkConfig vc16 = NetworkConfig::vc16();
    const unsigned plen = vc16.net.packetLength;
    for (std::uint64_t seed = 1; seed <= kSimSeeds; ++seed) {
        const std::vector<SweepPoint> pts =
            Sweep::overRates(vc16, uniform(0.0), paperSim(seed),
                             sweepRates(), SweepOptions::withJobs(kJobs));
        for (std::size_t i = 0; i < pts.size(); ++i)
            std::printf("%s %s\n", sweepPinKey(i, seed).c_str(),
                        pinText(digestOf(pts[i].report, plen)).c_str());
    }
    // Served keys run as the daemon runs them: a single-point sweep.
    std::vector<std::string> lines(kServedKeys);
    core::parallelFor(kJobs, kServedKeys, [&](std::size_t key) {
        const cli::Options o = cli::parse(servedArgs(key));
        const std::vector<SweepPoint> p = Sweep::overRates(
            o.network, o.traffic, o.sim, {o.traffic.injectionRate},
            SweepOptions::withJobs(1));
        lines[key] = servedPinKey(key) + " " +
                     pinText(digestOf(p[0].report,
                                      o.network.net.packetLength));
    });
    for (const std::string& l : lines)
        std::printf("%s\n", l.c_str());
    return 0;
}
/// @}

Options
parseArgs(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::strtod(value().c_str(), nullptr);
        else if (a == "--trace")
            o.trace = value() == "1";
        else if (a == "--pins")
            o.pinsPath = value();
        else if (a == "--run-dir")
            o.runDir = value();
        else if (a == "--served")
            o.servedExe = value();
        else if (a == "--sim")
            o.simExe = value();
        else if (a == "--print-pins")
            o.printPins = true;
        else
            throw std::invalid_argument("unknown option " + a);
    }
    return o;
}

/** Write the spans (all threads) and their self time; returns true
 * when every recorder's spans nest. */
bool
writeSpans(const Context& cx, const std::string& path,
           std::map<std::string, double>& self_by_name,
           double& unattributed)
{
    std::vector<const SpanRecorder*> recs{&cx.spans};
    for (const SpanRecorder& r : cx.clientSpans)
        recs.push_back(&r);
    std::ofstream out(path);
    out << "{\"spans\":[";
    bool nest = true;
    bool first = true;
    double unit_total = 0.0;
    double unit_self = 0.0;
    for (std::size_t t = 0; t < recs.size(); ++t) {
        const std::vector<obench::Span>& spans = recs[t]->spans();
        nest = nest && obench::spansNest(spans);
        const std::vector<double> self = obench::selfTimes(spans);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const obench::Span& s = spans[i];
            self_by_name[s.name] += self[i];
            if (s.name.rfind("unit.", 0) == 0) {
                unit_total += s.end - s.start;
                unit_self += self[i];
            }
            out << (first ? "" : ",") << "\n{\"thread\":" << t
                << ",\"name\":" << jsonString(s.name)
                << ",\"start\":" << number(s.start)
                << ",\"end\":" << number(s.end) << ",\"parent\":" << s.parent
                << ",\"unit\":" << s.unit << "}";
            first = false;
        }
    }
    out << "\n],\"self_time_s\":{";
    first = true;
    for (const auto& [name, secs] : self_by_name) {
        out << (first ? "" : ",") << jsonString(name) << ":" << number(secs);
        first = false;
    }
    out << "}}\n";
    unattributed = unit_total > 0.0 ? unit_self / unit_total : 0.0;
    return nest;
}

std::string
provenanceJson(const std::string& load_before, double mem_ns)
{
    const core::BuildInfo& b = core::buildInfo();
    std::string s = "{\"nproc\":" +
                    std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
    s += ",\"loadavg_before\":" + jsonString(load_before);
    s += ",\"loadavg_after\":" + jsonString(readSmallFile("/proc/loadavg"));
    s += ",\"mem_latency_ns\":" + number(mem_ns);
    s += ",\"build\":{\"compiler\":" + jsonString(b.compiler) +
         ",\"flags\":" + jsonString(b.flags) +
         ",\"git_sha\":" + jsonString(b.gitSha) +
         ",\"build_type\":" + jsonString(b.buildType) + "}}";
    return s;
}

int
runWorkload(Context& cx)
{
    const std::string load_before = readSmallFile("/proc/loadavg");
    const double wall0 = now();
    const double cpu0 = cpuSeconds();
    cx.spans.setEnabled(cx.opts.trace);

    if (cx.opts.workload == "paper_sweep")
        paperSweep(cx);
    else if (cx.opts.workload == "served_mixed")
        servedMixed(cx);
    else
        throw std::invalid_argument("unknown workload '" +
                                    cx.opts.workload + "'");

    bool nest = true;
    if (cx.opts.trace) {
        std::map<std::string, double> self;
        double unattributed = 0.0;
        nest = writeSpans(cx, cx.opts.runDir + "/spans.json", self,
                          unattributed);
        if (!nest)
            cx.ledger.record(false, "recorded spans do not nest");
        const double traced = obench::median(cx.tracedUnits);
        const double plain = obench::median(cx.plainUnits);
        cx.metrics["trace.overhead_frac"] = {
            plain > 0.0 ? traced / plain - 1.0 : 0.0, "fraction"};
        cx.metrics["trace.unattributed_frac"] = {unattributed, "fraction"};
        cx.metrics["host.cpu_frac"] = {(cpuSeconds() - cpu0) /
                                           (now() - wall0),
                                       "fraction"};
        std::fprintf(stderr, "self time by span (s):\n");
        for (const auto& [name, secs] : self)
            std::fprintf(stderr, "  %-36s %.6f\n", name.c_str(), secs);
    }

    // Details file: provenance, tail bookkeeping, facts, failures. The
    // memory probe runs last so its buffers never count in peak_rss_mb.
    const double mem_ns = memoryLatencyNs();
    std::string det = "{\"workload\":" + jsonString(cx.opts.workload) +
                      ",\"seed\":" + std::to_string(cx.opts.seed) +
                      ",\"trace\":" + (cx.opts.trace ? "true" : "false") +
                      ",\"provenance\":" + provenanceJson(load_before, mem_ns);
    det += ",\"tails\":{";
    bool first = true;
    for (const auto& [name, t] : cx.details.tails) {
        det += (first ? "" : ",") + jsonString(name) +
               ":{\"q\":" + number(t.q) + ",\"n\":" + std::to_string(t.n) +
               ",\"beyond\":" + std::to_string(t.beyond) + "}";
        first = false;
    }
    det += "},\"facts\":{";
    first = true;
    for (const auto& [name, v] : cx.details.facts) {
        det += (first ? "" : ",") + jsonString(name) + ":" + number(v);
        first = false;
    }
    det += "},\"failures\":[";
    for (std::size_t i = 0; i < cx.ledger.causes.size(); ++i)
        det += (i ? "," : "") + jsonString(cx.ledger.causes[i]);
    det += "]}";
    std::ofstream(cx.opts.runDir + "/details.json") << det << "\n";
    for (const std::string& c : cx.ledger.causes)
        std::fprintf(stderr, "orion_perf: FAILED: %s\n", c.c_str());

    std::string line = "{\"correct\":";
    line += cx.ledger.failed == 0 && nest ? "true" : "false";
    line += ",\"attempted\":" + std::to_string(cx.ledger.attempted);
    line += ",\"failed\":" + std::to_string(cx.ledger.failed);
    line += ",\"metrics\":{";
    first = true;
    for (const auto& [name, mv] : cx.metrics) {
        line += (first ? "" : ",") + jsonString(name) + ":{\"value\":" +
                number(mv.value) + ",\"unit\":" + jsonString(mv.unit) + "}";
        first = false;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        Context cx;
        cx.opts = parseArgs(argc, argv);
        if (cx.opts.printPins)
            return printPins();
        if (cx.opts.runDir.empty() || cx.opts.pinsPath.empty() ||
            cx.opts.servedExe.empty() || cx.opts.simExe.empty())
            throw std::invalid_argument(
                "--run-dir, --pins, --served and --sim are required");
        std::signal(SIGPIPE, SIG_IGN);
        fs::create_directories(cx.opts.runDir);
        cx.pins = loadPins(cx.opts.pinsPath);
        return runWorkload(cx);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "orion_perf: %s\n", e.what());
        return 2;
    }
}
