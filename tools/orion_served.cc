/**
 * @file
 * orion_served: the resident sweep service (docs/ROBUSTNESS.md,
 * "Resident service"; recipes in EXPERIMENTS.md).
 *
 * A long-running batch daemon speaking newline-delimited JSON over a
 * Unix-domain socket (core/proto.hh). Jobs are orion_sim-style
 * configurations plus a rate grid; results are checkpoint-entry
 * lines whose hexfloat doubles make them byte-reproducible. With
 * --cache-dir every computed point lands in a persistent
 * content-hashed cache (core/cache.hh) that survives SIGKILL and
 * serves repeated points without running the simulator.
 *
 * Lifecycle: SIGTERM/SIGINT stops accepting connections, cancels
 * queued jobs, drains in-flight ones, persists the cache manifest
 * and writes a shutdown manifest. SIGKILL loses none of the
 * acknowledged cache inserts (append + fsync per entry).
 *
 * Exit codes: 0 clean shutdown, 1 usage or socket setup failure.
 */
#include <csignal>
#include <cstdint>
#include <cstring>
#include <exception>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/cache.hh"
#include "core/cancel.hh"
#include "core/cli.hh"
#include "core/log.hh"
#include "core/manifest.hh"
#include "core/proto.hh"
#include "core/server.hh"

namespace {

using orion::core::CancelToken;
using orion::core::ResultCache;
using orion::core::Server;
using orion::core::flags::fail;

constexpr std::size_t kMaxRequestBytes = 1 << 20;

std::string
okPrefix()
{
    return std::string("{\"schema\":") +
           orion::core::proto::jsonString(
               orion::core::proto::kSchema) +
           ",\"ok\":true";
}

/** The server counters object. The stats reply adds jobs_resident;
 * the shutdown manifest keeps its original fields. */
std::string
serverStatsJson(const orion::core::ServerStats& s, bool with_resident)
{
    std::ostringstream out;
    out << "{\"submitted\":" << s.submitted
        << ",\"rejected_queue_full\":" << s.rejectedQueueFull
        << ",\"completed\":" << s.completed
        << ",\"failed\":" << s.failed
        << ",\"cancelled\":" << s.cancelled
        << ",\"queue_depth\":" << s.queueDepth
        << ",\"running\":" << s.running
        << ",\"points_computed\":" << s.pointsComputed
        << ",\"points_from_cache\":" << s.pointsFromCache;
    if (with_resident)
        out << ",\"jobs_resident\":" << s.jobsResident;
    out << "}";
    return out.str();
}

std::string
handleSubmit(const orion::core::proto::Request& req, Server& server,
             const orion::cli::DaemonArgs& dopts)
{
    namespace proto = orion::core::proto;
    orion::core::JobSpec spec;
    try {
        const orion::cli::Options o = orion::cli::parse(req.args);
        if (o.helpRequested) {
            return proto::errorReply(
                "bad_request", "--help is not a submittable job");
        }
        spec.network = o.network;
        spec.traffic = o.traffic;
        spec.sim = o.sim;
        if (req.rates.empty()) {
            spec.rates = {o.traffic.injectionRate};
        } else {
            spec.rates = orion::cli::parseRateSpec(req.rates);
        }
        // Every point of the grid must validate, not just the base
        // configuration cli::parse checked (a NaN can hide in the
        // rates spec as easily as in --rate).
        for (const double rate : spec.rates) {
            orion::TrafficConfig t = o.traffic;
            t.injectionRate = rate;
            orion::validateTraffic(o.network, t);
        }
    } catch (const std::invalid_argument& e) {
        return proto::errorReply("invalid_config", e.what());
    }
    spec.timeoutSeconds = req.timeoutSeconds;
    // Only isolated workers read the flags; in-process jobs leave
    // them out.
    if (!dopts.isolateExe.empty())
        spec.argv = req.args;

    std::string code;
    std::string message;
    const std::uint64_t id = server.submit(spec, code, message);
    if (id == 0)
        return proto::errorReply(code, message);
    return okPrefix() + ",\"job\":" + std::to_string(id) +
           ",\"state\":\"queued\"}";
}

std::string
handleRequest(const std::string& line, Server& server,
              ResultCache* cache, const orion::cli::DaemonArgs& dopts)
{
    namespace proto = orion::core::proto;
    proto::Request req;
    try {
        req = proto::parseRequest(line);
    } catch (const proto::ProtoError& e) {
        return proto::errorReply(e.code(), e.what());
    }

    if (req.verb == "submit")
        return handleSubmit(req, server, dopts);

    if (req.verb == "stats") {
        std::string out = okPrefix();
        out += ",\"server\":" + serverStatsJson(server.stats(), true);
        if (cache != nullptr)
            out += ",\"cache\":" + cache->manifestJson();
        out += "}";
        return out;
    }

    orion::core::JobStatus js;
    if (!server.status(req.job, js)) {
        if (server.retired(req.job))
            return proto::expiredReply(req.job,
                                       orion::core::kRetainedJobs);
        return proto::errorReply(
            "unknown_job", "no job " + std::to_string(req.job));
    }
    if (req.verb == "status") {
        std::string out = okPrefix();
        out += ",\"job\":" + std::to_string(js.id);
        out += ",\"state\":\"";
        out += orion::core::jobStateName(js.state);
        out += "\",\"done\":" + std::to_string(js.pointsDone);
        out += ",\"total\":" + std::to_string(js.pointsTotal);
        out += ",\"cache_hits\":" + std::to_string(js.cacheHits);
        if (!js.error.empty())
            out += ",\"message\":" + proto::jsonString(js.error);
        out += "}";
        return out;
    }
    if (req.verb == "result") {
        if (js.state == orion::core::JobState::Done) {
            std::string out = okPrefix();
            out += ",\"job\":" + std::to_string(js.id);
            out += ",\"state\":\"done\",\"cache_hits\":" +
                   std::to_string(js.cacheHits);
            out += ",\"result\":" + proto::jsonString(js.resultText);
            out += "}";
            return out;
        }
        if (js.state == orion::core::JobState::Failed)
            return proto::errorReply("job_failed", js.error);
        if (js.state == orion::core::JobState::Cancelled)
            return proto::errorReply("cancelled", js.error);
        return proto::errorReply(
            "not_ready", std::string("job is ") +
                             orion::core::jobStateName(js.state));
    }
    if (req.verb == "cancel") {
        server.cancelJob(req.job);
        return okPrefix() + ",\"job\":" + std::to_string(req.job) +
               "}";
    }
    return proto::errorReply("bad_request",
                             "unhandled verb '" + req.verb + "'");
}

int
listenOn(const std::string& path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path)
        fail("orion_served", "socket path too long: '" + path + "'");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    ::unlink(path.c_str()); // stale socket from a SIGKILLed daemon
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        fail("orion_served", "cannot create socket");
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(fd, 64) != 0) {
        ::close(fd);
        fail("orion_served", "cannot bind/listen on '" + path + "'");
    }
    return fd;
}

std::string
shutdownManifestJson(Server& server, ResultCache* cache, int sig)
{
    namespace proto = orion::core::proto;
    std::string out = "{\"schema\":\"orion-served-shutdown-v1\"";
    out += ",\"signal\":" + std::to_string(sig);
    out += ",\"server\":" + serverStatsJson(server.stats(), false);
    if (cache != nullptr)
        out += ",\"cache\":" + cache->manifestJson();
    out += "}\n";
    return out;
}

int
daemonMain(const orion::cli::DaemonArgs& dopts)
{
    using orion::core::log::Level;
    namespace log = orion::core::log;

    std::unique_ptr<ResultCache> cache;
    if (!dopts.cacheDir.empty()) {
        orion::core::CacheOptions copts;
        copts.dir = dopts.cacheDir;
        copts.maxEntries = dopts.cacheMaxEntries;
        copts.segmentEntries = dopts.cacheSegmentEntries;
        cache = std::make_unique<ResultCache>(copts);
        const orion::core::CacheStats cs = cache->stats();
        log::diag(Level::Info, "served.cache_loaded",
                  log::strf("orion_served: cache '%s': %llu entries, "
                            "%llu segments, %llu quarantined\n",
                            dopts.cacheDir.c_str(),
                            static_cast<unsigned long long>(
                                cs.entries),
                            static_cast<unsigned long long>(
                                cs.segments),
                            static_cast<unsigned long long>(
                                cs.quarantined)),
                  {log::u64("entries", cs.entries),
                   log::u64("segments", cs.segments),
                   log::u64("quarantined", cs.quarantined)});
    }

    orion::core::ServerOptions sopts;
    sopts.workers = dopts.workers;
    sopts.queueMax = dopts.queueMax;
    sopts.retry.maxAttempts = dopts.retries;
    sopts.retry.backoffMs = dopts.backoffMs;
    sopts.defaultTimeoutSeconds = dopts.defaultTimeoutSeconds;
    if (!dopts.isolateExe.empty())
        sopts.worker = orion::core::WorkerCommand{dopts.isolateExe, {},
                                                  0, 0};
    sopts.cache = cache.get();
    Server server(sopts);

    const int fd = listenOn(dopts.socketPath);
    log::diag(Level::Info, "served.listening",
              "orion_served: listening on " + dopts.socketPath +
                  "\n",
              {log::str("socket", dopts.socketPath),
               log::u64("queue_max", dopts.queueMax),
               log::u64("workers", dopts.workers)});

    const CancelToken& stop = orion::core::interruptToken();
    while (!stop.cancelled()) {
        pollfd p{};
        p.fd = fd;
        p.events = POLLIN;
        const int r = ::poll(&p, 1, 200);
        if (r <= 0)
            continue; // timeout or EINTR: recheck the stop token
        const int conn = ::accept(fd, nullptr, nullptr);
        if (conn < 0)
            continue;
        std::string line;
        // A client that went away has nothing to salvage.
        if (orion::core::proto::readLine(conn, line, kMaxRequestBytes))
            orion::core::proto::writeLine(
                conn, handleRequest(line, server, cache.get(), dopts));
        ::close(conn);
    }

    // Graceful drain: stop accepting, finish in-flight jobs, persist
    // what a restart needs.
    const int sig = orion::core::interruptSignal();
    log::diag(Level::Info, "served.draining",
              "orion_served: draining (signal " +
                  std::to_string(sig) + ")\n",
              {log::u64("signal", static_cast<std::uint64_t>(
                                      sig < 0 ? 0 : sig))});
    ::close(fd);
    ::unlink(dopts.socketPath.c_str());
    server.drain();
    if (cache != nullptr)
        cache->writeManifest();
    if (!dopts.manifestOut.empty()) {
        orion::core::writeFileAtomic(
            dopts.manifestOut,
            shutdownManifestJson(server, cache.get(), sig));
    }
    log::diag(Level::Info, "served.stopped",
              "orion_served: stopped\n", {});
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    using orion::core::log::Level;
    namespace log = orion::core::log;

    std::vector<std::string> args(argv + 1, argv + argc);
    try {
        const orion::cli::DaemonArgs dopts = orion::cli::parseDaemon(args);
        if (dopts.helpRequested) {
            std::cout << "usage: orion_served --socket PATH [options]\n"
                      << orion::core::flags::help(orion::cli::kDaemonFlags);
            return 0;
        }
        log::configureCli(dopts.logOut, dopts.logLevel);
        std::signal(SIGPIPE, SIG_IGN);
        orion::core::installInterruptHandlers();
        return daemonMain(dopts);
    } catch (const std::exception& e) {
        log::diag(Level::Error, "served.fatal",
                  std::string(e.what()) + "\n", {});
        return 1;
    }
}
