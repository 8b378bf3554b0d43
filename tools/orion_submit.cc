/**
 * @file
 * orion_submit: NDJSON client for orion_served (docs/ROBUSTNESS.md,
 * "Resident service"; recipes in EXPERIMENTS.md).
 *
 * usage: orion_submit --socket PATH VERB [options] [-- SIM_ARGS...]
 *
 * `submit` enqueues an orion_sim configuration (everything after `--`
 * is orion_sim flags, forwarded verbatim) and prints the server's
 * reply line; with --wait it polls until the job settles and then
 * writes the result bytes. `result JOB` writes a finished job's bytes
 * raw, so `cmp` against an orion_sim --report-out file is meaningful.
 * `status JOB`, `cancel JOB` and `stats` print the reply line.
 * `orion_submit --help` lists the options (cli::kSubmitFlags).
 *
 * Exit codes: 0 success, 1 usage or connection failure, 2 structured
 * rejection (queue_full, invalid_config, bad_request, unknown_job,
 * expired, not_ready, draining), 3 the job itself failed or was
 * cancelled. "expired" names a job retired past the daemon's
 * retention bound: resubmit it, and the cache serves its points.
 */
#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/cli.hh"
#include "core/log.hh"
#include "core/proto.hh"

namespace {

namespace proto = orion::core::proto;
using orion::core::log::Level;
namespace log = orion::core::log;

constexpr std::size_t kMaxReplyBytes = 8 << 20;

[[noreturn]] void
usageError(const std::string& what)
{
    throw std::invalid_argument("orion_submit: " + what);
}

/** One request/reply exchange over a fresh connection. */
std::string
transact(const std::string& socket_path, const std::string& request)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof addr.sun_path)
        usageError("socket path too long: '" + socket_path + "'");
    std::memcpy(addr.sun_path, socket_path.c_str(),
                socket_path.size() + 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        usageError("cannot create socket");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        usageError("cannot connect to '" + socket_path +
                   "' (is orion_served running?)");
    }

    if (!proto::writeLine(fd, request)) {
        ::close(fd);
        usageError("write to '" + socket_path + "' failed");
    }
    std::string reply;
    const bool got = proto::readLine(fd, reply, kMaxReplyBytes);
    ::close(fd);
    if (!got)
        usageError("empty reply from '" + socket_path + "'");
    return reply;
}

/** Write result bytes raw (exact bytes matter for cmp). */
void
writeResult(const std::string& out_path, const std::string& text)
{
    if (out_path.empty()) {
        std::cout << text;
        return;
    }
    std::ofstream out(out_path, std::ios::binary);
    if (!out)
        usageError("cannot open '" + out_path + "'");
    out << text;
    if (!out.good())
        usageError("write to '" + out_path + "' failed");
}

struct Reply
{
    std::string line;
    proto::JsonValue root;
    bool ok = false;
    std::string error;   // structured code when !ok
    std::string message; // human-readable detail when !ok
};

Reply
roundTrip(const std::string& socket_path, const std::string& request)
{
    Reply r;
    r.line = transact(socket_path, request);
    r.root = proto::parseJson(r.line);
    const proto::JsonValue* ok = r.root.find("ok");
    r.ok = ok != nullptr &&
           ok->kind == proto::JsonValue::Kind::Boolean && ok->boolean;
    if (!r.ok) {
        if (const proto::JsonValue* e = r.root.find("error"))
            r.error = e->text;
        if (const proto::JsonValue* m = r.root.find("message"))
            r.message = m->text;
    }
    return r;
}

/** Exit code for a structured (ok:false) reply. */
int
rejectionExit(const Reply& r)
{
    log::diag(Level::Error, "submit.rejected",
              "orion_submit: " + r.error +
                  (r.message.empty() ? "" : ": " + r.message) + "\n",
              {log::str("error", r.error)});
    return r.error == "job_failed" || r.error == "cancelled" ? 3 : 2;
}

std::string
simpleRequest(const std::string& verb, std::uint64_t job)
{
    std::string out = "{\"schema\":";
    out += proto::jsonString(proto::kSchema);
    out += ",\"verb\":" + proto::jsonString(verb);
    if (job != 0)
        out += ",\"job\":" + std::to_string(job);
    out += "}";
    return out;
}

std::uint64_t
parseJobId(const std::string& text)
{
    try {
        if (const std::uint64_t id = orion::core::flags::toUnsigned(text))
            return id;
    } catch (const orion::core::flags::Rejected&) {
    }
    usageError("bad job id '" + text + "'");
}

/** Fetch the result of a settled job; returns the process exit
 * code. */
int
fetchResult(const std::string& socket_path, std::uint64_t job,
            const std::string& out_path)
{
    const Reply r =
        roundTrip(socket_path, simpleRequest("result", job));
    if (!r.ok)
        return rejectionExit(r);
    const proto::JsonValue* text = r.root.find("result");
    if (text == nullptr ||
        text->kind != proto::JsonValue::Kind::String)
        usageError("malformed result reply: " + r.line);
    writeResult(out_path, text->text);
    return 0;
}

int
waitForJob(const std::string& socket_path, std::uint64_t job,
           const std::string& out_path, unsigned poll_ms)
{
    for (;;) {
        const Reply r =
            roundTrip(socket_path, simpleRequest("status", job));
        if (!r.ok)
            return rejectionExit(r);
        const proto::JsonValue* state = r.root.find("state");
        if (state == nullptr ||
            state->kind != proto::JsonValue::Kind::String)
            usageError("malformed status reply: " + r.line);
        if (state->text == "done")
            return fetchResult(socket_path, job, out_path);
        if (state->text == "failed" || state->text == "cancelled") {
            // The result verb carries the structured reason.
            const Reply res =
                roundTrip(socket_path, simpleRequest("result", job));
            return res.ok ? 0 : rejectionExit(res);
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(poll_ms));
    }
}

int
submitMain(const orion::cli::SubmitArgs& a)
{
    std::string req = "{\"schema\":";
    req += proto::jsonString(proto::kSchema);
    req += ",\"verb\":\"submit\",\"args\":[";
    for (std::size_t k = 0; k < a.simArgs.size(); ++k) {
        if (k != 0)
            req += ",";
        req += proto::jsonString(a.simArgs[k]);
    }
    req += "]";
    if (!a.rates.empty())
        req += ",\"rates\":" + proto::jsonString(a.rates);
    if (a.timeoutSeconds >= 0.0) {
        req += ",\"timeout\":" + log::strf("%.17g", a.timeoutSeconds);
    }
    req += "}";

    const Reply r = roundTrip(a.socketPath, req);
    std::cout << r.line << "\n";
    if (!r.ok)
        return rejectionExit(r);
    if (!a.wait)
        return 0;
    const proto::JsonValue* job = r.root.find("job");
    if (job == nullptr ||
        job->kind != proto::JsonValue::Kind::Number)
        usageError("malformed submit reply: " + r.line);
    return waitForJob(a.socketPath,
                      static_cast<std::uint64_t>(job->number),
                      a.outPath, a.pollMs);
}

int
run(const std::vector<std::string>& args)
{
    const orion::cli::SubmitArgs a = orion::cli::parseSubmit(args);
    if (a.helpRequested) {
        std::cout
            << "usage: orion_submit --socket PATH VERB [options]\n\n"
               "verbs:\n"
               "  submit [options] -- SIM_ARGS...   enqueue an orion_sim "
               "job\n"
               "  status JOB | result JOB | cancel JOB | stats\n"
            << orion::core::flags::help(orion::cli::kSubmitFlags);
        return 0;
    }
    const std::string& verb = a.words.front();
    const bool takes_job =
        verb == "status" || verb == "result" || verb == "cancel";
    if (!takes_job && verb != "submit" && verb != "stats")
        usageError("unknown verb '" + verb + "' (--help for usage)");
    const std::size_t want = takes_job ? 2 : 1;
    if (a.words.size() < want)
        usageError(verb + " needs a JOB id");
    if (a.words.size() > want)
        usageError("unexpected argument '" + a.words[want] +
                   "' (orion_sim flags go after --)");

    if (verb == "submit")
        return submitMain(a);
    if (verb == "result")
        return fetchResult(a.socketPath, parseJobId(a.words[1]),
                           a.outPath);
    const Reply r = roundTrip(
        a.socketPath,
        simpleRequest(verb, takes_job ? parseJobId(a.words[1]) : 0));
    std::cout << r.line << "\n";
    return r.ok ? 0 : rejectionExit(r);
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return run(std::vector<std::string>(argv + 1, argv + argc));
    } catch (const proto::ProtoError& e) {
        log::diag(Level::Error, "submit.proto_error",
                  std::string("orion_submit: ") + e.what() + "\n",
                  {});
        return 2;
    } catch (const std::exception& e) {
        log::diag(Level::Error, "submit.fatal",
                  std::string(e.what()) + "\n", {});
        return 1;
    }
}
