/**
 * @file
 * orion_submit: NDJSON client for orion_served (docs/ROBUSTNESS.md,
 * "Resident service"; recipes in EXPERIMENTS.md).
 *
 * usage: orion_submit --socket PATH VERB [options]
 *
 *   submit [--rates F:L:N] [--timeout SEC] [--wait] [--out FILE]
 *          [--poll-ms N] -- SIM_ARGS...
 *       Enqueue an orion_sim configuration (everything after `--` is
 *       orion_sim flags, forwarded verbatim). Prints the server's
 *       reply line; with --wait, polls until the job settles and then
 *       writes the result bytes (to --out or stdout).
 *   status JOB      print the job's status reply line
 *   result JOB [--out FILE]
 *       Fetch a finished job's result; the bytes are written raw so
 *       `cmp` against an orion_sim --report-out file is meaningful.
 *   cancel JOB      request cooperative cancellation
 *   stats           print the server/cache counters reply line
 *
 * Exit codes: 0 success, 1 usage or connection failure, 2 structured
 * rejection (queue_full, invalid_config, bad_request, unknown_job,
 * expired, not_ready, draining), 3 the job itself failed or was
 * cancelled. "expired" names a job retired past the daemon's
 * retention bound: resubmit it, and the cache serves its points.
 */
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
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

    const std::string line = request + "\n";
    std::size_t off = 0;
    while (off < line.size()) {
        const ssize_t n =
            ::write(fd, line.data() + off, line.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            usageError("write to '" + socket_path + "' failed");
        }
        off += static_cast<std::size_t>(n);
    }

    std::string reply;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (n == 0)
            break;
        reply.append(buf, static_cast<std::size_t>(n));
        if (reply.find('\n') != std::string::npos ||
            reply.size() > kMaxReplyBytes)
            break;
    }
    ::close(fd);
    const std::size_t eol = reply.find('\n');
    if (eol != std::string::npos)
        reply.resize(eol);
    if (reply.empty())
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
    char* end = nullptr;
    const unsigned long long id =
        std::strtoull(text.c_str(), &end, 10);
    if (end != text.c_str() + text.size() || text.empty() || id == 0)
        usageError("bad job id '" + text + "'");
    return id;
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
submitMain(const std::string& socket_path,
           const std::vector<std::string>& args)
{
    std::string rates;
    double timeout = -1.0;
    bool wait = false;
    std::string outPath;
    unsigned pollMs = 200;
    std::vector<std::string> simArgs;

    const auto need = [&](std::size_t i) -> const std::string& {
        if (i + 1 >= args.size())
            usageError("'" + args[i] + "' needs a value");
        return args[i + 1];
    };
    std::size_t i = 0;
    for (; i < args.size(); ++i) {
        const std::string& a = args[i];
        if (a == "--") {
            ++i;
            break;
        }
        if (a == "--rates") {
            rates = need(i); ++i;
        } else if (a == "--timeout") {
            const std::string& v = need(i); ++i;
            char* end = nullptr;
            timeout = std::strtod(v.c_str(), &end);
            if (end != v.c_str() + v.size() || !(timeout >= 0.0))
                usageError("--timeout needs seconds >= 0");
        } else if (a == "--wait") {
            wait = true;
        } else if (a == "--out") {
            outPath = need(i); ++i;
        } else if (a == "--poll-ms") {
            const std::string& v = need(i); ++i;
            pollMs = static_cast<unsigned>(
                std::strtoul(v.c_str(), nullptr, 10));
            if (pollMs == 0)
                usageError("--poll-ms needs a positive integer");
        } else {
            usageError("unknown submit option '" + a +
                       "' (simulator flags go after --)");
        }
    }
    for (; i < args.size(); ++i)
        simArgs.push_back(args[i]);

    std::string req = "{\"schema\":";
    req += proto::jsonString(proto::kSchema);
    req += ",\"verb\":\"submit\",\"args\":[";
    for (std::size_t k = 0; k < simArgs.size(); ++k) {
        if (k != 0)
            req += ",";
        req += proto::jsonString(simArgs[k]);
    }
    req += "]";
    if (!rates.empty())
        req += ",\"rates\":" + proto::jsonString(rates);
    if (timeout >= 0.0) {
        req += ",\"timeout\":" + log::strf("%.17g", timeout);
    }
    req += "}";

    const Reply r = roundTrip(socket_path, req);
    std::cout << r.line << "\n";
    if (!r.ok)
        return rejectionExit(r);
    if (!wait)
        return 0;
    const proto::JsonValue* job = r.root.find("job");
    if (job == nullptr ||
        job->kind != proto::JsonValue::Kind::Number)
        usageError("malformed submit reply: " + r.line);
    return waitForJob(socket_path,
                      static_cast<std::uint64_t>(job->number),
                      outPath, pollMs);
}

int
run(const std::vector<std::string>& args)
{
    std::string socketPath;
    std::size_t i = 0;
    if (i < args.size() && (args[i] == "--help" || args[i] == "-h")) {
        std::cout
            << "usage: orion_submit --socket PATH VERB [options]\n"
               "  submit [--rates F:L:N] [--timeout SEC] [--wait]\n"
               "         [--out FILE] [--poll-ms N] -- SIM_ARGS...\n"
               "  status JOB\n"
               "  result JOB [--out FILE]\n"
               "  cancel JOB\n"
               "  stats\n";
        return 0;
    }
    if (i + 1 < args.size() && args[i] == "--socket") {
        socketPath = args[i + 1];
        i += 2;
    }
    if (socketPath.empty())
        usageError("--socket PATH must come first (--help for usage)");
    if (i >= args.size())
        usageError("missing verb (--help for usage)");
    const std::string verb = args[i++];
    const std::vector<std::string> rest(args.begin() +
                                            static_cast<long>(i),
                                        args.end());

    if (verb == "submit")
        return submitMain(socketPath, rest);
    if (verb == "stats") {
        const Reply r =
            roundTrip(socketPath, simpleRequest("stats", 0));
        std::cout << r.line << "\n";
        return r.ok ? 0 : rejectionExit(r);
    }
    if (verb == "status" || verb == "cancel") {
        if (rest.empty())
            usageError(verb + " needs a JOB id");
        const Reply r = roundTrip(
            socketPath, simpleRequest(verb, parseJobId(rest[0])));
        std::cout << r.line << "\n";
        return r.ok ? 0 : rejectionExit(r);
    }
    if (verb == "result") {
        if (rest.empty())
            usageError("result needs a JOB id");
        std::string outPath;
        for (std::size_t k = 1; k < rest.size(); ++k) {
            if (rest[k] == "--out" && k + 1 < rest.size()) {
                outPath = rest[k + 1];
                ++k;
            } else {
                usageError("unknown result option '" + rest[k] + "'");
            }
        }
        return fetchResult(socketPath, parseJobId(rest[0]), outPath);
    }
    usageError("unknown verb '" + verb + "' (--help for usage)");
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
