/**
 * @file
 * orion_served wire protocol (docs/ROBUSTNESS.md, "Resident
 * service"): newline-delimited JSON over a Unix-domain socket.
 *
 * Every request and reply is exactly one JSON object on one line,
 * schema-versioned with "schema":"orion-served-v1". Verbs:
 *
 *   submit  {"verb":"submit","args":[...orion_sim flags...],
 *            "rates":"FIRST:LAST:COUNT","timeout":SECONDS}
 *   status  {"verb":"status","job":N}
 *   result  {"verb":"result","job":N}
 *   cancel  {"verb":"cancel","job":N}
 *   stats   {"verb":"stats"}
 *
 * Error replies are structured: {"ok":false,"error":CODE,
 * "message":...} with CODE one of "bad_request", "invalid_config",
 * "queue_full", "unknown_job", "expired", "not_ready", "job_failed",
 * "cancelled", "draining". Admission control depends on these being
 * machine-readable — a client backs off on "queue_full", gives up on
 * "invalid_config", and resubmits on "expired" (an issued job retired
 * past the daemon's retention bound; its points are still cached).
 *
 * The parser is deliberately small and self-contained (no external
 * JSON dependency): objects keep insertion order, numbers are
 * doubles, \uXXXX escapes decode to UTF-8. Anything malformed is a
 * ProtoError carrying the "bad_request" code — a hostile or
 * truncated request must never take the daemon down.
 */
#ifndef ORION_CORE_PROTO_HH
#define ORION_CORE_PROTO_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace orion::core::proto {

/** Protocol schema tag carried by every request and reply. */
constexpr const char* kSchema = "orion-served-v1";

/** Structured protocol failure: `code()` is the machine-readable
 * error ("bad_request", ...), what() the human-readable detail. */
class ProtoError : public std::runtime_error
{
  public:
    ProtoError(std::string code, const std::string& message)
        : std::runtime_error(message), code_(std::move(code))
    {
    }

    const std::string& code() const { return code_; }

  private:
    std::string code_;
};

/** One parsed JSON value. Objects preserve insertion order (members)
 * so no behavior ever depends on hash-table iteration order. */
struct JsonValue
{
    enum class Kind { Null, Boolean, Number, String, Object, Array };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<std::pair<std::string, JsonValue>> members;
    std::vector<JsonValue> items;

    /** Object member lookup (first match); nullptr when absent or
     * when this value is not an object. */
    const JsonValue* find(const std::string& key) const;
};

/** Parse one JSON document (the whole of @p text).
 * @throw ProtoError("bad_request") on any syntax error, trailing
 * garbage, or nesting deeper than an internal cap. */
JsonValue parseJson(std::string_view text);

/** Render @p s as a quoted JSON string (escaping via core/log). */
std::string jsonString(const std::string& s);

/** A validated request. */
struct Request
{
    std::string verb;
    /** submit: orion_sim-style flags, parsed by cli::parse. */
    std::vector<std::string> args;
    /** submit: optional "FIRST:LAST:COUNT" rate grid; empty means
     * the single rate from args. */
    std::string rates;
    /** submit: per-job deadline in seconds (0 = server default). */
    double timeoutSeconds = 0.0;
    /** status/result/cancel: the job id. */
    std::uint64_t job = 0;
};

/** Parse and validate one request line: schema match, known verb,
 * per-verb required fields. @throw ProtoError("bad_request"). */
Request parseRequest(const std::string& line);

/** {"schema":...,"ok":false,"error":code,"message":message} */
std::string errorReply(const std::string& code,
                       const std::string& message);

/** The "expired" error reply for @p job, an issued job erased past
 * the daemon's @p retained newest settled jobs. */
std::string expiredReply(std::uint64_t job, std::size_t retained);

/** Write @p line and a newline to @p fd, retrying EINTR and short
 * writes; false on a write error. */
bool writeLine(int fd, const std::string& line);

/** Read @p fd up to its first newline into @p out (without it): false
 * on a read error, at end of stream with nothing read, or past
 * @p max_bytes without a newline. */
bool readLine(int fd, std::string& out, std::size_t max_bytes);

} // namespace orion::core::proto

#endif // ORION_CORE_PROTO_HH
