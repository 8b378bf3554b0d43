/**
 * @file
 * One declarative option parser for every Orion command-line tool.
 *
 * A tool declares a static array of Row<T>: the flag, its metavar and
 * help line, the help group it is listed under, its class, its value
 * type with the accepted range, and a setter that applies the checked
 * value to the tool's option struct T. parse() walks argv against the
 * table; help() renders the --help text from the same rows, so the
 * parser, the help and the worker strip list (Class::Local) cannot
 * drift apart. The tables are constant data: parsing builds nothing
 * per call.
 *
 * Every bad value is reported in one shape:
 *
 *     <tool>: <flag>: <reason>[: '<value>'] (--help for usage)
 */

#ifndef ORION_CORE_FLAGS_HH
#define ORION_CORE_FLAGS_HH

#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace orion::core::flags {

/** What a flag does to a run (docs/SIMULATOR.md, "Options"). */
enum class Class : std::uint8_t
{
    /** Changes the resolved (network, traffic, sim) config, so it
     * moves sweepFingerprint; forwarded to isolated workers. */
    Result,
    /** Changes how a run is driven or printed, never its Report;
     * forwarded to isolated workers. */
    Control,
    /** A per-run output, or a flag the point runner sets itself;
     * never forwarded to isolated workers. */
    Local,
};

enum class Kind : std::uint8_t
{
    Switch,   // no value
    Unsigned, // a decimal integer
    Double,   // a decimal or hexfloat number
    Text,     // any string; the setter interprets it
};

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/** A value type and its accepted range [lo, hi] ((lo, hi] when
 * openLo); an unsigned value must also fit in @p limit. */
struct Type
{
    Kind kind = Kind::Text;
    double lo = -kInf;
    double hi = kInf;
    bool openLo = false;
    /** Appended to a range message ("must be > 0 seconds"). */
    const char* unit = "";
    std::uint64_t limit = std::numeric_limits<std::uint64_t>::max();
};

inline constexpr Type kSwitch{Kind::Switch};
inline constexpr Type kText{Kind::Text};

/** An unsigned integer stored in 64 bits. */
constexpr Type
u64(double lo = 0, double hi = kInf)
{
    return {Kind::Unsigned, lo, hi};
}

/** An unsigned integer stored in @p limit's width. */
constexpr Type
u32(double lo = 0, double hi = kInf,
    std::uint64_t limit = std::numeric_limits<std::uint32_t>::max())
{
    return {Kind::Unsigned, lo, hi, false, "", limit};
}

constexpr Type
real(double lo = -kInf, double hi = kInf, bool open_lo = false,
     const char* unit = "")
{
    return {Kind::Double, lo, hi, open_lo, unit};
}

/** A duration in seconds above (or, unless @p open_lo, at) @p lo. */
constexpr Type
seconds(double lo, bool open_lo)
{
    return real(lo, kInf, open_lo, " seconds");
}

/** A checked value handed to a setter. */
struct Value
{
    const std::string& text;
    std::uint64_t u = 0;
    double d = 0.0;

    unsigned u32() const { return static_cast<unsigned>(u); }
};

template <class T>
struct Row
{
    std::string_view flag;
    /** The value's name in --help; nullptr for a switch. */
    const char* metavar;
    /** Help text; '\n' continues it on an indented line. */
    const char* help;
    /** The --help section heading ("" for none); rows of one group
     * are adjacent. */
    const char* group;
    Class cls;
    Type type;
    void (*set)(T&, const Value&);
};

template <class T>
using Table = std::span<const Row<T>>;

/** A value a setter refuses; parse() reports it against the flag. */
class Rejected : public std::invalid_argument
{
  public:
    using std::invalid_argument::invalid_argument;
};

[[noreturn]] void reject(const std::string& reason);

/** Throw std::invalid_argument "<tool>: <what> (--help for usage)". */
[[noreturn]] void fail(std::string_view tool, const std::string& what);

/** @p text as an unsigned integer no larger than @p limit; throws
 * Rejected on a sign, a non-number or an overflow. */
std::uint64_t
toUnsigned(const std::string& text,
           std::uint64_t limit = std::numeric_limits<std::uint64_t>::max());

namespace detail {

/** Convert and range-check @p text for a row of @p type. */
Value convert(std::string_view tool, std::string_view flag,
              const Type& type, const std::string& text);

/** Append one --help line. */
void helpLine(std::string& out, std::string_view flag,
              const char* metavar, const char* help);

} // namespace detail

/** The row of @p rows whose flag is @p arg, or nullptr. */
template <class T>
const Row<T>*
find(Table<T> rows, std::string_view arg)
{
    for (const Row<T>& r : rows) {
        if (r.flag == arg)
            return &r;
    }
    return nullptr;
}

/**
 * Apply @p args to @p target through @p rows, in order. A token that
 * names no row is an "unknown option" error, unless @p rest is given:
 * then it is appended to @p rest verbatim. Returns true, having
 * stopped there, at --help or -h.
 */
template <class T>
bool
parse(std::string_view tool, Table<T> rows,
      const std::vector<std::string>& args, T& target,
      std::vector<std::string>* rest = nullptr)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& a = args[i];
        if (a == "--help" || a == "-h")
            return true;
        const Row<T>* row = find(rows, a);
        if (row == nullptr) {
            if (rest == nullptr)
                fail(tool, "unknown option '" + a + "'");
            rest->push_back(a);
            continue;
        }
        if (row->type.kind != Kind::Switch && ++i >= args.size())
            fail(tool, a + ": missing value");
        const Value v = detail::convert(tool, row->flag, row->type,
                                        args[i]);
        try {
            row->set(target, v);
        } catch (const Rejected& e) {
            fail(tool, a + ": " + e.what());
        }
    }
    return false;
}

/** The --help listing of @p rows, one section per group. */
template <class T>
std::string
help(Table<T> rows)
{
    std::string out;
    std::string_view group;
    for (const Row<T>& r : rows) {
        if (group != r.group) {
            group = r.group;
            out += "\n";
            out += group;
            out += ":\n";
        }
        detail::helpLine(out, r.flag, r.metavar, r.help);
    }
    return out;
}

} // namespace orion::core::flags

#endif // ORION_CORE_FLAGS_HH
