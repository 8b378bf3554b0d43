#include "core/flags.hh"

#include <cstdio>

namespace orion::core::flags {

namespace {

/** "%g" of a range bound: 0, 1, 32, 0.5. */
std::string
bound(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
}

/** The reason a value outside @p t's range is refused. An unsigned
 * lower bound of 0 goes without saying. */
std::string
rangeReason(const Type& t)
{
    const bool has_lo = t.kind == Kind::Double ? t.lo > -kInf : t.lo > 0;
    std::string what;
    if (has_lo && t.hi < kInf)
        what = "must be in [" + bound(t.lo) + ", " + bound(t.hi) + "]";
    else if (has_lo)
        what = (t.openLo ? "must be > " : "must be >= ") + bound(t.lo);
    else
        what = "must be <= " + bound(t.hi);
    return what + t.unit;
}

/** @p convert(text, &used) over all of @p text, or Rejected. */
template <class Convert>
auto
number(const std::string& text, Convert convert)
{
    std::size_t used = 0;
    try {
        const auto n = convert(text, &used);
        if (used == text.size())
            return n;
    } catch (const std::invalid_argument&) {
    } catch (const std::out_of_range&) {
        reject("out of range: '" + text + "'");
    }
    reject("not a number: '" + text + "'");
}

} // namespace

void
reject(const std::string& reason)
{
    throw Rejected(reason);
}

void
fail(std::string_view tool, const std::string& what)
{
    throw std::invalid_argument(std::string(tool) + ": " + what +
                                " (--help for usage)");
}

std::uint64_t
toUnsigned(const std::string& text, std::uint64_t limit)
{
    // stoull silently wraps negative inputs; reject them explicitly.
    const std::size_t first = text.find_first_not_of(" \t\n\v\f\r");
    if (first != std::string::npos && text[first] == '-')
        reject("must be non-negative: '" + text + "'");
    const std::uint64_t n = number(text, [](auto& t, auto* used) {
        return std::stoull(t, used);
    });
    if (n > limit)
        reject("out of range: '" + text + "'");
    return n;
}

namespace detail {

Value
convert(std::string_view tool, std::string_view flag, const Type& type,
        const std::string& text)
{
    Value v{text};
    try {
        if (type.kind != Kind::Unsigned && type.kind != Kind::Double)
            return v;
        const double x = type.kind == Kind::Unsigned
                             ? static_cast<double>(
                                   v.u = toUnsigned(text, type.limit))
                             : (v.d = number(text, [](auto& t, auto* n) {
                                    return std::stod(t, n);
                                }));
        // NaN fails a bounded row; an unbounded one leaves it to the
        // config validators.
        const bool below = type.openLo ? !(x > type.lo) : !(x >= type.lo);
        if ((below && type.lo > -kInf) || x > type.hi)
            reject(rangeReason(type));
    } catch (const Rejected& e) {
        fail(tool, std::string(flag) + ": " + e.what());
    }
    return v;
}

void
helpLine(std::string& out, std::string_view flag, const char* metavar,
         const char* help)
{
    constexpr std::size_t kColumn = 23;
    std::string head = "  " + std::string(flag);
    if (metavar != nullptr)
        head += " " + std::string(metavar);
    out += head.size() < kColumn ? head.append(kColumn - head.size(), ' ')
                                 : head + "\n" + std::string(kColumn, ' ');
    for (const char* c = help; *c != '\0'; ++c) {
        out += *c;
        if (*c == '\n')
            out.append(kColumn, ' ');
    }
    out += '\n';
}

} // namespace detail

} // namespace orion::core::flags
