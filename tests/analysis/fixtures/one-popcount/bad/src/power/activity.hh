// one-popcount fixture (BAD): popcount spellings outside the helper.
// Expect exactly three findings; the helper's own body is allowed.
#include <bit>
#include <cstdint>

namespace orion::power {

constexpr unsigned
popcount64(std::uint64_t x)
{
    return static_cast<unsigned>(__builtin_popcountll(x));
}

inline unsigned
weight(std::uint64_t x)
{
    return static_cast<unsigned>(std::popcount(x)); // finding 1
}

} // namespace orion::power
