// Mentions in comments and strings do not count: std::popcount
#include <bit>
#include <cstdint>

namespace orion::router {

unsigned
requestDelta(std::uint64_t a, std::uint64_t b)
{
    const char* why = "std::popcount is a libgcc call here";
    (void)why;
    return static_cast<unsigned>(std::popcount(a ^ b)); // finding 2
}

unsigned
priorityToggles(std::uint64_t lost)
{
    return static_cast<unsigned>(__builtin_popcountl(lost)); // finding 3
}

} // namespace orion::router
