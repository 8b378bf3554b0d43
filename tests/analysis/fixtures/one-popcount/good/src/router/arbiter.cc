// Every count goes through power::popcount64, not std::popcount.
#include <cstdint>

namespace orion::router {

unsigned
requestDelta(std::uint64_t a, std::uint64_t b)
{
    return power::popcount64(a ^ b);
}

} // namespace orion::router
