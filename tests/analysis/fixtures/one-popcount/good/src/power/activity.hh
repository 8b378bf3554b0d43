// one-popcount fixture (GOOD): the helper is the only popcount.
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
    return popcount64(x);
}

} // namespace orion::power
