/**
 * @file
 * FNV-1a 64-bit hashing: checkpoint/cache line checksums, the
 * configuration fingerprint, and the fault log digest.
 */

#ifndef ORION_CORE_HASH_HH
#define ORION_CORE_HASH_HH

#include <cstdint>
#include <string_view>

namespace orion::core {

/** FNV-1a 64-bit offset basis. */
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
/** FNV-1a 64-bit prime. */
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/** Incremental FNV-1a-64 over the bytes of @p s, continuing from
 * @p h. */
constexpr std::uint64_t
fnv1a64(std::string_view s, std::uint64_t h = kFnvOffset)
{
    for (const char ch : s) {
        h ^= static_cast<unsigned char>(ch);
        h *= kFnvPrime;
    }
    return h;
}

/** Incremental FNV-1a-64 over the eight bytes of @p v, fed low to
 * high whatever the host byte order. */
constexpr std::uint64_t
fnv1a64(std::uint64_t v, std::uint64_t h)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= kFnvPrime;
    }
    return h;
}

} // namespace orion::core

#endif // ORION_CORE_HASH_HH
