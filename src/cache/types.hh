/**
 * @file
 * Cache-level scalar types: slot flags (the six per-slot flag bits the
 * VMP board maintains, Section 4) and the <ASID, virtual page> tag the
 * cache matches on.
 */

#ifndef VMP_CACHE_TYPES_HH
#define VMP_CACHE_TYPES_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace vmp::cache
{

/**
 * Per-slot flag bits, exactly the set listed in Section 4: valid,
 * modified, exclusive-ownership, supervisor writable, user readable and
 * user writable.
 */
enum SlotFlag : std::uint8_t
{
    FlagValid = 1 << 0,
    FlagModified = 1 << 1,
    FlagExclusive = 1 << 2,
    FlagSupWritable = 1 << 3,
    FlagUserReadable = 1 << 4,
    FlagUserWritable = 1 << 5,
};

using SlotFlags = std::uint8_t;

/** Readable rendering of a flag set, e.g. "V-M-E-SW-UR-UW". */
std::string flagsToString(SlotFlags flags);

/** Cache tag: the <ASID, virtual page number> pair the cache matches on. */
struct CacheTag
{
    Asid asid = 0;
    /** Virtual address divided by the cache page size. */
    std::uint64_t vpn = 0;

    bool operator==(const CacheTag &other) const = default;
};

} // namespace vmp::cache

#endif // VMP_CACHE_TYPES_HH
