/**
 * @file
 * Cache geometry configuration. The VMP prototype cache is 4-way set
 * associative, 256 KBytes, with a configurable cache page size of 128,
 * 256 or 512 bytes (Sections 2 and 4); this struct generalizes that while
 * validating the prototype's constraints by default.
 */

#ifndef VMP_CACHE_CONFIG_HH
#define VMP_CACHE_CONFIG_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace vmp::cache
{

/** Geometry of one processor's cache. */
struct CacheConfig
{
    /** Cache page ("block") size in bytes; prototype: 128/256/512. */
    std::uint32_t pageBytes = 256;
    /**
     * Associativity, 1 to 16 ways (check() enforces it); the prototype
     * supports 1 to 4.
     */
    std::uint32_t ways = 4;
    /** Number of sets; the prototype supports 16 to 256 pages per way. */
    std::uint32_t sets = 256;
    /**
     * Whether slots carry real byte storage. Timing-only sweeps (Figure
     * 4) turn this off; the multiprocessor model keeps it on so the
     * consistency protocol moves real data.
     */
    bool storeData = true;

    std::uint64_t
    totalBytes() const
    {
        return static_cast<std::uint64_t>(pageBytes) * ways * sets;
    }

    std::uint64_t totalSlots() const { return std::uint64_t(ways) * sets; }

    /** Throws FatalError if the geometry is not simulable. */
    void check() const;

    /** e.g. "256KiB 4-way 256B-pages". */
    std::string toString() const;

    /** Convenience: geometry for a given total size and page size. */
    static CacheConfig forSize(std::uint64_t total_bytes,
                               std::uint32_t page_bytes,
                               std::uint32_t ways = 4,
                               bool store_data = true);
};

} // namespace vmp::cache

#endif // VMP_CACHE_CONFIG_HH
