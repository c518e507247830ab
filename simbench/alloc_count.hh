/**
 * @file
 * Heap-allocation counter for the benchmark binary. alloc_count.cc
 * replaces the global operator new; it counts only while a
 * CountAllocations guard is alive, so allocations made outside the
 * measured region never reach the count.
 */

#ifndef SIMBENCH_ALLOC_COUNT_HH
#define SIMBENCH_ALLOC_COUNT_HH

#include <cstdint>

namespace simbench
{

/** Counts operator-new calls made during its lifetime. Not nestable. */
class CountAllocations
{
  public:
    CountAllocations();
    ~CountAllocations();
    CountAllocations(const CountAllocations &) = delete;
    CountAllocations &operator=(const CountAllocations &) = delete;

    /** Allocations counted since construction. */
    std::uint64_t count() const;

  private:
    std::uint64_t start_;
};

} // namespace simbench

#endif // SIMBENCH_ALLOC_COUNT_HH
