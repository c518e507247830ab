#include "alloc_count.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace
{

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocations{0};

void *
allocate(std::size_t bytes)
{
    // Load and store rather than fetch_add: the benchmark counts on one
    // thread, and a locked add would inflate the run it is counting in.
    if (counting.load(std::memory_order_relaxed)) {
        allocations.store(allocations.load(std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed);
    }
    if (void *p = std::malloc(bytes == 0 ? 1 : bytes))
        return p;
    throw std::bad_alloc();
}

} // namespace

// The array, nothrow and sized forms of the standard library forward
// to these two, so every ordinary allocation is counted exactly once.
void *
operator new(std::size_t bytes)
{
    return allocate(bytes);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace simbench
{

CountAllocations::CountAllocations()
    : start_(allocations.load(std::memory_order_relaxed))
{
    counting.store(true, std::memory_order_relaxed);
}

CountAllocations::~CountAllocations()
{
    counting.store(false, std::memory_order_relaxed);
}

std::uint64_t
CountAllocations::count() const
{
    return allocations.load(std::memory_order_relaxed) - start_;
}

} // namespace simbench
