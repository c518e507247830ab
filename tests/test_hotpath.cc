/**
 * @file
 * Deterministic gates on the per-reference hot path: the event-driven
 * machine's hit path allocates (almost) nothing, so does the miss path
 * of a contended two-level machine, the event kernel schedules and
 * dispatches `[this]` events without allocating, a data-storing cache
 * allocates its pages once, the probe result is a small trivially
 * copyable value, and the miss victim the cache computes only on a
 * miss equals its LRU suggestion. The
 * binary replaces the global operator new to count heap allocations.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "cache/cache.hh"
#include "core/hier_system.hh"
#include "core/system.hh"
#include "sim/event.hh"
#include "sim/inline_fn.hh"
#include "sim/logging.hh"
#include "trace/synthetic.hh"
#include "trace/trace_io.hh"
#include "trace/workloads.hh"

namespace
{

bool counting = false;
std::uint64_t allocations = 0;
std::uint64_t frees = 0;

} // namespace

// The array, nothrow and sized forms of the standard library forward
// to these, so every ordinary allocation is counted exactly once.
void *
operator new(std::size_t bytes)
{
    if (counting)
        ++allocations;
    if (void *p = std::malloc(bytes == 0 ? 1 : bytes))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    if (counting && p != nullptr)
        ++frees;
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    if (counting && p != nullptr)
        ++frees;
    std::free(p);
}

namespace vmp
{
namespace
{

/** Counts heap allocations made while in scope. */
class CountAllocations
{
  public:
    CountAllocations() : start_(allocations), startFrees_(frees)
    {
        counting = true;
    }
    ~CountAllocations() { counting = false; }
    CountAllocations(const CountAllocations &) = delete;
    CountAllocations &operator=(const CountAllocations &) = delete;

    std::uint64_t count() const { return allocations - start_; }
    std::uint64_t freed() const { return frees - startFrees_; }

  private:
    std::uint64_t start_;
    std::uint64_t startFrees_;
};

/** Per-CPU atum2 traces, materialized so only the machine counts. */
struct Atum2Traces
{
    Atum2Traces(std::uint32_t cpus, std::uint64_t refs_per_cpu,
                bool private_kernels)
    {
        for (std::uint32_t i = 0; i < cpus; ++i) {
            auto workload = trace::workloadConfig("atum2");
            workload.totalRefs = refs_per_cpu;
            workload.seed = 1000 + i;
            workload.asidBase = static_cast<Asid>(1 + i * 8);
            if (private_kernels)
                workload.kernelOffset = static_cast<Addr>(i) * 0x20'0000;
            trace::SyntheticGen gen(workload);
            std::vector<trace::MemRef> refs;
            trace::MemRef ref;
            while (gen.next(ref))
                refs.push_back(ref);
            owned.push_back(std::make_unique<trace::VectorRefSource>(
                std::move(refs)));
            sources.push_back(owned.back().get());
        }
    }

    std::vector<std::unique_ptr<trace::VectorRefSource>> owned;
    std::vector<trace::RefSource *> sources;
};

/** Run @p sys over @p traces; expect <= 0.1 allocations/reference. */
template <class System>
void
expectAlmostNoAllocations(System &sys, Atum2Traces &traces,
                          std::uint64_t refs, std::uint64_t min_misses)
{
    std::uint64_t allocs = 0;
    const auto r = [&] {
        const CountAllocations counter;
        auto result = sys.runTraces(traces.sources);
        allocs = counter.count();
        return result;
    }();
    ASSERT_EQ(r.totalRefs, refs);
    ASSERT_GE(r.totalMisses, min_misses);
    const double per_ref =
        static_cast<double>(allocs) / static_cast<double>(r.totalRefs);
    EXPECT_LE(per_ref, 0.1) << allocs << " allocations for "
                            << r.totalRefs << " references ("
                            << r.totalMisses << " misses)";
}

TEST(HotPath, FlatHitPathAllocatesAlmostNothing)
{
    // Four atum2 CPUs with private kernel images on 256 KiB caches:
    // about 0.3% of references miss, so the count is the hit path's.
    setInformEnabled(false);
    core::VmpConfig cfg;
    cfg.processors = 4;
    cfg.cache = cache::CacheConfig::forSize(KiB(256), 512, 4, true);
    cfg.memBytes = MiB(8);
    core::VmpSystem sys(cfg);
    Atum2Traces traces(4, 200'000, /*private_kernels=*/true);
    expectAlmostNoAllocations(sys, traces, 800'000, 0);
}

TEST(HotPath, HierMissPathAllocatesAlmostNothing)
{
    // Two clusters of two atum2 CPUs sharing one kernel image on
    // 16 KiB caches with 128 B pages: ~3% of references miss, so the
    // count is the miss path's — the controller's miss and service
    // handling, bus arbitration, block copies and the inter-bus boards.
    setInformEnabled(false);
    core::HierConfig cfg;
    cfg.clusters = 2;
    cfg.cpusPerCluster = 2;
    cfg.cache = cache::CacheConfig::forSize(KiB(16), 128, 4, true);
    cfg.memBytes = MiB(8);
    core::HierVmpSystem sys(cfg);
    Atum2Traces traces(4, 40'000, /*private_kernels=*/false);
    expectAlmostNoAllocations(sys, traces, 160'000, 1'600);
}

/** Self-rescheduling `[this]` events, a few chains interleaved. */
class EventChains
{
  public:
    explicit EventChains(EventQueue &eq) : eq_(eq) {}

    /** Start @p chains chains that together dispatch @p events. */
    void
    start(std::uint32_t chains, std::uint64_t events)
    {
        left_ = events;
        for (std::uint32_t i = 0; i < chains && left_ > 0; ++i, --left_)
            eq_.scheduleIn(1 + i, [this] { step(); });
    }

  private:
    void
    step()
    {
        if (left_ == 0)
            return;
        --left_;
        eq_.scheduleIn(1 + left_ % 7, [this] { step(); });
    }

    EventQueue &eq_;
    std::uint64_t left_ = 0;
};

TEST(HotPath, EventKernelAllocatesNothingAfterWarmUp)
{
    // Once the heap and the callback slab have grown to the peak
    // number of pending events, scheduling and dispatching `[this]`
    // events allocates nothing.
    EventQueue eq;
    EventChains chains(eq);
    chains.start(8, 1'000);
    eq.run();
    const std::uint64_t before = eq.dispatched();
    std::uint64_t allocs = 0;
    {
        const CountAllocations counter;
        chains.start(8, 100'000);
        eq.run();
        allocs = counter.count();
    }
    EXPECT_EQ(eq.dispatched() - before, 100'000u);
    EXPECT_EQ(allocs, 0u);
}

TEST(HotPath, InlineFnInPlaceNeverAllocates)
{
    // `this` plus two small values: 24 bytes, trivially copyable.
    std::uint64_t sum = 0;
    const std::uint64_t a = 3, b = 4;
    const CountAllocations counter;
    InlineFn<void(std::uint64_t)> fn = [&sum, a, b](std::uint64_t n) {
        sum += a * n + b;
    };
    InlineFn<void(std::uint64_t)> moved = std::move(fn);
    for (std::uint64_t i = 0; i < 1'000; ++i)
        moved(i);
    fn = std::move(moved);
    fn(0);
    EXPECT_EQ(counter.count(), 0u);
    EXPECT_EQ(sum, 3 * 499'500u + 1'001 * 4);
}

TEST(HotPath, InlineFnBoxesOnceAndFreesOnce)
{
    // A callable past the in-place rule (here a std::vector capture)
    // is boxed once; moving the InlineFn moves the box, and the last
    // owner frees it.
    std::vector<int> data{1, 2, 3};
    std::uint64_t allocs = 0, freed = 0;
    int sum = 0;
    {
        const CountAllocations counter;
        {
            InlineFn<void()> fn = [&sum, data = std::move(data)] {
                for (const int v : data)
                    sum += v;
            };
            EXPECT_EQ(counter.count(), 1u);
            InlineFn<void()> moved = std::move(fn);
            InlineFn<void()> again;
            again = std::move(moved);
            again();
            EXPECT_EQ(counter.count(), 1u);
            EXPECT_EQ(counter.freed(), 0u);
        }
        allocs = counter.count();
        freed = counter.freed();
    }
    EXPECT_EQ(sum, 6);
    EXPECT_EQ(allocs, 1u);
    // The box and the vector's buffer it owned.
    EXPECT_EQ(freed, 2u);
}

// The probe result travels in registers: no std::optional, no spill.
static_assert(std::is_trivially_copyable_v<cache::AccessResult>);
static_assert(sizeof(cache::AccessResult) <= 16);

TEST(HotPath, DataCacheAllocatesItsPagesOnce)
{
    // A data-storing cache holds its pages in one contiguous store:
    // the slot array and the page store, not one buffer per slot.
    const auto cfg = cache::CacheConfig::forSize(KiB(256), 512, 4, true);
    std::uint64_t allocs = 0;
    {
        const CountAllocations counter;
        const cache::Cache cache(cfg);
        allocs = counter.count();
    }
    EXPECT_LE(allocs, 2u) << cfg.totalSlots() << " slots";
}

TEST(HotPath, MissVictimMatchesLruSuggestion)
{
    // The Figure-4 geometries over the four ATUM-like traces. Read
    // misses fill a shared, user-read-only page, so later writes take
    // Protection and WriteShared misses as well as tag misses; every
    // miss's suggested victim must be the hardware LRU choice.
    std::uint64_t kinds[4] = {};
    for (const std::uint64_t size : {KiB(64), KiB(128), KiB(256)}) {
        for (const std::uint32_t page : {128u, 256u, 512u}) {
            for (auto workload : trace::allWorkloads()) {
                workload.totalRefs = 20'000;
                cache::Cache cache(
                    cache::CacheConfig::forSize(size, page, 4, false));
                trace::SyntheticGen gen(workload);
                trace::MemRef ref;
                while (gen.next(ref)) {
                    for (;;) {
                        const auto res =
                            cache.access(ref.asid, ref.vaddr,
                                         ref.isWrite(), ref.supervisor);
                        if (res.hit)
                            break;
                        ++kinds[static_cast<int>(res.miss)];
                        ASSERT_EQ(res.suggestedVictim,
                                  cache.victimFor(ref.vaddr))
                            << cache.config().toString() << " va 0x"
                            << std::hex << ref.vaddr;
                        if (res.miss == cache::MissKind::NoMatch) {
                            cache.fill(res.suggestedVictim,
                                       cache.tagFor(ref.asid, ref.vaddr),
                                       static_cast<cache::SlotFlags>(
                                           cache::FlagSupWritable |
                                           cache::FlagUserReadable));
                            continue;
                        }
                        const cache::SlotFlags granted =
                            res.miss == cache::MissKind::Protection
                            ? cache::FlagUserWritable
                            : cache::FlagExclusive;
                        cache.setFlags(res.slot,
                                       static_cast<cache::SlotFlags>(
                                           cache.slot(res.slot).flags |
                                           granted));
                    }
                }
            }
        }
    }
    EXPECT_GT(kinds[static_cast<int>(cache::MissKind::NoMatch)], 0u);
    EXPECT_GT(kinds[static_cast<int>(cache::MissKind::Protection)], 0u);
    EXPECT_GT(kinds[static_cast<int>(cache::MissKind::WriteShared)], 0u);
}

} // namespace
} // namespace vmp
