/**
 * @file
 * System-level integration tests: whole-machine configuration, multi-
 * processor trace runs, scripted-program coherence (parallel counters
 * under a lock), the fast functional simulator used for Figure 4, and
 * end-to-end protocol invariants.
 */

#include <gtest/gtest.h>

#include "core/fast_sim.hh"
#include "core/system.hh"
#include "cpu/program.hh"
#include "sim/logging.hh"
#include "trace/synthetic.hh"
#include "trace/trace_io.hh"
#include "trace/workloads.hh"

namespace vmp::core
{
namespace
{

VmpConfig
smallConfig(std::uint32_t processors)
{
    VmpConfig cfg;
    cfg.processors = processors;
    cfg.cache = cache::CacheConfig{256, 2, 16, true};
    cfg.memBytes = MiB(1);
    return cfg;
}

trace::SyntheticConfig
tinyWorkload(std::uint64_t refs, std::uint64_t seed)
{
    auto cfg = trace::workloadConfig("atum2");
    cfg.totalRefs = refs;
    cfg.seed = seed;
    return cfg;
}

// --------------------------------------------------------- VmpSystem

TEST(VmpSystem, ConfigValidation)
{
    VmpConfig cfg = smallConfig(0);
    EXPECT_THROW(VmpSystem{cfg}, FatalError);
    cfg = smallConfig(1);
    cfg.memBytes = 1000;
    EXPECT_THROW(VmpSystem{cfg}, FatalError);
    cfg = smallConfig(1);
    cfg.fifoCapacity = 0;
    EXPECT_THROW(VmpSystem{cfg}, FatalError);
}

TEST(VmpSystem, SingleCpuTraceRun)
{
    VmpSystem system(smallConfig(1));
    trace::SyntheticGen gen(tinyWorkload(20'000, 7));
    const auto result = system.runTraces({&gen});
    EXPECT_EQ(result.totalRefs, 20'000u);
    EXPECT_GT(result.totalMisses, 0u);
    EXPECT_GT(result.missRatio, 0.0);
    EXPECT_LT(result.missRatio, 0.2);
    EXPECT_GT(result.performance, 0.05);
    EXPECT_LE(result.performance, 1.0);
    EXPECT_GT(result.busUtilization, 0.0);
    EXPECT_LT(result.busUtilization, 1.0);
    EXPECT_FALSE(result.toString().empty());
}

TEST(VmpSystem, TooManyTracesRejected)
{
    VmpSystem system(smallConfig(1));
    trace::VectorRefSource a({}), b({});
    EXPECT_THROW(system.runTraces({&a, &b}), FatalError);
}

TEST(VmpSystem, MultiCpuRunSharesKernelPages)
{
    VmpSystem system(smallConfig(2));
    trace::SyntheticGen gen0(tinyWorkload(15'000, 11));
    trace::SyntheticGen gen1(tinyWorkload(15'000, 22));
    const auto result = system.runTraces({&gen0, &gen1});
    EXPECT_EQ(result.totalRefs, 30'000u);
    // Kernel pages are physically shared across CPUs, so consistency
    // transactions must have occurred.
    EXPECT_GT(system.bus().countOf(mem::TxType::ReadShared).value() +
                  system.bus().countOf(mem::TxType::ReadPrivate).value(),
              0u);
}

TEST(VmpSystem, WriteBackOnlyMemoryMutation)
{
    VmpSystem system(smallConfig(2));
    trace::SyntheticGen gen0(tinyWorkload(10'000, 31));
    trace::SyntheticGen gen1(tinyWorkload(10'000, 32));
    system.runTraces({&gen0, &gen1});
    // Every memory mutation is a *successful* write-back transaction.
    EXPECT_EQ(system.memory().writes().value(),
              system.bus().countOf(mem::TxType::WriteBack).value());
}

TEST(VmpSystem, MoreProcessorsRaiseBusUtilization)
{
    double util1 = 0, util4 = 0;
    {
        VmpSystem system(smallConfig(1));
        trace::SyntheticGen gen(tinyWorkload(15'000, 5));
        util1 = system.runTraces({&gen}).busUtilization;
    }
    {
        VmpSystem system(smallConfig(4));
        trace::SyntheticGen g0(tinyWorkload(15'000, 5));
        trace::SyntheticGen g1(tinyWorkload(15'000, 6));
        trace::SyntheticGen g2(tinyWorkload(15'000, 7));
        trace::SyntheticGen g3(tinyWorkload(15'000, 8));
        util4 = system.runTraces({&g0, &g1, &g2, &g3}).busUtilization;
    }
    EXPECT_GT(util4, util1);
}

// ----------------------------------------------------- program runs

TEST(VmpSystem, ParallelCountersWithUncachedLock)
{
    // Classic coherence acid test: N CPUs increment a shared counter
    // ITERS times each under an uncached test-and-set lock. The final
    // value must be exact.
    constexpr std::uint32_t iters = 25;
    constexpr std::uint32_t cpus = 3;
    const Addr lock_pa = 0x0; // uncached physical lock
    // Shared counter in kernel space (one frame across ASIDs).
    const Addr counter_va = trace::kernelBase + 0x40;

    const cpu::Program worker = {
        /*0*/ cpu::opMoveImm(1, iters),
        // acquire:
        /*1*/ cpu::opUncachedTas(lock_pa, 0),
        /*2*/ cpu::opBranchIfNotZero(0, 1),
        // critical section:
        /*3*/ cpu::opRead(counter_va, 2),
        /*4*/ cpu::opAddImm(2, 1),
        /*5*/ cpu::opWrite(counter_va, 2),
        // release:
        /*6*/ cpu::opUncachedWrite(lock_pa, 0),
        /*7*/ cpu::opDecBranchNotZero(1, 1),
        /*8*/ cpu::opHalt(),
    };

    VmpConfig cfg = smallConfig(cpus);
    VmpSystem system(cfg);
    const auto programs =
        std::vector<cpu::Program>(cpus, worker);
    // Keep the CPUs alive: halted processors still service their bus
    // monitors, which the final read below relies on.
    const auto cpu_objs = system.runPrograms(programs);

    // Read the final value through any CPU.
    std::uint32_t final_value = 0;
    bool done = false;
    system.controller(0).readWord(1, counter_va, true,
                                  [&](std::uint32_t v) {
                                      final_value = v;
                                      done = true;
                                  });
    system.events().run();
    ASSERT_TRUE(done);
    EXPECT_EQ(final_value, iters * cpus);
}

TEST(VmpSystem, CachedSpinLockAlsoCorrectButCausesTraffic)
{
    // Test-and-set on *cached* memory: correct, but each contender
    // drags the lock's page around — the Section 5.4 thrashing story.
    constexpr std::uint32_t iters = 10;
    constexpr std::uint32_t cpus = 2;
    const Addr lock_va = trace::kernelBase + 0x1000;
    const Addr counter_va = trace::kernelBase + 0x2000;

    const cpu::Program worker = {
        /*0*/ cpu::opMoveImm(1, iters),
        // acquire (cached TAS spin):
        /*1*/ cpu::opCachedTas(lock_va, 0),
        /*2*/ cpu::opBranchIfNotZero(0, 1),
        // critical section:
        /*3*/ cpu::opRead(counter_va, 2),
        /*4*/ cpu::opAddImm(2, 1),
        /*5*/ cpu::opWrite(counter_va, 2),
        // release:
        /*6*/ cpu::opWriteImm(lock_va, 0),
        /*7*/ cpu::opDecBranchNotZero(1, 1),
        /*8*/ cpu::opHalt(),
    };

    VmpSystem system(smallConfig(cpus));
    const auto cpu_objs =
        system.runPrograms(std::vector<cpu::Program>(cpus, worker));

    std::uint32_t final_value = 0;
    system.controller(0).readWord(1, counter_va, true,
                                  [&](std::uint32_t v) {
                                      final_value = v;
                                  });
    system.events().run();
    EXPECT_EQ(final_value, iters * cpus);
    // Ownership of the lock page ping-ponged.
    EXPECT_GT(system.bus().countOf(mem::TxType::ReadPrivate).value() +
                  system.bus()
                      .countOf(mem::TxType::AssertOwnership)
                      .value(),
              2 * iters);
}

TEST(VmpSystem, ProgramsInDistinctPagesDontInterfere)
{
    const cpu::Program p0 = {
        cpu::opWriteImm(trace::userBase + 0x0, 100),
        cpu::opRead(trace::userBase + 0x0, 0),
        cpu::opHalt(),
    };
    const cpu::Program p1 = {
        cpu::opWriteImm(trace::userBase + 0x0, 200),
        cpu::opRead(trace::userBase + 0x0, 0),
        cpu::opHalt(),
    };
    VmpSystem system(smallConfig(2));
    const auto cpus = system.runPrograms({p0, p1});
    // Same virtual address but different ASIDs: distinct frames.
    EXPECT_EQ(cpus[0]->reg(0), 100u);
    EXPECT_EQ(cpus[1]->reg(0), 200u);
}

// ------------------------------------------------------- FastCacheSim

TEST(FastCacheSim, SequentialWalkMissesOncePerPage)
{
    FastCacheSim sim(cache::CacheConfig{256, 4, 16, false});
    trace::MemRef ref;
    ref.asid = 1;
    ref.type = trace::RefType::DataRead;
    for (Addr va = 0; va < 16 * 256; va += 4) {
        ref.vaddr = va;
        sim.step(ref);
    }
    const auto &result = sim.result();
    EXPECT_EQ(result.refs, 16u * 64);
    EXPECT_EQ(result.misses, 16u);
    EXPECT_NEAR(result.missRatio(), 1.0 / 64, 1e-9);
}

TEST(FastCacheSim, WritesDoNotDoubleMiss)
{
    FastCacheSim sim(cache::CacheConfig{256, 4, 16, false});
    trace::MemRef ref;
    ref.asid = 1;
    ref.vaddr = 0x100;
    ref.type = trace::RefType::DataRead;
    sim.step(ref);
    ref.type = trace::RefType::DataWrite;
    EXPECT_FALSE(sim.step(ref));
    EXPECT_EQ(sim.result().misses, 1u);
}

TEST(FastCacheSim, SupervisorMissesTracked)
{
    FastCacheSim sim(cache::CacheConfig{256, 4, 16, false});
    trace::MemRef ref;
    ref.asid = 1;
    ref.vaddr = trace::kernelBase;
    ref.type = trace::RefType::InstrFetch;
    ref.supervisor = true;
    sim.step(ref);
    EXPECT_EQ(sim.result().supervisorRefs, 1u);
    EXPECT_EQ(sim.result().supervisorMisses, 1u);
    EXPECT_DOUBLE_EQ(sim.result().supervisorMissShare(), 1.0);
}

TEST(FastCacheSim, LargerCachesMissLess)
{
    auto run = [](std::uint64_t size) {
        FastCacheSim sim(cache::CacheConfig::forSize(size, 256, 4,
                                                     false));
        trace::SyntheticGen gen(
            trace::workloadConfig("atum1"));
        return sim.run(gen).missRatio();
    };
    const double small = run(KiB(64));
    const double large = run(KiB(256));
    EXPECT_GT(small, large);
}

TEST(FastCacheSim, ResetStatsKeepsCacheWarm)
{
    FastCacheSim sim(cache::CacheConfig{256, 4, 16, false});
    trace::MemRef ref;
    ref.asid = 1;
    ref.vaddr = 0x100;
    ref.type = trace::RefType::DataRead;
    sim.step(ref);
    EXPECT_EQ(sim.result().misses, 1u);
    sim.resetStats();
    EXPECT_EQ(sim.result().refs, 0u);
    // Warm: the page is still cached.
    EXPECT_FALSE(sim.step(ref));
    EXPECT_EQ(sim.result().misses, 0u);
}

/** One cell of the Figure-4 grid and its pinned cold-start result. */
struct Fig4Cell
{
    const char *preset;
    std::uint64_t sizeKiB;
    std::uint32_t pageBytes;
    std::uint64_t misses;
    std::uint64_t supervisorMisses;
};

TEST(FastCacheSim, Fig4GridIsPinned)
{
    // The Figure-4 grid (4 presets x 64/128/256 KiB x 128/256/512 B
    // pages, 4-way, cold start, 30k references each, seed 1000). The
    // tag simulator's hits, misses and LRU choices decide every
    // number, so any change to the cache's hit path shows here.
    static const Fig4Cell cells[] = {
        {"atum1", 64, 128, 357, 158},
        {"atum2", 64, 128, 430, 196},
        {"atum3", 64, 128, 497, 210},
        {"atum4", 64, 128, 585, 267},
        {"atum1", 64, 256, 222, 98},
        {"atum2", 64, 256, 269, 126},
        {"atum3", 64, 256, 310, 132},
        {"atum4", 64, 256, 377, 178},
        {"atum1", 64, 512, 141, 62},
        {"atum2", 64, 512, 166, 78},
        {"atum3", 64, 512, 198, 83},
        {"atum4", 64, 512, 247, 120},
        {"atum1", 128, 128, 355, 157},
        {"atum2", 128, 128, 430, 196},
        {"atum3", 128, 128, 496, 210},
        {"atum4", 128, 128, 548, 254},
        {"atum1", 128, 256, 219, 97},
        {"atum2", 128, 256, 269, 126},
        {"atum3", 128, 256, 308, 131},
        {"atum4", 128, 256, 344, 166},
        {"atum1", 128, 512, 132, 59},
        {"atum2", 128, 512, 166, 78},
        {"atum3", 128, 512, 194, 81},
        {"atum4", 128, 512, 219, 109},
        {"atum1", 256, 128, 355, 157},
        {"atum2", 256, 128, 430, 196},
        {"atum3", 256, 128, 496, 210},
        {"atum4", 256, 128, 548, 254},
        {"atum1", 256, 256, 219, 97},
        {"atum2", 256, 256, 269, 126},
        {"atum3", 256, 256, 308, 131},
        {"atum4", 256, 256, 341, 165},
        {"atum1", 256, 512, 132, 59},
        {"atum2", 256, 512, 166, 78},
        {"atum3", 256, 512, 194, 81},
        {"atum4", 256, 512, 214, 106},
    };
    for (const auto &cell : cells) {
        auto workload = trace::workloadConfig(cell.preset);
        workload.totalRefs = 30'000;
        workload.seed = 1000;
        FastCacheSim sim(cache::CacheConfig::forSize(
            KiB(cell.sizeKiB), cell.pageBytes, 4, false));
        trace::SyntheticGen gen(workload);
        const auto result = sim.run(gen);
        EXPECT_EQ(result.refs, 30'000u);
        EXPECT_EQ(result.misses, cell.misses)
            << cell.preset << " " << cell.sizeKiB << "K/"
            << cell.pageBytes;
        EXPECT_EQ(result.supervisorMisses, cell.supervisorMisses)
            << cell.preset << " " << cell.sizeKiB << "K/"
            << cell.pageBytes;
    }
}

TEST(FastCacheSim, MatchesOneCpuMachineAt16KiB)
{
    // Differential oracle: on one CPU the event-driven machine's tag
    // misses (all misses minus ownership upgrades, which FastCacheSim
    // never takes because its fills are exclusive) equal the timeless
    // simulator's misses. Exact at 16 KiB; the larger caches still
    // differ by a few misses (ROADMAP item 4).
    for (const std::uint32_t page : {128u, 256u, 512u}) {
        const auto geometry =
            cache::CacheConfig::forSize(KiB(16), page, 4, true);
        VmpConfig cfg;
        cfg.processors = 1;
        cfg.cache = geometry;
        VmpSystem system(cfg);
        trace::SyntheticGen timed(tinyWorkload(50'000, 1000));
        const auto run = system.runTraces({&timed});

        FastCacheSim sim(geometry);
        trace::SyntheticGen timeless(tinyWorkload(50'000, 1000));
        const auto fast = sim.run(timeless);

        ASSERT_EQ(run.totalRefs, fast.refs);
        EXPECT_EQ(run.totalMisses - run.busUpgrades, fast.misses)
            << page << "B pages";
    }
}

TEST(FastCacheSim, ResultAccumulation)
{
    FastSimResult a, b;
    a.refs = 10;
    a.misses = 2;
    b.refs = 30;
    b.misses = 3;
    b.supervisorRefs = 5;
    b.supervisorMisses = 1;
    a += b;
    EXPECT_EQ(a.refs, 40u);
    EXPECT_EQ(a.misses, 5u);
    EXPECT_EQ(a.supervisorRefs, 5u);
    EXPECT_NEAR(a.missRatio(), 0.125, 1e-9);
}

} // namespace
} // namespace vmp::core
