/**
 * @file
 * Tests for the trace layer: reference records, binary/text round trips,
 * the synthetic ATUM-like generator's structural properties, and the
 * preset workloads' match to the paper's trace characteristics
 * (Section 5.2: 358k-540k four-byte refs, ~25% OS references, small
 * multiprogramming degree).
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "sim/logging.hh"
#include "trace/analyzer.hh"
#include "trace/ref.hh"
#include "trace/synthetic.hh"
#include "trace/trace_io.hh"
#include "trace/workloads.hh"

namespace vmp::trace
{
namespace
{

MemRef
makeRef(Addr va, RefType type, Asid asid = 1, bool sup = false)
{
    MemRef r;
    r.vaddr = va;
    r.type = type;
    r.asid = asid;
    r.supervisor = sup;
    return r;
}

// ----------------------------------------------------------------- ref

TEST(MemRef, Predicates)
{
    EXPECT_TRUE(makeRef(0, RefType::DataWrite).isWrite());
    EXPECT_FALSE(makeRef(0, RefType::DataRead).isWrite());
    EXPECT_TRUE(makeRef(0, RefType::InstrFetch).isFetch());
}

TEST(MemRef, ToStringMentionsFields)
{
    const auto s = makeRef(0x1234, RefType::DataWrite, 3, true).toString();
    EXPECT_NE(s.find("write"), std::string::npos);
    EXPECT_NE(s.find("asid=3"), std::string::npos);
    EXPECT_NE(s.find("1234"), std::string::npos);
    EXPECT_NE(s.find("sup"), std::string::npos);
}

// --------------------------------------------------------------- io

TEST(TraceIo, BinaryRoundTrip)
{
    std::vector<MemRef> refs = {
        makeRef(0x1000, RefType::InstrFetch, 1, false),
        makeRef(0x2004, RefType::DataRead, 2, true),
        makeRef(0xdeadbeef, RefType::DataWrite, 255, false),
    };
    std::stringstream ss;
    BinaryTraceWriter writer(ss);
    for (const auto &r : refs)
        writer.write(r);
    EXPECT_EQ(writer.written(), 3u);

    BinaryTraceReader reader(ss);
    MemRef r;
    for (const auto &want : refs) {
        ASSERT_TRUE(reader.next(r));
        EXPECT_EQ(r, want);
    }
    EXPECT_FALSE(reader.next(r));
}

TEST(TraceIo, BinaryRejectsBadMagic)
{
    std::stringstream ss;
    ss << "NOPE....";
    EXPECT_THROW(BinaryTraceReader reader(ss), FatalError);
}

TEST(TraceIo, TextRoundTrip)
{
    std::vector<MemRef> refs = {
        makeRef(0x1000, RefType::InstrFetch, 1, false),
        makeRef(0x18000000, RefType::DataWrite, 7, true),
    };
    std::stringstream ss;
    TextTraceWriter writer(ss);
    for (const auto &r : refs)
        writer.write(r);

    TextTraceReader reader(ss);
    MemRef r;
    for (const auto &want : refs) {
        ASSERT_TRUE(reader.next(r));
        EXPECT_EQ(r, want);
    }
    EXPECT_FALSE(reader.next(r));
}

TEST(TraceIo, TextSkipsCommentsAndBlanks)
{
    std::stringstream ss;
    ss << "# a comment\n\nifetch 1 0x100 4 usr # trailing\n";
    TextTraceReader reader(ss);
    MemRef r;
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.vaddr, 0x100u);
    EXPECT_FALSE(reader.next(r));
}

TEST(TraceIo, TextRejectsMalformed)
{
    std::stringstream ss;
    ss << "launder 1 0x100 4 usr\n";
    TextTraceReader reader(ss);
    MemRef r;
    EXPECT_THROW(reader.next(r), FatalError);
}

TEST(TraceIo, VectorSourceAndLimit)
{
    VectorRefSource vec({makeRef(1, RefType::DataRead),
                         makeRef(2, RefType::DataRead),
                         makeRef(3, RefType::DataRead)});
    LimitedRefSource limited(vec, 2);
    const auto got = collect(limited);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].vaddr, 1u);
    EXPECT_EQ(got[1].vaddr, 2u);
}

// ----------------------------------------------------------- synthetic

TEST(Synthetic, ProducesExactlyTotalRefs)
{
    SyntheticConfig cfg;
    cfg.totalRefs = 10'000;
    SyntheticGen gen(cfg);
    MemRef r;
    std::uint64_t n = 0;
    while (gen.next(r))
        ++n;
    EXPECT_EQ(n, 10'000u);
    EXPECT_EQ(gen.produced(), 10'000u);
}

TEST(Synthetic, DeterministicForSeed)
{
    SyntheticConfig cfg;
    cfg.totalRefs = 5'000;
    cfg.seed = 99;
    SyntheticGen a(cfg), b(cfg);
    MemRef ra, rb;
    while (a.next(ra)) {
        ASSERT_TRUE(b.next(rb));
        ASSERT_EQ(ra, rb);
    }
    EXPECT_FALSE(b.next(rb));
}

TEST(Synthetic, DifferentSeedsDiffer)
{
    SyntheticConfig cfg;
    cfg.totalRefs = 2'000;
    cfg.seed = 1;
    SyntheticGen a(cfg);
    cfg.seed = 2;
    SyntheticGen b(cfg);
    MemRef ra, rb;
    bool differ = false;
    while (a.next(ra) && b.next(rb))
        differ = differ || !(ra == rb);
    EXPECT_TRUE(differ);
}

TEST(Synthetic, SupervisorFractionTracksTarget)
{
    SyntheticConfig cfg;
    cfg.totalRefs = 200'000;
    cfg.osRefFrac = 0.25;
    SyntheticGen gen(cfg);
    TraceAnalyzer analyzer;
    analyzer.consume(gen);
    const auto prof = analyzer.profile();
    EXPECT_NEAR(prof.supervisorFrac(), 0.25, 0.03);
}

TEST(Synthetic, ZeroOsFractionMeansNoSupervisorRefs)
{
    SyntheticConfig cfg;
    cfg.totalRefs = 20'000;
    cfg.osRefFrac = 0.0;
    SyntheticGen gen(cfg);
    MemRef r;
    while (gen.next(r))
        ASSERT_FALSE(r.supervisor);
}

TEST(Synthetic, MultiprogrammingUsesDistinctAsids)
{
    SyntheticConfig cfg;
    cfg.totalRefs = 100'000;
    cfg.processes = 3;
    cfg.quantumRefs = 10'000;
    SyntheticGen gen(cfg);
    TraceAnalyzer analyzer;
    analyzer.consume(gen);
    EXPECT_EQ(analyzer.profile().asidsSeen, 3u);
}

TEST(Synthetic, SupervisorRefsLandInKernelRegion)
{
    SyntheticConfig cfg;
    cfg.totalRefs = 50'000;
    SyntheticGen gen(cfg);
    MemRef r;
    while (gen.next(r)) {
        if (r.supervisor) {
            EXPECT_GE(r.vaddr, kernelBase);
            EXPECT_LT(r.vaddr, userBase);
        } else {
            EXPECT_GE(r.vaddr, userBase);
        }
    }
}

TEST(Synthetic, RefsAreWordSizedAndAligned)
{
    SyntheticConfig cfg;
    cfg.totalRefs = 20'000;
    SyntheticGen gen(cfg);
    MemRef r;
    while (gen.next(r)) {
        EXPECT_EQ(r.size, 4u);
        EXPECT_EQ(r.vaddr % 4, 0u);
    }
}

TEST(Synthetic, FetchesShowSequentialLocality)
{
    SyntheticConfig cfg;
    cfg.totalRefs = 50'000;
    SyntheticGen gen(cfg);
    MemRef r;
    Addr last_fetch = 0;
    std::uint64_t fetches = 0, sequential = 0;
    while (gen.next(r)) {
        if (!r.isFetch())
            continue;
        if (last_fetch != 0 && r.vaddr == last_fetch + 4)
            ++sequential;
        last_fetch = r.vaddr;
        ++fetches;
    }
    ASSERT_GT(fetches, 10'000u);
    // Most consecutive fetches continue the current run.
    EXPECT_GT(static_cast<double>(sequential) /
                  static_cast<double>(fetches),
              0.5);
}

TEST(Synthetic, ConfigValidationRejectsNonsense)
{
    SyntheticConfig cfg;
    cfg.totalRefs = 0;
    EXPECT_THROW(SyntheticGen{cfg}, FatalError);
    cfg = SyntheticConfig{};
    cfg.osRefFrac = 1.5;
    EXPECT_THROW(SyntheticGen{cfg}, FatalError);
    cfg = SyntheticConfig{};
    cfg.dataRefProb = -0.5;
    EXPECT_THROW(SyntheticGen{cfg}, FatalError);
    cfg = SyntheticConfig{};
    cfg.processes = 0;
    EXPECT_THROW(SyntheticGen{cfg}, FatalError);
}

TEST(Synthetic, AsidBaseOffsetsAddressSpaces)
{
    SyntheticConfig cfg;
    cfg.totalRefs = 20'000;
    cfg.processes = 2;
    cfg.quantumRefs = 5'000;
    cfg.asidBase = 40;
    SyntheticGen gen(cfg);
    MemRef r;
    while (gen.next(r)) {
        EXPECT_GE(r.asid, 40);
        EXPECT_LE(r.asid, 41);
    }
}

TEST(Synthetic, KernelOffsetSeparatesKernelImages)
{
    // Two generators with distinct kernel offsets must touch disjoint
    // supervisor addresses (private pseudo-kernels).
    auto make = [](Addr offset) {
        SyntheticConfig cfg;
        cfg.totalRefs = 20'000;
        cfg.seed = 5;
        cfg.kernelOffset = offset;
        return cfg;
    };
    std::set<Addr> first, second;
    {
        SyntheticGen gen(make(0));
        MemRef r;
        while (gen.next(r))
            if (r.supervisor)
                first.insert(r.vaddr);
    }
    {
        SyntheticGen gen(make(0x20'0000));
        MemRef r;
        while (gen.next(r))
            if (r.supervisor)
                second.insert(r.vaddr);
    }
    ASSERT_FALSE(first.empty());
    ASSERT_FALSE(second.empty());
    for (const Addr va : second)
        EXPECT_EQ(first.count(va), 0u);
}

TEST(Synthetic, KernelOffsetValidated)
{
    SyntheticConfig cfg;
    cfg.kernelOffset = userBase; // way outside the kernel region
    EXPECT_THROW(SyntheticGen{cfg}, FatalError);
}

// --------------------------------------------------------- stream gate

/** FNV-1a over every field of every reference @p gen produces. */
std::uint64_t
streamHash(SyntheticGen &gen)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    MemRef r;
    while (gen.next(r)) {
        mix(r.vaddr, 8);
        mix(r.asid, 1);
        mix(static_cast<std::uint64_t>(r.type), 1);
        mix(r.size, 1);
        mix(r.supervisor, 1);
    }
    return h;
}

TEST(Synthetic, PresetStreamsArePinned)
{
    // The first 1M references of each preset at the two benchmark
    // seeds, hashed field by field. Generator speed work must keep the
    // stream bit-identical: every Figure-4 pin, golden and simulated
    // fingerprint downstream rests on it.
    struct Pin
    {
        const char *preset;
        std::uint64_t seed;
        std::uint64_t hash;
        std::uint64_t supervisor;
    };
    const Pin pins[] = {
        {"atum1", 1000, 17984405010299710101ull, 250035},
        {"atum1", 7919, 4360325912394044523ull, 250044},
        {"atum2", 1000, 1452214248760226871ull, 250136},
        {"atum2", 7919, 14723815494600729100ull, 250097},
        {"atum3", 1000, 692972754298145444ull, 250118},
        {"atum3", 7919, 9785720542640452085ull, 250111},
        {"atum4", 1000, 7055571636252346488ull, 280070},
        {"atum4", 7919, 1790290324905744329ull, 280031},
    };
    for (const Pin &pin : pins) {
        auto cfg = workloadConfig(pin.preset);
        cfg.seed = pin.seed;
        cfg.totalRefs = 1'000'000;
        SyntheticGen gen(cfg);
        EXPECT_EQ(streamHash(gen), pin.hash)
            << pin.preset << " seed " << pin.seed;
        EXPECT_EQ(gen.produced(), 1'000'000u);
        EXPECT_EQ(gen.supervisorRefs(), pin.supervisor)
            << pin.preset << " seed " << pin.seed;
    }
}

TEST(Synthetic, TruncatedMidInstructionCountsAreExact)
{
    // A totalRefs that ends inside an instruction (the next reference
    // would be a data or stack reference, not a fetch) must stop
    // exactly there, with the queued remainder never counted.
    auto cfg = workloadConfig("atum2");
    cfg.seed = 1000;
    const std::uint64_t cut = 123'457;
    cfg.totalRefs = cut + 1;
    {
        SyntheticGen longer(cfg);
        MemRef r;
        while (longer.next(r)) {
        }
        ASSERT_FALSE(r.isFetch()) << "cut is on an instruction boundary";
    }
    cfg.totalRefs = cut;
    SyntheticGen gen(cfg);
    MemRef r;
    std::uint64_t n = 0, sup = 0;
    while (gen.next(r)) {
        ++n;
        sup += r.supervisor;
    }
    EXPECT_EQ(n, cut);
    EXPECT_EQ(gen.produced(), cut);
    EXPECT_EQ(gen.supervisorRefs(), sup);
    EXPECT_EQ(gen.supervisorRefs(), 31'055u);
    EXPECT_FALSE(gen.next(r));
    EXPECT_EQ(gen.produced(), cut);
}

TEST(TraceIo, BinaryRejectsCorruptType)
{
    std::stringstream ss;
    BinaryTraceWriter writer(ss);
    writer.write(MemRef{});
    // Corrupt the type byte of the first record (offset 8 + 8 + 1).
    std::string raw = ss.str();
    raw[8 + 9] = 0x7f;
    std::stringstream corrupted(raw);
    BinaryTraceReader reader(corrupted);
    MemRef r;
    EXPECT_THROW(reader.next(r), FatalError);
}

// ----------------------------------------------------------- workloads

TEST(Workloads, FourPresetsExist)
{
    const auto names = workloadNames();
    ASSERT_EQ(names.size(), 4u);
    for (const auto &name : names) {
        const auto cfg = workloadConfig(name);
        EXPECT_NO_THROW(cfg.check());
    }
    EXPECT_THROW(workloadConfig("atum9"), FatalError);
}

TEST(Workloads, LengthsMatchPaperBand)
{
    // "The trace lengths vary from 358,000 to 540,000 four-byte
    // references."
    for (const auto &cfg : allWorkloads()) {
        EXPECT_GE(cfg.totalRefs, 358'000u);
        EXPECT_LE(cfg.totalRefs, 540'000u);
    }
}

TEST(Workloads, OsFractionNearQuarter)
{
    // "operating system references account for approximately 25% of the
    // references" — checked on the generated streams, subsampled for
    // speed.
    for (const auto &name : workloadNames()) {
        auto cfg = workloadConfig(name);
        cfg.totalRefs = 120'000;
        SyntheticGen gen(cfg);
        TraceAnalyzer analyzer;
        analyzer.consume(gen);
        EXPECT_NEAR(analyzer.profile().supervisorFrac(), 0.25, 0.05)
            << name;
    }
}

TEST(Workloads, FootprintExceedsSmallCachesButHasHotCore)
{
    // The Figure 4 sweep only makes sense if the traces touch more
    // memory than the smallest cache (64K) at the finest page size.
    auto cfg = workloadConfig("atum1");
    SyntheticGen gen(cfg);
    TraceAnalyzer analyzer;
    analyzer.consume(gen);
    const auto prof = analyzer.profile();
    EXPECT_GT(prof.footprintBytes(128), 64u * 1024);
}

// ------------------------------------------------------------ analyzer

TEST(Analyzer, CountsMixAndFootprint)
{
    TraceAnalyzer analyzer({128, 256});
    analyzer.observe(makeRef(0, RefType::InstrFetch, 1));
    analyzer.observe(makeRef(4, RefType::DataRead, 1));
    analyzer.observe(makeRef(130, RefType::DataWrite, 1, true));
    analyzer.observe(makeRef(0, RefType::DataRead, 2));
    const auto prof = analyzer.profile();
    EXPECT_EQ(prof.totalRefs, 4u);
    EXPECT_EQ(prof.fetches, 1u);
    EXPECT_EQ(prof.reads, 2u);
    EXPECT_EQ(prof.writes, 1u);
    EXPECT_EQ(prof.supervisorRefs, 1u);
    EXPECT_EQ(prof.asidsSeen, 2u);
    // asid 1 touches pages {0,1} at 128B; asid 2 touches page 0.
    EXPECT_EQ(prof.uniquePages.at(128), 3u);
    EXPECT_EQ(prof.uniquePages.at(256), 2u);
    EXPECT_DOUBLE_EQ(prof.writeFrac(), 1.0 / 3.0);
}

TEST(Analyzer, RejectsNonPowerOfTwoPageSize)
{
    EXPECT_THROW(TraceAnalyzer({100}), FatalError);
}

} // namespace
} // namespace vmp::trace
