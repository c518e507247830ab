/**
 * @file
 * Unit tests for the simulation base library: event queue, RNG and
 * distributions, statistics and table rendering, logging behaviour.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <sstream>
#include <vector>

#include "sim/debug.hh"
#include "sim/event.hh"
#include "sim/inline_fn.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace vmp
{
namespace
{

// --------------------------------------------------------------- types

TEST(Types, UnitHelpers)
{
    EXPECT_EQ(nsec(300), 300u);
    EXPECT_EQ(usec(17), 17'000u);
    EXPECT_EQ(msec(2), 2'000'000u);
    EXPECT_DOUBLE_EQ(toUsec(usec(21)), 21.0);
    EXPECT_EQ(KiB(256), 256u * 1024);
    EXPECT_EQ(MiB(8), 8u * 1024 * 1024);
}

TEST(Types, PowerOfTwoHelpers)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(256));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(384));
    EXPECT_EQ(log2i(1), 0u);
    EXPECT_EQ(log2i(512), 9u);
    EXPECT_EQ(alignDown(0x1234, 256), 0x1200u);
    EXPECT_EQ(alignUp(0x1201, 256), 0x1300u);
    EXPECT_EQ(alignUp(0x1200, 256), 0x1200u);
}

// -------------------------------------------------------------- events

TEST(EventQueue, DispatchesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
    EXPECT_EQ(eq.dispatched(), 3u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(100, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ScheduleFromCallback)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(5, [&] {
        eq.scheduleIn(10, [&] { fired = 1; });
    });
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 15u);
}

TEST(EventQueue, Deschedule)
{
    EventQueue eq;
    bool ran = false;
    EventId id = eq.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(eq.deschedule(id));
    EXPECT_FALSE(id.valid());
    EXPECT_FALSE(eq.deschedule(id));
    eq.run();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, RunWithLimitStopsAndAdvancesClock)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&] { ++count; });
    eq.schedule(100, [&] { ++count; });
    eq.run(50);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, PastSchedulingPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(50, [] {}), PanicError);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.reset();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.now(), 0u);
}

TEST(EventQueue, DescheduleAfterDispatchReturnsFalse)
{
    EventQueue eq;
    int ran = 0;
    EventId id = eq.schedule(10, [&] { ++ran; });
    eq.run();
    EXPECT_EQ(ran, 1);
    EXPECT_FALSE(eq.deschedule(id));
    EXPECT_FALSE(id.valid());
}

TEST(EventQueue, StaleHandleDoesNotCancelSlotReuser)
{
    // Cancelling frees the first event's slot; the second event reuses
    // it. The first handle (copied before cancelling, so still valid)
    // must not reach the newer event.
    EventQueue eq;
    bool first = false, second = false;
    EventId id = eq.schedule(10, [&] { first = true; });
    EventId stale = id;
    EXPECT_TRUE(eq.deschedule(id));
    EventId reuser = eq.schedule(10, [&] { second = true; });
    EXPECT_EQ(reuser.slot, stale.slot);
    EXPECT_FALSE(eq.deschedule(stale));
    EXPECT_EQ(eq.pending(), 1u);

    // The same after the slot's event ran rather than being cancelled.
    eq.run();
    EventId ran_handle = reuser;
    eq.schedule(20, [&] { first = true; });
    EXPECT_FALSE(eq.deschedule(ran_handle));
    eq.run();
    EXPECT_TRUE(first);
    EXPECT_TRUE(second);
}

TEST(EventQueue, PendingExcludesCancelledEvents)
{
    EventQueue eq;
    std::vector<EventId> ids;
    for (Tick t = 1; t <= 5; ++t)
        ids.push_back(eq.schedule(t * 10, [] {}));
    EXPECT_EQ(eq.pending(), 5u);
    EXPECT_TRUE(eq.deschedule(ids[1]));
    EXPECT_TRUE(eq.deschedule(ids[3]));
    EXPECT_EQ(eq.pending(), 3u);
    // The cancelled events' heap keys are still queued; dispatch skips
    // them and pending() never counts them.
    eq.run(20);
    EXPECT_EQ(eq.pending(), 2u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.dispatched(), 3u);
}

TEST(EventQueue, RunLimitIgnoresCancelledHead)
{
    // The earliest key is cancelled; run(limit) must not dispatch the
    // next live event, which lies beyond the limit.
    EventQueue eq;
    bool late = false;
    EventId early = eq.schedule(10, [] {});
    eq.schedule(100, [&] { late = true; });
    EXPECT_TRUE(eq.deschedule(early));
    eq.run(50);
    EXPECT_FALSE(late);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_EQ(eq.dispatched(), 0u);
}

TEST(EventQueue, ManyEventsAtOneTickKeepInsertionOrder)
{
    // Ten thousand same-tick events, with every third cancelled and
    // slots reused by later ones, still fire in insertion order.
    constexpr int n = 10'000;
    EventQueue eq;
    std::vector<int> order;
    std::vector<int> expected;
    std::vector<EventId> cancel;
    for (int i = 0; i < n; ++i) {
        const EventId id =
            eq.schedule(100, [&order, i] { order.push_back(i); });
        if (i % 3 == 0)
            cancel.push_back(id);
        else
            expected.push_back(i);
        // Cancel in batches so freed slots are reused by later events.
        if (cancel.size() == 50) {
            for (EventId &c : cancel)
                EXPECT_TRUE(eq.deschedule(c));
            cancel.clear();
        }
    }
    for (EventId &c : cancel)
        EXPECT_TRUE(eq.deschedule(c));
    EXPECT_EQ(eq.pending(), expected.size());
    eq.run();
    EXPECT_EQ(order, expected);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, MassCancellationKeepsOrder)
{
    // Far more cancelled than live events: the queue drops cancelled
    // keys in bulk along the way, and the live events still fire in
    // (tick, insertion) order.
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 20; ++i) {
        eq.schedule(1000 - (i % 4) * 100,
                    [&order, i] { order.push_back(i); });
        for (int j = 0; j < 50; ++j) {
            EventId doomed = eq.schedule(5000 + j, [&order] {
                order.push_back(-1);
            });
            EXPECT_TRUE(eq.deschedule(doomed));
        }
    }
    EXPECT_EQ(eq.pending(), 20u);
    eq.run();
    std::vector<int> expected;
    for (int residue = 3; residue >= 0; --residue) {
        for (int i = residue; i < 20; i += 4)
            expected.push_back(i);
    }
    EXPECT_EQ(order, expected);
    EXPECT_EQ(eq.dispatched(), 20u);
}

TEST(EventQueue, ReusableAfterReset)
{
    EventQueue eq;
    int before = 0, after = 0;
    EventId old = eq.schedule(10, [&] { ++before; });
    eq.schedule(20, [&] { ++before; });
    eq.run(15);
    eq.reset();
    EXPECT_EQ(eq.dispatched(), 0u);

    std::vector<int> order;
    for (int i = 0; i < 3; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    EventId fresh = eq.schedule(10, [&] { ++after; });
    // A handle from before the reset matches nothing after it.
    EXPECT_FALSE(eq.deschedule(old));
    EXPECT_EQ(eq.pending(), 4u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(before, 1);
    EXPECT_EQ(after, 1);
    EXPECT_EQ(eq.dispatched(), 4u);
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_FALSE(eq.deschedule(fresh));
}

/**
 * Capture that counts how often its owning copy is destroyed. A move
 * hands ownership on, so moved-from shells do not count; a copy would
 * make a second owner and count twice.
 */
struct DestroyCounter
{
    explicit DestroyCounter(int &destroyed) : destroyed(&destroyed) {}
    DestroyCounter(const DestroyCounter &other)
        : destroyed(other.destroyed), owner(other.owner)
    {}
    DestroyCounter(DestroyCounter &&other) noexcept
        : destroyed(other.destroyed), owner(other.owner)
    {
        other.owner = false;
    }
    DestroyCounter &operator=(const DestroyCounter &) = delete;
    DestroyCounter &operator=(DestroyCounter &&) = delete;
    ~DestroyCounter()
    {
        if (owner)
            ++*destroyed;
    }

    int *destroyed;
    bool owner = true;
};

TEST(EventQueue, CapturesDestroyedExactlyOnce)
{
    // However a scheduled callable leaves the queue (it runs, it is
    // descheduled, or reset() drops it), its captures are destroyed
    // exactly once and no later than that.
    EventQueue eq;
    int ran = 0;
    int ran_destroyed = 0, cancelled_destroyed = 0, dropped_destroyed = 0;
    eq.schedule(10, [&ran, c = DestroyCounter(ran_destroyed)] {
        (void)c;
        ++ran;
    });
    EventId cancelled =
        eq.schedule(20, [c = DestroyCounter(cancelled_destroyed)] {
            (void)c;
            ADD_FAILURE() << "cancelled event ran";
        });
    eq.schedule(30, [c = DestroyCounter(dropped_destroyed)] {
        (void)c;
        ADD_FAILURE() << "dropped event ran";
    });
    EXPECT_EQ(ran_destroyed + cancelled_destroyed + dropped_destroyed, 0);

    eq.run(15);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(ran_destroyed, 1);

    EXPECT_TRUE(eq.deschedule(cancelled));
    EXPECT_EQ(cancelled_destroyed, 1);

    eq.reset();
    EXPECT_EQ(dropped_destroyed, 1);

    // Nothing is destroyed a second time once the queue is reused.
    eq.schedule(5, [] {});
    eq.run();
    EXPECT_EQ(ran_destroyed, 1);
    EXPECT_EQ(cancelled_destroyed, 1);
    EXPECT_EQ(dropped_destroyed, 1);
}

TEST(EventQueue, KeyPackingBoundsPanic)
{
    // Heap keys pack `seq << 24 | slot` into 64 bits; past either
    // bound the queue panics instead of letting keys wrap or alias.
    EXPECT_EQ(EventQueue::packOrder(5, 7), (std::uint64_t{5} << 24) | 7);
    const std::uint64_t last_seq = EventQueue::maxSeqs - 1;
    const std::uint64_t last_slot = EventQueue::maxSlots - 1;
    EXPECT_EQ(EventQueue::packOrder(last_seq, last_slot),
              ~std::uint64_t{0});
    EXPECT_THROW(EventQueue::packOrder(EventQueue::maxSeqs, 0),
                 PanicError);
    EXPECT_THROW(EventQueue::packOrder(0, EventQueue::maxSlots),
                 PanicError);
    EXPECT_EQ(EventQueue::maxSlots, std::uint64_t{1} << 24);
    EXPECT_EQ(EventQueue::maxSeqs, std::uint64_t{1} << 40);
}

// ------------------------------------------------------------ InlineFn

TEST(InlineFn, MovedFromIsEmpty)
{
    int calls = 0;
    InlineFn<void(int)> fn = [&calls](int n) { calls += n; };
    ASSERT_TRUE(fn);
    InlineFn<void(int)> moved = std::move(fn);
    EXPECT_FALSE(fn); // NOLINT(bugprone-use-after-move)
    ASSERT_TRUE(moved);
    moved(3);
    EXPECT_EQ(calls, 3);

    InlineFn<void(int)> assigned;
    EXPECT_FALSE(assigned);
    assigned = std::move(moved);
    EXPECT_FALSE(moved); // NOLINT(bugprone-use-after-move)
    assigned(4);
    EXPECT_EQ(calls, 7);
    assigned = nullptr;
    EXPECT_FALSE(assigned);
}

TEST(InlineFn, NullCallablesMakeEmptyFunctions)
{
    void (*null_fn)() = nullptr;
    EXPECT_FALSE(InlineFn<void()>(null_fn));
    EXPECT_FALSE(InlineFn<void()>(std::function<void()>()));
    EXPECT_FALSE(InlineFn<void()>(nullptr));
    EventQueue eq;
    EXPECT_THROW(eq.schedule(1, std::function<void()>()), PanicError);
}

TEST(InlineFn, InPlaceRuleAndResults)
{
    struct Big
    {
        std::uint64_t words[4];
    };
    static_assert(fitsInline<void (*)()>);
    static_assert(fitsInline<std::uint64_t[3]>);
    static_assert(!fitsInline<Big>);
    static_assert(!fitsInline<std::function<void()>>);

    // A mutable callable keeps its state between calls, in place or
    // boxed; results and reference arguments pass through.
    const std::uint64_t base = 40;
    InlineFn<std::uint64_t(const std::uint64_t &)> small =
        [base, n = std::uint64_t{0}](const std::uint64_t &add) mutable {
            return base + add + n++;
        };
    EXPECT_EQ(small(1), 41u);
    EXPECT_EQ(small(1), 42u);
    InlineFn<std::uint64_t(const std::uint64_t &)> boxed =
        [big = Big{{1, 2, 3, 4}}](const std::uint64_t &add) mutable {
            return big.words[3]++ + add;
        };
    EXPECT_EQ(boxed(10), 14u);
    EXPECT_EQ(boxed(10), 15u);
}

TEST(InlineFn, BoxedCapturesDestroyedExactlyOnce)
{
    int destroyed = 0;
    int ran = 0;
    {
        InlineFn<void()> fn = [&ran, c = DestroyCounter(destroyed)] {
            (void)c;
            ++ran;
        };
        InlineFn<void()> moved = std::move(fn);
        moved();
        EXPECT_EQ(destroyed, 0);
    }
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(destroyed, 1);
}

// ----------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42), c(43);
    bool all_equal = true, any_diff_c = false;
    for (int i = 0; i < 100; ++i) {
        const auto va = a.next();
        all_equal = all_equal && (va == b.next());
        any_diff_c = any_diff_c || (va != c.next());
    }
    EXPECT_TRUE(all_equal);
    EXPECT_TRUE(any_diff_c);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 10'000; ++i)
        EXPECT_LT(rng.below(37), 37u);
}

TEST(Rng, BetweenInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10'000; ++i) {
        const auto v = rng.between(3, 6);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 6u);
        saw_lo = saw_lo || v == 3;
        saw_hi = saw_hi || v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0;
    const int n = 100'000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, GeometricMeanMatches)
{
    Rng rng(13);
    const double p = 0.125;
    double sum = 0;
    const int n = 100'000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(p));
    EXPECT_NEAR(sum / n, 1.0 / p, 0.15);
    EXPECT_EQ(rng.geometric(1.0), 1u);
}

TEST(Rng, ExponentialMeanMatches)
{
    Rng rng(17);
    double sum = 0;
    const int n = 100'000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(250.0);
    EXPECT_NEAR(sum / n, 250.0, 5.0);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(19);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
}

TEST(Zipf, RankZeroIsHottest)
{
    Rng rng(23);
    ZipfDist dist(100, 1.0);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 50'000; ++i)
        ++counts[dist.sample(rng)];
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[10], counts[90]);
}

TEST(Zipf, CoversDomainAndStaysInRange)
{
    Rng rng(29);
    ZipfDist dist(16, 0.5);
    std::vector<bool> seen(16, false);
    for (int i = 0; i < 20'000; ++i) {
        const auto v = dist.sample(rng);
        ASSERT_LT(v, 16u);
        seen[v] = true;
    }
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(Zipf, ThetaZeroIsUniform)
{
    Rng rng(31);
    ZipfDist dist(10, 0.0);
    std::vector<int> counts(10, 0);
    const int n = 100'000;
    for (int i = 0; i < n; ++i)
        ++counts[dist.sample(rng)];
    for (int c : counts)
        EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
}

// --------------------------------------------------------------- stats

TEST(Stats, CounterBasics)
{
    Counter c;
    ++c;
    c += 4;
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, HistogramBucketsAndMoments)
{
    Histogram h(10, 1.0);
    h.sample(0.5);
    h.sample(1.5);
    h.sample(1.7);
    h.sample(99.0); // overflow bucket
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 2u);
    EXPECT_EQ(h.buckets()[9], 1u);
    EXPECT_DOUBLE_EQ(h.min(), 0.5);
    EXPECT_DOUBLE_EQ(h.max(), 99.0);
    EXPECT_NEAR(h.mean(), (0.5 + 1.5 + 1.7 + 99.0) / 4, 1e-9);
    h.reset();
    EXPECT_EQ(h.samples(), 0u);
}

TEST(Stats, StatGroupDump)
{
    Counter c;
    c += 7;
    Scalar s;
    s.set(2.5);
    StatGroup g("cpu0");
    g.addCounter("misses", "cache misses", c);
    g.addScalar("busy", "busy fraction", s);
    std::ostringstream os;
    g.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("cpu0.misses"), std::string::npos);
    EXPECT_NE(out.find("7"), std::string::npos);
    EXPECT_NE(out.find("cpu0.busy"), std::string::npos);
    EXPECT_NE(out.find("cache misses"), std::string::npos);
}

TEST(Stats, StatGroupRejectsDuplicateNames)
{
    Counter c;
    Scalar s;
    Histogram h(4, 1.0);
    StatGroup g("cpu0");
    g.addCounter("misses", "cache misses", c);
    // Duplicates are rejected across all three stat kinds: a second
    // "misses" would silently shadow the first in dumps and JSON.
    EXPECT_THROW(g.addCounter("misses", "again", c), PanicError);
    EXPECT_THROW(g.addScalar("misses", "as a scalar", s), PanicError);
    EXPECT_THROW(g.addHistogram("misses", "as a histogram", h),
                 PanicError);
    g.addScalar("busy", "busy fraction", s);
    EXPECT_THROW(g.addCounter("busy", "as a counter", c), PanicError);
    g.addHistogram("delay", "queue delay", h);
    EXPECT_THROW(g.addHistogram("delay", "again", h), PanicError);
}

TEST(Stats, TableWriterRendersAlignedRows)
{
    TableWriter t("Table 1");
    t.columns({"Page", "Elapsed", "Bus"});
    t.row().cell(std::uint64_t{128}).cell(17.0, 1).cell(3.5, 1);
    t.row().cell(std::uint64_t{256}).cell(20.0, 1).cell(6.6, 1);
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("== Table 1 =="), std::string::npos);
    EXPECT_NE(out.find("Page"), std::string::npos);
    EXPECT_NE(out.find("17.0"), std::string::npos);
    EXPECT_NE(out.find("6.6"), std::string::npos);
}

// ------------------------------------------------------------- logging

TEST(Logging, PanicAndFatalThrowTypedErrors)
{
    EXPECT_THROW(panic("broken ", 42), PanicError);
    EXPECT_THROW(fatal("bad config ", 1.5), FatalError);
    try {
        panic("value=", 3, " end");
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(), "panic: value=3 end");
    }
}

// --------------------------------------------------------------- debug

namespace debugtest
{
std::vector<std::string> captured;
void
capture(const std::string &line)
{
    captured.push_back(line);
}
} // namespace debugtest

TEST(Debug, FlagParsing)
{
    using namespace vmp::debug;
    EXPECT_EQ(parseFlags(""), 0u);
    EXPECT_EQ(parseFlags("Bus"), Bus);
    EXPECT_EQ(parseFlags("Bus,Proto"), Bus | Proto);
    EXPECT_EQ(parseFlags("all"), All);
    EXPECT_THROW(parseFlags("Bogus"), FatalError);
}

TEST(Debug, EnableDisableAndNames)
{
    using namespace vmp::debug;
    setFlags(0);
    EXPECT_FALSE(enabled(Vm));
    enable(Vm);
    EXPECT_TRUE(enabled(Vm));
    disable(Vm);
    EXPECT_FALSE(enabled(Vm));
    EXPECT_STREQ(flagName(Cache), "Cache");
    EXPECT_STREQ(flagName(Monitor), "Monitor");
    setFlags(0);
}

TEST(Debug, EmitFormatsTickFlagMessage)
{
    using namespace vmp::debug;
    debugtest::captured.clear();
    setSink(debugtest::capture);
    setFlags(Bus);
    VMP_DTRACE(Bus, Tick{1234}, "hello ", 42);
    VMP_DTRACE(Proto, Tick{99}, "suppressed");
    setFlags(0);
    setSink(nullptr);
    ASSERT_EQ(debugtest::captured.size(), 1u);
    EXPECT_EQ(debugtest::captured[0], "1234: Bus: hello 42");
}

// ------------------------------------------------ event queue stress

TEST(EventQueue, RandomizedStressAgainstReferenceModel)
{
    // Schedule/deschedule randomly and verify dispatch order against
    // a simple reference: events fire in (time, insertion) order.
    Rng rng(2024);
    EventQueue eq;
    std::vector<std::pair<Tick, int>> fired;
    struct Planned
    {
        Tick when;
        int id;
        EventId handle;
        bool cancelled;
    };
    std::vector<Planned> planned;

    int next_id = 0;
    for (int round = 0; round < 200; ++round) {
        const Tick when = eq.now() + rng.below(1000);
        const int id = next_id++;
        Planned p{when, id, {}, false};
        p.handle = eq.schedule(when, [&fired, &eq, id] {
            fired.emplace_back(eq.now(), id);
        });
        planned.push_back(p);
        // Randomly cancel an earlier still-pending event.
        if (rng.chance(0.25) && !planned.empty()) {
            auto &victim = planned[rng.below(planned.size())];
            if (!victim.cancelled &&
                eq.deschedule(victim.handle)) {
                victim.cancelled = true;
            }
        }
        // Occasionally run a little.
        if (rng.chance(0.3))
            eq.run(eq.now() + rng.below(500));
    }
    eq.run();

    // Everything not cancelled fired exactly once, at its time, in
    // global time order.
    std::size_t expected = 0;
    for (const auto &p : planned)
        expected += p.cancelled ? 0 : 1;
    EXPECT_EQ(fired.size(), expected);
    for (std::size_t i = 1; i < fired.size(); ++i)
        EXPECT_LE(fired[i - 1].first, fired[i].first);
    for (const auto &p : planned) {
        const auto it = std::find_if(
            fired.begin(), fired.end(),
            [&p](const auto &f) { return f.second == p.id; });
        if (p.cancelled) {
            EXPECT_EQ(it, fired.end()) << p.id;
        } else {
            ASSERT_NE(it, fired.end()) << p.id;
            EXPECT_EQ(it->first, p.when);
        }
    }
}

TEST(Logging, InformToggle)
{
    setInformEnabled(false);
    EXPECT_FALSE(informEnabled());
    setInformEnabled(true);
    EXPECT_TRUE(informEnabled());
}

// ------------------------------------------------------ rng boundaries

TEST(Rng, GeometricTinyProbabilityStaysBounded)
{
    // With p = 1e-12 the inverse-CDF value can be astronomically
    // large; the result must be clamped before the double -> uint64_t
    // cast (which is UB when the value exceeds 2^64 - 1) and every
    // draw must still be at least one trial.
    Rng rng(101);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.geometric(1e-12);
        EXPECT_GE(v, 1u);
    }
}

TEST(Rng, GeometricExtremeProbabilityClampsToMax)
{
    // p small enough that essentially every draw exceeds the uint64_t
    // range: the clamp must return max() rather than invoking UB.
    Rng rng(103);
    bool saw_clamp = false;
    for (int i = 0; i < 100; ++i) {
        const auto v = rng.geometric(1e-21);
        EXPECT_GE(v, 1u);
        if (v == std::numeric_limits<std::uint64_t>::max())
            saw_clamp = true;
    }
    EXPECT_TRUE(saw_clamp);
}

// ------------------------------------------------- histogram underflow

TEST(Stats, HistogramUnderflowCounterKeepsBucketsClean)
{
    Histogram h(4, 1.0);
    h.sample(-0.5);
    h.sample(-3.0, 2);
    h.sample(0.25);
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_EQ(h.underflow(), 3u);
    // Negative samples must not be folded into bucket 0.
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 0u);
    // Moments remain negative-aware.
    EXPECT_DOUBLE_EQ(h.min(), -3.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.25);
    EXPECT_NEAR(h.mean(), (-0.5 - 3.0 - 3.0 + 0.25) / 4.0, 1e-12);
    h.reset();
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.samples(), 0u);
}

TEST(Stats, HistogramPositivePathUnaffectedByUnderflowCounter)
{
    Histogram h(4, 2.0);
    h.sample(0.0);
    h.sample(1.99);
    h.sample(2.0);
    h.sample(100.0); // overflow -> top bucket
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.buckets()[0], 2u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[3], 1u);
}

// ------------------------------------------------------ json documents

TEST(Json, ScalarsAndAccessors)
{
    EXPECT_TRUE(Json().isNull());
    EXPECT_TRUE(Json(true).asBool());
    EXPECT_DOUBLE_EQ(Json(2.5).asNumber(), 2.5);
    EXPECT_EQ(Json(std::uint64_t{42}).asUint(), 42u);
    EXPECT_EQ(Json("hello").asString(), "hello");
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    Json obj = Json::object();
    obj["zebra"] = Json(1);
    obj["alpha"] = Json(2);
    obj["mid"] = Json(3);
    const auto &members = obj.members();
    ASSERT_EQ(members.size(), 3u);
    EXPECT_EQ(members[0].first, "zebra");
    EXPECT_EQ(members[1].first, "alpha");
    EXPECT_EQ(members[2].first, "mid");
    EXPECT_EQ(obj.dump(0), "{\"zebra\":1,\"alpha\":2,\"mid\":3}");
}

TEST(Json, NumberRenderingIsDeterministic)
{
    // Exact integers print without fraction; non-integers round-trip.
    EXPECT_EQ(Json::numberToString(0.0), "0");
    EXPECT_EQ(Json::numberToString(42.0), "42");
    EXPECT_EQ(Json::numberToString(-7.0), "-7");
    EXPECT_EQ(Json(std::uint64_t{1} << 40).dump(0), "1099511627776");
    const std::string third = Json::numberToString(1.0 / 3.0);
    EXPECT_DOUBLE_EQ(std::stod(third), 1.0 / 3.0);
    const std::string tenth = Json::numberToString(0.1);
    EXPECT_DOUBLE_EQ(std::stod(tenth), 0.1);
}

TEST(Json, DumpParseRoundTrip)
{
    Json doc = Json::object();
    doc["name"] = Json("fig4 \"sweep\"\n");
    doc["count"] = Json(std::uint64_t{123456789});
    doc["ratio"] = Json(0.0024);
    doc["ok"] = Json(true);
    doc["none"] = Json();
    Json arr = Json::array();
    arr.push(Json(1));
    arr.push(Json("two"));
    arr.push(Json(false));
    doc["mixed"] = std::move(arr);

    for (const int indent : {0, 2, 4}) {
        const Json parsed = Json::parse(doc.dump(indent));
        EXPECT_EQ(parsed, doc) << "indent=" << indent;
    }
    // Round-tripping the dump again is byte-identical (stable writer).
    EXPECT_EQ(Json::parse(doc.dump()).dump(), doc.dump());
}

TEST(Json, ParseHandlesEscapesAndNesting)
{
    const Json v = Json::parse(
        "{\"s\": \"a\\\"b\\\\c\\n\\t\\u0041\", \"a\": [[1, 2], "
        "{\"x\": -3.5e2}]}");
    EXPECT_EQ(v.get("s").asString(), "a\"b\\c\n\tA");
    EXPECT_DOUBLE_EQ(
        v.get("a").at(1).get("x").asNumber(), -350.0);
}

TEST(Json, ParseRejectsMalformedInput)
{
    EXPECT_THROW(Json::parse(""), FatalError);
    EXPECT_THROW(Json::parse("{\"a\": 1,}"), FatalError);
    EXPECT_THROW(Json::parse("[1, 2] trailing"), FatalError);
    EXPECT_THROW(Json::parse("{\"a\" 1}"), FatalError);
    EXPECT_THROW(Json::parse("\"unterminated"), FatalError);
    EXPECT_THROW(Json::parse("nul"), FatalError);
}

TEST(Json, TypeMismatchPanics)
{
    EXPECT_THROW(Json("str").asNumber(), PanicError);
    EXPECT_THROW(Json(1.0).asString(), PanicError);
    EXPECT_THROW(Json::object().get("missing"), PanicError);
    EXPECT_THROW(Json::array().at(0), PanicError);
}

// --------------------------------------------------- stats -> registry

TEST(Stats, StatGroupSerializesHistograms)
{
    Counter c;
    c += 11;
    Histogram h(4, 1.0);
    h.sample(0.5);
    h.sample(2.5);
    h.sample(-1.0);
    StatGroup g("bus");
    g.addCounter("transactions", "bus transactions", c);
    g.addHistogram("queue_delay_us", "queueing delay", h);

    const Json j = g.toJson();
    EXPECT_EQ(j.get("transactions").asUint(), 11u);
    const Json &hist = j.get("queue_delay_us");
    EXPECT_EQ(hist.get("samples").asUint(), 3u);
    EXPECT_EQ(hist.get("underflow").asUint(), 1u);
    EXPECT_DOUBLE_EQ(hist.get("bucket_width").asNumber(), 1.0);
    ASSERT_EQ(hist.get("buckets").size(), 4u);
    EXPECT_EQ(hist.get("buckets").at(0).asUint(), 1u);
    EXPECT_EQ(hist.get("buckets").at(2).asUint(), 1u);

    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("bus.queue_delay_us"), std::string::npos);
}

TEST(Stats, StatRegistryAggregatesGroups)
{
    Counter c0, c1;
    c0 += 1;
    c1 += 2;
    StatGroup g0("cpu0"), g1("cpu1");
    g0.addCounter("misses", "m", c0);
    g1.addCounter("misses", "m", c1);
    StatRegistry registry;
    registry.add(g0);
    registry.add(g1);
    EXPECT_EQ(registry.size(), 2u);
    const Json j = registry.toJson();
    EXPECT_EQ(j.get("cpu0").get("misses").asUint(), 1u);
    EXPECT_EQ(j.get("cpu1").get("misses").asUint(), 2u);

    StatGroup dup("cpu0");
    EXPECT_THROW(registry.add(dup), PanicError);
}

} // namespace
} // namespace vmp
