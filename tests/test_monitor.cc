/**
 * @file
 * Tests for the bus monitor: action table packing and sizing (Section
 * 3.2 footnote: 16/8/4 KiB for 8 MiB at 128/256/512-byte pages),
 * interrupt FIFO capacity and overflow flag, and the monitor's decision
 * table for every <entry, transaction-type> combination.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "mem/bus_types.hh"
#include "monitor/action_table.hh"
#include "monitor/bus_monitor.hh"
#include "monitor/interrupt_fifo.hh"
#include "sim/logging.hh"

namespace vmp::monitor
{
namespace
{

using mem::ActionEntry;
using mem::BusTransaction;
using mem::TxType;
using mem::WatchVerdict;

BusTransaction
makeTx(TxType type, Addr paddr, std::uint32_t requester = 5)
{
    BusTransaction tx;
    tx.type = type;
    tx.paddr = paddr;
    tx.requester = requester;
    return tx;
}

// -------------------------------------------------------- action table

TEST(ActionTable, SizesMatchPaperFootnote)
{
    // 8 MiB of physical memory: 16 (8, 4) KiB of monitor memory for
    // 128 (256, 512) byte pages — 2 bits per frame.
    EXPECT_EQ(ActionTable(8u << 20, 128).storageBytes(), 16u * 1024);
    EXPECT_EQ(ActionTable(8u << 20, 256).storageBytes(), 8u * 1024);
    EXPECT_EQ(ActionTable(8u << 20, 512).storageBytes(), 4u * 1024);
}

TEST(ActionTable, SetGetAllPatterns)
{
    ActionTable table(64 * 1024, 256);
    const ActionEntry entries[] = {
        ActionEntry::Ignore, ActionEntry::Shared, ActionEntry::Protect,
        ActionEntry::Notify};
    // Neighbouring frames must not clobber each other (packed bits).
    for (std::uint64_t f = 0; f < table.frames(); ++f)
        table.set(f, entries[f % 4]);
    for (std::uint64_t f = 0; f < table.frames(); ++f)
        EXPECT_EQ(table.get(f), entries[f % 4]) << f;
}

TEST(ActionTable, EntryForUsesFrameOfAddress)
{
    ActionTable table(64 * 1024, 256);
    table.setFor(0x300, ActionEntry::Protect);
    EXPECT_EQ(table.get(3), ActionEntry::Protect);
    EXPECT_EQ(table.entryFor(0x3ff), ActionEntry::Protect);
    EXPECT_EQ(table.entryFor(0x400), ActionEntry::Ignore);
}

TEST(ActionTable, ClearAndEnumerate)
{
    ActionTable table(64 * 1024, 256);
    table.set(2, ActionEntry::Shared);
    table.set(7, ActionEntry::Notify);
    EXPECT_EQ(table.nonIgnoredFrames(),
              (std::vector<std::uint64_t>{2, 7}));
    table.clear();
    EXPECT_TRUE(table.nonIgnoredFrames().empty());
}

TEST(ActionTable, BoundsAndValidation)
{
    ActionTable table(64 * 1024, 256);
    EXPECT_THROW(table.get(table.frames()), PanicError);
    EXPECT_THROW(table.set(table.frames(), ActionEntry::Ignore),
                 PanicError);
    EXPECT_THROW(ActionTable(1000, 256), FatalError);
    EXPECT_THROW(ActionTable(64 * 1024, 100), FatalError);
}

// ---------------------------------------------------------------- fifo

TEST(InterruptFifo, FifoOrderAndCapacity)
{
    InterruptFifo fifo(3);
    for (Addr a = 0; a < 3; ++a)
        fifo.push({TxType::ReadPrivate, a, 0});
    EXPECT_EQ(fifo.size(), 3u);
    EXPECT_FALSE(fifo.overflowed());

    fifo.push({TxType::ReadPrivate, 99, 0});
    EXPECT_TRUE(fifo.overflowed());
    EXPECT_EQ(fifo.dropped().value(), 1u);
    EXPECT_EQ(fifo.size(), 3u);

    for (Addr a = 0; a < 3; ++a) {
        const auto word = fifo.pop();
        ASSERT_TRUE(word.has_value());
        EXPECT_EQ(word->paddr, a);
    }
    EXPECT_FALSE(fifo.pop().has_value());
    // Overflow flag is sticky until software clears it.
    EXPECT_TRUE(fifo.overflowed());
    fifo.clearOverflow();
    EXPECT_FALSE(fifo.overflowed());
}

TEST(InterruptFifo, WrapsAroundItsRingInFifoOrder)
{
    // Push and pop past the end of the fixed ring several times: the
    // queue, words() and the capacity bound must all stay in order.
    InterruptFifo fifo(4);
    Addr next_push = 0;
    Addr next_pop = 0;
    for (int round = 0; round < 5; ++round) {
        while (fifo.size() < fifo.capacity())
            fifo.push({TxType::ReadShared, next_push++, 0});
        fifo.push({TxType::ReadShared, 999, 0}); // full: dropped
        Addr expect = next_pop;
        for (const InterruptWord &word : fifo.words())
            EXPECT_EQ(word.paddr, expect++);
        EXPECT_EQ(expect, next_push);
        for (int i = 0; i < 3; ++i)
            EXPECT_EQ(fifo.pop()->paddr, next_pop++);
    }
    EXPECT_EQ(fifo.dropped().value(), 5u);
    EXPECT_EQ(fifo.words().size(), 1u);
    EXPECT_EQ(fifo.pop()->paddr, next_pop);
    EXPECT_TRUE(fifo.words().empty());
}

TEST(InterruptFifo, DefaultCapacityIs128)
{
    InterruptFifo fifo;
    EXPECT_EQ(fifo.capacity(), 128u);
    EXPECT_THROW(InterruptFifo(0), FatalError);
}

// -------------------------------------------------- monitor decisions

struct DecisionCase
{
    ActionEntry entry;
    TxType type;
    WatchVerdict want;
};

class MonitorDecisionTest
    : public ::testing::TestWithParam<DecisionCase>
{
};

TEST_P(MonitorDecisionTest, VerdictMatchesSection32Table)
{
    const auto &[entry, type, want] = GetParam();
    BusMonitor monitor(0, 64 * 1024, 256);
    monitor.table().setFor(0x1000, entry);
    EXPECT_EQ(monitor.observe(makeTx(type, 0x1000)), want);
}

std::string
decisionName(const ::testing::TestParamInfo<DecisionCase> &info)
{
    std::string name = mem::actionEntryName(info.param.entry);
    name += "_";
    name += mem::txTypeName(info.param.type);
    for (auto &c : name)
        if (c == '-')
            c = '_';
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllEntries, MonitorDecisionTest,
    ::testing::Values(
        // 00 - do nothing.
        DecisionCase{ActionEntry::Ignore, TxType::ReadShared,
                     WatchVerdict::Ignore},
        DecisionCase{ActionEntry::Ignore, TxType::ReadPrivate,
                     WatchVerdict::Ignore},
        DecisionCase{ActionEntry::Ignore, TxType::AssertOwnership,
                     WatchVerdict::Ignore},
        DecisionCase{ActionEntry::Ignore, TxType::WriteBack,
                     WatchVerdict::Ignore},
        DecisionCase{ActionEntry::Ignore, TxType::Notify,
                     WatchVerdict::Ignore},
        // 01 - interrupt on read-private / assert-ownership; ignore
        // read-shared and notify; write-back is a protocol violation.
        DecisionCase{ActionEntry::Shared, TxType::ReadShared,
                     WatchVerdict::Ignore},
        DecisionCase{ActionEntry::Shared, TxType::ReadPrivate,
                     WatchVerdict::Interrupt},
        DecisionCase{ActionEntry::Shared, TxType::AssertOwnership,
                     WatchVerdict::Interrupt},
        DecisionCase{ActionEntry::Shared, TxType::WriteBack,
                     WatchVerdict::AbortAndInterrupt},
        DecisionCase{ActionEntry::Shared, TxType::Notify,
                     WatchVerdict::Ignore},
        // 10 - abort + interrupt on any consistency-related tx.
        DecisionCase{ActionEntry::Protect, TxType::ReadShared,
                     WatchVerdict::AbortAndInterrupt},
        DecisionCase{ActionEntry::Protect, TxType::ReadPrivate,
                     WatchVerdict::AbortAndInterrupt},
        DecisionCase{ActionEntry::Protect, TxType::AssertOwnership,
                     WatchVerdict::AbortAndInterrupt},
        DecisionCase{ActionEntry::Protect, TxType::WriteBack,
                     WatchVerdict::AbortAndInterrupt},
        DecisionCase{ActionEntry::Protect, TxType::Notify,
                     WatchVerdict::AbortAndInterrupt},
        // 11 - interrupt on notification only.
        DecisionCase{ActionEntry::Notify, TxType::Notify,
                     WatchVerdict::Interrupt},
        DecisionCase{ActionEntry::Notify, TxType::ReadShared,
                     WatchVerdict::Ignore},
        DecisionCase{ActionEntry::Notify, TxType::ReadPrivate,
                     WatchVerdict::Ignore},
        DecisionCase{ActionEntry::Notify, TxType::AssertOwnership,
                     WatchVerdict::Ignore},
        DecisionCase{ActionEntry::Notify, TxType::WriteBack,
                     WatchVerdict::Ignore}),
    decisionName);

// ------------------------------------------------- monitor behaviour

TEST(BusMonitor, NonConsistencyTransactionsIgnored)
{
    BusMonitor monitor(0, 64 * 1024, 256);
    monitor.table().setFor(0, ActionEntry::Protect);
    EXPECT_EQ(monitor.observe(makeTx(TxType::DmaRead, 0)),
              WatchVerdict::Ignore);
    EXPECT_EQ(monitor.observe(makeTx(TxType::DmaWrite, 0)),
              WatchVerdict::Ignore);
    EXPECT_EQ(monitor.observe(makeTx(TxType::WriteActionTable, 0)),
              WatchVerdict::Ignore);
    EXPECT_TRUE(monitor.fifo().empty());
}

TEST(BusMonitor, InterruptQueuesWordAndRaisesLine)
{
    BusMonitor monitor(0, 64 * 1024, 256);
    int raised = 0;
    monitor.setInterruptLine([&] { ++raised; });
    monitor.table().setFor(0x2000, ActionEntry::Shared);

    monitor.observe(makeTx(TxType::ReadPrivate, 0x2010, 3));
    EXPECT_EQ(raised, 1);
    ASSERT_EQ(monitor.fifo().size(), 1u);
    const auto word = monitor.fifo().pop();
    EXPECT_EQ(word->type, TxType::ReadPrivate);
    EXPECT_EQ(word->paddr, 0x2010u);
    EXPECT_EQ(word->requester, 3u);
    EXPECT_EQ(monitor.interrupts().value(), 1u);
    EXPECT_EQ(monitor.abortsIssued().value(), 0u);
}

TEST(BusMonitor, AbortCountsAndStillQueuesWord)
{
    BusMonitor monitor(0, 64 * 1024, 256);
    monitor.table().setFor(0x2000, ActionEntry::Protect);
    monitor.observe(makeTx(TxType::ReadShared, 0x2000));
    EXPECT_EQ(monitor.abortsIssued().value(), 1u);
    EXPECT_EQ(monitor.fifo().size(), 1u);
}

TEST(BusMonitor, SideEffectUpdateWritesTable)
{
    BusMonitor monitor(0, 64 * 1024, 256);
    auto tx = makeTx(TxType::ReadPrivate, 0x4000, 0);
    tx.newEntry = ActionEntry::Protect;
    tx.updatesTable = true;
    monitor.sideEffectUpdate(tx);
    EXPECT_EQ(monitor.table().entryFor(0x4000), ActionEntry::Protect);
}

TEST(BusMonitor, OwnTransactionsAreObservedToo)
{
    // The alias trick of Section 3.3: a processor's own monitor aborts
    // its own read-shared when the processor owns the page privately.
    BusMonitor monitor(4, 64 * 1024, 256);
    monitor.table().setFor(0x600, ActionEntry::Protect);
    EXPECT_EQ(monitor.observe(makeTx(TxType::ReadShared, 0x600, 4)),
              WatchVerdict::AbortAndInterrupt);
}

} // namespace
} // namespace vmp::monitor
