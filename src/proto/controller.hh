/**
 * @file
 * The software side of VMP cache management: one CacheController per
 * processor board models the miss-handler and consistency code that the
 * real machine runs out of local memory.
 *
 * It implements, per Sections 2 and 3:
 *  - software cache miss handling (trap, translate, victim write-back
 *    overlapped with bookkeeping, block-copy fill, retry on abort);
 *  - the two-state (shared/private) distributed ownership protocol,
 *    including assert-ownership upgrades and the "competing against
 *    itself" resolution of virtual-address aliases;
 *  - servicing of bus-monitor interrupt words between instructions
 *    (invalidate, downgrade-with-write-back, relinquish, notification);
 *  - recovery from interrupt-FIFO overflow;
 *  - the local-memory bookkeeping: physical-frame -> cache-slot maps,
 *    frame ownership state, and a shadow of the bus monitor's action
 *    table (the hardware table is bus-side and not CPU-readable).
 *
 * All operations are asynchronous against the shared event queue; the
 * owning CPU model is blocked for the duration of each call, which is
 * exactly the paper's execution model (the CPU blocks on the cache
 * controller mid-instruction awaiting the block transfer).
 */

#ifndef VMP_PROTO_CONTROLLER_HH
#define VMP_PROTO_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "mem/block_copier.hh"
#include "mem/vme_bus.hh"
#include "monitor/action_table.hh"
#include "monitor/bus_monitor.hh"
#include "obs/event_tracer.hh"
#include "proto/dead_owner.hh"
#include "proto/frame_book.hh"
#include "proto/timing.hh"
#include "sim/random.hh"
#include "proto/translator.hh"
#include "sim/event.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace vmp::proto
{

/** How an access() call was satisfied. */
enum class AccessOutcome : std::uint8_t
{
    Hit,           //!< satisfied by the cache at full speed
    MissCompleted, //!< one or more misses were handled in software
};

/**
 * A fixed-capacity set of in-flight operation contexts, used like a
 * stack: push() takes the lowest free entry and returns its index,
 * which continuations capture; release() frees an entry by index. Work
 * normally completes innermost first, but two overlapped interrupt
 * drains may finish in either order, so any entry may be released.
 * Overflowing the capacity is a modelling error and panics.
 */
template <class T, std::size_t N>
class ContextStack
{
    static_assert(N <= 32, "in-use mask is 32 bits");

  public:
    /** Claim a free entry (panics with @p what when all are in use). */
    std::uint32_t
    push(const char *what)
    {
        for (std::uint32_t i = 0; i < N; ++i) {
            if ((used_ & (1u << i)) == 0) {
                used_ |= 1u << i;
                return i;
            }
        }
        overflow(what);
    }
    void release(std::uint32_t i) { used_ &= ~(1u << i); }
    T &operator[](std::uint32_t i) { return entries_[i]; }

  private:
    [[noreturn]] static void
    overflow(const char *what)
    {
        panic(what, ": more than ", N, " contexts in flight");
    }

    std::array<T, N> entries_{};
    std::uint32_t used_ = 0;
};

/**
 * Structured starvation report produced by the livelock watchdog when
 * one logical operation exceeds its retry cap (Section 3.3's retry
 * protocol is probabilistically — not deterministically — live, so
 * starvation must be *detected*, not assumed away).
 */
struct WatchdogReport
{
    CpuId cpu = 0;
    /** Which retry loop starved ("access", "write-back", ...). */
    std::string operation;
    Asid asid = 0;
    Addr vaddr = 0;
    Addr paddr = 0;
    /** Retries attempted when the cap tripped. */
    std::uint64_t attempts = 0;
    /** Tick the starving operation started at. */
    Tick started = 0;
    /** Tick the watchdog tripped at. */
    Tick now = 0;
    /**
     * True when the dead-owner oracle reports the frame's Protect
     * owner failstopped: the loop is waiting on a dead board, not
     * livelocked against live contenders. Counted separately (see
     * deadOwnerSuspected()), not as a watchdog trip.
     */
    bool deadOwnerSuspected = false;

    std::string toString() const;
};

/** The per-processor cache management software. */
class CacheController
{
  public:
    using AccessDone = InlineFn<void(AccessOutcome)>;
    using Done = std::function<void()>;
    /** Page-fault upcall: handle the fault, then invoke retry. */
    using FaultHandler =
        std::function<void(const TranslateRequest &, Done retry)>;
    /** Notification upcall (Section 5.4 locks, messages). */
    using NotifyHandler = std::function<void(Addr paddr)>;

    CacheController(CpuId cpu, EventQueue &events, cache::Cache &cache,
                    monitor::BusMonitor &busMonitor, mem::VmeBus &bus,
                    Translator &translator,
                    const SoftwareTiming &timing = {});

    CpuId cpuId() const { return cpuId_; }
    cache::Cache &cache() { return cache_; }
    monitor::BusMonitor &busMonitor() { return monitor_; }
    const SoftwareTiming &timing() const { return timing_; }

    void setFaultHandler(FaultHandler handler);
    void setNotifyHandler(NotifyHandler handler);

    /** Starvation upcall; see setWatchdog(). */
    using WatchdogHandler = std::function<void(const WatchdogReport &)>;

    /**
     * Configure the livelock/starvation watchdog: when any one retry
     * loop (an access miss or a write-back/notify loop) exceeds
     * @p max_retries attempts, a WatchdogReport is produced — handed
     * to @p handler if set, warned to stderr otherwise — and counted.
     * The operation keeps retrying either way; the watchdog observes,
     * it does not kill. @p max_retries 0 disables the watchdog.
     * Default: cap 1000, no handler.
     */
    void setWatchdog(std::uint64_t max_retries,
                     WatchdogHandler handler = {});

    /** Forward fault-injection hooks to this board's block copier. */
    void setFaultHooks(mem::FaultHooks *hooks);

    /**
     * Attach (or detach, with nullptr) an event tracer. The miss
     * handler records, on @p track: one Miss span per completed miss,
     * MissPhase spans forming a gapless serial partition of it (trap,
     * action-table lookup, victim writeback, block copy, consistency
     * wait), one Service span per interrupt-service burst, and the
     * block copier's Copy spans. A null tracer costs one untaken
     * branch per potential event; a non-null tracer only observes —
     * the simulated timeline is bit-identical either way.
     */
    void setTracer(obs::EventTracer *tracer, std::uint16_t track);

    /** Dead-owner error upcall; see proto/dead_owner.hh. */
    using DeadOwnerHandler = std::function<void(const DeadOwnerError &)>;

    /**
     * Install the recovery subsystem's dead-owner oracle (nullptr to
     * detach). With an oracle the watchdog attributes starvation on a
     * frame whose Protect owner is declared dead to the dead owner
     * instead of counting a livelock trip.
     */
    void setDeadOwnerOracle(const DeadOwnerOracle *oracle)
    {
        deadOracle_ = oracle;
    }

    /**
     * Install a handler for DeadOwnerError reports (abandoned timed
     * waits). Without a handler the error is warned to stderr; it is
     * counted and retained either way.
     */
    void setDeadOwnerHandler(DeadOwnerHandler handler)
    {
        deadOwnerHandler_ = std::move(handler);
    }

    // --- failstop / hot-rejoin (driven by core::VmpSystem) ---

    /**
     * Failstop this board's management software: all local bookkeeping
     * (frame table, slot map, action-table shadow) and cache contents
     * vanish, exactly as if the board lost power. The bus-side monitor
     * hardware is *not* touched — its stale table keeps aborting until
     * the recovery coordinator masks it (or a rejoin clears it), which
     * is precisely the wedge the recovery subsystem exists to break.
     */
    void failstop();

    /** Restart the board's software cold after a failstop. */
    void rejoin();

    /** True between failstop() and rejoin(). */
    bool dead() const { return dead_; }

    // --- partial-failure seams (driven by the fault schedule) ---

    /**
     * Wedge / unwedge the interrupt-service loop: while wedged,
     * serviceInterrupts() returns without draining, so words rot in
     * the FIFO while the bus-side monitor hardware keeps aborting
     * against stale Protect entries. Unlike failstop the board is NOT
     * silent — dead() stays false, bookkeeping and cache contents are
     * retained — which is exactly why a binary liveness probe reports
     * a wedged board healthy and a progress-epoch witness is needed.
     */
    void setWedged(bool wedged) { wedged_ = wedged; }
    bool wedged() const { return wedged_; }

    /**
     * Inflate interrupt-service latency by an integer factor
     * (fail-slow injection). Factor 1 — the default — multiplies the
     * unscaled charge by one and is bit-identical to it.
     */
    void setServiceSlowdown(std::uint64_t factor);
    std::uint64_t serviceSlowdown() const { return slowFactor_; }

    /**
     * Service-loop progress epoch: advances whenever the loop
     * demonstrably makes progress (a word serviced, an overflow sweep
     * run, a drain pass completed). The health witness compares
     * epochs across observations — a wedged loop's epoch freezes
     * while its FIFO backlog persists.
     */
    std::uint64_t serviceEpoch() const { return serviceEpoch_; }

    /** Retry delay with desynchronizing jitter (public so the
     *  determinism regression tests can sample the sequence). */
    Tick retryDelay();

    /**
     * Present one memory reference. On a hit @p done runs immediately
     * (same tick); on a miss it runs once the software handler, block
     * transfers and any retries complete.
     */
    void access(Asid asid, Addr vaddr, bool write, bool supervisor,
                AccessDone done);

    using WordDone = std::function<void(std::uint32_t)>;

    /** Data-plane reference: read a 32-bit word through the cache. */
    void readWord(Asid asid, Addr vaddr, bool supervisor, WordDone done);
    /** Data-plane reference: write a 32-bit word through the cache. */
    void writeWord(Asid asid, Addr vaddr, std::uint32_t value,
                   bool supervisor, Done done);

    /**
     * Service all pending bus-monitor interrupt words (called by the
     * CPU model between instructions). Runs overflow recovery first if
     * the FIFO dropped a word.
     */
    void serviceInterrupts(Done done);

    /** True if any interrupt word (or the overflow flag) is pending. */
    bool interruptPending() const;

    // --- operations used by the VM system and synchronization code ---

    /**
     * Issue assert-ownership on the frame at @p paddr (used by the VM
     * system for translation consistency and DMA, Section 3.3/3.4).
     * Retries until it succeeds; the caller need not hold a copy.
     */
    void assertOwnership(Addr paddr, Done done);

    /** Release a frame protected via assertOwnership (entry -> 00). */
    void releaseProtection(Addr paddr, Done done);

    /** Send a notification transaction for @p paddr. */
    void notifyFrame(Addr paddr, Done done);

    /** Set this monitor's action-table entry via the bus. */
    void writeActionTable(Addr paddr, mem::ActionEntry entry, Done done);

    /** Uncached (non-consistency) global-memory word operations. */
    void uncachedRead(Addr paddr, WordDone done);
    void uncachedWrite(Addr paddr, std::uint32_t value, Done done);
    /** Uncached atomic test-and-set; yields the previous value. */
    void uncachedTas(Addr paddr, WordDone done);

    /**
     * Drop every slot caching the frame at @p paddr, without write-back
     * (used when another master has asserted ownership away from us —
     * normally driven by interrupt service, public for the VM tests).
     */
    void invalidateFrame(Addr paddr);

    /**
     * Flush our own copies of the frame at @p paddr: write the dirty
     * data back (retaining ownership — the entry stays Protect) and
     * invalidate the local slots. Requires ownership to have been
     * asserted; used by the VM system's Section 3.4 sequences.
     */
    void flushFrame(Addr paddr, Done done);

    // --- introspection for tests and the coherence checker ---
    /** Bookkeeping entry for a frame, or nullptr. */
    const FrameInfo *frameInfo(Addr paddr) const;
    /** Software's belief about this monitor's action-table entry. */
    mem::ActionEntry shadowEntry(Addr paddr) const;
    /** Frame and slot bookkeeping (frames, slot map, alias chains). */
    const FrameBook &frameBook() const { return book_; }
    /**
     * Call @p fn(frame, entry) for every frame software has recorded
     * an action-table entry for (since the last failstop), including
     * entries it recorded as Ignore.
     */
    template <class F>
    void
    forEachShadow(F &&fn) const
    {
        for (std::size_t w = 0; w < shadowKnown_.size(); ++w) {
            for (std::uint64_t bits = shadowKnown_[w]; bits != 0;
                 bits &= bits - 1) {
                const std::uint64_t frame =
                    w * 64 + static_cast<unsigned>(__builtin_ctzll(bits));
                fn(frame, shadow_.get(frame));
            }
        }
    }
    const cache::Cache &cache() const { return cache_; }
    const monitor::BusMonitor &busMonitor() const { return monitor_; }

    // --- statistics ---
    const Counter &misses() const { return missCount_; }
    const Counter &ownershipMisses() const { return ownershipCount_; }
    const Counter &hintedPrivateFills() const
    {
        return hintedPrivateFills_;
    }
    const Counter &retries() const { return retryCount_; }
    const Counter &wordsServiced() const { return serviceCount_; }
    const Counter &spuriousWords() const { return spuriousCount_; }
    const Counter &writeBacks() const { return writeBackCount_; }
    const Counter &protocolViolations() const { return violationCount_; }
    const Counter &overflowRecoveries() const { return recoveryCount_; }
    Tick missStallTicks() const { return missStall_; }
    Tick serviceStallTicks() const { return serviceStall_; }
    /**
     * Cumulative service-software CPU time: the per-word software
     * charge, accrued as each word is taken up. This is what the
     * fail-slow health witness reads, and it differs from
     * serviceStallTicks() in two ways that both matter there:
     * it accrues mid-drain (a fail-slow board under steady traffic
     * may never empty its FIFO, and serviceStall_ only commits when
     * a drain finishes), and it excludes bus-wait time (a healthy
     * survivor stalled retrying against a sick *peer* must not be
     * billed as slow itself).
     */
    Tick serviceCpuTicks() const { return serviceCpuNs_; }
    /** Times any retry loop exceeded the watchdog cap. */
    const Counter &watchdogTrips() const { return watchdogTrips_; }
    /** Watchdog cap hits attributed to a declared-dead owner. */
    const Counter &deadOwnerSuspected() const
    {
        return deadOwnerSuspected_;
    }
    /** Timed waits abandoned with a DeadOwnerError. */
    const Counter &deadOwnerErrors() const { return deadOwnerErrors_; }
    /** Most recent dead-owner error, if any wait was ever abandoned. */
    const std::optional<DeadOwnerError> &lastDeadOwnerError() const
    {
        return lastDeadOwnerError_;
    }
    /** Most recent starvation report, if the watchdog ever tripped. */
    const std::optional<WatchdogReport> &lastWatchdogReport() const
    {
        return lastReport_;
    }
    /** Retries needed per completed miss (bucket = retry count). */
    const Histogram &retriesPerMiss() const { return retryHistogram_; }
    void registerStats(StatGroup &group) const;

  private:
    /** Which miss a context handles (the probe's miss kind). */
    enum class MissKind : std::uint8_t
    {
        Full,       //!< no match: translate, retire a victim, fill
        Ownership,  //!< write to a shared copy: assert ownership
        Protection, //!< flags deny the access: refresh them, retry
    };

    /** What completes the reference once the miss is handled. */
    enum class WordOp : std::uint8_t
    {
        None,  //!< access(): report the outcome
        Read,  //!< readWord(): read the word through the cache
        Write, //!< writeWord(): write the word through the cache
    };

    /** One miss in flight: everything its steps need. */
    struct MissContext
    {
        MissKind kind = MissKind::Full;
        WordOp op = WordOp::None;
        /** Retire legs still outstanding (write-back, overlap). */
        std::uint8_t legs = 0;
        TranslateRequest req;
        Tick started = 0;
        TranslateResult result;
        /** The victim (full miss) or the faulting slot. */
        cache::SlotIndex slot = 0;
        /** Value of a writeWord(). */
        std::uint32_t value = 0;
        /** Frame of the slot (ownership miss). */
        std::uint64_t frame = 0;
        AccessDone done;
        WordDone wordDone;
        Done wordWritten;
    };

    /** One interrupt-service drain in flight. */
    struct DrainContext
    {
        Tick started = 0;
        std::uint64_t wordsBefore = 0;
        monitor::InterruptWord word;
        /** Frames whose entries overflow recovery still clears. */
        std::vector<std::uint64_t> recovery;
        Done done;
    };

    /** One assert-ownership or notify retry loop. */
    struct BusLoop
    {
        mem::TxType type = mem::TxType::Notify;
        Addr paddr = 0;
        std::uint64_t tries = 0;
        Tick started = 0;
        Done done;
    };

    /** One short bus operation awaiting completion. */
    struct BusOp
    {
        /** WriteActionTable, or DmaRead/DmaWrite for uncached words. */
        mem::TxType type = mem::TxType::WriteActionTable;
        /** Uncached test-and-set: complete with the old value. */
        bool rmw = false;
        std::uint64_t frame = 0;
        mem::ActionEntry entry = mem::ActionEntry::Ignore;
        /** Word moved by an uncached operation, and the old value. */
        std::uint32_t word = 0;
        std::uint32_t old = 0;
        Done done;
        WordDone wordDone;
    };

    /**
     * The write-back retry loop. It owns the copier's page buffer from
     * start to finish, so at most one runs per controller.
     */
    struct WriteBack
    {
        bool active = false;
        Addr base = 0;
        std::uint64_t frame = 0;
        /** Entry after a successful write-back. */
        mem::ActionEntry after = mem::ActionEntry::Ignore;
        /** Entry to write when a dead owner makes the loop give up. */
        std::optional<mem::ActionEntry> abandon;
        std::uint64_t tries = 0;
        Tick started = 0;
        Done next;
    };

    std::uint64_t frameOf(Addr paddr) const;
    Addr frameBase(Addr paddr) const;
    std::uint32_t pageBytes() const;

    /** Schedule @p fn after @p delay of software execution. */
    template <class F>
    void
    afterSoftware(Tick delay, F &&fn)
    {
        events_.scheduleIn(delay, smallCapture(std::forward<F>(fn)),
                           "sw");
    }

    // --- the miss path (state in misses_[m]) ---
    /** Count and trace a probe miss; returns its context. */
    std::uint32_t beginMiss(const TranslateRequest &req,
                            const cache::AccessResult &res);
    /** Trap and translate a probe miss of context @p m. */
    void dispatchMiss(std::uint32_t m, const cache::AccessResult &res);
    void translated(std::uint32_t m, const TranslateResult &result);
    void missWithTranslation(std::uint32_t m);
    /** Retire the victim slot: write back / release as needed. */
    void retireVictim(std::uint32_t m);
    /** One retire leg finished; the last issues the fill. */
    void retireLeg(std::uint32_t m);
    void issueFill(std::uint32_t m);
    void filled(std::uint32_t m, const mem::TxResult &res);
    void issueUpgrade(std::uint32_t m);
    void upgraded(std::uint32_t m, const mem::TxResult &res);
    /** Abort recovery: service own words, re-trap, redo the access. */
    void retryAccess(std::uint32_t m);
    void reprobe(std::uint32_t m);
    /** Complete a miss: charge the stall, sample the per-miss retry
     *  count into the histogram, and invoke the continuation. */
    void finishMiss(std::uint32_t m);
    /** Read (or, for a write request, write @p value) the word at
     *  @p req's address through the cache, which must hit. */
    std::uint32_t wordAccess(const TranslateRequest &req,
                             std::uint32_t value);

    // --- interrupt service (state in drains_[d]) ---
    void drainStep(std::uint32_t d);
    void finishDrain(std::uint32_t d);
    /** Service drains_[d].word, then continue the drain. */
    void serviceWord(std::uint32_t d);
    /** The drain's continuation, for the operations it starts. */
    Done resumeDrain(std::uint32_t d)
    {
        return smallCapture([this, d] { drainStep(d); });
    }
    void relinquishFrame(std::uint64_t frame, Done next);
    void downgradeFrame(std::uint64_t frame, Done next);
    void recoverFromOverflow(std::uint32_t d);
    void recoveryStep(std::uint32_t d);

    // --- retry loops ---
    /** Start the loop (state in busLoops_[l]) of assertOwnership or
     *  notifyFrame. */
    void startBusLoop(mem::TxType type, Addr paddr, Done done);
    void busLoopAttempt(std::uint32_t l);
    void busLoopDone(std::uint32_t l, const mem::TxResult &res);
    void finishBusLoop(std::uint32_t l);
    /**
     * The one write-back retry loop of retire, relinquish, downgrade
     * and flush: write the copier's buffer back (entry -> @p after on
     * success) until it succeeds, or — when the dead-owner wait
     * expires — give up, writing @p abandon if set. Then run @p next.
     */
    void writeBack(Addr base, std::uint64_t frame, mem::ActionEntry after,
                   std::optional<mem::ActionEntry> abandon, Done next);
    void writeBackAttempt();
    void writeBackDone(const mem::TxResult &res);
    /** The copier's page buffer, to stage a write-back (panics while a
     *  write-back loop holds it). */
    std::uint8_t *writeBackBuffer();
    /** Send @p tx, completing busOps_[o] (table write / uncached). */
    void busOp(mem::BusTransaction tx, std::uint32_t o);
    void busOpDone(std::uint32_t o);
    /** Uncached word operation completing with @p done or
     *  @p word_done. */
    void uncached(Addr paddr, std::uint32_t value, bool write, bool rmw,
                  Done done, WordDone word_done);

    // --- frame and slot bookkeeping ---
    /**
     * Invalidate and forget every slot caching @p frame except
     * @p keep, calling @p before(slot) on each first.
     */
    template <class F>
    void dropSlots(std::uint64_t frame, cache::SlotIndex keep, F &&before);
    /** Record the monitor entry software believes @p frame has. */
    void setShadow(std::uint64_t frame, mem::ActionEntry entry);

    // --- tracing (no-ops while tracer_ is null) ---

    /** Open the Miss span and its first (Trap) phase at @p started.
     *  @p kind: 0 full, 1 ownership, 2 protection. */
    void traceMissBegin(Tick started, std::uint8_t kind);
    /** Transition to @p phase: emit the span of the phase ending now
     *  (no-op when @p phase is already current or no miss is open). */
    void tracePhase(obs::MissPhase phase);
    /** Emit the current phase's span ending now, if non-empty. */
    void traceClosePhase();
    /** Close the open miss: final phase span + the Miss span. */
    void traceMissEnd();

    /**
     * Watchdog check for one retry loop: trips (once per starving
     * operation, at attempts == cap + 1) when @p attempts exceeds the
     * configured cap.
     */
    void watchdogCheck(const char *operation, Asid asid, Addr vaddr,
                       Addr paddr, std::uint64_t attempts, Tick started);

    /**
     * Timed-wait check for one retry loop: true when the dead-owner
     * deadline has expired, in which case a DeadOwnerError has been
     * raised and the loop must abandon the operation.
     */
    bool deadOwnerCheck(const char *operation, Addr vaddr, Addr paddr,
                        std::uint64_t attempts, Tick started);

    CpuId cpuId_;
    EventQueue &events_;
    cache::Cache &cache_;
    monitor::BusMonitor &monitor_;
    mem::VmeBus &bus_;
    mem::BlockCopier copier_;
    Translator &translator_;
    SoftwareTiming timing_;
    Rng rng_;
    obs::EventTracer *tracer_ = nullptr;
    std::uint16_t traceTrack_ = 0;
    /** True while a traced miss is open (between begin and finish). */
    bool missOpen_ = false;
    bool missDirty_ = false;
    std::uint8_t missKindAux_ = 0;
    Tick missStartedAt_ = 0;
    obs::MissPhase phase_ = obs::MissPhase::Trap;
    Tick phaseStartedAt_ = 0;
    FaultHandler faultHandler_;
    NotifyHandler notifyHandler_;

    /** Frame -> slots and ownership state, slot -> frame. */
    FrameBook book_;
    /** Software's shadow of the monitor's action table, packed. */
    monitor::ActionTable shadow_;
    /** One bit per frame: the shadow entry was recorded. */
    std::vector<std::uint64_t> shadowKnown_;

    /** Nesting: a page-table walk's cached PTE read misses inside a
     *  miss, and page-fault handling nests further. */
    ContextStack<MissContext, 8> misses_;
    /** Two drains overlap when a fault-path drain meets an
     *  interrupt-line poke. */
    ContextStack<DrainContext, 4> drains_;
    ContextStack<BusLoop, 4> busLoops_;
    ContextStack<BusOp, 8> busOps_;
    WriteBack wb_;

    Counter missCount_;
    Counter ownershipCount_;
    Counter hintedPrivateFills_;
    Counter retryCount_;
    Counter serviceCount_;
    Counter spuriousCount_;
    Counter writeBackCount_;
    Counter violationCount_;
    Counter recoveryCount_;
    Tick missStall_ = 0;
    Tick serviceStall_ = 0;
    /** Service-software CPU time (see serviceCpuTicks). */
    Tick serviceCpuNs_ = 0;

    // --- livelock watchdog ---
    /** Retry cap per logical operation (0 = watchdog disabled). */
    std::uint64_t watchdogCap_ = 1000;
    WatchdogHandler watchdogHandler_;
    Counter watchdogTrips_;
    std::optional<WatchdogReport> lastReport_;

    // --- dead-owner timed waits / failstop state ---
    const DeadOwnerOracle *deadOracle_ = nullptr;
    DeadOwnerHandler deadOwnerHandler_;
    Counter deadOwnerSuspected_;
    Counter deadOwnerErrors_;
    std::optional<DeadOwnerError> lastDeadOwnerError_;
    bool dead_ = false;
    /** Service loop wedged (partial failure; distinct from dead_). */
    bool wedged_ = false;
    /** Interrupt-service latency multiplier (fail-slow; 1 = healthy). */
    std::uint64_t slowFactor_ = 1;
    /** Service-loop progress epoch (see serviceEpoch()). */
    std::uint64_t serviceEpoch_ = 0;
    /** Retries of the in-flight access (one CPU => one at a time). */
    std::uint64_t liveRetries_ = 0;
    /** Retries per completed miss; bucket n = n retries, last bucket
     *  collects everything >= 32. */
    Histogram retryHistogram_{33, 1.0};
};

} // namespace vmp::proto

#endif // VMP_PROTO_CONTROLLER_HH
