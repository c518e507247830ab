#include "proto/controller.hh"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace vmp::proto
{

namespace
{

/** Does a protection flag set permit this access? (Mirrors the cache.) */
bool
protPermits(cache::SlotFlags prot, bool write, bool supervisor)
{
    using namespace vmp::cache;
    if (supervisor)
        return !write || (prot & FlagSupWritable);
    return write ? (prot & FlagUserWritable) != 0
                 : (prot & FlagUserReadable) != 0;
}

} // namespace

std::string
WatchdogReport::toString() const
{
    std::ostringstream os;
    os << "cpu" << cpu << " " << operation << " starved: " << attempts
       << " retries since tick " << started << " (now " << now << ")";
    if (deadOwnerSuspected)
        os << " [dead owner suspected]";
    if (operation == "access") {
        os << " va=0x" << std::hex << vaddr << std::dec << " asid="
           << unsigned{asid};
    } else {
        os << " pa=0x" << std::hex << paddr << std::dec;
    }
    return os.str();
}

CacheController::CacheController(CpuId cpu, EventQueue &events,
                                 cache::Cache &cache,
                                 monitor::BusMonitor &busMonitor,
                                 mem::VmeBus &bus,
                                 Translator &translator,
                                 const SoftwareTiming &timing)
    : cpuId_(cpu), events_(events), cache_(cache), monitor_(busMonitor),
      bus_(bus), copier_(cpu, bus), translator_(translator),
      timing_(timing), rng_(0x9E3779B9u * (cpu + 1) + 0x1234),
      book_(cache.config().totalSlots()),
      shadow_(busMonitor.table().frames() * cache.config().pageBytes,
              cache.config().pageBytes),
      shadowKnown_((busMonitor.table().frames() + 63) / 64, 0)
{
}

Tick
CacheController::retryDelay()
{
    Tick delay = timing_.retryNs;
    if (timing_.retryJitterNs > 0)
        delay += rng_.below(timing_.retryJitterNs + 1);
    return delay;
}

void
CacheController::setFaultHandler(FaultHandler handler)
{
    faultHandler_ = std::move(handler);
}

void
CacheController::setNotifyHandler(NotifyHandler handler)
{
    notifyHandler_ = std::move(handler);
}

void
CacheController::setWatchdog(std::uint64_t max_retries,
                             WatchdogHandler handler)
{
    watchdogCap_ = max_retries;
    watchdogHandler_ = std::move(handler);
}

void
CacheController::setFaultHooks(mem::FaultHooks *hooks)
{
    copier_.setFaultHooks(hooks);
}

void
CacheController::setTracer(obs::EventTracer *tracer,
                           std::uint16_t track)
{
    tracer_ = tracer;
    traceTrack_ = track;
    missOpen_ = false;
    copier_.setTracer(tracer, track);
}

// --------------------------------------------------------------------
// Tracing (pure observation; every helper is a no-op without a tracer)
// --------------------------------------------------------------------

void
CacheController::traceMissBegin(Tick started, std::uint8_t kind)
{
    if (tracer_ == nullptr)
        return;
    missOpen_ = true;
    missDirty_ = false;
    missKindAux_ = kind;
    missStartedAt_ = started;
    phase_ = obs::MissPhase::Trap;
    phaseStartedAt_ = started;
}

void
CacheController::traceClosePhase()
{
    const Tick now = events_.now();
    if (now == phaseStartedAt_)
        return; // empty phase: contributes nothing
    obs::TraceEvent event;
    event.kind = obs::EventKind::MissPhase;
    event.at = phaseStartedAt_;
    event.arg0 = now - phaseStartedAt_;
    event.master = cpuId_;
    event.track = traceTrack_;
    event.aux = static_cast<std::uint8_t>(phase_);
    tracer_->record(event);
}

void
CacheController::tracePhase(obs::MissPhase phase)
{
    if (tracer_ == nullptr || !missOpen_ || phase_ == phase)
        return;
    traceClosePhase();
    phase_ = phase;
    phaseStartedAt_ = events_.now();
}

void
CacheController::traceMissEnd()
{
    if (tracer_ == nullptr || !missOpen_)
        return;
    traceClosePhase();
    obs::TraceEvent event;
    event.kind = obs::EventKind::Miss;
    event.at = missStartedAt_;
    event.arg0 = events_.now() - missStartedAt_;
    event.arg1 = liveRetries_;
    event.master = cpuId_;
    event.track = traceTrack_;
    event.aux = static_cast<std::uint8_t>((missDirty_ ? 1u : 0u) |
                                          (missKindAux_ << 1));
    tracer_->record(event);
    missOpen_ = false;
}

void
CacheController::watchdogCheck(const char *operation, Asid asid,
                               Addr vaddr, Addr paddr,
                               std::uint64_t attempts, Tick started)
{
    // Trip exactly once per starving operation, the first time the cap
    // is exceeded; the operation keeps retrying afterwards.
    if (watchdogCap_ == 0 || attempts != watchdogCap_ + 1)
        return;
    // Distinguish a genuine livelock (live contenders starving each
    // other) from a dead owner (the recovery oracle knows the frame's
    // Protect holder failstopped): only the former is a watchdog trip.
    // The access path passes paddr 0 (frame unknown pre-translation)
    // and is always treated as a livelock candidate.
    const bool owner_dead = deadOracle_ != nullptr && paddr != 0 &&
        deadOracle_->isFrameOwnerDead(paddr);
    if (owner_dead)
        ++deadOwnerSuspected_;
    else
        ++watchdogTrips_;
    WatchdogReport report;
    report.cpu = cpuId_;
    report.operation = operation;
    report.asid = asid;
    report.vaddr = vaddr;
    report.paddr = paddr;
    report.attempts = attempts;
    report.started = started;
    report.now = events_.now();
    report.deadOwnerSuspected = owner_dead;
    lastReport_ = report;
    if (watchdogHandler_) {
        watchdogHandler_(*lastReport_);
    } else {
        warn("livelock watchdog: ", lastReport_->toString());
    }
}

bool
CacheController::deadOwnerCheck(const char *operation, Addr vaddr,
                                Addr paddr, std::uint64_t attempts,
                                Tick started)
{
    if (timing_.deadOwnerTimeoutNs == 0 ||
        events_.now() - started < timing_.deadOwnerTimeoutNs)
        return false;
    ++deadOwnerErrors_;
    DeadOwnerError error;
    error.cpu = cpuId_;
    error.operation = operation;
    error.paddr = paddr;
    error.vaddr = vaddr;
    error.attempts = attempts;
    error.started = started;
    error.now = events_.now();
    error.ownerKnownDead = deadOracle_ != nullptr && paddr != 0 &&
        deadOracle_->isFrameOwnerDead(paddr);
    lastDeadOwnerError_ = error;
    VMP_DTRACE(debug::Recover, events_.now(), "cpu", cpuId_,
               " abandoning timed wait: ", error.toString());
    if (deadOwnerHandler_) {
        deadOwnerHandler_(error);
    } else {
        warn("dead-owner timeout: ", error.toString());
    }
    return true;
}

void
CacheController::failstop()
{
    // The board's management software and cache contents are gone; the
    // bus-side monitor hardware (action table, FIFO) keeps running and
    // is handled by recovery / rejoin.
    dead_ = true;
    const auto total =
        static_cast<cache::SlotIndex>(cache_.config().totalSlots());
    for (cache::SlotIndex s = 0; s < total; ++s)
        cache_.invalidate(s);
    book_.clear();
    shadow_.clear();
    std::fill(shadowKnown_.begin(), shadowKnown_.end(), 0);
    liveRetries_ = 0;
    VMP_DTRACE(debug::Recover, events_.now(), "cpu", cpuId_,
               " failstop: local state wiped");
}

void
CacheController::rejoin()
{
    dead_ = false;
    liveRetries_ = 0;
    // Cold software restart also clears partial-failure seam state:
    // the restarted service loop is neither wedged nor slow.
    wedged_ = false;
    slowFactor_ = 1;
    VMP_DTRACE(debug::Recover, events_.now(), "cpu", cpuId_,
               " rejoin: cold restart");
}

void
CacheController::setServiceSlowdown(std::uint64_t factor)
{
    if (factor == 0)
        panic("cpu", cpuId_, ": service slowdown factor must be >= 1");
    slowFactor_ = factor;
}

std::uint32_t
CacheController::pageBytes() const
{
    return cache_.config().pageBytes;
}

std::uint64_t
CacheController::frameOf(Addr paddr) const
{
    return paddr / pageBytes();
}

Addr
CacheController::frameBase(Addr paddr) const
{
    return alignDown(paddr, pageBytes());
}

// --------------------------------------------------------------------
// Frame and slot bookkeeping
// --------------------------------------------------------------------

void
CacheController::setShadow(std::uint64_t frame, mem::ActionEntry entry)
{
    shadow_.set(frame, entry);
    shadowKnown_[frame / 64] |= std::uint64_t{1} << (frame % 64);
}

template <class F>
void
CacheController::dropSlots(std::uint64_t frame, cache::SlotIndex keep,
                           F &&before)
{
    for (cache::SlotIndex slot = book_.firstSlot(frame, keep);
         slot != noSlot; slot = book_.firstSlot(frame, keep)) {
        before(slot);
        cache_.invalidate(slot);
        book_.forget(slot);
    }
}

std::uint8_t *
CacheController::writeBackBuffer()
{
    if (wb_.active)
        panic("cpu", cpuId_, ": write-back staged while another holds "
              "the copier buffer");
    return copier_.buffer(pageBytes());
}

// --------------------------------------------------------------------
// Reference entry points
// --------------------------------------------------------------------

std::uint32_t
CacheController::beginMiss(const TranslateRequest &req,
                           const cache::AccessResult &res)
{
    if (res.miss == cache::MissKind::None)
        panic("miss dispatch with MissKind::None");
    ++missCount_;
    liveRetries_ = 0;
    VMP_DTRACE(debug::Proto, events_.now(), "cpu", cpuId_, " miss ",
               (req.write ? "W" : "R"), " va=0x", std::hex, req.vaddr,
               std::dec, " asid=", unsigned{req.asid});
    const std::uint32_t m = misses_.push("miss");
    MissContext &c = misses_[m];
    c.req = req;
    c.started = events_.now();
    c.op = WordOp::None;
    switch (res.miss) {
      case cache::MissKind::NoMatch:
        traceMissBegin(c.started, 0);
        break;
      case cache::MissKind::WriteShared:
        ++ownershipCount_;
        traceMissBegin(c.started, 1);
        break;
      default:
        traceMissBegin(c.started, 2);
        break;
    }
    return m;
}

void
CacheController::access(Asid asid, Addr vaddr, bool write,
                        bool supervisor, AccessDone done)
{
    const auto res = cache_.access(asid, vaddr, write, supervisor);
    if (res.hit) {
        done(AccessOutcome::Hit);
        return;
    }
    const std::uint32_t m =
        beginMiss(TranslateRequest{asid, vaddr, write, supervisor}, res);
    misses_[m].done = std::move(done);
    dispatchMiss(m, res);
}

void
CacheController::readWord(Asid asid, Addr vaddr, bool supervisor,
                          WordDone done)
{
    const auto res = cache_.access(asid, vaddr, false, supervisor);
    if (res.hit) {
        done(wordAccess(TranslateRequest{asid, vaddr, false, supervisor},
                        0));
        return;
    }
    const std::uint32_t m =
        beginMiss(TranslateRequest{asid, vaddr, false, supervisor}, res);
    misses_[m].op = WordOp::Read;
    misses_[m].wordDone = std::move(done);
    dispatchMiss(m, res);
}

void
CacheController::writeWord(Asid asid, Addr vaddr, std::uint32_t value,
                           bool supervisor, Done done)
{
    const auto res = cache_.access(asid, vaddr, true, supervisor);
    if (res.hit) {
        wordAccess(TranslateRequest{asid, vaddr, true, supervisor},
                   value);
        done();
        return;
    }
    const std::uint32_t m =
        beginMiss(TranslateRequest{asid, vaddr, true, supervisor}, res);
    misses_[m].op = WordOp::Write;
    misses_[m].value = value;
    misses_[m].wordWritten = std::move(done);
    dispatchMiss(m, res);
}

std::uint32_t
CacheController::wordAccess(const TranslateRequest &req,
                            std::uint32_t value)
{
    const auto res =
        cache_.probe(req.asid, req.vaddr, req.write, req.supervisor);
    if (!res.hit)
        panic("cpu", cpuId_, req.write ? ": writeWord" : ": readWord",
              " probe missed after access");
    if (req.write) {
        cache::Slot &s = cache_.slot(res.slot);
        s.flags = static_cast<cache::SlotFlags>(s.flags |
                                                cache::FlagModified);
        cache_.writeBytes(res.slot, cache_.offsetOf(req.vaddr), &value,
                          sizeof(value));
        return value;
    }
    cache_.readBytes(res.slot, cache_.offsetOf(req.vaddr), &value,
                     sizeof(value));
    return value;
}

void
CacheController::finishMiss(std::uint32_t m)
{
    MissContext &c = misses_[m];
    missStall_ += events_.now() - c.started;
    retryHistogram_.sample(static_cast<double>(liveRetries_));
    traceMissEnd();
    // Free the context before continuing: the continuation may resume
    // an outer miss or start the next one.
    const TranslateRequest req = c.req;
    const WordOp op = c.op;
    const std::uint32_t value = c.value;
    const AccessDone done = std::move(c.done);
    const WordDone word_done = std::move(c.wordDone);
    const Done word_written = std::move(c.wordWritten);
    misses_.release(m);
    switch (op) {
      case WordOp::None:
        done(AccessOutcome::MissCompleted);
        return;
      case WordOp::Read:
        word_done(wordAccess(req, 0));
        return;
      case WordOp::Write:
        wordAccess(req, value);
        word_written();
        return;
    }
}

// --------------------------------------------------------------------
// The miss path: trap, translate, retire victim, block-copy fill or
// ownership upgrade, retry on abort (Section 2)
// --------------------------------------------------------------------

void
CacheController::dispatchMiss(std::uint32_t m,
                              const cache::AccessResult &res)
{
    MissContext &c = misses_[m];
    c.slot = res.slot;
    switch (res.miss) {
      case cache::MissKind::NoMatch:
        c.kind = MissKind::Full;
        break;
      case cache::MissKind::WriteShared:
        c.kind = MissKind::Ownership;
        c.frame = book_.frameOf(res.slot);
        if (c.frame == FrameBook::noFrame)
            panic("cpu", cpuId_, ": ownership miss on untracked slot");
        break;
      case cache::MissKind::Protection:
        c.kind = MissKind::Protection;
        break;
      case cache::MissKind::None:
        panic("retry dispatch with MissKind::None");
    }
    // Every kind traps and consults the page tables: an ownership
    // upgrade re-validates protection against a concurrent mapping
    // change and lets the VM system maintain the PTE modified bit
    // (Section 3.4).
    tracePhase(obs::MissPhase::Trap);
    afterSoftware(timing_.trapEntryNs, [this, m] {
        translator_.translate(
            misses_[m].req, *this,
            smallCapture([this, m](const TranslateResult &result) {
                translated(m, result);
            }));
    });
}

void
CacheController::translated(std::uint32_t m,
                            const TranslateResult &result)
{
    MissContext &c = misses_[m];
    const TranslateRequest &req = c.req;
    const bool permits =
        result.ok && protPermits(result.prot, req.write, req.supervisor);
    if (!permits) {
        if (!faultHandler_) {
            if (c.kind == MissKind::Ownership)
                fatal("write fault at 0x", std::hex, req.vaddr,
                      std::dec, " during ownership upgrade");
            if (c.kind == MissKind::Protection)
                fatal("protection fault at 0x", std::hex, req.vaddr,
                      std::dec, " (asid ", unsigned{req.asid}, ")");
            if (!result.ok)
                fatal("page fault at 0x", std::hex, req.vaddr, std::dec,
                      " (asid ", unsigned{req.asid},
                      ") with no fault handler installed");
            fatal("protection violation at 0x", std::hex, req.vaddr,
                  std::dec);
        }
        faultHandler_(req, smallCapture([this, m] { retryAccess(m); }));
        return;
    }
    switch (c.kind) {
      case MissKind::Full:
        c.result = result;
        missWithTranslation(m);
        return;
      case MissKind::Ownership:
        if (frameOf(result.paddr) != c.frame) {
            // The mapping changed under us: drop the stale slot and
            // redo the access from scratch.
            cache_.invalidate(c.slot);
            book_.forget(c.slot);
            retryAccess(m);
            return;
        }
        tracePhase(obs::MissPhase::TableLookup);
        afterSoftware(timing_.ownershipNs, [this, m] { issueUpgrade(m); });
        return;
      case MissKind::Protection: {
        // The page tables grant the access: refresh the slot's
        // protection flags and retry (the retry resolves any remaining
        // ownership requirement).
        cache::Slot &s = cache_.slot(c.slot);
        if (s.valid()) {
            const cache::SlotFlags keep = static_cast<cache::SlotFlags>(
                s.flags & (cache::FlagModified | cache::FlagExclusive));
            cache_.setFlags(c.slot, static_cast<cache::SlotFlags>(
                                        cache::FlagValid | result.prot |
                                        keep));
        }
        retryAccess(m);
        return;
      }
    }
}

void
CacheController::missWithTranslation(std::uint32_t m)
{
    MissContext &c = misses_[m];
    c.slot = cache_.victimFor(c.req.vaddr);
    tracePhase(obs::MissPhase::VictimWriteback);
    retireVictim(m);
}

void
CacheController::retireVictim(std::uint32_t m)
{
    MissContext &c = misses_[m];
    const cache::SlotIndex victim = c.slot;
    const auto leg = [this, m] { retireLeg(m); };
    cache::Slot &slot = cache_.slot(victim);
    if (!slot.valid()) {
        c.legs = 1;
        afterSoftware(timing_.overlapNs, leg);
        return;
    }

    const std::uint64_t frame = book_.frameOf(victim);
    if (frame == FrameBook::noFrame)
        panic("cpu", cpuId_, ": valid victim slot ", victim,
              " has no frame bookkeeping");
    const Addr base = frame * pageBytes();

    if (slot.modified()) {
        // Dirty implies privately owned: write the page back,
        // releasing ownership (entry -> 00), overlapped with up to
        // overlapNs of bookkeeping. The write-back retries until it
        // succeeds; an abort can only come from another monitor's
        // stale entry and resolves once that processor services its
        // interrupt.
        missDirty_ = true; // observed by the tracer only
        std::memcpy(writeBackBuffer(), cache_.pageData(victim),
                    pageBytes());
        book_.forget(victim);
        cache_.invalidate(victim);
        ++writeBackCount_;
        c.legs = 2;
        // A dead owner abandons the write-back (the page's data is
        // lost) but our own Protect entry must not stay stale;
        // writeActionTable is never aborted, so that always completes.
        writeBack(base, frame, mem::ActionEntry::Ignore,
                  mem::ActionEntry::Ignore, smallCapture(leg));
        afterSoftware(timing_.overlapNs, leg);
        return;
    }

    // Clean victim.
    const FrameInfo *info = book_.info(frame);
    const bool was_private =
        info != nullptr && info->state == FrameState::Private;
    book_.forget(victim);
    cache_.invalidate(victim);

    if (was_private && book_.info(frame) == nullptr) {
        // A privately held (but clean) page is being dropped: the
        // Protect entry must not go stale or it would abort every
        // other master's access to the frame forever. Release it with
        // an explicit action-table write, overlapped with bookkeeping.
        c.legs = 2;
        writeActionTable(base, mem::ActionEntry::Ignore, smallCapture(leg));
        afterSoftware(timing_.overlapNs, leg);
    } else {
        // Shared (or still-aliased) victim: leave the 01 entry stale;
        // a later spurious interrupt cleans it up lazily. This keeps
        // the common replacement path free of extra bus transactions.
        c.legs = 1;
        afterSoftware(timing_.overlapNs, leg);
    }
}

void
CacheController::retireLeg(std::uint32_t m)
{
    if (--misses_[m].legs != 0)
        return;
    tracePhase(obs::MissPhase::TableLookup);
    afterSoftware(timing_.postNs, [this, m] { issueFill(m); });
}

void
CacheController::issueFill(std::uint32_t m)
{
    MissContext &c = misses_[m];
    const Addr base = frameBase(c.result.paddr);
    tracePhase(obs::MissPhase::BlockCopy);
    if (wb_.active)
        panic("cpu", cpuId_, ": fill started while a write-back holds "
              "the copier buffer");
    // Non-shared memory (Section 5.4 hint) is fetched with
    // read-private even on a read miss, pre-empting the later
    // assert-ownership upgrade on the first write.
    const bool exclusive = c.req.write || c.result.privateHint;
    if (!c.req.write && c.result.privateHint)
        ++hintedPrivateFills_;
    copier_.readPage(base, pageBytes(), exclusive,
                     smallCapture([this, m](const mem::TxResult &res) {
                         filled(m, res);
                     }));
}

void
CacheController::filled(std::uint32_t m, const mem::TxResult &res)
{
    if (res.aborted) {
        // The instruction re-traps and retries (Section 2): cache
        // flags were left unchanged.
        retryAccess(m);
        return;
    }
    MissContext &c = misses_[m];
    const std::uint64_t frame = frameOf(c.result.paddr);
    const bool exclusive = c.req.write || c.result.privateHint;
    cache::SlotFlags flags = c.result.prot;
    if (exclusive)
        flags = static_cast<cache::SlotFlags>(flags | cache::FlagExclusive);
    cache_.fill(c.slot, cache_.tagFor(c.req.asid, c.req.vaddr), flags);
    if (cache_.config().storeData)
        cache_.writeBytes(c.slot, 0, copier_.buffer(), pageBytes());
    book_.bind(c.slot, frame);
    FrameInfo &info = book_.ensureInfo(frame);
    if (exclusive) {
        info.state = FrameState::Private;
        info.owningSlot = c.slot;
    } else {
        // Shared fill. (A private state here is impossible: our own
        // monitor would have aborted the read-shared.)
        info.state = FrameState::Shared;
        info.owningSlot = noSlot;
    }
    setShadow(frame, exclusive ? mem::ActionEntry::Protect
                               : mem::ActionEntry::Shared);
    finishMiss(m);
}

void
CacheController::issueUpgrade(std::uint32_t m)
{
    MissContext &c = misses_[m];
    mem::BusTransaction tx;
    tx.type = mem::TxType::AssertOwnership;
    tx.requester = cpuId_;
    tx.paddr = c.frame * pageBytes();
    tx.newEntry = mem::ActionEntry::Protect;
    tx.updatesTable = true;
    tracePhase(obs::MissPhase::ConsistencyWait);
    bus_.request(tx, smallCapture([this, m](const mem::TxResult &res) {
                     upgraded(m, res);
                 }));
}

void
CacheController::upgraded(std::uint32_t m, const mem::TxResult &res)
{
    if (res.aborted) {
        retryAccess(m);
        return;
    }
    // We now own the frame exclusively. Other caches (and our own
    // aliases, via the self-echo interrupt word) discard their copies
    // in parallel.
    MissContext &c = misses_[m];
    cache::Slot &s = cache_.slot(c.slot);
    if (s.valid()) {
        cache_.setFlags(c.slot, static_cast<cache::SlotFlags>(
                                    s.flags | cache::FlagExclusive));
    }
    FrameInfo &info = book_.ensureInfo(c.frame);
    info.state = FrameState::Private;
    info.owningSlot = c.slot;
    setShadow(c.frame, mem::ActionEntry::Protect);
    finishMiss(m);
}

void
CacheController::retryAccess(std::uint32_t m)
{
    // The processor re-traps on the retried instruction; pending
    // monitor interrupts are taken first, which is what resolves the
    // self-competition (alias) aborts.
    MissContext &c = misses_[m];
    ++retryCount_;
    ++liveRetries_;
    tracePhase(obs::MissPhase::ConsistencyWait);
    watchdogCheck("access", c.req.asid, c.req.vaddr, 0, liveRetries_,
                  c.started);
    if (deadOwnerCheck("access", c.req.vaddr, 0, liveRetries_,
                       c.started)) {
        // Timed wait expired: the board that must release the page is
        // not answering. Abandon the access — the reference completes
        // *without* a cache fill (the caller sees MissCompleted and a
        // DeadOwnerError); readWord/writeWord must not be used against
        // potentially-stranded frames for this reason.
        finishMiss(m);
        return;
    }
    serviceInterrupts(smallCapture([this, m] {
        afterSoftware(retryDelay(), [this, m] { reprobe(m); });
    }));
}

void
CacheController::reprobe(std::uint32_t m)
{
    const TranslateRequest &req = misses_[m].req;
    const auto res =
        cache_.access(req.asid, req.vaddr, req.write, req.supervisor);
    if (res.hit) {
        finishMiss(m);
        return;
    }
    dispatchMiss(m, res);
}

// --------------------------------------------------------------------
// Interrupt service
// --------------------------------------------------------------------

bool
CacheController::interruptPending() const
{
    return !monitor_.fifo().empty() || monitor_.fifo().overflowed();
}

void
CacheController::serviceInterrupts(Done done)
{
    if (dead_) {
        // Failstopped: the service software is gone. Words rot in the
        // FIFO until the recovery coordinator drains them (or a rejoin
        // clears them) — an idle-servicer poke must not resurrect the
        // board.
        done();
        return;
    }
    if (wedged_) {
        // Wedged service loop (partial failure): the service software
        // is stuck, but the board is not silent — the monitor hardware
        // keeps aborting against its (increasingly stale) table, and
        // dead() stays false. Words rot undrained; only the health
        // witness's progress-epoch check can tell this from healthy.
        // The processor is stuck *inside* the handler, so completion
        // is deferred by one futile service quantum — simulated time
        // advances (callers re-poll without livelocking at one tick)
        // while the epoch stays frozen.
        const std::uint32_t d = drains_.push("interrupt drain");
        drains_[d].done = std::move(done);
        events_.scheduleIn(timing_.serviceNs, smallCapture([this, d] {
                               const Done next =
                                   std::move(drains_[d].done);
                               drains_.release(d);
                               next();
                           }),
                           "svc-wedged");
        return;
    }
    if (!interruptPending()) {
        done();
        return;
    }
    const std::uint32_t d = drains_.push("interrupt drain");
    DrainContext &c = drains_[d];
    c.started = events_.now();
    c.wordsBefore = serviceCount_.value();
    c.done = std::move(done);
    drainStep(d);
}

void
CacheController::drainStep(std::uint32_t d)
{
    if (monitor_.fifo().overflowed()) {
        monitor_.fifo().clearOverflow();
        ++serviceEpoch_;
        recoverFromOverflow(d);
        return;
    }
    const auto word = monitor_.fifo().pop();
    if (!word) {
        ++serviceEpoch_;
        finishDrain(d);
        return;
    }
    ++serviceCount_;
    ++serviceEpoch_;
    VMP_DTRACE(debug::Monitor, events_.now(), "cpu", cpuId_,
               " service word ", mem::txTypeName(word->type), " pa=0x",
               std::hex, word->paddr, std::dec, " from=", word->requester,
               word->aborted ? " (aborted)" : "");
    // slowFactor_ is 1 on a healthy board — multiplying the charge by
    // one keeps the unfaulted run bit-identical.
    serviceCpuNs_ += timing_.serviceNs * slowFactor_;
    drains_[d].word = *word;
    afterSoftware(timing_.serviceNs * slowFactor_,
                  [this, d] { serviceWord(d); });
}

void
CacheController::finishDrain(std::uint32_t d)
{
    DrainContext &c = drains_[d];
    serviceStall_ += events_.now() - c.started;
    if (tracer_ != nullptr) {
        obs::TraceEvent event;
        event.kind = obs::EventKind::Service;
        event.at = c.started;
        event.arg0 = events_.now() - c.started;
        event.arg1 = serviceCount_.value() - c.wordsBefore;
        event.master = cpuId_;
        event.track = traceTrack_;
        tracer_->record(event);
    }
    const Done done = std::move(c.done);
    drains_.release(d);
    done();
}

void
CacheController::serviceWord(std::uint32_t d)
{
    const monitor::InterruptWord word = drains_[d].word;
    const std::uint64_t frame = frameOf(word.paddr);
    const Addr base = frame * pageBytes();
    const FrameInfo *info = book_.info(frame);

    switch (word.type) {
      case mem::TxType::Notify:
        if (notifyHandler_)
            notifyHandler_(word.paddr);
        drainStep(d);
        return;

      case mem::TxType::WriteBack: {
        // We aborted someone's write-back. The writer owns the page,
        // so any entry (or copy) we still have for the frame is stale
        // — typically a lazily-left 01 from a clean replacement. Clear
        // it so the writer's retry can succeed; a dirty copy of our
        // own here would be a genuine protocol violation.
        bool genuine = false;
        dropSlots(frame, noSlot, [&](cache::SlotIndex slot) {
            genuine = genuine || cache_.slot(slot).modified();
        });
        book_.dropInfo(frame);
        if (genuine)
            ++violationCount_;
        if (shadowEntry(word.paddr) != mem::ActionEntry::Ignore) {
            ++spuriousCount_;
            writeActionTable(base, mem::ActionEntry::Ignore,
                             resumeDrain(d));
            return;
        }
        drainStep(d);
        return;
      }

      case mem::TxType::ReadShared:
      case mem::TxType::ReadPrivate:
      case mem::TxType::AssertOwnership:
        if (info == nullptr) {
            // Stale entry with no bookkeeping: clean it up.
            ++spuriousCount_;
            if (shadowEntry(word.paddr) != mem::ActionEntry::Ignore)
                writeActionTable(base, mem::ActionEntry::Ignore,
                                 resumeDrain(d));
            else
                drainStep(d);
            return;
        }
        if (word.type == mem::TxType::ReadShared) {
            // Only queued when we aborted it: we hold the frame
            // privately (possibly via an alias of our own). Downgrade.
            downgradeFrame(frame, resumeDrain(d));
            return;
        }
        if (word.requester == cpuId_ && !word.aborted) {
            // Echo of our own successful acquisition: discard our other
            // (alias) copies of the frame, keeping the acquiring slot.
            dropSlots(frame, info->owningSlot, [](cache::SlotIndex) {});
            drainStep(d);
            return;
        }
        // Another master wants the frame privately (or we aborted our
        // own transaction against a page we hold): relinquish.
        relinquishFrame(frame, resumeDrain(d));
        return;

      default:
        panic("cpu", cpuId_, ": unexpected interrupt word type ",
              mem::txTypeName(word.type));
    }
}

void
CacheController::relinquishFrame(std::uint64_t frame, Done next)
{
    const Addr base = frame * pageBytes();
    if (book_.info(frame) == nullptr) {
        next();
        return;
    }
    // Drop every slot caching this frame, staging any dirty contents
    // for the write-back.
    bool dirty = false;
    dropSlots(frame, noSlot, [&](cache::SlotIndex slot) {
        const cache::Slot &s = cache_.slot(slot);
        if (s.valid() && s.modified()) {
            std::memcpy(writeBackBuffer(), cache_.pageData(slot),
                        pageBytes());
            dirty = true;
        }
    });
    book_.dropInfo(frame);

    if (dirty) {
        ++writeBackCount_;
        writeBack(base, frame, mem::ActionEntry::Ignore,
                  mem::ActionEntry::Ignore, std::move(next));
        return;
    }
    // Clean: release via an explicit action-table write when the entry
    // could be non-00 (shared copies or clean private).
    if (shadowEntry(base) != mem::ActionEntry::Ignore)
        writeActionTable(base, mem::ActionEntry::Ignore, std::move(next));
    else
        next();
}

void
CacheController::downgradeFrame(std::uint64_t frame, Done next)
{
    const Addr base = frame * pageBytes();
    FrameInfo *info = book_.info(frame);
    if (info == nullptr) {
        next();
        return;
    }
    // Clear exclusive/modified on our copies, staging dirty data.
    bool dirty = false;
    bool any_slot = false;
    for (cache::SlotIndex slot = book_.firstSlot(frame); slot != noSlot;
         slot = book_.nextSlot(slot)) {
        cache::Slot &s = cache_.slot(slot);
        if (!s.valid())
            continue;
        any_slot = true;
        if (s.modified()) {
            std::memcpy(writeBackBuffer(), cache_.pageData(slot),
                        pageBytes());
            dirty = true;
        }
        s.flags = static_cast<cache::SlotFlags>(
            s.flags & ~(cache::FlagExclusive | cache::FlagModified));
    }

    if (!any_slot) {
        // Ownership held without a cached copy (DMA bracket): release
        // it entirely rather than leaving a stale shared entry.
        book_.dropInfo(frame);
        writeActionTable(base, mem::ActionEntry::Ignore, std::move(next));
        return;
    }

    info->state = FrameState::Shared;
    info->owningSlot = noSlot;

    if (dirty) {
        // Abandoned on a dead owner: keep the (clean from memory's
        // view, lost) page shared.
        ++writeBackCount_;
        writeBack(base, frame, mem::ActionEntry::Shared,
                  mem::ActionEntry::Shared, std::move(next));
        return;
    }
    // Clean private copy: memory is already current; just move the
    // entry from 10 to 01.
    writeActionTable(base, mem::ActionEntry::Shared, std::move(next));
}

void
CacheController::recoverFromOverflow(std::uint32_t d)
{
    ++recoveryCount_;
    // Conservative recovery (Section 3.3): discard every shared entry
    // and clear the matching action-table entries. Privately owned
    // pages are safe — requests against them are aborted and retried,
    // so their interrupt words regenerate.
    std::vector<std::uint64_t> &shared = drains_[d].recovery;
    shared.clear();
    book_.forEachFrame([&shared](std::uint64_t frame, const FrameInfo &info) {
        if (info.state == FrameState::Shared)
            shared.push_back(frame);
    });
    // Highest frame first: the entries are cleared from the back.
    std::sort(shared.begin(), shared.end());
    for (const std::uint64_t frame : shared) {
        dropSlots(frame, noSlot, [](cache::SlotIndex) {});
        book_.dropInfo(frame);
    }
    recoveryStep(d);
}

void
CacheController::recoveryStep(std::uint32_t d)
{
    // Clear the table entries one bus write at a time.
    std::vector<std::uint64_t> &remaining = drains_[d].recovery;
    while (!remaining.empty() &&
           shadowEntry(remaining.back() * pageBytes()) ==
               mem::ActionEntry::Ignore) {
        remaining.pop_back();
    }
    if (remaining.empty()) {
        drainStep(d);
        return;
    }
    const std::uint64_t frame = remaining.back();
    remaining.pop_back();
    writeActionTable(frame * pageBytes(), mem::ActionEntry::Ignore,
                     smallCapture([this, d] { recoveryStep(d); }));
}

// --------------------------------------------------------------------
// Retry loops
// --------------------------------------------------------------------

void
CacheController::writeBack(Addr base, std::uint64_t frame,
                           mem::ActionEntry after,
                           std::optional<mem::ActionEntry> abandon,
                           Done next)
{
    if (wb_.active)
        panic("cpu", cpuId_, ": write-back started while another runs");
    wb_.active = true;
    wb_.base = base;
    wb_.frame = frame;
    wb_.after = after;
    wb_.abandon = abandon;
    wb_.tries = 0;
    wb_.started = events_.now();
    wb_.next = std::move(next);
    writeBackAttempt();
}

void
CacheController::writeBackAttempt()
{
    copier_.writeBackPage(wb_.base, pageBytes(), wb_.after,
                          smallCapture([this](const mem::TxResult &res) {
                              writeBackDone(res);
                          }));
}

void
CacheController::writeBackDone(const mem::TxResult &res)
{
    if (res.aborted) {
        ++violationCount_;
        watchdogCheck("write-back", 0, 0, wb_.base, ++wb_.tries,
                      wb_.started);
        if (deadOwnerCheck("write-back", 0, wb_.base, wb_.tries,
                           wb_.started)) {
            wb_.active = false;
            Done next = std::move(wb_.next);
            if (wb_.abandon)
                writeActionTable(wb_.base, *wb_.abandon, std::move(next));
            else
                next();
            return;
        }
        afterSoftware(retryDelay(), [this] { writeBackAttempt(); });
        return;
    }
    setShadow(wb_.frame, wb_.after);
    wb_.active = false;
    const Done next = std::move(wb_.next);
    next();
}

void
CacheController::startBusLoop(mem::TxType type, Addr paddr, Done done)
{
    const std::uint32_t l = busLoops_.push("bus retry loop");
    BusLoop &loop = busLoops_[l];
    loop.type = type;
    loop.paddr = paddr;
    loop.tries = 0;
    loop.started = events_.now();
    loop.done = std::move(done);
    busLoopAttempt(l);
}

void
CacheController::busLoopAttempt(std::uint32_t l)
{
    const BusLoop &loop = busLoops_[l];
    mem::BusTransaction tx;
    tx.type = loop.type;
    tx.requester = cpuId_;
    tx.paddr = frameBase(loop.paddr);
    if (loop.type == mem::TxType::AssertOwnership) {
        tx.newEntry = mem::ActionEntry::Protect;
        tx.updatesTable = true;
    }
    bus_.request(tx, smallCapture([this, l](const mem::TxResult &res) {
                     busLoopDone(l, res);
                 }));
}

void
CacheController::busLoopDone(std::uint32_t l, const mem::TxResult &res)
{
    BusLoop &loop = busLoops_[l];
    const Addr base = frameBase(loop.paddr);
    const bool assert = loop.type == mem::TxType::AssertOwnership;
    if (res.aborted) {
        const char *name = assert ? "assert-ownership" : "notify";
        if (assert)
            ++retryCount_;
        watchdogCheck(name, 0, 0, base, ++loop.tries, loop.started);
        if (deadOwnerCheck(name, 0, base, loop.tries, loop.started)) {
            // Abandoned: an assert-ownership caller continues *without*
            // ownership and must consult deadOwnerErrors() before
            // relying on exclusivity; a notification is best-effort.
            finishBusLoop(l);
            return;
        }
        if (!assert) {
            afterSoftware(retryDelay(), [this, l] { busLoopAttempt(l); });
            return;
        }
        // Service our own words first: the abort may be our own
        // monitor protecting an alias we hold.
        serviceInterrupts(smallCapture([this, l] {
            afterSoftware(retryDelay(), [this, l] { busLoopAttempt(l); });
        }));
        return;
    }
    if (assert) {
        const std::uint64_t frame = frameOf(loop.paddr);
        FrameInfo &info = book_.ensureInfo(frame);
        info.state = FrameState::Private;
        info.owningSlot = noSlot;
        setShadow(frame, mem::ActionEntry::Protect);
    }
    finishBusLoop(l);
}

void
CacheController::finishBusLoop(std::uint32_t l)
{
    const Done done = std::move(busLoops_[l].done);
    busLoops_.release(l);
    done();
}

// --------------------------------------------------------------------
// VM / synchronization support operations
// --------------------------------------------------------------------

void
CacheController::assertOwnership(Addr paddr, Done done)
{
    const FrameInfo *info = book_.info(frameOf(paddr));
    if (info != nullptr && info->state == FrameState::Private) {
        done();
        return;
    }
    startBusLoop(mem::TxType::AssertOwnership, paddr, std::move(done));
}

void
CacheController::releaseProtection(Addr paddr, Done done)
{
    const std::uint64_t frame = frameOf(paddr);
    const bool has_slots = book_.slotsOf(frame) != 0;
    if (FrameInfo *info = book_.info(frame)) {
        if (has_slots) {
            info->state = FrameState::Shared;
            info->owningSlot = noSlot;
        } else {
            book_.dropInfo(frame);
        }
    }
    writeActionTable(paddr,
                     has_slots ? mem::ActionEntry::Shared
                               : mem::ActionEntry::Ignore,
                     std::move(done));
}

void
CacheController::notifyFrame(Addr paddr, Done done)
{
    startBusLoop(mem::TxType::Notify, paddr, std::move(done));
}

void
CacheController::busOp(mem::BusTransaction tx, std::uint32_t o)
{
    tx.requester = cpuId_;
    bus_.request(tx, smallCapture([this, o](const mem::TxResult &) {
                     busOpDone(o);
                 }));
}

void
CacheController::busOpDone(std::uint32_t o)
{
    BusOp &op = busOps_[o];
    const mem::TxType type = op.type;
    const bool rmw = op.rmw;
    const std::uint32_t word = rmw ? op.old : op.word;
    if (type == mem::TxType::WriteActionTable)
        setShadow(op.frame, op.entry);
    const Done done = std::move(op.done);
    const WordDone word_done = std::move(op.wordDone);
    busOps_.release(o);
    if (word_done)
        word_done(word);
    else
        done();
}

void
CacheController::writeActionTable(Addr paddr, mem::ActionEntry entry,
                                  Done done)
{
    const std::uint32_t o = busOps_.push("bus operation");
    BusOp &op = busOps_[o];
    op.type = mem::TxType::WriteActionTable;
    op.rmw = false;
    op.frame = frameOf(paddr);
    op.entry = entry;
    op.done = std::move(done);
    op.wordDone = nullptr;
    mem::BusTransaction tx;
    tx.type = mem::TxType::WriteActionTable;
    tx.paddr = frameBase(paddr);
    tx.newEntry = entry;
    tx.updatesTable = true;
    busOp(tx, o);
}

void
CacheController::uncached(Addr paddr, std::uint32_t value, bool write,
                          bool rmw, Done done, WordDone word_done)
{
    const std::uint32_t o = busOps_.push("bus operation");
    BusOp &op = busOps_[o];
    op.type = write ? mem::TxType::DmaWrite : mem::TxType::DmaRead;
    op.rmw = rmw;
    op.word = value;
    op.old = 0;
    op.done = std::move(done);
    op.wordDone = std::move(word_done);
    mem::BusTransaction tx;
    tx.type = op.type;
    tx.paddr = paddr;
    tx.bytes = 4;
    tx.data = reinterpret_cast<std::uint8_t *>(&op.word);
    tx.rmw = rmw;
    if (rmw)
        tx.oldData = reinterpret_cast<std::uint8_t *>(&op.old);
    busOp(tx, o);
}

void
CacheController::uncachedRead(Addr paddr, WordDone done)
{
    uncached(paddr, 0, false, false, nullptr, std::move(done));
}

void
CacheController::uncachedWrite(Addr paddr, std::uint32_t value,
                               Done done)
{
    uncached(paddr, value, true, false, std::move(done), nullptr);
}

void
CacheController::uncachedTas(Addr paddr, WordDone done)
{
    uncached(paddr, 1, true, true, nullptr, std::move(done));
}

void
CacheController::flushFrame(Addr paddr, Done done)
{
    const std::uint64_t frame = frameOf(paddr);
    const Addr base = frame * pageBytes();

    bool dirty = false;
    dropSlots(frame, noSlot, [&](cache::SlotIndex slot) {
        const cache::Slot &s = cache_.slot(slot);
        if (s.valid() && s.modified()) {
            std::memcpy(writeBackBuffer(), cache_.pageData(slot),
                        pageBytes());
            dirty = true;
        }
    });
    // We still own the frame (protection retained for the caller).
    FrameInfo &info = book_.ensureInfo(frame);
    info.state = FrameState::Private;
    info.owningSlot = noSlot;

    if (!dirty) {
        done();
        return;
    }
    // Abandoned on a dead owner: ownership (and the Protect entry) is
    // retained, the dirty data is lost.
    ++writeBackCount_;
    writeBack(base, frame, mem::ActionEntry::Protect, std::nullopt,
              std::move(done));
}

void
CacheController::invalidateFrame(Addr paddr)
{
    const std::uint64_t frame = frameOf(paddr);
    dropSlots(frame, noSlot, [](cache::SlotIndex) {});
    book_.dropInfo(frame);
}

// --------------------------------------------------------------------
// Introspection and statistics
// --------------------------------------------------------------------

const FrameInfo *
CacheController::frameInfo(Addr paddr) const
{
    return book_.info(frameOf(paddr));
}

mem::ActionEntry
CacheController::shadowEntry(Addr paddr) const
{
    const std::uint64_t frame = frameOf(paddr);
    return frame < shadow_.frames() ? shadow_.get(frame)
                                    : mem::ActionEntry::Ignore;
}

void
CacheController::registerStats(StatGroup &group) const
{
    group.addCounter("misses", "references that missed in the cache",
                     missCount_);
    group.addCounter("ownership_misses",
                     "write misses upgraded with assert-ownership",
                     ownershipCount_);
    group.addCounter("hinted_private_fills",
                     "read misses served read-private (non-shared "
                     "hint)",
                     hintedPrivateFills_);
    group.addCounter("retries", "aborted transactions retried",
                     retryCount_);
    group.addCounter("words_serviced",
                     "bus-monitor interrupt words serviced",
                     serviceCount_);
    group.addCounter("spurious_words",
                     "interrupt words against stale table entries",
                     spuriousCount_);
    group.addCounter("write_backs", "cache pages written back",
                     writeBackCount_);
    group.addCounter("protocol_violations",
                     "aborted write-backs observed", violationCount_);
    group.addCounter("overflow_recoveries",
                     "interrupt FIFO overflow recovery sweeps",
                     recoveryCount_);
    group.addCounter("watchdog_trips",
                     "retry loops that exceeded the watchdog cap",
                     watchdogTrips_);
    group.addCounter("dead_owner_suspected",
                     "watchdog cap hits attributed to a dead owner",
                     deadOwnerSuspected_);
    group.addCounter("dead_owner_errors",
                     "timed waits abandoned with a DeadOwnerError",
                     deadOwnerErrors_);
    group.addHistogram("retries_per_miss",
                       "retries needed per completed miss",
                       retryHistogram_);
}

} // namespace vmp::proto
