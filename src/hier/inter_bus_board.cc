#include "hier/inter_bus_board.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace vmp::hier
{

using mem::ActionEntry;
using mem::TxType;
using mem::WatchVerdict;

InterBusBoard::InterBusBoard(std::uint32_t cluster_index,
                             std::uint32_t local_master_id,
                             EventQueue &events, mem::VmeBus &local_bus,
                             mem::VmeBus &global_bus,
                             mem::PhysMem &image,
                             const IbcTiming &timing,
                             std::size_t fifo_capacity)
    : globalId_(cluster_index), localId_(local_master_id),
      events_(events), localBus_(local_bus), globalBus_(global_bus),
      image_(image), timing_(timing), pageBytes_(image.pageBytes()),
      localTable_(image.size(), image.pageBytes()),
      localFifo_(fifo_capacity),
      globalMonitor_(cluster_index, image.size(), image.pageBytes(),
                     fifo_capacity),
      globalCopier_(cluster_index, global_bus),
      rng_(0x51C5'A11Du * (cluster_index + 1) + 0x0B0Au),
      dirty_(image.size() / image.pageBytes(), false),
      globalShadow_(image.size(), image.pageBytes())
{
    localBus_.attachWatcher(localId_, *this);
    globalBus_.attachWatcher(globalId_, globalMonitor_);
    globalMonitor_.setInterruptLine([this] { kick(); });
}

void
InterBusBoard::traceInstant(obs::EventKind kind, Addr addr)
{
    if (tracer_ == nullptr)
        return;
    obs::TraceEvent event;
    event.kind = kind;
    event.at = events_.now();
    event.addr = addr;
    event.master = globalId_;
    event.track = traceTrack_;
    tracer_->record(event);
}

void
InterBusBoard::traceFetch(Tick started, Addr addr, bool exclusive,
                          bool upgrade)
{
    if (tracer_ == nullptr)
        return;
    obs::TraceEvent event;
    event.kind = obs::EventKind::IbcFetch;
    event.at = started;
    event.addr = addr;
    event.arg0 = events_.now() - started;
    event.master = globalId_;
    event.track = traceTrack_;
    event.aux = static_cast<std::uint8_t>((exclusive ? 1u : 0u) |
                                          (upgrade ? 2u : 0u));
    tracer_->record(event);
}

std::uint64_t
InterBusBoard::frameOf(Addr paddr) const
{
    return image_.frameOf(paddr);
}

Addr
InterBusBoard::frameBase(Addr paddr) const
{
    return image_.frameBase(image_.frameOf(paddr));
}

WatchVerdict
InterBusBoard::observe(const mem::BusTransaction &tx)
{
    // Never compete against our own local recalls.
    if (tx.requester == localId_)
        return WatchVerdict::Ignore;

    switch (tx.type) {
      case TxType::WriteBack:
        // Every local write-back lands in the cluster image. Mark the
        // frame dirty so a later downgrade/invalidate propagates it to
        // main memory. The marking is conservative: we cannot know
        // here whether another local monitor aborts this transfer, but
        // writing back a frame whose image copy merely *equals* main
        // memory is redundant, never incorrect.
        dirty_[frameOf(tx.paddr)] = true;
        return WatchVerdict::Ignore;
      case TxType::Notify:
        // Notifications are cluster-local (cross-cluster notification
        // would need a global forwarding entry; out of scope).
        return WatchVerdict::Ignore;
      case TxType::ReadShared:
        if (localTable_.entryFor(tx.paddr) != ActionEntry::Ignore)
            return WatchVerdict::Ignore; // present: serve from image
        break;
      case TxType::ReadPrivate:
      case TxType::AssertOwnership:
        if (localTable_.entryFor(tx.paddr) == ActionEntry::Protect)
            return WatchVerdict::Ignore; // cluster owns the frame
        break;
      default:
        return WatchVerdict::Ignore;
    }

    // Cluster-level miss: abort the local transaction (the CPU retries,
    // just as against a busy owner in the flat protocol) and queue a
    // fetch/upgrade request for the service software.
    ++localAborts_;
    localFifo_.push({tx.type, tx.paddr, tx.requester, true});
    kick();
    return WatchVerdict::AbortAndInterrupt;
}

void
InterBusBoard::sideEffectUpdate(const mem::BusTransaction &)
{
    // The board's own local transactions never carry side-effect
    // updates (recalls use updatesTable = false); CPU transactions
    // update their own monitors, not this watcher.
}

mem::ActionEntry
InterBusBoard::clusterState(Addr paddr) const
{
    return localTable_.entryFor(paddr);
}

bool
InterBusBoard::isDirty(Addr paddr) const
{
    const auto frame = image_.frameOf(paddr);
    return frame < dirty_.size() && dirty_[frame];
}

mem::ActionEntry
InterBusBoard::globalShadowEntry(Addr paddr) const
{
    const auto frame = image_.frameOf(paddr);
    return frame < globalShadow_.frames() ? globalShadow_.get(frame)
                                          : ActionEntry::Ignore;
}

bool
InterBusBoard::idle() const
{
    return !busy_ && !kickScheduled_ && localFifo_.empty() &&
        !localFifo_.overflowed() && globalMonitor_.fifo().empty() &&
        !globalMonitor_.fifo().overflowed();
}

void
InterBusBoard::kick()
{
    if (dead_ || wedged_ || busy_ || kickScheduled_)
        return;
    kickScheduled_ = true;
    events_.scheduleIn(1, [this] {
        kickScheduled_ = false;
        pump();
    }, "ibc-pump");
}

void
InterBusBoard::pump()
{
    if (dead_ || wedged_ || busy_)
        return;
    // Global-FIFO overflow may have lost an interrupt word for another
    // cluster's *successful* ownership acquisition; recover
    // conservatively before trusting any entry again.
    if (globalMonitor_.fifo().overflowed()) {
        busy_ = true;
        ++serviceEpoch_;
        recoverGlobalOverflow();
        return;
    }
    // Local-FIFO overflow is harmless: every dropped word belonged to
    // an aborted local transaction whose CPU retries and regenerates
    // it.
    if (localFifo_.overflowed()) {
        localFifo_.clearOverflow();
        ++localOverflowClears_;
    }
    if (auto word = globalMonitor_.fifo().pop()) {
        busy_ = true;
        ++wordsGlobal_;
        ++serviceEpoch_;
        serviceGlobalWord(*word, /*nested=*/false);
        return;
    }
    if (auto word = localFifo_.pop()) {
        busy_ = true;
        ++wordsLocal_;
        ++serviceEpoch_;
        local_.word = *word;
        afterSoftware(timing_.serviceNs, Step::DispatchLocal);
        return;
    }
}

void
InterBusBoard::finishWork()
{
    busy_ = false;
    pump();
}

void
InterBusBoard::afterSoftware(Tick delay, Step step)
{
    // Every software step of a dead board vanishes: in-flight service
    // chains (including retry loops) cut off at their next instruction
    // boundary, so a dead board schedules no further work and the
    // event queue still drains.
    events_.scheduleIn(delay, smallCapture([this, step] {
                           if (!dead_)
                               runStep(step);
                       }),
                       "ibc-software");
}

void
InterBusBoard::runStep(Step step)
{
    switch (step) {
      case Step::DispatchLocal:
        dispatchLocalWord();
        return;
      case Step::Install:
        localTable_.setFor(local_.base, local_.entry);
        finishWork();
        return;
      case Step::GlobalWord:
        globalWord();
        return;
    }
}

void
InterBusBoard::failstop()
{
    dead_ = true;
}

Tick
InterBusBoard::retryDelay()
{
    return timing_.retryNs + rng_.below(timing_.retryJitterNs + 1);
}

// --- local side: fetch/upgrade requests -----------------------------

void
InterBusBoard::dispatchLocalWord()
{
    const auto entry = localTable_.entryFor(local_.word.paddr);
    const bool want_exclusive = local_.word.type != TxType::ReadShared;

    // An earlier word (or a concurrent upgrade) may already have
    // satisfied this request.
    if (entry == ActionEntry::Protect ||
        (!want_exclusive && entry != ActionEntry::Ignore)) {
        ++spurious_;
        finishWork();
        return;
    }
    if (entry == ActionEntry::Ignore)
        fetchFrame(want_exclusive);
    else
        upgradeFrame(); // Shared -> Protect
}

void
InterBusBoard::fetchFrame(bool exclusive)
{
    local_.base = frameBase(local_.word.paddr);
    local_.started = events_.now();
    local_.exclusive = exclusive;
    globalCopier_.readPage(
        local_.base, pageBytes_, exclusive,
        smallCapture([this](const mem::TxResult &result) {
            fetched(result);
        }));
}

void
InterBusBoard::fetched(const mem::TxResult &result)
{
    if (result.aborted) {
        ++retries_;
        // Another cluster owns the frame. Service its pending requests
        // first — it may be waiting for a frame *we* hold — then retry
        // from current cluster state.
        local_.retryName = "ibc-fetch-retry";
        drainGlobalWords();
        return;
    }
    const Addr base = local_.base;
    image_.initBlock(base, globalCopier_.buffer(), pageBytes_);
    const auto frame = frameOf(base);
    dirty_[frame] = false;
    const auto entry =
        local_.exclusive ? ActionEntry::Protect : ActionEntry::Shared;
    shadowSet(frame, entry);
    ++(local_.exclusive ? exclusiveFetches_ : sharedFetches_);
    if (budgetFault_)
        budgetFault_();
    traceFetch(local_.started, base, local_.exclusive,
               /*upgrade=*/false);
    install(entry);
}

void
InterBusBoard::upgradeFrame()
{
    local_.base = frameBase(local_.word.paddr);
    local_.started = events_.now();
    mem::BusTransaction tx;
    tx.type = TxType::AssertOwnership;
    tx.requester = globalId_;
    tx.paddr = local_.base;
    tx.newEntry = ActionEntry::Protect;
    tx.updatesTable = true;
    globalBus_.request(tx,
                       smallCapture([this](const mem::TxResult &result) {
                           upgraded(result);
                       }));
}

void
InterBusBoard::upgraded(const mem::TxResult &result)
{
    if (result.aborted) {
        ++retries_;
        // The drain may invalidate this very frame (we lost a race for
        // ownership); dispatch re-examines the state.
        local_.retryName = "ibc-upgrade-retry";
        drainGlobalWords();
        return;
    }
    ++upgrades_;
    shadowSet(frameOf(local_.base), ActionEntry::Protect);
    if (budgetFault_)
        budgetFault_();
    traceFetch(local_.started, local_.base, /*exclusive=*/true,
               /*upgrade=*/true);
    install(ActionEntry::Protect);
}

void
InterBusBoard::install(ActionEntry entry)
{
    local_.entry = entry;
    afterSoftware(timing_.installNs, Step::Install);
}

// --- global side: consistency interrupt service ---------------------

void
InterBusBoard::serviceGlobalWord(const monitor::InterruptWord &word,
                                 bool nested)
{
    global_.word = word;
    global_.nested = nested;
    afterSoftware(timing_.serviceNs, Step::GlobalWord);
}

void
InterBusBoard::globalWord()
{
    const monitor::InterruptWord &word = global_.word;
    // Echo of one of our own (self-observed) transactions.
    if (word.requester == globalId_ && !word.aborted) {
        ++spurious_;
        globalDone();
        return;
    }
    const Addr base = frameBase(word.paddr);
    const auto frame = frameOf(word.paddr);
    const auto state = localTable_.entryFor(base);
    global_.base = base;
    global_.frame = frame;
    global_.state = state;
    switch (word.type) {
      case TxType::ReadShared:
        // Another cluster wants a shared copy of a frame we own.
        if (state == ActionEntry::Protect) {
            downgradeCluster();
        } else if (state == ActionEntry::Shared) {
            // Compatible with our shared copy: typically the retry of
            // a request our since-downgraded Protect entry aborted. The
            // Shared entry MUST stand — it is what guarantees we are
            // interrupted when another cluster later asserts
            // ownership. Clearing it here would let that assert slip
            // past silently and leave this cluster free to upgrade a
            // stale image.
            ++spurious_;
            globalDone();
        } else {
            clearGlobalEntryIfStale(base, Then::GlobalDone);
        }
        return;
      case TxType::ReadPrivate:
      case TxType::AssertOwnership:
        if (state != ActionEntry::Ignore)
            invalidateCluster();
        else
            clearGlobalEntryIfStale(base, Then::GlobalDone);
        return;
      case TxType::WriteBack:
        // Another cluster wrote a frame back while our entry still
        // claimed it: only legal as a stale-entry race (they acquired
        // ownership and the corresponding word is, or was, ahead of
        // this one in the FIFO).
        if (state != ActionEntry::Ignore || dirty_[frame]) {
            ++violations_;
            localTable_.setFor(base, ActionEntry::Ignore);
            dirty_[frame] = false;
            recallLocal(base, Then::WriteBackRecalled);
        } else {
            clearGlobalEntryIfStale(base, Then::GlobalDone);
        }
        return;
      default:
        ++spurious_;
        globalDone();
        return;
    }
}

void
InterBusBoard::globalDone()
{
    if (global_.nested)
        drainGlobalWords();
    else
        finishWork();
}

void
InterBusBoard::drainGlobalWords()
{
    if (auto word = globalMonitor_.fifo().pop()) {
        ++wordsGlobal_;
        serviceGlobalWord(*word, /*nested=*/true);
        return;
    }
    events_.scheduleIn(retryDelay(),
                       smallCapture([this] { dispatchLocalWord(); }),
                       local_.retryName);
}

void
InterBusBoard::downgradeCluster()
{
    ++downgrades_;
    // Block new local fills first: local transactions abort and queue
    // as ordinary fetch requests until the transition completes.
    localTable_.setFor(global_.base, ActionEntry::Ignore);
    recallLocal(global_.base, Then::DowngradeRecalled);
}

void
InterBusBoard::invalidateCluster()
{
    ++invalidates_;
    localTable_.setFor(global_.base, ActionEntry::Ignore);
    recallLocal(global_.base, Then::InvalidateRecalled);
}

void
InterBusBoard::resume(Then then)
{
    const Addr base = global_.base;
    const auto frame = global_.frame;
    switch (then) {
      case Then::GlobalDone:
        globalDone();
        return;
      case Then::DowngradeRecalled:
        if (dirty_[frame])
            writeBackGlobal(base, ActionEntry::Shared,
                            Then::DowngradeWritten);
        else
            setGlobalEntry(base, ActionEntry::Shared,
                           Then::DowngradeFinish);
        return;
      case Then::DowngradeWritten:
        dirty_[frame] = false;
        resume(Then::DowngradeFinish);
        return;
      case Then::DowngradeFinish:
        shadowSet(frame, ActionEntry::Shared);
        localTable_.setFor(base, ActionEntry::Shared);
        globalDone();
        return;
      case Then::InvalidateRecalled:
        if (global_.state == ActionEntry::Protect && dirty_[frame]) {
            writeBackGlobal(base, ActionEntry::Ignore,
                            Then::InvalidateWritten);
        } else {
            dirty_[frame] = false;
            shadowErase(frame);
            setGlobalEntry(base, ActionEntry::Ignore, Then::GlobalDone);
        }
        return;
      case Then::InvalidateWritten:
        dirty_[frame] = false;
        shadowErase(frame);
        globalDone();
        return;
      case Then::WriteBackRecalled:
        clearGlobalEntryIfStale(base, Then::GlobalDone);
        return;
      case Then::RecoveryRecalled: {
        const auto dropped = recoveryFrames_[recoveryIndex_];
        dirty_[dropped] = false;
        shadowErase(dropped);
        setGlobalEntry(image_.frameBase(dropped), ActionEntry::Ignore,
                       Then::RecoveryNext);
        return;
      }
      case Then::RecoveryNext:
        ++recoveryIndex_;
        dropSharedFrame();
        return;
    }
}

void
InterBusBoard::clearGlobalEntryIfStale(Addr base, Then then)
{
    const auto frame = frameOf(base);
    if (globalShadow_.get(frame) == ActionEntry::Ignore) {
        ++spurious_;
        resume(then);
        return;
    }
    globalShadow_.set(frame, ActionEntry::Ignore);
    if (budgetUse_)
        budgetUse_(-1);
    setGlobalEntry(base, ActionEntry::Ignore, then);
}

// --- primitives -----------------------------------------------------

void
InterBusBoard::recallLocal(Addr base, Then then)
{
    ++recalls_;
    recallBase_ = base;
    recallThen_ = then;
    recallAttempt();
}

void
InterBusBoard::recallAttempt()
{
    mem::BusTransaction tx;
    tx.type = TxType::AssertOwnership;
    tx.requester = localId_;
    tx.paddr = recallBase_;
    localBus_.request(tx,
                      smallCapture([this](const mem::TxResult &result) {
                          recalled(result);
                      }));
}

void
InterBusBoard::recalled(const mem::TxResult &result)
{
    if (result.aborted) {
        // A local cache still owns the frame; it relinquishes (writing
        // dirty data back to the image) when it services the interrupt
        // this attempt queued.
        ++retries_;
        events_.scheduleIn(retryDelay(),
                           smallCapture([this] { recallAttempt(); }),
                           "ibc-recall-retry");
        return;
    }
    traceInstant(obs::EventKind::IbcRecall, recallBase_);
    resume(recallThen_);
}

void
InterBusBoard::writeBackGlobal(Addr base, ActionEntry after, Then then)
{
    writeBackBase_ = base;
    writeBackAfter_ = after;
    writeBackThen_ = then;
    writeBackAttempt();
}

void
InterBusBoard::writeBackAttempt()
{
    // Re-read the image on every attempt: cheap, and immune to any
    // buffer reuse between retries.
    image_.readBlock(writeBackBase_, globalCopier_.buffer(pageBytes_),
                     pageBytes_);
    globalCopier_.writeBackPage(
        writeBackBase_, pageBytes_, writeBackAfter_,
        smallCapture([this](const mem::TxResult &result) {
            writtenBack(result);
        }));
}

void
InterBusBoard::writtenBack(const mem::TxResult &result)
{
    if (result.aborted) {
        // Only a stale Shared entry in another cluster's monitor can
        // abort our write-back; it clears autonomously, so a plain
        // jittered retry (no drain mid-transition) converges.
        ++retries_;
        events_.scheduleIn(retryDelay(),
                           smallCapture([this] { writeBackAttempt(); }),
                           "ibc-wb-retry");
        return;
    }
    ++globalWriteBacks_;
    traceInstant(obs::EventKind::IbcWriteBack, writeBackBase_);
    resume(writeBackThen_);
}

void
InterBusBoard::setGlobalEntry(Addr base, ActionEntry entry, Then then)
{
    entryThen_ = then;
    mem::BusTransaction tx;
    tx.type = TxType::WriteActionTable;
    tx.requester = globalId_;
    tx.paddr = base;
    tx.newEntry = entry;
    tx.updatesTable = true;
    globalBus_.request(tx, smallCapture([this](const mem::TxResult &) {
                           resume(entryThen_);
                       }));
}

// --- overflow recovery ----------------------------------------------

void
InterBusBoard::recoverGlobalOverflow()
{
    ++recoveries_;
    globalMonitor_.fifo().clearOverflow();
    // A lost word can only have *required* action for a SharedGlobal
    // frame (another cluster's successful ownership acquisition);
    // transactions against Protect frames were aborted and will be
    // retried, regenerating their words. Drop every shared frame, in
    // frame order.
    recoveryFrames_.clear();
    for (std::uint64_t frame = 0; frame < globalShadow_.frames();
         ++frame) {
        if (globalShadow_.get(frame) == ActionEntry::Shared)
            recoveryFrames_.push_back(frame);
    }
    recoveryIndex_ = 0;
    dropSharedFrame();
}

void
InterBusBoard::dropSharedFrame()
{
    if (recoveryIndex_ >= recoveryFrames_.size()) {
        finishWork();
        return;
    }
    const Addr base = image_.frameBase(recoveryFrames_[recoveryIndex_]);
    localTable_.setFor(base, ActionEntry::Ignore);
    recallLocal(base, Then::RecoveryRecalled);
}

// --- budget-client footprint tracking -------------------------------

void
InterBusBoard::shadowSet(std::uint64_t frame, ActionEntry entry)
{
    // Present entries are never Ignore, so Ignore means absent.
    const bool fresh = globalShadow_.get(frame) == ActionEntry::Ignore;
    globalShadow_.set(frame, entry);
    if (fresh && budgetUse_)
        budgetUse_(+1);
}

void
InterBusBoard::shadowErase(std::uint64_t frame)
{
    if (globalShadow_.get(frame) == ActionEntry::Ignore)
        return;
    globalShadow_.set(frame, ActionEntry::Ignore);
    if (budgetUse_)
        budgetUse_(-1);
}

// --- statistics -----------------------------------------------------

void
InterBusBoard::registerStats(StatGroup &group) const
{
    group.addCounter("fetches_shared",
                     "global page fetches, shared", sharedFetches_);
    group.addCounter("fetches_exclusive",
                     "global page fetches, exclusive",
                     exclusiveFetches_);
    group.addCounter("upgrades",
                     "global shared-to-private upgrades", upgrades_);
    group.addCounter("downgrades",
                     "cluster downgrades (lost exclusivity)",
                     downgrades_);
    group.addCounter("invalidates",
                     "cluster invalidations (lost frame)",
                     invalidates_);
    group.addCounter("recalls",
                     "local recalls issued before releasing frames",
                     recalls_);
    group.addCounter("global_write_backs",
                     "image pages written back to main memory",
                     globalWriteBacks_);
    group.addCounter("retries",
                     "aborted transactions retried (both buses)",
                     retries_);
    group.addCounter("words_local",
                     "local fetch/upgrade request words serviced",
                     wordsLocal_);
    group.addCounter("words_global",
                     "global consistency interrupt words serviced",
                     wordsGlobal_);
    group.addCounter("spurious_words",
                     "words already satisfied/stale when serviced",
                     spurious_);
    group.addCounter("local_aborts",
                     "local transactions aborted (cluster misses)",
                     localAborts_);
    group.addCounter("violations",
                     "protocol invariant violations observed",
                     violations_);
    group.addCounter("overflow_recoveries",
                     "global-FIFO overflow recovery sweeps",
                     recoveries_);
    group.addCounter("local_overflow_clears",
                     "local-FIFO overflow flags cleared",
                     localOverflowClears_);
}

} // namespace vmp::hier
