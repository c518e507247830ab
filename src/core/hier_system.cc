#include "core/hier_system.hh"

#include <algorithm>
#include <sstream>

#include "sim/debug.hh"
#include "sim/logging.hh"
#include "trace/synthetic.hh"

namespace vmp::core
{

VmpConfig
HierConfig::clusterConfig() const
{
    VmpConfig cfg;
    cfg.processors = cpusPerCluster;
    cfg.cache = cache;
    cfg.memBytes = memBytes;
    cfg.busTiming = localBusTiming;
    cfg.arbitration = localArbitration;
    cfg.swTiming = swTiming;
    cfg.cpuTiming = cpuTiming;
    cfg.fifoCapacity = fifoCapacity;
    return cfg;
}

void
HierConfig::check() const
{
    cache.check();
    if (clusters == 0 || clusters > 16)
        fatal("hier: clusters must be in [1, 16]");
    if (cpusPerCluster == 0 || cpusPerCluster > 8)
        fatal("hier: cpusPerCluster must be in [1, 8]");
    if (memBytes == 0 || memBytes % cache.pageBytes != 0)
        fatal("hier: memory must be a positive multiple of the cache "
              "page size");
    if (fifoCapacity == 0 || ibcFifoCapacity == 0)
        fatal("hier: FIFO capacities must be positive");
    localArbitration.check();
    globalArbitration.check();
}

std::string
HierRunResult::toString() const
{
    std::ostringstream os;
    os << RunResult::toString()
       << " localUtil(mean/peak)=" << meanLocalBusUtilization * 100
       << "/" << peakLocalBusUtilization * 100 << "%"
       << " globalFetches=" << globalFetches
       << " globalWriteBacks=" << globalWriteBacks
       << " refs/s=" << refsPerSec;
    return os.str();
}

HierVmpSystem::HierVmpSystem(const HierConfig &config,
                             proto::Translator *translator)
    : cfg_(config), memory_(config.memBytes, config.cache.pageBytes),
      globalBus_(events_, memory_, config.globalBusTiming,
                 config.globalArbitration)
{
    cfg_.check();
    if (translator == nullptr) {
        ownedTranslator_ = std::make_unique<proto::DemandTranslator>(
            cfg_.memBytes, cfg_.cache.pageBytes, trace::kernelBase,
            trace::userBase);
        translator = ownedTranslator_.get();
    }
    for (std::uint32_t k = 0; k < cfg_.clusters; ++k) {
        images_.push_back(std::make_unique<mem::PhysMem>(
            cfg_.memBytes, cfg_.cache.pageBytes));
        mem::PhysMem &image = *images_.back();
        // The bridge watches the local bus ahead of the CPU boards:
        // watcher order fixes the order of same-tick events.
        clusters_.add(std::make_unique<Cluster>(
            cfg_.clusterConfig(), k * cfg_.cpusPerCluster,
            "c" + std::to_string(k) + ".", events_, image, *translator,
            [&](mem::VmeBus &bus) {
                ibcs_.push_back(std::make_unique<hier::InterBusBoard>(
                    k, cfg_.totalCpus() + k, events_, bus, globalBus_,
                    image, cfg_.ibcTiming, cfg_.ibcFifoCapacity));
            }));
    }
}

std::size_t
HierVmpSystem::checkedCluster(std::size_t cluster) const
{
    if (cluster >= clusters_.size())
        panic("cluster index ", cluster, " out of range");
    return cluster;
}

fault::FaultInjector &
HierVmpSystem::enableFaultInjection(const fault::FaultSchedule &schedule)
{
    if (injector_)
        fatal("hier: fault injection enabled twice");
    injector_ = std::make_unique<fault::FaultInjector>(events_, schedule);
    globalBus_.setFaultHooks(injector_.get());
    for (std::size_t k = 0; k < clusters_.size(); ++k) {
        clusters_[k].setFaultHooks(*injector_);
        ibcs_[k]->setFaultHooks(injector_.get());
    }
    if (schedule.arms(fault::FaultKind::DmaBurst)) {
        injector_->attachDmaTarget(globalBus_,
                                   cfg_.totalCpus() + cfg_.clusters + 64,
                                   8ull * cfg_.cache.pageBytes,
                                   cfg_.cache.pageBytes, 8);
    }
    // Board crashes are time-driven: turn each schedule entry into
    // kill/rejoin events now (deterministic, no RNG draw).
    for (const auto &crash : injector_->schedule().crashes) {
        if (crash.interBus) {
            if (crash.rejoinAt != 0)
                fatal("hier: inter-bus boards do not hot-rejoin");
            killInterBusBoard(crash.board, crash.at);
        } else {
            killBoard(crash.board, crash.at);
            if (crash.rejoinAt != 0)
                rejoinBoard(crash.board, crash.rejoinAt);
        }
    }
    // Partial failures (wedge/stuck/slow) are likewise time-driven;
    // babble is opportunity-driven through the injectFifoBabble seam.
    for (const auto &part : injector_->schedule().partials) {
        if (part.interBus)
            wedgeInterBusBoard(part);
        else
            clusters_.of(part.board, "partial fault on board")
                .armPartialFault(part);
    }
    return *injector_;
}

void
HierVmpSystem::wedgeInterBusBoard(const fault::PartialFaultSpec &spec)
{
    // The bridge's service pump stops draining both FIFOs while its
    // global monitor keeps aborting.
    if (spec.kind != fault::FaultKind::MonitorWedge)
        fatal("hier: only wedgeInterBus() partial faults target "
              "inter-bus boards");
    if (spec.board >= cfg_.clusters)
        fatal("hier: wedgeInterBus(", spec.board, ") out of range");
    hier::InterBusBoard *ibc = ibcs_[spec.board].get();
    events_.schedule(spec.at, [this, ibc, k = spec.board] {
        if (ibc->dead())
            return;
        VMP_DTRACE(debug::Fault, events_.now(), "cluster ", k,
                   " inter-bus board wedged");
        ibc->setWedged(true);
        injector_->notePartialFault(fault::FaultKind::MonitorWedge);
    }, "partial-fault");
    if (spec.clearAt != 0) {
        events_.schedule(spec.clearAt, [ibc] { ibc->setWedged(false); },
                         "partial-clear");
    }
}

obs::EventTracer &
HierVmpSystem::enableTracing(obs::TraceConfig config)
{
    if (tracer_)
        fatal("hier: tracing enabled twice");
    tracer_ = std::make_unique<obs::EventTracer>(config.ringCapacity);
    if (config.profileMisses) {
        profiler_ = std::make_unique<obs::MissProfiler>();
        tracer_->addSink(profiler_->sink());
    }
    globalBus_.setTracer(tracer_.get(),
                         tracer_->registerTrack("global_bus"));
    for (std::size_t k = 0; k < clusters_.size(); ++k) {
        clusters_[k].traceBus(*tracer_);
        ibcs_[k]->setTracer(tracer_.get(), tracer_->registerTrack(
            clusters_[k].prefix() + "ibc"));
        clusters_[k].traceBoards(*tracer_);
    }
    recoverTrack_ = tracer_->registerTrack("recover");
    for (auto &cluster : clusters_)
        cluster->traceRecovery(*tracer_, recoverTrack_);
    if (globalRecovery_)
        globalRecovery_->setTracer(tracer_.get(), recoverTrack_);
    VMP_DTRACE(debug::Obs, events_.now(), "hier tracing armed: ",
               tracer_->trackCount(), " tracks, ring capacity ",
               tracer_->ringCapacity());
    return *tracer_;
}

void
HierVmpSystem::enableRecovery(recover::RecoveryConfig options)
{
    if (globalRecovery_)
        fatal("hier: recovery enabled twice");
    // One manager per cluster bus: the CPU boards are full reclaim
    // targets and the inter-bus board is a liveness-only bridge.
    for (std::size_t k = 0; k < clusters_.size(); ++k) {
        hier::InterBusBoard *ibc = ibcs_[k].get();
        clusters_[k].enableRecovery(
            options, [ibc](recover::RecoveryManager &manager) {
                manager.addBridge(ibc->localMasterId(),
                                  [ibc] { return !ibc->dead(); });
            });
    }
    // Global level: the inter-bus boards are the protocol clients;
    // their global monitors are the reclaim targets.
    globalRecovery_ = std::make_unique<recover::RecoveryManager>(
        events_, globalBus_, memory_, options);
    for (auto &board : ibcs_) {
        hier::InterBusBoard *ibc = board.get();
        globalRecovery_->addBoard(ibc->clusterIndex(),
                                  ibc->globalMonitor(),
                                  [ibc] { return !ibc->dead(); });
        // Wedged-IBC witness: a wedged pump answers alive but its
        // progress epoch freezes while words pend. No latency or
        // babble witness for bridges (serviceBusyNs stays 0).
        globalRecovery_->detector().setHealthFn(
            ibc->clusterIndex(), [ibc] {
                recover::HealthReport report;
                report.alive = !ibc->dead();
                report.responsive = !ibc->dead() && !ibc->wedged();
                report.progressEpoch = ibc->serviceEpoch();
                report.pendingWords = ibc->pendingWords();
                report.wordsServiced = ibc->wordsLocal().value() +
                    ibc->wordsGlobal().value();
                report.spuriousWords = ibc->spuriousWords().value();
                report.fifoPushed =
                    ibc->globalMonitor().fifo().pushed().value();
                return report;
            });
    }
    globalRecovery_->setPostReclaimHook([this] {
        if (globalChecker_)
            globalChecker_->checkOwnersSweep();
    });
    if (tracer_)
        globalRecovery_->setTracer(tracer_.get(), recoverTrack_);
    if (globalCheckpointStore_)
        globalRecovery_->setBackingStore(globalCheckpointStore_.get(),
                                         globalCheckpointer_->asid());
    globalRecovery_->install();
}

void
HierVmpSystem::enableFrameCheckpoint(Asid asid)
{
    if (globalCheckpointer_)
        fatal("hier: frame checkpoint enabled twice");
    // One shadow store per cluster image, written off the local bus,
    // plus one for main memory off the global bus. All are latency-0
    // PageStores: the shadow write rides the memory board's own store
    // path; recovery still pays the restore DMA.
    for (auto &cluster : clusters_)
        cluster->enableFrameCheckpoint(asid);
    globalCheckpointStore_ = std::make_unique<backing::PageStore>(
        0, memory_.pageBytes());
    globalCheckpointer_ = std::make_unique<backing::FrameCheckpointer>(
        memory_, *globalCheckpointStore_, asid);
    globalCheckpointer_->install(globalBus_);
    if (globalRecovery_)
        globalRecovery_->setBackingStore(globalCheckpointStore_.get(),
                                         asid);
}

backing::BudgetController &
HierVmpSystem::enableClusterBudget(backing::BudgetConfig config)
{
    if (budget_)
        fatal("hier: cluster budget enabled twice");
    if (config.totalFrames == 0) {
        config.totalFrames = static_cast<std::uint32_t>(
            cfg_.memBytes / cfg_.cache.pageBytes);
    }
    budget_ = std::make_unique<backing::BudgetController>(events_,
                                                          config);
    for (std::uint32_t k = 0; k < cfg_.clusters; ++k) {
        const std::uint32_t client =
            budget_->addClient("cluster" + std::to_string(k));
        auto *controller = budget_.get();
        ibcs_[k]->setBudgetClient(
            [controller, client] { controller->noteFault(client); },
            [controller, client](std::int32_t delta) {
                controller->noteUse(client, delta);
            });
    }
    // Deliberately not start()ed: unarmed epochs would add recurring
    // events (and the run would never drain). Callers opt in.
    return *budget_;
}

recover::RecoveryManager &
HierVmpSystem::recoveryOf(std::size_t cluster) const
{
    if (auto *manager = clusters_[cluster].recovery())
        return *manager;
    panic("cluster recovery ", cluster, " requested before "
          "enableRecovery()");
}

void
HierVmpSystem::killInterBusBoard(std::uint32_t cluster, Tick at)
{
    if (cluster >= cfg_.clusters)
        fatal("hier: killInterBusBoard(", cluster, ") out of range");
    events_.schedule(at, [this, cluster] {
        hier::InterBusBoard &ibc = *ibcs_[cluster];
        if (ibc.dead())
            return;
        VMP_DTRACE(debug::Recover, events_.now(),
                   "killing inter-bus board of cluster ", cluster);
        ibc.failstop();
        if (injector_)
            injector_->noteBoardCrash();
    }, "kill-ibc");
}

void
HierVmpSystem::enableCoherenceCheckers(check::CheckerOptions options)
{
    if (globalChecker_)
        fatal("hier: coherence checkers enabled twice");
    for (auto &cluster : clusters_)
        cluster->enableChecker(options);
    // Global level: the inter-bus boards are the protocol clients, so
    // only the hardware single-owner invariant is checkable there.
    globalChecker_ = std::make_unique<check::CoherenceChecker>(
        globalBus_, memory_, options);
    for (auto &ibc : ibcs_)
        globalChecker_->addMonitor(ibc->globalMonitor());
    globalChecker_->install();
}

check::CoherenceChecker &
HierVmpSystem::clusterChecker(std::size_t cluster)
{
    if (auto *checker = clusters_[cluster].checker())
        return *checker;
    panic("cluster checker ", cluster, " requested before "
          "enableCoherenceCheckers()");
}

check::CoherenceChecker &
HierVmpSystem::globalChecker()
{
    if (!globalChecker_)
        panic("global checker requested before "
              "enableCoherenceCheckers()");
    return *globalChecker_;
}

std::uint64_t
HierVmpSystem::checkFullAll()
{
    std::uint64_t found = 0;
    for (auto &cluster : clusters_) {
        if (check::CoherenceChecker *checker = cluster->checker())
            found += checker->checkFull();
    }
    if (globalChecker_)
        found += globalChecker_->checkFull();
    return found;
}

std::uint64_t
HierVmpSystem::totalViolations() const
{
    std::uint64_t total = 0;
    for (const auto &cluster : clusters_) {
        if (const check::CoherenceChecker *checker = cluster->checker())
            total += checker->violations().value();
    }
    if (globalChecker_)
        total += globalChecker_->violations().value();
    return total;
}

HierRunResult
HierVmpSystem::collect(const std::vector<cpu::TraceCpu *> &cpus) const
{
    HierRunResult result;
    clusters_.tally(result, cpus);
    double local_util_sum = 0.0;
    for (std::size_t k = 0; k < clusters_.size(); ++k) {
        const double util = clusters_[k].bus().utilization();
        local_util_sum += util;
        result.peakLocalBusUtilization =
            std::max(result.peakLocalBusUtilization, util);
        result.globalFetches += ibcs_[k]->globalFetches();
        result.globalWriteBacks += ibcs_[k]->globalWriteBacks().value();
    }
    result.busUtilization = globalBus_.utilization();
    result.meanLocalBusUtilization =
        local_util_sum / static_cast<double>(clusters_.size());
    result.busAborts = globalBus_.aborts().value();
    result.refsPerSec = result.elapsed == 0
        ? 0.0
        : static_cast<double>(result.totalRefs) /
            (static_cast<double>(result.elapsed) * 1e-9);
    return result;
}

StatGroups
HierVmpSystem::statGroups() const
{
    StatGroups groups;
    groups.add("global_bus", &globalBus_);
    for (std::size_t k = 0; k < clusters_.size(); ++k) {
        clusters_[k].addBusStats(groups);
        groups.add(clusters_[k].prefix() + "ibc", ibcs_[k].get());
        clusters_[k].addBoardStats(groups);
    }
    groups.add("fault", injector_.get());
    for (const auto &cluster : clusters_)
        groups.add(cluster->prefix() + "check", cluster->checker());
    groups.add("check.global", globalChecker_.get());
    for (const auto &cluster : clusters_)
        groups.add(cluster->prefix() + "recover", cluster->recovery());
    groups.add("recover.global", globalRecovery_.get());
    for (const auto &cluster : clusters_)
        groups.add(cluster->prefix() + "backing", cluster->checkpointer());
    groups.add("backing.global", globalCheckpointer_.get());
    groups.add("obs", tracer_.get(), profiler_.get());
    return groups;
}

} // namespace vmp::core
