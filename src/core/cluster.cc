#include "core/cluster.hh"

#include <sstream>

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace vmp::core
{

void
VmpConfig::check() const
{
    cache.check();
    if (processors == 0 || processors > 64)
        fatal("system: processors must be in [1, 64]");
    if (memBytes == 0 || memBytes % cache.pageBytes != 0)
        fatal("system: memory must be a positive multiple of the cache "
              "page size");
    if (fifoCapacity == 0)
        fatal("system: FIFO capacity must be positive");
    arbitration.check();
}

ProcessorBoard::ProcessorBoard(CpuId id, EventQueue &events,
                               mem::VmeBus &bus,
                               proto::Translator &translator,
                               const VmpConfig &config)
    : cache(config.cache),
      monitor(id, config.memBytes, config.cache.pageBytes,
              config.fifoCapacity),
      controller(id, events, cache, monitor, bus, translator,
                 config.swTiming)
{
    bus.attachWatcher(id, monitor);
}

std::string
RunResult::toString() const
{
    std::ostringstream os;
    os << "refs=" << totalRefs << " misses=" << totalMisses
       << " missRatio=" << missRatio * 100 << "%"
       << " perf=" << performance
       << " busUtil=" << busUtilization * 100 << "%"
       << " aborts=" << busAborts << " writeBacks=" << writeBacks
       << " elapsed=" << toUsec(elapsed) << "us";
    return os.str();
}

Cluster::Cluster(const VmpConfig &config, CpuId firstCpu,
                 std::string prefix, EventQueue &events,
                 mem::PhysMem &memory, proto::Translator &translator,
                 const BusHook &beforeBoards)
    : cfg_(config), first_(firstCpu), prefix_(std::move(prefix)),
      events_(events), memory_(memory),
      bus_(events, memory, config.busTiming, config.arbitration),
      running_(config.processors, nullptr)
{
    if (beforeBoards)
        beforeBoards(bus_);
    for (std::uint32_t i = 0; i < cfg_.processors; ++i) {
        boards_.push_back(std::make_unique<ProcessorBoard>(
            first_ + i, events_, bus_, translator, cfg_));
    }
}

void
Cluster::attachIdleServicers()
{
    for (auto &board : boards_) {
        auto *controller = &board->controller;
        controller->busMonitor().setInterruptLine(
            [this, controller] {
                events_.scheduleIn(1, [controller] {
                    controller->serviceInterrupts([] {});
                }, "idle-service");
            });
    }
}

void
Cluster::setWatchdog(std::uint64_t maxRetries,
                     const proto::CacheController::WatchdogHandler &handler)
{
    for (auto &board : boards_)
        board->controller.setWatchdog(maxRetries, handler);
}

void
Cluster::setFaultHooks(fault::FaultInjector &injector)
{
    injector_ = &injector;
    bus_.setFaultHooks(&injector);
    for (auto &board : boards_) {
        board->monitor.setFaultHooks(&injector, &events_);
        board->controller.setFaultHooks(&injector);
    }
}

void
Cluster::armPartialFault(const fault::PartialFaultSpec &spec)
{
    if (spec.kind == fault::FaultKind::FifoBabble)
        return; // drawn per bus transaction inside the injector
    ProcessorBoard &board = this->board(spec.board);
    // Wedge: the service loop stops draining while CPU and monitor
    // hardware keep running against the rotting FIFO and table.
    auto set = [&board, spec](bool on) {
        if (spec.kind == fault::FaultKind::MonitorWedge)
            board.controller.setWedged(on);
        else if (spec.kind == fault::FaultKind::ActionTableStuck)
            board.monitor.setTableStuck(on);
        else if (spec.kind == fault::FaultKind::SlowBoard)
            board.controller.setServiceSlowdown(on ? spec.factor : 1);
        else
            fatal("system: unexpected partial fault kind");
    };
    events_.schedule(spec.at, [this, &board, set, spec] {
        if (board.controller.dead())
            return;
        VMP_DTRACE(debug::Fault, events_.now(), "board ", spec.board,
                   " partial fault onset: ",
                   fault::faultKindName(spec.kind));
        set(true);
        injector_->notePartialFault(spec.kind);
    }, "partial-fault");
    if (spec.clearAt != 0) {
        events_.schedule(spec.clearAt, [this, set, spec] {
            set(false);
            VMP_DTRACE(debug::Fault, events_.now(), "board ", spec.board,
                       " partial fault cleared: ",
                       fault::faultKindName(spec.kind));
        }, "partial-clear");
    }
}

void
Cluster::killBoard(std::uint32_t cpu, Tick at)
{
    events_.schedule(at, [this, cpu] {
        ProcessorBoard &board = this->board(cpu);
        if (board.controller.dead())
            return;
        VMP_DTRACE(debug::Recover, events_.now(), "killing board ", cpu);
        if (cpu::TraceCpu *running = this->running(cpu))
            running->requestFailstop();
        // The controller software dies; the monitor *hardware* keeps
        // driving the bus from its (now stale) table.
        board.controller.failstop();
        if (injector_)
            injector_->noteBoardCrash();
    }, "kill-board");
}

void
Cluster::doRejoin(std::uint32_t cpu)
{
    ProcessorBoard &board = this->board(cpu);
    if (!board.controller.dead())
        return;
    // Never rip the table out from under an in-flight reclaim scan:
    // defer the rejoin until the coordinator finishes.
    if (recovery_ != nullptr && recovery_->recovering()) {
        events_.scheduleIn(usec(10), [this, cpu] { doRejoin(cpu); },
                           "rejoin-board");
        return;
    }
    VMP_DTRACE(debug::Recover, events_.now(), "board ", cpu,
               " hot-rejoining");
    // Cold hardware state: empty table, empty FIFO, unmasked monitor.
    board.monitor.table().clear();
    while (board.monitor.fifo().pop().has_value()) {
    }
    board.monitor.fifo().clearOverflow();
    board.monitor.setMasked(false);
    board.controller.rejoin();
    if (recovery_)
        recovery_->markRejoined(cpu);
    if (cpu::TraceCpu *running = this->running(cpu))
        running->resume();
}

check::CoherenceChecker &
Cluster::enableChecker(check::CheckerOptions options)
{
    if (checker_)
        fatal("system: coherence checker enabled twice");
    checker_ =
        std::make_unique<check::CoherenceChecker>(bus_, memory_, options);
    for (auto &board : boards_)
        checker_->addController(board->controller);
    checker_->install();
    return *checker_;
}

recover::RecoveryManager &
Cluster::enableRecovery(const recover::RecoveryConfig &options,
                        const RecoveryHook &beforeInstall)
{
    if (recovery_)
        fatal("system: recovery enabled twice");
    recovery_ = std::make_unique<recover::RecoveryManager>(
        events_, bus_, memory_, options);
    if (tracer_)
        recovery_->setTracer(tracer_, recoverTrack_);
    for (auto &board : boards_) {
        auto *controller = &board->controller;
        auto *monitor = &board->monitor;
        const std::uint32_t cpu = controller->cpuId();
        recovery_->addBoard(cpu, *monitor,
                            [controller] { return !controller->dead(); });
        controller->setDeadOwnerOracle(recovery_.get());
        // Health witness: the probe channel the detector's partial-
        // failure witnesses read. A wedged service loop still answers
        // alive (the hazard) but stops being responsive and freezes
        // its progress epoch.
        recovery_->detector().setHealthFn(cpu, [controller, monitor] {
            recover::HealthReport report;
            report.alive = !controller->dead();
            report.responsive = !controller->dead() && !controller->wedged();
            report.progressEpoch = controller->serviceEpoch();
            report.pendingWords = monitor->fifo().size() +
                (monitor->fifo().overflowed() ? 1 : 0);
            report.wordsServiced = controller->wordsServiced().value();
            report.spuriousWords = controller->spuriousWords().value();
            report.serviceBusyNs = controller->serviceCpuTicks();
            report.fifoPushed = monitor->fifo().pushed().value();
            return report;
        });
    }
    // Quarantine hooks: park stops the fenced board's reference
    // stream; resync cold-restarts its controller software after an
    // unfence (monitor already unmasked over a clean table).
    recovery_->setFenceHooks(
        [this](std::uint32_t cpu) {
            if (cpu::TraceCpu *running = this->running(cpu))
                running->requestFailstop();
        },
        [this](std::uint32_t cpu) {
            ProcessorBoard &board = this->board(cpu);
            // Babble pushed through the masked window: start empty.
            while (board.monitor.fifo().pop().has_value()) {
            }
            board.monitor.fifo().clearOverflow();
            if (!board.controller.dead())
                board.controller.failstop();
            board.controller.rejoin();
            if (cpu::TraceCpu *running = this->running(cpu))
                running->resume();
        });
    // Checker may be installed before or after: resolve at sweep time.
    recovery_->setPostReclaimHook([this] {
        if (checker_)
            checker_->checkOwnersSweep();
    });
    if (beforeInstall)
        beforeInstall(*recovery_);
    if (checkpointStore_) {
        recovery_->setBackingStore(checkpointStore_.get(),
                                   checkpointer_->asid());
    }
    recovery_->install();
    return *recovery_;
}

backing::PageStore &
Cluster::enableFrameCheckpoint(Asid asid)
{
    if (checkpointer_)
        fatal("system: frame checkpoint enabled twice");
    // Latency 0: the shadow is written as part of the memory board's
    // own store path; recovery still pays its restore DMA.
    checkpointStore_ =
        std::make_unique<backing::PageStore>(0, memory_.pageBytes());
    checkpointer_ = std::make_unique<backing::FrameCheckpointer>(
        memory_, *checkpointStore_, asid);
    checkpointer_->install(bus_);
    if (recovery_)
        recovery_->setBackingStore(checkpointStore_.get(), asid);
    return *checkpointStore_;
}

void
Cluster::traceBoards(obs::EventTracer &tracer)
{
    for (auto &board : boards_) {
        const std::uint16_t track = tracer.registerTrack(
            "cpu" + std::to_string(board->controller.cpuId()));
        board->monitor.setTracer(&tracer, track, &events_);
        board->controller.setTracer(&tracer, track);
    }
}

void
Cluster::traceRecovery(obs::EventTracer &tracer, std::uint16_t track)
{
    tracer_ = &tracer;
    recoverTrack_ = track;
    if (recovery_)
        recovery_->setTracer(tracer_, recoverTrack_);
}

void
Cluster::addBoardStats(StatGroups &groups) const
{
    for (const auto &board : boards_) {
        groups.add("cpu" + std::to_string(board->controller.cpuId()),
                   &board->controller, &board->cache);
    }
}

void
Cluster::addTotals(RunResult &result) const
{
    for (const auto &board : boards_) {
        result.totalMisses += board->controller.misses().value();
        result.writeBacks += board->controller.writeBacks().value();
    }
    result.busUpgrades +=
        bus_.countOf(mem::TxType::AssertOwnership).value();
}

Cluster &
Clusters::operator[](std::size_t k) const
{
    if (k >= all_.size())
        panic("cluster index ", k, " out of range");
    return *all_[k];
}

Cluster &
Clusters::of(std::size_t cpu, const char *what) const
{
    const std::size_t k = cpu / all_.front()->size();
    if (k >= all_.size())
        fatal(who_, ": ", what, "(", cpu, ") out of range");
    return *all_[k];
}

template <class Cpu, class Item, class Make>
std::size_t
Clusters::run(const std::vector<Item> &items, const char *what,
              std::vector<std::unique_ptr<Cpu>> &cpus, Make make) const
{
    const std::size_t boards = all_.size() * all_.front()->size();
    if (items.size() > boards)
        fatal(who_, ": ", items.size(), " ", what, " for ", boards,
              " processors");
    std::size_t remaining = items.size();
    for (std::size_t i = 0; i < items.size(); ++i) {
        const auto id = static_cast<CpuId>(i);
        cpus.push_back(make(of(id, what), id, items[i]));
    }
    for (auto &c : cpus)
        c->run([&remaining] { --remaining; });
    all_.front()->events().run();
    return remaining;
}

std::vector<cpu::TraceCpu *>
Clusters::runTraces(const std::vector<trace::RefSource *> &sources,
                    std::vector<std::unique_ptr<cpu::TraceCpu>> &owned)
    const
{
    const std::size_t remaining = run(
        sources, "traces", owned,
        [](Cluster &cluster, CpuId id, trace::RefSource *source) {
            auto cpu = std::make_unique<cpu::TraceCpu>(
                id, cluster.events(), cluster.board(id).controller,
                *source, cluster.config().cpuTiming);
            cluster.setRunning(id, cpu.get());
            return cpu;
        });
    // A CPU failstopped mid-trace never fires its completion callback;
    // any other shortfall is a genuine hang.
    std::vector<cpu::TraceCpu *> cpus;
    std::size_t halted_midrun = 0;
    for (std::uint32_t i = 0; i < owned.size(); ++i) {
        if (owned[i]->halted() && !owned[i]->finished())
            ++halted_midrun;
        of(i, "traces").setRunning(i, nullptr);
        cpus.push_back(owned[i].get());
    }
    if (remaining != halted_midrun) {
        panic(who_, ": ", remaining - halted_midrun,
              " trace CPUs did not finish");
    }
    return cpus;
}

std::vector<std::unique_ptr<cpu::ProgramCpu>>
Clusters::runPrograms(const std::vector<cpu::Program> &programs) const
{
    std::vector<std::unique_ptr<cpu::ProgramCpu>> cpus;
    const std::size_t remaining = run(
        programs, "programs", cpus,
        [](Cluster &cluster, CpuId id, const cpu::Program &program) {
            return std::make_unique<cpu::ProgramCpu>(
                id, cluster.events(), cluster.board(id).controller,
                static_cast<Asid>(id + 1), program,
                cluster.config().cpuTiming);
        });
    if (remaining != 0)
        panic(who_, ": ", remaining, " program CPUs did not halt");
    return cpus;
}

void
Clusters::tally(RunResult &result,
                const std::vector<cpu::TraceCpu *> &cpus) const
{
    result.elapsed = all_.front()->events().now();
    double perf_sum = 0.0;
    for (const auto *c : cpus) {
        result.totalRefs += c->refsRetired().value();
        perf_sum += c->performance();
    }
    for (const auto &cluster : all_)
        cluster->addTotals(result);
    result.missRatio = result.totalRefs == 0
        ? 0.0
        : static_cast<double>(result.totalMisses) /
            static_cast<double>(result.totalRefs);
    result.performance =
        cpus.empty() ? 0.0 : perf_sum / static_cast<double>(cpus.size());
}

} // namespace vmp::core
