/**
 * @file
 * Cluster: one bus segment of processor boards and every piece of
 * wiring that is made per segment. The local VMEbus fronts one memory;
 * the boards snoop it; a coherence checker, a recovery manager and a
 * frame checkpoint may each watch it. The flat VmpSystem is one cluster
 * over main memory; HierVmpSystem runs one per cluster image, which is
 * Section 7's point that the flat protocol runs unmodified inside each
 * cluster.
 *
 * Board, stat-group and tracer-track names use the machine-wide CPU id
 * ("cpuN"). Bus and checker-family names take the cluster's prefix:
 * "" on the flat machine ("bus", "check", "recover", "backing"), "cK."
 * in a hierarchy ("c0.bus", "c0.check", ...).
 */

#ifndef VMP_CORE_CLUSTER_HH
#define VMP_CORE_CLUSTER_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "backing/checkpoint.hh"
#include "backing/page_store.hh"
#include "cache/cache.hh"
#include "check/coherence_checker.hh"
#include "cpu/program_cpu.hh"
#include "cpu/timing.hh"
#include "cpu/trace_cpu.hh"
#include "fault/injector.hh"
#include "mem/phys_mem.hh"
#include "mem/vme_bus.hh"
#include "monitor/bus_monitor.hh"
#include "obs/event_tracer.hh"
#include "obs/miss_profiler.hh"
#include "proto/controller.hh"
#include "proto/translator.hh"
#include "recover/recovery.hh"
#include "sim/event.hh"
#include "sim/stats.hh"
#include "trace/ref.hh"

namespace vmp::core
{

/** Whole-machine configuration; in a hierarchy, one cluster's. */
struct VmpConfig
{
    /** Number of processor boards on the bus. */
    std::uint32_t processors = 1;
    /** Per-processor cache geometry (prototype: 256 KiB, 4-way). */
    cache::CacheConfig cache{256, 4, 256, true};
    /** Central memory size (prototype maximum: 8 MiB). */
    std::uint64_t memBytes = MiB(8);
    /** Bus and memory-board timing. */
    mem::BusTiming busTiming{};
    /** Bus arbitration discipline (default: plain FIFO). */
    mem::ArbitrationConfig arbitration{};
    /** Software miss-handler instruction budget. */
    proto::SoftwareTiming swTiming{};
    /** Processor execution rate. */
    cpu::M68020Timing cpuTiming{};
    /** Bus-monitor interrupt FIFO depth. */
    std::size_t fifoCapacity = 128;

    void check() const;
};

/** One processor board: cache + monitor + controller (+ CPU, if any). */
struct ProcessorBoard
{
    ProcessorBoard(CpuId id, EventQueue &events, mem::VmeBus &bus,
                   proto::Translator &translator,
                   const VmpConfig &config);

    cache::Cache cache;
    monitor::BusMonitor monitor;
    proto::CacheController controller;
};

/** Aggregate results of a run. */
struct RunResult
{
    Tick elapsed = 0;
    std::uint64_t totalRefs = 0;
    std::uint64_t totalMisses = 0;
    double missRatio = 0.0;
    /** Mean per-processor performance, normalized (Figure 3 metric). */
    double performance = 0.0;
    /** Bus utilization over the run. */
    double busUtilization = 0.0;
    std::uint64_t busAborts = 0;
    std::uint64_t writeBacks = 0;
    /** Completed AssertOwnership transactions (upgrade misses); with
     *  writeBacks and missRatio this is the measured
     *  analytic::BusLoadProfile of the run. */
    std::uint64_t busUpgrades = 0;

    std::string toString() const;
};

/**
 * The stat groups of one dump or serialization, in registration order.
 * Groups reference component members, so a StatGroups lives only until
 * its registry has been read.
 */
class StatGroups
{
  public:
    /** Append group @p name with the stats of @p first and of every
     *  non-null part of @p rest; nothing if @p first is null. */
    template <class First, class... Rest>
    void
    add(std::string name, First *first, Rest *...rest)
    {
        if (first == nullptr)
            return;
        groups_.push_back(std::make_unique<StatGroup>(std::move(name)));
        StatGroup &group = *groups_.back();
        registry_.add(group);
        first->registerStats(group);
        ((rest != nullptr ? rest->registerStats(group) : void()), ...);
    }

    const StatRegistry &registry() const { return registry_; }

  private:
    std::vector<std::unique_ptr<StatGroup>> groups_;
    StatRegistry registry_;
};

/** One bus segment and its per-segment wiring (see the file comment). */
class Cluster
{
  public:
    /** Runs once the local bus exists, before any board watches it. */
    using BusHook = std::function<void(mem::VmeBus &)>;
    /** Runs on a new recovery manager just before it is installed. */
    using RecoveryHook = std::function<void(recover::RecoveryManager &)>;

    /** A local bus over @p memory and config.processors boards with
     *  CPU ids from @p firstCpu; @p beforeBoards lets a bridge board
     *  watch the bus ahead of the processors. */
    Cluster(const VmpConfig &config, CpuId firstCpu, std::string prefix,
            EventQueue &events, mem::PhysMem &memory,
            proto::Translator &translator,
            const BusHook &beforeBoards = {});

    const VmpConfig &config() const { return cfg_; }
    EventQueue &events() const { return events_; }
    const std::string &prefix() const { return prefix_; }
    std::size_t size() const { return boards_.size(); }
    /** The memory the bus fronts. */
    mem::PhysMem &memory() const { return memory_; }
    mem::VmeBus &bus() { return bus_; }
    const mem::VmeBus &bus() const { return bus_; }
    /** The board of CPU id @p cpu, which must be one of this cluster's. */
    ProcessorBoard &board(std::size_t cpu) const
    {
        return *boards_[cpu - first_];
    }
    check::CoherenceChecker *checker() const { return checker_.get(); }
    recover::RecoveryManager *recovery() const { return recovery_.get(); }
    backing::FrameCheckpointer *checkpointer() const
    {
        return checkpointer_.get();
    }
    /** CPU @p cpu's trace CPU while a trace run is in flight, else null:
     *  kill, rejoin and fence events park and resume it. */
    void setRunning(std::uint32_t cpu, cpu::TraceCpu *running)
    {
        running_[cpu - first_] = running;
    }

    void attachIdleServicers();
    void setWatchdog(std::uint64_t maxRetries,
                     const proto::CacheController::WatchdogHandler &handler);
    /** Arm @p injector on the bus and every board. */
    void setFaultHooks(fault::FaultInjector &injector);
    /** Schedule one board partial-failure spec's onset/clear events. */
    void armPartialFault(const fault::PartialFaultSpec &spec);
    void killBoard(std::uint32_t cpu, Tick at);
    void rejoinBoard(std::uint32_t cpu, Tick at)
    {
        events_.schedule(at, [this, cpu] { doRejoin(cpu); },
                         "rejoin-board");
    }

    check::CoherenceChecker &enableChecker(check::CheckerOptions options);
    /** Recovery with every board a reclaim target; @p beforeInstall
     *  registers whatever else the bus carries. */
    recover::RecoveryManager &
    enableRecovery(const recover::RecoveryConfig &options,
                   const RecoveryHook &beforeInstall = {});
    backing::PageStore &enableFrameCheckpoint(Asid asid);

    /** Bus on track "<prefix>bus". */
    void traceBus(obs::EventTracer &tracer)
    {
        bus_.setTracer(&tracer, tracer.registerTrack(prefix_ + "bus"));
    }
    /** Every board on its own "cpuN" track. */
    void traceBoards(obs::EventTracer &tracer);
    /** Recovery events, now or once recovery is enabled, on @p track. */
    void traceRecovery(obs::EventTracer &tracer, std::uint16_t track);

    void addBusStats(StatGroups &groups) const
    {
        groups.add(prefix_ + "bus", &bus_);
    }
    /** One "cpuN" group per board: controller then cache stats. */
    void addBoardStats(StatGroups &groups) const;
    /** Add the boards' misses and write-backs and the bus's completed
     *  ownership upgrades. */
    void addTotals(RunResult &result) const;

  private:
    /** Rejoin body (defers itself while a reclaim is in flight). */
    void doRejoin(std::uint32_t cpu);
    cpu::TraceCpu *running(std::uint32_t cpu) const
    {
        return running_[cpu - first_];
    }

    const VmpConfig cfg_;
    const CpuId first_;
    const std::string prefix_;
    EventQueue &events_;
    mem::PhysMem &memory_;
    mem::VmeBus bus_;
    std::vector<std::unique_ptr<ProcessorBoard>> boards_;
    std::vector<cpu::TraceCpu *> running_;
    fault::FaultInjector *injector_ = nullptr;
    obs::EventTracer *tracer_ = nullptr;
    std::uint16_t recoverTrack_ = 0;
    std::unique_ptr<check::CoherenceChecker> checker_;
    std::unique_ptr<recover::RecoveryManager> recovery_;
    std::unique_ptr<backing::PageStore> checkpointStore_;
    std::unique_ptr<backing::FrameCheckpointer> checkpointer_;
};

/**
 * A machine's clusters, equal-sized and numbered cluster-major: CPU id
 * i is on cluster i / (boards per cluster). Routes per-board operations
 * by CPU id; @p who ("system", "hier") prefixes its errors.
 */
class Clusters
{
  public:
    explicit Clusters(const char *who) : who_(who) {}

    void add(std::unique_ptr<Cluster> c) { all_.push_back(std::move(c)); }
    std::size_t size() const { return all_.size(); }
    auto begin() const { return all_.begin(); }
    auto end() const { return all_.end(); }
    /** Cluster @p k; panics past the last one. */
    Cluster &operator[](std::size_t k) const;
    /** The cluster of CPU id @p cpu; fatal, naming @p what, past it. */
    Cluster &of(std::size_t cpu, const char *what) const;
    ProcessorBoard &board(std::size_t cpu) const
    {
        return of(cpu, "board").board(cpu);
    }

    /**
     * One trace CPU per source, CPU i on board i, kept in @p owned and
     * run to completion. A CPU failstopped mid-trace may stop short;
     * any other shortfall panics.
     */
    std::vector<cpu::TraceCpu *>
    runTraces(const std::vector<trace::RefSource *> &sources,
              std::vector<std::unique_ptr<cpu::TraceCpu>> &owned) const;
    /** One scripted CPU per program (ASID i+1) run until all halt. */
    std::vector<std::unique_ptr<cpu::ProgramCpu>>
    runPrograms(const std::vector<cpu::Program> &programs) const;
    /** Elapsed time, the CPUs' references and performance, and every
     *  cluster's totals: what both machines report alike. */
    void tally(RunResult &result,
               const std::vector<cpu::TraceCpu *> &cpus) const;

  private:
    /** Start one CPU per item and run the machine; returns how many
     *  never signalled completion. */
    template <class Cpu, class Item, class Make>
    std::size_t run(const std::vector<Item> &items, const char *what,
                    std::vector<std::unique_ptr<Cpu>> &cpus,
                    Make make) const;

    const char *who_;
    std::vector<std::unique_ptr<Cluster>> all_;
};

} // namespace vmp::core

#endif // VMP_CORE_CLUSTER_HH
