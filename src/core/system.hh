/**
 * @file
 * VmpSystem: the full machine of Section 4 — a shared VMEbus, central
 * memory, and several processor boards, each a 68020-rate CPU model
 * with virtually addressed cache, bus monitor and software cache
 * controller. This is the top-level object of the library's public
 * API: configure it, hand each processor a trace or a scripted
 * program, run, and read the statistics back.
 */

#ifndef VMP_CORE_SYSTEM_HH
#define VMP_CORE_SYSTEM_HH

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hh"
#include "sim/json.hh"

namespace vmp::core
{

/** The machine: one cluster of boards on a bus over main memory. */
class VmpSystem
{
  public:
    /**
     * Build a system. If @p translator is null an internal
     * DemandTranslator is used (kernel region shared across ASIDs).
     */
    explicit VmpSystem(const VmpConfig &config,
                       proto::Translator *translator = nullptr);

    const VmpConfig &config() const { return cfg_; }
    EventQueue &events() { return events_; }
    const EventQueue &events() const { return events_; }
    mem::PhysMem &memory() { return memory_; }
    const mem::PhysMem &memory() const { return memory_; }
    mem::VmeBus &bus() { return cluster().bus(); }
    const mem::VmeBus &bus() const { return cluster().bus(); }
    std::uint32_t processors() const { return cfg_.processors; }
    ProcessorBoard &board(std::size_t index)
    {
        return clusters_.board(index);
    }
    const ProcessorBoard &board(std::size_t index) const
    {
        return clusters_.board(index);
    }
    proto::CacheController &controller(std::size_t index)
    {
        return board(index).controller;
    }
    const proto::CacheController &controller(std::size_t index) const
    {
        return board(index).controller;
    }

    /**
     * Attach one trace-driven CPU per source and run all of them to
     * completion (each stops when its source is exhausted).
     */
    RunResult runTraces(const std::vector<trace::RefSource *> &sources)
    {
        std::vector<std::unique_ptr<cpu::TraceCpu>> cpus;
        return collect(clusters_.runTraces(sources, cpus));
    }

    /**
     * Attach one scripted CPU per program (CPU i uses ASID i+1) and
     * run until every program halts. Returns the CPUs for register
     * inspection. Keep them alive while continuing to use the system:
     * even halted processors service their bus monitors, and pages
     * they own privately are unreachable to other masters otherwise.
     */
    std::vector<std::unique_ptr<cpu::ProgramCpu>>
    runPrograms(const std::vector<cpu::Program> &programs)
    {
        return clusters_.runPrograms(programs);
    }

    /** Collect aggregate statistics for the run so far. */
    RunResult collect(const std::vector<cpu::TraceCpu *> &cpus) const;

    /**
     * Make every board behave like an idle processor: whenever its
     * bus-monitor interrupt line rises, a service pass is scheduled.
     * Use when driving controllers directly (no CPU models attached);
     * TraceCpu/ProgramCpu objects override these hooks while running.
     */
    void attachIdleServicers() { cluster().attachIdleServicers(); }

    /**
     * When using the internal demand translator: declare user pages
     * non-shared (Section 5.4 hint). Read misses to user pages then
     * fetch read-private, eliminating later write upgrades.
     */
    void setUserPrivateHint(bool enabled);

    /**
     * Arm a fault injector over the whole machine: bus transactions,
     * every board's interrupt FIFO and delivery path, and every
     * board's block copier. May be called at most once, before any
     * traffic. With DmaBurst armed, a DMA engine is attached that
     * writes scratch frames (inside the translator's reserved low
     * region, never cached) mid-run. Returns the injector for stats.
     */
    fault::FaultInjector &
    enableFaultInjection(const fault::FaultSchedule &schedule);

    /** The armed injector, or null if none. */
    fault::FaultInjector *faultInjector() { return injector_.get(); }

    /**
     * Install a coherence-invariant checker over the bus: online
     * single-owner checking per transaction plus checkFull() sweeps
     * at quiescence. May be called at most once.
     */
    check::CoherenceChecker &
    enableCoherenceChecker(check::CheckerOptions options = {})
    {
        return cluster().enableChecker(options);
    }

    /** The installed checker, or null if none. */
    check::CoherenceChecker *coherenceChecker()
    {
        return cluster().checker();
    }

    /**
     * Install the failstop-recovery subsystem: a FailureDetector over
     * the bus, the reclaim coordinator, and the dead-owner oracle on
     * every controller (so stranded waits abandon with a structured
     * DeadOwnerError instead of retrying forever). If a coherence
     * checker is (or later becomes) installed, every completed reclaim
     * triggers an immediate single-owner sweep. May be called at most
     * once, before any traffic.
     */
    recover::RecoveryManager &
    enableRecovery(recover::RecoveryConfig options = {})
    {
        return cluster().enableRecovery(options);
    }

    /** The installed recovery manager, or null if none. */
    recover::RecoveryManager *recoveryManager()
    {
        return cluster().recovery();
    }
    const recover::RecoveryManager *recoveryManager() const
    {
        return cluster().recovery();
    }

    /**
     * Install an NVRAM-shadowed frame checkpoint: a cache-page-granule
     * backing::PageStore kept a live shadow of memory by a
     * FrameCheckpointer snapshotting every completed ownership
     * transfer on the bus (zero simulated cost — the memory board
     * mirrors writes into stable storage). If recovery is installed
     * (before or after), it restores reclaimed frames from this store,
     * driving recover.pages_lost to zero by construction. @p asid is
     * the reserved space id frames are keyed under. May be called at
     * most once, before any traffic.
     */
    backing::PageStore &enableFrameCheckpoint(Asid asid = 0xFE)
    {
        return cluster().enableFrameCheckpoint(asid);
    }

    /** The installed checkpointer, or null if none. */
    backing::FrameCheckpointer *frameCheckpointer()
    {
        return cluster().checkpointer();
    }

    /**
     * Arm the observability subsystem: a per-board ring-buffer event
     * tracer over the bus, every monitor/FIFO, every controller's miss
     * phases and block copier, and (if installed) the recovery
     * coordinator — plus, unless disabled in @p config, a MissProfiler
     * folding the traced phases into per-miss breakdowns. Pure
     * observation: no event is scheduled and no RNG is drawn, so
     * simulated time is bit-identical with tracing on or off. May be
     * called at most once, before any traffic; if recovery is enabled
     * later it is wired onto the "recover" track automatically.
     */
    obs::EventTracer &enableTracing(obs::TraceConfig config = {});

    /** The armed tracer, or null if tracing is off. */
    obs::EventTracer *tracer() { return tracer_.get(); }
    const obs::EventTracer *tracer() const { return tracer_.get(); }

    /** The attached miss profiler, or null. */
    obs::MissProfiler *missProfiler() { return profiler_.get(); }
    const obs::MissProfiler *missProfiler() const
    {
        return profiler_.get();
    }

    /**
     * Failstop board @p index at tick @p at: its CPU halts at the next
     * instruction boundary and its controller software dies, but its
     * bus monitor keeps driving the bus from stale table state — the
     * hazard the recovery subsystem exists to clear. Without
     * enableRecovery() the stale Protect entries wedge every later
     * access to the dead board's pages (surfaced as DeadOwnerErrors
     * when the controllers' deadOwnerTimeoutNs expires).
     */
    void killBoard(std::uint32_t index, Tick at)
    {
        clusters_.of(index, "killBoard").killBoard(index, at);
    }

    /**
     * Hot-rejoin board @p index at tick @p at: the monitor is unmasked
     * with a cleared table, the controller restarts cold, and the CPU
     * resumes its trace. If a reclaim is in flight at @p at the rejoin
     * defers until it completes.
     */
    void rejoinBoard(std::uint32_t index, Tick at)
    {
        clusters_.of(index, "rejoinBoard").rejoinBoard(index, at);
    }

    /**
     * Configure the livelock watchdog on every controller: a starving
     * operation (more than @p maxRetries consecutive aborts) fires
     * @p handler once (default: a warning) and keeps retrying.
     * A cap of 0 disables the watchdog.
     */
    void setWatchdog(std::uint64_t maxRetries,
                     proto::CacheController::WatchdogHandler handler = {})
    {
        cluster().setWatchdog(maxRetries, handler);
    }

    /** gem5-style dump of every component's statistics. */
    void dumpStats(std::ostream &os) const
    {
        statGroups().registry().dump(os);
    }

    /**
     * Aggregate every component's StatGroup into a StatRegistry and
     * serialize it: {"bus": {...}, "cpu0": {...}, ...}. Histograms
     * (e.g. the bus arbitration queue-delay distribution) serialize
     * as objects with samples/mean/min/max/underflow/buckets.
     */
    Json statsJson() const { return statGroups().registry().toJson(); }

  private:
    Cluster &cluster() const { return clusters_[0]; }
    /** Every stat group, in dump and JSON order. */
    StatGroups statGroups() const;

    VmpConfig cfg_;
    EventQueue events_;
    mem::PhysMem memory_;
    std::unique_ptr<proto::DemandTranslator> ownedTranslator_;
    /** Exactly one cluster, over main memory. */
    Clusters clusters_{"system"};
    std::unique_ptr<fault::FaultInjector> injector_;
    std::unique_ptr<obs::EventTracer> tracer_;
    std::unique_ptr<obs::MissProfiler> profiler_;
};

} // namespace vmp::core

#endif // VMP_CORE_SYSTEM_HH
