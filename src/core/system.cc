#include "core/system.hh"

#include "sim/debug.hh"
#include "sim/logging.hh"
#include "trace/synthetic.hh"

namespace vmp::core
{

VmpSystem::VmpSystem(const VmpConfig &config,
                     proto::Translator *translator)
    : cfg_(config), memory_(config.memBytes, config.cache.pageBytes)
{
    cfg_.check();
    if (translator == nullptr) {
        ownedTranslator_ = std::make_unique<proto::DemandTranslator>(
            cfg_.memBytes, cfg_.cache.pageBytes, trace::kernelBase,
            trace::userBase);
        translator = ownedTranslator_.get();
    }
    clusters_.add(std::make_unique<Cluster>(cfg_, 0, "", events_, memory_,
                                            *translator));
}

fault::FaultInjector &
VmpSystem::enableFaultInjection(const fault::FaultSchedule &schedule)
{
    if (injector_)
        fatal("system: fault injection enabled twice");
    injector_ = std::make_unique<fault::FaultInjector>(events_, schedule);
    cluster().setFaultHooks(*injector_);
    if (schedule.arms(fault::FaultKind::DmaBurst)) {
        // Scratch frames 8..15 sit inside the demand translator's
        // reserved low region: DMA traffic there perturbs bus timing
        // and monitor snooping without ever touching a cached page.
        injector_->attachDmaTarget(bus(), cfg_.processors + 64,
                                   8ull * cfg_.cache.pageBytes,
                                   cfg_.cache.pageBytes, 8);
    }
    // Board crashes are time-driven: turn each schedule entry into
    // kill/rejoin events now (deterministic, no RNG draw).
    for (const auto &crash : injector_->schedule().crashes) {
        if (crash.interBus) {
            fatal("system: crashInterBus() on a flat (single-bus) "
                  "system");
        }
        killBoard(crash.board, crash.at);
        if (crash.rejoinAt != 0)
            rejoinBoard(crash.board, crash.rejoinAt);
    }
    // Partial failures (wedge/stuck/slow) are likewise time-driven;
    // babble is opportunity-driven through the injectFifoBabble seam
    // and needs no event here.
    for (const auto &part : injector_->schedule().partials) {
        if (part.interBus) {
            fatal("system: wedgeInterBus() on a flat (single-bus) "
                  "system");
        }
        clusters_.of(part.board, "partial fault on board")
            .armPartialFault(part);
    }
    return *injector_;
}

obs::EventTracer &
VmpSystem::enableTracing(obs::TraceConfig config)
{
    if (tracer_)
        fatal("system: tracing enabled twice");
    tracer_ = std::make_unique<obs::EventTracer>(config.ringCapacity);
    if (config.profileMisses) {
        profiler_ = std::make_unique<obs::MissProfiler>();
        tracer_->addSink(profiler_->sink());
    }
    cluster().traceBus(*tracer_);
    cluster().traceBoards(*tracer_);
    cluster().traceRecovery(*tracer_, tracer_->registerTrack("recover"));
    VMP_DTRACE(debug::Obs, events_.now(), "tracing armed: ",
               tracer_->trackCount(), " tracks, ring capacity ",
               tracer_->ringCapacity());
    return *tracer_;
}

void
VmpSystem::setUserPrivateHint(bool enabled)
{
    if (!ownedTranslator_)
        fatal("setUserPrivateHint requires the internal demand "
              "translator");
    ownedTranslator_->setUserPrivateHint(enabled);
}

StatGroups
VmpSystem::statGroups() const
{
    StatGroups groups;
    cluster().addBusStats(groups);
    cluster().addBoardStats(groups);
    groups.add("fault", injector_.get());
    groups.add("check", cluster().checker());
    groups.add("recover", cluster().recovery());
    groups.add("backing", cluster().checkpointer());
    groups.add("obs", tracer_.get(), profiler_.get());
    return groups;
}

RunResult
VmpSystem::collect(const std::vector<cpu::TraceCpu *> &cpus) const
{
    RunResult result;
    clusters_.tally(result, cpus);
    result.busUtilization = bus().utilization();
    result.busAborts = bus().aborts().value();
    return result;
}

} // namespace vmp::core
