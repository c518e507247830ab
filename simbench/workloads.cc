#include "workloads.hh"

#include <sstream>

#include "analytic/models.hh"
#include "sim/logging.hh"
#include "trace/workloads.hh"

namespace simbench
{

using namespace vmp;

namespace
{

// Per-repetition sizes. Each repetition is short (about 0.1-0.2 s on a
// 4-vCPU VM) so that many of them fit in one of the host's fast
// phases; see README.md.
constexpr std::uint64_t kFlatRefsPerCpu = 200'000;
constexpr std::uint64_t kHierRefsPerCpu = 80'000;
constexpr std::uint64_t kSweepRefsPerTrace = 30'000;

/** splitmix64: distinct, well-mixed stream seeds from one run seed. */
std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** Four atum2 CPUs with distinct ASIDs, as bench_processors builds. */
std::vector<trace::SyntheticConfig>
atum2Cpus(std::uint64_t seed, std::uint64_t refs, bool private_kernels)
{
    std::vector<trace::SyntheticConfig> out;
    for (std::uint32_t i = 0; i < 4; ++i) {
        auto cfg = trace::workloadConfig("atum2");
        cfg.totalRefs = refs;
        cfg.seed = streamSeed(seed, i);
        cfg.asidBase = static_cast<Asid>(1 + i * 8);
        if (private_kernels)
            cfg.kernelOffset = static_cast<Addr>(i) * 0x20'0000;
        out.push_back(cfg);
    }
    return out;
}

} // namespace

std::uint64_t
Workload::totalRefs() const
{
    std::uint64_t total = 0;
    for (const std::size_t t : consumerTrace)
        total += traces[t].totalRefs;
    return total;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "flat4_hits", "hier2x2_contended", "fig4_sweep"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    if (name == "flat4_hits") {
        // Private kernel images and 256 KiB caches: almost every
        // reference hits, so host time is the hit path.
        w.kind = MachineKind::Flat;
        w.traces = atum2Cpus(seed, kFlatRefsPerCpu, true);
        w.flat.processors = 4;
        w.flat.cache = cache::CacheConfig::forSize(KiB(256), 512, 4, true);
        w.flat.memBytes = MiB(8);
        w.probeCache = w.flat.cache;
    } else if (name == "hier2x2_contended") {
        // One shared kernel image on small caches across two clusters:
        // misses, upgrades, recalls and inter-bus traffic dominate.
        w.kind = MachineKind::Hier;
        w.traces = atum2Cpus(seed, kHierRefsPerCpu, false);
        w.hier.clusters = 2;
        w.hier.cpusPerCluster = 2;
        w.hier.cache = cache::CacheConfig::forSize(KiB(16), 128, 4, true);
        w.hier.memBytes = MiB(8);
        w.probeCache = w.hier.cache;
    } else if (name == "fig4_sweep") {
        // The Figure-4 grid, cold start, one cell after another.
        w.kind = MachineKind::Sweep;
        const auto presets = trace::allWorkloads();
        for (std::size_t p = 0; p < presets.size(); ++p) {
            auto cfg = presets[p];
            cfg.totalRefs = kSweepRefsPerTrace;
            cfg.seed = streamSeed(seed, p);
            w.traces.push_back(cfg);
        }
        for (const std::uint64_t size : {KiB(64), KiB(128), KiB(256)}) {
            for (const std::uint32_t page : {128u, 256u, 512u}) {
                for (std::size_t p = 0; p < presets.size(); ++p) {
                    w.cellCache.push_back(cache::CacheConfig::forSize(
                        size, page, 4, false));
                    w.consumerTrace.push_back(p);
                }
            }
        }
        w.probeCache =
            cache::CacheConfig::forSize(KiB(128), 256, 4, true);
        return w;
    } else {
        fatal("unknown workload '", name, "'");
    }
    for (std::size_t i = 0; i < w.traces.size(); ++i)
        w.consumerTrace.push_back(i);
    return w;
}

std::vector<std::unique_ptr<trace::SyntheticGen>>
makeGenerators(const Workload &workload)
{
    std::vector<std::unique_ptr<trace::SyntheticGen>> gens;
    for (const std::size_t t : workload.consumerTrace) {
        gens.push_back(
            std::make_unique<trace::SyntheticGen>(workload.traces[t]));
    }
    return gens;
}

std::vector<std::vector<trace::MemRef>>
materialize(const Workload &workload)
{
    std::vector<std::vector<trace::MemRef>> streams;
    for (const auto &cfg : workload.traces) {
        trace::SyntheticGen gen(cfg);
        std::vector<trace::MemRef> refs;
        refs.reserve(cfg.totalRefs);
        trace::MemRef ref;
        while (gen.next(ref))
            refs.push_back(ref);
        streams.push_back(std::move(refs));
    }
    return streams;
}

std::vector<std::unique_ptr<trace::VectorRefSource>>
makeReplaySources(const Workload &workload,
                  const std::vector<std::vector<trace::MemRef>> &streams)
{
    std::vector<std::unique_ptr<trace::VectorRefSource>> sources;
    for (const std::size_t t : workload.consumerTrace) {
        sources.push_back(
            std::make_unique<trace::VectorRefSource>(streams.at(t)));
    }
    return sources;
}

std::string
Fingerprint::toString() const
{
    std::ostringstream os;
    os << "refs=" << refs << " misses=" << misses << " ticks=" << ticks
       << " bus_tx=" << busTransactions << " events=" << events;
    return os.str();
}

Simulation::Simulation(const Workload &workload) : workload_(workload)
{
    switch (workload.kind) {
      case MachineKind::Flat:
        flat_ = std::make_unique<core::VmpSystem>(workload.flat);
        break;
      case MachineKind::Hier:
        hier_ = std::make_unique<core::HierVmpSystem>(workload.hier);
        break;
      case MachineKind::Sweep:
        for (const auto &geometry : workload.cellCache)
            cells_.push_back(std::make_unique<core::FastCacheSim>(geometry));
        break;
    }
}

Simulation::~Simulation() = default;

EventQueue *
Simulation::events()
{
    if (flat_)
        return &flat_->events();
    if (hier_)
        return &hier_->events();
    return nullptr;
}

std::vector<mem::VmeBus *>
Simulation::buses()
{
    std::vector<mem::VmeBus *> out;
    if (flat_)
        out.push_back(&flat_->bus());
    if (hier_) {
        for (std::uint32_t k = 0; k < hier_->clusters(); ++k)
            out.push_back(&hier_->localBus(k));
        out.push_back(&hier_->globalBus());
    }
    return out;
}

std::vector<const proto::CacheController *>
Simulation::controllers()
{
    std::vector<const proto::CacheController *> out;
    if (flat_) {
        for (std::uint32_t i = 0; i < flat_->processors(); ++i)
            out.push_back(&flat_->controller(i));
    }
    if (hier_) {
        for (std::uint32_t i = 0; i < hier_->totalCpus(); ++i)
            out.push_back(&hier_->controller(i));
    }
    return out;
}

void
Simulation::run(const std::vector<trace::RefSource *> &sources)
{
    if (ran_)
        panic("simbench: a Simulation runs once");
    if (sources.size() != workload_.consumerTrace.size())
        panic("simbench: ", sources.size(), " sources for ",
              workload_.consumerTrace.size(), " consumers");
    ran_ = true;
    sources_ = sources;
    if (flat_) {
        result_ = flat_->runTraces(sources);
    } else if (hier_) {
        result_ = hier_->runTraces(sources);
    } else {
        for (std::size_t c = 0; c < cells_.size(); ++c)
            cells_[c]->run(*sources[c]);
    }
}

Outcome
Simulation::verify()
{
    Outcome out;
    if (!ran_) {
        out.failure = "verify() before run()";
        return out;
    }
    const auto fail = [&out](const std::string &what) {
        if (out.failure.empty())
            out.failure = what;
    };

    // Every source must be exhausted. A consumer retires at most what
    // its source yielded, so exhausted sources plus a retired total
    // equal to the streams' total mean every consumer retired its
    // whole stream.
    for (auto *source : sources_) {
        trace::MemRef ref;
        if (source->next(ref))
            fail("a source was not drained");
    }

    Fingerprint &fp = out.fingerprint;
    if (!cells_.empty()) {
        const analytic::PerfModel model;
        const cpu::M68020Timing timing;
        double ideal_ns = 0.0;
        double modelled_ns = 0.0;
        for (std::size_t c = 0; c < cells_.size(); ++c) {
            const core::FastSimResult &r = cells_[c]->result();
            if (r.refs != workload_.traces[workload_.consumerTrace[c]]
                              .totalRefs)
                fail("sweep cell " + std::to_string(c) +
                     " did not retire its whole stream");
            fp.refs += r.refs;
            fp.misses += r.misses;
            // The sweep has no clock; its simulated time is the paper's
            // Figure-3 model applied to each cell's measured miss ratio.
            const double ideal = static_cast<double>(r.refs) *
                static_cast<double>(timing.refNs());
            ideal_ns += ideal;
            modelled_ns += ideal /
                model.performance(workload_.cellCache[c].pageBytes,
                                  r.missRatio());
        }
        out.simMs = modelled_ns * 1e-6;
        out.perfFrac = modelled_ns > 0.0 ? ideal_ns / modelled_ns : 0.0;
    } else {
        fp.refs = result_.totalRefs;
        fp.misses = result_.totalMisses;
        fp.ticks = result_.elapsed;
        for (const mem::VmeBus *bus : buses())
            fp.busTransactions +=
                bus->transactions().value() - bus->aborts().value();
        fp.events = events()->dispatched();
        out.simMs = static_cast<double>(result_.elapsed) * 1e-6;
        out.perfFrac = result_.performance;

        // Quiescent coherence sweep (I1-I7), installed only now so the
        // run itself carries no checker.
        std::uint64_t violations = 0;
        if (flat_) {
            auto &checker = flat_->enableCoherenceChecker();
            checker.checkFull();
            violations = checker.violations().value();
        } else {
            hier_->enableCoherenceCheckers();
            hier_->checkFullAll();
            violations = hier_->totalViolations();
        }
        if (violations != 0)
            fail(std::to_string(violations) + " coherence violations");
    }
    if (fp.refs != workload_.totalRefs())
        fail("retired " + std::to_string(fp.refs) + " of " +
             std::to_string(workload_.totalRefs()) + " references");
    out.missPct = fp.refs == 0
        ? 0.0
        : 100.0 * static_cast<double>(fp.misses) /
            static_cast<double>(fp.refs);
    return out;
}

} // namespace simbench
