/**
 * @file
 * The benchmark's workloads: how each is made from a seed, the machine
 * it runs on, and the checks every simulation of it must pass. The
 * simulator only ever sees the generated references.
 */

#ifndef SIMBENCH_WORKLOADS_HH
#define SIMBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/config.hh"
#include "core/fast_sim.hh"
#include "core/hier_system.hh"
#include "core/system.hh"
#include "trace/ref.hh"
#include "trace/synthetic.hh"
#include "trace/trace_io.hh"

namespace simbench
{

/** Seed used when none is given. */
constexpr std::uint64_t kDefaultSeed = 1000;
/** Seed kept out of tuning, for re-checking a claim on fresh data. */
constexpr std::uint64_t kHeldOutSeed = 7919;

enum class MachineKind : std::uint8_t
{
    Flat,  //!< core::VmpSystem
    Hier,  //!< core::HierVmpSystem
    Sweep, //!< one core::FastCacheSim per Figure-4 cell
};

struct Workload
{
    std::string name;
    MachineKind kind = MachineKind::Flat;
    /** The distinct reference streams, each seeded from the run seed. */
    std::vector<vmp::trace::SyntheticConfig> traces;
    /**
     * One entry per consumer (a CPU, or a sweep cell): the index of the
     * stream it runs. Sweep cells reuse each stream across geometries.
     */
    std::vector<std::size_t> consumerTrace;
    /** Sweep only: the cache geometry of each cell. */
    std::vector<vmp::cache::CacheConfig> cellCache;
    vmp::core::VmpConfig flat;
    vmp::core::HierConfig hier;
    /**
     * Geometry of the one-board machine that the proto and mem layer
     * probes run on: the workload's own cache, or for the sweep the
     * Figure-4 anchor point (128 KiB, 256 B pages).
     */
    vmp::cache::CacheConfig probeCache;

    /** References over all consumers. */
    std::uint64_t totalRefs() const;
};

/** Names accepted by makeWorkload, in benchmark order. */
const std::vector<std::string> &workloadNames();

/** Build workload @p name for @p seed; throws FatalError if unknown. */
Workload makeWorkload(const std::string &name, std::uint64_t seed);

/** One generator per consumer. */
std::vector<std::unique_ptr<vmp::trace::SyntheticGen>>
makeGenerators(const Workload &workload);

/** Every distinct stream of @p workload, fully generated. */
std::vector<std::vector<vmp::trace::MemRef>>
materialize(const Workload &workload);

/** One replay source per consumer, each a copy of its stream. */
std::vector<std::unique_ptr<vmp::trace::VectorRefSource>>
makeReplaySources(const Workload &workload,
                  const std::vector<std::vector<vmp::trace::MemRef>>
                      &streams);

/**
 * What identifies a simulation exactly: equal inputs must give equal
 * fingerprints, in any repetition and whether the references come
 * from a generator or a replayed recording.
 */
struct Fingerprint
{
    std::uint64_t refs = 0;
    std::uint64_t misses = 0;
    /** Simulated elapsed ticks (0 for the sweep, which has no clock). */
    std::uint64_t ticks = 0;
    /** Completed (not aborted) transactions over every bus. */
    std::uint64_t busTransactions = 0;
    /** EventQueue::dispatched() at the end of the run. */
    std::uint64_t events = 0;

    bool operator==(const Fingerprint &) const = default;
    std::string toString() const;
};

/** Checked, deterministic result of one simulation. */
struct Outcome
{
    Fingerprint fingerprint;
    /** Simulated elapsed time of the modelled machine, in ms. */
    double simMs = 0.0;
    /** Modelled miss ratio, in percent. */
    double missPct = 0.0;
    /** Mean normalized processor performance (Figure 3 metric). */
    double perfFrac = 0.0;
    /** Empty when every check passed, else what failed. */
    std::string failure;
};

/** One freshly built machine for a workload, run once. */
class Simulation
{
  public:
    explicit Simulation(const Workload &workload);
    ~Simulation();
    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Run every consumer to the end of its source. */
    void run(const std::vector<vmp::trace::RefSource *> &sources);

    /**
     * After run(): check that every consumer retired its whole stream
     * and, on a machine, sweep the quiescent state with the coherence
     * checker; then fingerprint. Call at most once.
     */
    Outcome verify();

    /** The hierarchical machine, or null. */
    vmp::core::HierVmpSystem *hier() { return hier_.get(); }
    /** The machine's event queue, or null for the sweep. */
    vmp::EventQueue *events();
    /** Every bus of the machine (none for the sweep). */
    std::vector<vmp::mem::VmeBus *> buses();
    /** Every processor board's controller (none for the sweep). */
    std::vector<const vmp::proto::CacheController *> controllers();

  private:
    const Workload &workload_;
    std::unique_ptr<vmp::core::VmpSystem> flat_;
    std::unique_ptr<vmp::core::HierVmpSystem> hier_;
    std::vector<std::unique_ptr<vmp::core::FastCacheSim>> cells_;
    std::vector<vmp::trace::RefSource *> sources_;
    vmp::core::RunResult result_;
    bool ran_ = false;
};

} // namespace simbench

#endif // SIMBENCH_WORKLOADS_HH
