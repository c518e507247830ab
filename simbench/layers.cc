#include "layers.hh"

#include <algorithm>
#include <limits>

#include "alloc_count.hh"
#include "cache/cache.hh"
#include "cpu/timing.hh"
#include "mem/phys_mem.hh"
#include "mem/vme_bus.hh"
#include "sim/event.hh"

namespace simbench
{

using namespace vmp;

namespace
{

/** Each host-time probe runs this many times; the fastest is kept. */
constexpr int kProbeRepeats = 5;
/** Events per sim.event probe. */
constexpr std::size_t kEventProbeEvents = 200'000;
/** Minimum bus requests per mem.request probe. */
constexpr std::size_t kBusProbeRequests = 50'000;
/** Requests queued on the bus before the queue is drained. */
constexpr std::size_t kBusProbeBatch = 16;

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** One bus attempt as the machine issued it. */
struct TxRecord
{
    mem::TxType type;
    std::uint32_t requester;
    Addr paddr;
    std::uint32_t bytes;
    Tick queueDelay;
};

void
recordTransactions(mem::VmeBus &bus, std::vector<TxRecord> &out)
{
    bus.addTxObserver([&out](const mem::BusTransaction &tx,
                             const mem::TxResult &result) {
        out.push_back(TxRecord{tx.type, tx.requester, tx.paddr, tx.bytes,
                               result.queueDelay});
    });
}

/** Fastest of kProbeRepeats calls of @p probe (seconds). */
template <typename Probe>
double
fastest(Probe &&probe)
{
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < kProbeRepeats; ++r)
        best = std::min(best, probe());
    return best;
}

/** Replay @p refs into a cold standalone cache, as FastCacheSim does. */
std::uint64_t
replayIntoCache(cache::Cache &cache,
                const std::vector<trace::MemRef> &refs)
{
    std::uint64_t misses = 0;
    for (const trace::MemRef &ref : refs) {
        const auto res = cache.access(ref.asid, ref.vaddr, ref.isWrite(),
                                      ref.supervisor);
        if (res.hit)
            continue;
        ++misses;
        if (res.miss == cache::MissKind::NoMatch) {
            cache.fill(res.suggestedVictim,
                       cache.tagFor(ref.asid, ref.vaddr),
                       static_cast<cache::SlotFlags>(
                           cache::FlagExclusive | cache::FlagSupWritable |
                           cache::FlagUserReadable |
                           cache::FlagUserWritable));
        }
    }
    return misses;
}

/**
 * A chain of events shaped like TraceCpu's cpu-step: each callback
 * captures a pointer and a MemRef and schedules the next one a
 * reference time later.
 */
class StepChain
{
  public:
    StepChain(EventQueue &queue, const std::vector<trace::MemRef> &refs,
              std::size_t limit, Tick ref_ns)
        : queue_(queue), refs_(refs), limit_(limit), refNs_(ref_ns)
    {}

    void
    step()
    {
        if (next_ == limit_)
            return;
        const trace::MemRef ref = refs_[next_++ % refs_.size()];
        queue_.scheduleIn(refNs_, [this, ref] {
            sink_ += ref.vaddr;
            step();
        });
    }

    std::uint64_t sink() const { return sink_; }

  private:
    EventQueue &queue_;
    const std::vector<trace::MemRef> &refs_;
    std::size_t next_ = 0;
    std::size_t limit_;
    Tick refNs_;
    std::uint64_t sink_ = 0;
};

core::VmpConfig
probeMachine(const Workload &workload)
{
    core::VmpConfig cfg;
    cfg.processors = 1;
    cfg.cache = workload.probeCache;
    cfg.memBytes = MiB(8);
    return cfg;
}

/**
 * Present one reference to board 0 the way TraceCpu::step does (take
 * pending monitor interrupts first) and run the machine until it is
 * quiet again. True if the access completed in the same tick without
 * scheduling any work: a hit.
 */
bool
presentReference(core::VmpSystem &machine, const trace::MemRef &ref)
{
    proto::CacheController &controller = machine.controller(0);
    if (controller.interruptPending()) {
        controller.serviceInterrupts([] {});
        machine.events().run();
    }
    bool done = false;
    controller.access(ref.asid, ref.vaddr, ref.isWrite(), ref.supervisor,
                      [&done](proto::AccessOutcome) { done = true; });
    if (done && machine.events().pending() == 0)
        return true;
    machine.events().run();
    if (!done)
        panic("simbench: probe access never completed");
    return false;
}

void
fail(TracedPass &out, const std::string &what)
{
    if (out.failure.empty())
        out.failure = what;
}

/** The machine's own counts after a run; all deterministic. */
struct MachineCounts
{
    double events = 0, misses = 0, retries = 0, stallTicks = 0;
    double words = 0, spurious = 0, busBusy = 0, busTime = 0;
    double fetches = 0, consistency = 0, ibcRetries = 0, ibcOps = 0;
};

MachineCounts
countMachine(Simulation &sim, const Outcome &outcome)
{
    MachineCounts c;
    if (sim.events() != nullptr)
        c.events = static_cast<double>(sim.events()->dispatched());
    for (const auto *ctl : sim.controllers()) {
        c.misses += static_cast<double>(ctl->misses().value());
        c.retries += static_cast<double>(ctl->retries().value());
        c.stallTicks += static_cast<double>(ctl->missStallTicks());
        c.words += static_cast<double>(ctl->wordsServiced().value());
        c.spurious += static_cast<double>(ctl->spuriousWords().value());
    }
    const auto buses = sim.buses();
    for (const mem::VmeBus *bus : buses)
        c.busBusy += static_cast<double>(bus->busyTicks());
    c.busTime = static_cast<double>(buses.size()) *
        static_cast<double>(outcome.fingerprint.ticks);
    if (auto *hier = sim.hier()) {
        for (std::uint32_t k = 0; k < hier->clusters(); ++k) {
            const auto &ibc = hier->interBusBoard(k);
            const double fetches = static_cast<double>(ibc.globalFetches());
            const double retries = static_cast<double>(ibc.retries().value());
            c.fetches += fetches;
            c.consistency += static_cast<double>(
                ibc.invalidates().value() + ibc.downgrades().value() +
                ibc.recalls().value());
            c.ibcRetries += retries;
            c.ibcOps += fetches +
                static_cast<double>(ibc.upgrades().value()) + retries;
            c.words += static_cast<double>(ibc.wordsLocal().value() +
                                           ibc.wordsGlobal().value());
            c.spurious += static_cast<double>(ibc.spuriousWords().value());
        }
    }
    return c;
}

/** Host cost of board 0's hits and misses on a one-board machine. */
struct ProtoProbe
{
    double hitNs = 0.0;
    double missUs = 0.0;
    /** The probe machine's bus traffic. */
    std::vector<TxRecord> txs;
};

/**
 * A classifying pass learns which references hit; timed replays on
 * fresh, identical machines then time runs of consecutive hits as
 * batches and each miss (microseconds long) on its own.
 */
ProtoProbe
probeProto(const Workload &workload,
           const std::vector<trace::MemRef> &refs, SpanLog &spans,
           TracedPass &out)
{
    ProtoProbe probe;
    std::vector<bool> hit(refs.size());
    {
        core::VmpSystem machine(probeMachine(workload));
        recordTransactions(machine.bus(), probe.txs);
        const auto span = spans.open("proto.classify");
        for (std::size_t i = 0; i < refs.size(); ++i)
            hit[i] = presentReference(machine, refs[i]);
    }
    const auto hits =
        static_cast<double>(std::count(hit.begin(), hit.end(), true));
    const auto misses = static_cast<double>(refs.size()) - hits;

    double hit_s = std::numeric_limits<double>::infinity();
    double miss_s = std::numeric_limits<double>::infinity();
    for (int r = 0; r < kProbeRepeats; ++r) {
        core::VmpSystem machine(probeMachine(workload));
        double hit_total = 0.0;
        double miss_total = 0.0;
        bool diverged = false;
        const auto span = spans.open("proto.replay");
        std::size_t i = 0;
        while (i < refs.size()) {
            const auto start = Clock::now();
            if (hit[i]) {
                for (; i < refs.size() && hit[i]; ++i)
                    diverged |= !presentReference(machine, refs[i]);
                hit_total += secondsSince(start);
            } else {
                diverged |= presentReference(machine, refs[i++]);
                miss_total += secondsSince(start);
            }
        }
        if (diverged)
            fail(out, "one-board probe replay diverged from its "
                      "classification");
        hit_s = std::min(hit_s, hit_total);
        miss_s = std::min(miss_s, miss_total);
    }
    probe.hitNs = ratio(hit_s, hits) * 1e9;
    probe.missUs = ratio(miss_s, misses) * 1e6;
    return probe;
}

/** Host ns per VmeBus::request of @p mix replayed on a standalone bus. */
double
probeBus(const std::vector<TxRecord> &mix, std::uint64_t mem_bytes,
         std::uint32_t page_bytes, SpanLog &spans, TracedPass &out)
{
    std::vector<std::uint8_t> buffer(page_bytes);
    std::vector<mem::BusTransaction> requests;
    for (const TxRecord &rec : mix) {
        if (rec.paddr + rec.bytes > mem_bytes || rec.bytes > page_bytes) {
            fail(out, "recorded transaction outside the replay memory");
            continue;
        }
        mem::BusTransaction tx;
        tx.type = rec.type;
        tx.requester = rec.requester;
        tx.paddr = rec.paddr;
        tx.bytes = rec.bytes;
        tx.data = buffer.data();
        requests.push_back(tx);
    }
    if (requests.empty())
        return 0.0;
    std::size_t issued = 0;
    const double seconds = fastest([&] {
        EventQueue queue;
        mem::PhysMem memory(mem_bytes, page_bytes);
        mem::VmeBus bus(queue, memory);
        issued = 0;
        const auto span = spans.open("mem.request");
        while (issued < kBusProbeRequests) {
            for (const mem::BusTransaction &tx : requests) {
                bus.request(tx, {});
                if (++issued % kBusProbeBatch == 0)
                    queue.run();
            }
        }
        queue.run();
        return span.elapsed();
    });
    return seconds / static_cast<double>(issued) * 1e9;
}

} // namespace

TracedPass
runTracedPass(const Workload &workload, const Fingerprint &expected,
              SpanLog &spans)
{
    TracedPass out;
    const auto root = spans.open("traced_pass");
    const double refs = static_cast<double>(workload.totalRefs());

    // --- trace: drain every distinct stream into memory ------------
    std::vector<std::vector<trace::MemRef>> streams;
    double stream_refs = 0.0;
    for (const auto &cfg : workload.traces)
        stream_refs += static_cast<double>(cfg.totalRefs);
    const double next_s = fastest([&] {
        std::vector<std::unique_ptr<trace::SyntheticGen>> gens;
        streams.assign(workload.traces.size(), {});
        for (std::size_t t = 0; t < workload.traces.size(); ++t) {
            gens.push_back(
                std::make_unique<trace::SyntheticGen>(workload.traces[t]));
            streams[t].reserve(workload.traces[t].totalRefs);
        }
        const auto span = spans.open("trace.next");
        trace::MemRef ref;
        for (std::size_t t = 0; t < gens.size(); ++t) {
            while (gens[t]->next(ref))
                streams[t].push_back(ref);
        }
        return span.elapsed();
    });

    // --- core: the simulation over the recorded streams ------------
    std::uint64_t allocs = 0;
    const double core_s = fastest([&] {
        Simulation sim(workload);
        const auto sources = makeReplaySources(workload, streams);
        std::vector<trace::RefSource *> raw;
        for (const auto &s : sources)
            raw.push_back(s.get());
        double seconds = 0.0;
        {
            const auto span = spans.open("core.run");
            const CountAllocations counter;
            sim.run(raw);
            allocs = counter.count();
            seconds = span.elapsed();
        }
        const Outcome replayed = sim.verify();
        if (!replayed.failure.empty())
            fail(out, "replayed run: " + replayed.failure);
        if (replayed.fingerprint != expected)
            fail(out, "replayed run fingerprint " +
                          replayed.fingerprint.toString() +
                          " != generated " + expected.toString());
        return seconds;
    });

    // --- the machine's own counts, from instrumented runs ----------
    // Generator-driven like the untraced repetitions, with every bus
    // recorded; the fastest of them gives the tracing overhead.
    std::vector<TxRecord> txs;
    Outcome counted;
    MachineCounts c;
    out.instrumentedRunS = fastest([&] {
        txs.clear();
        Simulation sim(workload);
        for (mem::VmeBus *bus : sim.buses())
            recordTransactions(*bus, txs);
        const auto gens = makeGenerators(workload);
        std::vector<trace::RefSource *> raw;
        for (const auto &g : gens)
            raw.push_back(g.get());
        double seconds = 0.0;
        {
            const auto span = spans.open("core.instrumented_run");
            sim.run(raw);
            seconds = span.elapsed();
        }
        counted = sim.verify();
        if (!counted.failure.empty())
            fail(out, "instrumented run: " + counted.failure);
        if (counted.fingerprint != expected)
            fail(out, "instrumented run fingerprint differs");
        c = countMachine(sim, counted);
        return seconds;
    });

    // --- cache: each consumer's stream into a standalone cache -----
    const double cache_s = fastest([&] {
        std::vector<std::unique_ptr<cache::Cache>> caches;
        for (std::size_t i = 0; i < workload.consumerTrace.size(); ++i) {
            auto geometry = workload.kind == MachineKind::Sweep
                ? workload.cellCache[i]
                : workload.probeCache;
            geometry.storeData = false;
            caches.push_back(std::make_unique<cache::Cache>(geometry));
        }
        std::uint64_t misses = 0;
        const auto span = spans.open("cache.access");
        for (std::size_t i = 0; i < caches.size(); ++i) {
            misses += replayIntoCache(*caches[i],
                                      streams[workload.consumerTrace[i]]);
        }
        if (workload.kind == MachineKind::Sweep && misses != expected.misses)
            fail(out, "standalone cache replay missed differently");
        return span.elapsed();
    });

    // --- sim: the event kernel alone -------------------------------
    const cpu::M68020Timing timing;
    const double event_s = fastest([&] {
        EventQueue queue;
        StepChain chain(queue, streams[0], kEventProbeEvents,
                        timing.refNs());
        const auto span = spans.open("sim.event");
        chain.step();
        queue.run();
        if (queue.dispatched() != kEventProbeEvents || chain.sink() == 0)
            fail(out, "event probe dispatched the wrong number of events");
        return span.elapsed();
    });

    // --- proto and mem ----------------------------------------------
    // The sweep has no bus of its own; it replays the probe's traffic.
    const ProtoProbe proto = probeProto(
        workload, streams[workload.consumerTrace[0]], spans, out);
    const std::uint64_t mem_bytes = workload.kind == MachineKind::Hier
        ? workload.hier.memBytes
        : workload.kind == MachineKind::Flat ? workload.flat.memBytes
                                             : MiB(8);
    const double request_ns =
        probeBus(txs.empty() ? proto.txs : txs, mem_bytes,
                 workload.probeCache.pageBytes, spans, out);

    double wait_ticks = 0.0;
    for (const TxRecord &rec : txs)
        wait_ticks += static_cast<double>(rec.queueDelay);
    const double tx_count = static_cast<double>(txs.size());
    // The observer sees every attempt; the fingerprint counts the
    // completed ones.
    const double aborts = tx_count -
        static_cast<double>(counted.fingerprint.busTransactions);

    out.metrics = {
        {"trace.next_ns", next_s / stream_refs * 1e9, "ns"},
        {"cache.access_ns", cache_s / refs * 1e9, "ns"},
        {"sim.events_per_ref", c.events / refs, "count"},
        {"sim.event_ns", event_s / kEventProbeEvents * 1e9, "ns"},
        {"core.allocs_per_ref", static_cast<double>(allocs) / refs,
         "count"},
        {"core.sim_ns_per_ref", core_s / refs * 1e9, "ns"},
        {"proto.hit_ns", proto.hitNs, "ns"},
        {"proto.miss_host_us", proto.missUs, "us"},
        {"proto.miss_stall_us", ratio(c.stallTicks, c.misses) * 1e-3,
         "sim_us"},
        {"proto.retries_per_miss", ratio(c.retries, c.misses), "count"},
        {"cpu.perf_frac", counted.perfFrac, "ratio"},
        {"mem.request_ns", request_ns, "ns"},
        {"mem.tx_per_ref", tx_count / refs, "count"},
        {"mem.abort_frac", ratio(aborts, tx_count), "ratio"},
        {"mem.util", ratio(c.busBusy, c.busTime), "ratio"},
        {"mem.wait_ns", ratio(wait_ticks, tx_count), "sim_ns"},
        {"monitor.words_per_ref", c.words / refs, "count"},
        {"monitor.spurious_frac", ratio(c.spurious, c.words), "ratio"},
        {"hier.fetch_per_miss", ratio(c.fetches, c.misses), "count"},
        {"hier.consistency_per_miss", ratio(c.consistency, c.misses),
         "count"},
        {"hier.retry_frac", ratio(c.ibcRetries, c.ibcOps), "ratio"},
    };
    return out;
}

} // namespace simbench
